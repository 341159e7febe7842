"""sympal benchmark runner.

    python3 perfbench/run.py --workload groups|characters --seed N --seconds S --trace 0|1

Run from the root of a checkout; sympal is imported from its src/.  The
workloads (groups, characters) are defined in workloads.py.  A pass runs every operation of the workload once and
re-verifies each result.  Each pass runs in a fresh single-threaded
Python process, so it pays sympal's in-process caches (field contexts,
lru caches, MatrixGroup.cache) as a CLI call does.  SYMPAL_CACHE_DIR is
unset; only the closure cache phase sets it, to a fresh directory that it
removes.

--trace 0 starts pass processes while the next one is predicted to end
within --seconds (at least one), then reports the end-to-end metrics:
  wall_s       median pass time, first call to last verified result,
               scaled to a fixed core speed (see Probe)
  setup_s      median time from starting a process to its inputs being
               ready: interpreter start, import sympal, seeded input
               generation and fixture JSON written (at least 5 samples;
               processes that only set up make up the count), scaled by
               the probe run during the set-up
  peak_rss_mb  median over pass processes of their ru_maxrss
--trace 1 runs one untraced pass and one pass with tracing.Tracer
installed, and reports the per-layer metrics; trace.overhead_s is the
traced pass time minus the untraced one, both scaled as wall_s is (the
per-layer seconds are raw and include the probe's ~1%).  The traced pass
writes its spans to .perfbench/trace-<workload>-<seed>.json.

Before the result it prints a `meta:` line with the Python and numpy
versions, nproc and the seed (compare.py refuses to pair runs whose
environments differ) and a `failed_frac:` line, failed / attempted
operations.  The last line is the result JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench")
SETUP_SAMPLES = 5
WORKLOADS = ["groups", "characters"]


class Probe:
    """Samples the CPU's speed while a process sets up or runs a pass.

    On a shared host the core a pass runs on alternates between a fast and
    a slow state every ~0.2 s, and the share of slow time drifts over
    minutes: the loop below took 0.23 ms in one run and over 0.4 ms in a
    run minutes later, and raw pass times of the same code followed it,
    spreading by 15-30% between runs.  Every INTERVAL seconds a timer
    signal runs the loop (~0.3 ms) in the process's own thread and records
    its time; their mean is how slow the core was, on average, meanwhile.

    scaled() removes the probes' own time and scales the rest by
    NOMINAL_S / mean loop time: the time at a core speed at which the loop
    takes NOMINAL_S, about its time on a quiet 2-core Xeon host with Python
    3.11.7, so values read as seconds there.  The scale depends on the host
    alone, so a change to sympal moves the result in proportion to the raw
    time it saves.  Over two sets of ten 60 s runs, the interquartile
    range over the median of wall_s went from 23% and 13% raw to 5.0% and
    4.1% scaled on groups, and from 30% and 24% to 8.6% and 6.5% on
    characters.
    """

    INTERVAL = 0.05
    NOMINAL_S = 0.0003
    _buf = [0] * 256

    def __init__(self):
        self.samples: list[float] = []

    @classmethod
    def loop(cls) -> int:
        # allocates no container, so it never sets off the pass's garbage
        # collections and its time does not depend on the pass's heap
        s, buf = 0, cls._buf
        for i in range(3000):
            s += i * i % 7
            buf[i & 255] = s
        return s

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.loop()
        self.samples.append(time.perf_counter() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def net_seconds(self, raw_s: float) -> float:
        return raw_s - sum(self.samples)

    def scaled(self, raw_s: float) -> float:
        if not self.samples:   # shorter than INTERVAL, or not probed
            return raw_s
        return self.net_seconds(raw_s) * self.NOMINAL_S / statistics.fmean(self.samples)


def run_pass(ops, tracer=None) -> int:
    """Run every operation once; return how many failed."""
    state: dict = {}
    failed = 0
    for op in ops:
        if tracer is not None:
            tracer.op = op.name
        try:
            ok = bool(op.check(op.run(state), op.expect))
        except Exception:   # an operation that raises fails; the run goes on
            traceback.print_exc()
            ok = False
        if not ok:
            print(f"FAILED: {op.name}", file=sys.stderr)
            failed += 1
    return failed


def child(args) -> None:
    """One fresh process: set up the inputs, say so with the set-up's probe
    samples, then run one pass."""
    setup = Probe()
    setup.start()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy

    import workloads

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT)
    try:
        ops = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup.stop()
        print("ready", json.dumps(setup.samples), flush=True)
        if args.role == "setup":
            return
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        probe = Probe()
        with probe:
            t0 = time.perf_counter()
            failed = run_pass(ops, tracer)
            raw_s = time.perf_counter() - t0
    finally:
        setup.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    out = {"pass_s": probe.scaled(raw_s), "net_s": probe.net_seconds(raw_s),
           "probe_ms": 1000 * statistics.fmean(probe.samples) if probe.samples else 0.0,
           "attempted": len(ops), "failed": failed,
           "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
           "meta": {"python": platform.python_version(), "numpy": numpy.__version__,
                    "nproc": len(os.sched_getaffinity(0))}}
    if tracer is not None:
        tracer.write_spans(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"))
        out["layers"] = tracer.metrics()
    print(json.dumps(out))


def spawn(args, role: str, trace: int = 0) -> tuple[float, float, dict | None]:
    """Start a child process; return (seconds to ready, scaled by the probe
    as pass times are, seconds to exit, result)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(trace), "--role", role]
    t0 = time.perf_counter()
    env = dict(os.environ, PYTHONHASHSEED="0")
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env) as proc:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
    total = time.perf_counter() - t0
    word, _, samples = first.partition(" ")
    if proc.returncode != 0 or word != "ready":
        raise SystemExit(f"perfbench: {role} process exited with code {proc.returncode}")
    setup = Probe()
    setup.samples = json.loads(samples)
    return (setup.scaled(ready), total,
            json.loads(rest.splitlines()[-1]) if role == "pass" else None)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--role", choices=["main", "setup", "pass"], default="main",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("SYMPAL_CACHE_DIR", None)
    if not os.path.isfile(os.path.join(ROOT, "src", "sympal", "__init__.py")):
        raise SystemExit(f"perfbench: no sympal sources under {ROOT}/src")
    if args.role != "main":
        child(args)
        return 0

    setups, passes = [], []
    if args.trace:
        for trace in (0, 1):
            ready, _, result = spawn(args, "pass", trace)
            setups.append(ready)
            passes.append(result)
        untraced, traced = passes
        metrics = traced["layers"]
        metrics["trace.overhead_s"] = (traced["pass_s"] - untraced["pass_s"], "s")
    else:
        start, totals = time.perf_counter(), []
        while True:
            ready, total, result = spawn(args, "pass")
            setups.append(ready)
            totals.append(total)
            passes.append(result)
            if time.perf_counter() - start + statistics.median(totals) > args.seconds:
                break
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn(args, "setup")[0])
        print("pass_s:", " ".join(f"{p['pass_s']:.3f}" for p in passes))
        print("net_s:", " ".join(f"{p['net_s']:.3f}" for p in passes))
        print("probe_ms:", " ".join(f"{p['probe_ms']:.4f}" for p in passes))
        print("setup_s:", " ".join(f"{s:.3f}" for s in setups))
        metrics = {
            "wall_s": (statistics.median(p["pass_s"] for p in passes), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
        }

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    meta = dict(passes[0]["meta"], seed=args.seed, workload=args.workload,
                trace=args.trace, seconds=args.seconds)
    print("meta:", json.dumps(meta, sort_keys=True))
    print(f"failed_frac: {failed}/{attempted}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
