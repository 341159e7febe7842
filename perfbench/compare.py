"""Summarize benchmark runs into a baseline, or compare two sets of runs.

    python3 perfbench/compare.py summarize LOGDIR > perfbench/baseline.json
    python3 perfbench/compare.py compare BASE NEW

A run is the standard output of run.py, saved as LOGDIR/<name>.log.  BASE
and NEW are log directories or summary files.  Runs are paired by
(workload, seed, trace); the comparison refuses (exit 2) to pair runs
whose environment differs -- Python version, numpy version, nproc -- since
e.g. numpy 2.4's hash-based np.unique alone is half of a closure.

For each workload and end-to-end metric it prints both medians and the
change, then a verdict by BENCHMARK.json's bound: "regressed" when the new
median is worse by more than the bound, "unresolved" when the base runs
spread (interquartile range over median) wider than the bound and not
every new run beats every base run, otherwise "ok".  Exit 1 on any
regression.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ENV_KEYS = ("python", "numpy", "nproc")


def parse_log(text: str) -> dict:
    meta = result = None
    for line in text.splitlines():
        if line.startswith("meta:"):
            meta = json.loads(line[len("meta:"):])
        elif line.startswith("{"):
            result = json.loads(line)
    if meta is None or result is None:
        raise ValueError("not a run.py log: no meta line or no result line")
    return {"meta": meta, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def load_runs(path: str) -> list[dict]:
    if os.path.isdir(path):
        runs = []
        for name in sorted(os.listdir(path)):
            if name.endswith(".log"):
                with open(os.path.join(path, name)) as fh:
                    runs.append(parse_log(fh.read()))
        return runs
    with open(path) as fh:
        return json.load(fh)["runs"]


def env(run: dict) -> dict:
    return {k: run["meta"][k] for k in ENV_KEYS}


def check_pairs(base: list[dict], new: list[dict]) -> list[str]:
    """Mismatched environments among runs paired by workload, seed and trace."""
    def key(run):
        return run["meta"]["workload"], run["meta"]["seed"], run["meta"]["trace"]

    index = {key(r): r for r in base}
    problems = []
    for r in new:
        b = index.get(key(r))
        if b is not None and env(b) != env(r):
            problems.append(f"{key(r)}: {env(b)} vs {env(r)}")
    return problems


def stats(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0}


def by_workload(runs: list[dict], trace: int) -> dict[str, dict[str, list[float]]]:
    out: dict = {}
    for r in runs:
        if r["meta"]["trace"] == trace:
            for k, v in r["metrics"].items():
                out.setdefault(r["meta"]["workload"], {}).setdefault(k, []).append(v)
    return out


def summarize(runs: list[dict]) -> dict:
    sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]
    import tracing
    import workloads

    envs = {json.dumps(env(r), sort_keys=True) for r in runs}
    if len(envs) != 1:
        raise SystemExit(f"runs come from different environments: {sorted(envs)}")
    return {
        "environment": env(runs[0]),
        "why": workloads.WHY,
        "layers": tracing.LAYERS,
        "end_to_end": {w: {k: stats(v) for k, v in m.items()}
                       for w, m in by_workload(runs, 0).items()},
        "per_layer": {w: {k: stats(v) for k, v in m.items()}
                      for w, m in by_workload(runs, 1).items()},
        "failed": sum(r["failed"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "runs": runs,
    }


def compare(base: list[dict], new: list[dict], bench: dict) -> int:
    problems = check_pairs(base, new)
    if problems:
        print("refusing to pair runs from different environments:", *problems, sep="\n  ")
        return 2
    regressed = False
    b_all, n_all = by_workload(base, 0), by_workload(new, 0)
    for w in sorted(set(b_all) & set(n_all)):
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            bv, nv = b_all[w].get(name), n_all[w].get(name)
            if not bv or not nv:
                continue
            b, n = stats(bv), stats(nv)
            sign = 1 if metric["better"] == "lower" else -1
            change = sign * (n["median"] - b["median"]) / b["median"]
            beats_all = (max(nv) < min(bv)) if sign == 1 else (min(nv) > max(bv))
            if change > bound:
                verdict, regressed = "regressed", True
            elif b["spread"] > bound and not beats_all:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{w:11s} {name:12s} base {b['median']:.4g} (spread {b['spread']:.1%}, "
                  f"n={b['n']})  new {n['median']:.4g} (n={n['n']})  "
                  f"worse by {change:+.1%} (bound {bound:.0%})  {verdict}")
    return 1 if regressed else 0


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "summarize":
        print(json.dumps(summarize(load_runs(argv[1])), indent=1))
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        return compare(load_runs(argv[1]), load_runs(argv[2]), bench)
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
