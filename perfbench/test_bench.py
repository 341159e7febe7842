"""Tests of the benchmark itself, on small inputs.

    python3 -m pytest perfbench -q

They check that tracing reaches every namespace a traced name was
imported into, that each per-layer metric is non-zero on the workloads
whose layers it measures and zero on those that bypass them, that a wrong
expectation is counted as a failed operation, that the speed probe
rescales pass times, and that the runner refuses to run without the
program's sources.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sympal import cyclotomic, ffield  # noqa: E402


@pytest.fixture
def fresh(tmp_path):
    """A work directory and sympal's field contexts emptied, as in a fresh process."""
    ffield._CTX.clear()
    return str(tmp_path)


def test_install_patches_every_namespace():
    names = [("sympal.classify", n) for n in
             ("harvest_transvections", "is_irreducible", "group_order", "spin")]
    names += [("sympal.groupkit", "detect_transvection"), ("sympal.npgroup", "is_irreducible"),
              ("sympal.cli", "classify"), ("sympal.cli", "build_np_group")]
    before = {key: getattr(sys.modules[key[0]], key[1]) for key in names}
    cyc_mul = cyclotomic.Cyc.__mul__
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for key in names:
            assert getattr(sys.modules[key[0]], key[1]) is not before[key], key
        assert cyclotomic.Cyc.__mul__ is cyclotomic.Cyc.__rmul__ is not cyc_mul
    finally:
        tracer.uninstall()
    for key in names:
        assert getattr(sys.modules[key[0]], key[1]) is before[key], key
    assert cyclotomic.Cyc.__mul__ is cyclotomic.Cyc.__rmul__ is cyc_mul


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_layers_used_and_bypassed(workload, fresh):
    ops = workloads.WORKLOADS[workload](1, fresh, small=True)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert run.run_pass(ops, tracer) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert list(metrics) == [name for name, _ in tracing.PER_LAYER]
    for layer, spec in tracing.LAYERS.items():
        for name in spec["metrics"]:
            value = metrics[name][0]
            if workload in spec["uses"]:
                assert value > 0, (layer, name)
            if workload in spec["bypass"]:
                assert value == 0, (layer, name)


# one operation per checker, the expectation made wrong as a bug would
WRONG = [
    ("groups", "prime", lambda e: (e[0] - 1, e[1])),
    ("groups", "classify", lambda e: ("huge", 1) if e[0] == "induced" else None),
    ("groups", "extract_induction", lambda e: (e[0], e[1] + 1)),
    ("groups", "build_np_group", lambda e: e + 1),
    ("characters", "mackey.mackey", lambda e: (e[0] + 1, e[1])),
]


@pytest.mark.parametrize("workload, name, corrupt", WRONG)
def test_wrong_expectation_counts_as_failed(workload, name, corrupt, fresh):
    ops = workloads.WORKLOADS[workload](1, fresh, small=True)
    i = next(i for i, op in enumerate(ops) if op.name == name and corrupt(op.expect) is not None)
    op = ops[i]
    # extract_induction takes the induced verdict from the operation before it
    before = ops[i - 1:i] if name == "extract_induction" else []
    assert run.run_pass(before + [op]) == 0
    assert run.run_pass(before + [dataclasses.replace(op, expect=corrupt(op.expect))]) == 1


def test_raising_operation_counts_as_failed(fresh):
    extract = workloads.trichotomy(1, fresh, small=True)[-1]
    assert extract.name == "extract_induction"
    assert run.run_pass([extract]) == 1   # no induced verdict in this pass


def test_benchmark_json_matches_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == run.WORKLOADS
    assert {w["name"]: w["why"] for w in bench["workloads"]} == workloads.WHY
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == tracing.PER_LAYER
    assert [m["name"] for m in bench["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
    layered = [name for spec in tracing.LAYERS.values() for name in spec["metrics"]]
    assert sorted(layered + ["trace.overhead_s"]) == sorted(n for n, _ in tracing.PER_LAYER)


def test_probe_samples_while_a_pass_runs():
    probe = run.Probe()
    with probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            pass
    assert len(probe.samples) >= 5
    n = len(probe.samples)
    time.sleep(0.2)
    assert len(probe.samples) == n   # the timer is off after the pass


def test_probe_rescales_to_nominal_speed():
    probe = run.Probe()
    probe.samples = [2 * run.Probe.NOMINAL_S] * 10   # the core ran at half speed
    raw = 4.0 + sum(probe.samples)
    assert probe.net_seconds(raw) == pytest.approx(4.0)
    assert probe.scaled(raw) == pytest.approx(2.0)
    assert run.Probe().scaled(0.01) == 0.01   # too short to be probed


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "groups",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "no sympal sources" in proc.stderr and "{" not in proc.stdout


def test_compare_refuses_mixed_environments():
    def fake(numpy_version):
        return {"meta": {"python": "3.11.7", "numpy": numpy_version, "nproc": 2,
                         "workload": "groups", "seed": 1, "trace": 0},
                "metrics": {"wall_s": 1.0}}

    bench = {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]}
    assert compare.compare([fake("2.4.6")], [fake("1.26.4")], bench) == 2
    assert compare.compare([fake("2.4.6")], [fake("2.4.6")], bench) == 0
