"""The benchmark's own guarantees, at smoke size (a few MD steps)."""

import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import gate as gate_mod
import layers
import run
from spans import ROOT_SPAN, Patcher, SpanLog
from workloads import WORKLOADS, make_config, make_driver

WORKLOAD = "lial4-aspc-md"


@pytest.fixture(scope="module")
def stepper():
    """A set-up lial4 trajectory with the gate installed."""
    from repro import backend

    from workloads import BACKEND

    backend.set_default(BACKEND)
    log = SpanLog()
    gate = gate_mod.Gate()
    gate_patch = Patcher(layers.gate_targets(gate), log)
    gate_patch.install()
    try:
        workload = WORKLOADS[WORKLOAD]
        cfg = make_config(workload, seed=1)
        driver = make_driver(workload)
        setup = run._step(driver, cfg, gate, log, 0, None)
        assert setup["ok"], setup["violations"]
        yield driver, cfg, gate, log
    finally:
        gate_patch.remove()


def test_wrappers_are_removed_after_a_traced_step(stepper):
    driver, cfg, gate, log = stepper
    tracer = Patcher(layers.trace_targets(), log)
    traced = run._step(driver, cfg, gate, log, 1, tracer)
    assert traced["ok"], traced["violations"]
    assert tracer.calls > 0 and "dft.fft" in log.names
    assert all(
        getattr(owner, attr) is original
        for owner, attr, original, _ in tracer.sites
    )
    calls, spans = tracer.calls, len(log.names)
    untraced = run._step(driver, cfg, gate, log, 2, None)
    assert untraced["ok"], untraced["violations"]
    assert tracer.calls == calls
    assert len(log.names) == spans


def test_traced_run_reconciles():
    result = run.run_workload(WORKLOAD, seed=1, seconds=0, trace=True)
    assert result["correct"]
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert set(metrics) == set(layers.PER_LAYER_UNITS)
    log = result["span_log"]
    self_times = log.self_times()
    traced = [r for r in result["records"] if r["traced"]]
    assert traced
    for rec in traced:
        idx = [i for i, op in enumerate(log.ops) if op == rec["op"]]
        root = [i for i in idx if log.names[i] == ROOT_SPAN]
        assert len(root) == 1
        root_wall = log.ends[root[0]] - log.starts[root[0]]
        # Σ self times (the root's own self time is the unattributed part)
        assert math.isclose(sum(self_times[i] for i in idx), root_wall,
                            rel_tol=1e-9)
        assert math.isclose(root_wall, rec["wall_s"], rel_tol=0.01)
    mean_wall = np.mean([r["wall_s"] for r in traced])
    layer_sum = sum(metrics[m] for m in layers.SELF_TIME_METRICS)
    unattributed = metrics["trace.unattributed_frac"] * mean_wall
    assert math.isclose(layer_sum + unattributed, mean_wall, rel_tol=0.01)
    assert metrics["trace.unattributed_frac"] <= 0.10
    assert metrics["dft.fft_s"] > 0 and metrics["dft.fft_calls"] > 0


def test_seed_changes_inputs_not_metric_names():
    workload = WORKLOADS[WORKLOAD]
    a, b = make_config(workload, 1), make_config(workload, 2)
    assert np.array_equal(a.positions, b.positions)
    assert not np.allclose(a.velocities, b.velocities)
    assert np.array_equal(make_config(workload, 1).velocities, a.velocities)
    names = []
    for seed in (1, 2):
        result = run.run_workload(WORKLOAD, seed=seed, seconds=0, trace=False)
        assert result["correct"]
        names.append(sorted(result["metrics"]))
    assert names[0] == names[1] == sorted(run.END_TO_END_UNITS)


def test_refuses_without_the_program(tmp_path):
    """In a directory holding only the benchmark, a run fails fast and
    prints no result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOAD,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


def test_benchmark_json_matches_the_code():
    """The names and units BENCHMARK.json declares are the ones the runs
    report."""
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == (
        run.END_TO_END_UNITS
    )
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        layers.PER_LAYER_UNITS
    )
