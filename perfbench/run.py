"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload lial4-aspc-md --seed 1 --seconds 20 --trace 0

A run builds the workload's inputs from ``--seed``, sets up the engine
(construction plus the first MD step, whose force calls include the cold
solve: that is ``setup_s``), then runs warm MD steps in a closed loop for
``--seconds``.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced steps and reports the
per-layer budget of the traced ones (and the tracing overhead against the
untraced ones).  Every solve passes the correctness gate
(:mod:`gate`); the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(environment, calibration, per-step data) goes to ``perfbench/results/``.

Exit status: 0 on a correct run, 1 if any correctness check failed, 2 if
the program under test cannot be found or the environment is refused.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import statistics
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

#: NVE drift is measured over this many warm steps (a fixed trajectory
#: length, so a faster program does not change it); a run always measures
#: at least this many
DRIFT_STEPS = 8

#: end-to-end metrics and their units, in report order
END_TO_END_UNITS = {
    "setup_s": "s",
    "step_s_p50": "s",
    "sim_ps_per_day": "ps/day",
    "energy_err_mha_per_atom": "mHa/atom",
    "peak_rss_mb": "MB",
}


class SetupError(RuntimeError):
    """The program under test is missing or the environment is refused."""


def use_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program to benchmark: {src}/repro is missing")
    if os.environ.get("REPRO_SANITIZE", "").strip():
        raise SetupError(
            "refusing to run under REPRO_SANITIZE: the sanitizers change "
            "what is measured"
        )
    sys.path.insert(0, str(src))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != src / "repro":
        raise SetupError(f"imported repro from {repro.__file__}, not {src}")


def _step(driver, cfg, gate, log, op: int, tracer) -> dict:
    """One closed-loop MD step; ``tracer`` (or None) wraps the layers."""
    from spans import ROOT_SPAN

    engine = driver.engine
    ws = getattr(engine, "workspace", None)
    allocs0 = ws.scratch_allocations() if ws is not None else 0
    log.op_id = op
    if tracer is not None:
        tracer.install()
        log.enabled = True
        root = log.open(ROOT_SPAN)
    error = None
    t0 = time.perf_counter()
    try:
        driver.run(cfg, 1)
    except Exception as exc:  # a failed step is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    if tracer is not None:
        log.close(root)
        log.enabled = False
        tracer.remove()
    solves, violations, vcycles = gate.take()
    if error is not None:
        violations.append(error)
    if not solves:
        violations.append("no electronic solve was recorded")
    residual = solves[-1].get("predictor_residual") if solves else None
    if (
        tracer is not None and log.last_prediction is not None
        and solves and "orbitals" in solves[-1]
    ):
        from repro.md.extrapolate import subspace_residual

        residual = subspace_residual(log.last_prediction, solves[-1]["orbitals"])
    log.last_prediction = None
    warm_frac = 0.0
    if ws is not None:
        domains = ws.warm_domains + ws.cold_domains
        warm_frac = ws.warm_domains / domains if domains else 0.0
    return {
        "op": op,
        "traced": tracer is not None,
        "wall_s": wall,
        "ok": not violations,
        "violations": violations,
        "total_energy": (
            driver.frames[-1].total_energy if error is None else float("nan")
        ),
        "solve_energies": [s["energy"] for s in solves],
        "scf_passes": sum(s["passes"] for s in solves),
        "eig_iterations": sum(s["eig_iterations"] for s in solves),
        "predictor_residual": residual,
        "warm_domain_frac": warm_frac,
        "scratch_allocations": (
            ws.scratch_allocations() - allocs0 if ws is not None else 0
        ),
        "vcycles": vcycles,
        "blocks": solves[-1]["blocks"] if solves else [],
    }


def _nve_drift(e_start: float, records: list[dict], natoms: int,
               dt_ps: float) -> float:
    """|ΔE_total| over the first ``DRIFT_STEPS`` warm steps, in mHa per
    atom per simulated ps."""
    steps = records[:DRIFT_STEPS]
    delta = abs(steps[-1]["total_energy"] - e_start)
    return delta / natoms / (len(steps) * dt_ps) * 1000.0


def _calibration(workload, blocks) -> dict:
    """Calibrate at the largest orbital block the workload transforms."""
    import numpy as np

    from envinfo import calibrate

    nband, shape = max(blocks, key=lambda b: b[0] * int(np.prod(b[1])))
    if workload.options.get("batch_domains"):
        from repro import backend

        stacked = sum(nb for nb, sh in blocks if tuple(sh) == tuple(shape))
        return calibrate((stacked, *shape), backend.get().fft)
    return calibrate((nband, *shape), np.fft)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in this process; returns the full result record."""
    import gate as gate_mod
    import layers
    from envinfo import environment
    from spans import Patcher, SpanLog
    from workloads import BACKEND, TIMESTEP, WORKLOADS, make_config, make_driver

    from repro import backend
    from repro.constants import ATU_TO_FS

    workload = WORKLOADS[name]
    backend.set_default(BACKEND)
    refs = gate_mod.load_references()["workloads"][name]
    log = SpanLog()
    gate = gate_mod.Gate()
    gate_patch = Patcher(layers.gate_targets(gate), log)
    gate_patch.install()
    tracer = None
    records: list[dict] = []
    try:
        t0 = time.perf_counter()
        cfg = make_config(workload, seed)
        driver = make_driver(workload)
        setup = _step(driver, cfg, gate, log, 0, None)
        setup_s = time.perf_counter() - t0
        if trace:
            tracer = Patcher(layers.trace_targets(), log)
        t_start = time.perf_counter()
        while setup["ok"]:
            traced = tracer if trace and len(records) % 2 == 1 else None
            rec = _step(driver, cfg, gate, log, len(records) + 1, traced)
            records.append(rec)
            elapsed = time.perf_counter() - t_start
            if not rec["ok"] or (
                len(records) >= DRIFT_STEPS and elapsed + rec["wall_s"] > seconds
            ):
                break
    finally:
        if tracer is not None:
            tracer.remove()
        gate_patch.remove()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    energies = setup["solve_energies"]
    frame0 = energies[0] if energies else float("nan")
    if not abs(frame0 - refs["e_frame0_same_path"]) <= gate_mod.SAME_PATH_TOL_HA:
        setup["ok"] = False
        setup["violations"].append(
            f"frame-0 energy {frame0!r} differs from the same-path reference "
            f"{refs['e_frame0_same_path']!r} by more than "
            f"{gate_mod.SAME_PATH_TOL_HA} Ha"
        )
    ops = [setup] + records
    failed = sum(not r["ok"] for r in ops)
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": failed == 0 and bool(records),
        "attempted": len(ops),
        "failed": failed,
        "environment": environment(),
        "references": refs,
        "setup": setup,
        "records": records,
    }
    if not records:
        result["metrics"] = {}
        return result
    result["calibration"] = _calibration(workload, setup["blocks"])
    dt_ps = TIMESTEP * ATU_TO_FS / 1000.0
    if trace:
        traced = [r for r in records if r["traced"]]
        untraced = [r["wall_s"] for r in records if not r["traced"]]
        values = layers.per_layer_metrics(
            log, traced, untraced, result["calibration"]
        )
        units = layers.PER_LAYER_UNITS
        values["md.nve_drift_mha_per_atom_ps"] = _nve_drift(
            driver.frames[0].total_energy, records, cfg.natoms, dt_ps
        )
        result["span_log"] = log
    else:
        walls = [r["wall_s"] for r in records]
        values = {
            "setup_s": setup_s,
            "step_s_p50": statistics.median(walls),
            "sim_ps_per_day": len(walls) * dt_ps / (sum(walls) / 86400.0),
            # errors below the gate's resolution read as that resolution
            "energy_err_mha_per_atom": max(
                abs(frame0 - refs["e_on3_reference"]),
                gate_mod.SAME_PATH_TOL_HA,
            ) / cfg.natoms * 1000.0,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    result["metrics"] = {
        k: {"value": float(values[k]), "unit": units[k]} for k in units
    }
    return result


def _report(result: dict) -> None:
    """Human-readable lines (the JSON summary is printed after them)."""
    n = len(result["records"])
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"warm steps={n} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for op in [result["setup"]] + result["records"]:
        for v in op["violations"]:
            print(f"# FAILED op {op['op']}: {v}")
    for k, m in result["metrics"].items():
        print(f"#   {k:30s} {m['value']:<22.6g} {m['unit']}")


def _write(result: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    stem = f"{result['workload']}_seed{result['seed']}_trace{result['trace']}"
    log = result.pop("span_log", None)
    if log is not None:
        log.dump(RESULTS / f"{stem}_spans.json")
    with open(RESULTS / f"{stem}.json", "w") as fh:
        json.dump(result, fh, indent=1, default=str)


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        use_program()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _write(result)
    _report(result)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
