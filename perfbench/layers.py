"""Which public functions of which ``repro`` layer feed which metric.

Span names are the metric stems: the self seconds of all ``dft.fft``
spans of a step are that step's ``dft.fft_s``.  Two groups of targets:

* :func:`gate_targets` — the solver entry points the correctness gate
  reads results from.  They stay wrapped for the whole run, traced or not
  (one Python call per solve), and record spans only while tracing.
* :func:`trace_targets` — everything else, wrapped only around traced
  steps and removed afterwards.
"""

from __future__ import annotations

import statistics
from typing import Any

from spans import ROOT_SPAN, SpanLog, Target, layer_totals


def _fft_work(kind: str):
    """Band × grid points transformed by one basis-transform call."""

    def work(args, kwargs) -> int:
        basis, arr = args[0], (args[1] if len(args) > 1 else next(iter(kwargs.values())))
        if kind == "to_grid":
            n = 1 if arr.ndim == 1 else arr.shape[1]
        elif kind == "from_grid":
            n = 1 if arr.ndim == 3 else arr.shape[0]
        elif kind == "to_grid_batch":
            n = arr.shape[0] * arr.shape[2]
        else:  # from_grid_batch
            n = arr.shape[0] * arr.shape[1]
        return int(n) * int(basis.grid.npoints)

    return work


def gate_targets(gate) -> list[Target]:
    import repro.core.ldc as ldc
    import repro.dft.forces as dft_forces
    import repro.dft.scf as scf
    from repro.multigrid.poisson import MultigridPoisson

    return [
        Target(ldc, "run_ldc", "core.ldc", after=gate.after_ldc),
        Target(scf, "run_scf", "dft.scf", after=gate.after_scf),
        Target(dft_forces, "forces_from_scf", "dft.forces",
               after=gate.after_forces),
        Target(MultigridPoisson, "solve", "multigrid.poisson",
               after=gate.after_poisson),
    ]


def _stash_prediction(_args, out, log: SpanLog) -> None:
    log.last_prediction = None if out is None else out[0]


def trace_targets() -> list[Target]:
    import numpy as np

    import repro.core.batched as batched
    import repro.core.forces as core_forces
    import repro.dft.eigensolver as eig
    import repro.dft.ewald as ewald
    import repro.dft.hartree as hartree
    import repro.dft.pseudopotential as pseudo
    import repro.dft.xc as xc
    import repro.md.extrapolate as extrapolate
    import repro.util.linalg as linalg
    from repro.core.workspace import LDCWorkspace
    from repro.dft.basis import PlaneWaveBasis
    from repro.dft.hamiltonian import BatchedHamiltonian, Hamiltonian
    from repro.dft.mixing import LinearMixer, PulayMixer

    lobpcg = "dft.eigensolver"
    targets = [
        Target(PlaneWaveBasis, name, "dft.fft", work=_fft_work(name))
        for name in ("to_grid", "from_grid", "to_grid_batch", "from_grid_batch")
    ]
    targets += [
        Target(eig, "solve_all_band", lobpcg),
        Target(eig, "solve_all_band_batched", lobpcg),
        Target(np.linalg, "eigh", "dft.eigh", within=lobpcg),
        Target(linalg, "cholesky_orthonormalize", "dft.ortho", within=lobpcg),
        Target(np.linalg, "qr", "dft.ortho", within=lobpcg),
        Target(Hamiltonian, "precondition", "dft.precondition"),
        Target(BatchedHamiltonian, "precondition", "dft.precondition"),
        Target(Hamiltonian, "apply", "dft.hamiltonian"),
        Target(BatchedHamiltonian, "apply", "dft.hamiltonian"),
        Target(PulayMixer, "mix", "dft.mix"),
        Target(LinearMixer, "mix", "dft.mix"),
        Target(xc, "lda_xc", "dft.xc"),
        Target(xc, "xc_energy", "dft.xc"),
        Target(hartree, "hartree_potential", "dft.hartree"),
        Target(hartree, "hartree_energy", "dft.hartree"),
        Target(pseudo, "local_potential", "dft.global_fields"),
        Target(ewald, "ewald_energy", "dft.global_fields"),
        Target(LDCWorkspace, "prepare", "core.workspace"),
        Target(LDCWorkspace, "store", "core.workspace"),
        Target(core_forces, "ldc_forces", "core.forces"),
        Target(batched, "batched_domain_pass", "core.batched_pass"),
        Target(extrapolate, "extrapolate_fields", "md.predict"),
        Target(extrapolate.DomainHistory, "predict", "md.predict",
               after=_stash_prediction),
    ]
    return targets


#: per-layer metric → the span name whose self seconds it sums; the
#: other metrics are derived in :func:`per_layer_metrics`
SELF_TIME_METRICS = {
    "dft.fft_s": "dft.fft",
    "dft.eigensolver_s": "dft.eigensolver",
    "dft.eigh_s": "dft.eigh",
    "dft.ortho_s": "dft.ortho",
    "dft.precondition_s": "dft.precondition",
    "dft.hamiltonian_s": "dft.hamiltonian",
    "dft.mix_s": "dft.mix",
    "dft.xc_s": "dft.xc",
    "dft.hartree_s": "dft.hartree",
    "dft.global_fields_s": "dft.global_fields",
    "dft.scf_self_s": "dft.scf",
    "dft.forces_s": "dft.forces",
    "core.ldc_self_s": "core.ldc",
    "core.workspace_s": "core.workspace",
    "core.forces_s": "core.forces",
    "core.batched_pass_s": "core.batched_pass",
    "md.predict_s": "md.predict",
    "multigrid.poisson_s": "multigrid.poisson",
}

#: every per-layer metric with its unit, in report order
PER_LAYER_UNITS = {
    **{name: "s" for name in SELF_TIME_METRICS},
    "dft.fft_calls": "count",
    "dft.fft_mpts_per_s": "Mpt/s",
    "dft.eig_iters_per_op": "count",
    "dft.scf_passes_per_op": "count",
    "core.warm_domain_frac": "ratio",
    "core.scratch_allocations": "count",
    "md.predictor_residual": "ratio",
    "multigrid.vcycles_per_solve": "count",
    "md.nve_drift_mha_per_atom_ps": "mHa/atom/ps",
    "trace.unattributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "calib.fft_mpts_per_s": "Mpt/s",
    "calib.dgemm_gflops": "GFLOP/s",
}


def _mean(values: list[float]) -> float:
    return float(sum(values) / len(values)) if values else 0.0


def per_layer_metrics(
    log: SpanLog, traced: list[dict[str, Any]], untraced_walls: list[float],
    calibration: dict[str, float],
) -> dict[str, float]:
    """Per-operation layer budget over the traced operations.

    Times are self seconds per operation (mean over traced steps), so
    Σ self times + unattributed = mean operation wall.
    """
    ops = {r["op"] for r in traced}
    n = max(len(traced), 1)
    totals = layer_totals(log, ops)

    def self_s(span: str) -> float:
        return totals.get(span, {}).get("self_s", 0.0) / n

    out = {m: self_s(span) for m, span in SELF_TIME_METRICS.items()}
    fft = totals.get("dft.fft", {"self_s": 0.0, "calls": 0, "work": 0})
    out["dft.fft_calls"] = fft["calls"] / n
    out["dft.fft_mpts_per_s"] = (
        fft["work"] / fft["self_s"] / 1e6 if fft["self_s"] > 0 else 0.0
    )
    out["dft.eig_iters_per_op"] = _mean([r["eig_iterations"] for r in traced])
    out["dft.scf_passes_per_op"] = _mean([r["scf_passes"] for r in traced])
    out["core.warm_domain_frac"] = _mean([r["warm_domain_frac"] for r in traced])
    out["core.scratch_allocations"] = _mean(
        [r["scratch_allocations"] for r in traced]
    )
    residuals = [
        r["predictor_residual"] for r in traced
        if r["predictor_residual"] is not None
    ]
    out["md.predictor_residual"] = _mean(residuals)
    solves = sum(len(r["vcycles"]) for r in traced)
    out["multigrid.vcycles_per_solve"] = (
        sum(sum(r["vcycles"]) for r in traced) / solves if solves else 0.0
    )
    wall = sum(r["wall_s"] for r in traced)
    root = totals.get(ROOT_SPAN, {}).get("self_s", 0.0)
    out["trace.unattributed_frac"] = root / wall if wall > 0 else 0.0
    traced_p50 = statistics.median(r["wall_s"] for r in traced)
    untraced_p50 = statistics.median(untraced_walls)
    out["trace.overhead_frac"] = traced_p50 / untraced_p50 - 1.0
    out["calib.fft_mpts_per_s"] = calibration["fft_mpts_per_s"]
    out["calib.dgemm_gflops"] = calibration["dgemm_gflops"]
    return out
