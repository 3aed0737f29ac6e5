"""Correctness gate: checks every electronic solve from outside the engine.

The QMD engines hand forces to the integrator without reading the solver's
``converged`` flag, so the benchmark checks it itself.  Each solve is
checked for convergence, finite energy/forces/density, and charge
conservation ∫ρ = N_e; each multigrid Poisson solve for its own
convergence flag.  Frame 0 is further matched against the committed
reference of the same code path.  A violation fails the operation (MD
step) it happened in.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

REFERENCES = pathlib.Path(__file__).with_name("references.json")
#: frame-0 energy must reproduce the same-path reference to this (Ha)
SAME_PATH_TOL_HA = 1e-6
#: |∫ρ − N_e| / N_e allowed after a solve
CHARGE_TOL = 1e-8


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


class Gate:
    """Collects solve summaries and violations between two :meth:`take`."""

    def __init__(self) -> None:
        self.solves: list[dict] = []
        self.violations: list[str] = []
        self.vcycles: list[int] = []

    def take(self) -> tuple[list[dict], list[str], list[int]]:
        out = (self.solves, self.violations, self.vcycles)
        self.solves, self.violations, self.vcycles = [], [], []
        return out

    # -- after-callbacks of the wrapped entry points ------------------------

    def after_ldc(self, args, result, _log) -> None:
        config = args[0]
        self._check_solve("run_ldc", config, result, result.forces)
        self.solves[-1].update(
            predictor_residual=result.predictor_residual,
            blocks=[
                (s.nband, s.basis.grid.shape)
                for s in result.states if s.nband > 0
            ],
        )

    def after_scf(self, args, result, _log) -> None:
        self._check_solve("run_scf", args[0], result, None)
        self.solves[-1].update(
            orbitals=result.orbitals,
            blocks=[(result.orbitals.shape[1], result.grid.shape)],
        )

    def after_forces(self, _args, forces, _log) -> None:
        if not np.all(np.isfinite(forces)):
            self.violations.append("forces_from_scf: non-finite forces")

    def after_poisson(self, args, _result, _log) -> None:
        stats = args[0].last_stats
        self.vcycles.append(int(stats.cycles))
        if not stats.converged:
            self.violations.append(
                f"multigrid: not converged after {stats.cycles} V-cycles"
            )

    def _check_solve(self, where, config, result, forces) -> None:
        n_e = float(config.n_electrons())
        charge = float(result.grid.integrate(result.density))
        bad = []
        if not result.converged:
            bad.append(f"not converged after {result.iterations} passes")
        if not np.isfinite(result.energy):
            bad.append("non-finite energy")
        if not np.all(np.isfinite(result.density)):
            bad.append("non-finite density")
        if forces is not None and not np.all(np.isfinite(forces)):
            bad.append("non-finite forces")
        if abs(charge - n_e) > CHARGE_TOL * n_e:
            bad.append(f"charge {charge!r} != N_e {n_e!r}")
        self.violations += [f"{where}: {b}" for b in bad]
        self.solves.append(
            dict(energy=float(result.energy), passes=int(result.iterations),
                 eig_iterations=int(result.eig_iterations))
        )
