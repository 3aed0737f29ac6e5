"""The QMD driver: MD with quantum-mechanical (or surrogate) forces.

This is the production loop of Sec. 6: at every MD step the electronic
structure is re-solved (warm-started from the previous step's density and
converged orbitals — the LDC engine keeps a persistent
:class:`~repro.core.workspace.LDCWorkspace` for the structural reuse) and
Hellmann–Feynman forces drive velocity Verlet, with an optional thermostat.
Engines are pluggable:

* :class:`LDCEngine` — the O(N) LDC-DFT solver (the paper's engine);
* :class:`SCFEngine` — the conventional O(N³) solver (the verification
  baseline of Sec. 5.5);
* any object with ``forces(config) -> (forces, energy, scf_iterations)``.

The driver records the per-step SCF iteration counts, so the paper's
time-to-solution accounting (atoms × SCF iterations / second) can be
reproduced on real runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.constants import ATU_TO_FS
from repro.md.extrapolate import (
    DomainHistory,
    extrapolate_fields,
    subspace_residual,
)
from repro.md.integrator import VelocityVerlet, kinetic_energy, temperature
from repro.systems.configuration import Configuration

if TYPE_CHECKING:
    from repro.core.advisor import BufferController, BufferControllerOptions


@dataclass
class QMDOptions:
    """MD-level solver-acceleration knobs, engine-agnostic.

    Both engines accept one of these via ``qmd_options=``; every field
    has an environment fallback so CI legs and production scripts can
    flip the accelerations without touching code.
    """

    #: ASPC history depth K: 1 = last-state warm start (the default),
    #: K >= 2 = time-reversible K-point extrapolation of ψ/ρ
    #: (:mod:`repro.md.extrapolate`).  ``None`` defers to
    #: ``$REPRO_ASPC_DEPTH``, then to the engine's options.
    history_depth: int | None = None
    #: run the Eq.-1 :class:`~repro.core.advisor.BufferController` loop
    #: (LDC engine only).  ``None`` defers to ``$REPRO_ADAPTIVE_BUFFER``.
    adaptive_buffer: bool | None = None
    #: thresholds for the controller; ``None`` = its defaults
    controller: BufferControllerOptions | None = None


def _resolve_history_depth(qmd_options: QMDOptions | None) -> int | None:
    """Explicit ``QMDOptions.history_depth`` beats ``$REPRO_ASPC_DEPTH``;
    ``None`` means "leave the engine options alone"."""
    if qmd_options is not None and qmd_options.history_depth is not None:
        return int(qmd_options.history_depth)
    env = os.environ.get("REPRO_ASPC_DEPTH", "").strip()
    if env:
        return int(env)  # a malformed value should fail loudly
    return None


def _resolve_adaptive_buffer(qmd_options: QMDOptions | None) -> bool:
    """Explicit ``QMDOptions.adaptive_buffer`` beats the env flag."""
    if qmd_options is not None and qmd_options.adaptive_buffer is not None:
        return bool(qmd_options.adaptive_buffer)
    return os.environ.get("REPRO_ADAPTIVE_BUFFER", "").strip().lower() in (
        "1", "true", "yes", "on",
    )


@dataclass
class QMDFrame:
    """One recorded MD step."""

    step: int
    potential_energy: float
    kinetic_energy: float
    temperature: float
    scf_iterations: int
    positions: np.ndarray | None = None

    @property
    def total_energy(self) -> float:
        return self.potential_energy + self.kinetic_energy


class _QMDEngine:
    """The engine body :class:`LDCEngine` and :class:`SCFEngine` share.

    ``forces()`` guards the cell (a change drops every cache: cold start),
    counts the solve by warm-start tier, seeds it from the ASPC window of
    the last ``history_depth`` converged densities, and records the
    eigensolver cost.  Only a converged solve enters the windows.
    Subclasses supply the ``engine`` label, the solve, and the orbital
    window.
    """

    label = ""

    def __init__(
        self, options, instrumentation, sanitize, qmd_options, depth: int = 1
    ) -> None:
        self.options = options
        self.instrumentation = instrumentation
        #: optional :class:`repro.sanitize.Sanitizers` bundle threaded into
        #: every solve (None defers to REPRO_SANITIZE)
        self.sanitize = sanitize
        resolved = _resolve_history_depth(qmd_options)
        self.history_depth = depth if resolved is None else resolved
        self._rho_hist: list[np.ndarray] = []
        self._cell: np.ndarray | None = None
        #: the first (cold) step's eigensolver-iteration count — the
        #: reference the per-step ``qmd.eig_iters_saved`` series is
        #: measured against
        self._cold_eig_iters: int | None = None

    def forces(self, config: Configuration):
        cell = np.asarray(config.cell, dtype=float).reshape(3)
        if self._cell is not None and not np.array_equal(self._cell, cell):
            self._rho_hist.clear()  # densities live on a stale grid
            self._reset_orbitals()  # orbitals live on a stale basis
        self._cell = cell.copy()
        ins = self.instrumentation
        if ins is not None:
            start = "orbital" if self._has_orbitals() else (
                "density" if self._rho_hist else "cold")
            ins.counter("qmd.solves", engine=self.label, start=start).inc()
        window = self._rho_hist[: self.history_depth]
        rho0 = extrapolate_fields(window, nonnegative=True) if window else None
        result, forces = self._solve(config, rho0)
        if result.converged:
            rho = result.density
            if self._rho_hist and self._rho_hist[0].shape != rho.shape:
                self._rho_hist.clear()  # grid changed
            self._rho_hist.insert(0, rho)
            del self._rho_hist[self.history_depth:]
            self._push_orbitals(result)
        if ins is not None:
            ins.series("qmd.eig_iterations", engine=self.label).append(
                result.eig_iterations
            )
            if self._cold_eig_iters is None:
                self._cold_eig_iters = int(result.eig_iterations)
            else:
                ins.series("qmd.eig_iters_saved", engine=self.label).append(
                    self._cold_eig_iters - int(result.eig_iterations)
                )
        return forces, result.energy, result.iterations

    def _solve(self, config: Configuration, rho0):
        """One electronic solve from density ``rho0`` → (result, forces)."""
        raise NotImplementedError

    def _has_orbitals(self) -> bool:
        raise NotImplementedError

    def _reset_orbitals(self) -> None:
        raise NotImplementedError

    def _push_orbitals(self, result) -> None:
        """Store a converged solve's orbitals for the next warm start."""


class LDCEngine(_QMDEngine):
    """Force engine backed by :func:`repro.core.ldc.run_ldc`.

    ``instrumentation`` (optional) is threaded into every ``run_ldc`` call;
    the engine also records warm-start telemetry — whether each solve was
    seeded cold, from the previous step's density, or from the previous
    step's converged orbitals, the QMD tricks the paper's time-to-solution
    numbers depend on.

    The engine keeps a persistent
    :class:`~repro.core.workspace.LDCWorkspace`: the grid, decomposition,
    partition of unity, per-domain bases, and Ewald structure are built once
    per cell, and each step's domain solves warm-start from the ASPC
    prediction over each domain's history window
    (``LDCOptions.history_depth``; depth 1 = the previous step's converged
    ψ).  A cell change between ``forces()`` calls resets the workspace and
    the density window (cold start, never a stale-shape crash).

    ``qmd_options`` (:class:`QMDOptions`) layers the MD-level
    accelerations on top: a history depth override
    (``$REPRO_ASPC_DEPTH``) and the Eq.-1 adaptive-buffer loop
    (``$REPRO_ADAPTIVE_BUFFER``) — a
    :class:`~repro.core.advisor.BufferController` that watches the live
    boundary-error telemetry each step and re-tunes ``options.buffer``
    (the workspace detects the option change and rebuilds; the global
    density window survives, so the restart is density-warm).
    """

    label = "ldc"

    def __init__(
        self, options=None, instrumentation=None, sanitize=None,
        qmd_options: QMDOptions | None = None,
    ) -> None:
        from repro.core.ldc import LDCOptions
        from repro.core.workspace import LDCWorkspace

        options = options or LDCOptions()
        super().__init__(
            options, instrumentation, sanitize, qmd_options, options.history_depth
        )
        if self.history_depth != options.history_depth:
            self.options = replace(options, history_depth=self.history_depth)
        self.controller: BufferController | None = None
        if _resolve_adaptive_buffer(qmd_options):
            from repro.core import advisor

            ctl = qmd_options.controller if qmd_options is not None else None
            self.controller = (
                advisor.BufferController(ctl) if ctl is not None
                else advisor.BufferController()
            )
        self.workspace = LDCWorkspace()

    def _has_orbitals(self) -> bool:
        return self.workspace.has_orbitals

    def _reset_orbitals(self) -> None:
        self.workspace.reset()

    def _solve(self, config: Configuration, rho0):
        # run_ldc stores a converged step's domain states on the workspace
        from repro.core.ldc import run_ldc

        ins = self.instrumentation
        result = run_ldc(
            config, self.options, compute_forces=True, rho0=rho0,
            instrumentation=ins, workspace=self.workspace,
            sanitize=self.sanitize,
        )
        if ins is not None:
            # the (b, l*) the step ran at
            from repro.core.complexity import optimal_core_length

            ctl = self.controller
            nu = ctl.options.nu if ctl is not None else 2.0
            ins.series("ldc.buffer_b").append(self.options.buffer)
            ins.series("ldc.core_l").append(
                optimal_core_length(self.options.buffer, nu)
            )
        if self.controller is not None:
            self._adapt_buffer(ins, result)
        return result, result.forces

    def _adapt_buffer(self, ins, result) -> None:
        """One Eq.-1 controller step on the live boundary-error telemetry.

        A changed decision re-binds ``self.options`` with the new buffer;
        the workspace notices the option-signature change on the next
        ``prepare`` and rebuilds (the density window stays valid — the
        global grid does not depend on the buffer)."""
        if not result.boundary_errors:
            return
        assert self.controller is not None
        self.controller.observe(
            self.options.buffer, result.boundary_errors[-1]
        )
        decision = self.controller.propose(
            self.options.buffer, spacings=result.grid.spacing
        )
        if not decision.changed:
            return
        if ins is not None:
            ins.counter("ldc.buffer_adjustments").inc()
            ins.log.info(
                "adaptive buffer",
                extra={"engine": "ldc", "reason": decision.reason,
                       "buffer": decision.buffer,
                       "core_length": decision.core_length},
            )
        self.options = replace(self.options, buffer=decision.buffer)


class SCFEngine(_QMDEngine):
    """Force engine backed by the conventional O(N³) SCF.

    Warm-starts each step from the density window and from a bounded
    :class:`~repro.md.extrapolate.DomainHistory` of converged ψ: at
    ``qmd_options.history_depth >= 2`` (or ``$REPRO_ASPC_DEPTH``) both
    seeds are ASPC predictions, at depth 1 the previous step's converged
    state.  A cell change between ``forces()`` calls drops every cache.
    """

    label = "pw"

    def __init__(
        self, options=None, instrumentation=None, sanitize=None,
        qmd_options: QMDOptions | None = None,
    ) -> None:
        from repro.dft.scf import SCFOptions

        super().__init__(
            options or SCFOptions(), instrumentation, sanitize, qmd_options
        )
        #: ASPC window of converged ψ blocks
        self._history = DomainHistory(depth=self.history_depth)

    def _has_orbitals(self) -> bool:
        return len(self._history) > 0

    def _reset_orbitals(self) -> None:
        self._history.clear()

    def _solve(self, config: Configuration, rho0):
        from repro.dft.forces import forces_from_scf
        from repro.dft.scf import run_scf

        predicted = self._history.predict(
            self._history.key, depth=self.history_depth
        )
        psi0 = None if predicted is None else predicted[0]
        result = run_scf(
            config, self.options, rho0=rho0,
            instrumentation=self.instrumentation, psi0=psi0,
            sanitize=self.sanitize,
        )
        return result, forces_from_scf(config, result)

    def _push_orbitals(self, result) -> None:
        ins = self.instrumentation
        prediction = self._history.last_prediction
        if ins is not None and self.history_depth > 1 and prediction is not None:
            res = subspace_residual(prediction, result.orbitals)
            if np.isfinite(res):
                ins.series("scf.predictor_residual").append(res)
        self._history.last_prediction = None
        self._history.push((result.orbitals.shape,), result.orbitals, None, None)


class QMDDriver:
    """Couples an engine, the integrator, and an optional thermostat."""

    def __init__(
        self,
        engine,
        timestep: float,
        thermostat=None,
        record_positions: bool = False,
        instrumentation=None,
    ) -> None:
        self.engine = engine
        self.thermostat = thermostat
        self.record_positions = record_positions
        #: optional Instrumentation facade; records a ``qmd.step`` span and
        #: per-step SCF-iteration/temperature/energy series.  If the engine
        #: has no instrumentation of its own, the driver's is shared so the
        #: whole stack writes one timeline.
        self.instrumentation = instrumentation
        if (
            instrumentation is not None
            and getattr(engine, "instrumentation", None) is None
            and hasattr(engine, "instrumentation")
        ):
            engine.instrumentation = instrumentation
        self._scf_iters_last = 0
        self.timestep = timestep
        self.integrator = VelocityVerlet(self._forces_wrapper, timestep)
        self.frames: list[QMDFrame] = []

    def _forces_wrapper(self, config: Configuration):
        f, e, iters = self.engine.forces(config)
        self._scf_iters_last += iters
        return f, e

    def run(self, config: Configuration, nsteps: int) -> list[QMDFrame]:
        """Advance ``nsteps``; returns (and accumulates) the recorded frames."""
        ins = self.instrumentation
        if ins is not None and ins.recorder is not None:
            ins.recorder.record_invocation(
                "qmd.run",
                getattr(self.engine, "options", None),
                engine=type(self.engine).__name__,
                timestep=self.timestep,
                nsteps=nsteps,
                natoms=config.natoms,
            )
            try:
                return self._run(config, nsteps, ins)
            except Exception as exc:
                ins.recorder.record_failure(exc)
                raise
        return self._run(config, nsteps, ins)

    def _run(self, config: Configuration, nsteps: int, ins) -> list[QMDFrame]:
        for step in range(nsteps):
            self._scf_iters_last = 0
            if ins is None:
                self._advance(config)
                self.frames.append(self._frame(config))
                continue
            # the per-step telemetry (series, health verdicts) fires while
            # the qmd.step span is still open, so a health FAIL dumps with
            # the failing step on the flight recorder's open-span stack
            with ins.span(
                "qmd.step", category="qmd", step=len(self.frames)
            ) as span:
                self._advance(config)
                span.attrs["scf_iterations"] = self._scf_iters_last
                frame = self._frame(config)
                self.frames.append(frame)
                ins.series("qmd.scf_iterations").append(frame.scf_iterations)
                ins.series("qmd.temperature").append(frame.temperature)
                ins.series("qmd.total_energy").append(frame.total_energy)
                ins.counter("qmd.steps").inc()
                ins.log.debug(
                    "qmd step",
                    extra={"step": frame.step,
                           "scf_iterations": frame.scf_iterations,
                           "temperature": frame.temperature,
                           "total_energy": frame.total_energy},
                )
                if ins.health is not None:
                    ins.health.observe(
                        "qmd.step",
                        step=frame.step,
                        total_energy=frame.total_energy,
                        elapsed_fs=frame.step * self.timestep * ATU_TO_FS,
                        natoms=config.natoms,
                        temperature=frame.temperature,
                        nve=self.thermostat is None,
                        target_kelvin=getattr(self.thermostat, "target", None),
                    )
        return self.frames

    def _frame(self, config: Configuration) -> QMDFrame:
        return QMDFrame(
            step=len(self.frames),
            potential_energy=self.integrator.potential_energy,
            kinetic_energy=kinetic_energy(config),
            temperature=temperature(config),
            scf_iterations=self._scf_iters_last,
            positions=config.positions.copy()
            if self.record_positions
            else None,
        )

    def _advance(self, config: Configuration) -> None:
        self.integrator.step(config)
        if self.thermostat is not None:
            self.thermostat.apply(config)

    def total_scf_iterations(self) -> int:
        """Total SCF iterations over the trajectory — the paper's 129,208 for
        the 21,140-step production run."""
        return int(sum(f.scf_iterations for f in self.frames))

    def energy_drift(self) -> float:
        """|E_total(last) - E_total(first)| per atom-step (NVE diagnostic)."""
        if len(self.frames) < 2:
            return 0.0
        return abs(self.frames[-1].total_energy - self.frames[0].total_energy) / len(
            self.frames
        )
