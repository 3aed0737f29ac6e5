"""The conventional O(N³) plane-wave SCF driver — the paper's baseline.

This is the "conventional plane-wave DFT code" of Sec. 5.5 used to verify
LDC-DFT: one global plane-wave basis, all orbitals explicit, density mixed
to self-consistency.  Its cost scales as O(N³) through orthonormalization
and dense subspace operations, which is exactly the bottleneck LDC-DFT
removes.

Total free energy:

    E = Σ_n f_n ε_n - ∫ρ(V_H + v_xc) dr + E_H[ρ] + E_xc[ρ] + E_Ewald - kT·S
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

import numpy as np

from repro.dft.basis import PlaneWaveBasis, density_from_fields
from repro.dft.eigensolver import eigensolve
from repro.dft.ewald import ewald_energy
from repro.dft.grid import RealSpaceGrid
from repro.dft.hamiltonian import Hamiltonian
from repro.dft.hartree import hartree_energy, hartree_potential
from repro.dft.mixing import LinearMixer, PulayMixer, renormalize
from repro.dft.occupations import (
    fermi_occupations,
    find_chemical_potential,
    smearing_entropy,
)
from repro.dft.pseudopotential import NonlocalProjectors, local_potential
from repro.dft.xc import lda_xc, xc_energy
from repro.sanitize import ENV_SANITIZERS, Sanitizers
from repro.systems.configuration import Configuration

if TYPE_CHECKING:
    from repro.observability.instrumentation import Instrumentation


@dataclass
class SCFOptions:
    """Knobs for the SCF loop."""

    ecut: float = 6.0
    #: extra empty bands beyond ⌈N_e/2⌉
    extra_bands: int = 4
    #: electronic temperature (Hartree); the paper uses modest smearing
    kt: float = 0.01
    #: density-convergence threshold on ∫|Δρ| dr / N_e
    tol: float = 1e-6
    max_iter: int = 60
    mixer: str = "pulay"  # "pulay" | "linear"
    mix_alpha: float = 0.4
    #: eigensolver: "direct" | "all_band" | "band_by_band"
    eigensolver: str = "all_band"
    eig_tol: float = 1e-7
    eig_max_iter: int = 40
    #: grid oversampling factor (2.0 = exact density grid)
    grid_factor: float = 2.0
    #: occupation smearing scheme: "fermi" | "gaussian" | "methfessel-paxton"
    smearing: str = "fermi"
    seed: int = 7


@dataclass
class SCFResult:
    """Converged (or best-effort) SCF state."""

    energy: float
    band_energy: float
    hartree: float
    xc: float
    ewald: float
    entropy_term: float
    eigenvalues: np.ndarray
    occupations: np.ndarray
    mu: float
    density: np.ndarray
    orbitals: np.ndarray
    basis: PlaneWaveBasis
    grid: RealSpaceGrid
    converged: bool
    iterations: int
    history: list[float] = field(default_factory=list)
    density_residuals: list[float] = field(default_factory=list)
    #: total eigensolver iterations summed over every solve of the run
    #: (including the final consistent pass) — the per-step cost number
    #: the warm-start/extrapolation benches gate on
    eig_iterations: int = 0


def initial_density(grid: RealSpaceGrid, config: Configuration) -> np.ndarray:
    """Superposition of atomic Gaussian charges (width = covalent-ish rc)."""
    from repro.constants import get_species

    rho = np.zeros(grid.shape)
    for i, symbol in enumerate(config.symbols):
        sp = get_species(symbol)
        width = max(sp.rc_loc, 0.4) * 1.5
        dist = grid.min_image_distance(config.positions[i])
        rho += sp.zval * np.exp(-0.5 * (dist / width) ** 2) / (
            (2.0 * np.pi) ** 1.5 * width**3
        )
    return renormalize(rho, config.n_electrons(), grid.dv)


def build_hamiltonian(
    basis: PlaneWaveBasis,
    config: Configuration,
    rho: np.ndarray,
    v_loc: np.ndarray,
    vnl: NonlocalProjectors,
    v_extra: np.ndarray | None = None,
) -> tuple[Hamiltonian, np.ndarray, np.ndarray]:
    """Assemble H for a given density; returns (H, V_H, v_xc)."""
    grid = basis.grid
    vh = hartree_potential(grid, rho)
    _, vxc = lda_xc(rho)
    v_eff = v_loc + vh + vxc
    if v_extra is not None:
        v_eff = v_eff + v_extra
    return Hamiltonian(basis, v_eff, vnl), vh, vxc


def _occupy(
    eigs: np.ndarray, n_electrons: float, opts: SCFOptions
) -> tuple[float, np.ndarray]:
    """Chemical potential + occupations under the selected smearing."""
    if opts.smearing == "fermi":
        mu = find_chemical_potential(eigs, n_electrons, opts.kt)
        return mu, fermi_occupations(eigs, mu, opts.kt)
    from repro.dft.smearing import find_mu, occupations

    mu = find_mu(opts.smearing, eigs, n_electrons, opts.kt)
    return mu, occupations(opts.smearing, eigs, mu, opts.kt)


class DensityPass(NamedTuple):
    """One evaluation ρ ↦ ρ_out of a density map."""

    #: output density, nonnegative and renormalized to N_e
    rho_out: np.ndarray
    energy: float
    mu: float
    eig_iterations: int
    #: map-specific attributes of the per-iteration span and debug log
    attrs: dict[str, float]
    #: map-specific products the caller builds its result from
    data: Any = None


class FixedPoint(NamedTuple):
    """Outcome of :func:`scf_fixed_point` (``final``: the consistent pass)."""

    final: DensityPass
    converged: bool
    iterations: int
    history: list[float]
    residuals: list[float]
    eig_iterations: int


def scf_fixed_point(
    density_map: Callable[[np.ndarray, int | None], DensityPass],
    config: Configuration,
    grid: RealSpaceGrid,
    rho0: np.ndarray | None,
    opts: Any,
    ins: Instrumentation | None,
    san: Sanitizers | None,
    engine: str,
) -> FixedPoint:
    """Mix the density to the fixed point ρ = F[ρ] of ``density_map`` F.

    The one SCF loop of :func:`run_scf` (``engine="pw"``) and
    :func:`repro.core.ldc.run_ldc` (``engine="ldc"``); the map is called as
    ``density_map(rho, it)``, with ``it=None`` for the final consistent
    pass.  ``opts`` supplies ``tol``, ``max_iter``, ``mixer``, ``mix_alpha``.
    """
    scope = "scf" if engine == "pw" else engine
    n_electrons = config.n_electrons()
    if rho0 is not None and rho0.shape != grid.shape:
        rho0 = None  # stale-shaped warm start (grid changed) → cold start
    rho = initial_density(grid, config) if rho0 is None else rho0.copy()
    rho = renormalize(rho, n_electrons, grid.dv)
    if san is not None and san.numerics is not None:
        san.numerics.check(
            "rho0", rho, where=f"{scope}.init", expect_dtype=np.float64
        )

    mixer: PulayMixer | LinearMixer
    if opts.mixer == "pulay":
        mixer = PulayMixer(alpha=opts.mix_alpha)
    elif opts.mixer == "linear":
        mixer = LinearMixer(alpha=opts.mix_alpha)
    else:
        raise ValueError(f"unknown mixer {opts.mixer!r}")

    hm = None if ins is None else ins.health
    history: list[float] = []
    residuals: list[float] = []
    converged = False
    it = 0
    eig_total = 0
    for it in range(1, opts.max_iter + 1):
        if ins is not None:
            t_iter = ins.tracer.now()
        step = density_map(rho, it)
        eig_total += int(step.eig_iterations)
        resid = grid.integrate(np.abs(step.rho_out - rho)) / max(
            n_electrons, 1.0
        )
        residuals.append(resid)
        history.append(step.energy)
        if ins is not None:
            ins.counter("scf.iterations", engine=engine).inc()
            ins.series("scf.residual", engine=engine).append(resid)
            ins.series("scf.energy", engine=engine).append(step.energy)
            ins.series("scf.mu", engine=engine).append(step.mu)
            ins.tracer.record_complete(
                f"{scope}.iteration", ins.tracer.now() - t_iter,
                category=scope, iteration=it, residual=resid, **step.attrs,
            )
            ins.log.debug(
                f"{scope} iteration",
                extra={"engine": engine, "iteration": it, "residual": resid,
                       "energy": step.energy, "mu": step.mu, **step.attrs},
            )
        if hm is not None:
            hm.observe(
                "scf.residual", engine=engine, iteration=it, residual=resid
            )
        if resid < opts.tol:
            rho = step.rho_out
            converged = True
            break
        rho = renormalize(
            np.clip(mixer.mix(rho, step.rho_out), 0.0, None), n_electrons,
            grid.dv,
        )

    # Energy evaluated self-consistently at the final density.
    final = density_map(rho, None)
    eig_total += int(final.eig_iterations)
    if hm is not None:
        hm.observe(
            "scf.density", engine=engine,
            total_charge=grid.integrate(final.rho_out),
            n_electrons=n_electrons,
        )
        hm.observe(
            "solver.convergence", solver=f"scf[{engine}]",
            converged=converged, iterations=it, final=True,
            residual=residuals[-1] if residuals else None,
        )
    return FixedPoint(final, converged, it, history, residuals, eig_total)


def traced_run(
    ins: Instrumentation,
    scope: str,
    opts: Any,
    config: Configuration,
    run: Callable[[], Any],
    span_attrs: dict[str, Any],
    log_extra: dict[str, Any],
) -> Any:
    """Run a driver body under the ``{scope}.run`` span, with the run
    ledger's invocation/failure records and the ``{scope} finished`` log.
    Drivers call it only with instrumentation attached: their ``None`` path
    calls the body directly and executes no telemetry code."""
    natoms = len(config.symbols)
    if ins.recorder is not None:
        ins.recorder.record_invocation(f"{scope}.run", opts, natoms=natoms)
    with ins.span(
        f"{scope}.run", category=scope, natoms=natoms, **span_attrs
    ) as span:
        try:
            result = run()
        except Exception as exc:
            if ins.recorder is not None:
                ins.recorder.record_failure(exc)
            raise
        span.attrs.update(
            converged=result.converged, iterations=result.iterations
        )
        ins.log.info(
            f"{scope} finished",
            extra={**log_extra, "converged": result.converged,
                   "iterations": result.iterations, "energy": result.energy},
        )
    return result


def run_scf(
    config: Configuration,
    options: SCFOptions | None = None,
    v_extra: np.ndarray | None = None,
    rho0: np.ndarray | None = None,
    grid: RealSpaceGrid | None = None,
    instrumentation: Instrumentation | None = None,
    psi0: np.ndarray | None = None,
    sanitize: "Sanitizers | None" = None,
    warm_cell: np.ndarray | None = None,
) -> SCFResult:
    """Run the conventional SCF loop to self-consistency.

    Parameters
    ----------
    config:
        The atomic configuration (periodic cell).
    options:
        :class:`SCFOptions`; defaults are sized for toy systems.
    v_extra:
        Optional extra external potential on the grid, added to the
        effective potential (its interaction energy is already inside the
        band energy, so the total energy needs no correction).
    rho0:
        Optional initial density (e.g. from the previous MD step).  A
        stale-shaped array (grid changed since it was produced) is ignored
        — cold start, not a crash.
    grid:
        Optional explicit grid (must match ``v_extra``/``rho0``).
    instrumentation:
        Optional :class:`~repro.observability.Instrumentation`; records
        ``scf.*`` spans and per-iteration residual/energy/μ series.  The
        default ``None`` executes no telemetry code at all.
    psi0:
        Optional starting orbitals ``(npw, nband)`` — e.g. the previous MD
        step's converged block (the QMD orbital warm start).  Ignored when
        the shape does not match the basis/band count of this call.
    sanitize:
        Optional :class:`~repro.sanitize.Sanitizers` bundle; the numerics
        slot checks density/eigenvalue checkpoints each iteration.  The
        default ``None`` defers to ``REPRO_SANITIZE`` and, when unset,
        executes zero sanitizer code.
    warm_cell:
        The cell ``rho0``/``psi0`` were converged in.  When given and
        different from ``config.cell``, both warm starts are dropped
        (deterministic cold start) — the same guard every engine used to
        implement privately, hoisted here so *all* callers get it.  A
        cell change usually also changes the grid/basis shape, but not
        always (e.g. a pure rescale): matching shapes over a different
        cell are exactly the stale warm start this catches.
    """
    opts = options or SCFOptions()
    san = sanitize if sanitize is not None else ENV_SANITIZERS
    if warm_cell is not None and not np.array_equal(
        np.asarray(warm_cell, dtype=float).reshape(-1),
        np.asarray(config.cell, dtype=float).reshape(-1),
    ):
        rho0 = None  # density lives on the old cell's grid
        psi0 = None  # orbitals live on the old cell's basis
    if instrumentation is None:
        return _run_scf(config, opts, v_extra, rho0, grid, None, psi0, san)
    return traced_run(
        instrumentation, "scf", opts, config,
        lambda: _run_scf(
            config, opts, v_extra, rho0, grid, instrumentation, psi0, san
        ),
        {"eigensolver": opts.eigensolver, "mixer": opts.mixer},
        {"engine": "pw"},
    )


def _run_scf(
    config: Configuration,
    opts: SCFOptions,
    v_extra: np.ndarray | None,
    rho0: np.ndarray | None,
    grid: RealSpaceGrid | None,
    ins: Instrumentation | None,
    psi0: np.ndarray | None = None,
    san: "Sanitizers | None" = None,
) -> SCFResult:
    """SCF implementation; ``ins``/``san`` are the facades or None."""
    if grid is None:
        grid = RealSpaceGrid.for_cutoff(config.cell, opts.ecut, opts.grid_factor)
    basis = PlaneWaveBasis(grid, opts.ecut)
    n_electrons = config.n_electrons()
    nband = int(np.ceil(n_electrons / 2.0)) + opts.extra_bands
    nband = min(nband, basis.npw)

    v_loc = local_potential(grid, config)
    nonlocal_ = NonlocalProjectors(basis, config)
    e_ewald = ewald_energy(
        config.wrapped_positions(), config.zvals, config.cell
    )
    if psi0 is not None and psi0.shape == (basis.npw, nband):
        psi = psi0  # orbital warm start (previous MD step's converged block)
    else:
        psi = basis.random_orbitals(nband, seed=opts.seed)

    def plane_wave_pass(rho: np.ndarray, it: int | None) -> DensityPass:
        """Build H[ρ], solve, occupy, and assemble ρ_out and the energy."""
        nonlocal psi
        ham, vh, vxc = build_hamiltonian(
            basis, config, rho, v_loc, nonlocal_, v_extra
        )
        if ins is None or it is None:
            eig = eigensolve(ham, psi, opts, ins)
        else:
            with ins.span("scf.eigensolve", category="scf", iteration=it) as sp:
                eig = eigensolve(ham, psi, opts, ins)
                # solve sizes feed the per-kernel FLOP attribution
                # (repro.observability.costattr) at report time
                sp.attrs.update(
                    npw=basis.npw, nband=nband,
                    grid_points=int(np.prod(grid.shape)),
                    nproj=len(nonlocal_.d), cg_iterations=eig.iterations,
                )
        psi = eig.orbitals
        mu, occs = _occupy(eig.eigenvalues, n_electrons, opts)
        rho_out = renormalize(
            density_from_fields(eig.fields, occs), n_electrons, grid.dv
        )
        if it is not None and san is not None and san.numerics is not None:
            san.numerics.check(
                "eigenvalues", eig.eigenvalues, where=f"scf.iteration[{it}]"
            )
            san.numerics.check(
                "rho_new", rho_out, where=f"scf.iteration[{it}]",
                expect_dtype=np.float64,
            )
        terms = _energy_terms(
            grid, eig.eigenvalues, occs, rho_out, vh, vxc, e_ewald, mu,
            opts.kt,
        )
        return DensityPass(
            rho_out, terms["total"], mu, eig.iterations,
            {"energy": terms["total"]}, (eig, occs, terms),
        )

    fp = scf_fixed_point(
        plane_wave_pass, config, grid, rho0, opts, ins, san, engine="pw"
    )
    final = fp.final
    eig, occs, terms = final.data
    return SCFResult(
        energy=final.energy,
        band_energy=terms["band"],
        hartree=terms["hartree"],
        xc=terms["xc"],
        ewald=e_ewald,
        entropy_term=terms["entropy"],
        eigenvalues=eig.eigenvalues,
        occupations=occs,
        mu=final.mu,
        density=final.rho_out,
        orbitals=eig.orbitals,
        basis=basis,
        grid=grid,
        converged=fp.converged,
        iterations=fp.iterations,
        history=fp.history,
        density_residuals=fp.residuals,
        eig_iterations=fp.eig_iterations,
    )


def _energy_terms(
    grid: RealSpaceGrid,
    eigs: np.ndarray,
    occs: np.ndarray,
    rho: np.ndarray,
    vh: np.ndarray,
    vxc: np.ndarray,
    e_ewald: float,
    mu: float,
    kt: float,
) -> dict[str, float]:
    """Harris-style total energy from band energies and double counting,
    with its band/Hartree/XC/entropy terms.

    Note: ``vh``/``vxc`` correspond to the *input* density of the last solve;
    at self-consistency input and output coincide and the expression is the
    standard KS total energy.
    """
    terms = {
        "band": float(np.sum(occs * eigs)),
        "hartree": hartree_energy(grid, rho, vh),
        "xc": xc_energy(rho, grid.dv),
        "entropy": -kt * smearing_entropy(eigs, mu, kt),
    }
    terms["total"] = (
        terms["band"] - grid.integrate(rho * (vh + vxc)) + terms["hartree"]
        + terms["xc"] + e_ewald + terms["entropy"]
    )
    return terms
