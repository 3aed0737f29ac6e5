"""The benchmark's workloads: seeded inputs and pinned engine options.

Every workload is a closed-loop NVE trajectory: one process, one client,
each velocity-Verlet step starting when the previous one finished.  The
seed draws the Maxwell–Boltzmann velocities; positions are the fixed
LiAl nanoparticle of each workload, so frame 0 (and its committed
reference energies) is the same for every seed.

Every option a path depends on is pinned here, so the environment
fallbacks of the library (``$REPRO_BATCH_DOMAINS``, ``$REPRO_ASPC_DEPTH``,
``$REPRO_ADAPTIVE_BUFFER``, ``$REPRO_BACKEND``) cannot switch a path.
``ldc_workers=1`` everywhere: BLAS already runs one thread per core, and a
domain fan-out on top of it would oversubscribe the cores.

A cold Sec. 5.2 solve of amorphous CdSe16 is not among them: one solve
takes about a minute on a 2-core host, longer than a whole run may take
when every workload is measured ten times, twice, within the benchmark's
time budget.  Its cold path still runs once per trajectory, inside every
workload's ``setup_s``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: MD timestep (a.u.) and initial temperature of every trajectory
TIMESTEP = 20.0
TEMPERATURE_K = 600.0
#: array backend the batched kernels are pinned to
BACKEND = "scipy"


@dataclass(frozen=True)
class Workload:
    name: str
    #: Li_nAl_n particle size and its periodic cell (Bohr)
    n_pairs: int
    cell: tuple[float, float, float]
    #: "ldc" → QMDDriver(LDCEngine), "scf" → QMDDriver(SCFEngine)
    engine: str
    options: dict = field(default_factory=dict)


_LIAL_LDC = dict(
    ecut=3.0, domains=(2, 1, 1), buffer=2.0, tol=1e-5, max_iter=40,
    kt=0.02, extra_bands=4, mode="ldc", eigensolver="all_band",
    mixer="pulay", poisson="fft", batch_domains=False, ldc_workers=1,
    history_depth=3,
)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("lial4-aspc-md", 2, (14.0, 14.0, 14.0), "ldc",
                 dict(_LIAL_LDC)),
        Workload(
            "lial8-gslf-md", 4, (13.0, 13.0, 9.0), "ldc",
            dict(_LIAL_LDC, domains=(2, 2, 1), batch_domains=True,
                 poisson="multigrid"),
        ),
        Workload(
            "lial4-on3-md", 2, (14.0, 14.0, 14.0), "scf",
            dict(ecut=3.0, tol=1e-5, max_iter=60, kt=0.02, extra_bands=4,
                 eigensolver="all_band", mixer="pulay"),
        ),
    )
}


def make_config(workload: Workload, seed: int):
    """Frame 0 of the trajectory, with velocities drawn from ``seed``."""
    from repro.md.integrator import initialize_velocities
    from repro.systems.lialloy import lial_nanoparticle

    cfg = lial_nanoparticle(workload.n_pairs, cell=list(workload.cell))
    initialize_velocities(cfg, TEMPERATURE_K, seed=seed)
    return cfg


def make_engine(workload: Workload):
    """The workload's force engine with every path-selecting option pinned."""
    from repro.md.qmd import LDCEngine, QMDOptions, SCFEngine

    qmd = QMDOptions(history_depth=3, adaptive_buffer=False)
    if workload.engine == "ldc":
        from repro.core import LDCOptions

        return LDCEngine(LDCOptions(**workload.options), qmd_options=qmd)
    from repro.dft.scf import SCFOptions

    return SCFEngine(SCFOptions(**workload.options), qmd_options=qmd)


def make_driver(workload: Workload):
    from repro.md.qmd import QMDDriver

    return QMDDriver(make_engine(workload), TIMESTEP)
