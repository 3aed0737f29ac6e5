"""Integration tests: the Instrumentation facade threaded through the
SCF/LDC/multigrid/QMD drivers produces the promised telemetry, and the
default (disabled) path leaves driver outputs bit-identical."""

import json

import numpy as np
import pytest

from repro.core.ldc import LDCOptions, run_ldc
from repro.core.parallel_ldc import run_parallel_ldc
from repro.dft.scf import SCFOptions, run_scf
from repro.md.integrator import initialize_velocities
from repro.md.qmd import LDCEngine, QMDDriver, SCFEngine
from repro.observability import Instrumentation
from repro.observability.report import phase_breakdown
from repro.systems import dimer


@pytest.fixture(scope="module")
def h2():
    return dimer("H", "H", 1.5, 12.0)


SCF_OPTS = SCFOptions(ecut=5.0, tol=1e-4, max_iter=10)
LDC_OPTS = LDCOptions(
    ecut=4.0, domains=(1, 1, 1), buffer=0.0, tol=1e-4, max_iter=8
)


def test_scf_records_iteration_series_and_spans(h2):
    ins = Instrumentation()
    result = run_scf(h2, SCF_OPTS, instrumentation=ins)

    resid = ins.metrics.get("scf.residual", engine="pw")
    assert resid is not None
    assert resid.values == pytest.approx(result.density_residuals)
    energy = ins.metrics.get("scf.energy", engine="pw")
    assert energy.values == pytest.approx(result.history)
    iters = ins.metrics.get("scf.iterations", engine="pw")
    assert iters.value == result.iterations

    names = ins.tracer.names()
    assert "scf.run" in names
    assert "scf.iteration" in names
    assert "scf.eigensolve" in names
    assert ins.tracer.count("scf.run/scf.iteration") == result.iterations
    # eigensolver telemetry flows through the same registry
    solves = ins.metrics.get("eigensolver.solves", solver="all_band")
    assert solves.value >= result.iterations


def test_scf_instrumentation_does_not_change_result(h2):
    plain = run_scf(h2, SCF_OPTS)
    instrumented = run_scf(h2, SCF_OPTS, instrumentation=Instrumentation())
    assert instrumented.energy == plain.energy
    assert instrumented.iterations == plain.iterations
    np.testing.assert_array_equal(instrumented.density, plain.density)


def test_ldc_records_domain_spans_and_boundary_metrics(h2):
    opts = LDCOptions(
        ecut=4.0, domains=(2, 1, 1), buffer=1.5, tol=1e-4, max_iter=6,
        poisson="multigrid",
    )
    ins = Instrumentation()
    result = run_ldc(h2, opts, instrumentation=ins)

    assert ins.tracer.count("ldc.domain_solve") > 0
    dom_spans = [s for s in ins.tracer.spans() if s.name == "ldc.domain_solve"]
    assert {s.attrs["domain"] for s in dom_spans} <= {0, 1}
    assert "ldc.partition_of_unity" in ins.tracer.names()
    assert "ldc.assemble_density" in ins.tracer.names()

    resid = ins.metrics.get("scf.residual", engine="ldc")
    assert resid.values == pytest.approx(result.density_residuals)
    energy = ins.metrics.get("scf.energy", engine="ldc")
    assert energy.values == pytest.approx(result.history)
    iters = ins.metrics.get("scf.iterations", engine="ldc")
    assert iters.value == result.iterations
    assert ins.tracer.count("ldc.run/ldc.iteration") == result.iterations
    # per-domain buffer-error series exist once rho_local is warm
    per_domain = [
        k for k in ins.metrics.keys()
        if k.startswith("ldc.boundary_error{domain=")
    ]
    assert per_domain
    # multigrid poisson telemetry rode along
    assert ins.metrics.get("poisson.vcycles").value > 0
    assert len(ins.metrics.get("poisson.residual").values) > 0


@pytest.mark.parametrize(
    "engine_cls, opts, label, scope",
    [(LDCEngine, LDC_OPTS, "ldc", "ldc"), (SCFEngine, SCF_OPTS, "pw", "scf")],
    ids=["ldc", "pw"],
)
def test_qmd_step_spans_and_warm_start_counters(h2, engine_cls, opts, label,
                                                scope):
    cfg = dimer("H", "H", 1.5, 12.0)
    initialize_velocities(cfg, 100.0, seed=0)
    ins = Instrumentation()
    driver = QMDDriver(engine_cls(opts), timestep=5.0, instrumentation=ins)
    frames = driver.run(cfg, 2)

    assert ins.tracer.count("qmd.step") == 2
    scf_iters = ins.metrics.get("qmd.scf_iterations")
    assert scf_iters.values == [float(f.scf_iterations) for f in frames]
    # 3 solves total (initial force eval + 2 steps): the first is cold, the
    # rest warm-start from the engine's cached orbitals (which implies the
    # density warm start too)
    cold = ins.metrics.get("qmd.solves", engine=label, start="cold")
    orbital = ins.metrics.get("qmd.solves", engine=label, start="orbital")
    assert cold.value == 1
    assert orbital.value == 2
    assert ins.metrics.get("qmd.solves", engine=label, start="density") is None
    eig_iters = ins.metrics.get("qmd.eig_iterations", engine=label)
    assert len(eig_iters.values) == 3
    # engine inherited the driver's instrumentation: solver spans nested
    # in qmd
    run_spans = [s for s in ins.tracer.spans() if s.name == f"{scope}.run"]
    assert run_spans
    assert any(s.path.startswith("qmd.step/") for s in run_spans)


def test_parallel_ldc_merges_vm_timeline(h2, tmp_path):
    ins = Instrumentation()
    pres = run_parallel_ldc(
        h2, LDC_OPTS, total_ranks=4, instrumentation=ins
    )
    assert ins.metrics.get("vm.predicted_seconds").value == pytest.approx(
        pres.predicted_seconds
    )
    trace_path = tmp_path / "trace.json"
    ins.write_trace(trace_path)
    trace = json.loads(trace_path.read_text())
    pids = {e["pid"] for e in trace["traceEvents"] if e["ph"] == "X"}
    assert pids == {1, 2}  # real spans and simulated ranks side by side
    vm = phase_breakdown(trace["traceEvents"], pid=2)
    assert "domain" in vm
    real = phase_breakdown(trace["traceEvents"], pid=1)
    assert "ldc.run" in real
