"""Generate ``references.json``: the committed frame-0 energies the
correctness gate compares against.

For each workload it records two energies of frame 0 (positions do not
depend on the seed):

* ``e_on3_reference`` — a tightly converged conventional O(N³) ``run_scf``
  solve (``O_N3_OPTIONS``), the reference ``energy_err_mha_per_atom`` is
  measured against;
* ``e_frame0_same_path`` — the first force call of the workload's own
  engine, which every run must reproduce to 1e-6 Ha.

Run from the repository root after a change that is meant to alter the
physics::

    python3 perfbench/make_references.py
"""

from __future__ import annotations

import datetime
import json
import sys

import run
from workloads import BACKEND, WORKLOADS, make_config, make_engine

#: the O(N³) reference solve: the workloads' cutoff, smearing and bands,
#: converged well below their SCF tolerance
O_N3_OPTIONS = dict(ecut=3.0, tol=1e-7, extra_bands=4, kt=0.02, eig_tol=1e-8)


def main() -> int:
    run.use_program()
    from envinfo import environment

    from repro import backend
    from repro.dft.scf import SCFOptions, run_scf

    backend.set_default(BACKEND)
    out = {
        "generator": "perfbench/make_references.py",
        "git_sha": environment()["git_sha"],
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "o_n3_options": O_N3_OPTIONS,
        "workloads": {},
    }
    on3_cache: dict[tuple, float] = {}
    for name, workload in WORKLOADS.items():
        cfg = make_config(workload, seed=0)
        key = (workload.n_pairs, workload.cell)
        if key not in on3_cache:
            ref = run_scf(cfg, SCFOptions(**O_N3_OPTIONS))
            if not ref.converged:
                raise RuntimeError(f"{name}: O(N^3) reference did not converge")
            on3_cache[key] = float(ref.energy)
        _, energy, _ = make_engine(workload).forces(cfg)
        out["workloads"][name] = {
            "natoms": cfg.natoms,
            "options": workload.options,
            "e_on3_reference": on3_cache[key],
            "e_frame0_same_path": float(energy),
        }
        print(name, out["workloads"][name], file=sys.stderr)
    with open(run.HERE / "references.json", "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
