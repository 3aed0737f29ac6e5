"""Self-tests of the benchmark (smoke size).  Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

import run  # noqa: E402

run.use_program()
