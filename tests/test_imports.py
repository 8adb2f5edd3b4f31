"""Importing the package does not import numpy.

Only AllReduce and logistic regression use numpy, and the package loads
them on first use.  Each check runs in a fresh interpreter: this test
process has long since imported numpy.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(code):
    return subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()


def test_importing_the_packages_leaves_numpy_out():
    code = (
        "import sys, repro, repro.lib, repro.algorithms, repro.runtime\n"
        "print('numpy' in sys.modules)"
    )
    assert run_python(code) == ["False"]


def test_lazy_exports_are_the_functions_in_any_import_order():
    # Importing the submodule repro.lib.allreduce first binds a module
    # onto the package under the function's name; the export must win.
    code = (
        "import types\n"
        "from repro.lib.allreduce import _GatherVertex\n"
        "import repro.algorithms.logistic\n"
        "from repro.lib import allreduce, tree_allreduce\n"
        "from repro.algorithms import logistic_regression\n"
        "print(*(isinstance(f, types.FunctionType) for f in "
        "(allreduce, tree_allreduce, logistic_regression)))"
    )
    assert run_python(code) == ["True"] * 3
    code = (
        "import types\n"
        "from repro.lib import allreduce\n"
        "print(isinstance(allreduce, types.FunctionType))"
    )
    assert run_python(code) == ["True"]
