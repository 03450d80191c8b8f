"""Where the LAPACK routines come from.

Each case runs in a fresh interpreter: the suite itself imports
``scipy.linalg``, and the point is what ``import intctrl`` does without it.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import intctrl

SRC = str(Path(intctrl.__file__).resolve().parents[1])

# the routines are scipy.linalg.lapack's own objects, and scipy.linalg
# is whole: its _flapack attribute and its wrappers work
SAME_ROUTINES = """
import numpy as np
import scipy.linalg
from scipy.linalg import lapack
from intctrl import numeric
assert numeric.dgesv is lapack.dgesv
assert numeric.dgetrs is lapack.dgetrs
assert numeric.dtrtrs is lapack.dtrtrs
assert scipy.linalg._flapack.dgetrf is lapack.dgetrf
A = np.array([[4.0, 1.0], [2.0, 3.0]])
b = np.array([1.0, 2.0])
assert np.allclose(A @ scipy.linalg.lu_solve(scipy.linalg.lu_factor(A), b), b)
assert np.allclose(A @ numeric._lu_solve(A, b), b)
L = np.tril(A)
assert np.allclose(L @ scipy.linalg.solve_triangular(L, b, lower=True), b)
"""


def run_python(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_import_leaves_scipy_linalg_out():
    out = run_python(
        "import sys, intctrl\n"
        "print(sorted({'scipy', 'scipy.linalg', 'scipy.linalg._flapack',"
        " 'numpy.f2py', 'numpy.testing'} & set(sys.modules)))")
    assert out.strip() == "[]"


@pytest.mark.parametrize("first", ["import intctrl", "import scipy.linalg"])
def test_routines_are_scipy_lapack_in_either_import_order(first):
    run_python(first + "\n" + SAME_ROUTINES)


def test_fallback_when_the_extension_is_not_found():
    # the extension is hidden from the file lookup only; scipy.linalg's own
    # import of it asks under its full name and still finds it
    run_python("""
import sys
from importlib.machinery import PathFinder
find_spec = PathFinder.find_spec.__func__

def hide_flapack(cls, name, path=None, target=None):
    return None if name == "_flapack" else find_spec(cls, name, path, target)

PathFinder.find_spec = classmethod(hide_flapack)
import intctrl
assert "scipy.linalg" in sys.modules
""" + SAME_ROUTINES)


def test_fallback_when_the_extension_fails_to_load():
    # the first load of the extension, intctrl's own from its file, fails;
    # scipy.linalg's import of it then loads it as usual
    run_python("""
import sys
from importlib.machinery import ExtensionFileLoader
create_module = ExtensionFileLoader.create_module
failed = []

def fail_first_flapack(self, spec):
    if spec.name == "scipy.linalg._flapack" and not failed:
        failed.append(spec.origin)
        raise ImportError("cannot load")
    return create_module(self, spec)

ExtensionFileLoader.create_module = fail_first_flapack
import intctrl
assert failed and "scipy.linalg" in sys.modules
""" + SAME_ROUTINES)
