"""The package names no numpy internals, so it runs on every numpy that
``pyproject.toml`` allows (numpy>=1.24).

``numpy._core`` exists only in numpy 2, and numpy 2 keeps ``numpy.core`` as
a deprecated alias that warns, which the suite turns into an error.  A test
run on numpy 2 alone passes a module that imports the first and breaks on
numpy 1, so each module's source is read for both names instead.
"""
import ast
from pathlib import Path

import pytest

import intctrl

PACKAGE = Path(intctrl.__file__).resolve().parent


def numpy_internals(source: str) -> list[str]:
    """The names of ``numpy.core`` or ``numpy._core`` in a module's source:
    imports, attributes of ``numpy`` or ``np``, and module-name strings."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = ([f"numpy.{alias.name}" for alias in node.names]
                     if node.module == "numpy" else [node.module or ""])
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in ("np", "numpy")):
            names = [f"numpy.{node.attr}"]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value]
        else:
            continue
        found += [name for name in names
                  if name.split(".")[:2] in (["numpy", "core"], ["numpy", "_core"])]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")),
                         ids=lambda path: str(path.relative_to(PACKAGE)))
def test_module_names_no_numpy_internals(path):
    assert numpy_internals(path.read_text()) == []


def test_every_form_of_the_names_is_found():
    source = """
import numpy.core
import numpy._core.multiarray as multiarray
from numpy.core.numeric import convolve
from numpy import _core, array
import numpy as np
np.core.multiarray.correlate
numpy._core
importlib.import_module("numpy._core.multiarray")
np.convolve, np.correlate, "numpy.linalg", "the numpy._core docs"
"""
    assert sorted(numpy_internals(source)) == sorted([
        "numpy.core", "numpy._core.multiarray", "numpy.core.numeric",
        "numpy._core", "numpy.core", "numpy._core", "numpy._core.multiarray"])
