"""The README's table of tolerance constants agrees with the code: each row
names a constant of the stated module with the stated value, and every
public float constant of the package has a row."""
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import intctrl

README = Path(__file__).resolve().parent.parent / "README.md"
ROW = re.compile(r"^\| `([A-Z_]+)` \| ([0-9.e+-]+) \| `(\w+)` \|", re.M)
ROWS = ROW.findall(README.read_text())
ASSIGNMENT = re.compile(r"^([A-Z][A-Z_]*) = ", re.M)


@pytest.mark.parametrize("name, value, module", ROWS,
                         ids=[row[0] for row in ROWS])
def test_tolerance_row_matches_module_constant(name, value, module):
    constant = getattr(importlib.import_module(f"intctrl.{module}"), name)
    assert type(constant) is float
    assert constant == float(value)


def test_every_float_constant_has_a_row():
    found = set()
    for info in pkgutil.iter_modules(intctrl.__path__):
        module = importlib.import_module(f"intctrl.{info.name}")
        # assigned here, not imported from a sibling module
        found |= {(name, info.name)
                  for name in ASSIGNMENT.findall(inspect.getsource(module))
                  if type(getattr(module, name)) is float}
    assert found == {(name, module) for name, _, module in ROWS}
