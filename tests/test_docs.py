"""The README agrees with the code.  Its table of tolerance constants: each
row names a constant of the stated module with the stated value, and every
public float constant of the package has a row.  Its command-line usage
block: each command lists the options its parser takes, no more and no
fewer.  Its library quick start: each print writes what its comment says."""
import argparse
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import intctrl
from intctrl.cli import _parser

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


def _usage_options() -> dict[str, set[str]]:
    """Options per command in the README's usage block, comments left out."""
    block = re.search(r"^## Command line\n\n```\n(.*?)^```", README.read_text(),
                      re.M | re.S).group(1)
    options: dict[str, set[str]] = {}
    for line in block.splitlines():
        line = line.split("#")[0]
        command = re.match(r"intctrl (\w+)", line)
        if command:
            current = options.setdefault(command.group(1), set())
        current |= set(re.findall(r"--[a-z][a-z-]*", line))
    return options


def test_usage_block_lists_every_parser_option():
    [subs] = [action for action in _parser()._actions
              if isinstance(action, argparse._SubParsersAction)]
    parsed = {name: {flag for action in sub._actions
                     for flag in action.option_strings} - {"-h", "--help"}
              for name, sub in subs.choices.items()}
    assert _usage_options() == parsed


def test_quick_start_prints_what_its_comments_say(capsys):
    section = re.search(r"^## Library quick start\n(.*?)^## ", README.read_text(),
                        re.M | re.S).group(1)
    blocks = re.findall(r"^```python\n(.*?)^```", section, re.M | re.S)
    namespace: dict = {}
    for block in blocks:
        exec(block, namespace)
    comments = [line.split("# ")[1] for block in blocks
                for line in block.splitlines() if line.startswith("print(")]
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(comments) == 4
    for text, comment in zip(printed, comments):
        if comment.startswith("~"):
            assert float(text) == pytest.approx(float(comment[1:]), abs=1e-2)
        else:
            assert text == comment
    # Polynomial.__str__ as the quick start pins it
    assert comments[0] == "z^8 - z^7 - 13z^6 - 4z^5 + 10z^4"
    assert comments[2] == "z^27 - z^26 - 4z^25 - 2z^24 + 4z^23"
