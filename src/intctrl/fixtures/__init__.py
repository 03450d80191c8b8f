"""Bundled benchmark fixtures.

The inverted-pendulum plant ships at full double precision: the synthesis
initialization solves a linear system whose conditioning is around 1e8, so
the commonly printed 4-5 significant-digit coefficients land the iteration
at a different integer target than the full-precision plant does.  The
quoted low-precision forms are recoverable by rounding and are asserted as
such in the test suite.  The files are problem files, read and checked by
the CLI's reader as any other.
"""
from __future__ import annotations

from importlib import resources

from ..cli import parse_problem_file
from ..converter import PreController
from ..poly import Polynomial

#: Roots for the initial degree-8 Schur target of the stabilization benchmark.
PENDULUM_GAMMA_INI_ROOTS: tuple[complex, ...] = (
    -0.2616 + 0.0j, 0.3728 + 0.0j,
    0.6769 + 0.6490j, 0.6769 - 0.6490j,
    0.9168 + 0.1990j, 0.9168 - 0.1990j,
    0.9650 + 0.1000j, 0.9650 - 0.1000j,
)

#: Roots for the initial degree-6 Schur factor of the conversion benchmark.
CONVERSION_ALPHA_INI_ROOTS: tuple[complex, ...] = (
    -0.7493 + 0.0j, -0.1861 + 0.0j,
    -0.2412 + 0.8757j, -0.2412 - 0.8757j,
    -0.1373 + 0.9794j, -0.1373 - 0.9794j,
)


def pendulum_plant() -> tuple[Polynomial, Polynomial]:
    """(den, num) of the inverted-pendulum benchmark plant."""
    return parse_problem_file(str(fixture_path("pendulum.json")))["plant"]


def pendulum_pre_controller() -> PreController:
    """Pre-designed two-input tracking controller of the conversion benchmark."""
    path = fixture_path("pendulum_conversion.json")
    return parse_problem_file(str(path))["controller"]


def fixture_path(name: str):
    """Filesystem path of a bundled fixture file (for the CLI and tests)."""
    return resources.files(__name__).joinpath(name)
