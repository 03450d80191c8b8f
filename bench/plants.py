"""Seeded random plants for the unfiltered sweep.

This is the benchmark's own copy of the test suite's ``random_plant``: it
makes the same random draws in the same order and expands the roots with
the same arithmetic as ``Polynomial.from_roots``, so it yields bit-identical
coefficients.  Keeping it here means an edit to the test suite cannot change
the benchmark's data.  Coefficients are ascending (constant first), the
order ``intctrl.Polynomial`` takes.
"""
from __future__ import annotations

import numpy as np

SWEEP_SEED = 7
SWEEP_SIZE = 600
SWEEP_N_MAX = 8


def from_roots(roots, leading: float = 1.0) -> np.ndarray:
    """Ascending coefficients of ``leading * prod(z - root)``."""
    p = np.array([leading], dtype=complex)
    for r in roots:
        p = np.convolve(p, np.array([-r, 1.0]))
    scale = max(1.0, float(np.max(np.abs(p))))
    if np.max(np.abs(p.imag)) > 1e-9 * scale:
        raise ValueError("roots are not closed under conjugation")
    return p.real.copy()


def random_roots(rng: np.random.Generator, count: int,
                 radius: float) -> list[complex]:
    """Conjugation-closed random roots, about 40% in complex pairs."""
    roots: list[complex] = []
    while len(roots) < count:
        if count - len(roots) >= 2 and rng.random() < 0.4:
            re = rng.uniform(-radius, radius)
            im = rng.uniform(0.05, radius)
            roots += [complex(re, im), complex(re, -im)]
        else:
            roots.append(complex(rng.uniform(-radius, radius), 0.0))
    return roots


def random_plant(rng: np.random.Generator, n_max: int = SWEEP_N_MAX,
                 radius: float = 1.5) -> tuple[np.ndarray, np.ndarray]:
    """(den, num) of a random proper plant placed by its roots; no filter."""
    n = int(rng.integers(1, n_max + 1))
    den = from_roots(random_roots(rng, n, radius))
    deg_num = int(rng.integers(0, n + 1))
    lead = rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0])
    num = from_roots(random_roots(rng, deg_num, radius), leading=lead)
    return den, num


def sweep_plants(seed: int = SWEEP_SEED, count: int = SWEEP_SIZE,
                 n_max: int = SWEEP_N_MAX) -> list[tuple[np.ndarray, np.ndarray]]:
    """The fixed-seed unfiltered sweep, in generation order."""
    rng = np.random.default_rng(seed)
    return [random_plant(rng, n_max) for _ in range(count)]
