"""Polynomial Diophantine solves, the Bezout identity and coprimality tests.

The central operation solves ``p * r + s * m = q`` for the unique ``(r, s)``
with ``deg(s) < deg(p)``, where ``m`` is a fixed modulus polynomial coprime
to ``p``.  It is realised as one dense pivoted solve of the square
coefficient-matching system rather than an extended-Euclidean chain:
floating-point Euclid on polynomials is numerically fragile, while the
square system is well-posed exactly when the coprimality holds.
"""
from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .numeric import SingularMatrixError, _convolve, _lu_solve
from .poly import Polynomial, _max_abs, _sum_residual, trim

COPRIME_TOL = 1e-8
#: bound on a Diophantine solution's residual, relative to the largest of
#: max(1, |q|), |p*r| and |s*modulus|
RESIDUAL_TOL = 1e-10


class NotCoprimeError(ValueError):
    """The inputs share a common factor to working tolerance."""

    def __init__(self, message: str, pivot: float | None = None):
        self.pivot = pivot
        super().__init__(message)


class DiophantineSolution(NamedTuple):
    r: Polynomial
    s: Polynomial


class CoprimalityResult(NamedTuple):
    coprime: bool
    #: Reciprocal condition estimate of the Sylvester matrix
    #: (smallest over largest singular value); 1.0 for constant inputs.
    quality: float


def solve_diophantine(p: Polynomial, q: Polynomial,
                      modulus: Polynomial) -> DiophantineSolution:
    """Unique ``(r, s)`` with ``p*r + s*modulus = q`` and ``deg(s) < deg(p)``.

    Requires ``deg(q) >= deg(p)``, ``p`` monic and coprime to ``modulus``,
    and ``deg(p) - 1 + deg(modulus) <= deg(q)`` so the coefficient-matching
    system is square of dimension ``deg(q) + 1``.  Then
    ``deg(r) = deg(q) - deg(p)``; when additionally the degree inequality is
    strict (every use in this package), ``r`` is monic whenever ``q`` is.

    Every ``p``, a power ``z**k`` too, takes the one dense solve.  The
    residual of the solution must stay within ``RESIDUAL_TOL`` times the
    largest of ``max(1, |q|)``, ``|p*r|`` and ``|s*modulus|``, the scale at
    which the certificates check their identities.
    """
    if p.is_zero or modulus.is_zero:
        raise ValueError("p and modulus must be nonzero")
    if not p.is_monic():
        raise ValueError("p must be monic (normalize before calling)")
    dp = p.coeffs.size - 1
    dm = modulus.coeffs.size - 1
    dq = q.coeffs.size - 1 if not q.is_zero else 0
    if q.is_zero or dq < dp:
        raise ValueError(f"deg(q) = {dq if not q.is_zero else None} "
                         f"must be >= deg(p) = {dp}")
    if dp - 1 + dm > dq:
        raise ValueError("deg(p) - 1 + deg(modulus) must not exceed deg(q)")

    r, s = _dense_solve(p, q, modulus)
    err, scale = _identity_residual(p, r, s, modulus, q)
    if err > RESIDUAL_TOL * scale:
        raise NotCoprimeError(
            f"Diophantine residual {err:.3e} exceeds {RESIDUAL_TOL:.1e} * {scale:.3e}; "
            "inputs are close to sharing a factor")
    return DiophantineSolution(r, s)


def _product(a: Polynomial, b: Polynomial) -> np.ndarray:
    """Coefficients of ``a * b`` before the Polynomial strips them."""
    if a.is_zero or b.is_zero:
        return np.zeros(0)
    return _convolve(a.coeffs, b.coeffs)


def _identity_residual(a: Polynomial, b: Polynomial, c: Polynomial,
                       d: Polynomial, q: Polynomial) -> tuple[float, float]:
    """Residual ``|a*b + c*d - q|`` of an identity and the scale that its
    tolerance is relative to, the largest of ``max(1, |q|)``, ``|a*b|`` and
    ``|c*d|``: the rule of the Diophantine solve and of both certificates.
    Raises ValueError when the identity overflows the float range."""
    ab, cd = _product(a, b), _product(c, d)
    residual = _sum_residual(ab, cd, q.coeffs)
    # all three are finite once the residual is: one maximum of their
    # magnitudes, exact as each of the three is
    return residual, max(1.0, _max_abs(np.concatenate((q.coeffs, ab, cd))))


def _dense_solve(p: Polynomial, q: Polynomial, modulus: Polynomial):
    # column j < dr + 1 holds p from row j down, column dr + 1 + i holds the
    # modulus from row i down
    dp = p.coeffs.size - 1
    dr = q.coeffs.size - 1 - dp
    A = np.concatenate(([0.0], p.coeffs, modulus.coeffs))[
        _band_index((dp, modulus.coeffs.size - 1), (dr + 1, dp))]
    try:
        x = _lu_solve(A, q.coeffs)
    except SingularMatrixError as exc:
        raise NotCoprimeError(
            f"coefficient system singular to tolerance (pivot {exc.pivot:.3e}): "
            "p and modulus are not coprime", pivot=exc.pivot) from exc
    return Polynomial(x[: dr + 1]), trim(Polynomial(x[dr + 1 :]))


@functools.lru_cache(maxsize=128)
def _band_index(degrees: tuple[int, ...], widths: tuple[int, ...]) -> np.ndarray:
    """Gather index of a square matrix of column bands, one per polynomial,
    from ``[0, coefficients of each polynomial...]``: column ``j`` of the
    band of the polynomial of degree ``degrees[b]``, ``widths[b]`` columns
    wide, holds its coefficients from row ``j`` down, every other entry the
    leading zero.  Read-only.
    """
    rows = np.arange(sum(widths))[:, None]
    bands, start = [], 1
    for degree, width in zip(degrees, widths):
        k = rows - np.arange(width)  # the coefficient that entry (i, j) holds
        bands.append(np.where((k >= 0) & (k <= degree), start + k, 0))
        start += degree + 1
    index = np.hstack(bands)
    index.setflags(write=False)
    return index


def _sylvester(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Classical Sylvester matrix of two ascending coefficient arrays of
    degree at least 1 whose top entries are nonzero: ``deg(b)`` columns of
    ``a`` and ``deg(a)`` of ``b``, descending from the diagonal down."""
    da, db = a.size - 1, b.size - 1
    return np.concatenate(([0.0], a[::-1], b[::-1]))[_band_index((da, db), (db, da))]


def coprime_check(a: Polynomial, b: Polynomial) -> CoprimalityResult:
    """Coprimality verdict with a scale-free quality scalar.

    ``quality`` is the reciprocal condition estimate (smallest / largest
    singular value) of the Sylvester matrix after each polynomial is scaled
    to unit coefficient magnitude, so the verdict reflects root separation
    rather than units; the pair is declared coprime when
    ``quality > COPRIME_TOL``.
    Nonzero constants are coprime to everything.
    """
    if a.is_zero or b.is_zero:
        raise ValueError("coprimality of a zero polynomial is undefined")
    if a.coeffs.size == 1 or b.coeffs.size == 1:
        return CoprimalityResult(True, 1.0)
    an = a.coeffs / a.max_abs()
    bn = b.coeffs / b.max_abs()
    if an[-1] == 0.0 or bn[-1] == 0.0:
        # a top coefficient underflowed: strip it as a Polynomial does
        an, bn = Polynomial(an).coeffs, Polynomial(bn).coeffs
        if an.size < 2 or bn.size < 2:
            raise ValueError("both polynomials must have degree >= 1")
    sv = np.linalg.svd(_sylvester(an, bn), compute_uv=False)
    quality = float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0
    return CoprimalityResult(quality > COPRIME_TOL, quality)
