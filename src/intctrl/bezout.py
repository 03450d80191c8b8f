"""Polynomial Diophantine solves, the Bezout identity and coprimality tests.

The central operation solves ``p * r + s * m = q`` for the unique ``(r, s)``
with ``deg(s) < deg(p)``, where ``m`` is a fixed modulus polynomial coprime
to ``p``.  It is realised as one dense pivoted solve of the square
coefficient-matching system rather than an extended-Euclidean chain:
floating-point Euclid on polynomials is numerically fragile, while the
square system is well-posed exactly when the coprimality holds.
"""
from __future__ import annotations

from math import copysign
from typing import NamedTuple

import numpy as np

from .numeric import SingularMatrixError, _convolve, solve_linear
from .poly import Polynomial, _sum_residual, _trimmed

COPRIME_TOL = 1e-8
#: bound on a Diophantine solution's residual, relative to max(1, |q|)
RESIDUAL_TOL = 1e-10


def _svd_gufunc():
    """The gufunc ``np.linalg.svd(S, compute_uv=False)`` calls for a square
    ``S``, without the wrapper's checks: ``svd`` in numpy 2, ``svd_n`` in 1."""
    gufuncs = np.linalg._umath_linalg
    return getattr(gufuncs, "svd", None) or gufuncs.svd_n


def _svd_failed(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge")


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

    A power-series fast path handles ``p = z**k`` (invert the modulus modulo
    ``z**k``, using ``modulus(0) != 0``); it meets the same contract and is
    cross-checked against the dense route by the test suite.  When the
    series overflows or misses the residual bound, the dense solve decides.
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

    scale = max(1.0, q.max_abs())
    if dp > 0 and _is_monomial(p):
        # power-series route can amplify when the modulus has roots well
        # inside the unit disk; fall back to the dense solve before failing
        fast = _monomial_fast_path(dp, q, modulus)
        if (fast is not None
                and _residual(p, *fast, modulus, q) <= RESIDUAL_TOL * scale):
            return DiophantineSolution(*fast)
    r, s = _dense_solve(p, q, modulus)
    err = _residual(p, r, s, modulus, q)
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


def _residual(p: Polynomial, r: Polynomial, s: Polynomial,
              modulus: Polynomial, q: Polynomial) -> float:
    """``(p*r + s*modulus - q).max_abs()``."""
    return _sum_residual(_product(p, r), _product(s, modulus), q.coeffs)


def _is_monomial(p: Polynomial) -> bool:
    return np.count_nonzero(p.coeffs[:-1]) == 0


def _dense_solve(p: Polynomial, q: Polynomial, modulus: Polynomial):
    dp = p.coeffs.size - 1
    dq = q.coeffs.size - 1
    dr = dq - dp
    dim = dq + 1
    # column j < dr + 1 holds p from row j down, column dr + 1 + i holds the
    # modulus from row i down: coefficient k of either sits on a diagonal,
    # which is one strided slice of the flat matrix
    A = np.zeros((dim, dim))
    flat = A.reshape(-1)
    step = dim + 1
    for k, c in enumerate(p.coeffs.tolist()):
        # the matrix already holds +0.0, such as the zeros of a p = z^N;
        # a -0.0 is written like any other coefficient
        if c or copysign(1.0, c) < 0.0:
            flat[k * dim : k * dim + (dr + 1) * step : step] = c
    for k, c in enumerate(modulus.coeffs.tolist()):
        start = k * dim + dr + 1
        flat[start : start + dp * step : step] = c
    try:
        x = solve_linear(A, q.coeffs)
    except SingularMatrixError as exc:
        raise NotCoprimeError(
            f"coefficient system singular to tolerance (pivot {exc.pivot:.3e}): "
            "p and modulus are not coprime", pivot=exc.pivot) from exc
    return Polynomial(x[: dr + 1]), _trimmed(x[dr + 1 :])


def _monomial_fast_path(k: int, q: Polynomial, modulus: Polynomial):
    # s = q * modulus^{-1} mod z^k, then r = (q - s*modulus) / z^k exactly.
    m0 = modulus.coeffs[0]
    if m0 == 0.0:
        raise NotCoprimeError("modulus(0) = 0: z^k and modulus share a root at 0")
    inv = np.zeros(k)
    inv[0] = 1.0 / m0
    m = np.zeros(k)
    m[: min(k, modulus.coeffs.size)] = modulus.coeffs[:k]
    qlow = np.zeros(k)
    qlow[: min(k, q.coeffs.size)] = q.coeffs[:k]
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, k):
            inv[i] = -np.dot(m[1 : i + 1][::-1], inv[:i]) / m0
        s = np.convolve(qlow, inv)[:k]
        # bounds every coefficient formed below and in the residual check
        bound = np.sum(np.abs(s)) * modulus.max_abs() + q.max_abs()
    if not bound < np.finfo(float).max / 4:
        return None  # the series overflowed
    rest = (q - Polynomial(s) * modulus).coeffs
    r = rest[k:] if rest.size > k else np.zeros(0)
    return Polynomial(r), _trimmed(s)


def sylvester_matrix(a: Polynomial, b: Polynomial) -> np.ndarray:
    """Classical Sylvester matrix of two nonconstant polynomials."""
    if a.coeffs.size < 2 or b.coeffs.size < 2:
        raise ValueError("both polynomials must have degree >= 1")
    return _sylvester(a.coeffs, b.coeffs)


def _sylvester(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`sylvester_matrix` of ascending coefficient arrays whose top
    entries are nonzero."""
    da, db = a.size - 1, b.size - 1
    S = np.zeros((da + db, da + db))
    a_desc, b_desc = a[::-1], b[::-1]
    for i in range(db):
        S[i : i + da + 1, i] = a_desc
    for i in range(da):
        S[i : i + db + 1, db + i] = b_desc
    return S


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
        # a top coefficient underflowed: the Polynomial strips it
        S = sylvester_matrix(Polynomial(an), Polynomial(bn))
    else:
        S = _sylvester(an, bn)
    with np.errstate(call=_svd_failed, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        sv = _svd_gufunc()(S, signature="d->d")
    quality = float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0
    return CoprimalityResult(quality > COPRIME_TOL, quality)
