"""Dense real-coefficient polynomial arithmetic.

Coefficients are stored in ascending order: ``coeffs[i]`` is the coefficient
of ``z**i``.  The descending "stacked" ordering used by the convolution
matrices lives only at the vector/matrix boundary (:func:`vector_from_monic`,
:func:`monic_from_vector`, :func:`toeplitz_stack`), which eliminates
off-by-one errors in plain convolution arithmetic.
"""
from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

import numpy as np

#: Relative threshold below which high-order coefficients produced by
#: addition/subtraction are treated as zero.
TRIM_TOL = 1e-9

#: Tolerance on |leading - 1| for the monic predicate.
MONIC_TOL = 1e-9

#: Relative reconstruction tolerance for division.
RESIDUAL_TOL = 1e-10


class Polynomial:
    """Immutable univariate polynomial with real coefficients.

    ``Polynomial([2, 1])`` is ``z + 2``.  The zero polynomial has an empty
    coefficient array and degree ``None``.
    """

    __slots__ = ("coeffs",)

    coeffs: np.ndarray

    def __init__(self, coeffs: Iterable[float] = ()):
        arr = np.atleast_1d(np.asarray(list(coeffs), dtype=float))
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValueError("polynomial coefficients must be finite")
        # strip exact zeros from the top; tolerance-based trimming is applied
        # only by the arithmetic that can produce round-off dust
        end = arr.size
        while end > 0 and arr[end - 1] == 0.0:
            end -= 1
        arr = arr[:end].copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- basic queries ----------------------------------------------------

    @property
    def degree(self) -> int | None:
        """Degree, or ``None`` for the zero polynomial."""
        return self.coeffs.size - 1 if self.coeffs.size else None

    @property
    def is_zero(self) -> bool:
        return self.coeffs.size == 0

    @property
    def leading(self) -> float:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return float(self.coeffs[-1])

    def is_monic(self, tol: float = MONIC_TOL) -> bool:
        return not self.is_zero and abs(self.leading - 1.0) <= tol

    def max_abs(self) -> float:
        """Largest coefficient magnitude (0 for the zero polynomial)."""
        return float(np.max(np.abs(self.coeffs))) if self.coeffs.size else 0.0

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial(())

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial((1.0,))

    @staticmethod
    def monomial(power: int, coeff: float = 1.0) -> "Polynomial":
        """``coeff * z**power``."""
        if power < 0:
            raise ValueError("power must be nonnegative")
        c = np.zeros(power + 1)
        c[power] = coeff
        return Polynomial(c)

    @staticmethod
    def from_roots(roots: Sequence[complex], leading: float = 1.0,
                   conj_tol: float = 1e-9) -> "Polynomial":
        """Expand ``leading * prod (z - root)``.

        The root list must be closed under conjugation so the product has
        real coefficients; the residual imaginary part is checked against
        ``conj_tol`` relative to the coefficient scale.
        """
        p = np.array([leading], dtype=complex)
        for r in roots:
            p = np.convolve(p, np.array([-r, 1.0]))
        scale = max(1.0, float(np.max(np.abs(p))))
        if np.max(np.abs(p.imag)) > conj_tol * scale:
            raise ValueError("roots are not closed under conjugation")
        return Polynomial(p.real)

    # -- arithmetic --------------------------------------------------------

    def _padded(self, n: int) -> np.ndarray:
        out = np.zeros(n)
        out[: self.coeffs.size] = self.coeffs
        return out

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(self.coeffs.size, other.coeffs.size)
        return _trimmed(self._padded(n) + other._padded(n))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        n = max(self.coeffs.size, other.coeffs.size)
        return _trimmed(self._padded(n) - other._padded(n))

    def __neg__(self) -> "Polynomial":
        return Polynomial(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial.zero()
            return Polynomial(np.convolve(self.coeffs, other.coeffs))
        return Polynomial(self.coeffs * float(other))

    __rmul__ = __mul__

    def shifted(self, k: int) -> "Polynomial":
        """Multiply by ``z**k``."""
        if self.is_zero:
            return self
        return Polynomial(np.concatenate([np.zeros(k), self.coeffs]))

    def __divmod__(self, den: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Quotient and remainder with ``deg(rem) < deg(den)``.

        Realised as one pivoted linear solve in the unknown quotient and
        remainder coefficients; unlike schoolbook long division the
        reconstruction error does not compound over long quotients.
        """
        if den.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero:
            return Polynomial.zero(), Polynomial.zero()
        dn, dd = self.coeffs.size - 1, den.coeffs.size - 1
        if dd == 0:
            return Polynomial(self.coeffs / den.coeffs[0]), Polynomial.zero()
        if dn < dd:
            return Polynomial.zero(), self
        dq = dn - dd
        m = dn + 1
        A = np.zeros((m, m))
        for j in range(dq + 1):
            A[j : j + dd + 1, j] = den.coeffs
        for i in range(dd):
            A[i, dq + 1 + i] = 1.0
        x = np.linalg.solve(A, self.coeffs)
        return Polynomial(x[: dq + 1]), _trimmed(x[dq + 1 :])

    def __call__(self, z: complex) -> complex:
        """Horner evaluation; exact 0 for the zero polynomial."""
        acc = 0.0 + 0.0j if isinstance(z, complex) else 0.0
        for c in self.coeffs[::-1]:
            acc = acc * z + c
        return acc

    # -- comparison / display ----------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs.shape == other.coeffs.shape and bool(
            np.all(self.coeffs == other.coeffs)
        )

    def __hash__(self):
        return hash(self.coeffs.tobytes())

    def allclose(self, other: "Polynomial", tol: float = 1e-9) -> bool:
        """Coefficient-wise closeness, relative to the larger scale."""
        n = max(self.coeffs.size, other.coeffs.size)
        scale = max(1.0, self.max_abs(), other.max_abs())
        return bool(np.max(np.abs(self._padded(n) - other._padded(n)), initial=0.0)
                    <= tol * scale)

    def descending(self) -> np.ndarray:
        """Coefficients from highest power down (copy)."""
        return self.coeffs[::-1].copy()

    def __repr__(self):
        return f"Polynomial({self.coeffs.tolist()})"

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.coeffs.size - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = " - " if (c < 0 and parts) else (" + " if parts else ("-" if c < 0 else ""))
            mag = abs(c)
            term = "" if i == 0 else ("z" if i == 1 else f"z^{i}")
            num = "" if (mag == 1 and term) else f"{mag:g}"
            parts.append(f"{sign}{num}{term}")
        return "".join(parts)


def _trimmed(coeffs: np.ndarray, tol: float = TRIM_TOL) -> Polynomial:
    """Drop high-order coefficients below ``tol * max|coeff|``."""
    if coeffs.size == 0:
        return Polynomial.zero()
    cut = tol * np.max(np.abs(coeffs))
    end = coeffs.size
    while end > 0 and abs(coeffs[end - 1]) <= cut:
        end -= 1
    return Polynomial(coeffs[:end])


def trim(p: Polynomial, tol: float = TRIM_TOL) -> Polynomial:
    """Tolerance-trim a polynomial's spurious high-order dust."""
    return _trimmed(p.coeffs.copy(), tol)


def split_z_power(p: Polynomial, tol: float = TRIM_TOL) -> tuple[Polynomial, int]:
    """``(p / z**l, l)`` for the largest ``l`` whose low-order coefficients are
    at most ``tol * max|coeff|``; those coefficients count as exact zeros."""
    cut = tol * p.max_abs()
    shift = 0
    while shift < p.coeffs.size - 1 and abs(p.coeffs[shift]) <= cut:
        shift += 1
    return Polynomial(p.coeffs[shift:]), shift


class RationalTF(NamedTuple):
    """Transfer function as a numerator/denominator pair."""

    num: Polynomial
    den: Polynomial

    def degree_gap(self) -> int:
        """deg(den) - deg(num); numerator 0 counts as gap = deg(den) + 1."""
        if self.den.is_zero:
            raise ValueError("transfer function denominator is zero")
        if self.num.is_zero:
            return self.den.coeffs.size
        return (self.den.coeffs.size) - (self.num.coeffs.size)

    @property
    def is_proper(self) -> bool:
        return self.degree_gap() >= 0

    @property
    def is_strictly_proper(self) -> bool:
        return self.degree_gap() >= 1


# -- coefficient-vector / matrix boundary -----------------------------------


def vector_from_monic(p: Polynomial, n: int | None = None,
                      tol: float = MONIC_TOL) -> np.ndarray:
    """Descending coefficient vector of a monic polynomial, leading 1 stripped.

    A monic ``z^n + a_{n-1} z^{n-1} + ... + a_0`` maps to the length-``n``
    vector ``[a_{n-1}, ..., a_0]``.  Raises when the input is not monic or
    (when ``n`` is given) has the wrong degree.
    """
    if p.is_zero or not p.is_monic(tol):
        raise ValueError(f"expected a monic polynomial, got {p!r}")
    deg = p.coeffs.size - 1
    if n is not None and deg != n:
        raise ValueError(f"expected degree {n}, got {deg}")
    return p.coeffs[-2::-1].copy()


def monic_from_vector(x: np.ndarray) -> Polynomial:
    """Inverse of :func:`vector_from_monic`: ``[a_{n-1},...,a_0] -> z^n + ...``."""
    x = np.asarray(x, dtype=float)
    return Polynomial(np.concatenate([x[::-1], [1.0]]))


def toeplitz_stack(a: Polynomial, n: int) -> np.ndarray:
    """Stacked 2n-by-n convolution matrix of ``a``.

    Entry ``(i, j)`` (1-based) is the coefficient of ``z**(n - i + j)`` in
    ``a``, zero outside the stored range; column ``j`` is column 1 shifted
    down by ``j - 1`` rows.  Multiplying by the descending coefficient
    vector of a polynomial ``b`` with ``deg(b) < n`` yields the descending
    length-2n coefficient vector of ``a * b``.
    """
    if a.is_zero:
        deg = -1
    else:
        deg = a.coeffs.size - 1
    if deg > n:
        raise ValueError(f"degree {deg} exceeds stack dimension {n}")
    T = np.zeros((2 * n, n))
    for j in range(1, n + 1):
        for i in range(1, 2 * n + 1):
            k = n - i + j
            if 0 <= k <= deg:
                T[i - 1, j - 1] = a.coeffs[k]
    return T
