"""Dense real-coefficient polynomial arithmetic.

Coefficients are stored in ascending order: ``coeffs[i]`` is the coefficient
of ``z**i``.  The descending "stacked" ordering used by the convolution
matrices lives only at the vector/matrix boundary (:func:`vector_from_monic`,
:func:`monic_from_vector`, :func:`toeplitz_stack`), which eliminates
off-by-one errors in plain convolution arithmetic.
"""
from __future__ import annotations

import functools
from typing import Iterable, NamedTuple, Sequence

import numpy as np

#: Relative threshold below which high-order coefficients produced by
#: addition/subtraction are treated as zero.
TRIM_TOL = 1e-9

#: Tolerance on |leading - 1| for the monic predicate.
MONIC_TOL = 1e-9

#: Imaginary part, relative to the coefficient scale, that an expansion of
#: roots may leave before they count as not closed under conjugation.
CONJ_TOL = 1e-9


class Polynomial:
    """Immutable univariate polynomial with real coefficients.

    ``Polynomial([2, 1])`` is ``z + 2``.  The zero polynomial has an empty
    coefficient array.
    """

    __slots__ = ("coeffs",)

    coeffs: np.ndarray

    def __init__(self, coeffs: Iterable[float] = ()):
        if not isinstance(coeffs, (np.ndarray, list, tuple)):
            coeffs = list(coeffs)  # generators and other one-pass iterables
        # np.array copies, so the caller's array is never aliased
        arr = np.array(coeffs, dtype=float, ndmin=1)
        _check_finite(arr)
        # strip exact zeros from the top; tolerance-based trimming is applied
        # only by the arithmetic that can produce round-off dust
        if arr.size and arr[-1] == 0.0:
            end = arr.size - 1
            while end > 0 and arr[end - 1] == 0.0:
                end -= 1
            arr = arr[:end]
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- basic queries ----------------------------------------------------

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
        return _max_abs(self.coeffs)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial(())

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial((1.0,))

    @staticmethod
    def monomial(power: int) -> "Polynomial":
        """``z**power``."""
        if power < 0:
            raise ValueError("power must be nonnegative")
        c = np.zeros(power + 1)
        c[power] = 1.0
        return Polynomial(c)

    @staticmethod
    def from_roots(roots: Sequence[complex], leading: float = 1.0) -> "Polynomial":
        """Expand ``leading * prod (z - root)``.

        The root list must be closed under conjugation so the product has
        real coefficients; the residual imaginary part is checked against
        ``CONJ_TOL`` relative to the coefficient scale.
        """
        p = np.array([leading], dtype=complex)
        for r in roots:
            p = np.convolve(p, np.array([-r, 1.0]))
        if not _conjugate_closed(p):
            raise ValueError("roots are not closed under conjugation")
        return Polynomial(p.real)

    # -- arithmetic --------------------------------------------------------

    def _padded(self, n: int) -> np.ndarray:
        out = np.zeros(n)
        out[: self.coeffs.size] = self.coeffs
        return out

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(self.coeffs.size, other.coeffs.size)
        # an overflowing sum is rejected as non-finite, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            total = self._padded(n) + other._padded(n)
        return trim(Polynomial(total))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        n = max(self.coeffs.size, other.coeffs.size)
        with np.errstate(over="ignore", invalid="ignore"):
            total = self._padded(n) - other._padded(n)
        return trim(Polynomial(total))

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
        if self.is_zero or k == 0:
            return self
        return Polynomial(np.concatenate([np.zeros(k), self.coeffs]))

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

    def allclose(self, other: "Polynomial", tol: float = 1e-9) -> bool:
        """Coefficient-wise closeness, relative to the larger scale."""
        n = max(self.coeffs.size, other.coeffs.size)
        scale = max(1.0, self.max_abs(), other.max_abs())
        return bool(_max_abs(self._padded(n) - other._padded(n)) <= tol * scale)

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


def _check_finite(coeffs: np.ndarray) -> None:
    # count_nonzero: a ufunc reduction costs several times more
    if np.count_nonzero(np.isfinite(coeffs)) != coeffs.size:
        raise ValueError("polynomial coefficients must be finite")


def _conjugate_closed(p: np.ndarray) -> bool:
    """Whether the imaginary part of a complex expansion of roots stays
    within ``CONJ_TOL`` relative to the coefficient scale, as it does when
    the roots are closed under conjugation."""
    scale = max(1.0, float(np.max(np.abs(p))))
    return not np.max(np.abs(p.imag)) > CONJ_TOL * scale


def _max_abs(coeffs: np.ndarray) -> float:
    """``np.maximum.reduce(|coeffs|)``, 0 if empty, by a faster argmax."""
    if coeffs.size == 0:
        return 0.0
    mags = np.abs(coeffs)
    return float(mags[mags.argmax()])


def _trim_length(coeffs: np.ndarray) -> int:
    """Length of ``coeffs`` without its high-order entries of magnitude at
    most ``TRIM_TOL * max|coeff|``; a non-finite maximum trims nothing."""
    if coeffs.size == 0:
        return 0
    mags = np.abs(coeffs)
    top = mags[mags.argmax()]
    if not top < np.inf:
        return coeffs.size
    cut = TRIM_TOL * top
    end = coeffs.size
    while end > 0 and mags[end - 1] <= cut:
        end -= 1
    return end


def _sum_residual(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
    """``(Polynomial(a) + Polynomial(b) - Polynomial(c)).max_abs()`` on bare
    arrays, for a finite ``c``.

    The same sums and trims, and the same ValueError on a non-finite operand
    or sum, without the intermediate Polynomials: the exact zeros those strip
    from the top change no magnitude, hence neither a trim nor the result.
    Trims keep a non-finite entry, so one test of the result covers all; the
    last trim, which keeps the largest magnitude, is not made.
    """
    total = np.zeros(max(a.size, b.size))
    total[: a.size] = a
    # an overflowing sum is rejected below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        total[: b.size] += b
        end = _trim_length(total)
        diff = np.zeros(max(end, c.size))
        diff[:end] = total[:end]
        diff[: c.size] -= c
    top = _max_abs(diff)
    if not top < np.inf:
        raise ValueError("polynomial coefficients must be finite")
    return top


def trim(p: Polynomial) -> Polynomial:
    """Tolerance-trim a polynomial's spurious high-order dust."""
    end = _trim_length(p.coeffs)
    return p if end == p.coeffs.size else Polynomial(p.coeffs[:end])


def split_z_power(p: Polynomial) -> tuple[Polynomial, int]:
    """``(p / z**l, l)`` for the largest ``l`` whose low-order coefficients are
    at most ``TRIM_TOL * max|coeff|``; those coefficients count as exact
    zeros."""
    cut = TRIM_TOL * p.max_abs()
    shift = 0
    while shift < p.coeffs.size - 1 and abs(p.coeffs[shift]) <= cut:
        shift += 1
    return (Polynomial(p.coeffs[shift:]) if shift else p), shift


class RationalTF(NamedTuple):
    """Transfer function as a numerator/denominator pair."""

    num: Polynomial
    den: Polynomial


# -- coefficient-vector / matrix boundary -----------------------------------


def vector_from_monic(p: Polynomial, n: int | None = None) -> np.ndarray:
    """Descending coefficient vector of a monic polynomial, leading 1 stripped.

    A monic ``z^n + a_{n-1} z^{n-1} + ... + a_0`` maps to the length-``n``
    vector ``[a_{n-1}, ..., a_0]``.  Raises when the input is not monic to
    ``MONIC_TOL`` or (when ``n`` is given) has the wrong degree.
    """
    if p.is_zero or not p.is_monic():
        raise ValueError(f"expected a monic polynomial, got {p!r}")
    deg = p.coeffs.size - 1
    if n is not None and deg != n:
        raise ValueError(f"expected degree {n}, got {deg}")
    return p.coeffs[-2::-1].copy()


def monic_from_vector(x: np.ndarray, shift: int = 0) -> Polynomial:
    """Inverse of :func:`vector_from_monic`: ``[a_{n-1},...,a_0] -> z^n + ...``,
    times ``z**shift``, in one array."""
    coeffs = np.zeros(shift + len(x) + 1)
    coeffs[shift:-1] = x[::-1]
    coeffs[-1] = 1.0
    return Polynomial(coeffs)


def toeplitz_stack(a: Polynomial, n: int) -> np.ndarray:
    """Stacked 2n-by-n convolution matrix of ``a``.

    Entry ``(i, j)`` (1-based) is the coefficient of ``z**(n - i + j)`` in
    ``a``, zero outside the stored range; column ``j`` is column 1 shifted
    down by ``j - 1`` rows.  Multiplying by the descending coefficient
    vector of a polynomial ``b`` with ``deg(b) < n`` yields the descending
    length-2n coefficient vector of ``a * b``.
    """
    deg = a.coeffs.size - 1
    if deg > n:
        raise ValueError(f"degree {deg} exceeds stack dimension {n}")
    padded = np.zeros(3 * n + 1)
    padded[n : n + deg + 1] = a.coeffs
    return padded[_stack_index(n)]


@functools.lru_cache(maxsize=32)
def _stack_index(n: int) -> np.ndarray:
    """Gather index of :func:`toeplitz_stack`.

    Entry ``(i, j)``, 0-based, is ``2n - i + j``: the position of
    coefficient ``n - i + j`` in a copy of the coefficients padded with
    ``n`` zeros below and ``n`` above, length ``3n + 1``.  Read-only.
    """
    index = np.arange(2 * n, 0, -1)[:, None] + np.arange(n)
    index.setflags(write=False)
    return index
