"""Linear solves, norms, root finding, root classification and Schur tests."""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
import scipy.linalg

from .poly import Polynomial

SOLVE_RCOND = 1e-13

ROOT_TOL = 1e-6
IMAG_TOL = 1e-8
SCHUR_MARGIN = 1e-9
#: |radius - 1| band inside which a Schur verdict is flagged as fragile.
BOUNDARY_BAND = 1e-6


class SingularMatrixError(np.linalg.LinAlgError):
    """Raised when a solve meets a pivot that is zero to tolerance."""

    def __init__(self, pivot: float, scale: float):
        self.pivot = pivot
        self.scale = scale
        super().__init__(f"matrix singular to tolerance (pivot {pivot:.3e}, "
                         f"scale {scale:.3e})")


class RootFindingError(RuntimeError):
    """Raised when computed roots fail the residual contract."""

    def __init__(self, residuals):
        self.residuals = residuals
        super().__init__(f"root residuals exceed tolerance: {residuals}")


class ConjugatePairingError(ValueError):
    pass


def solve_linear(A: np.ndarray, b: np.ndarray, rcond: float = SOLVE_RCOND) -> np.ndarray:
    """Solve ``A x = b`` by pivoted LU factorisation.

    Raises :class:`SingularMatrixError` carrying the offending pivot
    magnitude when the factorisation is singular to ``rcond`` relative to
    the largest pivot.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    if A.shape[0] == 0:
        return np.zeros_like(b)
    # getrf itself, not lu_factor: lu_factor warns on an exactly zero pivot,
    # which the check below reports as an exception
    lu, piv, _ = scipy.linalg.lapack.dgetrf(A)
    diag = np.abs(np.diag(lu))
    scale = float(np.max(diag))
    pivot = float(np.min(diag))
    if scale == 0.0 or pivot <= rcond * scale:
        raise SingularMatrixError(pivot, scale)
    return scipy.linalg.lu_solve((lu, piv), b, check_finite=False)


def vec_1norm(v: np.ndarray) -> float:
    """Sum of absolute entries."""
    return float(np.sum(np.abs(np.asarray(v))))


def poly_roots(p: Polynomial, tol_root: float = ROOT_TOL) -> np.ndarray:
    """All roots of ``p`` with multiplicity, via companion-matrix eigenvalues.

    Each returned root ``r`` satisfies ``|p(r)| <= tol_root * sum_i |c_i| |r|^i``
    (relative backward error at the evaluation scale); gross violations raise
    :class:`RootFindingError`.
    """
    if p.is_zero or p.coeffs.size < 2:
        raise ValueError("root finding requires degree >= 1")
    roots = np.roots(p.coeffs[::-1])
    bad = []
    for r in roots:
        mags = np.abs(p.coeffs) * np.abs(r) ** np.arange(p.coeffs.size)
        scale = float(np.sum(mags))
        res = abs(p(complex(r)))
        if res > tol_root * scale:
            bad.append((complex(r), res / scale))
    if bad:
        raise RootFindingError(bad)
    return roots


@dataclass(frozen=True)
class RootSet:
    """Roots of a real polynomial split into real ones and conjugate pairs.

    ``complex_pairs`` keeps one representative per pair, with positive
    imaginary part.
    """

    real_roots: tuple[float, ...]
    complex_pairs: tuple[complex, ...]
    leading_coeff: float

    @property
    def n_real(self) -> int:
        return len(self.real_roots)

    @property
    def n_complex_pairs(self) -> int:
        return len(self.complex_pairs)


def classify_roots(roots: Sequence[complex], leading_coeff: float = 1.0,
                   tol_imag: float = IMAG_TOL) -> RootSet:
    """Split a conjugation-closed root list into reals and conjugate pairs.

    Roots with ``|Im| <= tol_imag * (1 + |root|)`` collapse to real; the rest
    are greedily matched with their nearest conjugate.  An unmatched complex
    root raises :class:`ConjugatePairingError`.
    """
    reals: list[float] = []
    upper: list[complex] = []
    lower: list[complex] = []
    for r in roots:
        r = complex(r)
        if abs(r.imag) <= tol_imag * (1.0 + abs(r)):
            reals.append(r.real)
        elif r.imag > 0:
            upper.append(r)
        else:
            lower.append(r)
    if len(upper) != len(lower):
        raise ConjugatePairingError(
            f"unpaired complex roots: {len(upper)} upper vs {len(lower)} lower")
    pairs: list[complex] = []
    remaining = list(lower)
    for u in sorted(upper, key=lambda z: (z.real, z.imag)):
        if not remaining:
            raise ConjugatePairingError("conjugate pairing failed")
        dists = [abs(u.conjugate() - w) for w in remaining]
        j = int(np.argmin(dists))
        cand = remaining.pop(j)
        if dists[j] > 1e-3 * (1.0 + abs(u)):
            raise ConjugatePairingError(
                f"no conjugate found for {u} (nearest {cand})")
        pairs.append(u)
    return RootSet(tuple(sorted(reals)),
                   tuple(sorted(pairs, key=lambda z: (z.real, z.imag))),
                   float(leading_coeff))


class SchurResult(NamedTuple):
    is_schur: bool
    spectral_radius: float
    #: True when the radius sits within BOUNDARY_BAND of the unit circle,
    #: where the floating-point verdict is fragile.
    near_boundary: bool


def schur_check(p: Polynomial, tol_margin: float = SCHUR_MARGIN) -> SchurResult:
    """Largest root modulus and the verdict ``radius < 1 - tol_margin``.

    Degree-0 polynomials are vacuously Schur.  Polynomials within the margin
    of the unit circle are reported not Schur together with the
    ``near_boundary`` flag, never silently accepted.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has no stability verdict")
    if p.coeffs.size == 1:
        return SchurResult(True, 0.0, False)
    radius = float(np.max(np.abs(poly_roots(p))))
    return SchurResult(radius < 1.0 - tol_margin, radius,
                       abs(radius - 1.0) <= BOUNDARY_BAND)


def jury_stable(p: Polynomial) -> bool:
    """Schur-Cohn (Jury) recursion on the coefficients; no root finding.

    Cross-check oracle for :func:`schur_check`; reports strict unit-circle
    stability.  Degree-0 polynomials are vacuously stable.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has no stability verdict")
    a = p.descending()
    while a.size > 1:
        if abs(a[-1]) >= abs(a[0]):
            return False
        a = a[0] * a[:-1] - a[-1] * a[::-1][:-1]
    return True
