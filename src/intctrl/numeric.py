"""Linear solves, norms, root finding, root classification and Schur tests."""
from __future__ import annotations

import importlib.util
import os
import sys
from dataclasses import dataclass
from importlib.machinery import PathFinder
from typing import NamedTuple, Sequence

import numpy as np
import scipy

from .poly import Polynomial, _max_abs


def _load_flapack():
    """scipy's compiled LAPACK wrappers, without importing ``scipy.linalg``.

    ``scipy.linalg.lapack`` exports this extension's routines themselves
    (``lapack.dgetrf is _flapack.dgetrf``), but ``scipy.linalg``'s own
    import sets up scipy's array-API layer, which imports ``numpy.f2py``,
    ``numpy.testing``, ``numpy.ma`` and ``numpy.random`` and made up more
    than half of ``import intctrl``.  The extension is loaded from its file
    under its own name; when it is not there, or ``scipy.linalg`` is
    already loaded, it comes from the package as usual.
    """
    name = "scipy.linalg._flapack"
    found = None
    if "scipy.linalg" not in sys.modules:
        found = PathFinder.find_spec(
            "_flapack", [os.path.join(scipy.__path__[0], "linalg")])
    if found is None:
        from scipy.linalg import _flapack
        return _flapack
    spec = importlib.util.spec_from_file_location(name, found.origin)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # a single-phase extension enters itself in sys.modules; left there, a
    # later ``import scipy.linalg`` would reuse the entry without making it
    # an attribute of the package.  Loaded again, it gets the same function
    # objects: the interpreter keeps the first load's module dict
    sys.modules.pop(name, None)
    return module


_flapack = _load_flapack()
dgetrf, dgetrs, dtrtrs = _flapack.dgetrf, _flapack.dgetrs, _flapack.dtrtrs

SOLVE_RCOND = 1e-13
_EPS = 2.0 ** -52
#: magnitudes of powers and coefficients inside which the residual screen
#: of poly_roots is trusted
_SCREEN_RANGE = (2.0 ** -500, 2.0 ** 500)

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
    lu, piv, _ = dgetrf(A)
    diag = np.abs(lu.diagonal())
    # argmin finds the entry np.minimum.reduce returns, NaN included, faster
    scale, pivot = _max_abs(diag), float(diag[diag.argmin()])
    if scale == 0.0 or pivot <= rcond * scale:
        raise SingularMatrixError(pivot, scale)
    # getrs itself, the call lu_solve makes, without its per-call checks
    x, info = dgetrs(lu, piv, b)
    if info:
        raise ValueError(f"illegal value in argument {-info} of LAPACK getrs")
    return x


def vec_1norm(v: np.ndarray) -> float:
    """Sum of absolute entries."""
    return float(np.add.reduce(np.abs(v)))


def _residuals_screened(c: np.ndarray, roots: np.ndarray, tol_root: float) -> bool:
    """True when every root's residual, evaluated from one power table, is
    so far inside the bound of :func:`poly_roots` that its Horner check
    would pass too; False leaves the verdict to that check.

    With u = eps/2 and d = c.size - 1, the table's powers r^i carry at most
    2*sqrt(2)*(d-1)*u relative error, so the screened |p(r)| is within
    (1 + 2*sqrt(2))*d*u + 3u of the scale S = sum |c_i| |r|^i, and the
    screened scale within 4*(d+1)*u of S.  The Horner residual is within
    (1 + 2*sqrt(2))*d*u + 2u of S, and its scale within 3*(d+1)*u.  For a
    bound t <= 1 the two verdicts can part only where the screened ratio
    exceeds t - 15*(d+1)*u; screening at t - 16*(d+1)*eps = t - 32*(d+1)*u
    leaves a factor 2 to spare.  Exact residuals never exceed their scale,
    so a bound above 1 is screened as 1.  The rounding model holds because
    every power and every nonzero coefficient must lie within 2**+-500:
    no product of the two leaves 2**+-1000, so nothing overflows, and an
    underflow, an absolute error of at most 2**-1075 carried by at most
    max(1, |r|^d), is negligible against S >= |c_d| |r|^d, which is at
    least 2**-1000 * max(1, |r|^d).
    """
    bound = min(tol_root, 1.0) - 16.0 * c.size * _EPS
    if not bound > 0.0:  # tol_root = 0 or NaN: only the Horner check decides
        return False
    if roots.size == 0:
        return True
    mag_c = np.abs(c)
    mag_r = np.abs(roots)
    lo, hi = _SCREEN_RANGE
    # |r|^i lies between 1 and |r|^d: bounding |r|^d bounds every power
    root_hi = hi ** (1.0 / (c.size - 1))
    if not (mag_c[mag_c.argmax()] <= hi
            and np.minimum.reduce(mag_c, initial=hi, where=mag_c != 0.0) >= lo
            and mag_r[mag_r.argmax()] <= root_hi
            and mag_r[mag_r.argmin()] >= 1.0 / root_hi):
        return False
    powers = np.empty((roots.size, c.size), roots.dtype)
    powers[:, 0] = 1.0
    powers[:, 1:] = roots[:, None]
    np.multiply.accumulate(powers, axis=1, out=powers)
    passed = np.abs(powers @ c) <= bound * (np.abs(powers) @ mag_c)
    return np.count_nonzero(passed) == roots.size


def _eigvals_failed(err, flag):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def poly_roots(p: Polynomial, tol_root: float = ROOT_TOL) -> np.ndarray:
    """All roots of ``p`` with multiplicity, via companion-matrix eigenvalues.

    Each returned root ``r`` satisfies ``|p(r)| <= tol_root * sum_i |c_i| |r|^i``
    (relative backward error at the evaluation scale); gross violations raise
    :class:`RootFindingError`.
    """
    if p.is_zero or p.coeffs.size < 2:
        raise ValueError("root finding requires degree >= 1")
    c = p.coeffs
    # np.roots(c[::-1]) without its wrappers: the eigenvalues of the same
    # companion matrix of c with its zero low-order coefficients split off,
    # followed by one zero root per split coefficient
    zeros = int((c != 0.0).argmax())
    desc = c[zeros:][::-1]
    if desc.size > 1:
        A = np.zeros((desc.size - 1, desc.size - 1))
        A.reshape(-1)[desc.size - 1 :: desc.size] = 1.0
        A[0, :] = -desc[1:] / desc[0]
        # np.linalg.eigvals(A) without the wrapper's checks, which cost more
        # than a small solve; only the first row can be non-finite
        if np.count_nonzero(np.isfinite(A[0])) != A.shape[1]:
            raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
        with np.errstate(call=_eigvals_failed, invalid="call", over="ignore",
                         divide="ignore", under="ignore"):
            roots = np.linalg._umath_linalg.eigvals(A, signature="d->D")
        roots = roots if np.count_nonzero(roots.imag) else roots.real
    else:
        roots = np.zeros(0)
    # the split-off zero roots need no screen: at 0 the Horner residual and
    # its scale are both |c_0| = 0, so they always pass
    screened = _residuals_screened(c, roots, tol_root)
    if zeros:
        roots = np.concatenate((roots, np.zeros(zeros, roots.dtype)))
    if screened:
        return roots
    # Horner for all roots at once on a stacked (real, imaginary) buffer,
    # each product and sum its own operation as in scalar complex
    # arithmetic, so the residuals equal those of a scalar Horner loop bit
    # for bit.  A step is re, im = re*zr + im*(-zi) + ck, im*zr + re*zi:
    # im*(-zi) is -(im*zi) exactly and a + (-b) is a - b, so the real part
    # rounds as re*zr - im*zi + ck.  The multipliers are full (2, k) arrays:
    # a broadcast operand costs more per call than the whole product
    k = roots.size
    real_mult = np.empty((2, k))
    real_mult[:] = roots.real
    cross_mult = roots.imag * np.array([[-1.0], [1.0]])
    acc = np.zeros((2, k))
    swapped, re = acc[::-1], acc[0]
    prod = np.empty((2, k))
    cross = np.empty((2, k))
    with np.errstate(over="ignore", invalid="ignore"):
        # sum_i |c_i| |r|^i, one row per root
        scale = np.add.reduce(
            np.abs(c) * np.abs(roots)[:, None] ** np.arange(c.size), axis=1)
        for ck in c[::-1].tolist():
            np.multiply(acc, real_mult, prod)
            np.multiply(swapped, cross_mult, cross)
            np.add(prod, cross, acc)
            np.add(re, ck, re)
        res = np.hypot(acc[0], acc[1])
        bad = res > tol_root * scale
    if np.count_nonzero(bad):
        raise RootFindingError([(complex(roots[i]), float(res[i]) / float(scale[i]))
                                for i in np.flatnonzero(bad)])
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
    return _schur_verdict(poly_roots(p), tol_margin)


def _schur_verdict(roots: np.ndarray, tol_margin: float = SCHUR_MARGIN) -> SchurResult:
    """Verdict of :func:`schur_check` from roots already found."""
    radius = _max_abs(roots)
    return SchurResult(radius < 1.0 - tol_margin, radius,
                       abs(radius - 1.0) <= BOUNDARY_BAND)

