"""Linear solves, norms, root finding and Schur tests."""
from __future__ import annotations

import functools
import importlib.util
import os
import sys
from importlib.machinery import PathFinder
from typing import NamedTuple, Sequence

import numpy as np

from .poly import Polynomial, _conjugate_closed, _max_abs


def _load_flapack():
    """scipy's compiled LAPACK wrappers, without importing ``scipy.linalg``.

    ``scipy.linalg.lapack`` exports this extension's routines themselves
    (``lapack.dgetrf is _flapack.dgetrf``), but ``scipy.linalg``'s own
    import sets up scipy's array-API layer, which imports ``numpy.f2py``,
    ``numpy.testing``, ``numpy.ma`` and ``numpy.random`` and made up more
    than half of ``import intctrl``.  The extension is loaded from its file
    under its own name, found from scipy's import spec without running
    ``scipy/__init__.py`` either; when it is not there, fails to load, or
    ``scipy.linalg`` is already loaded, it comes from the package as usual.
    """
    name = "scipy.linalg._flapack"
    found = None
    if "scipy.linalg" not in sys.modules:
        scipy_spec = importlib.util.find_spec("scipy")
        if scipy_spec is not None:
            found = PathFinder.find_spec("_flapack", [os.path.join(
                scipy_spec.submodule_search_locations[0], "linalg")])
    if found is not None:
        spec = importlib.util.spec_from_file_location(name, found.origin)
        try:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
        except ImportError:
            pass
        finally:
            # a single-phase extension enters itself in sys.modules; left
            # there, a later ``import scipy.linalg`` would reuse the entry
            # without making it an attribute of the package.  Loaded again,
            # it gets the same function objects: the interpreter keeps the
            # first load's module dict
            sys.modules.pop(name, None)
    from scipy.linalg import _flapack
    return _flapack


_flapack = _load_flapack()
dgesv, dgetrs, dtrtrs = _flapack.dgesv, _flapack.dgetrs, _flapack.dtrtrs

SOLVE_RCOND = 1e-13
_EPS = 2.0 ** -52

ROOT_TOL = 1e-6
IMAG_TOL = 1e-8
SCHUR_MARGIN = 1e-9
#: |radius - 1| band inside which a Schur verdict is flagged as fragile.
BOUNDARY_BAND = 1e-6
#: arc samples on the upper half of |z| = 1 - SCHUR_MARGIN with which
#: schur_product_proof starts, and the most it doubles them to
ARC_SAMPLES = 64
ARC_SAMPLES_MAX = 16384

_U = _EPS / 2
#: the radius every root of a Schur polynomial lies inside, and 1 - rho
#: (exact, by Sterbenz's lemma)
_RHO = 1.0 - SCHUR_MARGIN
_GAP = 1.0 - _RHO
#: a computed lower (upper) bound times _DOWN (_UP) stays below (above) the
#: exact value through up to 15 roundings of relative size u:
#: (1 + u)**15 * _DOWN < 1 < (1 - u)**15 * _UP
_DOWN, _UP = 1.0 - 2.0 ** -48, 1.0 + 2.0 ** -48
#: distance of a computed arc sample from its exact point, far above the
#: few ulps of cos, sin and the angle
_POINT_ERR = 2.0 ** -40
#: sqrt(2) * gamma_4, the relative error of a complex dot product of
#: length 2 (one coefficient of a product by z - r)
_KAPPA = 6.0 * _U


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


def _lu_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b``, ``A`` a square float matrix of order at least 1
    (unchecked), by pivoted LU; :class:`SingularMatrixError` carries a pivot
    at most ``SOLVE_RCOND`` times the largest."""
    # gesv: getrf then getrs, as lu_factor and lu_solve call them, in one
    # call and without their checks (lu_factor warns on a zero pivot)
    lu, piv, x, info = dgesv(A, b)
    diag = np.abs(lu.diagonal())
    # argmax and argmin find the entries np.maximum.reduce and
    # np.minimum.reduce return, NaN included, faster
    scale, pivot = float(diag[diag.argmax()]), float(diag[diag.argmin()])
    if scale == 0.0 or pivot <= SOLVE_RCOND * scale:
        raise SingularMatrixError(pivot, scale)
    if info > 0:  # a zero pivot a NaN hid from the check: gesv skipped getrs
        x, info = dgetrs(lu, piv, b)
    if info:
        raise ValueError(f"illegal value in argument {-info} of LAPACK gesv")
    return x


def vec_1norm(v: np.ndarray) -> float:
    """Sum of absolute entries."""
    return float(np.add.reduce(np.abs(v)))


def _convolve(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``np.convolve(a, v)`` of two nonempty float arrays, bit for bit,
    without its conversions: the longer operand first, as it orders them,
    into the correlate core it calls.  ``np.correlate`` reaches that core
    through ``correlate2``, which conjugates complex operands and reverses
    the output of a longer second operand, neither of which happens here."""
    if v.size > a.size:
        a, v = v, a
    return np.correlate(a, v[::-1], "full")


def _eigvals_failed(err, flag):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def poly_roots(p: Polynomial) -> np.ndarray:
    """All roots of ``p`` with multiplicity, via companion-matrix eigenvalues.

    Each root ``r`` is checked once: one table of its powers gives
    ``|p(r)|`` and ``S = sum_i |c_i| |r|^i``, and :class:`RootFindingError`
    lists every root with ``|p(r)| > ROOT_TOL * S`` and its ratio.  For
    degree d the computed ratio is within ``8 (d+1) eps`` of the exact one
    while the powers and terms ``c_i r^i`` stay normal doubles; a root whose
    powers or scale overflow has an infinite or NaN scale and passes.
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
        # one error state for the row and the eigensolve: a quotient that
        # overflows is left to the finiteness check, and finite
        # coefficients over a nonzero leading one raise no invalid flag, so
        # only a failed eigensolve calls _eigvals_failed
        with np.errstate(call=_eigvals_failed, invalid="call", over="ignore",
                         divide="ignore", under="ignore"):
            A[0, :] = -desc[1:] / desc[0]
            # np.linalg.eigvals(A) without the wrapper's checks, which cost
            # more than a small solve; only the first row can be non-finite
            if np.count_nonzero(np.isfinite(A[0])) != A.shape[1]:
                raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
            roots = np.linalg._umath_linalg.eigvals(A, signature="d->D")
        roots = roots if np.count_nonzero(roots.imag) else roots.real
    else:
        roots = np.zeros(0)
    # the split-off zero roots are not checked: at 0 the residual and its
    # scale are both |c_0| = 0
    powers = np.empty((roots.size, c.size), roots.dtype)
    powers[:, 0] = 1.0
    powers[:, 1:] = roots[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply.accumulate(powers, axis=1, out=powers)
        res = np.abs(powers.dot(c))
        scale = np.abs(powers).dot(np.abs(c))
        bad = res > ROOT_TOL * scale
    if np.count_nonzero(bad):
        raise RootFindingError([(complex(roots[i]), float(res[i]) / float(scale[i]))
                                for i in np.flatnonzero(bad)])
    if zeros:
        roots = np.concatenate((roots, np.zeros(zeros, roots.dtype)))
    return roots


class SchurResult(NamedTuple):
    is_schur: bool
    spectral_radius: float
    #: True when the radius sits within BOUNDARY_BAND of the unit circle,
    #: where the floating-point verdict is fragile.
    near_boundary: bool


def schur_check(p: Polynomial) -> SchurResult:
    """Largest root modulus and the verdict ``radius < 1 - SCHUR_MARGIN``.

    Degree-0 polynomials are vacuously Schur.  Polynomials within the margin
    of the unit circle are reported not Schur together with the
    ``near_boundary`` flag, never silently accepted.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has no stability verdict")
    if p.coeffs.size == 1:
        return SchurResult(True, 0.0, False)
    return _schur_verdict(poly_roots(p))


def _schur_verdict(roots: np.ndarray) -> SchurResult:
    """Verdict of :func:`schur_check` from roots already found."""
    radius = _max_abs(roots)
    return SchurResult(radius < 1.0 - SCHUR_MARGIN, radius,
                       abs(radius - 1.0) <= BOUNDARY_BAND)


class SchurFactors(NamedTuple):
    """A monic polynomial as steering multiplied it:
    ``z**shift * base * f_1 * ... * f_K``, where each product is the call
    ``np.convolve(f_k, partial)``.

    ``base`` is the initial factor: ``z**base`` for an int, else the product
    of ``z - r`` over the roots as :meth:`Polynomial.from_roots` expands it.
    ``steps`` holds the monic factors ``f_k`` in its rows, coefficients
    ascending, the last column all ones.
    """

    base: int | tuple[complex, ...]
    steps: np.ndarray
    shift: int


class SchurProof(NamedTuple):
    #: proved lower bound of min |p| on |z| = 1 - SCHUR_MARGIN; 0.0 when
    #: the roots are not proved inside that circle
    min_modulus: float
    #: why the proof failed, empty when it succeeded
    reason: str


def _norm_up(c: np.ndarray) -> float:
    """Upper bound of the 1-norm of ``c`` (real or complex)."""
    return float(np.add.reduce(np.abs(c))) * (1.0 + (c.size + 4) * _EPS)


def _rho_power_lo(m: int) -> float:
    """Lower bound of ``rho**m`` (Bernoulli: (1 - g)**m >= 1 - m g)."""
    return max(1.0 - m * (_GAP * 1.001), 0.0)


@functools.lru_cache(maxsize=32)
def _arc_powers(m: int, n: int) -> np.ndarray:
    """(2m, n+1) table: rows 0..m-1 the real and rows m..2m-1 the imaginary
    parts of the powers 0..n of the m arc midpoints
    ``rho * exp(i (j + 1/2) pi / m)``, by repeated complex products."""
    theta = (np.arange(m) + 0.5) * (np.pi / m)
    z = np.empty(m, complex)
    z.real, z.imag = _RHO * np.cos(theta), _RHO * np.sin(theta)
    powers = np.empty((m, n + 1), complex)
    powers[:, 0] = 1.0
    powers[:, 1:] = z[:, None]
    np.multiply.accumulate(powers, axis=1, out=powers)
    table = np.concatenate((powers.real, powers.imag))
    table.setflags(write=False)
    return table


def _expanded_roots(roots: Sequence[complex]) -> tuple[np.ndarray, float, bool]:
    """The real part of ``prod (z - r)`` over the roots, expanded in complex
    arithmetic by the operations of :meth:`Polynomial.from_roots`, read-only;
    an upper bound of the 1-norm of its difference from the exact product;
    and whether the roots are closed under conjugation, as ``from_roots``
    decides it.

    Both the initial factor and its Schur proof read an expansion, so one
    call's set-up repeats it; the bounded cache below holds it.  The cache
    keys on the bytes of the roots as complex doubles, so a root ``-0.0``
    and a root ``0.0``, equal as numbers, get entries of their own.  The
    cache saves only work: a miss expands the roots as a hit returns them.
    """
    return _expansion(np.array(roots, dtype=complex).tobytes())


@functools.lru_cache(maxsize=32)
def _expansion(key: bytes) -> tuple[np.ndarray, float, bool]:
    p = np.array([1.0], dtype=complex)
    dist = 0.0
    for r in np.frombuffer(key, dtype=complex).tolist():
        grow = (1.0 + abs(r) * _UP) * _UP
        dist = (dist + _KAPPA * _norm_up(p)) * grow * _UP
        p = np.convolve(p, np.array([-r, 1.0]))
    p.setflags(write=False)
    return p.real, (dist + _norm_up(p.imag)) * _UP, _conjugate_closed(p)


def _base_bounds(roots: np.ndarray, inner: np.ndarray, m: int, n: int,
                 reach: float, err: float) -> np.ndarray:
    """Lower bounds of the root base's modulus on the m arcs, followed by
    its sampled moduli without the arc slack; ``inner`` bounds ``rho - |r|``
    below."""
    table = _arc_powers(m, n)
    w = table[:m, 1] + 1j * table[m:, 1]
    dist = np.minimum(np.abs(w[:, None] - roots), np.abs(w[:, None] - roots.conj()))
    arc = np.maximum(dist * _DOWN - reach * _UP, inner)
    rounding = 1.0 - roots.size * _EPS
    return np.concatenate((
        np.multiply.reduce(arc, axis=1) * rounding * _DOWN - err * _UP,
        np.multiply.reduce(dist, axis=1) - err))


@functools.cache
def _factor_weights(n: int) -> np.ndarray:
    """(n+1, 3) weights whose product with a factor's magnitudes bounds its
    Rouche sum (weights ``rho^(i-n)``, 0 at i = n, from ``(1 - g)^(-k) <=
    1/(1 - k g)``), its 1-norm and its Lipschitz constant ``sum i |a_i|``
    above.  Scaled by ``1 + (n + 6) eps``, which covers the rounding of the
    weights, of the scaling and of the dot product of n + 1 terms."""
    weights = np.zeros((n + 1, 3))
    weights[:n, 0] = _UP / (1.0 - np.arange(n, 0, -1) * (_GAP * 1.001))
    weights[:, 1] = 1.0
    weights[:, 2] = np.arange(n + 1)
    weights *= 1.0 + (n + 6) * _EPS
    weights.setflags(write=False)
    return weights


def schur_product_proof(p: np.ndarray, factors: SchurFactors) -> SchurProof:
    """Prove that every root of the coefficient array ``p`` (ascending) lies
    inside ``|z| < rho = 1 - SCHUR_MARGIN``, from the factors that built it.

    No root is computed.  The factors are multiplied again exactly as
    steering multiplied them, and ``p`` must equal the result bit for bit.
    The proof then runs one factor at a time by Rouché's theorem on the
    circle ``C: |z| = rho``, with ``u = eps/2`` and ``gamma_m = m u/(1 - m u)``:

    - *Factors.*  ``f = z^n + sum_{i<n} a_i z^i`` has all its roots inside
      ``C`` when ``sum |a_i| rho^i < rho^n``, since then ``|f - z^n| <
      |z^n|`` on ``C``.  The test is ``sum |a_i| w_i < 1`` with ``w_i >=
      rho^(i-n)`` from ``(1 - g)^(-k) <= 1/(1 - k g)``, ``g = 1 - rho``; a
      factor that fails it, or is not monic, is not proved.
    - *Base.*  ``z^b`` has its roots at 0.  For roots ``r_i`` with
      ``|r_i| < rho``, the expansion ``b~`` differs from ``P0 = prod (z -
      r_i)`` by ``D``: each complex product by ``z - r`` errs per
      coefficient by at most ``sqrt(2) gamma_4`` times the sum of the
      magnitudes of its two products, so ``|D_k|_1 <= (1 + |r_k|)(|D_{k-1}|_1
      + sqrt(2) gamma_4 |p~_{k-1}|_1)``, and taking the real part adds
      ``|Im p~|_1``.  On ``C``, ``|P0| >= prod_i dist(z, {r_i, conj r_i})``
      on both half circles, and ``|b~ - P0| <= |D|_1``.
    - *Products.*  ``p~_k = fl(f_k p~_{k-1}) = f_k p~_{k-1} + E_k``; each
      coefficient is a dot product of at most n + 1 terms, so ``|E_k|_1 <=
      gamma_{n+1} |f_k|_1 |p~_{k-1}|_1``, with the norm of the *computed*
      partial product, and ``|E_k(z)| <= |E_k|_1`` on ``C``.  If ``|f_k|
      |p~_{k-1}| > |E_k|_1`` on all of ``C``, ``p~_k`` has as many roots
      inside ``C`` as ``f_k p~_{k-1}``, that is all of them.

    So with a lower bound ``lb_k`` of ``|p~_k|`` on each arc of ``C``,
    ``lb_k = lb(f_k) lb_{k-1} - gamma_{n+1} |f_k|_1 |p~_{k-1}|_1`` with
    ``lb(f_k) >= 0``, every root of ``p = z^shift p~_K`` lies inside ``C``
    when ``lb_K > 0`` on every arc: a positive ``lb_k`` needs a positive
    ``lb_{k-1}``, and real polynomials take the same moduli on the lower
    half of ``C``.

    *The whole circle first.*  On all of ``C``, ``|f| >= rho^n (1 - sum
    |a_i| rho^(i-n))``, the factor's own Rouché margin, and for a root base
    ``|P0| >= prod (rho - |r_i|)``.  The recursion runs once on these
    single numbers, and ``C`` is cut into arcs only when that bound does
    not stay positive; on the arcs, ``lb(f)`` is the larger of the two.

    *Arcs.*  The upper half of ``C`` is cut into M arcs of half-angle
    ``h = pi/(2M)`` around computed midpoints ``w_j``, which lie within
    ``delta = 2**-40`` of the exact ones (angle, cos, sin and the product
    by rho err by a few ulps).  Every point of arc j is within ``h +
    delta`` of ``w_j``, and the segment between them lies in the unit disk,
    where ``|f'| <= L = sum i |a_i|``.  The powers ``w_j^i`` come from
    repeated complex products, each erring by at most ``sqrt(2) gamma_2``,
    so by at most ``3 i u`` in all; the value ``f(w_j)`` is two real
    matrix products of those powers with ``a``, whose error is at most
    ``gamma_{n+1} sum |a_i| |w_j^i|`` (Minkowski over the real and
    imaginary parts).  Hence ``|f(w_j) - fl f(w_j)| <= (4n + 4) u |f|_1``,
    ``hypot`` adds at most 2u relative, and ``lb(f) = |fl f(w_j)| (1 - 2u) -
    (4n + 4) u |f|_1 - L (h + delta)``.  For a root base, ``dist(z, r) >=
    max(|w_j - r| - h - delta, rho - |r|)``.

    *Rounding of the bounds.*  Computed upper bounds (norms, error terms,
    slack) are multiplied by ``_UP`` after their last rounding and lower
    bounds by ``_DOWN``, each covering up to 15 roundings; a sum of m
    magnitudes is scaled by ``1 + (m + 4) eps``, and ``rho^b`` is bounded
    below by ``1 - 1.001 b g``, whose margin exceeds the rounding of the
    subtraction.  An underflowing product is harmless: a positive bound
    exceeds ``gamma_{n+1} >= 2u``.

    M starts at ``ARC_SAMPLES`` and doubles up to ``ARC_SAMPLES_MAX``.  It
    stops without a proof when the recursion on the sampled moduli, without
    the arc slack, already reaches 0 at some sample: no finer cut can then
    prove it.  The recursion stops at the first factor after which that and
    the bound on some arc have both reached 0.  Returns the proved lower
    bound of ``min |p|`` on ``C``, or 0.0 and the reason.
    """
    steps, shift = factors.steps, factors.shift
    k_count, n = steps.shape[0], steps.shape[1] - 1
    if isinstance(factors.base, (int, np.integer)):
        roots = None
        prod = np.zeros(factors.base + 1)
        prod[-1] = 1.0
        base_lo = _rho_power_lo(factors.base)
    else:
        roots = np.array(factors.base, dtype=complex)
        inner = (_RHO - np.abs(roots) * _UP) * _DOWN
        if np.count_nonzero(inner > 0.0) != roots.size:
            return SchurProof(0.0, "an initial root is not inside the circle")
        prod, base_err, _ = _expanded_roots(roots)
        base_lo = (float(np.multiply.reduce(inner)) * (1.0 - roots.size * _EPS)
                   * _DOWN - base_err * _UP)
    # per factor, upper bounds of the Rouche sum against z^n, the 1-norm and
    # the Lipschitz constant
    sums = np.abs(steps).dot(_factor_weights(n))
    inside = (sums[:, 0] < 1.0) & (steps[:, n] == 1.0)
    if np.count_nonzero(inside) != k_count:
        return SchurProof(0.0, f"the roots of factor {int(inside.argmin()) + 1} "
                               f"of {k_count} are not proved inside the circle")
    # |f| >= rho^n (1 - Rouche sum) on all of the circle
    floor = np.maximum((_DOWN - sums[:, 0] * _UP) * _rho_power_lo(n) * _DOWN,
                       0.0)
    # the partial products, multiplied as steering multiplied them
    partials = [prod]
    for f in steps:
        partials.append(_convolve(f, partials[-1]))
    prod = partials.pop()
    partial = np.array([_norm_up(q) for q in partials])
    if (p.size != prod.size + shift or np.count_nonzero(p[:shift])
            or np.count_nonzero(p[shift:] != prod)):
        return SchurProof(0.0, "it is not the product of its factors")
    err = (n + 1) * _U / (1.0 - (n + 1) * _U) * sums[:, 1] * partial * _UP
    # one bound for the whole circle from the floors first
    bound = base_lo
    for rate, e in zip(floor.tolist(), err.tolist()):
        bound = rate * bound * _DOWN - e
    if bound > 0.0:
        return SchurProof(bound * _rho_power_lo(shift) * _DOWN, "")
    slack = (4 * n + 4) * _U * sums[:, 1] * _UP
    m = ARC_SAMPLES
    while True:
        values = _arc_powers(m, n).dot(steps.T)
        moduli = np.hypot(values[:m], values[m:])
        reach = (np.pi / (2 * m) + _POINT_ERR) * _UP
        # rows 0..m-1 bound each factor below on the arcs; rows m..2m-1 are
        # its sampled moduli, without the arc slack
        rates = np.concatenate((np.maximum(
            moduli * _DOWN - (slack + sums[:, 2] * reach) * _UP, floor) * _DOWN,
            moduli))
        if roots is None:
            state = np.full(2 * m, base_lo)
        else:
            state = _base_bounds(roots, inner, m, n, reach, base_err)
        # a row at or below 0 (or NaN) stays so: rates are >= 0 (or NaN) and
        # error terms > 0 (argmin finds a NaN first)
        bound, sampled = state[:m], state[m:]
        for rate, e in zip(rates.T, err.tolist()):
            state *= rate
            state -= e
            if not (sampled[sampled.argmin()] > 0.0 or bound[bound.argmin()] > 0.0):
                break
        least = float(bound[bound.argmin()])
        if least > 0.0:
            return SchurProof(least * _rho_power_lo(shift) * _DOWN, "")
        if not sampled[sampled.argmin()] > 0.0 or m >= ARC_SAMPLES_MAX:
            return SchurProof(0.0, "the stepwise Rouche bound of its modulus "
                                   "on the circle does not stay positive")
        m *= 2
