"""Coefficient-space geometry driving the iterative synthesis.

A length-n vector ``x`` (descending order) stands for the monic polynomial
``z^n + x[0] z^{n-1} + ... + x[n-1]``.  The roots of the plant numerator
carve affine hyperplanes out of this space; a vector's polynomial shares a
root with the numerator exactly when the vector lies on one of them.  The
synthesis iteration must travel from its initial vector to an integer
vector without crossing any hyperplane, which keeps the update matrix
invertible along the way.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .numeric import IMAG_TOL, _lu_solve, dtrtrs, poly_roots, vec_1norm
from .poly import Polynomial, _check_finite, _max_abs, _stack_index

#: a side's margin, relative to its plane's scale, at x0 and at a candidate
SIDE_TOL = 1e-9


class TargetSearchError(RuntimeError):
    """Integer-target search found no candidate on the side of ``x0`` of
    every active plane, not even the constructive target, which is feasible
    in exact arithmetic: a numerical breakdown of the plane geometry,
    reported by the CLI as a synthesis failure (exit 3).  That target and
    its distances to the active planes are attached for diagnosis.  A
    numerator root whose plane row overflows raises it too, with neither.
    """

    def __init__(self, message: str, candidate=None, margins=None):
        self.candidate = candidate
        self.margins = margins
        super().__init__(message)


class InconsistentActiveSetError(ValueError):
    """A real-root plane evaluated to zero at the base point, which
    contradicts the coprimality precondition."""


@dataclass(frozen=True, eq=False)
class HyperplaneSet:
    """Affine planes ``{x : normals[t] . x = offsets[t]}`` induced by the
    numerator roots: one row per real root, then two per conjugate pair.

    ``roots[t]`` is the source root of row ``t``.  The first ``n_real`` rows
    are real-root rows, on which a vector's polynomial vanishes at the root;
    a conjugate pair gives the real and then the imaginary part of its value
    at the root.
    """

    normals: np.ndarray
    offsets: np.ndarray
    roots: tuple[complex, ...]
    n_real: int


def build_hyperplanes(num: Polynomial, n: int) -> HyperplaneSet:
    """Planes in R^n from the roots of ``num`` (one per real root, two per
    conjugate pair).

    Requires ``num(0) != 0`` and ``deg(num) <= n``.  For a real root ``lam``
    the plane row is the descending power row ``[lam^n, ..., lam, 1]`` split
    as ``[-offset, normal]``; for a complex root the analogous rows are its
    real and imaginary parts, so that the side of ``x`` equals the real
    (resp. imaginary) part of the vector's polynomial evaluated at the root.

    A root with ``|Im| <= IMAG_TOL * (1 + |root|)`` counts as real.  The
    eigensolver returns the other roots of a real polynomial in exact
    conjugate pairs, and each pair is kept by its member of positive
    imaginary part.  Real rows come first, sorted by root, then the pairs,
    sorted by (real, imag).
    """
    if num.is_zero:
        raise ValueError("numerator must be nonzero")
    # the value at 0 of finite coefficients is the constant one
    if num.coeffs[0] == 0.0:
        raise ValueError("numerator must not vanish at z = 0 (factor z^l first)")
    deg = num.coeffs.size - 1
    if deg > n:
        raise ValueError(f"deg(num) = {deg} exceeds ambient dimension {n}")
    reals, pairs = [], []
    for r in poly_roots(num).tolist() if deg else ():
        if abs(r.imag) <= IMAG_TOL * (1.0 + abs(r)):
            reals.append(r.real)
        elif r.imag > 0.0:
            pairs.append(r)
    reals.sort()
    pairs.sort(key=lambda z: (z.real, z.imag))
    # one array of each real root's powers, then each pair's real and imag
    exps = range(n, -1, -1)
    rows = []
    for root in reals + pairs:
        try:  # Python's **, which numpy's power need not match bit for bit
            row = [root ** e for e in exps]
        except OverflowError:  # raised by float and complex powers alike
            raise TargetSearchError(f"the plane row of numerator root {root:.6g} "
                                    "overflows the float range") from None
        rows += ([[z.real for z in row], [z.imag for z in row]]
                 if isinstance(root, complex) else [row])
    power = np.array(rows).reshape(len(rows), n + 1)
    roots = [complex(lam) for lam in reals] + [eta for eta in pairs for _ in "ri"]
    return HyperplaneSet(power[:, 1:].copy(), -power[:, 0], tuple(roots),
                         len(reals))


class ActiveSet(NamedTuple):
    """The planes active at ``x0``, stacked to test candidates: indices,
    rows, 1-norms (dual norms, turning sides into distances), sides at x0."""
    index: tuple[int, ...]
    normals: np.ndarray
    offsets: np.ndarray
    norms: np.ndarray
    sides0: np.ndarray

    def first_feasible(self, cands: np.ndarray) -> int | None:
        """Index of the first column of ``cands`` strictly on the side of
        ``x0`` of every plane, by a margin.  The plane functionals are
        affine, so the whole segment from ``x0`` to that column stays on
        the same sides too.  With no planes every column passes."""
        sides = self.sides(cands)
        sup = np.maximum(1.0, np.maximum.reduce(np.abs(cands), axis=0))
        margin = SIDE_TOL * (1.0 + self.norms[:, None] * sup)
        # sides0 * sides without its overflow: a product that underflows to
        # zero has a side within the margin, and a NaN side still passes
        bad = ((np.sign(self.sides0)[:, None] * sides <= 0.0)
               | (np.abs(sides) <= margin))
        good = (~np.logical_or.reduce(bad, axis=0)).nonzero()[0]
        return int(good[0]) if good.size else None

    def sides(self, cands: np.ndarray) -> np.ndarray:
        """Signed functionals of the columns of ``cands``, a row per plane."""
        return self.normals.dot(cands) - self.offsets[:, None]


def active_index_set(x0: np.ndarray, planes: HyperplaneSet) -> ActiveSet:
    """The planes whose functional is nonzero at ``x0``.

    A plane is active when ``|side(x0)| > SIDE_TOL * (1 + |normal|_1
    max(1, |x0|_inf))``, the margin a candidate must clear.  Only the
    imaginary/real parts of a complex pair may legitimately vanish; a
    vanishing (or NaN) real-root side contradicts the coprimality of the
    base point's polynomial and raises :class:`InconsistentActiveSetError`.
    """
    # each row's row @ x0: a single matrix-vector product would round
    # differently
    sides = np.fromiter(map(x0.dot, planes.normals), float,
                        planes.offsets.size) - planes.offsets
    # one reduction sums each row as vec_1norm does
    norms = np.add.reduce(np.abs(planes.normals), axis=1)
    active = np.abs(sides) > SIDE_TOL * (1.0 + norms * max(1.0, _max_abs(x0)))
    real = active[:planes.n_real].tolist()
    if False in real:
        t = real.index(False)
        raise InconsistentActiveSetError(
            f"real-root plane {t} (root {planes.roots[t].real:g}) passes "
            "through the base point: its polynomial shares a root with the "
            "numerator")
    return ActiveSet(tuple(active.nonzero()[0].tolist()), planes.normals[active],
                     planes.offsets[active], norms[active], sides[active])


def delta_matrix(x: np.ndarray, T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Update matrix, unit-lower-triangular part minus the numerator
    coupling, and the triangular solve ``T[n:]^-1 Tm[n:]`` it is built
    from, which maps an input to the cofactor increment of its step (see
    ``steer``).

    ``T`` is ``toeplitz_stack(num, n)``, its bottom block upper triangular,
    and ``x`` the float state, of length n or less for a lower degree;
    neither is checked.  No inverse is formed.  Singular exactly when the
    polynomial of ``x`` shares a root with the numerator.
    """
    n = T.shape[1]
    # the stacked convolution matrix of monic(x), as toeplitz_stack builds it
    padded = np.zeros(3 * n + 1)
    padded[n : n + x.size] = x[::-1]
    padded[n + x.size] = 1.0
    Tm = padded[_stack_index(n)]
    # trtrs on the transpose, the call solve_triangular makes for a C-ordered
    # matrix, without its per-call checks; lower = trans = 1, passed by
    # position, which the wrapper parses faster than keywords
    lower, info = dtrtrs(T[n:].T, Tm[n:], 1, 1)
    if info:
        raise np.linalg.LinAlgError(f"triangular solve failed (LAPACK trtrs info {info})")
    # the difference overwrites the top half of Tm, which nothing reads again
    delta = Tm[:n]
    delta -= T[:n].dot(lower)
    return delta, lower


class IntegerTarget(NamedTuple):
    x_star: np.ndarray
    strategy: str
    candidates_examined: int


#: points of the shell walk's cube bounded at once, at most (see _slabs):
#: a larger slab shares its per-call cost among more points.  The seed-7
#: sweep's longest walk (200,001 candidates in dimension 6) takes 2.8-2.9
#: ms with slabs of up to 8192 points, 2.7 ms at 16384, 3.5-4.2 ms at 4096
#: or 32768 and 5.5-6.1 ms at 1024 or 2048 (warm minimum of 10 runs, one
#: Xeon core, numpy 2.4); shorter walks stop in their first, smaller slabs.
SLAB = 8192
#: points of a shell's first slab, at most: a walk that stops after a few
#: candidates bounds tens of points, not thousands
_FIRST_SLAB = 64
#: the points the shell walk examines, round(x0) included: a bound on the
#: search's time, not on its answer, which the constructive target gives
MAX_CANDIDATES = 200_000


def _slabs(radius: int, dim: int):
    """The cube of offsets in ``[-radius, radius]**dim``, in
    ``itertools.product`` order, as slabs ``(lead, level)``: a slab of level
    f fixes the first ``dim - f`` offsets at ``lead`` and runs the last f
    through all their values, ``(2 radius + 1)**f`` points.  A shell's first
    slabs hold at most ``_FIRST_SLAB`` points, but run one offset at least;
    once the slabs of a level fill one slab of the next, the level rises, up
    to ``SLAB`` points.  Flat indices are Python ints, so a cube of more than
    2**63 points (dimension 40 at radius 1) is cut in order too."""
    width = 2 * radius + 1
    low = 1
    while low < dim and width ** (low + 1) <= _FIRST_SLAB:
        low += 1
    top = low
    while top < dim and width ** (top + 1) <= SLAB:
        top += 1
    start, level, total = 0, low, width ** dim
    while start < total:
        while level < top and start % width ** (level + 1) == 0 < start:
            level += 1
        rest, lead = start // width ** level, [0] * (dim - level)
        for k in range(dim - level - 1, -1, -1):
            rest, digit = divmod(rest, width)
            lead[k] = digit - radius
        yield lead, level
        start += width ** level


@functools.lru_cache(maxsize=16)
def _slab_points(radius: int, level: int) -> tuple[np.ndarray, np.ndarray]:
    """The offsets a slab of ``level`` runs, as float columns in product
    order: those on the shell, with an offset of magnitude ``radius``, then
    all of them.  Read-only, since they are cached."""
    grid = np.indices((2 * radius + 1,) * level).reshape(level, -1) - radius
    shell = grid[:, np.maximum.reduce(np.abs(grid), axis=0) == radius]
    points = shell.astype(float), grid.astype(float)
    for cols in points:
        cols.flags.writeable = False
    return points


def _search_around(center: np.ndarray, max_radius: float,
                   planes: ActiveSet) -> tuple[np.ndarray | None, int]:
    """First feasible point on the shells of radius 1 to ``max_radius``
    around ``center``, in product order, and the shell points examined
    through it, at most ``MAX_CANDIDATES - 1``.

    Each shell is walked slab by slab (see ``_slabs``).  The signed side
    ``sign_t (normal_t . x - offset_t)`` of a slab point, ``sign_t`` its sign
    at ``x0``, is a part common to the slab plus a part per point, computed
    once per shell and level.  A point whose sum is below ``-slack_t`` for
    some plane is skipped untested.  Both this sum and the side that
    ``first_feasible`` computes err by less than ``(2 dim + 3) eps scale_t``
    in all, ``scale_t = |normal_t| . (|center| + radius) + |offset_t|``, and
    ``slack_t``, from the scale of the last shell, is over 8 times that
    (plus 1e-300 for underflow), so every point that test accepts is
    tested.  Planes whose scale comes near overflow skip nothing: a NaN or
    infinite side keeps its point.  Skipped points count as examined, by
    their rank among the shell's points.
    """
    dim = center.size
    examined, budget = 0, MAX_CANDIDATES - 1
    last = int(min(max_radius, MAX_CANDIDATES))
    # the scale of the last shell bounds every shell's
    with np.errstate(over="ignore", invalid="ignore"):
        scale = (np.abs(planes.normals).dot(np.abs(center) + last)
                 + np.abs(planes.offsets))
    rows = (scale < 1e300).nonzero()[0]
    sign = np.sign(planes.sides0[rows])
    normals = sign[:, None] * planes.normals[rows]
    # the signed sides at center plus the slack
    sides = planes.sides(center[:, None])[rows, 0]
    lift = sign * sides + ((dim + 2) * 2.0 ** -48 * scale[rows] + 1e-300)
    # a shell holds 2 points or more, so the budget ends any longer walk
    for radius in range(1, last + 1):
        grids = {}
        for lead, level in _slabs(radius, dim):
            # all points of a slab are on the shell when a fixed offset is
            key = level, radius in lead or -radius in lead
            if key not in grids:
                points = _slab_points(radius, level)[key[1]]
                grids[key] = points, normals[:, dim - level:].dot(points)
            points, slab = grids[key]
            floor = -(lift + normals[:, :dim - level].dot(lead))
            count = min(slab.shape[1], budget - examined)
            kept = np.logical_and.reduce(
                slab[:, :count] >= floor[:, None], axis=0).nonzero()[0]
            if kept.size:
                off = np.empty((dim, kept.size))
                off[:dim - level] = np.reshape(lead, (-1, 1))
                off[dim - level:] = points[:, kept]
                cands = center[:, None] + off
                hit = planes.first_feasible(cands)
                if hit is not None:
                    return cands[:, hit].copy(), examined + int(kept[hit]) + 1
            examined += count
            if examined == budget:
                return None, examined
    return None, examined


def _fallback_center(x0: np.ndarray, num: Polynomial,
                     planes: ActiveSet) -> np.ndarray:
    """Centre ``c`` of the existence proof: ``round(c)`` is on the side of
    ``x0`` of every active plane, in exact arithmetic.

    Every side vanishes at ``v``, the vector of the monic ``z^(n-m) * num /
    leading``.  Let ``d`` be the least ``|side(x0)| / |normal|_1``: in the
    inf-norm ball of radius ``d`` around ``x0`` no side changes sign.  The
    sides are affine, so scaling by ``1/d`` about ``v`` makes the ball of
    radius 1 around ``c = v + (x0 - v) / d`` plane-free on the same sides,
    and rounding moves ``c`` by at most 1/2 per coordinate.
    """
    # num / leading below its top, descending, then zeros; finite as in a
    # Polynomial
    v = np.zeros(x0.size)
    v[:num.coeffs.size - 1] = num.coeffs[-2::-1] / num.coeffs[-1]
    _check_finite(v)
    ratio = np.abs(planes.sides0) / planes.norms
    return (x0 - v) / float(ratio[ratio.argmin()]) + v


def find_integer_target(x0: np.ndarray, num: Polynomial,
                        active: ActiveSet) -> IntegerTarget:
    """Integer vector strictly on the same side as ``x0`` of every active plane
    of ``active``, the planes of the numerator ``num``.

    Search order: ``round(x0)``; its Chebyshev shells out to the radius of
    the constructive target ``round(_fallback_center)``, at most
    ``MAX_CANDIDATES`` points with ``round(x0)``; then that target.
    """
    start = x0.round()
    if active.first_feasible(start[:, None]) is not None:
        return IntegerTarget(start, "round", 1)

    center = _fallback_center(x0, num, active).round()
    cand, count = _search_around(start, _max_abs(center - start), active)
    examined = 1 + count
    if cand is not None:
        return IntegerTarget(cand, "shell", examined)
    if active.first_feasible(center[:, None]) is not None:
        return IntegerTarget(center, "fallback", examined + 1)
    distances = np.abs(active.sides(center[:, None])[:, 0]) / active.norms
    raise TargetSearchError(
        "integer-target search exhausted: not even the constructive target "
        "lies on the side of x0 of every active plane, as it does in exact "
        "arithmetic, so the plane geometry broke down numerically",
        candidate=center, margins=distances.tolist())


class ControlStep(NamedTuple):
    u: np.ndarray
    hit: bool


def control_input(x: np.ndarray, x_star: np.ndarray, delta: np.ndarray,
                  mu: float) -> ControlStep:
    """Bounded input steering ``x`` toward ``x_star``.

    Solves ``delta * d = x_star - x``.  When ``|d|_1 < 1`` the raw step is
    returned with ``hit=True`` and the caller must assign the next state to
    ``x_star`` exactly (bitwise); otherwise the step is rescaled to 1-norm
    ``mu``.  Either way the emitted input has 1-norm strictly below 1, which
    keeps its associated monic polynomial Schur.  ``delta`` is the square
    float matrix of order at least 1 that ``delta_matrix`` returns, as
    ``_lu_solve`` requires, and ``mu`` lies in (0, 1), as
    ``SteeringConfig`` checks.
    """
    d = _lu_solve(delta, x_star - x)
    norm = vec_1norm(d)
    if norm < 1.0:
        return ControlStep(d, True)
    return ControlStep(mu * d / norm, False)
