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

import math
from dataclasses import dataclass
from typing import Literal, NamedTuple, Sequence

import numpy as np

from .numeric import classify_roots, dtrtrs, poly_roots, solve_linear, vec_1norm
from .poly import Polynomial, _check_finite, _stack_index, toeplitz_stack

ACTIVE_TOL = 1e-9
SIDE_TOL = 1e-9


class TargetSearchError(RuntimeError):
    """Integer-target search exhausted its budget.

    An integer target always exists for coprime inputs, so exhaustion
    signals a tolerance or radius misconfiguration; the fallback candidate
    and its margins are attached for diagnosis.
    """

    def __init__(self, message: str, candidate=None, margins=None):
        self.candidate = candidate
        self.margins = margins
        super().__init__(message)


class InconsistentActiveSetError(ValueError):
    """A real-root plane evaluated to zero at the base point, which
    contradicts the coprimality precondition."""


@dataclass(frozen=True)
class Hyperplane:
    """Affine set ``{x : normal . x = offset}`` induced by a numerator root.

    ``kind`` records which functional the plane represents: the value of the
    vector's polynomial at a real root, or the real/imaginary part of its
    value at a complex root.
    """

    normal: np.ndarray
    offset: float
    kind: Literal["real-root", "complex-real-part", "complex-imag-part"]
    source_root: complex

    def side(self, x: np.ndarray) -> float:
        """Signed functional ``normal . x - offset``."""
        return float(self.normal @ x - self.offset)

    def distance(self, x: np.ndarray) -> float:
        """Infinity-norm distance from ``x`` to the plane (dual 1-norm)."""
        return abs(self.side(x)) / vec_1norm(self.normal)


@dataclass(frozen=True)
class HyperplaneSet:
    """Ordered planes: one per real root, then two per conjugate pair."""

    planes: tuple[Hyperplane, ...]
    dim: int
    n_real: int
    n_complex_pairs: int

    def __len__(self) -> int:
        return len(self.planes)

    def __iter__(self):
        return iter(self.planes)

    def __getitem__(self, t: int) -> Hyperplane:
        return self.planes[t]


def build_hyperplanes(num: Polynomial, n: int,
                      tol_imag: float = 1e-8) -> HyperplaneSet:
    """Planes in R^n from the roots of ``num`` (one per real root, two per
    conjugate pair).

    Requires ``num(0) != 0`` and ``deg(num) <= n``.  For a real root ``lam``
    the plane row is the descending power row ``[lam^n, ..., lam, 1]`` split
    as ``[-offset, normal]``; for a complex root the analogous rows are its
    real and imaginary parts, so that ``side(x)`` equals the real
    (resp. imaginary) part of the vector's polynomial evaluated at the root.
    """
    if num.is_zero:
        raise ValueError("numerator must be nonzero")
    if num(0.0) == 0.0:
        raise ValueError("numerator must not vanish at z = 0 (factor z^l first)")
    deg = num.coeffs.size - 1
    if deg > n:
        raise ValueError(f"deg(num) = {deg} exceeds ambient dimension {n}")
    if deg == 0:
        return HyperplaneSet((), n, 0, 0)
    rs = classify_roots(poly_roots(num), num.leading, tol_imag=tol_imag)
    planes: list[Hyperplane] = []
    for lam in rs.real_roots:
        row = np.array([lam ** k for k in range(n, -1, -1)])
        planes.append(Hyperplane(row[1:], -row[0], "real-root", complex(lam)))
    for eta in rs.complex_pairs:
        row = np.array([eta ** k for k in range(n, -1, -1)])
        planes.append(Hyperplane(row[1:].real.copy(), -row[0].real,
                                 "complex-real-part", eta))
        planes.append(Hyperplane(row[1:].imag.copy(), -row[0].imag,
                                 "complex-imag-part", eta))
    return HyperplaneSet(tuple(planes), n, rs.n_real, rs.n_complex_pairs)


def active_index_set(x0: np.ndarray, hset: HyperplaneSet,
                     tol_active: float = ACTIVE_TOL) -> tuple[int, ...]:
    """Indices of planes whose functional is nonzero at ``x0``.

    A plane is active when ``|side(x0)| > tol_active * (1 + |normal|_1 |x0|_inf)``.
    Only the imaginary/real parts of a complex pair may legitimately vanish;
    a vanishing real-root plane contradicts the coprimality of the base
    point's polynomial and raises :class:`InconsistentActiveSetError`.
    """
    x0 = np.asarray(x0, dtype=float)
    sup = float(np.max(np.abs(x0), initial=0.0))
    active = []
    for t, plane in enumerate(hset):
        thresh = tol_active * (1.0 + vec_1norm(plane.normal) * max(1.0, sup))
        if abs(plane.side(x0)) > thresh:
            active.append(t)
        elif plane.kind == "real-root":
            raise InconsistentActiveSetError(
                f"real-root plane {t} (root {plane.source_root.real:g}) passes "
                "through the base point: its polynomial shares a root with the "
                "numerator")
    return tuple(active)


@dataclass(frozen=True)
class DeltaFactors:
    """Reusable pieces of the coefficient-update matrix.

    ``top``/``bottom`` are the upper and lower halves of the stacked
    convolution matrix of the numerator; ``bottom`` is upper triangular with
    the numerator's constant term down the diagonal, hence invertible.
    ``index`` gathers the stacked convolution matrix of a monic polynomial
    of degree ``dim`` from its padded coefficients.
    """

    top: np.ndarray
    bottom: np.ndarray
    dim: int
    index: np.ndarray

    @staticmethod
    def from_numerator(num: Polynomial, n: int) -> "DeltaFactors":
        if num.is_zero or num(0.0) == 0.0:
            raise ValueError("numerator must be nonzero with num(0) != 0")
        T = toeplitz_stack(num, n)
        return DeltaFactors(T[:n], T[n:], n, _stack_index(n))


def delta_matrix(x: np.ndarray, factors: DeltaFactors) -> np.ndarray:
    """Update matrix: unit-lower-triangular part minus the numerator coupling.

    Assembled with two triangular solves against the upper-triangular bottom
    block; no explicit inverse is formed.  Singular exactly when the
    polynomial of ``x`` shares a root with the numerator.
    """
    n = factors.dim
    x = np.asarray(x, dtype=float)
    _check_finite(x)
    if x.size > n:
        raise ValueError(f"degree {x.size} exceeds stack dimension {n}")
    # the stacked convolution matrix of monic(x), as toeplitz_stack builds it
    padded = np.zeros(3 * n + 1)
    padded[n : n + x.size] = x[::-1]
    padded[n + x.size] = 1.0
    Tm = padded[factors.index]
    # trtrs on the transpose, the call solve_triangular makes for a C-ordered
    # matrix, without its per-call checks
    lower, info = dtrtrs(factors.bottom.T, Tm[n:], lower=1, trans=1)
    if info:
        raise np.linalg.LinAlgError(f"triangular solve failed (LAPACK trtrs info {info})")
    return Tm[:n] - factors.top @ lower


class TargetMode:
    ROUND = "round"
    SEARCH = "search"
    FALLBACK = "fallback"
    AUTO = "auto"


@dataclass(frozen=True)
class TargetSearchConfig:
    mode: str = TargetMode.AUTO
    max_radius: int = 8
    tol_active: float = ACTIVE_TOL
    tol_side: float = SIDE_TOL
    #: hard bound on examined integer candidates before giving up a phase
    max_candidates: int = 200_000
    #: try the all-zero target first (all controller poles at the origin)
    prefer_origin: bool = False

    def __post_init__(self):
        modes = (TargetMode.ROUND, TargetMode.SEARCH, TargetMode.FALLBACK,
                 TargetMode.AUTO)
        if self.mode not in modes:
            raise ValueError(f"target mode must be one of {', '.join(modes)}, "
                             f"not {self.mode!r}")
        if self.max_radius < 0:
            raise ValueError("max_radius must be >= 0")
        if self.max_candidates < 1:
            raise ValueError("max_candidates must be >= 1")
        for name in ("tol_active", "tol_side"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be nonnegative and finite, "
                                 f"not {getattr(self, name)!r}")


class IntegerTarget(NamedTuple):
    x_star: np.ndarray
    strategy: str
    candidates_examined: int


#: flat cube indices unravelled per block of the shell walk: one matrix
#: product amortizes the per-call overhead over the block, and in dimension 8
#: a block of offsets stays at 256 KiB however large the shell is.  The
#: search time is flat from about 1024 to 16384 and grows on either side.
SHELL_BLOCK = 4096


class _ActivePlanes:
    """The active planes stacked for testing blocks of candidates at once,
    with their signs at ``x0``."""

    def __init__(self, x0: np.ndarray, hset: HyperplaneSet,
                 active: Sequence[int], cfg: TargetSearchConfig):
        self.normals = np.array([hset[t].normal for t in active])
        self.offsets = np.array([hset[t].offset for t in active])
        self.norms = np.array([vec_1norm(hset[t].normal) for t in active])
        self.sides0 = np.array([hset[t].side(x0) for t in active])
        self.tol_side = cfg.tol_side

    def first_feasible(self, cands: np.ndarray) -> int | None:
        """Index of the first row of ``cands`` strictly on the side of
        ``x0`` of every plane, by a margin.  The plane functionals are
        affine, so the whole segment from ``x0`` to that row stays on the
        same sides too."""
        sides = cands @ self.normals.T - self.offsets
        sup = np.maximum(1.0, _reduce_rows(np.maximum, np.abs(cands)))
        margin = self.tol_side * (1.0 + sup[:, None] * self.norms)
        bad = (self.sides0 * sides <= 0.0) | (np.abs(sides) <= margin)
        good = np.flatnonzero(~_reduce_rows(np.logical_or, bad))
        return int(good[0]) if good.size else None

    def feasible(self, cand: np.ndarray) -> bool:
        return self.first_feasible(cand[None, :]) is not None


def _reduce_rows(ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(a, axis=1)`` for an exact, order-free ufunc (maximum,
    logical or), one column at a time: numpy reduces a short inner axis
    element by element, several times slower than whole-column calls.  A
    single row, such as one candidate, is one call of the reduction itself."""
    if len(a) == 1:
        return ufunc.reduce(a, axis=1)
    out = a[:, 0].copy()
    for col in a.T[1:]:
        ufunc(out, col, out=out)
    return out


def _shell_blocks(radius: int, dim: int):
    """Integer offsets of Chebyshev norm ``radius`` in ``itertools.product``
    order, as int arrays of shape (k, dim) cut from flat index ranges of
    at most ``SHELL_BLOCK`` cube points; the cube is never built whole."""
    width = 2 * radius + 1
    total = width ** dim
    for start in range(0, total, SHELL_BLOCK):
        # unravelled digit by digit: np.unravel_index rejects cubes of more
        # than 2**63 points, which dimension 40 reaches at radius 1
        rest = np.arange(start, min(start + SHELL_BLOCK, total))
        off = np.empty((rest.size, dim), dtype=np.int64)
        for k in range(dim - 1, -1, -1):
            rest, off[:, k] = np.divmod(rest, width)
        off -= radius
        yield off[_reduce_rows(np.maximum, np.abs(off)) == radius]


def _walk_shells(center: np.ndarray, planes: _ActivePlanes,
                 cfg: TargetSearchConfig) -> tuple[np.ndarray | None, int]:
    """First feasible point on the shells of radius 1 to ``cfg.max_radius``
    around ``center``, and the number of points examined up to and including
    it.  The caller has already examined ``center``, so at most
    ``cfg.max_candidates - 1`` points are examined here."""
    budget = cfg.max_candidates - 1
    examined = 0
    for radius in range(1, cfg.max_radius + 1):
        for off in _shell_blocks(radius, center.size):
            cands = center + off[:budget - examined]
            hit = planes.first_feasible(cands)
            if hit is not None:
                return cands[hit].copy(), examined + hit + 1
            examined += len(cands)
            if examined == budget:
                return None, examined
    return None, examined


def _fallback_center(x0: np.ndarray, num: Polynomial, hset: HyperplaneSet,
                     active: Sequence[int]) -> np.ndarray:
    """Recentre using the constructive existence argument.

    The monic polynomial ``z^(n-m) * num / leading`` lies on every plane, so
    scaling the plane-free ball around ``x0`` out to unit radius around the
    recentred point keeps it entirely on the correct sides.
    """
    n = hset.dim
    m = num.coeffs.size - 1
    pv = Polynomial(num.coeffs / num.leading).shifted(n - m)
    v = pv.coeffs[-2::-1].copy()
    dist = min(hset[t].distance(x0) for t in active)
    return (x0 - v) / dist + v


def find_integer_target(x0: np.ndarray, hset: HyperplaneSet,
                        active: Sequence[int], num: Polynomial,
                        cfg: TargetSearchConfig | None = None) -> IntegerTarget:
    """Integer vector strictly on the same side as ``x0`` of every active plane.

    Search order: ``round(x0)``; expanding Chebyshev-radius integer shells
    around it (first feasible candidate in shell-lexicographic order wins,
    for determinism); the constructive fallback recentre followed by shells
    around it.  ``cfg.mode`` restricts the phases: ``round`` tries only the
    rounding, ``search`` skips the fallback, ``fallback`` skips the shells
    around ``round(x0)``.
    """
    cfg = cfg or TargetSearchConfig()
    x0 = np.asarray(x0, dtype=float)
    active = tuple(active)

    if not active:
        return IntegerTarget(np.round(x0), "round", 1)

    planes = _ActivePlanes(x0, hset, active, cfg)
    examined = 0
    if cfg.prefer_origin:
        examined += 1
        origin = np.zeros_like(x0)
        if planes.feasible(origin):
            return IntegerTarget(origin, "origin", examined)

    rounded = np.round(x0)
    if cfg.mode in (TargetMode.ROUND, TargetMode.AUTO, TargetMode.SEARCH):
        examined += 1
        if planes.feasible(rounded):
            return IntegerTarget(rounded, "round", examined)
        if cfg.mode == TargetMode.ROUND:
            raise TargetSearchError(
                "round(x0) is not on the same side of every active plane",
                candidate=rounded,
                margins=[hset[t].distance(rounded) for t in active])

    if cfg.mode in (TargetMode.SEARCH, TargetMode.AUTO):
        cand, count = _walk_shells(rounded, planes, cfg)
        examined += count
        if cand is not None:
            return IntegerTarget(cand, "shell", examined)
        if cfg.mode == TargetMode.SEARCH:
            raise TargetSearchError(
                f"no integer target within Chebyshev radius {cfg.max_radius} "
                "of round(x0)", candidate=rounded)

    center = np.round(_fallback_center(x0, num, hset, active))
    examined += 1
    if planes.feasible(center):
        return IntegerTarget(center, "fallback", examined)
    cand, count = _walk_shells(center, planes, cfg)
    examined += count
    if cand is not None:
        return IntegerTarget(cand, "fallback", examined)
    raise TargetSearchError(
        "integer-target search exhausted (existence is guaranteed for "
        "coprime inputs; check tolerances and max_radius)",
        candidate=center,
        margins=[hset[t].distance(center) for t in active])


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
    keeps its associated monic polynomial Schur.
    """
    if not 0.0 < mu < 1.0:
        raise ValueError("mu must lie in (0, 1)")
    d = solve_linear(delta, np.asarray(x_star, dtype=float) - np.asarray(x, dtype=float))
    norm = vec_1norm(d)
    if norm < 1.0:
        return ControlStep(d, True)
    return ControlStep(mu * d / norm, False)
