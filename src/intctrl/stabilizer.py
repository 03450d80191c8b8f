"""End-to-end synthesis of stabilizing controllers with integer-coefficient
denominators.

The pipeline: normalize the plant; pick a Schur target polynomial of twice
the plant order; reduce to a coefficient-vector steering problem; drive the
vector to a nearby integer point with stability-preserving bounded steps;
extract the controller and certify it.  The controller denominator comes
out with exactly integer coefficients because its non-trivial coefficients
are assigned from the integer target, never recomputed through arithmetic.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .bezout import (COPRIME_TOL, NotCoprimeError, coprime_check,
                     solve_diophantine)
from .numeric import (SCHUR_MARGIN, SchurFactors, _convolve, _expanded_roots,
                      vec_1norm)
from .poly import (Polynomial, monic_from_vector, split_z_power,
                   toeplitz_stack, trim, vector_from_monic)
from .target import (active_index_set, build_hyperplanes, control_input,
                     delta_matrix, find_integer_target)
from .verify import Certificate, certify_stabilization


class SynthesisError(RuntimeError):
    """Numerical breakdown or exhausted iteration budget during synthesis."""


@dataclass(frozen=True, kw_only=True)
class SteeringConfig:
    """The step bound of the steering loop shared by both algorithms: the
    1-norm of every step that does not reach the integer target."""

    mu: float = 0.99

    def __post_init__(self):
        if not 0.0 < self.mu < 1.0:
            raise ValueError("mu must lie in (0, 1)")


@dataclass(frozen=True)
class StabilizationConfig(SteeringConfig):
    #: roots for the initial Schur target polynomial (degree must come out
    #: at twice the plant order); None selects the all-at-origin default
    gamma_ini_roots: tuple[complex, ...] | None = None


class TraceStep(NamedTuple):
    k: int
    x: np.ndarray
    u: np.ndarray
    hit: bool
    gamma_degree: int
    distance: float


@dataclass(frozen=True)
class PreprocessedPlant:
    den: Polynomial          # monic
    num: Polynomial          # num(0) != 0
    power_shift: int         # number of z factors removed from the numerator
    scale: float             # original leading denominator coefficient
    quality: float           # coprimality quality of the original pair


@dataclass(frozen=True)
class StabilizationResult:
    alpha: Polynomial
    beta: Polynomial
    gamma: Polynomial
    #: trailing power of z carried by alpha (iteration growth plus the
    #: numerator's z factors)
    power_shift: int
    x_star: np.ndarray
    iterations: int
    trace: tuple[TraceStep, ...]
    certificate: Certificate
    warnings: tuple[str, ...]

    @property
    def controller_den(self) -> Polynomial:
        return self.alpha

    @property
    def controller_num(self) -> Polynomial:
        return -self.beta


def preprocess_plant(den: Polynomial, num: Polynomial) -> PreprocessedPlant:
    """Monicize the denominator and strip the numerator's z^l factor.

    Both polynomials are divided by the denominator's leading coefficient;
    trailing near-zero numerator coefficients (relative to its scale) count
    as exact zeros when factoring out powers of z.  Raises on an improper
    plant or a pair that is not coprime to tolerance.
    """
    if den.is_zero or num.is_zero:
        raise ValueError("plant polynomials must be nonzero")
    if num.coeffs.size > den.coeffs.size:
        raise ValueError("improper plant: deg(num) > deg(den)")
    ok, quality = coprime_check(den, num)
    if not ok:
        raise NotCoprimeError(
            f"plant denominator and numerator are not coprime "
            f"(quality {quality:.3e} <= {COPRIME_TOL:.1e})")
    scale = den.leading
    with np.errstate(over="ignore"):  # Polynomial rejects a quotient that overflows
        num_scaled, den_scaled = num.coeffs / scale, den.coeffs / scale
    reduced, shift = split_z_power(trim(Polynomial(num_scaled)))
    return PreprocessedPlant(Polynomial(den_scaled), reduced, shift,
                             float(scale), quality)


def schur_factor(roots: Sequence[complex], num: Polynomial) -> Polynomial:
    """Monic polynomial with the given roots, which must lie strictly inside
    the unit circle and share none with the numerator: at each root ``r``,
    ``|num(r)|`` must exceed ``COPRIME_TOL * sum_i |c_i| |r|^i``, ``c`` the
    numerator's coefficients scaled to unit maximum as ``coprime_check``
    scales them (neither side then over- or underflows)."""
    # a NaN fails no comparison and max skips it unless it comes first
    bad = [r for r in roots if not cmath.isfinite(r)]
    if bad:
        raise ValueError(f"initial factor roots must be finite, got {bad}")
    worst = max((abs(r) for r in roots), default=0.0)
    if roots and worst >= 1.0 - SCHUR_MARGIN:
        raise ValueError(f"initial factor roots must be strictly Schur "
                         f"(|root| max {worst})")
    # the cached expansion that the Schur proof of these roots reads too
    prod, _, closed = _expanded_roots(roots)
    if not closed:
        raise ValueError("roots are not closed under conjugation")
    # Horner's rule for num(r) and for the bound, on |r| and |c_i|
    coeffs = (num.coeffs / num.max_abs()).tolist()[::-1]
    for r in roots:
        value, bound, radius = 0j, 0.0, abs(r)
        for c in coeffs:
            value, bound = value * r + c, bound * radius + abs(c)
        if abs(value) <= COPRIME_TOL * bound:
            raise NotCoprimeError(
                f"initial factor root {r:.6g} is a root of the numerator "
                f"(|num(r)| {abs(value):.3e} <= {COPRIME_TOL:.1e} * {bound:.3e})")
    return Polynomial(prod)


def make_gamma_ini(n: int, num: Polynomial,
                   roots: Sequence[complex] | None = None
                   ) -> tuple[Polynomial, int | tuple[complex, ...]]:
    """Initial Schur monic target of degree 2n, coprime to the numerator,
    and its ``SchurFactors.base``: the roots it expanded, or ``2n``.

    The default is ``z**(2n)``: Schur with radius zero, monic, and coprime
    to the reduced numerator since the latter does not vanish at the origin.
    Explicit roots must number 2n, be strictly inside the unit circle and be
    closed under conjugation.
    """
    if roots is None:
        return Polynomial.monomial(2 * n), 2 * n
    roots = tuple(complex(r) for r in roots)
    if len(roots) != 2 * n:
        raise ValueError(f"need exactly {2 * n} roots, got {len(roots)}")
    return schur_factor(roots, num), roots


def _initial_state(r0: Polynomial, n: int) -> np.ndarray:
    """The steering state of the initial solve's quotient ``r0``, which is
    monic of degree ``n`` unless the solve broke down numerically."""
    try:
        return vector_from_monic(trim(r0), n)
    except ValueError as exc:
        raise SynthesisError(
            f"the initial Diophantine solve broke down: {exc}") from None


def steer(p: Polynomial, factor: Polynomial, shift: int, num: Polynomial,
          x0: np.ndarray, s0: Polynomial, cfg: SteeringConfig
          ) -> tuple[Polynomial, int, np.ndarray, Polynomial,
                     list[TraceStep], list[str], np.ndarray]:
    """Steering loop shared by both synthesis directions.

    The state ``x`` is the quotient ``r = monic(x)`` of the reduction
    ``z^shift * p * r + s * num = factor * c``, ``c`` a fixed cofactor the
    loop never reads, with ``deg(s) < shift + deg(p)``, starting at ``x0``
    and ``s0``; ``deg(p) <= n = len(x0)``.
    Each step multiplies its monic Schur factor into ``factor`` and adds
    ``n`` to ``shift`` until ``x`` reaches an integer target.  Returns
    ``(factor, shift, x_star, s, trace, warnings, steps)``, ``steps`` the
    monic factors as ``SchurFactors.steps`` holds them.

    The cofactor is carried, never solved for.  A step with ``f =
    monic(u) = z^n + u(z)`` multiplies the identity by ``f``.  Split ``f*r
    = z^n h + t`` with ``deg(t) < n``, so ``t = (u(z)*r) mod z^n``, and let
    ``a = t * num^-1 mod z^n`` (``num(0) != 0``).  Then ``z^n`` divides ``t
    - num*a``, and the monic ``r' = h + (t - num*a)/z^n`` satisfies

        z^(shift+n) p r' + (f s + z^shift p a) num = (f factor) c,

    so ``s' = f*s + z^shift*p*a`` and ``deg(s') < shift + n + deg(p)``.
    With ``Tm`` the stacked convolution matrix of ``r``, ``Tm[n:] @ u`` is
    ``t`` and ``T[n:] @ a``, ``T`` the numerator's, is ``num*a mod z^n``
    (descending), so ``a = lower @ u`` for the triangular solve ``lower =
    T[n:]^-1 Tm[n:]`` that ``delta_matrix`` makes, and ``r'`` is ``monic(x
    + delta @ u)``, the state update.  The loop keeps each ``a_k`` (one n-by-n product per
    step), so a run that hits the iteration cap pays only those.  The
    product and ``s`` are accumulated after the loop: per step the
    convolutions ``f*factor``, ``f*s`` and ``p*a`` and one slice-add; an
    overflow of either is a ``SynthesisError``.  Padded with zeros to
    ``shift + n`` coefficients, ``s`` grows by ``n`` per step as ``shift``
    does, so the ``n + deg(p)`` coefficients of ``z^shift*p*a`` always land
    inside it, also from the zero cofactor of ``shift + deg(p) = 0``.  On a
    hit the state is set to the integer target exactly, off the carried
    quotient by the rounding of the step's linear solve.
    """
    n = x0.size
    warnings: list[str] = []
    planes = build_hyperplanes(num, n)
    active = active_index_set(x0, planes)
    if len(active.index) < planes.offsets.size:
        skipped = sorted(set(range(planes.offsets.size)) - set(active.index))
        warnings.append(
            f"hyperplane functional(s) {skipped} vanish at the initial vector "
            "and are excluded from the same-side constraints")
    found = find_integer_target(x0, num, active)
    x_star = found.x_star
    cap = 10 * int(np.ceil(vec_1norm(x_star - x0))) + 10
    T = toeplitz_stack(num, n)
    # the loop keeps the kernels and the state update; the trace, the step
    # rows and the products are built from what it keeps after it
    states: list[np.ndarray] = []
    inputs: list[np.ndarray] = []
    hits: list[bool] = []
    increments: list[np.ndarray] = []
    # float lists compare as the arrays do, NaN and signed zeros alike
    x, goal = x0, x_star.tolist()
    while x.tolist() != goal:
        if len(states) >= cap:
            raise SynthesisError(
                f"iteration cap {cap} = 10*ceil(|x* - x0|_1) + 10 exceeded "
                f"at distance {vec_1norm(x_star - x):.3e} (target strategy "
                f"'{found.strategy}')")
        delta, lower = delta_matrix(x, T)
        u, hit = control_input(x, x_star, delta, cfg.mu)
        increments.append(lower.dot(u))
        # on hit the next state is assigned exactly so the loop exit test is
        # exact equality, matching the first branch of the input law
        x = x_star.copy() if hit else x + delta.dot(u)
        states.append(x)
        inputs.append(u)
        hits.append(hit)

    count = len(states)
    # one row reduction sums each row as vec_1norm sums it
    distances = np.add.reduce(np.abs(x_star - np.array(states).reshape(-1, n)),
                              axis=1).tolist()
    degree = factor.coeffs.size - 1
    trace = list(map(TraceStep, range(count), states, inputs, hits,
                     range(degree + n, degree + n * (count + 1), n), distances))
    steps = np.ones((count, n + 1))
    steps[:, :n] = np.array(inputs).reshape(-1, n)[:, ::-1]
    # _convolve(monic(u), product) is np.convolve's, the call
    # Polynomial.__mul__ makes
    prod = factor.coeffs
    s = np.zeros(shift + n)
    s[:s0.coeffs.size] = s0.coeffs
    width = n + p.coeffs.size - 1
    for monic_u, a in zip(steps, increments):
        prod = _convolve(monic_u, prod)
        s = _convolve(monic_u, s)
        s[shift : shift + width] += _convolve(p.coeffs, a[::-1])
        shift += n
    try:  # Polynomial rejects non-finite coefficients
        return Polynomial(prod), shift, x_star, Polynomial(s), trace, warnings, steps
    except ValueError:
        raise SynthesisError(f"the product of {count} Schur factors or "
                             "its cofactor overflowed") from None


def run_algorithm1(den: Polynomial, num: Polynomial,
                   cfg: StabilizationConfig | None = None) -> StabilizationResult:
    """Produce ``(alpha, beta, gamma)`` with ``alpha*den + beta*num = gamma``,
    alpha integer monic, gamma Schur monic and ``deg(beta) < deg(alpha)``.

    The returned controller is ``den = alpha``, ``num = -beta``; the closed
    loop's characteristic polynomial then equals ``gamma`` (scaled by the
    original leading denominator coefficient) and is Schur by construction.
    """
    cfg = cfg or StabilizationConfig()
    plant = preprocess_plant(den, num)
    n = plant.den.coeffs.size - 1
    if n == 0:
        raise ValueError("plant denominator must have degree >= 1")

    gamma_ini, base = make_gamma_ini(n, plant.num, cfg.gamma_ini_roots)
    alpha_ini, beta_ini = solve_diophantine(plant.den, gamma_ini, plant.num)
    x0 = _initial_state(alpha_ini, n)
    gamma, big_n, x_star, beta, trace, warnings, steps = steer(
        plant.den, gamma_ini, 0, plant.num, x0, beta_ini, cfg)

    # lift the numerator's z^l factor back in: (z^l a, b, z^l g) solves the
    # original problem whenever (a, b, g) solves the reduced one
    alpha = monic_from_vector(x_star).shifted(big_n + plant.power_shift)
    gamma = gamma.shifted(plant.power_shift)

    # gamma is proved Schur from the factors steer multiplied, and the
    # plant's coprimality quality is the one preprocess_plant measured
    cert = certify_stabilization(
        plant.den, Polynomial(num.coeffs / plant.scale), alpha, beta, gamma,
        factors=SchurFactors(base, steps, plant.power_shift),
        quality=plant.quality)
    cert.warnings.extend(warnings)
    return StabilizationResult(alpha, beta, gamma,
                               big_n + plant.power_shift, x_star,
                               len(trace), tuple(trace), cert,
                               tuple(cert.warnings))

