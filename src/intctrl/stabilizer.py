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

import math
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from .bezout import NotCoprimeError, coprime_check, solve_diophantine
from .numeric import vec_1norm
from .poly import (Polynomial, monic_from_vector, split_z_power, trim,
                   vector_from_monic)
from .target import (DeltaFactors, TargetSearchConfig, active_index_set,
                     build_hyperplanes, control_input, delta_matrix,
                     find_integer_target)
from .verify import Certificate, certify_stabilization

COPRIME_QUALITY_MIN = 1e-8


class SynthesisError(RuntimeError):
    """Numerical breakdown or exhausted iteration budget during synthesis."""


@dataclass(frozen=True)
class Tolerances:
    """Bundle of the pipeline's numeric tolerances (all overridable)."""

    residual: float = 1e-10
    identity_rtol: float = 1e-8
    monic: float = 1e-9
    trim: float = 1e-9
    coprime: float = COPRIME_QUALITY_MIN
    integer: float = 1e-6
    schur_margin: float = 1e-9

    def __post_init__(self):
        for f in fields(self):
            if not 0.0 <= getattr(self, f.name) < math.inf:
                raise ValueError(f"tolerance {f.name} must be nonnegative and "
                                 f"finite, not {getattr(self, f.name)!r}")


@dataclass(frozen=True, kw_only=True)
class SteeringConfig:
    """Settings of the steering loop shared by both algorithms."""

    mu: float = 0.99
    target: TargetSearchConfig = field(default_factory=TargetSearchConfig)
    #: None derives the engineering cap 10*ceil(|x*-x0|_1) + 10
    max_iterations: int | None = None
    tolerances: Tolerances = field(default_factory=Tolerances)
    #: re-derive the coefficient vector from the polynomial identity after
    #: every iteration and compare (slow; for debugging and test suites)
    verify_invariant: bool = False

    def __post_init__(self):
        if not 0.0 < self.mu < 1.0:
            raise ValueError("mu must lie in (0, 1)")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class StabilizationConfig(SteeringConfig):
    #: roots for the initial Schur target polynomial (degree must come out
    #: at twice the plant order); None selects the all-at-origin default
    gamma_ini_roots: tuple[complex, ...] | None = None


@dataclass(frozen=True)
class TraceStep:
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
    plant: PreprocessedPlant

    @property
    def controller_den(self) -> Polynomial:
        return self.alpha

    @property
    def controller_num(self) -> Polynomial:
        return -self.beta


def preprocess_plant(den: Polynomial, num: Polynomial,
                     tol: Tolerances = Tolerances()) -> PreprocessedPlant:
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
    ok, quality = coprime_check(den, num, tol.coprime)
    if not ok:
        raise NotCoprimeError(
            f"plant denominator and numerator are not coprime "
            f"(quality {quality:.3e} <= {tol.coprime:.1e})")
    scale = den.leading
    reduced, shift = split_z_power(
        trim(Polynomial(num.coeffs / scale), tol.trim), tol.trim)
    return PreprocessedPlant(Polynomial(den.coeffs / scale), reduced, shift,
                             float(scale), quality)


def schur_factor(roots: Sequence[complex], num: Polynomial,
                 tol: Tolerances) -> Polynomial:
    """Monic polynomial with the given roots, which must lie strictly inside
    the unit circle and share none with the numerator."""
    worst = max((abs(r) for r in roots), default=0.0)
    if roots and worst >= 1.0 - tol.schur_margin:
        raise ValueError(f"initial factor roots must be strictly Schur "
                         f"(|root| max {worst})")
    factor = Polynomial.from_roots(roots)
    ok, quality = coprime_check(factor, num, tol.coprime)
    if not ok:
        raise NotCoprimeError(f"initial factor shares a root with the "
                              f"numerator (quality {quality:.3e})")
    return factor


def make_gamma_ini(n: int, num: Polynomial,
                   roots: Sequence[complex] | None = None,
                   tol: Tolerances = Tolerances()) -> Polynomial:
    """Initial Schur monic target of degree 2n, coprime to the numerator.

    The default is ``z**(2n)``: Schur with radius zero, monic, and coprime
    to the reduced numerator since the latter does not vanish at the origin.
    Explicit roots must number 2n, be strictly inside the unit circle and be
    closed under conjugation.
    """
    if roots is None:
        return Polynomial.monomial(2 * n)
    roots = tuple(complex(r) for r in roots)
    if len(roots) != 2 * n:
        raise ValueError(f"need exactly {2 * n} roots, got {len(roots)}")
    return schur_factor(roots, num, tol)


def steer(p: Polynomial, q: Polynomial, factor: Polynomial, shift: int,
          num: Polynomial, x0: np.ndarray, cfg: SteeringConfig
          ) -> tuple[Polynomial, int, np.ndarray, Polynomial,
                     list[TraceStep], list[str]]:
    """Steering loop shared by both synthesis directions.

    The state ``x`` is the quotient ``r = monic(x)`` of the reduction
    ``z^shift * p * r + s * num = factor * q`` with ``deg(s) < shift +
    deg(p)``, starting at ``x0``.  Each step multiplies its monic Schur
    factor into ``factor`` and adds ``n = len(x0)`` to ``shift`` until ``x``
    reaches an integer target; the closing solve of the final reduction
    then yields the cofactor ``s``.  Returns ``(factor, shift, x_star, s,
    trace, warnings)``.
    """
    tol = cfg.tolerances
    n = x0.size
    warnings: list[str] = []
    hset = build_hyperplanes(num, n)
    active = active_index_set(x0, hset, cfg.target.tol_active)
    if len(active) < len(hset):
        skipped = sorted(set(range(len(hset))) - set(active))
        warnings.append(
            f"hyperplane functional(s) {skipped} vanish at the initial vector "
            "and are excluded from the same-side constraints")
    found = find_integer_target(x0, hset, active, num, cfg.target)
    x_star = found.x_star
    cap = (cfg.max_iterations if cfg.max_iterations is not None
           else 10 * int(np.ceil(vec_1norm(x_star - x0))) + 10)
    factors = DeltaFactors.from_numerator(num, n)
    trace: list[TraceStep] = []
    x = x0.copy()
    while not np.array_equal(x, x_star):
        k = len(trace)
        if k >= cap:
            raise SynthesisError(
                f"iteration cap {cap} exceeded at distance "
                f"{vec_1norm(x_star - x):.3e} (target strategy "
                f"'{found.strategy}'); raise max_iterations or inspect the "
                "plant conditioning")
        delta = delta_matrix(x, factors)
        step = control_input(x, x_star, delta, cfg.mu)
        factor = monic_from_vector(step.u) * factor
        shift += n
        # on hit the next state is assigned exactly so the loop exit test is
        # exact equality, matching the first branch of the input law
        x = x_star.copy() if step.hit else x + delta @ step.u
        trace.append(TraceStep(k, x.copy(), step.u.copy(), step.hit,
                               factor.coeffs.size - 1, vec_1norm(x_star - x)))
        if cfg.verify_invariant and not solve_diophantine(
                p.shifted(shift), factor * q, num,
                tol.residual).r.allclose(monic_from_vector(x), 1e-7):
            raise SynthesisError(
                "loop invariant violated: steering state disagrees with the "
                "polynomial-identity reduction")

    # dividing the identity by the numerator would amplify the loop's
    # floating drift by the reciprocal of its leading coefficient, so the
    # cofactor comes from the final reduction, whose quotient must reproduce
    # the integer target
    sol = solve_diophantine(p.shifted(shift), factor * q, num, tol.residual)
    target_poly = monic_from_vector(x_star)
    if not sol.r.allclose(target_poly, 1e-6):
        raise SynthesisError(
            "closing reduction disagrees with the integer target "
            f"(max deviation {(sol.r - target_poly).max_abs():.3e}); numerical "
            "breakdown in the final identity")
    return factor, shift, x_star, trim(sol.s, tol.trim), trace, warnings


def run_algorithm1(den: Polynomial, num: Polynomial,
                   cfg: StabilizationConfig | None = None) -> StabilizationResult:
    """Produce ``(alpha, beta, gamma)`` with ``alpha*den + beta*num = gamma``,
    alpha integer monic, gamma Schur monic and ``deg(beta) < deg(alpha)``.

    The returned controller is ``den = alpha``, ``num = -beta``; the closed
    loop's characteristic polynomial then equals ``gamma`` (scaled by the
    original leading denominator coefficient) and is Schur by construction.
    """
    cfg = cfg or StabilizationConfig()
    tol = cfg.tolerances
    plant = preprocess_plant(den, num, tol)
    n = plant.den.coeffs.size - 1
    if n == 0:
        raise ValueError("plant denominator must have degree >= 1")

    gamma_ini = make_gamma_ini(n, plant.num, cfg.gamma_ini_roots, tol)
    alpha_ini = solve_diophantine(plant.den, gamma_ini, plant.num,
                                  tol.residual).r
    x0 = vector_from_monic(trim(alpha_ini, tol.trim), n, tol.monic)
    gamma, big_n, x_star, beta, trace, warnings = steer(
        plant.den, Polynomial.one(), gamma_ini, 0, plant.num, x0, cfg)

    # lift the numerator's z^l factor back in: (z^l a, b, z^l g) solves the
    # original problem whenever (a, b, g) solves the reduced one
    alpha = monic_from_vector(x_star).shifted(big_n + plant.power_shift)
    gamma = gamma.shifted(plant.power_shift)

    cert = certify_stabilization(plant.den, Polynomial(num.coeffs / plant.scale),
                                 alpha, beta, gamma,
                                 residual_rtol=tol.identity_rtol,
                                 int_tol=tol.integer)
    cert.warnings.extend(warnings)
    if plant.quality < 1e-6:
        cert.warnings.append(
            f"plant coprimality quality {plant.quality:.3e} is marginal")
    return StabilizationResult(alpha, beta, gamma,
                               big_n + plant.power_shift, x_star,
                               len(trace), tuple(trace), cert,
                               tuple(cert.warnings), plant)


def stabilize_proper(den: Polynomial, num: Polynomial,
                     num_factor: Polynomial,
                     cfg: StabilizationConfig | None = None
                     ) -> tuple[Polynomial, Polynomial, StabilizationResult]:
    """Proper (not necessarily strictly proper) controller variant.

    Runs the synthesis against ``(den, num_factor * num)`` for a degree-1
    ``num_factor`` coprime to ``den``; the controller is then
    ``den = alpha`` with numerator ``-num_factor * beta``, whose degree may
    equal the denominator's.  Returns (controller_den, controller_num,
    full result of the underlying run).
    """
    if num_factor.is_zero or num_factor.coeffs.size != 2:
        raise ValueError("num_factor must have degree exactly 1")
    ok, quality = coprime_check(num_factor, den)
    if not ok:
        raise NotCoprimeError(
            f"num_factor shares a root with the plant denominator "
            f"(quality {quality:.3e})")
    result = run_algorithm1(den, num_factor * num, cfg)
    ctrl_num = -(num_factor * result.beta)
    if not ctrl_num.is_zero and ctrl_num.coeffs.size > result.alpha.coeffs.size:
        raise SynthesisError("properness violated: controller numerator degree "
                             "exceeds denominator degree")
    return result.alpha, ctrl_num, result
