"""Conversion of a pre-designed controller to integer coefficients.

The same steering machinery as the stabilizing synthesis, with the roles
swapped: the Schur factors accumulate into a cancelling polynomial while
the steering target becomes the integer denominator of the new controller.
The closed-loop transfer function from the reference to the plant output is
preserved exactly; transient responses change in general because of the
pole-zero cancellations introduced by the Schur factor, which the
certificate proves stable but does not compensate.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .bezout import NotCoprimeError, coprime_check, solve_diophantine
from .numeric import SchurFactors
from .poly import Polynomial, monic_from_vector, split_z_power
from .stabilizer import (SteeringConfig, TraceStep, _initial_state,
                         schur_factor, steer)
from .verify import Certificate, certify_conversion


@dataclass(frozen=True)
class PreController:
    """Two-input controller ``[num_y, num_r] / den`` driven by the plant
    output and the reference."""

    den: Polynomial
    num_y: Polynomial
    num_r: Polynomial

    def __post_init__(self):
        if self.den.is_zero or not self.den.is_monic():
            raise ValueError("controller denominator must be monic")
        for name in ("num_y", "num_r"):
            p = getattr(self, name)
            if not p.is_zero and p.coeffs.size > self.den.coeffs.size:
                raise ValueError(f"improper controller: deg({name}) > deg(den)")


@dataclass(frozen=True)
class ConvertedController:
    den: Polynomial
    num_y: Polynomial
    num_r: Polynomial
    alpha: Polynomial
    beta: Polynomial
    gamma: Polynomial
    certificate: Certificate
    #: the run that produced the solution, as in :class:`ConversionSolution`
    x_star: np.ndarray | None = None
    iterations: int = 0
    trace: tuple[TraceStep, ...] = ()
    #: the factors steering multiplied into alpha, as in
    #: :class:`ConversionSolution`; None leaves alpha's verdict to its roots
    factors: SchurFactors | None = None


@dataclass(frozen=True)
class ConversionConfig(SteeringConfig):
    #: roots of the initial Schur factor; None selects the smallest monomial
    #: satisfying the degree requirement
    alpha_ini_roots: tuple[complex, ...] | None = None


@dataclass(frozen=True)
class ConversionSolution:
    alpha: Polynomial
    beta: Polynomial
    gamma: Polynomial
    x_star: np.ndarray
    iterations: int
    trace: tuple[TraceStep, ...]
    warnings: tuple[str, ...]
    #: alpha as steering multiplied it: the initial factor's roots (or the
    #: default monomial's degree), the steps, and the numerator's z power
    factors: SchurFactors
    #: coprimality quality of the controller denominator and the plant
    #: numerator, measured when the numerator carries no z factor; None
    #: when it was measured against the reduced numerator only
    quality: float | None


def _make_alpha_ini(n: int, ctrl_den: Polynomial, num: Polynomial,
                    roots: Sequence[complex] | None
                    ) -> tuple[Polynomial, int | tuple[complex, ...]]:
    """The initial Schur factor and its ``SchurFactors.base``, as for gamma."""
    min_degree = n - (ctrl_den.coeffs.size - 1)
    if roots is None:
        degree = max(1, min_degree)
        return Polynomial.monomial(degree), degree
    roots = tuple(complex(r) for r in roots)
    if len(roots) < min_degree:
        raise ValueError(f"initial factor needs degree >= {min_degree}, "
                         f"got {len(roots)} roots")
    return schur_factor(roots, num), roots


def run_algorithm2(ctrl_den: Polynomial, num: Polynomial, n: int,
                   cfg: ConversionConfig | None = None) -> ConversionSolution:
    """Produce ``(alpha, beta, gamma)`` with ``alpha*ctrl_den + beta*num =
    gamma``, alpha Schur monic, gamma integer monic and
    ``deg(beta) < deg(gamma) - n``.

    ``num`` is the plant numerator and ``n`` the plant denominator's degree.
    A numerator vanishing at the origin is factored as ``z^l * reduced``;
    the solution against the reduced numerator is lifted back by
    ``(z^l alpha, beta, z^l gamma)``, which preserves every condition.
    """
    cfg = cfg or ConversionConfig()
    if ctrl_den.is_zero or not ctrl_den.is_monic():
        raise ValueError("controller denominator must be monic")
    if num.is_zero:
        raise ValueError("plant numerator must be nonzero")
    if num.coeffs.size - 1 > n:
        raise ValueError("improper plant: deg(num) > deg(den)")
    if n == 0:
        raise ValueError("plant denominator must have degree >= 1")

    # strip z^l so the steering geometry sees num(0) != 0
    reduced, shift = split_z_power(num)
    ok, quality = coprime_check(ctrl_den, reduced)
    if not ok:
        raise NotCoprimeError(
            f"controller denominator and plant numerator are not coprime "
            f"(quality {quality:.3e})")

    alpha_ini, base = _make_alpha_ini(n, ctrl_den, reduced, cfg.alpha_ini_roots)
    big_n = (alpha_ini.coeffs.size - 1) + (ctrl_den.coeffs.size - 1) - n
    r0, s0 = solve_diophantine(Polynomial.monomial(big_n),
                               alpha_ini * ctrl_den, reduced)
    x0 = _initial_state(r0, n)
    # the roles swap against the stabilizing synthesis: the Schur factors
    # pile into alpha, and z^N r + s num = alpha ctrl_den with r the integer
    # target gives gamma = z^N r and beta = -s
    alpha, big_n, x_star, s, trace, warnings, steps = steer(
        Polynomial.one(), alpha_ini, big_n, reduced, x0, s0, cfg)
    gamma = monic_from_vector(x_star, big_n + shift)
    if shift:
        alpha = alpha.shifted(shift)
        warnings.append(
            f"plant numerator carries z^{shift}; the solution was lifted from "
            "the reduced problem")
    return ConversionSolution(alpha, -s, gamma, x_star, len(trace),
                              tuple(trace), tuple(warnings),
                              SchurFactors(base, steps, shift),
                              None if shift else quality)


def assemble_converted(pre: PreController, plant_den: Polynomial,
                       plant_num: Polynomial,
                       solution: ConversionSolution) -> ConvertedController:
    """Build the integer-coefficient controller from a conversion solution.

    New denominator: the integer polynomial; reference channel scaled by the
    Schur factor; output channel ``beta*plant_den + alpha*num_y``.  The
    closed-loop denominator then factors as the Schur factor times the
    original loop's, which the certificate checks numerically.  The
    controller carries the solution's factors, from which the certificate
    proves alpha Schur (alpha's roots decide where that proof does not
    hold), and the certificate reuses the solution's coprimality quality
    when it measured the pair the certificate checks.
    """
    alpha, beta, gamma = solution.alpha, solution.beta, solution.gamma
    conv = ConvertedController(
        den=gamma,
        num_y=beta * plant_den + alpha * pre.num_y,
        num_r=alpha * pre.num_r,
        alpha=alpha, beta=beta, gamma=gamma,
        certificate=Certificate("conversion", 0.0, 1.0),
        x_star=solution.x_star, iterations=solution.iterations,
        trace=solution.trace, factors=solution.factors,
    )
    cert = certify_conversion(plant_den, plant_num, pre, conv,
                              quality=solution.quality)
    cert.warnings.extend(solution.warnings)
    return replace(conv, certificate=cert)


def convert_controller(pre: PreController, plant_den: Polynomial,
                       plant_num: Polynomial,
                       cfg: ConversionConfig | None = None) -> ConvertedController:
    """Full conversion: solve the identity, then assemble and certify."""
    n = plant_den.coeffs.size - 1
    solution = run_algorithm2(pre.den, plant_num, n, cfg)
    return assemble_converted(pre, plant_den, plant_num, solution)
