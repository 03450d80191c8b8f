"""Conversion of a pre-designed controller to integer coefficients.

The same steering machinery as the stabilizing synthesis, with the roles
swapped: the Schur factors accumulate into a cancelling polynomial while
the steering target becomes the integer denominator of the new controller.
The closed-loop transfer function from the reference to the plant output is
preserved exactly; transient responses change in general because of the
pole-zero cancellations introduced by the Schur factor, whose roots are
reported in the certificate rather than compensated.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bezout import NotCoprimeError, coprime_check, solve_diophantine
from .poly import (Polynomial, monic_from_vector, split_z_power, trim,
                   vector_from_monic)
from .stabilizer import (SteeringConfig, Tolerances, TraceStep, schur_factor,
                         steer)
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


def _make_alpha_ini(n: int, ctrl_den: Polynomial, num: Polynomial,
                    roots: Sequence[complex] | None,
                    tol: Tolerances) -> Polynomial:
    min_degree = n - (ctrl_den.coeffs.size - 1)
    if roots is None:
        return Polynomial.monomial(max(1, min_degree))
    roots = tuple(complex(r) for r in roots)
    if len(roots) < min_degree:
        raise ValueError(f"initial factor needs degree >= {min_degree}, "
                         f"got {len(roots)} roots")
    return schur_factor(roots, num, tol)


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
    tol = cfg.tolerances
    if ctrl_den.is_zero or not ctrl_den.is_monic(tol.monic):
        raise ValueError("controller denominator must be monic")
    if num.is_zero:
        raise ValueError("plant numerator must be nonzero")

    # strip z^l so the steering geometry sees num(0) != 0
    reduced, shift = split_z_power(num, tol.trim)
    ok, quality = coprime_check(ctrl_den, reduced, tol.coprime)
    if not ok:
        raise NotCoprimeError(
            f"controller denominator and plant numerator are not coprime "
            f"(quality {quality:.3e})")

    alpha_ini = _make_alpha_ini(n, ctrl_den, reduced, cfg.alpha_ini_roots, tol)
    big_n = (alpha_ini.coeffs.size - 1) + (ctrl_den.coeffs.size - 1) - n
    if big_n < 0:
        raise ValueError("deg(alpha * ctrl_den) must be at least the plant order")
    r0 = solve_diophantine(Polynomial.monomial(big_n), alpha_ini * ctrl_den,
                           reduced, tol.residual).r
    x0 = vector_from_monic(trim(r0, tol.trim), n, tol.monic)
    # the roles swap against the stabilizing synthesis: the Schur factors
    # pile into alpha, and z^N r + s num = alpha ctrl_den with r the integer
    # target gives gamma = z^N r and beta = -s
    alpha, big_n, x_star, s, trace, warnings = steer(
        Polynomial.one(), ctrl_den, alpha_ini, big_n, reduced, x0, cfg)
    gamma = monic_from_vector(x_star).shifted(big_n)
    if shift:
        alpha = alpha.shifted(shift)
        gamma = gamma.shifted(shift)
        warnings.append(
            f"plant numerator carries z^{shift}; the solution was lifted from "
            "the reduced problem")
    return ConversionSolution(alpha, -s, gamma, x_star, len(trace),
                              tuple(trace), tuple(warnings))


def assemble_converted(pre: PreController, plant_den: Polynomial,
                       plant_num: Polynomial,
                       solution: ConversionSolution,
                       tol: Tolerances = Tolerances()) -> ConvertedController:
    """Build the integer-coefficient controller from a conversion solution.

    New denominator: the integer polynomial; reference channel scaled by the
    Schur factor; output channel ``beta*plant_den + alpha*num_y``.  The
    closed-loop denominator then factors as the Schur factor times the
    original loop's, which the certificate checks numerically.
    """
    alpha, beta, gamma = solution.alpha, solution.beta, solution.gamma
    conv = ConvertedController(
        den=gamma,
        num_y=beta * plant_den + alpha * pre.num_y,
        num_r=alpha * pre.num_r,
        alpha=alpha, beta=beta, gamma=gamma,
        certificate=Certificate("conversion", 0.0, 1.0),
    )
    cert = certify_conversion(plant_den, plant_num, pre, conv,
                              residual_rtol=tol.identity_rtol,
                              int_tol=tol.integer)
    cert.warnings.extend(solution.warnings)
    return ConvertedController(conv.den, conv.num_y, conv.num_r,
                               alpha, beta, gamma, cert)


def convert_controller(pre: PreController, plant_den: Polynomial,
                       plant_num: Polynomial,
                       cfg: ConversionConfig | None = None) -> ConvertedController:
    """Full conversion: solve the identity, then assemble and certify."""
    n = plant_den.coeffs.size - 1
    solution = run_algorithm2(pre.den, plant_num, n, cfg)
    tol = (cfg or ConversionConfig()).tolerances
    return assemble_converted(pre, plant_den, plant_num, solution, tol)
