"""Machine-checkable certificates and closed-loop analysis.

Certificates never raise on a failed condition or a root finding that
breaks down; they report.  The same code path powers both the test suite
and the command-line ``analyze`` command, and synthesis routines decide for
themselves whether a failed certificate is an error.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .bezout import _identity_residual, coprime_check
from .numeric import (RootFindingError, SchurFactors, _schur_verdict,
                      poly_roots, schur_check, schur_product_proof)
from .poly import Polynomial, RationalTF, _max_abs

IDENTITY_RTOL = 1e-8
INT_TOL = 1e-6
TF_EQUAL_RTOL = 1e-6
#: coefficient difference, relative to the larger scale, under which a
#: converted controller's denominator matches its solution's gamma
DEN_MATCH_RTOL = 1e-12
#: coprimality quality below which a certificate warns of a marginal pair
QUALITY_WARN = 1e-6


@dataclass
class Certificate:
    """Evidence that a polynomial triple solves its synthesis problem.

    ``passed`` holds exactly when every condition boolean is true and the
    defining identity's residual is within tolerance.  ``witnesses`` carry
    the measured scalars behind each verdict (spectral radii, degree gaps,
    worst distance of coefficients from integers, ...).
    """

    kind: str
    identity_residual: float
    residual_tol: float
    conditions: dict[str, bool] = field(default_factory=dict)
    witnesses: dict[str, float] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (self.identity_residual <= self.residual_tol
                and all(self.conditions.values()))

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "passed": self.passed,
            "identity_residual": self.identity_residual,
            "residual_tol": self.residual_tol,
            "conditions": dict(self.conditions),
            "witnesses": dict(self.witnesses),
            "warnings": list(self.warnings),
        }


def closed_loop_poly(plant_den: Polynomial, plant_num: Polynomial,
                     ctrl_den: Polynomial, ctrl_num: Polynomial) -> Polynomial:
    """Characteristic polynomial ``plant_den*ctrl_den - plant_num*ctrl_num``.

    The feedback sign is baked into the controller numerator (a stabilizing
    synthesis returns the negated identity cofactor), so this combination is
    the loop denominator as-is.  Only a difference of equal degrees is
    trimmed: else the leading coefficient is exact, however small.
    """
    top, low = plant_den * ctrl_den, plant_num * ctrl_num
    if low.coeffs.size < top.coeffs.size:
        return Polynomial(top.coeffs - low._padded(top.coeffs.size))
    return top - low


def _integer_deviation(p: Polynomial) -> float:
    return _max_abs(p.coeffs - p.coeffs.round())


def _deg(p: Polynomial) -> int:
    return -1 if p.is_zero else p.coeffs.size - 1


def _by_roots(cert: Certificate, name: str, find, p: Polynomial):
    """``find(p)``, or None and a warning naming the error when root finding
    breaks down (``RootFindingError`` or a failed eigensolve)."""
    try:
        return find(p)
    except (RootFindingError, np.linalg.LinAlgError) as exc:
        cert.warnings.append(f"{name} is not judged Schur: its root finding "
                             f"failed ({type(exc).__name__}: {exc})")
        return None


def _proved(cert: Certificate, name: str, p: Polynomial,
            factors: SchurFactors) -> bool:
    """Whether :func:`schur_product_proof` proves ``p`` Schur from the
    factors that built it; the witness ``<name>_min_modulus_bound`` is its
    lower bound of min|p| on ``|z| = 1 - SCHUR_MARGIN``, 0 when not proved,
    with a warning saying why."""
    proof = schur_product_proof(p.coeffs, factors)
    cert.witnesses[f"{name}_min_modulus_bound"] = proof.min_modulus
    proved = proof.min_modulus > 0.0
    if not proved:
        cert.warnings.append(f"{name} is not proved Schur on |z| = 1 - "
                             f"SCHUR_MARGIN: {proof.reason}")
    return proved


def certify_stabilization(plant_den: Polynomial, plant_num: Polynomial,
                          alpha: Polynomial, beta: Polynomial,
                          gamma: Polynomial, *,
                          factors: SchurFactors | None = None,
                          quality: float | None = None) -> Certificate:
    """Check ``alpha*plant_den + beta*plant_num = gamma`` and the side
    conditions: alpha integer monic, gamma Schur monic, deg(beta) < deg(alpha).
    Raises ValueError when the identity overflows the float range.

    With the ``factors`` that built gamma, gamma is proved Schur by
    :func:`schur_product_proof` without finding a root, and the witness
    ``gamma_min_modulus_bound`` is the proved lower bound of min|gamma| on
    ``|z| = 1 - SCHUR_MARGIN`` (0 when not proved, with a warning saying
    why).  Without them gamma's roots decide, with the witness
    ``gamma_spectral_radius``; a root finding that breaks down fails
    ``gamma_schur`` without it.  ``quality`` is the plant pair's coprimality
    quality when the caller has measured it.
    """
    residual, scale = _identity_residual(alpha, plant_den, beta, plant_num, gamma)
    cert = Certificate("stabilization", residual, IDENTITY_RTOL * scale)

    int_dev = _integer_deviation(alpha)
    cert.conditions["alpha_integer"] = int_dev <= INT_TOL
    cert.conditions["alpha_monic"] = alpha.is_monic(INT_TOL)
    cert.witnesses["alpha_integer_deviation"] = int_dev

    if factors is None:
        gs = _by_roots(cert, "gamma", schur_check, gamma)
        cert.conditions["gamma_schur"] = gs is not None and gs.is_schur
        if gs is not None:
            cert.witnesses["gamma_spectral_radius"] = gs.spectral_radius
        if gs is not None and gs.near_boundary:
            cert.warnings.append(
                f"gamma spectral radius {gs.spectral_radius:.9f} is within the "
                "near-unit-circle band; the stability verdict is fragile")
    else:
        cert.conditions["gamma_schur"] = _proved(cert, "gamma", gamma, factors)
    cert.conditions["gamma_monic"] = gamma.is_monic()

    cert.conditions["degree_gap"] = _deg(beta) < _deg(alpha)
    cert.witnesses["alpha_degree"] = float(_deg(alpha))
    cert.witnesses["beta_degree"] = float(_deg(beta))

    if quality is None:
        quality = coprime_check(plant_den, plant_num).quality
    cert.witnesses["plant_coprimality_quality"] = quality
    if quality < QUALITY_WARN:
        cert.warnings.append(
            f"plant coprimality quality {quality:.3e} is marginal; the "
            "synthesis problem is numerically delicate")
    return cert


def tf_equal(t1: RationalTF, t2: RationalTF) -> bool:
    """Equality of transfer functions by cross-multiplication.

    ``num1*den2 - num2*den1`` must vanish to ``TF_EQUAL_RTOL`` relative to
    the larger product's coefficient scale; common factors (including
    unstable or mis-scaled ones) cancel without any root finding.
    """
    if t1.den.is_zero or t2.den.is_zero:
        raise ValueError("transfer function denominators must be nonzero")
    residual, scale = _identity_residual(t1.num, t2.den, -t2.num, t1.den,
                                         Polynomial.zero())
    return residual <= TF_EQUAL_RTOL * scale


def closed_loop_tf(plant_den: Polynomial, plant_num: Polynomial,
                   ctrl_den: Polynomial, num_y: Polynomial,
                   num_r: Polynomial) -> RationalTF:
    """Reference-to-output transfer function of the two-input-controller loop."""
    return RationalTF(num_r * plant_num,
                      closed_loop_poly(plant_den, plant_num, ctrl_den, num_y))


def certify_conversion(plant_den: Polynomial, plant_num: Polynomial,
                       pre, conv, *, quality: float | None = None) -> Certificate:
    """Certificate for an integer-coefficient conversion.

    ``pre`` and ``conv`` are the pre-designed and converted two-input
    controllers (``conv`` also carries the solution triple).  Checks: the
    converted denominator is integer monic; the solution triple satisfies
    its identity; alpha is Schur monic; the reference-to-output transfer
    function is preserved; the converted loop is internally stable; and the
    converted loop denominator factors through the original one by alpha.

    When ``conv.factors`` holds the factors that built alpha, alpha is
    proved Schur by :func:`schur_product_proof` without finding a root, and
    the witness ``alpha_min_modulus_bound`` is the proved lower bound of
    min|alpha| on ``|z| = 1 - SCHUR_MARGIN``.  When the proof does not hold
    (the bound is 0, with a warning saying why) or there are no factors,
    alpha's roots decide, with the witness ``alpha_spectral_radius``.
    Roots judge the loop, with the witness
    ``closed_loop_spectral_radius``; a root finding that breaks down fails
    its condition without the witness.  ``quality`` is the coprimality
    quality of ``pre.den`` and ``plant_num`` when the caller has measured
    it.
    """
    alpha, beta, gamma = conv.alpha, conv.beta, conv.gamma
    residual, scale = _identity_residual(alpha, pre.den, beta, plant_num, gamma)
    cert = Certificate("conversion", residual, IDENTITY_RTOL * scale)

    int_dev = _integer_deviation(gamma)
    cert.conditions["converted_den_integer"] = int_dev <= INT_TOL
    cert.conditions["converted_den_monic"] = gamma.is_monic(INT_TOL)
    cert.conditions["converted_den_matches_gamma"] = conv.den.allclose(gamma, DEN_MATCH_RTOL)
    cert.witnesses["gamma_integer_deviation"] = int_dev

    # the proof needs no root; where it does not hold, alpha's roots decide,
    # as without factors
    asch = None
    proved = conv.factors is not None and _proved(cert, "alpha", alpha, conv.factors)
    if not proved:
        if alpha.coeffs.size == 1:
            asch = schur_check(alpha)
        elif (found := _by_roots(cert, "alpha", poly_roots, alpha)) is not None:
            asch = _schur_verdict(found)
    cert.conditions["alpha_schur"] = proved or (asch is not None and asch.is_schur)
    if asch is not None:
        cert.witnesses["alpha_spectral_radius"] = asch.spectral_radius
    cert.conditions["alpha_monic"] = alpha.is_monic()

    n = _deg(plant_den)
    cert.conditions["degree_gap"] = _deg(beta) < _deg(gamma) - n
    cert.witnesses["beta_degree"] = float(_deg(beta))
    cert.witnesses["gamma_degree"] = float(_deg(gamma))

    t_pre = closed_loop_tf(plant_den, plant_num, pre.den, pre.num_y, pre.num_r)
    t_conv = closed_loop_tf(plant_den, plant_num, conv.den, conv.num_y, conv.num_r)
    cert.conditions["tf_preserved"] = tf_equal(t_pre, t_conv)

    loop = t_conv.den
    ls = _by_roots(cert, "the closed loop", schur_check, loop)
    cert.conditions["internally_stable"] = ls is not None and ls.is_schur
    if ls is not None:
        cert.witnesses["closed_loop_spectral_radius"] = ls.spectral_radius
    if ls is not None and ls.near_boundary:
        cert.warnings.append(
            f"closed-loop spectral radius {ls.spectral_radius:.9f} is within "
            "the near-unit-circle band")

    fact_resid, fact_scale = _identity_residual(
        loop, Polynomial.one(), -alpha, t_pre.den, Polynomial.zero())
    cert.conditions["loop_factorization"] = fact_resid <= IDENTITY_RTOL * fact_scale
    cert.witnesses["loop_factorization_residual"] = fact_resid / fact_scale

    den_at_1 = t_conv.den(1.0)
    dc = t_conv.num(1.0) / den_at_1 if abs(den_at_1) > 0 else float("inf")
    cert.witnesses["dc_gain"] = float(np.real(dc))

    if quality is None:
        quality = coprime_check(pre.den, plant_num).quality
    cert.witnesses["den_num_coprimality_quality"] = quality
    if quality < QUALITY_WARN:
        cert.warnings.append(
            f"controller/numerator coprimality quality {quality:.3e} is marginal")
    return cert
