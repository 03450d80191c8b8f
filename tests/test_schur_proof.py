"""The Rouché proof that a synthesized gamma is Schur, against an exact
oracle: Jury's recursion (``jury_stable`` in ``test_numeric.py``) run in
exact rational arithmetic on gamma(rho z), rho = 1 - SCHUR_MARGIN."""
import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from intctrl import (Polynomial, SchurFactors, StabilizationConfig,
                     run_algorithm1, verify)
from intctrl.fixtures import PENDULUM_GAMMA_INI_ROOTS, pendulum_plant
from intctrl.numeric import SCHUR_MARGIN, schur_product_proof

from conftest import random_plant, sweep_plant

RHO = 1.0 - SCHUR_MARGIN


def exact_roots_inside(coeffs, rho=RHO) -> bool:
    """True when every root of the ascending ``coeffs`` lies inside
    ``|z| < rho``, exactly: Jury's recursion on gamma(rho z), whose
    coefficients are the rationals c_i rho^i.  Roots at zero are split off
    first.  The rows are kept integer: the first is scaled by a common
    denominator, and from the fourth on each is divided by the leading
    entry of the row before the one it comes from, which divides it
    exactly here as in Bareiss' elimination (were it not to, by the gcd of
    the row).  A row scaled by a nonzero number changes no comparison of
    the recursion."""
    coeffs = np.trim_zeros(np.asarray(coeffs, dtype=float), "f")
    num, den = Fraction(rho).as_integer_ratio()
    exact = [Fraction(c) for c in coeffs.tolist()]
    d = len(exact) - 1
    scale = max(c.denominator for c in exact)
    a = [int(c * scale) * num ** i * den ** (d - i)
         for i, c in enumerate(exact)][::-1]
    leads = []
    while len(a) > 1:
        if abs(a[-1]) >= abs(a[0]):
            return False
        row = [a[0] * a[i] - a[-1] * a[-1 - i] for i in range(len(a) - 1)]
        if len(leads) >= 2:
            split = [divmod(x, leads[-1]) for x in row]
            if any(r for _, r in split):
                divisor = math.gcd(*row) or 1
                row = [x // divisor for x in row]
            else:
                row = [q for q, _ in split]
        leads.append(a[0])
        a = row
    return True


def test_exact_oracle_on_known_roots():
    inside = Polynomial.from_roots([0.5, -0.9, 0.3 + 0.4j, 0.3 - 0.4j]).coeffs
    assert exact_roots_inside(inside)
    assert exact_roots_inside(np.concatenate([[0.0, 0.0], inside]))
    assert not exact_roots_inside(np.convolve([-RHO, 1.0], [0.5, 1.0]))
    assert not exact_roots_inside(Polynomial.from_roots([0.5, -1.01]).coeffs)
    # a root between rho and 1 is Schur but not inside rho
    assert exact_roots_inside(np.array([-(1 - 1e-10), 1.0]), rho=1.0)
    assert not exact_roots_inside(np.array([-(1 - 1e-10), 1.0]))


def product(base, steps, shift=0):
    """gamma as steering multiplies it from its factors."""
    if isinstance(base, int):
        prod = np.zeros(base + 1)
        prod[-1] = 1.0
    else:
        prod = Polynomial.from_roots(base).coeffs
    for f in steps:
        prod = np.convolve(f, prod)
    return np.concatenate([np.zeros(shift), prod])


@pytest.fixture(scope="module")
def synthesized():
    """(gamma, factors, proof) of every certificate of the pendulum runs and
    of 160 unfiltered random plants of orders 1 to 8."""
    records = []
    real = verify.schur_product_proof

    def recording(p, factors):
        proof = real(p, factors)
        records.append((p, factors, proof))
        return proof

    verify.schur_product_proof = recording
    try:
        den, num = pendulum_plant()
        for cfg in (None, StabilizationConfig(gamma_ini_roots=PENDULUM_GAMMA_INI_ROOTS),
                    StabilizationConfig(mu=0.5)):
            run_algorithm1(den, num, cfg)
        rng = np.random.default_rng(31)
        for _ in range(160):
            den, num = random_plant(rng, n_max=8)
            try:
                run_algorithm1(den, num)
            except (ValueError, RuntimeError, np.linalg.LinAlgError):
                pass
    finally:
        verify.schur_product_proof = real
    return records


def test_every_proved_gamma_up_to_degree_30_passes_the_exact_oracle(synthesized):
    checked = 0
    for p, factors, proof in synthesized:
        assert proof.min_modulus >= 0.0
        assert (proof.min_modulus > 0.0) == (proof.reason == "")
        if proof.min_modulus > 0.0 and p.size <= 31:
            assert exact_roots_inside(p), (p, factors)
            checked += 1
    assert checked >= 80
    # the pendulum runs, one of them on the fixture's roots
    assert any(isinstance(f.base, tuple) for _, f, proof in synthesized
               if proof.min_modulus > 0.0)


def test_witness_bounds_the_modulus_on_the_circle(synthesized):
    # the proved bound lies below |gamma| at 4096 points of |z| = rho, up to
    # the rounding of the evaluation
    z = RHO * np.exp(1j * np.linspace(0.0, np.pi, 4096))
    for p, _, proof in synthesized:
        if proof.min_modulus > 0.0:
            rounding = 4 * p.size * 2.0 ** -52 * np.abs(p).sum()
            modulus = np.abs(np.polyval(p[::-1], z)).min()
            assert proof.min_modulus <= modulus + rounding


@pytest.mark.parametrize("steps", [
    [[-RHO, 1.0]],                        # its root is rho itself
    [[-(1.0 - 1e-10), 1.0]],              # a root between rho and 1
    [[-1.0, 1.0]],
    [[0.5, 0.0, 1.0], [0.6, 0.5, 1.0], [0.1, 0.0, 1.0]],  # sum 1.1, roots inside
    [[0.3, 0.2, 1.0], [0.5, -0.5, 1.0]],  # sum rho^0 |0.5| + rho^1 |0.5| >= rho^2
    [[0.3, 0.5, 2.0]],                    # not monic
], ids=["root-at-rho", "root-past-rho", "root-at-1", "sum-above-1",
        "sum-at-rho-n", "not-monic"])
def test_factor_without_a_rouche_margin_is_never_proved(steps):
    steps = np.array(steps)
    p = product(2 * (steps.shape[1] - 1), steps)
    proof = schur_product_proof(p, SchurFactors(2 * (steps.shape[1] - 1), steps, 0))
    assert proof.min_modulus == 0.0
    bad = next(k for k, f in enumerate(steps)
               if not np.abs(f[:-1]) @ RHO ** np.arange(f.size - 1.0)
               < RHO ** (f.size - 1.0) or f[-1] != 1.0)
    assert proof.reason == (f"the roots of factor {bad + 1} of {len(steps)} "
                            "are not proved inside the circle")


@pytest.mark.parametrize("roots", [
    (RHO, 0.5), (1.0 - 1e-10, -0.5), (1.0, 0.0), (-1.2, 0.3),
    (cmath.rect(RHO, 1.0), cmath.rect(RHO, -1.0)),
    (cmath.rect(1.0, 2.0), cmath.rect(1.0, -2.0)),
])
def test_base_root_on_or_outside_the_circle_is_never_proved(roots):
    steps = np.array([[0.1, -0.2, 1.0]])
    proof = schur_product_proof(product(roots, steps), SchurFactors(roots, steps, 0))
    assert proof == (0.0, "an initial root is not inside the circle")


@pytest.mark.parametrize("root, count", [(0.98, 30), (0.9, 30), (0.98, 10)])
def test_clustered_product_of_near_boundary_factors_is_never_proved(root, count):
    # the double-precision product of count factors z - root has roots
    # outside the unit circle although each factor's root is inside
    steps = np.tile([-root, 1.0], (count, 1))
    p = product(2, steps)
    assert not exact_roots_inside(p)
    assert schur_product_proof(p, SchurFactors(2, steps, 0)).min_modulus == 0.0


def test_clustered_product_inside_is_proved():
    # the same cluster further inside: proved, and the oracle agrees
    steps = np.tile([-0.5, 1.0], (20, 1))
    p = product(2, steps, shift=3)
    proof = schur_product_proof(p, SchurFactors(2, steps, 3))
    assert proof.min_modulus > 0.0 and proof.reason == ""
    assert exact_roots_inside(p)


def test_gamma_that_is_not_the_product_of_its_factors_is_not_proved():
    steps = np.array([[0.1, -0.2, 1.0], [0.3, 0.1, 1.0]])
    p = product(4, steps)
    assert schur_product_proof(p, SchurFactors(4, steps, 0)).min_modulus > 0.0
    nudged = p.copy()
    nudged[-2] = np.nextafter(nudged[-2], 1.0)
    for wrong, shift in ((nudged, 0), (p, 1), (p[:-1], 0),
                         (np.concatenate([[1e-300], p]), 1)):
        proof = schur_product_proof(wrong, SchurFactors(4, steps, shift))
        assert proof == (0.0, "it is not the product of its factors")


def test_synthesis_certificate_finds_no_roots(pendulum, monkeypatch):
    # gamma's verdict comes from its factors, and the plant's coprimality
    # from preprocess_plant: no root finding and no second Sylvester SVD
    def forbidden(*args, **kwargs):
        raise AssertionError("called while certifying a synthesis")

    for name in ("poly_roots", "schur_check", "coprime_check"):
        monkeypatch.setattr(verify, name, forbidden)
    den, num = pendulum
    for cfg in (None, StabilizationConfig(gamma_ini_roots=PENDULUM_GAMMA_INI_ROOTS)):
        result = run_algorithm1(den, num, cfg)
        cert = result.certificate
        assert cert.passed
        assert cert.witnesses["gamma_min_modulus_bound"] > 0.0
        assert "gamma_spectral_radius" not in cert.witnesses
        assert cert.witnesses["plant_coprimality_quality"] == result.plant.quality


@pytest.mark.parametrize("index", [230, 514])
def test_sweep_plants_whose_gamma_roots_failed_now_certify(index):
    # their gamma's computed roots missed the residual bound, so the root
    # check raised RootFindingError; the factors prove them Schur
    result = run_algorithm1(*sweep_plant(index))
    cert = result.certificate
    assert cert.passed and cert.conditions["gamma_schur"]
    assert cert.witnesses["gamma_min_modulus_bound"] > 0.0
    assert np.abs(np.roots(result.gamma.coeffs[::-1])).max() < 1.0


@pytest.mark.parametrize("index", [83, 167, 229, 470])
def test_sweep_plants_without_a_proof_fail_gamma_schur_without_raising(index):
    cert = run_algorithm1(*sweep_plant(index)).certificate
    assert not cert.passed and not cert.conditions["gamma_schur"]
    assert cert.witnesses["gamma_min_modulus_bound"] == 0.0
    assert cert.warnings[-1] == (
        "gamma is not proved Schur on |z| = 1 - SCHUR_MARGIN: the stepwise "
        "Rouche bound of its modulus on the circle does not stay positive")
