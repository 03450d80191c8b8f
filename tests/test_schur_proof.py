"""The Rouché proof that a synthesized gamma, or a conversion's alpha, is
Schur, against an exact oracle: Jury's recursion (``jury_stable`` in
``test_numeric.py``) run in exact rational arithmetic on gamma(rho z),
rho = 1 - SCHUR_MARGIN."""
import cmath
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from intctrl import (ConversionConfig, ConvertedController, Polynomial,
                     PreController, SchurFactors, StabilizationConfig,
                     certify_conversion, convert_controller, numeric,
                     run_algorithm1, verify)
from intctrl.fixtures import (CONVERSION_ALPHA_INI_ROOTS,
                              PENDULUM_GAMMA_INI_ROOTS, pendulum_plant,
                              pendulum_pre_controller)
from intctrl.numeric import SCHUR_MARGIN, SchurProof, schur_product_proof
from intctrl.stabilizer import preprocess_plant

from conftest import random_plant, random_roots, sweep_plant
from test_converter import stable_pre_loop

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


def _recorded_proofs(run):
    """(p, factors, proof) of every schur_product_proof a certificate makes
    while ``run()`` runs."""
    records = []
    real = verify.schur_product_proof

    def recording(p, factors):
        proof = real(p, factors)
        records.append((p, factors, proof))
        return proof

    verify.schur_product_proof = recording
    try:
        run()
    finally:
        verify.schur_product_proof = real
    return records


@pytest.fixture(scope="module")
def synthesized():
    """(gamma, factors, proof) of every certificate of the pendulum runs and
    of 160 unfiltered random plants of orders 1 to 8."""
    def run():
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

    return _recorded_proofs(run)


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
        assert (cert.witnesses["plant_coprimality_quality"]
                == preprocess_plant(den, num).quality)


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


def random_conversions():
    """(plant den, plant num, pre-designed controller, initial roots) of 24
    random conversions of stabilizing pre-designed controllers, every third
    from random initial roots."""
    rng = np.random.default_rng(11)
    for i in range(24):
        den, num, pre = stable_pre_loop(rng)
        roots = tuple(random_roots(rng, 2, 0.6)) if i % 3 == 0 else None
        yield den, num, pre, roots


@pytest.fixture(scope="module")
def converted():
    """(alpha, factors, proof) of both pendulum conversions, of the
    pendulum numerator times z, and of the random conversions."""
    def run():
        den, num = pendulum_plant()
        pre = pendulum_pre_controller()
        for roots in (CONVERSION_ALPHA_INI_ROOTS, None):
            convert_controller(pre, den, num,
                               ConversionConfig(alpha_ini_roots=roots))
        convert_controller(pre, den, Polynomial(np.concatenate([[0.0], num.coeffs])))
        for den, num, pre, roots in random_conversions():
            convert_controller(pre, den, num,
                               ConversionConfig(alpha_ini_roots=roots))

    return _recorded_proofs(run)


def test_every_proved_alpha_passes_the_exact_oracle(converted):
    # the oracle runs at rho = 1 (Schur) on every alpha, and at rho =
    # 1 - SCHUR_MARGIN, as the proof claims, up to degree 30: the exact
    # recursion at rho < 1 grows too slow beyond that
    assert len(converted) == 27
    proved = [(p, factors) for p, factors, proof in converted
              if proof.min_modulus > 0.0]
    for p, factors in proved:
        assert exact_roots_inside(p, rho=1.0), (p, factors)
        if p.size <= 31:
            assert exact_roots_inside(p), (p, factors)
    # both pendulum conversions (the default one of degree 73) and the
    # lifted one are proved, and random ones with and without initial roots
    assert all(proof.min_modulus > 0.0 for _, _, proof in converted[:3])
    assert converted[1][0].size == 74 and converted[2][1].shift == 1
    assert len(proved) >= 24
    assert sum(isinstance(f.base, tuple) for _, f in proved) >= 1 + 6


def test_conversion_whose_alpha_proof_does_not_hold_is_judged_by_roots():
    # the last random conversion steers nearly equal steps, each with a
    # root near 0.993, into an alpha of spectral radius 0.9983: the
    # stepwise Rouche bound does not stay positive, so alpha's roots
    # decide, as without factors, and pass it
    den, num, pre, roots = list(random_conversions())[-1]
    assert roots is None
    conv = convert_controller(pre, den, num)
    cert = conv.certificate
    assert cert.passed and cert.conditions["alpha_schur"]
    assert cert.witnesses["alpha_min_modulus_bound"] == 0.0
    assert cert.witnesses["alpha_spectral_radius"] == pytest.approx(0.99832,
                                                                    abs=1e-5)
    assert cert.warnings == [
        "alpha is not proved Schur on |z| = 1 - SCHUR_MARGIN: the stepwise "
        "Rouche bound of its modulus on the circle does not stay positive"]
    assert exact_roots_inside(conv.alpha.coeffs)
    by_roots = certify_conversion(den, num, pre, replace(conv, factors=None))
    assert by_roots.conditions == cert.conditions
    assert (by_roots.witnesses["alpha_spectral_radius"]
            == cert.witnesses["alpha_spectral_radius"])


def _conversion(factors):
    """The certificate of a converted controller whose alpha is the product
    of ``factors``, on a small plant and pre-designed controller."""
    den = Polynomial.from_roots([0.5, -0.25])
    num = Polynomial([0.3, 0.1])
    pre = PreController(Polynomial([1, -1, 1]), Polynomial([-4.0, 2.0]),
                        Polynomial([1.0]))
    alpha = Polynomial(product(factors.base, factors.steps, factors.shift))
    conv = ConvertedController(alpha * pre.den, alpha * pre.num_y,
                               alpha * pre.num_r, alpha, Polynomial.zero(),
                               alpha * pre.den, None, factors=factors)
    return alpha, certify_conversion(den, num, pre, conv)


def test_conversion_with_a_step_outside_the_circle_fails_alpha_schur():
    # the second step z^2 - 2.25 has its roots at +-1.5
    factors = SchurFactors((0.2,), np.array([[0.1, 0.2, 1.0],
                                             [-2.25, 0.0, 1.0]]), 0)
    alpha, cert = _conversion(factors)
    assert not exact_roots_inside(alpha.coeffs, rho=1.0)
    assert not cert.conditions["alpha_schur"] and not cert.passed
    assert cert.witnesses["alpha_min_modulus_bound"] == 0.0
    # alpha's roots, which decide when the proof does not hold, fail it too
    assert cert.witnesses["alpha_spectral_radius"] == pytest.approx(1.5)
    assert ("alpha is not proved Schur on |z| = 1 - SCHUR_MARGIN: the roots "
            "of factor 2 of 2 are not proved inside the circle") in cert.warnings


@pytest.mark.parametrize("base", [
    (1.0 - 1e-12, 0.3), (-(1.0 - 1e-12),),
    (cmath.rect(1.0 - 1e-12, 0.5), cmath.rect(1.0 - 1e-12, -0.5))],
    ids=["real", "negative", "complex-pair"])
def test_conversion_with_an_initial_root_near_the_circle_is_never_proved(base):
    # Schur, but not inside 1 - SCHUR_MARGIN, which the proof claims
    factors = SchurFactors(base, np.array([[0.1, -0.2, 1.0]]), 0)
    alpha, cert = _conversion(factors)
    assert exact_roots_inside(alpha.coeffs, rho=1.0)
    assert not exact_roots_inside(alpha.coeffs)
    assert not cert.conditions["alpha_schur"]
    assert cert.witnesses["alpha_min_modulus_bound"] == 0.0
    assert cert.witnesses["alpha_spectral_radius"] > 1.0 - SCHUR_MARGIN
    assert ("alpha is not proved Schur on |z| = 1 - SCHUR_MARGIN: an initial "
            "root is not inside the circle") in cert.warnings


# The arc recursion stops at the first factor after which a bound row and a
# sampled row are both at or below 0 (or NaN): rates are >= 0 (or NaN) and
# error terms > 0, so both stay there and the proof fails whatever the
# later factors are.  The reference below runs every factor, as the proof
# did before it stopped early; it must return the same SchurProof.


def full_recursion_proof(p, factors, exits=None):
    """``schur_product_proof`` running every factor through the arc
    recursion.  With a list ``exits``, appends per arc count the number of
    factors after which a bound and a sampled row are both no longer
    positive (None if never) and the number of factors."""
    steps, shift = factors.steps, factors.shift
    k_count, n = steps.shape[0], steps.shape[1] - 1
    if isinstance(factors.base, (int, np.integer)):
        roots = None
        prod = np.zeros(factors.base + 1)
        prod[-1] = 1.0
        base_lo = numeric._rho_power_lo(factors.base)
    else:
        roots = np.array(factors.base, dtype=complex)
        inner = (numeric._RHO - np.abs(roots) * numeric._UP) * numeric._DOWN
        if np.count_nonzero(inner > 0.0) != roots.size:
            return SchurProof(0.0, "an initial root is not inside the circle")
        prod, base_err, _ = numeric._expanded_roots(factors.base)
        base_lo = (float(np.multiply.reduce(inner))
                   * (1.0 - roots.size * numeric._EPS) * numeric._DOWN
                   - base_err * numeric._UP)
    sums = np.abs(steps) @ numeric._factor_weights(n)
    inside = (sums[:, 0] < 1.0) & (steps[:, n] == 1.0)
    if np.count_nonzero(inside) != k_count:
        return SchurProof(0.0, f"the roots of factor {int(inside.argmin()) + 1} "
                               f"of {k_count} are not proved inside the circle")
    floor = np.maximum((numeric._DOWN - sums[:, 0] * numeric._UP)
                       * numeric._rho_power_lo(n) * numeric._DOWN, 0.0)
    partials = [prod]
    for f in steps:
        partials.append(np.convolve(f, partials[-1]))
    prod = partials.pop()
    partial = np.array([numeric._norm_up(q) for q in partials])
    if (p.size != prod.size + shift or np.count_nonzero(p[:shift])
            or np.count_nonzero(p[shift:] != prod)):
        return SchurProof(0.0, "it is not the product of its factors")
    u = numeric._U
    err = (n + 1) * u / (1.0 - (n + 1) * u) * sums[:, 1] * partial * numeric._UP
    bound = base_lo
    for rate, e in zip(floor.tolist(), err.tolist()):
        bound = rate * bound * numeric._DOWN - e
    if bound > 0.0:
        return SchurProof(bound * numeric._rho_power_lo(shift) * numeric._DOWN, "")
    slack = (4 * n + 4) * u * sums[:, 1] * numeric._UP
    m = numeric.ARC_SAMPLES
    while True:
        values = numeric._arc_powers(m, n) @ steps.T
        moduli = np.hypot(values[:m], values[m:])
        reach = (np.pi / (2 * m) + numeric._POINT_ERR) * numeric._UP
        rates = np.concatenate((np.maximum(
            moduli * numeric._DOWN - (slack + sums[:, 2] * reach) * numeric._UP,
            floor) * numeric._DOWN, moduli))
        if roots is None:
            state = np.full(2 * m, base_lo)
        else:
            state = numeric._base_bounds(roots, inner, m, n, reach, base_err)
        first = None
        for k in range(k_count):
            state = rates[:, k] * state - err[k]
            if first is None and not ((state[:m] > 0.0).all()
                                      or (state[m:] > 0.0).all()):
                first = k + 1
        if exits is not None:
            exits.append((first, k_count))
        least = float(state[state[:m].argmin()])
        if least > 0.0:
            return SchurProof(least * numeric._rho_power_lo(shift)
                              * numeric._DOWN, "")
        sampled = state[m:]
        if not sampled[sampled.argmin()] > 0.0 or m >= numeric.ARC_SAMPLES_MAX:
            return SchurProof(0.0, "the stepwise Rouche bound of its modulus "
                                   "on the circle does not stay positive")
        m *= 2


def assert_same_proof(p, factors, exits=None):
    got = schur_product_proof(p, factors)
    want = full_recursion_proof(p, factors, exits)
    assert (got.min_modulus.hex(), got.reason) == (want.min_modulus.hex(),
                                                   want.reason)
    return got


@pytest.fixture(scope="module")
def sweep_failed_gamma_proofs():
    """(gamma, factors) of every gamma of the seed-7 sweep that is not
    proved Schur."""
    def run():
        rng = np.random.default_rng(7)
        for _ in range(600):
            den, num = random_plant(rng, n_max=8)
            try:
                run_algorithm1(den, num)
            except (ValueError, RuntimeError, np.linalg.LinAlgError):
                pass

    return [(p, f) for p, f, proof in _recorded_proofs(run) if proof.reason]


def test_early_exit_matches_the_full_recursion_on_sweep_failures(
        sweep_failed_gamma_proofs):
    assert len(sweep_failed_gamma_proofs) == 42
    exits = []
    for p, factors in sweep_failed_gamma_proofs:
        proof = assert_same_proof(p, factors, exits)
        assert proof.reason.startswith("the stepwise Rouche bound")
    # most of them stop before their last factor, the longest far before
    early = [(first, count) for first, count in exits
             if first is not None and first < count]
    assert len(early) >= 30
    assert any(count - first >= 50 for first, count in early)


@pytest.mark.parametrize("root, count", [(0.98, 30), (0.9, 30), (0.98, 10),
                                         (0.999, 60), (0.5, 20)])
def test_early_exit_matches_the_full_recursion_on_clusters(root, count):
    # z - root repeated: the products near the circle are not proved, the
    # one at 0.5 is
    steps = np.tile([-root, 1.0], (count, 1))
    for base, shift in ((2, 0), (2, 3), ((0.3, -0.2), 1)):
        p = product(base, steps, shift)
        proof = assert_same_proof(p, SchurFactors(base, steps, shift))
        assert (proof.min_modulus > 0.0) == (root == 0.5)


def test_early_exit_matches_the_full_recursion_on_long_products():
    # the shape of long steering runs: factors with |u|_1 = 0.99 up to
    # order 8, on z^2n or on roots, many of them not proved and several
    # unstable in exact arithmetic; and pairs of complex roots near the
    # circle, repeated
    rng = np.random.default_rng(4242)
    outcomes = set()
    for i in range(60):
        n = int(rng.integers(2, 9))
        count = int(rng.integers(5, 90))
        u = rng.normal(size=(count, n))
        u *= 0.99 / np.abs(u).sum(axis=1, keepdims=True)
        steps = np.ones((count, n + 1))
        steps[:, :n] = u[:, ::-1]
        base = 2 * n if i % 2 else tuple(random_roots(rng, 2, 0.8))
        p = product(base, steps)
        outcomes.add(assert_same_proof(p, SchurFactors(base, steps, 0)).reason)
    for radius, angle, count in ((0.95, 0.3, 12), (0.995, 1.2, 40)):
        pair = [radius ** 2, -2.0 * radius * math.cos(angle), 1.0]
        steps = np.tile(pair, (count, 1))
        p = product(4, steps)
        outcomes.add(assert_same_proof(p, SchurFactors(4, steps, 0)).reason)
    assert "" in outcomes and len(outcomes) >= 3, outcomes
