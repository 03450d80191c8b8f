import numpy as np
import pytest
from numpy.testing import assert_allclose

from intctrl import (ConversionConfig, NotCoprimeError, Polynomial,
                     PreController, RationalTF, StabilizationConfig,
                     closed_loop_poly, convert_controller, run_algorithm1,
                     tf_equal)
from intctrl import converter, numeric, stabilizer, verify
from intctrl.bezout import coprime_check, solve_diophantine
from intctrl.converter import assemble_converted, run_algorithm2
from intctrl.numeric import poly_roots, schur_check, vec_1norm
from intctrl.fixtures import CONVERSION_ALPHA_INI_ROOTS
from intctrl.verify import IDENTITY_RTOL

from conftest import invariant_breach, random_roots, sweep_conversion

Z = Polynomial([0, 1])


def conversion_config(**kw):
    return ConversionConfig(alpha_ini_roots=CONVERSION_ALPHA_INI_ROOTS,
                            mu=0.99, **kw)


def stable_pre_loop(rng, n_max=4):
    """Random plant plus a pre-designed stabilizing two-input controller.

    The controller is produced by classical closed-loop assignment: pick a
    Schur polynomial of degree 2n and reduce it against the plant, which
    yields a (generally non-integer) denominator/numerator pair.
    """
    while True:
        n = int(rng.integers(1, n_max + 1))
        den = Polynomial.from_roots(random_roots(rng, n, 1.4))
        deg_num = int(rng.integers(0, n + 1))
        num = Polynomial.from_roots(random_roots(rng, deg_num, 1.4),
                                    leading=float(rng.uniform(0.3, 1.5)))
        if abs(num(0.0)) < 0.05 * num.max_abs():
            continue
        if coprime_check(den, num).quality < 1e-3:
            continue
        target = Polynomial.from_roots(random_roots(rng, 2 * n, 0.85))
        try:
            ctrl_den = solve_diophantine(den, target, num).r
        except NotCoprimeError:
            continue
        if coprime_check(ctrl_den, num).quality < 1e-4:
            continue
        cofactor, rem = divmod(target - ctrl_den * den, num)
        if rem.max_abs() > 1e-8 * max(1.0, target.max_abs()):
            continue
        # loop convention den*Dc - num*Ncy: negate the cofactor so the loop
        # denominator comes out as the chosen Schur target
        num_y = -cofactor
        num_r = Polynomial(rng.normal(size=ctrl_den.coeffs.size))
        return den, num, PreController(ctrl_den, num_y, num_r)


def test_trivial_conversion():
    # den = z with constant numerator: the initial reduction is already
    # integer, no iterations, gamma = z
    solution = run_algorithm2(Z, Polynomial.one(), 1,
                              ConversionConfig(alpha_ini_roots=()))
    assert solution.alpha == Polynomial.one()
    assert solution.beta.is_zero
    assert solution.gamma == Z
    assert solution.iterations == 0


def test_pendulum_conversion_solution(pendulum, pre_controller, steer_calls):
    den, num = pendulum
    solution = run_algorithm2(pre_controller.den, num, 4, conversion_config())
    (args, out), = steer_calls
    assert invariant_breach(args, out[4]) is None
    # integer part z^23 (z^4 - z^3 - 4 z^2 - 2 z + 4), four steering steps
    assert_allclose(solution.x_star, [-1.0, -4.0, -2.0, 4.0])
    assert solution.iterations == 4
    want = Polynomial([4, -2, -4, -1, 1]).shifted(23)
    assert np.array_equal(solution.gamma.coeffs, want.coeffs)
    # every accumulated factor keeps the cancelling polynomial Schur monic
    assert solution.alpha.is_monic()
    assert schur_check(solution.alpha).is_schur
    # identity and degree condition
    resid = (solution.alpha * pre_controller.den + solution.beta * num
             - solution.gamma).max_abs()
    assert resid <= 1e-8 * solution.gamma.max_abs()
    assert (solution.beta.coeffs.size - 1) < (solution.gamma.coeffs.size - 1) - 4


def assert_solves_identity(solution, ctrl_den, num, n):
    """``alpha*ctrl_den + beta*num = gamma`` within the certificate's bound,
    and ``deg(beta) < deg(gamma) - n``."""
    ad, bn = solution.alpha * ctrl_den, solution.beta * num
    scale = max(1.0, ad.max_abs(), bn.max_abs(), solution.gamma.max_abs())
    assert (ad + bn - solution.gamma).max_abs() <= IDENTITY_RTOL * scale
    assert solution.beta.coeffs.size < solution.gamma.coeffs.size - n


@pytest.mark.parametrize("ctrl_den, steps", [
    (Polynomial.from_roots([0.5, -0.3, 0.25]), 2),
    (Polynomial([0.0, -1.0, 0.0, 1.0]), 0)])
def test_conversion_from_the_zero_cofactor(pendulum, steer_calls, ctrl_den,
                                           steps):
    # deg(ctrl_den) = n - 1 and the default initial factor z give N = 0: the
    # initial reduction z^0 r + s num = z ctrl_den has the zero cofactor,
    # which stays zero when z ctrl_den is already integer
    den, num = pendulum
    solution = run_algorithm2(ctrl_den, num, 4)
    (args, out), = steer_calls
    p, _, _, shift, _, _, s0, _ = args
    assert p == Polynomial.one() and shift == 0 and s0.is_zero
    assert solution.iterations == steps
    assert solution.beta.is_zero == (steps == 0)
    assert invariant_breach(args, out[4]) is None
    assert_solves_identity(solution, ctrl_den, num, 4)


@pytest.mark.parametrize("index", [5, 40])
def test_sweep_conversions_that_broke_down_in_the_closing_solve(index,
                                                                steer_calls):
    # a dense closing solve of the final reduction raised NotCoprimeError on
    # these designs; the carried cofactor needs no such solve
    ctrl_den, den, num = sweep_conversion(index)
    n = den.coeffs.size - 1
    solution = run_algorithm2(ctrl_den, num, n)
    (args, out), = steer_calls
    assert solution.iterations > 0
    assert invariant_breach(args, out[4]) is None
    assert_solves_identity(solution, ctrl_den, num, n)


def test_pendulum_conversion_certificate(pendulum, pre_controller):
    den, num = pendulum
    conv = convert_controller(pre_controller, den, num, conversion_config())
    cert = conv.certificate
    assert cert.passed, cert.conditions
    assert cert.conditions["tf_preserved"]
    assert cert.conditions["internally_stable"]
    assert abs(cert.witnesses["dc_gain"] - 1.0) <= 1e-2
    # converted controller is proper
    assert conv.num_y.coeffs.size <= conv.den.coeffs.size
    assert conv.num_r.coeffs.size <= conv.den.coeffs.size


def test_identity_conversion_preserves_controller():
    # a pre-designed controller that already has an integer denominator
    # converts with alpha = 1, beta = 0, leaving it untouched
    den = Polynomial.from_roots([0.5, -0.25])
    num = Polynomial([1.0, 0.4])
    result = run_algorithm1(den, num)
    pre = PreController(result.alpha, -result.beta, Polynomial([1.0]))
    solution = run_algorithm2(pre.den, num, 2, ConversionConfig(alpha_ini_roots=()))
    assert solution.iterations == 0
    assert solution.alpha == Polynomial.one()
    assert solution.beta.is_zero
    conv = assemble_converted(pre, den, num, solution)
    assert conv.den == pre.den
    assert conv.num_r == pre.num_r
    assert conv.num_y.allclose(pre.num_y, 1e-9)


def test_factorization_identity_fuzz():
    # converted loop denominator == Schur factor times the original loop
    # denominator, on randomized stable pre-designed loops
    rng = np.random.default_rng(2718)
    for _ in range(25):
        den, num, pre = stable_pre_loop(rng)
        n = den.coeffs.size - 1
        try:
            conv = convert_controller(pre, den, num)
        except NotCoprimeError:
            continue
        lhs = closed_loop_poly(den, num, conv.den, conv.num_y)
        rhs = conv.alpha * closed_loop_poly(den, num, pre.den, pre.num_y)
        scale = max(1.0, lhs.max_abs(), rhs.max_abs())
        assert (lhs - rhs).max_abs() <= 1e-8 * scale
        assert conv.certificate.conditions["loop_factorization"]


def test_transfer_function_preserved_fuzz():
    rng = np.random.default_rng(1414)
    for _ in range(15):
        den, num, pre = stable_pre_loop(rng)
        n = den.coeffs.size - 1
        try:
            solution = run_algorithm2(pre.den, num, n, ConversionConfig())
        except NotCoprimeError:
            continue
        conv = assemble_converted(pre, den, num, solution)
        t_pre = RationalTF(pre.num_r * num,
                           closed_loop_poly(den, num, pre.den, pre.num_y))
        t_conv = RationalTF(conv.num_r * num,
                            closed_loop_poly(den, num, conv.den, conv.num_y))
        left, right = t_pre.num * t_conv.den, t_conv.num * t_pre.den
        scale = max(1.0, left.max_abs(), right.max_abs())
        assert (left - right).max_abs() <= 1e-7 * scale
        if solution.iterations <= 6:
            # short runs keep the Schur factor's root clusters resolvable in
            # double precision, so the stability verdict is trustworthy
            assert conv.certificate.conditions["internally_stable"]


def test_conversion_emits_bounded_inputs(pendulum, pre_controller):
    den, num = pendulum
    solution = run_algorithm2(pre_controller.den, num, 4, conversion_config())
    for step in solution.trace:
        assert vec_1norm(step.u) < 1.0


def test_conversion_with_numerator_z_powers():
    # plant numerator divisible by z: solution is lifted back and flagged
    den = Polynomial.from_roots([0.4, -0.6, 1.2])
    num = Polynomial([0, 0.9, 0.45])  # z (0.45 z + 0.9)
    target = Polynomial.from_roots([0.2, -0.1, 0.3, 0.15, -0.25, 0.05])
    ctrl_den = solve_diophantine(den, target, num).r
    cofactor, rem = divmod(target - ctrl_den * den, num)
    assert rem.max_abs() < 1e-9
    pre = PreController(ctrl_den, -cofactor, Polynomial([1.0]))
    conv = convert_controller(pre, den, num)
    assert conv.certificate.passed, conv.certificate.conditions
    assert any("z^1" in w for w in conv.certificate.warnings)
    # alpha is proved from factors that carry the lift, and the quality of
    # the unreduced pair is measured again
    assert conv.factors.shift == 1
    assert conv.certificate.witnesses["alpha_min_modulus_bound"] > 0.0
    assert run_algorithm2(ctrl_den, num, 3).quality is None


def test_conversion_rejects_shared_roots():
    num = Polynomial.from_roots([0.5], leading=0.8)
    ctrl_den = Polynomial.from_roots([0.5, 0.1])
    with pytest.raises(NotCoprimeError):
        run_algorithm2(ctrl_den, num, 2, ConversionConfig())


def test_alpha_ini_degree_requirement():
    # deg(alpha) must reach n - deg(ctrl_den); short root lists are rejected
    with pytest.raises(ValueError):
        run_algorithm2(Z, Polynomial.one(), 4,
                       ConversionConfig(alpha_ini_roots=(0.1,)))


def test_assemble_proves_alpha_from_its_factors(pendulum, pre_controller):
    den, num = pendulum
    conv = convert_controller(pre_controller, den, num, conversion_config())
    # six initial roots plus four steering factors of degree four each
    assert conv.factors.base == CONVERSION_ALPHA_INI_ROOTS
    assert conv.factors.steps.shape == (4, 5) and conv.factors.shift == 0
    assert conv.alpha.coeffs.size - 1 == 6 + 4 * 4
    cert = conv.certificate
    assert cert.conditions["alpha_schur"]
    assert cert.witnesses["alpha_min_modulus_bound"] > 0.0
    # the cancelled roots are no longer found
    assert "alpha_spectral_radius" not in cert.witnesses
    assert "details" not in cert.to_dict()


def test_conversion_finds_only_the_loop_roots_and_checks_each_pair_once(
        pendulum, pre_controller, monkeypatch):
    # the certificate proves alpha from its factors and takes the
    # controller/numerator quality from run_algorithm2: it finds the roots
    # of the loop only, and the conversion runs one Sylvester SVD per pair
    # (that one, and the initial factor's against the numerator)
    rooted, pairs = [], []

    def counting_roots(p):
        rooted.append(p)
        return poly_roots(p)

    def counting_coprime(a, b):
        pairs.append((a, b))
        return coprime_check(a, b)

    monkeypatch.setattr(numeric, "poly_roots", counting_roots)
    monkeypatch.setattr(verify, "poly_roots", counting_roots)
    for module in (converter, stabilizer, verify):
        monkeypatch.setattr(module, "coprime_check", counting_coprime)
    den, num = pendulum
    conv = convert_controller(pre_controller, den, num, conversion_config())
    assert conv.certificate.passed
    loop = closed_loop_poly(den, num, conv.den, conv.num_y)
    assert len(rooted) == 1 and rooted[0] == loop
    assert len(pairs) == 2
    assert (pre_controller.den, num) in pairs
    assert conv.certificate.witnesses["den_num_coprimality_quality"] == \
        coprime_check(pre_controller.den, num).quality


@pytest.mark.parametrize("kw", [{"mu": -0.5}, {"mu": float("nan")},
                                {"mu": 1.0}, {"mu": 0.0}])
def test_config_rejects_out_of_range(kw):
    for config in (StabilizationConfig, ConversionConfig):
        with pytest.raises(ValueError):
            config(**kw)


@pytest.mark.parametrize("field", ["prefer_origin", "max_iterations"])
def test_config_has_no_search_or_cap_setting(field):
    # mu is the one steering setting: the target search and the iteration
    # cap are fixed
    for config in (StabilizationConfig, ConversionConfig):
        with pytest.raises(TypeError, match=field):
            config(**{field: 1})


def test_initial_roots_rejected_alike_by_both_algorithms():
    # one validator checks gamma_ini and alpha_ini: a root on the unit circle
    # is not Schur, a root of the plant numerator is not coprime
    den = Polynomial.from_roots([0.5, 1.2])
    num = Polynomial.from_roots([0.3], leading=0.8)
    ctrl_den = Polynomial.from_roots([0.1, -0.2])
    for roots, exc in (((1.0, 0.2, 0.0, 0.0), ValueError),
                       ((0.3, 0.2, 0.0, 0.0), NotCoprimeError)):
        with pytest.raises(exc) as stab:
            run_algorithm1(den, num, StabilizationConfig(gamma_ini_roots=roots))
        with pytest.raises(exc) as conv:
            run_algorithm2(ctrl_den, num, 2,
                           ConversionConfig(alpha_ini_roots=roots))
        assert type(stab.value) is type(conv.value) is exc
        assert str(stab.value) == str(conv.value)


@pytest.mark.parametrize("config, kw", [
    (StabilizationConfig, {"verify_invariant": True}),
    (ConversionConfig, {"tolerances": {"residual": 1e-10}})])
def test_removed_config_fields_are_rejected(config, kw):
    with pytest.raises(TypeError):
        config(**kw)


@pytest.mark.parametrize("roots", [CONVERSION_ALPHA_INI_ROOTS, None])
def test_converted_controller_keeps_run_data(pendulum, pre_controller, roots):
    # x*, the iteration count and the trace reach the converted controller
    # unchanged, with or without the fixture's initial factor roots
    den, num = pendulum
    cfg = ConversionConfig(alpha_ini_roots=roots)
    solution = run_algorithm2(pre_controller.den, num, 4, cfg)
    conv = convert_controller(pre_controller, den, num, cfg)
    assert conv.x_star.tobytes() == solution.x_star.tobytes()
    assert conv.iterations == solution.iterations > 0
    assert len(conv.trace) == len(solution.trace) == conv.iterations
    for got, want in zip(conv.trace, solution.trace):
        assert (got.k, got.hit, got.gamma_degree, got.distance) == (
            want.k, want.hit, want.gamma_degree, want.distance)
        assert got.x.tobytes() == want.x.tobytes()
        assert got.u.tobytes() == want.u.tobytes()
    assembled = assemble_converted(pre_controller, den, num, solution)
    assert assembled.x_star is solution.x_star
    assert assembled.trace is solution.trace
