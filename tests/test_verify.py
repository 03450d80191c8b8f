import json
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from intctrl import (ConversionConfig, Polynomial, PreController, RationalTF,
                     certify_conversion, certify_stabilization,
                     closed_loop_poly, closed_loop_tf, convert_controller,
                     tf_equal, verify)
from intctrl.converter import ConvertedController
from intctrl.fixtures import CONVERSION_ALPHA_INI_ROOTS
from intctrl.numeric import schur_check

Z = Polynomial([0, 1])


def test_closed_loop_no_feedback():
    dp, dc = Polynomial([1, 2, 1]), Polynomial([3, 1])
    assert closed_loop_poly(dp, Polynomial([1]), dc, Polynomial.zero()) == dp * dc


def test_closed_loop_hand_case():
    # Dp = z, Dc = z, Np = Nc = 1 -> z^2 - 1
    out = closed_loop_poly(Z, Polynomial.one(), Z, Polynomial.one())
    assert_allclose(out.coeffs, [-1, 0, 1])


def test_closed_loop_keeps_the_exact_leading_product():
    # no feedback: the loop is den itself, however small its leading 1 is
    # against 1e10; a relative trim of the difference used to drop it
    den = Polynomial([1.0, -1e10, 1.0])
    loop = closed_loop_poly(den, Polynomial.one(), Polynomial.one(),
                            Polynomial.zero())
    assert loop.coeffs.tobytes() == den.coeffs.tobytes()
    # equal degrees may cancel at the top, which is trimmed:
    # z * z - z * (z + 1e-12) = -1e-12 z
    loop = closed_loop_poly(Z, Z, Z, Z + Polynomial([1e-12]))
    assert loop.coeffs.tolist() == [0.0, -1e-12]


def test_certify_rejects_an_overflowing_identity():
    # alpha*den + beta*num = [inf, 1e308, 1]: the infinite sum used to trim
    # to the zero polynomial, which left the residual at max|gamma| = 1
    with pytest.raises(ValueError, match="must be finite"):
        certify_stabilization(Polynomial([1e308, 1.0]), Polynomial([1e308]),
                              Polynomial([1.0, 1.0]), Polynomial([1.0]),
                              Polynomial([0.25, 0.0, 1.0]))


def test_certify_trivial_pass():
    # plant 1/z with (alpha, beta, gamma) = (z, 0, z^2)
    cert = certify_stabilization(Z, Polynomial.one(), Z, Polynomial.zero(),
                                 Polynomial.monomial(2))
    assert cert.passed
    assert cert.witnesses["gamma_spectral_radius"] == 0.0


def test_certify_detects_integer_violation():
    cert = certify_stabilization(Z, Polynomial.one(),
                                 Polynomial([0.5, 1]),  # z + 0.5
                                 Polynomial([-0.5]), Polynomial([0, 0.5, 1]))
    assert not cert.conditions["alpha_integer"]
    assert_allclose(cert.witnesses["alpha_integer_deviation"], 0.5)


def test_certify_detects_residual_violation():
    cert = certify_stabilization(Z, Polynomial.one(), Z, Polynomial.zero(),
                                 Polynomial([0.1, 0, 1]))  # z^2 + 0.1 != z*z
    assert cert.identity_residual > cert.residual_tol
    assert not cert.passed


def test_certificate_serializes():
    cert = certify_stabilization(Z, Polynomial.one(), Z, Polynomial.zero(),
                                 Polynomial.monomial(2))
    text = json.dumps(cert.to_dict(), sort_keys=True)
    assert json.loads(text)["passed"] is True


def test_tf_equal_reflexive():
    t = RationalTF(Polynomial([1, 0.5]), Polynomial([0.2, -1, 1]))
    assert tf_equal(t, t)


def test_tf_equal_common_factor():
    t = RationalTF(Polynomial([1, 0.5]), Polynomial([0.2, -1, 1]))
    factor = Polynomial([-0.3, 1])
    scaled = RationalTF(t.num * factor, t.den * factor)
    assert tf_equal(t, scaled)


def test_tf_equal_distinguishes():
    t1 = RationalTF(Polynomial([1]), Polynomial([-0.5, 1]))
    t2 = RationalTF(Polynomial([1]), Polynomial([-0.4, 1]))
    assert not tf_equal(t1, t2)


def test_tf_equal_symmetric_fuzz():
    rng = np.random.default_rng(61)
    for _ in range(50):
        t1 = RationalTF(Polynomial(rng.normal(size=3)),
                        Polynomial(rng.normal(size=4)))
        t2 = RationalTF(Polynomial(rng.normal(size=3)),
                        Polynomial(rng.normal(size=4)))
        if t1.den.is_zero or t2.den.is_zero:
            continue
        assert tf_equal(t1, t2) == tf_equal(t2, t1)


def test_tf_equal_across_common_factors():
    # representatives of one transfer function under different common
    # factors: pairwise equal, and equal across
    rng = np.random.default_rng(62)
    for _ in range(50):
        base = RationalTF(Polynomial(rng.normal(size=3)),
                          Polynomial(np.concatenate([rng.normal(size=3), [1.0]])))
        f1 = Polynomial([rng.normal(), 1.0])
        f2 = Polynomial([rng.normal(), rng.normal(), 1.0])
        t1 = RationalTF(base.num * f1, base.den * f1)
        t2 = RationalTF(base.num * f2, base.den * f2)
        assert tf_equal(t1, base) and tf_equal(base, t2) and tf_equal(t1, t2)


def test_certify_conversion_identity_case():
    # alpha = 1, beta = 0 keeps the controller; the certificate passes when
    # the pre-designed loop is stable and its denominator is integer monic.
    # An integer stabilizing controller comes from the synthesis itself.
    from intctrl import run_algorithm1
    den = Polynomial.from_roots([0.5, -0.25])
    num = Polynomial([0.3, 0.1])
    result = run_algorithm1(den, num)
    ctrl_den, num_y = result.alpha, -result.beta
    loop = closed_loop_poly(den, num, ctrl_den, num_y)
    assert schur_check(loop).is_schur
    pre = PreController(ctrl_den, num_y, Polynomial([1.0]))
    conv = ConvertedController(ctrl_den, num_y, pre.num_r,
                               Polynomial.one(), Polynomial.zero(), ctrl_den,
                               None)
    cert = certify_conversion(den, num, pre, conv)
    assert cert.passed, cert.conditions


def test_certify_conversion_rejects_unstable_factor():
    # inject a non-Schur cancelling factor: internal stability must fail
    den = Polynomial.from_roots([0.5, -0.25])
    num = Polynomial([0.3, 0.1])
    ctrl_den = Polynomial([1, -1, 1])
    num_y = Polynomial([-4.0, 2.0])
    pre = PreController(ctrl_den, num_y, Polynomial([1.0]))
    bad_alpha = Polynomial([-1.5, 1.0])  # root at 1.5
    conv = ConvertedController(bad_alpha * ctrl_den,
                               bad_alpha * num_y,
                               bad_alpha * pre.num_r,
                               bad_alpha, Polynomial.zero(),
                               bad_alpha * ctrl_den, None)
    cert = certify_conversion(den, num, pre, conv)
    assert not cert.conditions["alpha_schur"]
    assert not cert.conditions["internally_stable"]
    assert not cert.passed


def test_conversion_dc_gain_report(pendulum, pre_controller):
    den, num = pendulum
    t = closed_loop_tf(den, num, pre_controller.den, pre_controller.num_y,
                       pre_controller.num_r)
    dc = t.num(1.0) / t.den(1.0)
    assert abs(dc - 1.0) <= 1e-2
    cfg = ConversionConfig(alpha_ini_roots=CONVERSION_ALPHA_INI_ROOTS)
    conv = convert_controller(pre_controller, den, num, cfg)
    assert abs(conv.certificate.witnesses["dc_gain"] - 1.0) <= 1e-2


def test_conversion_certificate_finds_no_alpha_root(pendulum, pre_controller,
                                                    monkeypatch):
    # with the factors that built alpha, the proof decides alpha_schur and
    # no root of alpha is found; schur_check still judges the loop
    # denominator.  Without them alpha's roots decide, found once
    den, num = pendulum
    cfg = ConversionConfig(alpha_ini_roots=CONVERSION_ALPHA_INI_ROOTS)
    conv = convert_controller(pre_controller, den, num, cfg)
    rooted, checked = [], []
    poly_roots = verify.poly_roots

    def counting_roots(p):
        rooted.append(p)
        return poly_roots(p)

    def counting_schur(p):
        checked.append(p)
        return schur_check(p)

    monkeypatch.setattr(verify, "poly_roots", counting_roots)
    monkeypatch.setattr(verify, "schur_check", counting_schur)
    cert = verify.certify_conversion(den, num, pre_controller, conv)
    assert rooted == []
    assert conv.alpha not in checked and len(checked) == 1
    assert cert.to_dict() == conv.certificate.to_dict()
    assert cert.conditions["alpha_schur"]
    assert cert.witnesses["alpha_min_modulus_bound"] > 0.0
    assert "alpha_spectral_radius" not in cert.witnesses
    assert "details" not in cert.to_dict()

    checked.clear()
    by_roots = verify.certify_conversion(den, num, pre_controller,
                                         replace(conv, factors=None))
    assert rooted == [conv.alpha]
    assert conv.alpha not in checked and len(checked) == 1
    assert by_roots.conditions == cert.conditions
    radius = float(np.max(np.abs(np.roots(conv.alpha.coeffs[::-1]))))
    assert by_roots.witnesses["alpha_spectral_radius"] == pytest.approx(radius)
    assert "alpha_min_modulus_bound" not in by_roots.witnesses
    assert "details" not in by_roots.to_dict()


def test_certify_stabilization_closed_loop_consistency(pendulum):
    # a passing certificate implies the closed loop with den=alpha,
    # num=-beta reproduces gamma and is Schur - checked independently
    from intctrl import StabilizationConfig, run_algorithm1
    den, num = pendulum
    result = run_algorithm1(den, num, StabilizationConfig())
    assert result.certificate.passed
    cl = closed_loop_poly(den, num, result.alpha, -result.beta)
    scale = max(1.0, (result.alpha * den).max_abs())
    assert (cl - result.gamma).max_abs() <= 1e-8 * scale
    assert schur_check(cl).is_schur


def _old_tf_residual(t1, t2):
    """tf_equal's residual and scale as Polynomial arithmetic computed them
    before the certificates' identity residual took over."""
    left, right = t1.num * t2.den, t2.num * t1.den
    return (left - right).max_abs(), max(1.0, left.max_abs(), right.max_abs())


def _old_factorization_residual(loop, alpha, den):
    """The loop_factorization residual and scale, likewise."""
    factored = alpha * den
    return ((loop - factored).max_abs(),
            max(1.0, loop.max_abs(), factored.max_abs()))


def _fold_cases():
    """(n1, d1, n2, d2) quadruples: random pairs of mixed lengths and
    scales, zero numerators, equal transfer functions under a common factor
    and differences whose top coefficients are dust."""
    rng = np.random.default_rng(28)

    def poly(size):
        return Polynomial(rng.normal(size=size) * 10.0 ** rng.integers(-3, 4))

    for _ in range(200):
        yield tuple(poly(rng.integers(1, 8)) for _ in range(4))
    for _ in range(20):
        d1, d2 = poly(3), poly(5)
        yield Polynomial.zero(), d1, poly(2), d2
        yield poly(2), d1, Polynomial.zero(), d2
        yield Polynomial.zero(), d1, Polynomial.zero(), d2
    for _ in range(50):
        num, den, f = poly(3), poly(4), poly(rng.integers(2, 4))
        yield num, den, num * f, den * f
        # the difference is dust at the top only, which the trim drops, or
        # nothing but dust
        other = num.coeffs + rng.normal(size=3) * num.max_abs()
        other[-1] = num.coeffs[-1] * (1.0 + 1e-12)
        yield num, den, Polynomial(other), den
        other[:-1] = num.coeffs[:-1]
        yield num, den, Polynomial(other), den


def test_tf_equal_residual_is_its_old_formula_bit_for_bit():
    for n1, d1, n2, d2 in _fold_cases():
        t1, t2 = RationalTF(n1, d1), RationalTF(n2, d2)
        old_residual, old_scale = _old_tf_residual(t1, t2)
        residual, scale = verify._identity_residual(
            t1.num, t2.den, -t2.num, t1.den, Polynomial.zero())
        assert residual.hex() == old_residual.hex()
        assert scale.hex() == old_scale.hex()
        assert tf_equal(t1, t2) == (
            old_residual <= verify.TF_EQUAL_RTOL * old_scale)


def test_loop_factorization_residual_is_its_old_formula_bit_for_bit():
    for loop, _, alpha, den in _fold_cases():
        old_residual, old_scale = _old_factorization_residual(loop, alpha, den)
        residual, scale = verify._identity_residual(
            loop, Polynomial.one(), -alpha, den, Polynomial.zero())
        assert residual.hex() == old_residual.hex()
        assert scale.hex() == old_scale.hex()


FINITE = "^polynomial coefficients must be finite$"


@pytest.mark.parametrize("a, b, c, d", [
    ([1.0], [1e200], [1e200], [1.0]),          # a product overflows
    ([1.7e308], [1.0], [-1.7e308], [1.0]),     # the difference overflows
], ids=["product", "difference"])
def test_folded_residuals_overflow_with_the_old_value_error(a, b, c, d):
    # a/b against c/d, and the loop a*d factored as c*b: the same difference
    a, b, c, d = map(Polynomial, (a, b, c, d))
    t1, t2 = RationalTF(a, b), RationalTF(c, d)
    with pytest.raises(ValueError, match=FINITE):
        _old_tf_residual(t1, t2)
    with pytest.raises(ValueError, match=FINITE):
        tf_equal(t1, t2)
    with pytest.raises(ValueError, match=FINITE):
        _old_factorization_residual(a * d, c, b)
    with pytest.raises(ValueError, match=FINITE):
        verify._identity_residual(a * d, Polynomial.one(), -c, b,
                                  Polynomial.zero())


def test_conversion_certificate_keeps_the_old_loop_factorization(
        pendulum, pre_controller):
    den, num = pendulum
    for cfg in (ConversionConfig(),
                ConversionConfig(alpha_ini_roots=CONVERSION_ALPHA_INI_ROOTS)):
        conv = convert_controller(pre_controller, den, num, cfg)
        t_pre = closed_loop_tf(den, num, pre_controller.den,
                               pre_controller.num_y, pre_controller.num_r)
        t_conv = closed_loop_tf(den, num, conv.den, conv.num_y, conv.num_r)
        residual, scale = _old_factorization_residual(t_conv.den, conv.alpha,
                                                      t_pre.den)
        cert = conv.certificate
        assert cert.witnesses["loop_factorization_residual"].hex() == (
            residual / scale).hex()
        assert cert.conditions["loop_factorization"] == (
            residual <= verify.IDENTITY_RTOL * scale)
        assert cert.conditions["tf_preserved"] == (
            _old_tf_residual(t_pre, t_conv)[0]
            <= verify.TF_EQUAL_RTOL * _old_tf_residual(t_pre, t_conv)[1])


def test_conversion_warns_of_a_loop_near_the_unit_circle():
    # plant 1/z under the controller (z, r^2) kept as it is: the loop
    # z^2 - r^2 has its roots +-r 1e-7 inside the unit circle
    r2 = (1.0 - 1e-7) ** 2
    pre = PreController(Z, Polynomial([r2]), Polynomial.one())
    conv = ConvertedController(Z, pre.num_y, pre.num_r, Polynomial.one(),
                               Polynomial.zero(), Z, None)
    cert = certify_conversion(Z, Polynomial.one(), pre, conv)
    assert cert.passed, cert.conditions
    assert cert.witnesses["closed_loop_spectral_radius"] == pytest.approx(1 - 1e-7)
    assert cert.warnings == ["closed-loop spectral radius 0.999999900 is "
                             "within the near-unit-circle band"]
