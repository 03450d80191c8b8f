import numpy as np
import pytest
from numpy.testing import assert_allclose

from intctrl import (NotCoprimeError, Polynomial, StabilizationConfig,
                     SynthesisError, TargetSearchConfig, closed_loop_poly,
                     make_gamma_ini, preprocess_plant, run_algorithm1,
                     schur_check, stabilize_proper, Tolerances, vec_1norm)
from intctrl.fixtures import PENDULUM_GAMMA_INI_ROOTS

from conftest import well_posed_plant

Z = Polynomial([0, 1])


def pendulum_config(**kw):
    return StabilizationConfig(gamma_ini_roots=PENDULUM_GAMMA_INI_ROOTS,
                               mu=0.99,
                               target=TargetSearchConfig(mode="round"), **kw)


def test_preprocess_strips_powers_of_z():
    den = Polynomial.from_roots([0.5, -0.5, 0.1])
    num = Polynomial([0, 0, 2, 1])  # z^2 (z + 2)
    plant = preprocess_plant(den, num)
    assert plant.power_shift == 2
    assert_allclose(plant.num.coeffs, [2, 1])


def test_preprocess_identity_for_clean_plant():
    den = Polynomial.from_roots([0.5, -0.25])
    num = Polynomial([1.0, 0.5])
    plant = preprocess_plant(den, num)
    assert plant.power_shift == 0 and plant.scale == 1.0
    assert plant.den == den and plant.num == num


def test_preprocess_normalizes_leading():
    den = Polynomial([1.0, -3.0, 2.0])  # leading 2
    num = Polynomial([4.0])
    plant = preprocess_plant(den, num)
    assert plant.scale == 2.0
    assert plant.den.is_monic()
    assert_allclose(plant.num.coeffs, [2.0])


def test_preprocess_pendulum(pendulum):
    den, num = pendulum
    plant = preprocess_plant(den, num)
    assert plant.power_shift == 0
    assert plant.scale == 1.0
    assert abs(plant.num(0.0)) > 1e-3 * plant.num.max_abs()


def test_preprocess_rejects_improper():
    with pytest.raises(ValueError):
        preprocess_plant(Z, Polynomial([0, 0, 1]))


def test_preprocess_rejects_common_factor():
    den = Polynomial.from_roots([0.5, 0.7])
    num = Polynomial.from_roots([0.5])
    with pytest.raises(NotCoprimeError):
        preprocess_plant(den, num)


def test_gamma_ini_default_is_monomial():
    assert make_gamma_ini(2, Polynomial([1.0])) == Polynomial.monomial(4)


def test_gamma_ini_expands_roots():
    # (z-0.5)(z+0.5) z^2 = z^4 - 0.25 z^2
    out = make_gamma_ini(2, Polynomial([1.0]), roots=[0.5, -0.5, 0.0, 0.0])
    assert_allclose(out.coeffs, [0, 0, -0.25, 0, 1], atol=1e-15)


def test_gamma_ini_pendulum_roots(pendulum):
    _, num = pendulum
    gamma = make_gamma_ini(4, num, PENDULUM_GAMMA_INI_ROOTS)
    assert gamma.coeffs.size - 1 == 8
    assert gamma.is_monic()
    assert schur_check(gamma).is_schur


def test_gamma_ini_validates():
    with pytest.raises(ValueError):
        make_gamma_ini(2, Polynomial([1.0]), roots=[0.5, -0.5])  # count
    with pytest.raises(ValueError):
        make_gamma_ini(1, Polynomial([1.0]), roots=[1.1, 0.0])  # not Schur
    with pytest.raises(NotCoprimeError):
        make_gamma_ini(1, Polynomial.from_roots([0.5]), roots=[0.5, 0.0])


def test_trivial_integrator_plant():
    # plant 1/z: the default initialization is already integer, so the loop
    # never runs and the controller is den = z, num = 0
    result = run_algorithm1(Z, Polynomial.one())
    assert result.iterations == 0
    assert result.alpha == Z
    assert result.beta.is_zero
    assert result.gamma == Polynomial.monomial(2)
    assert result.certificate.passed


def test_pendulum_run(pendulum):
    den, num = pendulum
    result = run_algorithm1(den, num, pendulum_config(verify_invariant=True))
    # single steering step that lands exactly on the integer target
    assert result.iterations == 1
    assert result.trace[0].hit
    assert_allclose(result.x_star, [-1, -13, -4, 10])
    assert np.array_equal(result.trace[0].x, result.x_star)
    # alpha carries the iteration's power of z: z^4 * (integer quartic)
    assert_allclose(result.alpha.coeffs, [0, 0, 0, 0, 10, -4, -13, -1, 1])
    assert result.power_shift == 4
    assert result.certificate.passed
    # the closed loop equals gamma (times the already-unit scale)
    cl = closed_loop_poly(den, num, result.controller_den, result.controller_num)
    assert cl.allclose(result.gamma, 1e-8)
    assert 0.9681 <= schur_check(cl).spectral_radius <= 0.9721


def test_pendulum_gamma_growth(pendulum):
    den, num = pendulum
    result = run_algorithm1(den, num, pendulum_config())
    # degree 2n + k*n with n = 4, k = 1
    assert result.gamma.coeffs.size - 1 == 12
    assert result.gamma.is_monic()
    assert schur_check(result.gamma).is_schur


def test_identity_holds_every_iteration():
    # force a few iterations by a plant whose initialization is far from
    # integer, then check the identity and input bounds along the trace
    den = Polynomial.from_roots([1.1, -0.3, 0.6])
    num = Polynomial.from_roots([0.4, -0.9], leading=0.7)
    result = run_algorithm1(den, num, StabilizationConfig(verify_invariant=True))
    assert result.certificate.passed
    for step in result.trace:
        assert vec_1norm(step.u) < 1.0
    assert result.trace[-1].hit
    # final state reached the target exactly
    assert np.array_equal(result.trace[-1].x, result.x_star)


def test_fuzz_certificates(tmp_path):
    rng = np.random.default_rng(314)
    for _ in range(30):
        den, num = well_posed_plant(rng)
        result = run_algorithm1(den, num,
                                StabilizationConfig(verify_invariant=True))
        cert = result.certificate
        assert cert.passed, (den, num, cert.conditions, cert.witnesses)
        for step in result.trace:
            assert vec_1norm(step.u) < 1.0


def test_iteration_cap_raises():
    den = Polynomial.from_roots([1.1, -0.3, 0.6])
    num = Polynomial.from_roots([0.4, -0.9], leading=0.7)
    base = run_algorithm1(den, num, StabilizationConfig())
    assert base.iterations >= 2
    with pytest.raises(SynthesisError):
        run_algorithm1(den, num, StabilizationConfig(max_iterations=1))


def test_scaled_plant_certificate():
    # non-monic denominator: the certificate is against the normalized pair
    den = 2.0 * Polynomial.from_roots([0.5, -0.5])
    num = Polynomial([1.0, 0.2])
    result = run_algorithm1(den, num)
    assert result.plant.scale == 2.0
    assert result.certificate.passed
    # closed loop of the original plant is gamma scaled by the leading coeff
    cl = closed_loop_poly(den, num, result.controller_den, result.controller_num)
    assert cl.allclose(2.0 * result.gamma, 1e-9)


def test_numerator_z_power_lifting():
    # num = z^2 (z + 2): solution is lifted back by z^2 and stays valid
    den = Polynomial.from_roots([0.5, -0.5, 0.1, 0.9])
    num = Polynomial([0, 0, 2, 1])
    result = run_algorithm1(den, num)
    assert result.plant.power_shift == 2
    assert result.certificate.passed
    resid = (result.alpha * den + result.beta * num - result.gamma).max_abs()
    assert resid <= 1e-8 * max(1.0, result.gamma.max_abs())


def test_stabilize_proper_monomial_factor():
    den = Polynomial.from_roots([0.5, 1.2])  # den(0) != 0
    num = Polynomial([1.0])
    ctrl_den, ctrl_num, result = stabilize_proper(den, num, Z)
    assert result.certificate.passed
    assert ctrl_num.coeffs.size <= ctrl_den.coeffs.size


def test_stabilize_proper_shared_root_rejected():
    den = Polynomial.from_roots([0.5, 1.2])
    with pytest.raises(NotCoprimeError):
        stabilize_proper(den, Polynomial([1.0]), Polynomial.from_roots([0.5]))


def test_stabilize_proper_pendulum(pendulum):
    den, num = pendulum
    factor = Polynomial([2, 1])  # z + 2
    ctrl_den, ctrl_num, result = stabilize_proper(den, num, factor)
    assert result.certificate.passed
    # proper with equality: numerator degree reaches the denominator's
    assert ctrl_num.coeffs.size == ctrl_den.coeffs.size
    cl = closed_loop_poly(den, num, ctrl_den, ctrl_num)
    assert schur_check(cl).is_schur


def test_prefer_origin_flag():
    # a plant whose geometry admits the all-zero target yields a controller
    # with every pole at the origin
    den = Polynomial.from_roots([1.05, -0.2])
    num = Polynomial([1.0, 0.3])
    cfg = StabilizationConfig(target=TargetSearchConfig(prefer_origin=True))
    result = run_algorithm1(den, num, cfg)
    assert result.certificate.passed
    if np.all(result.x_star == 0):
        roots = np.abs(np.roots(result.alpha.descending()))
        assert np.max(roots, initial=0.0) == 0.0


@pytest.mark.parametrize("value", [-1e-12, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("name", ["residual", "coprime", "schur_margin"])
def test_tolerances_reject_negative_or_non_finite(name, value):
    with pytest.raises(ValueError, match=f"tolerance {name}"):
        Tolerances(**{name: value})


def test_tolerances_accept_zero():
    assert Tolerances(residual=0.0, trim=0.0).residual == 0.0
