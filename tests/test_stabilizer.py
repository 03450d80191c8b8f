import re
from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_allclose

from intctrl import (ConversionConfig, NotCoprimeError, Polynomial,
                     StabilizationConfig, SynthesisError, closed_loop_poly,
                     convert_controller, numeric, run_algorithm1, stabilizer)
from intctrl.fixtures import (CONVERSION_ALPHA_INI_ROOTS,
                              PENDULUM_GAMMA_INI_ROOTS)
from intctrl.bezout import coprime_check
from intctrl.numeric import schur_check, vec_1norm
from intctrl.poly import monic_from_vector
from intctrl.stabilizer import make_gamma_ini, preprocess_plant, steer
from intctrl.target import InconsistentActiveSetError

from conftest import (invariant_breach, random_roots, sweep_plant,
                      well_posed_plant)

Z = Polynomial([0, 1])


def pendulum_config(**kw):
    return StabilizationConfig(gamma_ini_roots=PENDULUM_GAMMA_INI_ROOTS,
                               mu=0.99, **kw)


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
    gamma, base = make_gamma_ini(2, Polynomial([1.0]))
    assert gamma == Polynomial.monomial(4)
    assert base == 4


def test_gamma_ini_expands_roots():
    # (z-0.5)(z+0.5) z^2 = z^4 - 0.25 z^2
    out, base = make_gamma_ini(2, Polynomial([1.0]), roots=[0.5, -0.5, 0.0, 0.0])
    assert_allclose(out.coeffs, [0, 0, -0.25, 0, 1], atol=1e-15)
    # the proof base is the root tuple the expansion read, as complex numbers
    assert base == (0.5 + 0j, -0.5 + 0j, 0j, 0j)
    assert all(type(r) is complex for r in base)


def test_gamma_ini_pendulum_roots(pendulum):
    _, num = pendulum
    gamma, _ = make_gamma_ini(4, num, PENDULUM_GAMMA_INI_ROOTS)
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


def test_initial_root_check_names_the_shared_root_and_passes_the_fixtures(
        pendulum):
    # the numerator's root inside the unit circle, exactly or within the
    # tolerance, is rejected by name; 1e-6 away it passes, as the fixture
    # roots do, and the factor is the cached expansion of the roots
    _, num = pendulum
    [inside] = [r for r in numeric.poly_roots(num).tolist() if abs(r) < 0.9]
    for root in (inside, inside * (1 + 1e-12)):
        roots = (complex(root), 0j)
        with pytest.raises(NotCoprimeError, match="^" + re.escape(
                f"initial factor root {complex(root):.6g} is a root of the "
                "numerator (|num(r)| ")):
            stabilizer.schur_factor(roots, num)
    roots = (complex(inside + 1e-6), 0j)
    assert stabilizer.schur_factor(roots, num).coeffs.tobytes() == \
        numeric._expanded_roots(roots)[0].tobytes()
    for roots in (PENDULUM_GAMMA_INI_ROOTS, CONVERSION_ALPHA_INI_ROOTS):
        factor = stabilizer.schur_factor(roots, num)
        assert factor.coeffs.tobytes() == numeric._expanded_roots(roots)[0].tobytes()


@pytest.mark.parametrize("delta, shared", [(0.9e-8, True), (1.1e-8, False)])
@pytest.mark.parametrize("scale", [1.0, 4.0, 2.0 ** -1050])
def test_initial_root_check_at_the_threshold(delta, shared, scale):
    # num = scale * (z - 0.5) at r = 0.5 + delta: |num(r)| = delta against
    # COPRIME_TOL * (0.5 + |r|), about 1e-8, whatever the scale; a subnormal
    # one (a power of two, so scaling to unit maximum is exact) would
    # underflow both sides of the test on the unscaled coefficients
    num = Polynomial([-0.5 * scale, scale])
    roots = (complex(0.5 + delta), 0j)
    if shared:
        with pytest.raises(NotCoprimeError):
            stabilizer.schur_factor(roots, num)
    else:
        stabilizer.schur_factor(roots, num)


def test_initial_root_check_agrees_with_the_sylvester_verdict():
    # random numerators and random Schur root lists, half of them holding a
    # numerator root (exactly, or 1e-12 relative away): the verdict at the
    # given roots is the Sylvester verdict on the expanded factor wherever
    # the Sylvester quality lies outside a factor 100 of COPRIME_TOL
    rng = np.random.default_rng(321)
    verdicts, near = Counter(), 0
    for _ in range(400):
        num = Polynomial.from_roots(
            random_roots(rng, int(rng.integers(0, 7)), 1.5),
            leading=rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0]))
        roots = random_roots(rng, int(rng.integers(1, 9)), 0.65)
        inside = [complex(r) for r in numeric.poly_roots(num).tolist()
                  if abs(r) < 0.9] if num.coeffs.size > 1 else []
        if inside and rng.random() < 0.5:
            r = inside[int(rng.integers(len(inside)))] * (1 + rng.choice([0.0, 1e-12]))
            roots += [r, r.conjugate()] if r.imag else [r]
        roots = tuple(complex(r) for r in roots)
        try:
            stabilizer.schur_factor(roots, num)
            coprime = True
        except NotCoprimeError:
            coprime = False
        sylvester = coprime_check(Polynomial(numeric._expanded_roots(roots)[0]), num)
        if 1e-10 < sylvester.quality < 1e-6:
            near += 1
            continue
        assert coprime is sylvester.coprime, (roots, num, sylvester)
        verdicts[coprime] += 1
    assert near <= 8 and verdicts[True] > 150 and verdicts[False] > 100, (near, verdicts)


def test_gamma_ini_rejects_roots_not_closed_under_conjugation():
    # the second call finds the expansion cached and must still reject it
    for _ in range(2):
        with pytest.raises(ValueError, match="conjugation"):
            make_gamma_ini(1, Polynomial([1.0]), roots=[0.5j, 0.1])


def test_root_expansion_is_read_only_and_shared_with_the_proof(pendulum):
    # schur_factor expands the initial roots and the Schur proof of gamma
    # reads the same cache entry
    numeric._expansion.cache_clear()
    assert run_algorithm1(*pendulum, pendulum_config()).certificate.passed
    info = numeric._expansion.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    prod, _, _ = numeric._expanded_roots(PENDULUM_GAMMA_INI_ROOTS)
    assert not prod.flags.writeable
    with pytest.raises(ValueError):
        prod[0] = 0.0


def test_root_expansion_keys_on_the_bytes_of_the_roots():
    # complex(0.0) == complex(-0.0), with equal hashes: a key of complex
    # numbers would hand the list with -0.0 the entry of the list with 0.0
    with_zero = (0.5, 0.0, 0.3 + 0.4j, 0.3 - 0.4j)
    with_negative_zero = (0.5, complex(-0.0, -0.0), 0.3 + 0.4j, 0.3 - 0.4j)
    assert with_zero == with_negative_zero
    numeric._expansion.cache_clear()
    cold = numeric._expanded_roots(with_negative_zero)
    numeric._expansion.cache_clear()
    numeric._expanded_roots(with_zero)
    warm = numeric._expanded_roots(with_negative_zero)
    assert numeric._expansion.cache_info().misses == 2
    assert warm[0].tobytes() == cold[0].tobytes() and warm[1:] == cold[1:]


def test_fixture_roots_give_the_same_bytes_with_a_cold_and_a_warm_cache(
        pendulum, pre_controller):
    def run():
        stab = run_algorithm1(*pendulum, pendulum_config())
        conv = convert_controller(pre_controller, *pendulum, ConversionConfig(
            alpha_ini_roots=CONVERSION_ALPHA_INI_ROOTS))
        polys = (stab.alpha, stab.beta, stab.gamma, conv.den, conv.num_y,
                 conv.num_r, conv.alpha, conv.beta)
        return ([p.coeffs.tobytes() for p in polys],
                repr(stab.certificate.to_dict()),
                repr(conv.certificate.to_dict()))

    numeric._expansion.cache_clear()
    cold = run()
    assert numeric._expansion.cache_info().misses == 2
    assert run() == cold
    assert numeric._expansion.cache_info().misses == 2


def test_trivial_integrator_plant():
    # plant 1/z: the default initialization is already integer, so the loop
    # never runs and the controller is den = z, num = 0
    result = run_algorithm1(Z, Polynomial.one())
    assert result.iterations == 0
    assert result.alpha == Z
    assert result.beta.is_zero
    assert result.gamma == Polynomial.monomial(2)
    assert result.certificate.passed


def assert_invariant_kept(steer_calls):
    assert steer_calls
    for args, out in steer_calls:
        assert invariant_breach(args, out[4], Polynomial.one()) is None


def test_pendulum_run(pendulum, steer_calls):
    den, num = pendulum
    result = run_algorithm1(den, num, pendulum_config())
    assert_invariant_kept(steer_calls)
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


@pytest.mark.parametrize("roots", [PENDULUM_GAMMA_INI_ROOTS, None],
                         ids=["fixture-roots", "default"])
def test_certificate_gets_the_base_that_built_gamma(pendulum, monkeypatch,
                                                     roots):
    # the stabilization counterpart of the conversion's factors.base check:
    # the proof must read the initial factor as make_gamma_ini expanded it
    seen = []
    original = stabilizer.certify_stabilization

    def certify(*args, **kwargs):
        seen.append(kwargs["factors"])
        return original(*args, **kwargs)

    monkeypatch.setattr(stabilizer, "certify_stabilization", certify)
    den, num = pendulum
    result = run_algorithm1(den, num, StabilizationConfig(gamma_ini_roots=roots))
    assert result.certificate.passed
    [factors] = seen
    if roots is None:
        assert factors.base == 8  # z^(2n), n = 4
    else:
        assert factors.base == tuple(complex(r) for r in roots)
        assert all(type(r) is complex for r in factors.base)


def test_identity_holds_every_iteration(steer_calls):
    # force a few iterations by a plant whose initialization is far from
    # integer, then check the identity and input bounds along the trace
    den = Polynomial.from_roots([1.1, -0.3, 0.6])
    num = Polynomial.from_roots([0.4, -0.9], leading=0.7)
    result = run_algorithm1(den, num)
    assert result.iterations >= 2
    assert_invariant_kept(steer_calls)
    assert result.certificate.passed
    for step in result.trace:
        assert vec_1norm(step.u) < 1.0
    assert result.trace[-1].hit
    # final state reached the target exactly
    assert np.array_equal(result.trace[-1].x, result.x_star)


def test_fuzz_certificates(steer_calls):
    rng = np.random.default_rng(314)
    for _ in range(30):
        den, num = well_posed_plant(rng)
        result = run_algorithm1(den, num)
        cert = result.certificate
        assert cert.passed, (den, num, cert.conditions, cert.witnesses)
        for step in result.trace:
            assert vec_1norm(step.u) < 1.0
    assert len(steer_calls) == 30
    assert_invariant_kept(steer_calls)


def test_marginal_plant_is_warned_about_once():
    # a numerator root 3e-6 from a pole: quality about 4.4e-7, under the
    # certificate's 1e-6 warning level and above the 1e-8 rejection level
    den = Polynomial.from_roots([1.2, 0.5])
    num = Polynomial.from_roots([0.5 + 3e-6])
    result = run_algorithm1(den, num)
    assert 1e-8 < preprocess_plant(den, num).quality < 1e-6
    assert result.certificate.passed
    marginal = [w for w in result.warnings if "marginal" in w]
    assert marginal == [w for w in result.certificate.warnings
                        if "marginal" in w]
    assert len(marginal) == 1
    assert marginal[0].startswith("plant coprimality quality")


def test_iteration_cap_raises():
    # sweep plant 0 (n = 8, its target round(x0) within 1-norm distance 2)
    # is still 1.8e-3 short of it after the derived cap of 30 steps
    den, num = sweep_plant(0)
    with pytest.raises(SynthesisError) as exc:
        run_algorithm1(den, num)
    assert str(exc.value) == (
        "iteration cap 30 = 10*ceil(|x* - x0|_1) + 10 exceeded at distance "
        "1.796e-03 (target strategy 'round')")


def test_scaled_plant_certificate():
    # non-monic denominator: the certificate is against the normalized pair
    den = 2.0 * Polynomial.from_roots([0.5, -0.5])
    num = Polynomial([1.0, 0.2])
    result = run_algorithm1(den, num)
    assert preprocess_plant(den, num).scale == 2.0
    assert result.certificate.passed
    # closed loop of the original plant is gamma scaled by the leading coeff
    cl = closed_loop_poly(den, num, result.controller_den, result.controller_num)
    assert cl.allclose(2.0 * result.gamma, 1e-9)


def test_numerator_z_power_lifting():
    # num = z^2 (z + 2): solution is lifted back by z^2 and stays valid
    den = Polynomial.from_roots([0.5, -0.5, 0.1, 0.9])
    num = Polynomial([0, 0, 2, 1])
    result = run_algorithm1(den, num)
    assert preprocess_plant(den, num).power_shift == 2
    assert result.certificate.passed
    resid = (result.alpha * den + result.beta * num - result.gamma).max_abs()
    assert resid <= 1e-8 * max(1.0, result.gamma.max_abs())


def test_steer_warns_about_planes_vanishing_at_x0():
    # num = z^2 + 1: the polynomial z^2 + 3 of x0 = [0, 3] is real at z = i,
    # so the imaginary-part row of the conjugate pair leaves the search
    num = Polynomial([1.0, 0.0, 1.0])
    den = Polynomial([0.0, -0.5, 1.0])
    x0 = np.array([0.0, 3.0])
    gamma = den * monic_from_vector(x0)
    *_, x_star, _, trace, warnings, steps = steer(
        den, gamma, 0, num, x0, Polynomial.zero(), StabilizationConfig())
    assert np.array_equal(x_star, x0) and trace == []
    assert steps.shape == (0, 3)
    assert warnings == ["hyperplane functional(s) [1] vanish at the initial "
                        "vector and are excluded from the same-side "
                        "constraints"]


def test_steer_overflowing_factor_product_is_a_synthesis_error():
    # one step z + u0 with 0.06 < |u0| < 1 takes the initial factor's
    # coefficient 1.7e308 (1 + u0) or 1.7e308 (1 - u0) past the float range:
    # a numerical breakdown of the synthesis (exit 3), not invalid input
    big = 1.7e308
    factor = Polynomial([big, big, -big, 1.0])
    args = (Polynomial([-0.5, 1.0]), factor, 0, Polynomial([2.0]),
            np.array([0.4]), Polynomial.zero(), StabilizationConfig())
    with pytest.raises(SynthesisError, match="1 Schur factors or its "
                       "cofactor overflowed"):
        steer(*args)
    # the same run from the factor 1, and the step row it returns
    *_, trace, _, steps = steer(args[0], Polynomial.one(), *args[2:])
    assert len(trace) == 1 and 0.06 < abs(trace[0].u[0]) < 1.0
    assert steps.tolist() == [[trace[0].u[0], 1.0]]



@pytest.mark.parametrize("index", [10, 38, 178, 275])
def test_sweep_plants_that_broke_down_in_the_closing_solve_certify(
        index, steer_calls):
    # a dense closing solve of the final reduction raised NotCoprimeError on
    # plants 10, 38 and 178, and returned a quotient off the integer target
    # on plant 275; the carried cofactor needs no such solve
    den, num = sweep_plant(index)
    result = run_algorithm1(den, num)
    assert result.certificate.passed, result.certificate.conditions
    (args, out), = steer_calls
    assert invariant_breach(args, out[4], Polynomial.one()) is None


def test_sweep_plant_whose_initial_residual_met_its_scale_certifies():
    # the initial solve's residual of 1.2e-10 raised NotCoprimeError at the
    # scale max(1, |gamma_ini|) = 1; at the scale of the products it meets
    # the bound, and the synthesis certifies
    result = run_algorithm1(*sweep_plant(396))
    assert result.certificate.passed, result.certificate.conditions
    assert result.iterations == 17


def test_sweep_plant_past_its_initial_solve_meets_a_plane_through_x0():
    # the initial solve's residual of 4.7e-10 raised NotCoprimeError at
    # scale 1; past the solve, a real-root plane passes through x0
    with pytest.raises(InconsistentActiveSetError):
        run_algorithm1(*sweep_plant(133))
