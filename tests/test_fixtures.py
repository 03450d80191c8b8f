"""The bundled fixture data must stay consistent with its documented story:
full-precision values whose rounding reproduces the commonly quoted form,
and a pre-designed loop that is genuinely stabilizing and tracking."""
import numpy as np
from numpy.testing import assert_allclose

from intctrl import closed_loop_poly, closed_loop_tf
from intctrl.numeric import schur_check
from intctrl.fixtures import pendulum_plant, pendulum_pre_controller


def test_plant_rounds_to_quoted_coefficients():
    den, num = pendulum_plant()
    assert_allclose(np.round(den.coeffs[::-1], 4),
                    [1.0, -4.0757, 6.1423, -4.0581, 0.9915])
    assert_allclose(np.round(num.coeffs[::-1], 4),
                    [0.0021, -0.0023, -0.0023, 0.0021])


def test_pre_controller_rounds_to_quoted_coefficients():
    pre = pendulum_pre_controller()
    assert_allclose(pre.den.coeffs[::-1],
                    [1.0, -2.8826, 0.1067, 0.4848, 3.8324, -2.5413])
    assert_allclose(np.round(pre.num_y.coeffs[::-1] / 1e3, 4),
                    [-1.556, 5.8219, -8.1324, 5.023, -1.1566])
    assert_allclose(pre.num_r.coeffs[::-1],
                    [-0.02, 0.0566, -0.0584, 0.0258, -0.0041])


def test_pre_designed_loop_is_stable_and_tracks():
    den, num = pendulum_plant()
    pre = pendulum_pre_controller()
    loop = closed_loop_poly(den, num, pre.den, pre.num_y)
    res = schur_check(loop)
    assert res.is_schur and res.spectral_radius < 0.99
    t = closed_loop_tf(den, num, pre.den, pre.num_y, pre.num_r)
    assert abs(t.num(1.0) / t.den(1.0) - 1.0) < 1e-4


def test_plant_is_open_loop_unstable():
    den, _ = pendulum_plant()
    assert not schur_check(den).is_schur
    assert schur_check(den).spectral_radius > 1.3
