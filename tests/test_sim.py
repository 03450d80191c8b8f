import io

import numpy as np
import pytest
from numpy.polynomial.polynomial import polydiv
from numpy.testing import assert_allclose

from intctrl import (Polynomial, RationalTF, StabilizationConfig,
                     closed_loop_poly, convert_controller, realize_controller,
                     realize_tf, run_algorithm1, simulate_loop)
from intctrl.converter import ConversionConfig
from intctrl.fixtures import (CONVERSION_ALPHA_INI_ROOTS,
                              PENDULUM_GAMMA_INI_ROOTS)
from intctrl.sim import (BLOCK_STEPS, DIVERGENCE_LIMIT, AlgebraicLoopError,
                         SimulationResult, StateSpace, _closed_loop,
                         write_trajectory_csv)


def test_realize_first_order():
    ss = realize_tf(RationalTF(Polynomial([1.0]), Polynomial([-0.5, 1.0])))
    assert_allclose(ss.A, [[0.5]])
    assert_allclose(ss.B, [[1.0]])
    assert_allclose(ss.C, [[1.0]])
    assert_allclose(ss.D, [[0.0]])


def test_realize_biproper_direct_term():
    # z / (z - 0.5) = 1 + 0.5/(z - 0.5)
    ss = realize_tf(RationalTF(Polynomial([0, 1.0]), Polynomial([-0.5, 1.0])))
    assert_allclose(ss.D, [[1.0]])
    assert_allclose(ss.C, [[0.5]])


def test_realize_companion_last_row():
    den = Polynomial([3.0, -2.0, 1.0, 1.0])
    ss = realize_tf(RationalTF(Polynomial([1.0]), den))
    assert_allclose(ss.A[-1], [-3.0, 2.0, -1.0])
    assert_allclose(ss.A[:-1, 1:], np.eye(2))


def _controllable_form(tf):
    """The controllable companion realization built directly: the oracle of
    realize_tf, which transposes the controller realization instead."""
    den = Polynomial(tf.den.coeffs / tf.den.leading)
    num = Polynomial(tf.num.coeffs / tf.den.leading)
    n = den.coeffs.size - 1
    d0, strict = 0.0, num
    if num.coeffs.size == den.coeffs.size:
        d0 = float(num.coeffs[-1])
        strict = num - d0 * den
    if n == 0:
        return (np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)),
                np.array([[d0]]))
    A = np.zeros((n, n))
    A[:-1, 1:] = np.eye(n - 1)
    A[-1, :] = -den.coeffs[:-1]
    B = np.zeros((n, 1))
    B[-1, 0] = 1.0
    C = np.zeros((1, n))
    C[0, : strict.coeffs.size] = strict.coeffs
    return A, B, C, np.array([[d0]])


def _random_tfs():
    rng = np.random.default_rng(26)
    for order in range(7):
        for num_size in range(order + 2):  # strictly proper, then biproper
            lead = float(rng.choice([1.0, -1.0, 2.5, -0.3, 1e-3]))
            den = np.append(rng.normal(size=order), lead)
            num = rng.normal(size=num_size)
            if num_size:
                num[-1] = float(rng.choice([1.0, -3.0, 0.7]))
            yield RationalTF(Polynomial(num), Polynomial(den))
    # integer monic, a constant and a zero numerator
    yield RationalTF(Polynomial([2.0, -1.0]), Polynomial([3.0, -2.0, 1.0, 1.0]))
    yield RationalTF(Polynomial([-4.0]), Polynomial([-2.0]))
    yield RationalTF(Polynomial.zero(), Polynomial([0.5, -1.5, 2.0]))


def test_realize_tf_matches_the_direct_controllable_form_bit_for_bit():
    for tf in _random_tfs():
        ss = realize_tf(tf)
        for got, want in zip((ss.A, ss.B, ss.C, ss.D), _controllable_form(tf)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_realize_rejects_improper():
    with pytest.raises(ValueError, match="transfer function must be proper"):
        realize_tf(RationalTF(Polynomial([0, 0, 1.0]), Polynomial([1.0, 1.0])))


def test_realize_rejects_zero_denominator():
    with pytest.raises(ValueError, match="denominator must be nonzero"):
        realize_tf(RationalTF(Polynomial([1.0]), Polynomial.zero()))
    with pytest.raises(ValueError, match="denominator must be nonzero"):
        realize_controller(Polynomial.zero(), Polynomial([1.0]),
                           Polynomial([1.0]))


def test_realize_controller_rejects_improper_channel():
    den = Polynomial([0.5, 1.0])
    for num_y, num_r in ((Polynomial([0, 0, 1.0]), Polynomial([1.0])),
                         (Polynomial([1.0]), Polynomial([0, 0, 2.0]))):
        with pytest.raises(ValueError, match="improper controller channel"):
            realize_controller(den, num_y, num_r)


def test_synthesized_controller_state_matrix_is_integer(pendulum):
    den, num = pendulum
    cfg = StabilizationConfig(gamma_ini_roots=PENDULUM_GAMMA_INI_ROOTS)
    result = run_algorithm1(den, num, cfg)
    ss = realize_tf(RationalTF(result.controller_num, result.controller_den))
    assert np.max(np.abs(ss.A - np.round(ss.A))) == 0.0
    # the companion row carries the integer coefficients of the denominator
    assert_allclose(sorted(set(np.round(ss.A[-1]).astype(int))),
                    sorted({0, 1, 13, 4, -10}))


def test_two_input_realization_matches_channel_tfs():
    # drive each input separately and compare against the SISO realization
    rng = np.random.default_rng(8)
    den = Polynomial([0.2, -0.7, 1.0])
    num_y = Polynomial([0.5, 1.5])
    num_r = Polynomial([1.0, 0.0, 2.0])  # biproper channel
    ctrl = realize_controller(den, num_y, num_r)
    assert np.max(np.abs(ctrl.A[:, 0] + [den.coeffs[1], den.coeffs[0]])) < 1e-14
    for chan, num in ((0, num_y), (1, num_r)):
        siso = realize_tf(RationalTF(num, den))
        x2 = np.zeros(ctrl.n_states)
        x1 = np.zeros(siso.n_states)
        for k in range(40):
            u = rng.normal()
            w = np.array([u, 0.0]) if chan == 0 else np.array([0.0, u])
            y2 = float((ctrl.C @ x2 + ctrl.D @ w)[0])
            y1 = float((siso.C @ x1)[0]) + siso.D[0, 0] * u
            assert abs(y1 - y2) < 1e-10
            x2 = ctrl.A @ x2 + ctrl.B @ w
            x1 = siso.A @ x1 + siso.B[:, 0] * u


def long_division_terms(num, den):
    """Direct term of ``num / den`` and the ascending taps of its strictly
    proper part over the monic denominator, by numpy's long division."""
    quo, rem = polydiv(num.coeffs if num.coeffs.size else np.zeros(1),
                       den.coeffs)
    assert quo.size == 1
    n = den.coeffs.size - 1
    taps = np.zeros(n)
    taps[: min(rem.size, n)] = rem[:n] / den.leading
    return quo[0], taps


def random_proper_pair(rng, kind):
    """A denominator with a leading coefficient other than 1 and a numerator
    of the given kind: strictly proper, biproper, zero, or both constant."""
    n = 0 if kind == "constant" else int(rng.integers(1, 9))
    lead = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 5.0)
    den = Polynomial(np.append(rng.normal(size=n), lead))
    size = {"strict": int(rng.integers(1, n + 1)) if n else 0,
            "biproper": n + 1, "zero": 0, "constant": 1}[kind]
    return Polynomial(rng.normal(size=size)), den


@pytest.mark.parametrize("kind", ["strict", "biproper", "zero", "constant"])
def test_direct_term_matches_long_division(kind):
    rng = np.random.default_rng(41)
    for _ in range(100):
        num, den = random_proper_pair(rng, kind)
        # the reference channel: any proper numerator, the zero one included
        other = Polynomial(rng.normal(size=int(rng.integers(den.coeffs.size + 1))))
        d0, taps = long_division_terms(num, den)
        scale = max(1.0, num.max_abs() / abs(den.leading),
                    abs(d0) * den.max_abs() / abs(den.leading))
        ss = realize_tf(RationalTF(num, den))
        assert_allclose(ss.D[0, 0], d0, rtol=1e-12, atol=1e-12 * scale)
        assert_allclose(ss.C[0], taps, rtol=1e-12, atol=1e-12 * scale)
        # the controller's channels: B holds the taps high power first
        ctrl = realize_controller(den, num, other)
        for j, chan in enumerate((num, other)):
            d0, taps = long_division_terms(chan, den)
            scale = max(1.0, chan.max_abs() / abs(den.leading),
                        abs(d0) * den.max_abs() / abs(den.leading))
            assert_allclose(ctrl.D[0, j], d0, rtol=1e-12, atol=1e-12 * scale)
            assert_allclose(ctrl.B[:, j], taps[::-1], rtol=1e-12,
                            atol=1e-12 * scale)


def test_sim_matches_difference_equation():
    # SISO loop-free simulation equals direct difference-equation evaluation
    rng = np.random.default_rng(19)
    for _ in range(10):
        den = Polynomial.from_roots([rng.uniform(-0.9, 0.9) for _ in range(3)])
        num = Polynomial(rng.normal(size=3))
        ss = realize_tf(RationalTF(num, den))
        steps = 100
        u = rng.normal(size=steps)
        # difference equation on ascending coefficients
        d = den.coeffs
        nn = np.zeros(4)
        nn[: num.coeffs.size] = num.coeffs
        y_ref = np.zeros(steps)
        for k in range(steps):
            acc = sum(nn[i] * (u[k - 3 + i] if 0 <= k - 3 + i else 0.0)
                      for i in range(4))
            acc -= sum(d[i] * (y_ref[k - 3 + i] if 0 <= k - 3 + i else 0.0)
                       for i in range(3))
            y_ref[k] = acc / d[3]
        x = np.zeros(3)
        y_ss = np.zeros(steps)
        for k in range(steps):
            y_ss[k] = float((ss.C @ x)[0]) + ss.D[0, 0] * u[k]
            x = ss.A @ x + ss.B[:, 0] * u[k]
        assert np.max(np.abs(y_ss - y_ref)) <= 1e-9 * (1 + np.max(np.abs(y_ref)))


def test_zero_everything_stays_zero(pendulum):
    den, num = pendulum
    plant = realize_tf(RationalTF(num, den))
    ctrl = realize_controller(Polynomial([1, 1]), Polynomial([0.5]),
                              Polynomial([0.25]))
    out = simulate_loop(plant, ctrl, 0.0, 200)
    assert not out.diverged
    assert np.max(np.abs(out.y)) == 0.0
    assert np.max(np.abs(out.u)) == 0.0


def test_converted_pendulum_tracks_reference(pendulum, pre_controller):
    den, num = pendulum
    cfg = ConversionConfig(alpha_ini_roots=CONVERSION_ALPHA_INI_ROOTS)
    conv = convert_controller(pre_controller, den, num, cfg)
    plant = realize_tf(RationalTF(num, den))
    ctrl = realize_controller(conv.den, conv.num_y, conv.num_r)
    out = simulate_loop(plant, ctrl, 2.0, 2500)
    assert not out.diverged
    assert np.max(np.abs(out.y[2000:] - 2.0)) <= 0.05
    # the pre-designed loop settles to the same reference
    pre_ctrl = realize_controller(pre_controller.den, pre_controller.num_y,
                                  pre_controller.num_r)
    out_pre = simulate_loop(plant, pre_ctrl, 2.0, 2500)
    assert np.max(np.abs(out_pre.y[2000:] - 2.0)) <= 0.05


def test_open_loop_divergence_flag(pendulum):
    # feed the unstable plant its reference directly (controller passes r
    # through, no feedback): the run must flag divergence, not overflow
    den, num = pendulum
    plant = realize_tf(RationalTF(num, den))
    ctrl = realize_controller(Polynomial([1.0]), Polynomial.zero(),
                              Polynomial([1.0]))
    out = simulate_loop(plant, ctrl, 1.0, 5000)
    assert out.diverged
    assert out.steps < 5000
    assert np.all(np.isfinite(out.y))


def test_divergence_iff_unstable_loop():
    # the simulated loop diverges exactly when the closed-loop polynomial
    # has spectral radius above one (instances near the circle skipped)
    from intctrl import closed_loop_poly
    from intctrl.bezout import solve_diophantine
    from intctrl.numeric import schur_check
    from conftest import random_roots
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 20:
        n = int(rng.integers(1, 4))
        den = Polynomial.from_roots(random_roots(rng, n, 1.4))
        num = Polynomial.from_roots(random_roots(rng, max(0, n - 1), 1.4),
                                    leading=float(rng.uniform(0.3, 1.0)))
        # random loop target: sometimes stable, sometimes not
        target = Polynomial.from_roots(random_roots(rng, 2 * n,
                                                    float(rng.uniform(0.6, 1.6))))
        try:
            ctrl_den = solve_diophantine(den, target, num).r
        except Exception:
            continue
        num_y, rem = map(Polynomial, polydiv(
            (target - ctrl_den * den).coeffs, num.coeffs))
        num_y = -num_y
        if rem.max_abs() > 1e-9 * max(1.0, target.max_abs()):
            continue
        loop = closed_loop_poly(den, num, ctrl_den, num_y)
        radius = schur_check(loop).spectral_radius
        if 0.999 <= radius <= 1.001 or radius > 2.0:
            continue
        plant = realize_tf(RationalTF(num, den))
        ctrl = realize_controller(ctrl_den, num_y, Polynomial([1.0]))
        out = simulate_loop(plant, ctrl, 1.0, 40000)
        assert out.diverged == (radius > 1.0), (radius, out.diverged)
        checked += 1


def test_algebraic_loop_detected():
    plant = realize_tf(RationalTF(Polynomial([0, 1.0]), Polynomial([-0.5, 1.0])))
    assert plant.D[0, 0] != 0.0
    ctrl = realize_controller(Polynomial([1, 1]), Polynomial([0, 1]),
                              Polynomial([1]))
    with pytest.raises(AlgebraicLoopError):
        simulate_loop(plant, ctrl, 1.0, 10)


def test_csv_export_format():
    plant = realize_tf(RationalTF(Polynomial([1.0]), Polynomial([-0.5, 1.0])))
    ctrl = realize_controller(Polynomial([1, 1]), Polynomial([0.1]),
                              Polynomial([0.2]))
    out = simulate_loop(plant, ctrl, 1.0, 5)
    buf = io.StringIO()
    write_trajectory_csv(buf, out)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "k,r,u,y"
    assert len(lines) == 6
    k, r, u, y = lines[1].split(",")
    assert k == "0" and float(r) == 1.0


def two_system_loop(plant, ctrl, reference, steps):
    """Reference simulator: plant and controller stepped as two systems from
    rest, one sample at a time, with simulate_loop's divergence limit 1e12."""
    dp = float(plant.D[0, 0])
    r_seq = np.broadcast_to(np.asarray(reference, dtype=float), (steps,))
    xp, xc = np.zeros(plant.n_states), np.zeros(ctrl.n_states)
    y, u = np.zeros(steps), np.zeros(steps)
    for k in range(steps):
        rk = r_seq[k]
        if dp == 0.0:
            yk = float((plant.C @ xp)[0])
            uk = float((ctrl.C @ xc + ctrl.D @ np.array([yk, rk]))[0])
        else:
            uk = float((ctrl.C @ xc + ctrl.D @ np.array([0.0, rk]))[0])
            yk = float((plant.C @ xp)[0]) + dp * uk
        y[k], u[k] = yk, uk
        if abs(yk) > 1e12 or not np.isfinite(yk):
            return y[: k + 1], u[: k + 1], True, k + 1
        xp = plant.A @ xp + plant.B[:, 0] * uk
        xc = ctrl.A @ xc + ctrl.B @ np.array([yk, rk])
    return y, u, False, steps


def _equivalence_cases():
    rng = np.random.default_rng(5)
    lag = realize_tf(RationalTF(Polynomial([0.4]), Polynomial([-0.8, 1.0])))
    # biproper plant (dp != 0) under a strictly proper feedback channel and a
    # biproper reference channel
    biproper = realize_tf(RationalTF(Polynomial([0.3, 1.0]),
                                     Polynomial([0.06, -0.5, 1.0])))
    strict_fb = realize_controller(Polynomial([-0.2, 1.0]), Polynomial([-0.3]),
                                   Polynomial([0.1, 1.0]))
    second = realize_controller(Polynomial([0.1, -0.3, 1.0]),
                                Polynomial([0.05, -0.2]),
                                Polynomial([0.0, 0.2, 0.5]))
    static = realize_controller(Polynomial([1.0]), Polynomial([-0.5]),
                                Polynomial([0.7]))
    # closed-loop pole at -1.05: |y| passes 1e12 a few blocks in
    unstable = realize_controller(Polynomial([1.0]), Polynomial([-4.625]),
                                  Polynomial([1.0]))
    return {
        "biproper-plant": (biproper, strict_fb, 1.5),
        "time-varying-reference": (lag, second, rng.normal(size=700)),
        "static-controller": (lag, static, np.sin(0.05 * np.arange(700))),
        "unstable-loop": (lag, unstable, 1.0),
    }


@pytest.mark.parametrize("case", sorted(_equivalence_cases()))
def test_matches_two_system_loop(case):
    plant, ctrl, reference = _equivalence_cases()[case]
    steps = 700
    out = simulate_loop(plant, ctrl, reference, steps)
    y, u, diverged, ref_steps = two_system_loop(plant, ctrl, reference, steps)
    assert (out.diverged, out.steps) == (diverged, ref_steps)
    assert out.diverged == (case == "unstable-loop")
    for got, want in ((out.y, y), (out.u, u)):
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))
    assert out.r.size == out.steps


def oracle_simulate_loop(plant, ctrl, reference, steps):
    """simulate_loop's earlier stepping, the bitwise reference: ``np.dot``
    for every product and a scan of each whole block for divergence."""
    ref = np.asarray(reference, dtype=float)
    r_seq = np.full(steps, float(ref)) if ref.ndim == 0 else ref
    ab, cy, cu = _closed_loop(plant, ctrl)
    n = ab.shape[0]
    w = np.zeros((BLOCK_STEPS + 1, n + 1))
    pairs = [(w[j], w[j + 1, :n]) for j in range(BLOCK_STEPS)]
    y = np.empty(steps)
    u = np.empty(steps)
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, steps, BLOCK_STEPS):
            m = min(BLOCK_STEPS, steps - k0)
            w[:m, n] = r_seq[k0:k0 + m]
            for z, z_next in pairs[:m]:
                np.dot(ab, z, out=z_next)
            np.dot(w[:m], cy, out=y[k0:k0 + m])
            np.dot(w[:m], cu, out=u[k0:k0 + m])
            bad = ~(np.abs(y[k0:k0 + m]) <= DIVERGENCE_LIMIT)
            if bad.any():
                k = k0 + int(bad.argmax())
                return SimulationResult(y[: k + 1], u[: k + 1],
                                        r_seq[: k + 1], True, k + 1)
            w[0, :n] = w[m, :n]
    return SimulationResult(y, u, r_seq[:steps], False, steps)


@pytest.fixture(scope="module")
def oracle_cases(pendulum, pre_controller):
    """Loops and horizons to replay against the oracle, by name."""
    den, num = pendulum
    plant = realize_tf(RationalTF(num, den))
    # the benchmark's pendulum-sim loops at seed 1
    stab = run_algorithm1(den, num, StabilizationConfig(
        gamma_ini_roots=PENDULUM_GAMMA_INI_ROOTS))
    loop = closed_loop_poly(den, num, stab.controller_den, stab.controller_num)
    prefilter = Polynomial([loop(1.0).real / num(1.0).real])
    refs = np.random.default_rng(1).uniform(0.5, 2.5, size=3)
    fixture = convert_controller(pre_controller, den, num, ConversionConfig(
        alpha_ini_roots=CONVERSION_ALPHA_INI_ROOTS))
    default = convert_controller(pre_controller, den, num)
    converted = realize_controller(fixture.den, fixture.num_y, fixture.num_r)
    cases = {
        "pendulum-stabilized": (plant, realize_controller(
            stab.controller_den, stab.controller_num, prefilter), refs[0], 1000),
        "pendulum-converted": (plant, converted, refs[1], 1000),
        "pendulum-sign-flipped": (plant, realize_controller(
            stab.controller_den, -stab.controller_num, prefilter), refs[2],
            1000),
        "conversion-fixture": (plant, converted, 2.0, 2500),
        "default-conversion": (plant, realize_controller(
            default.den, default.num_y, default.num_r), 1.0, 1000),
    }
    for name, (p, c, reference) in _equivalence_cases().items():
        cases[name] = p, c, reference, 700
    p, c, reference = _equivalence_cases()["time-varying-reference"]
    for steps in (0, 1, BLOCK_STEPS - 1, BLOCK_STEPS, BLOCK_STEPS + 1):
        cases[f"horizon-{steps}"] = p, c, reference, steps
    # the same lag plant under the gain 10: the closed-loop pole is at
    # 0.8 - 0.4 * 10 = -3.2, and |y| passes 1e12 at step 27
    static = realize_controller(Polynomial([1.0]), Polynomial([-10.0]),
                                Polynomial([1.0]))
    cases["diverges-in-first-block"] = p, static, 1.0, 1000
    return cases


ORACLE_CASES = [
    "pendulum-stabilized", "pendulum-converted", "pendulum-sign-flipped",
    "conversion-fixture", "default-conversion", *sorted(_equivalence_cases()),
    "horizon-0", "horizon-1", f"horizon-{BLOCK_STEPS - 1}",
    f"horizon-{BLOCK_STEPS}", f"horizon-{BLOCK_STEPS + 1}",
    "diverges-in-first-block"]


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_matches_oracle_bit_for_bit(case, oracle_cases):
    plant, ctrl, reference, steps = oracle_cases[case]
    got = simulate_loop(plant, ctrl, reference, steps)
    want = oracle_simulate_loop(plant, ctrl, reference, steps)
    assert (got.steps, got.diverged) == (want.steps, want.diverged)
    for a, b in zip(got[:3], want[:3]):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()
    if case == "diverges-in-first-block":
        assert got.diverged and got.steps < BLOCK_STEPS
    if case == "default-conversion":
        assert plant.n_states + ctrl.n_states == 82


@pytest.mark.parametrize("steps, reference, name", [
    (-3, 1.0, "steps"),
    (10, float("nan"), "reference"),
    (0, float("-inf"), "reference"),
    (10, np.r_[np.ones(9), np.inf], "reference"),
    (10, np.ones((10, 1)), "reference"),
    (2.5, 1.0, "steps"),
    # bool is an int, but not a step count
    (True, 1.0, "steps"),
    (False, 1.0, "steps"),
])
def test_rejects_negative_steps_and_non_finite_reference(steps, reference, name):
    plant = realize_tf(RationalTF(Polynomial([1.0]), Polynomial([-0.5, 1.0])))
    ctrl = realize_controller(Polynomial([1, 1]), Polynomial([0.1]),
                              Polynomial([0.2]))
    with pytest.raises(ValueError, match=name):
        simulate_loop(plant, ctrl, reference, steps)


def test_zero_dimensional_array_reference():
    plant = realize_tf(RationalTF(Polynomial([1.0]), Polynomial([-0.5, 1.0])))
    ctrl = realize_controller(Polynomial([1, 1]), Polynomial([0.1]),
                              Polynomial([0.2]))
    out = simulate_loop(plant, ctrl, np.array(2.0), 300)
    assert_allclose(out.r, np.full(300, 2.0))
    assert out.y.tobytes() == simulate_loop(plant, ctrl, 2.0, 300).y.tobytes()


def test_memory_is_linear_in_steps_not_in_states():
    # y, u and r take 8 bytes per step each; storing every state of this
    # 21-state loop would take 168 more
    import tracemalloc
    plant = realize_tf(RationalTF(Polynomial([1.0]), Polynomial([-0.5, 1.0])))
    ctrl = realize_controller(Polynomial.from_roots([0.0] * 20),
                              Polynomial([0.1]), Polynomial([0.2]))
    steps = 100_000
    tracemalloc.start()
    try:
        out = simulate_loop(plant, ctrl, 1.0, steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.steps == steps and not out.diverged
    assert peak <= 3 * 8 * steps + 200_000


@pytest.mark.parametrize("A, B, C, D, message", [
    (np.zeros((2, 3)), np.zeros((2, 1)), np.zeros((1, 3)), 0.0,
     "A must be square"),
    (np.eye(2), np.zeros((3, 1)), np.zeros((1, 2)), 0.0,
     "B/C dimensions inconsistent with A"),
    (np.eye(2), np.zeros((2, 1)), np.zeros((1, 3)), 0.0,
     "B/C dimensions inconsistent with A"),
    (np.eye(2), np.zeros((2, 1)), np.zeros((1, 2)), np.zeros((1, 2)),
     "D dimensions inconsistent with B and C"),
], ids=["A", "B", "C", "D"])
def test_state_space_rejects_inconsistent_shapes(A, B, C, D, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        StateSpace(A, B, C, D)


@pytest.mark.parametrize("inputs, outputs", [(2, 1), (1, 2)])
def test_simulate_loop_requires_a_siso_plant(inputs, outputs):
    plant = StateSpace(np.eye(1) * 0.5, np.ones((1, inputs)),
                       np.ones((outputs, 1)), np.zeros((outputs, inputs)))
    controller = realize_controller(Polynomial([0.1, 1.0]), Polynomial([0.2]),
                                    Polynomial([1.0]))
    with pytest.raises(ValueError, match="^plant must be SISO$"):
        simulate_loop(plant, controller, 1.0, 10)
