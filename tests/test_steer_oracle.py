"""Bitwise oracles for the array-based steering loop and its kernels.

``oracle_steer`` is the steering loop written on ``Polynomial`` objects:
each step multiplies ``monic_from_vector(u)`` into the factor product and
builds the update matrix from ``toeplitz_stack(monic_from_vector(x))``,
and it updates the cofactor inside the loop.  ``stabilizer.steer`` gathers
the update matrix from a precomputed index and multiplies the factors and
accumulates the cofactor after the loop; both must make the same
floating-point operations in the same order, so every output is compared
byte for byte.
"""
import numpy as np
import pytest
from scipy.linalg.lapack import dtrtrs

from intctrl import (ConversionConfig, Polynomial, StabilizationConfig,
                     run_algorithm1, stabilizer)
from intctrl.bezout import _sylvester
from intctrl.converter import run_algorithm2
from intctrl.fixtures import (CONVERSION_ALPHA_INI_ROOTS,
                              PENDULUM_GAMMA_INI_ROOTS)
from intctrl.numeric import vec_1norm
from intctrl.poly import monic_from_vector, toeplitz_stack
from intctrl.stabilizer import SynthesisError, TraceStep
from intctrl.target import (active_index_set, build_hyperplanes, control_input,
                            delta_matrix, find_integer_target)

from conftest import invariant_breach, random_plant, sweep_plant


def oracle_delta_matrix(x, T):
    n = T.shape[1]
    Tm = toeplitz_stack(monic_from_vector(x), n)
    lower, info = dtrtrs(T[n:].T, Tm[n:], lower=1, trans=1)
    assert info == 0
    delta = Tm[:n] - T[:n] @ lower
    return delta, lower


def oracle_steer(p, factor, shift, num, x0, s0, cfg):
    n = x0.size
    warnings = []
    planes = build_hyperplanes(num, n)
    active = active_index_set(x0, planes)
    if len(active.index) < planes.offsets.size:
        skipped = sorted(set(range(planes.offsets.size)) - set(active.index))
        warnings.append(
            f"hyperplane functional(s) {skipped} vanish at the initial vector "
            "and are excluded from the same-side constraints")
    found = find_integer_target(x0, num, active)
    x_star = found.x_star
    cap = 10 * int(np.ceil(vec_1norm(x_star - x0))) + 10
    T = toeplitz_stack(num, n)
    trace = []
    # the cofactor's coefficients below z^(shift + n), as steer pads them
    s = np.concatenate([s0.coeffs, np.zeros(shift + n - s0.coeffs.size)])
    # the product as a bare array: an overflow ends the run, not the step
    prod = factor.coeffs
    steps = np.ones((0, n + 1))
    x = x0.copy()
    while not np.array_equal(x, x_star):
        k = len(trace)
        if k >= cap:
            raise SynthesisError(
                f"iteration cap {cap} = 10*ceil(|x* - x0|_1) + 10 exceeded "
                f"at distance {vec_1norm(x_star - x):.3e} (target strategy "
                f"'{found.strategy}')")
        delta, lower = oracle_delta_matrix(x, T)
        step = control_input(x, x_star, delta, cfg.mu)
        f = monic_from_vector(step.u)
        prod = np.convolve(f.coeffs, prod)
        steps = np.vstack([steps, f.coeffs])
        # s' = f s + z^shift p a, a = lower u
        s = np.convolve(f.coeffs, s)
        lift = np.convolve(p.coeffs, (lower @ step.u)[::-1])
        s[shift : shift + lift.size] += lift
        shift += n
        x = x_star.copy() if step.hit else x + delta @ step.u
        trace.append(TraceStep(k, x.copy(), step.u.copy(), step.hit,
                               prod.size - 1, vec_1norm(x_star - x)))
    if not (np.isfinite(prod).all() and np.isfinite(s).all()):
        raise SynthesisError(f"the product of {len(trace)} Schur factors or "
                             "its cofactor overflowed")
    return Polynomial(prod), shift, x_star, Polynomial(s), trace, warnings, steps


def fingerprint(run):
    """Bytes of every output of a steering call, or its exception."""
    if isinstance(run, Exception):
        return type(run), str(run)
    factor, shift, x_star, s, trace, warnings, rows = run
    steps = [(t.k, t.x.tobytes(), t.u.tobytes(), t.hit, t.gamma_degree,
              t.distance) for t in trace]
    return (factor.coeffs.tobytes(), shift, x_star.tobytes(),
            s.coeffs.tobytes(), steps, tuple(warnings), rows.dtype.str,
            rows.shape, rows.tobytes())


def assert_matches_oracle(calls):
    assert calls
    for args, out in calls:
        try:
            want = oracle_steer(*args)
        except Exception as exc:
            want = exc
        assert fingerprint(out) == fingerprint(want)


@pytest.mark.parametrize("roots", [None, PENDULUM_GAMMA_INI_ROOTS])
def test_steer_matches_oracle_pendulum_stabilization(pendulum, steer_calls,
                                                     roots):
    den, num = pendulum
    result = run_algorithm1(den, num, StabilizationConfig(gamma_ini_roots=roots))
    assert result.iterations > 0
    assert_matches_oracle(steer_calls)
    (args, out), = steer_calls
    assert invariant_breach(args, out[4], Polynomial.one()) is None


@pytest.mark.parametrize("roots", [None, CONVERSION_ALPHA_INI_ROOTS])
@pytest.mark.parametrize("z_power", [0, 1])
def test_steer_matches_oracle_pendulum_conversion(pendulum, pre_controller,
                                                  steer_calls, roots, z_power):
    # z_power = 1 converts against z * num, the numerator-lifting path
    den, num = pendulum
    solution = run_algorithm2(pre_controller.den, num.shifted(z_power), 4,
                              ConversionConfig(alpha_ini_roots=roots))
    assert any("z^1" in w for w in solution.warnings) == (z_power == 1)
    assert_matches_oracle(steer_calls)
    (args, out), = steer_calls
    # the default initial factor's 18-step run keeps its identity too: the
    # drift a dense re-solve of the reduction once reported at step 17 was
    # that solve's own error
    assert invariant_breach(args, out[4], pre_controller.den) is None


def test_steer_matches_oracle_random_plants(steer_calls):
    # unfiltered plants: runs that fail inside steer must fail alike, and
    # every run that returns must keep its identity at every step
    rng = np.random.default_rng(606)
    while len(steer_calls) < 120:
        den, num = random_plant(rng)
        try:
            run_algorithm1(den, num)
        except (ValueError, RuntimeError, np.linalg.LinAlgError):
            pass  # the outcome is recorded and compared below
    assert_matches_oracle(steer_calls)
    returned = [(args, out) for args, out in steer_calls
                if not isinstance(out, Exception)]
    assert len(returned) < len(steer_calls)
    assert sum(len(out[4]) for _, out in returned) > 200
    assert [invariant_breach(args, out[4], Polynomial.one())
            for args, out in returned] \
        == [None] * len(returned)


@pytest.mark.parametrize("index, steps", [(298, 82), (128, None)])
def test_steer_matches_oracle_on_long_sweep_runs(steer_calls, index, steps):
    # the benchmark's random-sweep plants: 298 steers 82 steps to its target
    # and 128 runs into its iteration cap of 70, with the oracle's message
    try:
        result = run_algorithm1(*sweep_plant(index))
    except SynthesisError as exc:
        assert steps is None
        assert str(exc).startswith("iteration cap 70 = 10*ceil(|x* - x0|_1) + 10")
    else:
        assert result.iterations == steps
    assert_matches_oracle(steer_calls)


def test_steer_matches_oracle_in_dimension_11(steer_calls):
    # the 11th plant of default_rng(12) of order up to 12 has order 11 and
    # steers 4 steps: numpy sums the 11 terms of each trace distance with
    # its unrolled pairwise loop, in one row reduction as in vec_1norm, and
    # a left-to-right sum of one of them rounds differently
    rng = np.random.default_rng(12)
    for _ in range(11):
        den, num = random_plant(rng, n_max=12)
    result = run_algorithm1(den, num)
    assert result.x_star.size == 11 and result.iterations == 4
    rows = np.abs(result.x_star - np.array([t.x for t in result.trace]))
    running = rows[:, 0].copy()
    for column in rows.T[1:]:
        running += column
    assert [t.distance for t in result.trace] != running.tolist()
    assert_matches_oracle(steer_calls)


def test_delta_matrix_matches_oracle():
    rng = np.random.default_rng(909)
    for n in range(1, 10):
        for _ in range(30):
            num = Polynomial(rng.normal(size=int(rng.integers(1, n + 2))))
            if num.is_zero or num(0.0) == 0.0:
                continue
            T = toeplitz_stack(num, n)
            x = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
            # a vector short of the dimension stands for a lower degree
            for v in (x, x[: int(rng.integers(0, n))]):
                got = delta_matrix(v, T)
                want = oracle_delta_matrix(v, T)
                assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_state_turned_nan_mid_run_is_a_synthesis_error(pendulum, monkeypatch):
    # steer checks no state: one that a numerical breakdown turns NaN runs
    # into the iteration cap, a synthesis failure, not a validation error
    calls = []

    def poisoned(x, T):
        delta, lower = delta_matrix(x, T)
        calls.append(x)
        return (delta * np.nan if len(calls) == 1 else delta), lower

    monkeypatch.setattr(stabilizer, "delta_matrix", poisoned)
    # unpoisoned, the run reaches its target in 2 steps
    with pytest.raises(SynthesisError, match="exceeded at distance nan"):
        run_algorithm1(*pendulum)
    assert np.isnan(calls[-1]).all() and len(calls) > 2


def oracle_sylvester_matrix(a, b):
    da, db = a.coeffs.size - 1, b.coeffs.size - 1
    S = np.zeros((da + db, da + db))
    for i in range(db):
        S[i : i + da + 1, i] = a.coeffs[::-1]
    for i in range(da):
        S[i : i + db + 1, db + i] = b.coeffs[::-1]
    return S


def test_sylvester_matrix_matches_column_oracle():
    rng = np.random.default_rng(313)
    for _ in range(200):
        a = Polynomial(rng.normal(size=int(rng.integers(2, 11))))
        b = Polynomial(rng.normal(size=int(rng.integers(2, 11))))
        assert (_sylvester(a.coeffs, b.coeffs).tobytes()
                == oracle_sylvester_matrix(a, b).tobytes())
