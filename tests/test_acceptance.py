"""Acceptance suite: every release criterion at its pinned tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
failure report) and asserts the criterion outright.
"""
import json
import time

import numpy as np
import pytest

from intctrl import (ConversionConfig, Polynomial, RationalTF,
                     StabilizationConfig, closed_loop_poly, convert_controller,
                     run_algorithm1, tf_equal)
from intctrl.bezout import coprime_check, solve_diophantine
from intctrl.cli import main
from intctrl.fixtures import (CONVERSION_ALPHA_INI_ROOTS,
                              PENDULUM_GAMMA_INI_ROOTS, fixture_path,
                              pendulum_plant, pendulum_pre_controller)
from intctrl.numeric import (SingularMatrixError, _lu_solve, schur_check,
                             vec_1norm)
from intctrl.poly import monic_from_vector, toeplitz_stack, vector_from_monic
from intctrl.target import delta_matrix

from conftest import random_roots, well_posed_plant


def _report(name: str, passed: bool, detail: str = "") -> None:
    tag = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {name}: {tag}" + (f" ({detail})" if detail else ""))
    assert passed, f"{name}: {detail}"


# criterion 1 ---------------------------------------------------------------

def test_c1_pendulum_stabilization_reproduction():
    den, num = pendulum_plant()
    cfg = StabilizationConfig(gamma_ini_roots=PENDULUM_GAMMA_INI_ROOTS,
                              mu=0.99)
    t0 = time.perf_counter()
    result = run_algorithm1(den, num, cfg)
    elapsed = time.perf_counter() - t0

    ok = result.iterations <= 2
    detail = f"iterations={result.iterations}"

    # integer controller denominator z^4 (z^4 - z^3 - 13 z^2 - 4 z + 10), exact
    want_alpha = Polynomial([10.0, -4.0, -13.0, -1.0, 1.0]).shifted(4)
    exact = np.array_equal(result.alpha.coeffs, want_alpha.coeffs)
    ok = ok and exact
    detail += f", alpha_exact={exact}"

    # numerator against the quoted values, 1e-3 relative to the polynomial
    # scale (the quoted initial-target roots themselves carry only four
    # decimals, which caps the per-coefficient agreement of the small
    # trailing coefficients)
    quoted = np.array([-6404.6, 17154.0, -14891.0, 3894.9, 272.28,
                       -6.0466, -23.6399, 4.7839])
    got = result.controller_num.coeffs[::-1]
    num_err = float(np.max(np.abs(got - quoted)) / np.max(np.abs(quoted)))
    ok = ok and num_err <= 1e-3
    detail += f", num_scale_rel_err={num_err:.2e}"

    cl = closed_loop_poly(den, num, result.controller_den, result.controller_num)
    radius = schur_check(cl).spectral_radius
    ok = ok and abs(radius - 0.9701) <= 2e-3
    detail += f", radius={radius:.5f}"

    ok = ok and result.certificate.passed
    ok = ok and elapsed < 1.0
    detail += f", runtime={elapsed:.3f}s"
    _report("C1 pendulum stabilization", ok, detail)


# criterion 2 ---------------------------------------------------------------

def test_c2_conversion_reproduction():
    den, num = pendulum_plant()
    pre = pendulum_pre_controller()
    cfg = ConversionConfig(alpha_ini_roots=CONVERSION_ALPHA_INI_ROOTS,
                           mu=0.99)
    t0 = time.perf_counter()
    conv = convert_controller(pre, den, num, cfg)
    elapsed = time.perf_counter() - t0

    want_gamma = Polynomial([4.0, -2.0, -4.0, -1.0, 1.0]).shifted(23)
    exact = np.array_equal(conv.gamma.coeffs, want_gamma.coeffs)
    # iteration count is embedded in the Schur factor's degree: 6 + 4k
    k = (conv.alpha.coeffs.size - 1 - 6) // 4
    ok = exact and k <= 6
    detail = f"gamma_exact={exact}, iterations={k}"

    t_pre = RationalTF(pre.num_r * num,
                       closed_loop_poly(den, num, pre.den, pre.num_y))
    t_conv = RationalTF(conv.num_r * num,
                        closed_loop_poly(den, num, conv.den, conv.num_y))
    preserved = tf_equal(t_pre, t_conv)
    ok = ok and preserved
    detail += f", tf_equal={preserved}"

    stable = conv.certificate.conditions["internally_stable"]
    ok = ok and stable and conv.certificate.passed
    ok = ok and elapsed < 2.0
    detail += f", internally_stable={stable}, runtime={elapsed:.3f}s"
    _report("C2 conversion", ok, detail)


# criterion 3 ---------------------------------------------------------------

def test_c3_random_plant_property_suite():
    rng = np.random.default_rng(20240809)
    t0 = time.perf_counter()
    failures = []
    for trial in range(200):
        den, num = well_posed_plant(rng)
        try:
            result = run_algorithm1(den, num, StabilizationConfig())
        except Exception as exc:  # termination failures count as criterion failures
            failures.append((trial, repr(exc)))
            continue
        cert = result.certificate
        if not cert.passed:
            failures.append((trial, cert.conditions, cert.witnesses))
        elif cert.witnesses["alpha_integer_deviation"] != 0.0:
            # integer coefficients are assigned, never rounded: exact or bust
            failures.append((trial, "alpha not exactly integer"))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    _report("C3 random-plant suite", ok,
            f"200 plants, failures={len(failures)}, runtime={elapsed:.1f}s"
            + (f", first={failures[0]}" if failures else ""))


# criterion 4 ---------------------------------------------------------------

def test_c4_update_equivalence_oracle():
    rng = np.random.default_rng(4444)
    worst = 0.0
    checked = 0
    while checked < 500:
        n = int(rng.integers(1, 7))
        shift = int(rng.integers(0, 5))
        x = rng.normal(size=n)
        u = rng.normal(size=n)
        deg_m = int(rng.integers(0, n + 1))
        m = Polynomial(rng.normal(size=deg_m + 1))
        if m.is_zero or abs(m.coeffs[0]) < 0.3 * m.max_abs():
            continue
        T = toeplitz_stack(m, n)
        vec_route = x + delta_matrix(x, T)[0] @ u
        prod = (monic_from_vector(x) * monic_from_vector(u)).shifted(shift)
        poly_route = solve_diophantine(Polynomial.monomial(shift + n), prod, m).r
        err = float(np.max(np.abs(vec_route - vector_from_monic(poly_route, n)))
                    / (1.0 + np.max(np.abs(vec_route))))
        worst = max(worst, err)
        checked += 1
    _report("C4 update equivalence", worst <= 1e-9, f"worst={worst:.2e}")


# criterion 5 ---------------------------------------------------------------

def test_c5_invertibility_both_directions():
    rng = np.random.default_rng(5555)
    mis = 0
    planted_done = coprime_done = 0
    while planted_done < 100 or coprime_done < 100:
        n = int(rng.integers(2, 7))
        deg_m = int(rng.integers(1, n + 1))
        roots = random_roots(rng, deg_m, 1.4)
        real_roots = [r for r in roots if r.imag == 0]
        m = Polynomial.from_roots(roots, leading=float(rng.uniform(0.3, 2.0)))
        if abs(m.coeffs[0]) < 1e-3:
            continue
        T = toeplitz_stack(m, n)
        if planted_done < 100 and real_roots:
            extra = random_roots(rng, n - 1, 1.4)
            planted = Polynomial.from_roots([real_roots[0]] + extra)
            x = vector_from_monic(planted, n)
            if np.linalg.cond(delta_matrix(x, T)[0]) <= 1e8:
                mis += 1
            planted_done += 1
        if coprime_done < 100:
            x = rng.normal(size=n)
            if coprime_check(monic_from_vector(x), m).quality <= 1e-4:
                continue
            try:
                _lu_solve(delta_matrix(x, T)[0], np.ones(n))
            except SingularMatrixError:
                mis += 1
            coprime_done += 1
    _report("C5 invertibility test", mis == 0, f"misclassifications={mis}")


# criterion 6 ---------------------------------------------------------------

def test_c6_bounded_tail_implies_schur():
    rng = np.random.default_rng(6666)
    bad = 0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        u = rng.normal(size=n)
        u *= rng.uniform(0.0, 0.99) / max(vec_1norm(u), 1e-12)
        if not schur_check(monic_from_vector(u)).is_schur:
            bad += 1
    _report("C6 bounded-tail stability", bad == 0, f"violations={bad}")


# criterion 7 ---------------------------------------------------------------

def test_c7_loop_factorization_identity():
    from test_converter import stable_pre_loop
    rng = np.random.default_rng(7777)
    worst = 0.0
    checked = 0
    while checked < 100:
        den, num, pre = stable_pre_loop(rng)
        try:
            conv = convert_controller(pre, den, num)
        except Exception:
            continue
        lhs = closed_loop_poly(den, num, conv.den, conv.num_y)
        rhs = conv.alpha * closed_loop_poly(den, num, pre.den, pre.num_y)
        scale = max(1.0, lhs.max_abs(), rhs.max_abs())
        worst = max(worst, float((lhs - rhs).max_abs() / scale))
        checked += 1
    _report("C7 loop factorization", worst <= 1e-8, f"worst={worst:.2e}")


# criterion 8 ---------------------------------------------------------------

def test_c8_determinism(tmp_path):
    gamma = ("-0.2616,0.3728,0.6769+0.649j,0.6769-0.649j,"
             "0.9168+0.199j,0.9168-0.199j,0.965+0.1j,0.965-0.1j")
    alpha = ("-0.7493,-0.1861,-0.2412+0.8757j,-0.2412-0.8757j,"
             "-0.1373+0.9794j,-0.1373-0.9794j")
    pend = str(fixture_path("pendulum.json"))
    convf = str(fixture_path("pendulum_conversion.json"))
    payloads = []
    for args, out in (
        (["stabilize", pend, "--gamma-ini-roots=" + gamma], "s"),
        (["convert", convf, "--alpha-ini-roots=" + alpha], "c"),
    ):
        runs = []
        for attempt in ("one", "two"):
            path = tmp_path / f"{out}_{attempt}.json"
            assert main(args + ["--out", str(path)]) == 0
            runs.append(path.read_bytes())
        payloads.append(runs[0] == runs[1])
    _report("C8 determinism", all(payloads),
            f"stabilize_identical={payloads[0]}, convert_identical={payloads[1]}")
