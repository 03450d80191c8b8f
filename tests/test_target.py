import hashlib
import itertools
import math
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from intctrl import Polynomial, run_algorithm1, stabilizer, target
from intctrl.bezout import coprime_check, solve_diophantine
from intctrl.numeric import (SingularMatrixError, _lu_solve, schur_check,
                             vec_1norm)
from intctrl.poly import monic_from_vector, toeplitz_stack, vector_from_monic
from intctrl.target import (InconsistentActiveSetError, IntegerTarget,
                            TargetSearchError, _slab_points, _slabs,
                            active_index_set, build_hyperplanes, control_input,
                            delta_matrix, find_integer_target)

from conftest import random_plant, sweep_plant


def test_hyperplanes_constant_numerator_empty():
    planes = build_hyperplanes(Polynomial([2.5]), 3)
    assert planes.normals.shape == (0, 3) and planes.offsets.shape == (0,)
    assert planes.roots == () and planes.n_real == 0


def test_hyperplane_single_real_root():
    # num = z - 0.5, n = 2: the power row [lam^2, lam, 1] = [0.25, 0.5, 1]
    # splits as offset -0.25 and normal [0.5, 1]
    planes = build_hyperplanes(Polynomial([-0.5, 1]), 2)
    assert planes.normals.shape == (1, 2)
    normal, offset = planes.normals[0], planes.offsets[0]
    assert_allclose(normal, [0.5, 1.0])
    assert_allclose(offset, -0.25)
    assert planes.roots == (0.5,) and planes.n_real == 1
    # membership <=> the vector's polynomial vanishes at the root
    x_on = np.array([1.0, offset - normal[0] * 1.0])
    assert abs(monic_from_vector(x_on)(0.5)) < 1e-12


def test_hyperplanes_pendulum(pendulum):
    _, num = pendulum
    planes = build_hyperplanes(num, 4)
    assert planes.normals.shape == (3, 4)
    assert planes.n_real == 3
    assert all(r.imag == 0.0 for r in planes.roots)


def test_hyperplane_sides_match_polynomial_values():
    # the signed functional equals the real/imaginary part of the vector's
    # polynomial at the source root: real-root rows first, then the real and
    # the imaginary part of each conjugate pair
    rng = np.random.default_rng(17)
    num = Polynomial.from_roots([0.7, -1.2, 0.3 + 0.8j, 0.3 - 0.8j], leading=0.4)
    n = 5
    planes = build_hyperplanes(num, n)
    assert planes.n_real == 2 and planes.normals.shape == (4, n)
    assert planes.roots[2] == planes.roots[3]
    for _ in range(50):
        x = rng.normal(size=n) * 3
        p = monic_from_vector(x)
        active = active_index_set(x, planes)
        assert active.index == (0, 1, 2, 3)
        sides = active.sides0
        for t, root in enumerate(planes.roots):
            val = p(root)
            want = val.imag if t == 3 else val.real
            assert abs(sides[t] - want) < 1e-9 * (1 + abs(want))
            # one dot product per row, bit for bit
            row_side = planes.normals[t] @ x - planes.offsets[t]
            assert sides[t].tobytes() == row_side.tobytes()
        assert_allclose(active.norms, np.abs(
            planes.normals[list(active.index)]).sum(axis=1))


def test_hyperplanes_real_only_and_pure_pair():
    planes = build_hyperplanes(Polynomial.from_roots([1.0, -2.0]), 2)
    assert planes.n_real == 2
    assert_allclose(planes.roots, [-2.0, 1.0])
    planes = build_hyperplanes(Polynomial([1.0, 0.0, 1.0]), 2)  # z^2 + 1
    assert planes.n_real == 0 and planes.normals.shape == (2, 2)
    assert planes.roots[0] == planes.roots[1]
    assert abs(planes.roots[0] - 1j) < 1e-15


def test_hyperplanes_near_real_pair_gives_two_real_rows(monkeypatch):
    # printed conjugates 0.5 +- 1e-12j lie inside IMAG_TOL: two real rows
    monkeypatch.setattr(target, "poly_roots",
                        lambda num: np.array([0.5 + 1e-12j, 0.5 - 1e-12j]))
    planes = build_hyperplanes(Polynomial([0.25, -1.0, 1.0]), 3)
    assert planes.n_real == 2 and planes.roots == (0.5, 0.5)
    assert_allclose(planes.normals, [[0.25, 0.5, 1.0]] * 2)


def test_hyperplanes_real_rows_first_then_pairs_sorted():
    # the degree-8 target roots of the pendulum fixture, shuffled: 2 real
    # roots, then 3 pairs by (real, imag), each kept by its upper member
    roots = [0.9168 + 0.1990j, 0.3728, 0.6769 - 0.6490j, 0.9650 + 0.1j,
             -0.2616, 0.9168 - 0.1990j, 0.9650 - 0.1j, 0.6769 + 0.6490j]
    planes = build_hyperplanes(Polynomial.from_roots(roots, leading=2.0), 8)
    assert planes.n_real == 2 and planes.normals.shape == (8, 8)
    want = [-0.2616, 0.3728] + [r for r in (0.6769 + 0.6490j, 0.9168 + 0.1990j,
                                            0.9650 + 0.1j) for _ in range(2)]
    assert_allclose(planes.roots, want, atol=1e-9)
    assert all(r.imag == 0.0 for r in planes.roots[:2])
    assert planes.roots[2::2] == planes.roots[3::2]


@pytest.mark.parametrize("coeffs, n, root", [
    ([1.0, 1e-200], 2, "-1e+200"),
    ([1.0, 0.0, 1e-200], 4, "1e+100j"),
], ids=["real-root", "complex-root"])
def test_hyperplanes_overflowing_powers_are_a_target_search_error(coeffs, n, root):
    # Python's ** raises OverflowError once a root's powers leave the float
    # range ("complex exponentiation" for a pair); one degree less still fits
    with pytest.raises(TargetSearchError) as info:
        build_hyperplanes(Polynomial(coeffs), n)
    message = str(info.value)
    assert message.startswith("the plane row of numerator root ")
    assert message.endswith(f"{root} overflows the float range")
    assert info.value.candidate is None and info.value.margins is None
    planes = build_hyperplanes(Polynomial(coeffs), n - 1)
    assert np.isfinite(planes.normals).all() and np.isfinite(planes.offsets).all()


def test_hyperplane_roots_rebuild_the_numerator_fuzz():
    rng = np.random.default_rng(9)
    for _ in range(50):
        deg = int(rng.integers(1, 11))
        # well-separated roots on a grid, none at the origin
        pool = [complex(c, 0) for c in np.arange(-2.0, 2.01, 0.5) if c]
        pool += [complex(re, im) for re in (-1.0, 0.0, 1.0) for im in (0.5, 1.0)]
        roots = []
        while len(roots) < deg:
            r = pool[int(rng.integers(0, len(pool)))]
            if any(abs(r - s) < 1e-6 or abs(r.conjugate() - s) < 1e-6 for s in roots):
                continue
            if r.imag != 0:
                if deg - len(roots) < 2:
                    continue
                roots += [r, r.conjugate()]
            else:
                roots.append(r)
        lead = float(rng.uniform(0.5, 2.0))
        p = Polynomial.from_roots(roots, leading=lead)
        planes = build_hyperplanes(p, deg)
        found = list(planes.roots[:planes.n_real])
        for eta in planes.roots[planes.n_real::2]:
            found += [eta, eta.conjugate()]
        assert Polynomial.from_roots(found, leading=lead).allclose(p, 1e-7)


def test_active_set_empty_planes():
    planes = build_hyperplanes(Polynomial([1.0]), 2)
    assert active_index_set(np.zeros(2), planes).index == ()


def test_active_set_excludes_vanishing_imag_part():
    # construct x whose polynomial takes a purely real value at the complex
    # root: the imaginary-part plane must drop out of the active set
    num = Polynomial.from_roots([1j, -1j])  # z^2 + 1
    n = 2
    planes = build_hyperplanes(num, n)
    assert planes.n_real == 0 and planes.roots == (1j, 1j)
    # p_x(i) = i^2 + x1*i + x0 = (x0 - 1) + x1*i: choose x1 = 0, x0 = 3
    x = np.array([0.0, 3.0])
    active = active_index_set(x, planes)
    assert active.index == (0,)
    assert all(type(t) is int for t in active.index)
    # the active rows, their 1-norms and their sides as the planes give them
    assert active.normals.tobytes() == planes.normals[:1].tobytes()
    assert active.offsets.tobytes() == planes.offsets[:1].tobytes()
    assert active.norms.tolist() == [vec_1norm(planes.normals[0])]
    side = planes.normals[0] @ x - planes.offsets[0]
    assert active.sides0.tobytes() == np.array([side]).tobytes()


def test_active_set_pendulum_all_real(pendulum):
    den, num = pendulum
    gamma = Polynomial.monomial(8)
    x0 = vector_from_monic(solve_diophantine(den, gamma, num).r, 4)
    planes = build_hyperplanes(num, 4)
    assert active_index_set(x0, planes).index == (0, 1, 2)


def test_active_set_real_root_violation_raises():
    num = Polynomial.from_roots([0.5])  # root 0.5
    planes = build_hyperplanes(num, 2)
    x_on_plane = np.array([1.0, -0.75])  # z^2 + z - 0.75 has root 0.5
    with pytest.raises(InconsistentActiveSetError,
                       match=r"real-root plane 0 \(root 0.5\) passes"):
        active_index_set(x_on_plane, planes)


def test_active_set_nan_side_counts_as_vanishing():
    # a NaN side vanishes like a zero one; the error names the first
    # vanishing real-root row, which need not be row 0
    num = Polynomial.from_roots([-0.5, 0.25])
    planes = build_hyperplanes(num, 2)
    with pytest.raises(InconsistentActiveSetError, match="real-root plane 0"):
        active_index_set(np.array([np.nan, 1.0]), planes)
    x_on_second = vector_from_monic(Polynomial.from_roots([0.25, 3.0]), 2)
    with pytest.raises(InconsistentActiveSetError,
                       match=r"real-root plane 1 \(root 0.25\)"):
        active_index_set(x_on_second, planes)


def test_delta_scalar_constant_numerator():
    T = toeplitz_stack(Polynomial([3.0]), 1)
    assert_allclose(delta_matrix(np.array([7.0]), T)[0], [[1.0]])


def test_delta_constant_numerator_unit_lower_triangular():
    # hand expansion: stacked matrix of [1; x] has unit diagonal and x1 below
    T = toeplitz_stack(Polynomial([2.0]), 2)
    out = delta_matrix(np.array([5.0, -3.0]), T)[0]
    assert_allclose(out, [[1.0, 0.0], [5.0, 1.0]])


def test_delta_bottom_block_upper_triangular(pendulum):
    _, num = pendulum
    T = toeplitz_stack(num, 4)
    bottom = T[4:]
    assert_allclose(bottom, np.triu(bottom))
    assert_allclose(np.diag(bottom), num(0.0) * np.ones(4))


def test_delta_matches_solve_triangular_oracle():
    # the bottom block is solved with LAPACK trtrs on its transpose, the
    # call scipy.linalg.solve_triangular makes for a C-ordered matrix
    rng = np.random.default_rng(37)
    for n in range(1, 10):
        for _ in range(20):
            num = Polynomial(rng.normal(size=int(rng.integers(1, n + 2))))
            if num.is_zero or num(0.0) == 0.0:
                continue
            T = toeplitz_stack(num, n)
            x = rng.normal(size=n) * 3.0
            Tm = toeplitz_stack(monic_from_vector(x), n)
            lower = scipy.linalg.solve_triangular(T[n:], Tm[n:])
            want = Tm[:n] - T[:n] @ lower
            assert delta_matrix(x, T)[0].tobytes() == want.tobytes()


def test_delta_singular_iff_shared_root():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = 4
        roots = [rng.uniform(-1.4, 1.4) for _ in range(3)]
        num = Polynomial.from_roots(roots, leading=float(rng.uniform(0.3, 2)))
        T = toeplitz_stack(num, n)
        if abs(num(0.0)) < 1e-3:
            continue
        # planted shared root: delta singular to tolerance
        shared = Polynomial.from_roots([roots[0]] + [rng.uniform(-1.4, 1.4)
                                                     for _ in range(n - 1)])
        x_bad = vector_from_monic(shared, n)
        cond = np.linalg.cond(delta_matrix(x_bad, T)[0])
        assert cond > 1e8
        # coprime vector: the update matrix must be solvable
        x_ok = rng.normal(size=n)
        if coprime_check(monic_from_vector(x_ok), num).quality < 1e-4:
            continue
        _lu_solve(delta_matrix(x_ok, T)[0], np.ones(n))


def test_update_matches_polynomial_route():
    # vector update x + delta(x) @ u against the Diophantine reduction of
    # the shifted product polynomial (the brute-force oracle)
    rng = np.random.default_rng(29)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        shift = int(rng.integers(0, 5))
        x = rng.normal(size=n)
        u = rng.normal(size=n)
        deg_m = int(rng.integers(0, n + 1))
        m = Polynomial(rng.normal(size=deg_m + 1))
        # a constant term small against the scale makes z^k nearly share the
        # origin root cluster with m; keep the instances well-posed
        if m.is_zero or abs(m.coeffs[0]) < 0.3 * m.max_abs():
            continue
        T = toeplitz_stack(m, n)
        vec_route = x + delta_matrix(x, T)[0] @ u
        prod = (monic_from_vector(x) * monic_from_vector(u)).shifted(shift)
        poly_route = solve_diophantine(Polynomial.monomial(shift + n), prod, m).r
        assert_allclose(vec_route, vector_from_monic(poly_route, n),
                        rtol=0, atol=1e-9 * (1 + np.max(np.abs(vec_route))))


def test_find_target_no_constraints_rounds():
    num = Polynomial([1.0])
    planes = build_hyperplanes(num, 3)
    x0 = np.array([0.2, -1.7, 2.5])
    active = active_index_set(x0, planes)
    assert active.index == ()
    found = find_integer_target(x0, num, active)
    assert_allclose(found.x_star, [0.0, -2.0, 2.0])
    assert found == IntegerTarget(found.x_star, "round", 1)
    assert_matches_oracle(x0, num, planes, active)


def test_first_feasible_without_planes_takes_the_first_column():
    # the or-reduction over no planes leaves every column feasible
    planes = build_hyperplanes(Polynomial([1.0]), 2)
    active = active_index_set(np.zeros(2), planes)
    assert active.first_feasible(np.array([[3.0, -1.0], [0.5, np.nan]])) == 0


def test_find_target_integer_start_is_fixed_point(pendulum):
    _, num = pendulum
    n = 4
    planes = build_hyperplanes(num, n)
    x0 = np.array([-1.0, -13.0, -4.0, 10.0])
    active = active_index_set(x0, planes)
    found = find_integer_target(x0, num, active)
    assert np.array_equal(found.x_star, x0)
    assert found.candidates_examined == 1


def test_find_target_pendulum_rounds(pendulum):
    den, num = pendulum
    n = 4
    x0 = vector_from_monic(solve_diophantine(den, Polynomial.from_roots(
        [-0.2616, 0.3728, 0.6769 + 0.649j, 0.6769 - 0.649j,
         0.9168 + 0.199j, 0.9168 - 0.199j, 0.965 + 0.1j, 0.965 - 0.1j]),
        num).r, n)
    planes = build_hyperplanes(num, n)
    active = active_index_set(x0, planes)
    found = find_integer_target(x0, num, active)
    assert_allclose(found.x_star, [-1.0, -13.0, -4.0, 10.0])
    assert found.strategy == "round" and found.candidates_examined == 1


def test_find_target_round_failure_walks_shells():
    # plane from root 0.8 lies at x = -0.8; x0 = -0.75 sits on the + side
    # but rounds to -1.0 on the - side, so the search moves on to the
    # radius-1 shell, whose first point -2.0 fails and second 0.0 holds
    num = Polynomial.from_roots([0.8])
    planes = build_hyperplanes(num, 1)
    x0 = np.array([-0.75])
    found = find_integer_target(x0, num, active_index_set(x0, planes))
    assert found.x_star[0] == 0.0
    assert found.strategy == "shell" and found.candidates_examined == 3


def _squeezed_2d(root=-5.0):
    # x0 between the two root planes: p_x(0.31) < 0 < p_x(0.33) for p_x =
    # (z - 0.32)(z - root)
    num = Polynomial.from_roots([0.31, 0.33], leading=1.0)
    planes = build_hyperplanes(num, 2)
    x0 = vector_from_monic(Polynomial.from_roots([0.32, root]), 2)
    return x0, num, planes, active_index_set(x0, planes)


def test_find_target_fallback_recentre(monkeypatch):
    # squeeze x0 between two nearby parallel-ish planes and give the walk a
    # budget of round(x0) alone: it fails, and the constructive target holds
    monkeypatch.setattr(target, "MAX_CANDIDATES", 1)
    x0, num, _, active = _squeezed_2d()
    found = find_integer_target(x0, num, active)
    assert found.strategy == "fallback" and found.candidates_examined == 2
    assert active.index == (0, 1)
    assert np.all(active.sides(found.x_star[:, None])[:, 0] * active.sides0 > 0)


def test_walk_passes_radius_8_toward_the_constructive_target():
    # x0 = (z - 0.32)(z - 3) rounds to [-3, 1]; the first feasible point of
    # the walk is [-13, 4], the 14th point of the radius-10 shell, after the
    # 1 + 360 points of radius 0 to 9; the constructive target [-134, 43]
    # lies at radius 131
    found = assert_matches_oracle(*_squeezed_2d(3.0))
    assert found.x_star.tolist() == [-13.0, 4.0]
    assert (found.strategy, found.candidates_examined) == ("shell", 375)


def test_walk_ends_on_the_constructive_targets_shell(monkeypatch):
    # a side margin no candidate clears: the walk covers the shells of
    # radius 1 to D = |c - round(x0)|_inf, c's own, tests c once more and
    # reports it with its distances to every active plane
    monkeypatch.setattr(target, "SIDE_TOL", math.inf)
    walked = []
    real = target._slabs

    def recording(radius, dim):
        walked.append(radius)
        return real(radius, dim)

    monkeypatch.setattr(target, "_slabs", recording)
    # the plane x = -0.8 of the root 0.8, x0 = 3.2 at distance 4: c = -0.8
    # + (3.2 + 0.8) / 4 rounds to 0, on the radius-3 shell around 3
    num = Polynomial.from_roots([0.8])
    planes = build_hyperplanes(num, 1)
    x0 = np.array([3.2])
    active = active_index_set(x0, planes)
    with pytest.raises(TargetSearchError) as err:
        find_integer_target(x0, num, active)
    assert walked == [1, 2, 3]
    assert err.value.candidate.tolist() == [0.0]
    assert oracle_find_integer_target(x0, num, planes, active) is None


def test_search_exhaustion_reports_every_active_plane(monkeypatch):
    # a side margin no candidate clears and a budget of a few points
    monkeypatch.setattr(target, "SIDE_TOL", math.inf)
    monkeypatch.setattr(target, "MAX_CANDIDATES", 5)
    x0, num, _, active = _squeezed_3d()
    with pytest.raises(TargetSearchError) as err:
        find_integer_target(x0, num, active)
    message = str(err.value)
    assert message.startswith("integer-target search exhausted")
    assert "numerically" in message
    assert "tolerance" not in message and "max_radius" not in message
    assert len(err.value.margins) == len(active.index) == 3
    assert all(m > 0.0 for m in err.value.margins)
    assert np.array_equal(err.value.candidate, np.round(err.value.candidate))


def test_sweep_search_outcomes_are_pinned(monkeypatch):
    # every integer-target search of the 600 seed-7 sweep plants (the
    # sweep_plant plants of the benchmark's random-sweep): strategies,
    # candidates and a digest of each search's (x*, strategy, count)
    found = []
    real = stabilizer.find_integer_target

    def recording(*args, **kwargs):
        out = real(*args, **kwargs)
        found.append(out)
        return out

    monkeypatch.setattr(stabilizer, "find_integer_target", recording)
    rng = np.random.default_rng(7)
    for _ in range(600):
        try:
            run_algorithm1(*random_plant(rng, n_max=8))
        except (ValueError, RuntimeError, np.linalg.LinAlgError):
            pass
    digest = hashlib.sha256()
    for f in found:
        digest.update(f.x_star.tobytes() + f.strategy.encode()
                      + repr(f.candidates_examined).encode())
    assert Counter(f.strategy for f in found) == {"round": 374, "shell": 152,
                                                 "fallback": 1}
    assert sum(f.candidates_examined for f in found) == 224_307
    assert max(f.candidates_examined for f in found) == 200_001
    assert digest.hexdigest() == ("b701a0b6abc68dd2fa96e86d6e8dc1bc"
                                  "d9bf2bda9c09dc4b9586622d24d35d5f")


# Scalar reference search: one candidate at a time, one plane at a time.  The
# slab walk in intctrl.target, which bounds whole slabs of candidates and
# tests only those its bounds keep, must pick the same target after the
# same number of candidates.  It reads the search constants at call time, so
# a test may monkeypatch them for both.

def _oracle_side(planes, t, x):
    return planes.normals[t] @ x - planes.offsets[t]


def _oracle_same_side(x0, planes, active):
    """The side test of one candidate, one plane at a time."""
    rows = [(planes.normals[t], planes.offsets[t],
             vec_1norm(planes.normals[t]), _oracle_side(planes, t, x0))
            for t in active.index]

    def feasible(cand):
        sup = float(np.max(np.abs(cand), initial=0.0))
        for normal, offset, norm, side0 in rows:
            s1 = normal @ cand - offset
            margin = target.SIDE_TOL * (1.0 + norm * max(1.0, sup))
            if side0 * s1 <= 0.0 or abs(s1) <= margin:
                return False
        # the search tests the endpoint only; walking the segment here
        # shows that the endpoint test with its margin already decides
        for rho in np.linspace(0.0, 1.0, 64):
            xm = rho * x0 + (1.0 - rho) * cand
            for normal, offset, _, side0 in rows:
                if side0 * (normal @ xm - offset) < 0.0:
                    return False
        return True

    return feasible


def _oracle_shells(start, max_radius):
    radius = 1
    while radius <= max_radius:
        for off in itertools.product(range(-radius, radius + 1),
                                     repeat=start.size):
            if max(abs(o) for o in off) == radius:
                yield start + np.array(off, dtype=float)
        radius += 1


def _oracle_fallback_center(x0, num, planes, active):
    n, m = x0.size, num.coeffs.size - 1
    v = Polynomial(num.coeffs / num.leading).shifted(n - m).coeffs[-2::-1]
    dist = min(abs(_oracle_side(planes, t, x0)) / vec_1norm(planes.normals[t])
               for t in active.index)
    return np.round((x0 - v) / dist + v)


def oracle_find_integer_target(x0, num, planes, active):
    """The search written out point by point; None when it is exhausted."""
    x0 = np.asarray(x0, dtype=float)
    feasible = _oracle_same_side(x0, planes, active)
    start = np.round(x0)
    examined = 1
    if feasible(start):
        return IntegerTarget(start, "round", examined)
    center = _oracle_fallback_center(x0, num, planes, active)
    shells = _oracle_shells(start, float(np.max(np.abs(center - start))))
    for cand in itertools.islice(shells, target.MAX_CANDIDATES - 1):
        examined += 1
        if feasible(cand):
            return IntegerTarget(cand, "shell", examined)
    if feasible(center):
        return IntegerTarget(center, "fallback", examined + 1)
    return None


def assert_matches_oracle(x0, num, planes, active):
    """Same target bit for bit, same strategy and count, or both exhausted;
    returns the oracle's target, or None when both were exhausted."""
    want = oracle_find_integer_target(x0, num, planes, active)
    if want is None:
        with pytest.raises(TargetSearchError):
            find_integer_target(x0, num, active)
        return None
    got = find_integer_target(x0, num, active)
    assert got.x_star.tobytes() == want.x_star.tobytes()
    assert got.strategy == want.strategy
    assert got.candidates_examined == want.candidates_examined
    return want


def _squeezed_3d():
    # x0 between the planes of the nearby roots 0.31 and 0.33: the walk
    # needs 22 points after round(x0), over several blocks
    num = Polynomial.from_roots([0.31, 0.33, -0.5])
    planes = build_hyperplanes(num, 3)
    x0 = vector_from_monic(Polynomial.from_roots([0.32, -5.0, 0.1]), 3)
    return x0, num, planes, active_index_set(x0, planes)


def test_block_search_matches_oracle_on_hand_cases(pendulum, monkeypatch):
    num = Polynomial.from_roots([0.8])
    planes = build_hyperplanes(num, 1)
    x0 = np.array([-0.75])
    assert assert_matches_oracle(x0, num, planes, active_index_set(
        x0, planes)).strategy == "shell"

    found = assert_matches_oracle(*_squeezed_2d())
    assert found.strategy == "shell" and found.candidates_examined == 8

    found = assert_matches_oracle(*_squeezed_3d())
    assert found.strategy == "shell" and found.candidates_examined == 23

    den, num = pendulum
    for gamma in (Polynomial.monomial(8), Polynomial.from_roots(
            [-0.2616, 0.3728, 0.6769 + 0.649j, 0.6769 - 0.649j,
             0.9168 + 0.199j, 0.9168 - 0.199j, 0.965 + 0.1j, 0.965 - 0.1j])):
        x0 = vector_from_monic(solve_diophantine(den, gamma, num).r, 4)
        planes = build_hyperplanes(num, 4)
        assert_matches_oracle(x0, num, planes, active_index_set(x0, planes))

    # a budget of round(x0) alone: it fails and the constructive target holds
    monkeypatch.setattr(target, "MAX_CANDIDATES", 1)
    found = assert_matches_oracle(*_squeezed_3d())
    assert found.strategy == "fallback" and found.candidates_examined == 2


def test_block_search_matches_oracle_on_random_plants(monkeypatch):
    # unfiltered random plants; a smaller budget keeps the scalar oracle
    # fast and sends the deepest walks on to the constructive target
    monkeypatch.setattr(target, "MAX_CANDIDATES", 5000)
    rng = np.random.default_rng(5)
    strategies = []
    for _ in range(200):
        den, num = random_plant(rng)
        if abs(num(0.0)) < 1e-6:
            continue
        n = den.coeffs.size - 1
        try:
            r0 = solve_diophantine(den, Polynomial.monomial(2 * n), num).r
            x0 = vector_from_monic(r0, n)
            planes = build_hyperplanes(num, n)
            active = active_index_set(x0, planes)
        except ValueError:  # not coprime, or a real-root plane through x0
            continue
        found = assert_matches_oracle(x0, num, planes, active)
        strategies.append(found.strategy if found else "exhausted")
    assert strategies.count("shell") >= 40
    assert strategies.count("round") >= 100
    assert "fallback" in strategies


#: slab schedules (first slab, largest slab) for the walk of _squeezed_3d:
#: the whole radius-1 cube at once, slabs of 3 points, and slabs of 3
#: points rising to 9
SCHEDULES = [(64, 8192), (1, 3), (3, 9)]


def first_feasible_calls(monkeypatch):
    """The candidates each first-feasible test receives, one array of
    columns per call."""
    calls = []
    real = target.ActiveSet.first_feasible

    def recording(self, cands):
        calls.append(cands)
        return real(self, cands)

    monkeypatch.setattr(target.ActiveSet, "first_feasible", recording)
    return calls


@pytest.mark.parametrize("first, slab", SCHEDULES)
def test_slab_search_budget_matches_oracle(monkeypatch, first, slab):
    monkeypatch.setattr(target, "_FIRST_SLAB", first)
    monkeypatch.setattr(target, "SLAB", slab)
    squeezed = _squeezed_3d()
    # budgets up to 22 end the walk before its target, then the
    # constructive target holds; they end inside slabs and on their edges
    for budget in range(1, 27):
        monkeypatch.setattr(target, "MAX_CANDIDATES", budget)
        found = assert_matches_oracle(*squeezed)
        assert found.strategy == ("fallback" if budget <= 22 else "shell")
    # a side margin that rejects the first six points the bounds keep: the
    # exact test, not the bound, decides them, and the target is the second
    # point kept in its slab, the 4835th examined; a budget that ends
    # before it exhausts the search, as the constructive target fails too
    monkeypatch.setattr(target, "SIDE_TOL", 0.005)
    for budget in (5, 4834, 4835, 200_000):
        monkeypatch.setattr(target, "MAX_CANDIDATES", budget)
        found = assert_matches_oracle(*squeezed)
        assert (found is not None) == (budget >= 4835)
    assert (found.strategy, found.candidates_examined) == ("shell", 4835)


def test_budget_ends_on_and_inside_a_slab(monkeypatch):
    # slabs of 3 points rising to 9: the radius-1 shell of dimension 3 comes
    # in slabs of 3, 3, 3, 8 and 9 shell points (the centre drops out of the
    # fourth), and the target is the 22nd, the 5th of the last slab
    monkeypatch.setattr(target, "_FIRST_SLAB", 3)
    monkeypatch.setattr(target, "SLAB", 9)
    assert [(lead, level) for lead, level in _slabs(1, 3)] == [
        ([-1, -1], 1), ([-1, 0], 1), ([-1, 1], 1), ([0], 2), ([1], 2)]
    x0, num, planes, active = _squeezed_3d()
    start = np.round(x0)
    tested = first_feasible_calls(monkeypatch)
    # the walk examines round(x0), then up to MAX_CANDIDATES - 1 shell
    # points.  Every point before the target is skipped by its bounds,
    # so a walk that ends before it tests no shell point, only round(x0)
    # and the constructive target: inside the first slab (1 shell point),
    # on its edge (3), inside the fourth (10), on the edge of the fourth
    # (17), and inside the last, before the target (20)
    for budget in (2, 4, 11, 18, 21):
        monkeypatch.setattr(target, "MAX_CANDIDATES", budget)
        tested.clear()
        found = find_integer_target(x0, num, active)
        assert (found.strategy, found.candidates_examined) == ("fallback",
                                                               budget + 1)
        assert [cols.T.tolist() for cols in tested] == [
            [start.tolist()], [found.x_star.tolist()]]
        assert_matches_oracle(x0, num, planes, active)
    # inside the last slab on the target: it alone is tested after round(x0)
    monkeypatch.setattr(target, "MAX_CANDIDATES", 23)
    tested.clear()
    found = find_integer_target(x0, num, active)
    assert (found.strategy, found.candidates_examined) == ("shell", 23)
    assert [(cols.T - start).tolist() for cols in tested] == [
        [[0.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]]]


def test_budget_exhausting_sweep_walk_matches_oracle(monkeypatch):
    # the longest walk of the benchmark's random-sweep, sweep plant 533 in
    # dimension 6: no point of the shells of radius 1 to 3, nor of the
    # first 82,351 of radius 4, is feasible, so the budget ends the walk
    # inside shell 4 and the constructive target holds
    class Recorded(Exception):
        pass

    searches = []

    def recording(*args):
        searches.append(args)
        raise Recorded

    monkeypatch.setattr(stabilizer, "find_integer_target", recording)
    with pytest.raises(Recorded):
        run_algorithm1(*sweep_plant(533))
    (x0, num, active), = searches
    planes = build_hyperplanes(num, x0.size)
    tested = first_feasible_calls(monkeypatch)
    found = assert_matches_oracle(x0, num, planes, active)
    assert (found.strategy, found.candidates_examined) == ("fallback", 200_001)
    # the bounds skip every walked point: round(x0) and the constructive
    # target alone are tested
    assert [cols.T.tolist() for cols in tested] == [
        [np.round(x0).tolist()], [found.x_star.tolist()]]


def test_non_finite_sides_skip_no_point():
    # a plane of normal 1e307 (1, 0, 0) and offset +inf: its side is -inf
    # where x < 17.97, and NaN (inf - inf) where 1e307 x overflows.  The
    # first-feasible test passes both, so no bound may skip a point by it
    num = Polynomial.from_roots([0.5])
    huge = [1e307, 0.0, 0.0]
    # x = 17.3 holds only x = 18 on the side of x0 = (17.4, -17.1, 0.3):
    # the first such shell point around round(x0) = (17, -17, 0), (18, -18,
    # -1) at walk index 18, has the NaN side and is the target
    planes = target.HyperplaneSet(np.array([[1.0, 0.0, 0.0], huge]),
                                  np.array([17.3, np.inf]), (0.5, 0.5), 2)
    x0 = np.array([17.4, -17.1, 0.3])
    with np.errstate(over="ignore", invalid="ignore"):
        active = active_index_set(x0, planes)
        assert active.index == (0, 1)
        assert active.sides0[1] == -np.inf
        assert np.isnan(active.sides(np.array([[18.0], [-18.0], [-1.0]]))[1, 0])
        found = assert_matches_oracle(x0, num, planes, active)
    assert found.x_star.tolist() == [18.0, -18.0, -1.0]
    assert (found.strategy, found.candidates_examined) == ("shell", 19)
    # y = -16.9 holds only y = -16 on the side of x0 = (17.6, -16.8, 0.3),
    # and the side of the huge plane is NaN at round(x0) = (18, -17, 0)
    # itself; the target is (17, -16, -1), at walk index 7
    planes = target.HyperplaneSet(np.array([[0.0, 1.0, 0.0], huge]),
                                  np.array([-16.9, np.inf]), (0.5, 0.5), 2)
    x0 = np.array([17.6, -16.8, 0.3])
    with np.errstate(over="ignore", invalid="ignore"):
        active = active_index_set(x0, planes)
        assert active.index == (0, 1)
        assert active.sides0[1] == -np.inf
        assert np.isnan(active.sides(np.round(x0)[:, None])[1, 0])
        found = assert_matches_oracle(x0, num, planes, active)
    assert found.x_star.tolist() == [17.0, -16.0, -1.0]
    assert (found.strategy, found.candidates_examined) == ("shell", 8)


@pytest.mark.parametrize("first, slab", [(1, 1), (1, 7), (2, 20), (64, 8192)])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_slabs_follow_product_order(monkeypatch, first, slab, dim):
    monkeypatch.setattr(target, "_FIRST_SLAB", first)
    monkeypatch.setattr(target, "SLAB", slab)
    for radius in range(4):
        width = 2 * radius + 1
        points, levels = [], []
        for lead, level in _slabs(radius, dim):
            assert len(lead) == dim - level and level >= 1
            shell, grid = _slab_points(radius, level)
            # a slab starts where its level divides the flat index
            assert len(points) % width ** level == 0
            # one column per point
            rows = [tuple(int(v) for v in row) for row in grid.T]
            points += [tuple(lead) + row for row in rows]
            assert [tuple(int(v) for v in row) for row in shell.T] == [
                row for row in rows if max(map(abs, row)) == radius]
            levels.append(level)
        assert points == list(itertools.product(range(-radius, radius + 1),
                                                repeat=dim))
        # the first slab holds at most the first size unless one offset
        # alone exceeds it; levels rise by one once a slab of the next is
        # filled, up to the largest slab
        low = max([1] + [f for f in range(1, dim + 1) if width ** f <= first])
        top = max([low] + [f for f in range(1, dim + 1) if width ** f <= slab])
        assert levels[0] == low and max(levels) <= top
        assert levels == sorted(levels)
        for f in set(levels) - {low}:
            assert levels.count(f - 1) == (width if f - 1 == low else width - 1)


def test_slabs_beyond_index_range():
    # 3**45 cube points overflow a 64-bit flat index; the slabs must still
    # follow the product order
    slabs = itertools.islice(_slabs(1, 45), 12)
    points = itertools.chain.from_iterable(
        (tuple(lead) + tuple(int(v) for v in row)
         for row in _slab_points(1, level)[1].T) for lead, level in slabs)
    points = list(points)
    want = itertools.islice(itertools.product((-1, 0, 1), repeat=45),
                            len(points))
    assert points == list(want) and len(points) > 1000


def test_control_input_at_target():
    step = control_input(np.array([2.0, 3.0]), np.array([2.0, 3.0]),
                         np.eye(2), 0.99)
    assert step.hit
    assert vec_1norm(step.u) == 0.0


def test_control_input_normalizes():
    # identity update matrix, |x* - x|_1 = 5: the step is rescaled to mu
    step = control_input(np.zeros(2), np.array([2.0, 3.0]), np.eye(2), 0.99)
    assert not step.hit
    assert_allclose(vec_1norm(step.u), 0.99)


def test_control_input_singular_delta_raises():
    with pytest.raises(SingularMatrixError):
        control_input(np.zeros(2), np.ones(2), np.zeros((2, 2)), 0.5)


def test_emitted_inputs_keep_schur_property():
    # every input the law can emit has 1-norm < 1, hence a Schur polynomial
    rng = np.random.default_rng(41)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        delta = rng.normal(size=(n, n)) + 3 * np.eye(n)
        step = control_input(rng.normal(size=n), rng.normal(size=n), delta,
                             0.99)
        assert vec_1norm(step.u) < 1.0
        if n >= 1 and vec_1norm(step.u) > 0:
            assert schur_check(monic_from_vector(step.u)).is_schur


def test_fallback_center_matches_the_polynomial_route():
    # v, the vector of z^(n-m) num / leading, as a Polynomial made it: the
    # same bits, and the same error when the division overflows
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(200):
        den, num = random_plant(rng, n_max=8)
        n = den.coeffs.size - 1
        if num.coeffs[0] == 0.0:
            continue
        x0 = rng.normal(size=n) * 5.0
        planes = build_hyperplanes(num, n)
        try:
            active = active_index_set(x0, planes)
        except InconsistentActiveSetError:
            continue
        if not active.index:
            continue
        m = num.coeffs.size - 1
        v = Polynomial(num.coeffs / num.leading).shifted(n - m).coeffs[-2::-1]
        dist = float(np.min(np.abs(active.sides0) / active.norms))
        want = (x0 - v) / dist + v
        got = target._fallback_center(x0, num, active)
        assert got.tobytes() == want.tobytes()
        checked += 1
    assert checked > 100
    huge = Polynomial([1e300, 1.0, 1e-10])
    planes = build_hyperplanes(Polynomial([1.0, 1.0]), 2)
    active = active_index_set(np.array([3.0, 1.0]), planes)
    with np.errstate(over="ignore"), pytest.raises(
            ValueError, match="^polynomial coefficients must be finite$"):
        target._fallback_center(np.zeros(2), huge, active)
