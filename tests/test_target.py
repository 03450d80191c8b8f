import itertools

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from intctrl import (DeltaFactors, Polynomial, TargetSearchConfig,
                     active_index_set, build_hyperplanes, control_input,
                     coprime_check, delta_matrix, find_integer_target,
                     monic_from_vector, schur_check, solve_diophantine,
                     solve_linear, toeplitz_stack, vec_1norm,
                     vector_from_monic)
from intctrl import target
from intctrl.numeric import SingularMatrixError
from intctrl.target import (InconsistentActiveSetError, IntegerTarget,
                            TargetMode, TargetSearchError, _fallback_center,
                            _shell_blocks)

from conftest import random_plant


def test_hyperplanes_constant_numerator_empty():
    hset = build_hyperplanes(Polynomial([2.5]), 3)
    assert len(hset) == 0


def test_hyperplane_single_real_root():
    # num = z - 0.5, n = 2: the power row [lam^2, lam, 1] = [0.25, 0.5, 1]
    # splits as offset -0.25 and normal [0.5, 1]
    hset = build_hyperplanes(Polynomial([-0.5, 1]), 2)
    assert len(hset) == 1
    plane = hset[0]
    assert_allclose(plane.normal, [0.5, 1.0])
    assert_allclose(plane.offset, -0.25)
    # membership <=> the vector's polynomial vanishes at the root
    x_on = np.array([1.0, plane.offset - plane.normal[0] * 1.0])
    assert abs(monic_from_vector(x_on)(0.5)) < 1e-12


def test_hyperplanes_pendulum(pendulum):
    _, num = pendulum
    hset = build_hyperplanes(num, 4)
    assert len(hset) == 3
    assert all(p.kind == "real-root" for p in hset)
    assert hset.n_real == 3 and hset.n_complex_pairs == 0


def test_hyperplane_sides_match_polynomial_values():
    # the signed functional equals the real/imaginary part of the vector's
    # polynomial at the source root
    rng = np.random.default_rng(17)
    num = Polynomial.from_roots([0.7, -1.2, 0.3 + 0.8j, 0.3 - 0.8j], leading=0.4)
    n = 5
    hset = build_hyperplanes(num, n)
    assert hset.n_real == 2 and hset.n_complex_pairs == 1
    for _ in range(50):
        x = rng.normal(size=n) * 3
        p = monic_from_vector(x)
        for plane in hset:
            val = p(plane.source_root)
            want = val.real if plane.kind != "complex-imag-part" else val.imag
            assert abs(plane.side(x) - want) < 1e-9 * (1 + abs(want))


def test_active_set_empty_planes():
    hset = build_hyperplanes(Polynomial([1.0]), 2)
    assert active_index_set(np.zeros(2), hset) == ()


def test_active_set_excludes_vanishing_imag_part():
    # construct x whose polynomial takes a purely real value at the complex
    # root: the imaginary-part plane must drop out of the active set
    num = Polynomial.from_roots([1j, -1j])  # z^2 + 1
    n = 2
    hset = build_hyperplanes(num, n)
    assert [p.kind for p in hset] == ["complex-real-part", "complex-imag-part"]
    # p_x(i) = i^2 + x1*i + x0 = (x0 - 1) + x1*i: choose x1 = 0, x0 = 3
    x = np.array([0.0, 3.0])
    active = active_index_set(x, hset)
    assert active == (0,)


def test_active_set_pendulum_all_real(pendulum):
    den, num = pendulum
    gamma = Polynomial.monomial(8)
    x0 = vector_from_monic(solve_diophantine(den, gamma, num).r, 4)
    hset = build_hyperplanes(num, 4)
    assert active_index_set(x0, hset) == (0, 1, 2)


def test_active_set_real_root_violation_raises():
    num = Polynomial.from_roots([0.5])  # root 0.5
    hset = build_hyperplanes(num, 2)
    x_on_plane = np.array([1.0, -0.75])  # z^2 + z - 0.75 has root 0.5
    with pytest.raises(InconsistentActiveSetError):
        active_index_set(x_on_plane, hset)


def test_delta_scalar_constant_numerator():
    factors = DeltaFactors.from_numerator(Polynomial([3.0]), 1)
    assert_allclose(delta_matrix(np.array([7.0]), factors), [[1.0]])


def test_delta_constant_numerator_unit_lower_triangular():
    # hand expansion: stacked matrix of [1; x] has unit diagonal and x1 below
    factors = DeltaFactors.from_numerator(Polynomial([2.0]), 2)
    out = delta_matrix(np.array([5.0, -3.0]), factors)
    assert_allclose(out, [[1.0, 0.0], [5.0, 1.0]])


def test_delta_bottom_block_upper_triangular(pendulum):
    _, num = pendulum
    factors = DeltaFactors.from_numerator(num, 4)
    bottom = factors.bottom
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
            factors = DeltaFactors.from_numerator(num, n)
            x = rng.normal(size=n) * 3.0
            Tm = toeplitz_stack(monic_from_vector(x), n)
            lower = scipy.linalg.solve_triangular(factors.bottom, Tm[n:])
            want = Tm[:n] - factors.top @ lower
            assert delta_matrix(x, factors).tobytes() == want.tobytes()


def test_delta_singular_iff_shared_root():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = 4
        roots = [rng.uniform(-1.4, 1.4) for _ in range(3)]
        num = Polynomial.from_roots(roots, leading=float(rng.uniform(0.3, 2)))
        factors = DeltaFactors.from_numerator(num, n)
        if abs(num(0.0)) < 1e-3:
            continue
        # planted shared root: delta singular to tolerance
        shared = Polynomial.from_roots([roots[0]] + [rng.uniform(-1.4, 1.4)
                                                     for _ in range(n - 1)])
        x_bad = vector_from_monic(shared, n)
        cond = np.linalg.cond(delta_matrix(x_bad, factors))
        assert cond > 1e8
        # coprime vector: the update matrix must be solvable
        x_ok = rng.normal(size=n)
        if coprime_check(monic_from_vector(x_ok), num).quality < 1e-4:
            continue
        solve_linear(delta_matrix(x_ok, factors), np.ones(n))


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
        factors = DeltaFactors.from_numerator(m, n)
        vec_route = x + delta_matrix(x, factors) @ u
        prod = (monic_from_vector(x) * monic_from_vector(u)).shifted(shift)
        poly_route = solve_diophantine(Polynomial.monomial(shift + n), prod, m).r
        assert_allclose(vec_route, vector_from_monic(poly_route, n),
                        rtol=0, atol=1e-9 * (1 + np.max(np.abs(vec_route))))


def test_find_target_no_constraints_rounds():
    hset = build_hyperplanes(Polynomial([1.0]), 3)
    found = find_integer_target(np.array([0.2, -1.7, 2.5]), hset, (),
                                Polynomial([1.0]))
    assert_allclose(found.x_star, [0.0, -2.0, 2.0])
    assert found.strategy == "round"


def test_find_target_integer_start_is_fixed_point(pendulum):
    _, num = pendulum
    n = 4
    hset = build_hyperplanes(num, n)
    x0 = np.array([-1.0, -13.0, -4.0, 10.0])
    active = active_index_set(x0, hset)
    found = find_integer_target(x0, hset, active, num)
    assert np.array_equal(found.x_star, x0)
    assert found.candidates_examined == 1


def test_find_target_pendulum_rounds(pendulum):
    den, num = pendulum
    n = 4
    x0 = vector_from_monic(solve_diophantine(den, Polynomial.from_roots(
        [-0.2616, 0.3728, 0.6769 + 0.649j, 0.6769 - 0.649j,
         0.9168 + 0.199j, 0.9168 - 0.199j, 0.965 + 0.1j, 0.965 - 0.1j]),
        num).r, n)
    hset = build_hyperplanes(num, n)
    active = active_index_set(x0, hset)
    found = find_integer_target(x0, hset, active, num,
                                TargetSearchConfig(mode="round"))
    assert_allclose(found.x_star, [-1.0, -13.0, -4.0, 10.0])


def test_find_target_round_mode_failure_raises():
    # plane from root 0.8 lies at x = -0.8; x0 = -0.75 sits on the + side
    # but rounds to -1.0 on the - side, so rounding alone must fail
    num = Polynomial.from_roots([0.8])
    n = 1
    hset = build_hyperplanes(num, n)
    x0 = np.array([-0.75])
    with pytest.raises(TargetSearchError):
        find_integer_target(x0, hset, (0,), num, TargetSearchConfig(mode="round"))
    # auto mode falls through to the shell search and lands on 0.0
    found = find_integer_target(x0, hset, (0,), num)
    assert found.x_star[0] == 0.0
    assert found.strategy == "shell"


def test_find_target_fallback_recentre():
    # squeeze x0 between two nearby parallel-ish planes so no small-shell
    # integer point is feasible, forcing the constructive recentre
    num = Polynomial.from_roots([0.31, 0.33], leading=1.0)
    n = 2
    hset = build_hyperplanes(num, n)
    # x0 between the two root planes: p_x(0.31) < 0 < p_x(0.33)
    # pick p_x = (z - 0.32)(z - b) with b far away
    x0 = vector_from_monic(Polynomial.from_roots([0.32, -5.0]), n)
    active = active_index_set(x0, hset)
    cfg = TargetSearchConfig(mode="fallback", max_radius=3)
    found = find_integer_target(x0, hset, active, num, cfg)
    assert found.strategy == "fallback"
    for t in active:
        assert hset[t].side(found.x_star) * hset[t].side(x0) > 0


# Scalar reference search: one candidate at a time, one plane at a time.  The
# block evaluation in intctrl.target must pick the same target after the
# same number of candidates.

def _oracle_same_side(x0, cand, hset, active, sides0, cfg):
    sup = float(np.max(np.abs(cand), initial=0.0))
    for t in active:
        plane = hset[t]
        s1 = plane.side(cand)
        margin = cfg.tol_side * (1.0 + vec_1norm(plane.normal) * max(1.0, sup))
        if sides0[t] * s1 <= 0.0 or abs(s1) <= margin:
            return False
    # the block search tests the endpoint only; walking the segment here
    # shows that the endpoint test with its margin already decides
    for rho in np.linspace(0.0, 1.0, 64):
        xm = rho * x0 + (1.0 - rho) * cand
        for t in active:
            if sides0[t] * hset[t].side(xm) < 0.0:
                return False
    return True


def _oracle_shells(center, max_radius, dim):
    yield center.copy()
    for radius in range(1, max_radius + 1):
        for off in itertools.product(range(-radius, radius + 1), repeat=dim):
            if max(abs(o) for o in off) == radius:
                yield center + np.array(off, dtype=float)


def oracle_find_integer_target(x0, hset, active, num, cfg=None):
    cfg = cfg or TargetSearchConfig()
    x0 = np.asarray(x0, dtype=float)
    sides0 = np.array([p.side(x0) for p in hset]) if len(hset) else np.zeros(0)
    active = tuple(active)
    if not active:
        return IntegerTarget(np.round(x0), "round", 1)

    def feasible(cand):
        return _oracle_same_side(x0, cand, hset, active, sides0, cfg)

    examined = 0
    if cfg.prefer_origin:
        examined += 1
        origin = np.zeros_like(x0)
        if feasible(origin):
            return IntegerTarget(origin, "origin", examined)
    rounded = np.round(x0)
    if cfg.mode in (TargetMode.ROUND, TargetMode.AUTO, TargetMode.SEARCH):
        examined += 1
        if feasible(rounded):
            return IntegerTarget(rounded, "round", examined)
        if cfg.mode == TargetMode.ROUND:
            raise TargetSearchError(
                "round(x0) is not on the same side of every active plane")
    if cfg.mode in (TargetMode.SEARCH, TargetMode.AUTO):
        for cand in itertools.islice(_oracle_shells(rounded, cfg.max_radius,
                                                    hset.dim),
                                     1, cfg.max_candidates):
            examined += 1
            if feasible(cand):
                return IntegerTarget(cand, "shell", examined)
        if cfg.mode == TargetMode.SEARCH:
            raise TargetSearchError(
                f"no integer target within Chebyshev radius {cfg.max_radius} "
                "of round(x0)")
    center = np.round(_fallback_center(x0, num, hset, active))
    for cand in itertools.islice(_oracle_shells(center, cfg.max_radius,
                                                hset.dim),
                                 cfg.max_candidates):
        examined += 1
        if feasible(cand):
            return IntegerTarget(cand, "fallback", examined)
    raise TargetSearchError(
        "integer-target search exhausted (existence is guaranteed for "
        "coprime inputs; check tolerances and max_radius)")


def assert_matches_oracle(x0, hset, active, num, cfg=None):
    """Same target bit for bit, same strategy and count, or the same error;
    returns the oracle's target, or None when both raised."""
    try:
        want = oracle_find_integer_target(x0, hset, active, num, cfg)
    except TargetSearchError as exc:
        with pytest.raises(TargetSearchError) as got:
            find_integer_target(x0, hset, active, num, cfg)
        assert str(got.value) == str(exc)
        return None
    got = find_integer_target(x0, hset, active, num, cfg)
    assert got.x_star.tobytes() == want.x_star.tobytes()
    assert got.strategy == want.strategy
    assert got.candidates_examined == want.candidates_examined
    return want


def _squeezed_3d():
    # x0 between the planes of the nearby roots 0.31 and 0.33: the shell
    # phase needs 22 points after round(x0), over several blocks
    num = Polynomial.from_roots([0.31, 0.33, -0.5])
    hset = build_hyperplanes(num, 3)
    x0 = vector_from_monic(Polynomial.from_roots([0.32, -5.0, 0.1]), 3)
    return x0, hset, active_index_set(x0, hset), num


def test_block_search_matches_oracle_on_hand_cases(pendulum):
    num = Polynomial.from_roots([0.8])
    hset = build_hyperplanes(num, 1)
    for mode in ("auto", "search", "fallback", "round"):
        assert_matches_oracle(np.array([-0.75]), hset, (0,), num,
                              TargetSearchConfig(mode=mode))

    num = Polynomial.from_roots([0.31, 0.33], leading=1.0)
    hset = build_hyperplanes(num, 2)
    x0 = vector_from_monic(Polynomial.from_roots([0.32, -5.0]), 2)
    active = active_index_set(x0, hset)
    for cfg in (TargetSearchConfig(mode="fallback", max_radius=3),
                TargetSearchConfig(), TargetSearchConfig(prefer_origin=True)):
        assert_matches_oracle(x0, hset, active, num, cfg)

    x0, hset, active, num = _squeezed_3d()
    assert assert_matches_oracle(x0, hset, active, num).strategy == "shell"
    # a numerator that is not the planes' own moves the fallback centre
    # off the feasible region, so the fallback phase walks its shells
    found = assert_matches_oracle(x0, hset, active, Polynomial([1.0]),
                                  TargetSearchConfig(mode="fallback"))
    assert found.strategy == "fallback" and found.candidates_examined > 100

    den, num = pendulum
    for gamma in (Polynomial.monomial(8), Polynomial.from_roots(
            [-0.2616, 0.3728, 0.6769 + 0.649j, 0.6769 - 0.649j,
             0.9168 + 0.199j, 0.9168 - 0.199j, 0.965 + 0.1j, 0.965 - 0.1j])):
        x0 = vector_from_monic(solve_diophantine(den, gamma, num).r, 4)
        hset = build_hyperplanes(num, 4)
        assert_matches_oracle(x0, hset, active_index_set(x0, hset), num)


def test_block_search_matches_oracle_on_random_plants():
    # unfiltered random plants; a smaller budget keeps the scalar oracle
    # fast and sends the deepest instances on to the fallback phase
    rng = np.random.default_rng(5)
    cfg = TargetSearchConfig(max_candidates=5000)
    strategies = []
    for _ in range(200):
        den, num = random_plant(rng)
        if abs(num(0.0)) < 1e-6:
            continue
        n = den.coeffs.size - 1
        try:
            r0 = solve_diophantine(den, Polynomial.monomial(2 * n), num).r
            x0 = vector_from_monic(r0, n)
            hset = build_hyperplanes(num, n)
            active = active_index_set(x0, hset)
        except ValueError:  # not coprime, or a real-root plane through x0
            continue
        found = assert_matches_oracle(x0, hset, active, num, cfg)
        strategies.append(found.strategy if found else "raised")
    assert strategies.count("shell") >= 40
    assert strategies.count("round") >= 100
    assert "fallback" in strategies


@pytest.mark.parametrize("block", [1, 3, 7, target.SHELL_BLOCK])
def test_block_search_budget_matches_oracle(monkeypatch, block):
    monkeypatch.setattr(target, "SHELL_BLOCK", block)
    x0, hset, active, num = _squeezed_3d()
    for max_candidates in range(1, 27):
        assert_matches_oracle(x0, hset, active, num, TargetSearchConfig(
            mode="search", max_candidates=max_candidates))
    for max_candidates in (1, 2, 165, 166, 167, 168):
        assert_matches_oracle(x0, hset, active, Polynomial([1.0]),
                              TargetSearchConfig(mode="fallback",
                                                 max_candidates=max_candidates))
    # radius exhausted before the budget, in both phases
    assert assert_matches_oracle(x0, hset, active, num, TargetSearchConfig(
        mode="search", max_radius=0)) is None
    assert assert_matches_oracle(x0, hset, active, Polynomial([1.0]),
                                 TargetSearchConfig(mode="fallback",
                                                    max_radius=2)) is None


def test_budget_ends_on_and_inside_a_block(monkeypatch):
    # the shell phase examines max_candidates - 1 points after round(x0);
    # with blocks of 7 flat indices the radius-1 shell of dimension 3 comes
    # in blocks of 7, 6, 7 and 6 points, and the target is the 22nd point
    monkeypatch.setattr(target, "SHELL_BLOCK", 7)
    x0, hset, active, num = _squeezed_3d()
    edges = np.cumsum([len(b) for r in (1, 2) for b in _shell_blocks(r, 3)])
    assert list(edges[:4]) == [7, 13, 20, 26]
    on_edge = TargetSearchConfig(mode="search", max_candidates=21)
    with pytest.raises(TargetSearchError):
        find_integer_target(x0, hset, active, num, on_edge)
    inside = TargetSearchConfig(mode="search", max_candidates=23)
    found = find_integer_target(x0, hset, active, num, inside)
    assert found.candidates_examined == 23
    assert_matches_oracle(x0, hset, active, num, on_edge)
    assert_matches_oracle(x0, hset, active, num, inside)


@pytest.mark.parametrize("block", [1, 7, target.SHELL_BLOCK])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_shell_blocks_follow_product_order(monkeypatch, block, dim):
    monkeypatch.setattr(target, "SHELL_BLOCK", block)
    for radius in range(4):
        want = [off for off in itertools.product(range(-radius, radius + 1),
                                                 repeat=dim)
                if max(abs(o) for o in off) == radius]
        blocks = list(_shell_blocks(radius, dim))
        assert all(b.dtype.kind == "i" and b.shape[1] == dim
                   and len(b) <= block for b in blocks)
        assert [tuple(int(v) for v in row) for b in blocks for row in b] == want


def test_shell_blocks_beyond_index_range():
    # 3**45 cube points overflow a 64-bit flat index; the first block must
    # still follow the product order
    first = next(_shell_blocks(1, 45))
    want = itertools.islice((off for off in itertools.product((-1, 0, 1),
                                                             repeat=45)
                             if max(abs(o) for o in off) == 1), len(first))
    assert [tuple(int(v) for v in row) for row in first] == list(want)


@pytest.mark.parametrize("kw", [
    {"mode": "bogus"}, {"max_radius": -1}, {"max_candidates": 0},
    {"tol_side": float("inf")}, {"tol_active": float("nan")},
    {"tol_active": -1e-9},
    {"tol_side": -1.0}, {"tol_side": float("nan")},
    {"tol_active": float("inf")}])
def test_target_config_rejects_out_of_range(kw):
    with pytest.raises(ValueError):
        TargetSearchConfig(**kw)


def test_target_config_accepts_edge_values():
    cfg = TargetSearchConfig(mode="round", max_radius=0, max_candidates=1,
                             tol_active=0.0, tol_side=0.0)
    assert cfg.max_candidates == 1


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


def test_control_input_requires_valid_mu():
    with pytest.raises(ValueError):
        control_input(np.zeros(1), np.ones(1), np.eye(1), 1.0)


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
