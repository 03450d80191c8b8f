import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from intctrl import Polynomial, coprime_check, solve_diophantine
from intctrl.bezout import NotCoprimeError, _dense_solve, _monomial_fast_path
from intctrl.numeric import SingularMatrixError, solve_linear

Z = Polynomial([0, 1])


def bezout_identity(den, num):
    """Oracle: the unique ``(u, v)`` with ``u*den + v*num = 1``,
    ``deg(u) < deg(num)`` and ``deg(v) < deg(den)``, from the Sylvester
    system."""
    dd, dn = den.coeffs.size - 1, num.coeffs.size - 1
    A = np.zeros((dd + dn, dd + dn))
    for j in range(dn):
        A[j : j + dd + 1, j] = den.coeffs
    for i in range(dd):
        A[i : i + dn + 1, dn + i] = num.coeffs
    rhs = np.zeros(dd + dn)
    rhs[0] = 1.0
    try:
        x = solve_linear(A, rhs)
    except SingularMatrixError as exc:
        raise NotCoprimeError(str(exc)) from exc
    u, v = Polynomial(x[:dn]), Polynomial(x[dn:])
    err = (u * den + v * num - Polynomial.one()).max_abs()
    if err > 1e-10 * max(1.0, den.max_abs(), num.max_abs()):
        raise NotCoprimeError(f"Bezout residual {err:.3e} above tolerance")
    return u, v


def test_diophantine_constant_modulus_is_division():
    # p = z-1, q = z^2, modulus 1: z^2 = (z-1)(z+1) + 1
    r, s = solve_diophantine(Polynomial([-1, 1]), Polynomial([0, 0, 1]),
                             Polynomial.one())
    assert_allclose(r.coeffs, [1, 1], atol=1e-12)
    assert_allclose(s.coeffs, [1], atol=1e-12)


def test_diophantine_forced_zero_cofactor():
    # p = z, q = z^2, modulus z+2: matching the constant term forces s = 0
    r, s = solve_diophantine(Z, Polynomial([0, 0, 1]), Polynomial([2, 1]))
    assert_allclose(r.coeffs, [0, 1], atol=1e-12)
    assert s.is_zero or s.max_abs() < 1e-12


def test_diophantine_hand_solved_system():
    # p = z, q = z^2+1, modulus z+2.  Coefficient matching:
    #   z^0: 2 s0 = 1, z^1: r0 + s0 = 0, z^2: r1 = 1
    # hence r = z - 1/2, s = 1/2
    r, s = solve_diophantine(Z, Polynomial([1, 0, 1]), Polynomial([2, 1]))
    assert_allclose(r.coeffs, [-0.5, 1.0], atol=1e-12)
    assert_allclose(s.coeffs, [0.5], atol=1e-12)


def test_diophantine_deterministic():
    rng = np.random.default_rng(10)
    p = Polynomial(np.concatenate([rng.normal(size=3), [1.0]]))
    q = Polynomial(np.concatenate([rng.normal(size=6), [1.0]]))
    m = Polynomial(rng.normal(size=3))
    a = solve_diophantine(p, q, m)
    b = solve_diophantine(p, q, m)
    assert np.array_equal(a.r.coeffs, b.r.coeffs)
    assert np.array_equal(a.s.coeffs, b.s.coeffs)


def test_diophantine_degree_contract_fuzz():
    # deg(q) >= deg(p) + deg(m) keeps the degree inequality strict, the
    # regime in which r inherits q's monicity (the only regime the
    # synthesis pipeline uses)
    rng = np.random.default_rng(123)
    for _ in range(500):
        dp = int(rng.integers(1, 5))
        p = Polynomial(np.concatenate([rng.normal(size=dp), [1.0]]))
        dm = int(rng.integers(0, dp + 2))
        m = Polynomial(rng.normal(size=dm + 1))
        if m.is_zero or abs(m.coeffs[-1]) < 1e-3:
            continue
        dq = dp + dm + int(rng.integers(0, 4))
        q = Polynomial(np.concatenate([rng.normal(size=dq), [1.0]]))
        try:
            r, s = solve_diophantine(p, q, m)
        except NotCoprimeError:
            continue
        assert (s.coeffs.size - 1 if not s.is_zero else -1) < dp
        assert r.coeffs.size - 1 == dq - dp
        assert r.is_monic(1e-6)  # q and p monic, strict degree inequality
        resid = (p * r + s * m - q).max_abs()
        assert resid <= 1e-9 * (1.0 + q.max_abs())


def test_diophantine_matches_classical_construction():
    # with modulus fixed, the map (den, target) -> controller denominator
    # from the Bezout identity route must agree: den_c = u*target + d*num
    # where d is the quotient of (v*target) / den
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        den = Polynomial(np.concatenate([rng.normal(size=n), [1.0]]))
        num = Polynomial(rng.normal(size=int(rng.integers(1, n + 1))))
        if num.is_zero or abs(num.coeffs[-1]) < 1e-2:
            continue
        if coprime_check(den, num).quality < 1e-5:
            continue
        target = Polynomial(np.concatenate([rng.normal(size=2 * n), [1.0]]))
        u, v = bezout_identity(den, num)
        d, neg_ctrl_num = divmod(v * target, den)
        via_bezout = u * target + d * num
        direct = solve_diophantine(den, target, num).r
        assert direct.allclose(via_bezout, 1e-7)


def test_diophantine_monomial_fast_path_matches_dense():
    # the resultant of z^k and m scales like m(0)^k, so draws whose
    # normalized constant term is small are genuinely near-non-coprime and
    # are filtered out rather than asserted on
    rng = np.random.default_rng(55)
    checked = 0
    while checked < 100:
        k = int(rng.integers(1, 12))
        n = int(rng.integers(1, 5))
        m = Polynomial(rng.normal(size=n + 1))
        if m.is_zero or (abs(m.coeffs[0]) / m.max_abs()) ** k < 1e-5:
            continue
        dq = k + int(rng.integers(0, 4)) + n
        q = Polynomial(np.concatenate([rng.normal(size=dq), [1.0]]))
        p = Polynomial.monomial(k)
        fast = solve_diophantine(p, q, m)
        dense_r, dense_s = _dense_solve(p, q, m)
        assert fast.r.allclose(dense_r, 1e-7)
        assert fast.s.allclose(dense_s, 1e-7)
        checked += 1


@pytest.mark.parametrize("k", [20, 200])
def test_diophantine_overflowing_series_falls_back_to_dense(k):
    # the inverse series of z + 0.01 grows like 100^i and overflows by
    # i = 200; the dense solve then reports the near-common factor (the
    # resultant of z^k and the modulus is 0.01^k) without a warning
    p = Polynomial.monomial(k)
    q = Polynomial(np.r_[np.ones(k + 1), 1.0])
    m = Polynomial([0.01, 1.0])
    if k == 200:
        assert _monomial_fast_path(k, q, m) is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotCoprimeError):
            solve_diophantine(p, q, m)


def test_diophantine_preconditions():
    with pytest.raises(ValueError):
        solve_diophantine(Polynomial([0, 2]), Polynomial([0, 0, 1]),
                          Polynomial.one())  # not monic
    with pytest.raises(ValueError):
        solve_diophantine(Polynomial([0, 0, 1]), Z, Polynomial.one())  # deg q < deg p


def test_diophantine_not_coprime():
    # p and modulus share the root 1
    p = Polynomial.from_roots([1.0, 2.0])
    m = Polynomial.from_roots([1.0, -3.0])
    q = Polynomial(np.arange(1.0, 6.0))
    with pytest.raises(NotCoprimeError):
        solve_diophantine(p, q, m)


def test_bezout_trivial():
    u, v = bezout_identity(Z, Polynomial.one())
    assert u.is_zero
    assert_allclose(v.coeffs, [1.0])


def test_bezout_symmetric_pair():
    # u(z-1) + v(z+1) = 1 with deg u = deg v = 0: u = -1/2, v = 1/2
    u, v = bezout_identity(Polynomial([-1, 1]), Polynomial([1, 1]))
    assert_allclose(u.coeffs, [-0.5], atol=1e-14)
    assert_allclose(v.coeffs, [0.5], atol=1e-14)


def test_bezout_pendulum_residual(pendulum):
    den, num = pendulum
    u, v = bezout_identity(den, num)
    resid = (u * den + v * num - Polynomial.one()).max_abs()
    assert resid < 1e-8
    assert u.coeffs.size - 1 < num.coeffs.size - 1 or u.is_zero
    assert v.coeffs.size - 1 < den.coeffs.size - 1


def test_bezout_not_coprime():
    a = Polynomial.from_roots([0.5, 2.0])
    b = Polynomial.from_roots([0.5])
    with pytest.raises(NotCoprimeError):
        bezout_identity(a, b)


def test_coprime_distinct_roots():
    ok, quality = coprime_check(Polynomial([-1, 1]), Polynomial([1, 1]))
    assert ok and quality > 1e-3


def test_coprime_shared_root():
    a = Polynomial.from_roots([1.0, 2.0])
    b = Polynomial.from_roots([1.0, -3.0])
    ok, quality = coprime_check(a, b)
    assert not ok and quality < 1e-10


def test_coprime_planted_vs_perturbed_fuzz():
    rng = np.random.default_rng(6)
    for _ in range(100):
        shared = float(rng.uniform(-1.5, 1.5))
        rest_a = [float(rng.uniform(-1.5, 1.5)) for _ in range(2)]
        rest_b = [float(rng.uniform(-1.5, 1.5)) for _ in range(2)]
        a = Polynomial.from_roots([shared] + rest_a)
        planted = Polynomial.from_roots([shared] + rest_b)
        # keep the perturbed root clear of the other polynomial's roots
        if min(abs(shared + 1e-2 - r) for r in rest_a) < 5e-2:
            continue
        perturbed = Polynomial.from_roots([shared + 1e-2] + rest_b)
        assert not coprime_check(a, planted).coprime
        assert coprime_check(a, perturbed).coprime


def test_coprime_constant_is_always_coprime():
    ok, quality = coprime_check(Polynomial([3.0]), Polynomial([0, 0, 1]))
    assert ok and quality == 1.0
