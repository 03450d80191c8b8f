import warnings

import numpy as np
import pytest
import scipy.linalg
from numpy.polynomial.polynomial import polydiv
from numpy.testing import assert_allclose

from intctrl import Polynomial, bezout
from intctrl.bezout import (NotCoprimeError, _dense_solve,
                            coprime_check, solve_diophantine)
from intctrl.numeric import SingularMatrixError, _lu_solve
from intctrl.poly import trim

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
        x = _lu_solve(A, rhs)
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
        d = Polynomial(polydiv((v * target).coeffs, den.coeffs)[0])
        via_bezout = u * target + d * num
        direct = solve_diophantine(den, target, num).r
        assert direct.allclose(via_bezout, 1e-7)


def oracle_dense_system(p, q, modulus):
    """The coefficient-matching matrix of ``_dense_solve``, filled one column
    at a time, and its right-hand side."""
    dp, dm, dq = p.coeffs.size - 1, modulus.coeffs.size - 1, q.coeffs.size - 1
    dr = dq - dp
    A = np.zeros((dq + 1, dq + 1))
    for j in range(dr + 1):
        A[j : j + dp + 1, j] = p.coeffs
    for i in range(dp):
        A[i : i + dm + 1, dr + 1 + i] = modulus.coeffs
    rhs = np.zeros(dq + 1)
    rhs[: q.coeffs.size] = q.coeffs
    return A, rhs


@pytest.mark.parametrize("dq_extra", [0, 3, 240])
def test_dense_solve_matches_column_oracle(monkeypatch, dq_extra):
    # dq_extra = 240 gives systems past dimension 200; roots of p well
    # inside the unit circle keep the long systems well conditioned.  The
    # oracle solve goes through scipy's LU wrappers.
    seen = []

    def recording_solve(A, b):
        seen.append((A.copy(), b.copy()))
        return _lu_solve(A, b)

    monkeypatch.setattr(bezout, "_lu_solve", recording_solve)
    rng = np.random.default_rng(61 + dq_extra)
    checked = 0
    while checked < 20:
        dp = int(rng.integers(0, 9))
        dm = int(rng.integers(0, 9))
        p = Polynomial.from_roots(rng.uniform(-0.7, 0.7, dp))
        m = Polynomial(rng.normal(size=dm + 1))
        if dp and coprime_check(p, m).quality < 1e-4:
            continue
        dq = max(dp, dp - 1 + dm) + int(rng.integers(0, 3)) + dq_extra
        q = Polynomial(np.concatenate([rng.normal(size=dq), [1.0]]))
        seen.clear()
        r, s = _dense_solve(p, q, m)
        A, rhs = oracle_dense_system(p, q, m)
        assert seen[0][0].tobytes() == A.tobytes()
        assert seen[0][1].tobytes() == rhs.tobytes()
        x = scipy.linalg.lu_solve(scipy.linalg.lu_factor(A), rhs)
        dr = dq - dp
        assert r.coeffs.tobytes() == Polynomial(x[: dr + 1]).coeffs.tobytes()
        assert s.coeffs.tobytes() == trim(Polynomial(x[dr + 1 :])).coeffs.tobytes()
        checked += 1


def test_dense_solve_matrix_keeps_signed_zero_coefficients(monkeypatch):
    # a p such as z^shift * den / scale can hold -0.0: the system matrix
    # must match the column oracle bit for bit either way
    seen = []
    monkeypatch.setattr(bezout, "_lu_solve",
                        lambda A, b: seen.append(A.copy()) or _lu_solve(A, b))
    rng = np.random.default_rng(89)
    for shift in (0, 1, 7, 30):
        for _ in range(10):
            c = np.concatenate([rng.normal(size=int(rng.integers(1, 8))), [1.0]])
            c[:-1][rng.random(c.size - 1) < 0.4] = -0.0
            c[0] = rng.choice([c[0], 0.7])
            p = Polynomial(c).shifted(shift)
            m = Polynomial(rng.normal(size=int(rng.integers(1, 6))))
            dq = p.coeffs.size - 1 + m.coeffs.size - 1 + int(rng.integers(0, 3))
            q = Polynomial(np.concatenate([rng.normal(size=dq), [1.0]]))
            seen.clear()
            try:
                _dense_solve(p, q, m)
            except NotCoprimeError:
                pass
            assert seen[0].tobytes() == oracle_dense_system(p, q, m)[0].tobytes()


@pytest.mark.parametrize("k", [20, 200])
@pytest.mark.parametrize("m0", [0.01, 0.0])
def test_diophantine_monomial_near_common_root_is_not_coprime(k, m0):
    # the resultant of z^k and z + m0 is m0^k: the dense solve reports the
    # near-common or common factor without a warning
    p = Polynomial.monomial(k)
    q = Polynomial(np.r_[np.ones(k + 1), 1.0])
    m = Polynomial([m0, 1.0])
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


def oracle_coprime_check(a, b):
    """:func:`coprime_check` through normalized Polynomials, which strip
    the tops that underflow."""
    if a.is_zero or b.is_zero:
        raise ValueError("coprimality of a zero polynomial is undefined")
    if a.coeffs.size == 1 or b.coeffs.size == 1:
        return bezout.CoprimalityResult(True, 1.0)
    an = Polynomial(a.coeffs / a.max_abs()).coeffs
    bn = Polynomial(b.coeffs / b.max_abs()).coeffs
    if an.size < 2 or bn.size < 2:
        raise ValueError("both polynomials must have degree >= 1")
    sv = np.linalg.svd(bezout._sylvester(an, bn), compute_uv=False)
    quality = float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0
    return bezout.CoprimalityResult(quality > bezout.COPRIME_TOL, quality)


def _coprime_outcome(fn, a, b):
    try:
        ok, quality = fn(a, b)
    except ValueError as exc:
        return str(exc)
    return ok, np.float64(quality).tobytes()


def test_coprime_check_matches_polynomial_oracle():
    # random pairs over ten decades of scale, shared roots, constants, the
    # zero polynomial, and tops that underflow when normalized, so the
    # Polynomial route strips them
    rng = np.random.default_rng(83)
    big, tiny = 1e300, 1e-30
    cases = [(Polynomial([1.0, 2.0]), Polynomial.zero()),
             (Polynomial([3.0]), Polynomial([1.0, 1.0])),
             (Polynomial([big, 1.0, tiny]), Polynomial([1.0, 1.0])),
             (Polynomial([big, tiny]), Polynomial([1.0, 1.0])),
             (Polynomial([1.0, -1.0]), Polynomial([-1.0, 1.0]))]
    for _ in range(300):
        a = Polynomial(rng.normal(size=int(rng.integers(1, 13)))
                       * 10.0 ** rng.integers(-5, 6))
        b = Polynomial(rng.normal(size=int(rng.integers(1, 13)))
                       * 10.0 ** rng.integers(-5, 6))
        if rng.random() < 0.2:
            shared = Polynomial([-float(rng.normal()), 1.0])
            a, b = a * shared, b * shared
        cases.append((a, b))
    for a, b in cases:
        assert (_coprime_outcome(coprime_check, a, b)
                == _coprime_outcome(oracle_coprime_check, a, b))


def test_solution_off_its_residual_bound_is_not_coprime(monkeypatch):
    # no pair reaches the bound since it scales with |p*r| and |s*modulus|;
    # a solve whose r is off by 1e-6 must still be refused
    p, m = Polynomial([-0.5, 0.0, 1.0]), Polynomial([0.3, 1.0])
    q = Polynomial([0.1, 0.2, 0.3, 1.0])
    r, s = _dense_solve(p, q, m)
    assert solve_diophantine(p, q, m) == (r, s)
    monkeypatch.setattr(bezout, "_dense_solve",
                        lambda p, q, m: (r + Polynomial([1e-6]), s))
    with pytest.raises(NotCoprimeError, match=r"^Diophantine residual 1\.000e-06 "
                       r"exceeds 1\.0e-10 \* 1\.000e\+00; inputs are close "
                       r"to sharing a factor$") as err:
        solve_diophantine(p, q, m)
    assert err.value.pivot is None
