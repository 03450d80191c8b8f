import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from intctrl import Polynomial, numeric
from intctrl.numeric import (RootFindingError, SingularMatrixError, poly_roots,
                             schur_check, solve_linear, vec_1norm)

from conftest import schur_factor_product

PRINTED_PENDULUM_NUM = Polynomial([0.0021, -0.0023, -0.0023, 0.0021])


def test_solve_identity():
    b = np.array([1.0, -2.0, 3.0])
    assert_allclose(solve_linear(np.eye(3), b), b)


def test_solve_diagonal():
    assert_allclose(solve_linear(np.diag([2.0, 4.0]), np.array([2.0, 8.0])),
                    [1.0, 2.0])


def test_solve_residual():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(10, 10)) + 5.0 * np.eye(10)
    b = rng.normal(size=10)
    x = solve_linear(A, b)
    assert np.max(np.abs(A @ x - b)) < 1e-10 * max(1.0, np.max(np.abs(b)))


def test_solve_singular_reports_pivot():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError) as err:
        solve_linear(A, np.ones(2))
    assert err.value.pivot <= 1e-13 * err.value.scale


def test_solve_matches_scipy_wrappers():
    # the LU factors are solved with LAPACK getrs itself, the call
    # scipy.linalg.lu_solve makes
    rng = np.random.default_rng(13)
    for n in range(1, 40):
        A = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-3, 4)
        b = rng.normal(size=n)
        want = scipy.linalg.lu_solve(scipy.linalg.lu_factor(A), b)
        assert solve_linear(A, b).tobytes() == want.tobytes()


def test_norms():
    assert vec_1norm(np.array([1.0, -2.0, 3.0])) == 6.0


def test_roots_quadratic():
    roots = sorted(poly_roots(Polynomial([1, 0, 1])), key=lambda z: z.imag)
    assert_allclose(roots, [-1j, 1j], atol=1e-12)


def test_roots_factorable():
    roots = sorted(poly_roots(Polynomial([2, -3, 1])).real)
    assert_allclose(roots, [1.0, 2.0], atol=1e-10)


def test_roots_printed_pendulum_numerator():
    # independent companion-eigenvalue values for the printed coefficients
    roots = sorted(r.real for r in poly_roots(PRINTED_PENDULUM_NUM))
    assert_allclose(roots, [-1.0000, 0.7354, 1.3599], atol=5e-5)


def oracle_poly_roots(p, tol_root=1e-6):
    """:func:`poly_roots` with each residual from a scalar Horner loop in
    Python complex arithmetic."""
    roots = np.roots(p.coeffs[::-1])
    bad = []
    for r in roots:
        mags = np.abs(p.coeffs) * np.abs(r) ** np.arange(p.coeffs.size)
        scale = float(np.sum(mags))
        acc = 0.0 + 0.0j
        for c in p.coeffs[::-1]:
            acc = acc * complex(r) + c
        res = abs(acc)
        if res > tol_root * scale:
            bad.append((complex(r), res / scale))
    if bad:
        raise RootFindingError(bad)
    return roots


def _roots_outcome(fn, p, tol_root):
    # poly_roots reads its bound from the module constant
    try:
        if fn is poly_roots:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(numeric, "ROOT_TOL", tol_root)
                return poly_roots(p).tobytes()
        return fn(p, tol_root).tobytes()
    except RootFindingError as exc:
        return str(exc)


def test_roots_match_scalar_horner_oracle():
    # tol_root = 0 lists every nonzero residual in the message, so equal
    # messages mean equal residuals to the last bit
    rng = np.random.default_rng(17)
    for _ in range(60):
        deg = int(rng.integers(1, 41))
        c = rng.normal(size=deg + 1) * 10.0 ** rng.integers(-4, 5, deg + 1)
        p = Polynomial(c)
        if p.coeffs.size < 2:
            continue
        for tol in (1e-6, 0.0):
            assert (_roots_outcome(poly_roots, p, tol)
                    == _roots_outcome(oracle_poly_roots, p, tol))


def test_root_finding_error_matches_scalar_horner_oracle():
    # 25 monic Schur factors with |u|_1 = 0.99 at n = 8: degree 200 with
    # tight root clusters, whose computed roots miss the residual bound
    p = schur_factor_product(np.random.default_rng(0), 25)
    with pytest.raises(RootFindingError) as err:
        poly_roots(p)
    with pytest.raises(RootFindingError) as want:
        oracle_poly_roots(p)
    assert str(err.value) == str(want.value)
    assert err.value.residuals == want.value.residuals


def _oracle_cases():
    rng = np.random.default_rng(29)
    cases = []
    # z^k * P, the shape of every gamma grown from the default z^(2n)
    for k in (1, 2, 5, 16, 40):
        cases.append(Polynomial(rng.normal(size=int(rng.integers(2, 12)))).shifted(k))
    # pure and scaled monomials: only zero roots, no eigensolve
    for k in (1, 2, 7, 30):
        cases.append(Polynomial.monomial(k))
        cases.append(Polynomial([-2.5]).shifted(k))
    # all-real roots (a real eigenvalue array) and all-complex roots
    for deg in (1, 3, 8, 15):
        cases.append(Polynomial.from_roots(list(rng.uniform(-1.5, 1.5, deg))))
    for pairs in (1, 3, 7):
        roots = rng.uniform(0.2, 1.4, pairs) * np.exp(1j * rng.uniform(0.1, 3.0, pairs))
        cases.append(Polynomial.from_roots(list(roots) + list(roots.conj())))
    cases.append(Polynomial.from_roots([0.5 + 0.5j, 0.5 - 0.5j]).shifted(3))
    return cases


def test_roots_match_oracle_on_structured_polynomials():
    for p in _oracle_cases():
        for tol in (1e-6, 0.0):
            assert (_roots_outcome(poly_roots, p, tol)
                    == _roots_outcome(oracle_poly_roots, p, tol))


@pytest.mark.parametrize("factors", [13, 25, 40])
def test_roots_match_oracle_on_long_schur_products(factors):
    # degrees 120 (with z^16), 200 and 320: the largest gammas
    # certification meets
    p = schur_factor_product(np.random.default_rng(factors), factors)
    if factors == 13:
        p = p.shifted(16)
    for tol in (1e-6, 0.0):
        assert (_roots_outcome(poly_roots, p, tol)
                == _roots_outcome(oracle_poly_roots, p, tol))


def _residual_ratios(p):
    """Each root's residual ratio by the oracle, zero residuals left out."""
    try:
        oracle_poly_roots(p, 0.0)
    except RootFindingError as exc:
        return sorted({ratio for _, ratio in exc.residuals})
    return []


def _screen_boundary_cases():
    rng = np.random.default_rng(43)
    cases = {f"random-{i}": Polynomial(rng.normal(size=int(rng.integers(3, 25))))
             for i in range(8)}
    # every residual ratio between 2e-11 and 3e-10, far above the screen's
    # margin: a screen with its comparison reversed would pass them all
    cases["clustered"] = Polynomial.one()
    for _ in range(16):
        cases["clustered"] = cases["clustered"] * Polynomial([0.1, 0.0, 1.0])
    cases["z^4*P"] = Polynomial(rng.normal(size=6)).shifted(4)
    cases["z^30*P"] = Polynomial(rng.normal(size=12)).shifted(30)
    cases["monomial"] = Polynomial([-2.5]).shifted(7)
    # roots near 1e200 and 1e-200: their squares overflow and underflow
    cases["overflow"] = Polynomial([1.0, -1e200, 1.0])
    return cases


@pytest.mark.parametrize("name", list(_screen_boundary_cases()))
def test_roots_match_oracle_at_each_residual_bound(name):
    # tol_root at each root's residual ratio and one ulp either side: the
    # residual screen must leave every verdict this close to the bound to
    # the Horner check.  The overflow case's scales overflow without a
    # warning from poly_roots; the oracle's own is silenced
    p = _screen_boundary_cases()[name]
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = _residual_ratios(p)
    tols = [1e-6, 0.0]
    for ratio in ratios:
        tols += [np.nextafter(ratio, -np.inf), ratio, np.nextafter(ratio, np.inf)]
    for tol in tols:
        got = _roots_outcome(poly_roots, p, tol)
        with np.errstate(over="ignore", invalid="ignore"):
            want = _roots_outcome(oracle_poly_roots, p, tol)
        assert got == want, tol


def test_roots_requires_degree():
    with pytest.raises(ValueError):
        poly_roots(Polynomial([1.0]))


def test_roots_overflowing_companion_row_raises_without_warning():
    # 1e-300 z + 1e300: the companion row -1e300 / 1e-300 overflows, and
    # numpy's divide warning used to come before the error
    with pytest.raises(np.linalg.LinAlgError, match="must not contain infs or NaNs"):
        poly_roots(Polynomial([1e300, 1e-300]))


def test_schur_monomial():
    res = schur_check(Polynomial.monomial(8))
    assert res.is_schur and res.spectral_radius == 0.0


def test_schur_boundary_root():
    res = schur_check(Polynomial([-1, 1]))  # z - 1
    assert not res.is_schur
    assert_allclose(res.spectral_radius, 1.0, atol=1e-12)
    assert res.near_boundary


def test_schur_degree_zero_vacuous():
    assert schur_check(Polynomial([5.0])).is_schur


def jury_stable(p: Polynomial) -> bool:
    """Schur-Cohn (Jury) recursion on the coefficients; no root finding.

    Cross-check oracle for :func:`schur_check`; reports strict unit-circle
    stability.  Degree-0 polynomials are vacuously stable.
    """
    a = p.coeffs[::-1]
    while a.size > 1:
        if abs(a[-1]) >= abs(a[0]):
            return False
        a = a[0] * a[:-1] - a[-1] * a[::-1][:-1]
    return True


def test_jury_agrees_with_roots_fuzz():
    # 500 random polynomials of degree <= 8, away from the unit circle
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 500:
        deg = int(rng.integers(1, 9))
        p = Polynomial(np.concatenate([rng.normal(size=deg) * 0.8, [1.0]]))
        radius = schur_check(p).spectral_radius
        if abs(radius - 1.0) <= 1e-6:
            continue
        assert jury_stable(p) == (radius < 1.0)
        checked += 1


def test_bounded_vector_polynomials_are_schur():
    # monic polynomials whose tail coefficients have 1-norm below one keep
    # all roots strictly inside the unit circle
    rng = np.random.default_rng(77)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        u = rng.normal(size=n)
        u *= rng.uniform(0.0, 0.99) / max(vec_1norm(u), 1e-12)
        p = Polynomial(np.concatenate([u[::-1], [1.0]]))
        res = schur_check(p)
        assert res.is_schur, (u, res.spectral_radius)
