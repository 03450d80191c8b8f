import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from intctrl import Polynomial, numeric
from intctrl.numeric import (RootFindingError, SingularMatrixError, _lu_solve,
                             poly_roots, schur_check, vec_1norm)

from conftest import exact_residual_ratios, schur_factor_product

PRINTED_PENDULUM_NUM = Polynomial([0.0021, -0.0023, -0.0023, 0.0021])


def test_solve_identity():
    b = np.array([1.0, -2.0, 3.0])
    assert_allclose(_lu_solve(np.eye(3), b), b)


def test_solve_diagonal():
    assert_allclose(_lu_solve(np.diag([2.0, 4.0]), np.array([2.0, 8.0])),
                    [1.0, 2.0])


def test_solve_residual():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(10, 10)) + 5.0 * np.eye(10)
    b = rng.normal(size=10)
    x = _lu_solve(A, b)
    assert np.max(np.abs(A @ x - b)) < 1e-10 * max(1.0, np.max(np.abs(b)))


def test_solve_singular_reports_pivot():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError) as err:
        _lu_solve(A, np.ones(2))
    assert err.value.pivot <= 1e-13 * err.value.scale


def test_solve_matches_scipy_wrappers():
    # the LU factors are solved with LAPACK getrs itself, the call
    # scipy.linalg.lu_solve makes
    rng = np.random.default_rng(13)
    for n in range(1, 40):
        A = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-3, 4)
        b = rng.normal(size=n)
        want = scipy.linalg.lu_solve(scipy.linalg.lu_factor(A), b)
        assert _lu_solve(A, b).tobytes() == want.tobytes()


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


def _window(p):
    """The rounding window 8 (d+1) eps of poly_roots' residual ratios."""
    return 8.0 * p.coeffs.size * np.finfo(float).eps


def _verdict(p, tol):
    """poly_roots(p) with ROOT_TOL = tol: the roots, or None and the listed
    ``{root: ratio}``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numeric, "ROOT_TOL", tol)
        try:
            return poly_roots(p), {}
        except RootFindingError as exc:
            return None, dict(exc.residuals)


def assert_exact_verdicts(p, sample=16):
    """poly_roots(p) returns np.roots' roots bit for bit or raises, and
    reaches the exact verdict on every root whose exact residual ratio lies
    farther than the window w from the bound: at ROOT_TOL 1e-6 and 0, and
    at the exact ratio minus (where positive) and plus w of up to
    ``sample`` roots spread over the ratios, where that root itself must
    fail and pass.  Every listed ratio lies within w of the exact one."""
    roots = np.roots(p.coeffs[::-1])
    exact = np.array(exact_residual_ratios(p.coeffs, roots))
    w = _window(p)
    order = np.argsort(exact, kind="stable")
    picks = order[np.unique(np.linspace(0, order.size - 1, sample).round().astype(int))]
    cases = [(1e-6, None, None), (0.0, None, None)]
    for j in picks.tolist():
        # a bound below 0 would fail the split-off zero roots, which are not
        # checked: their residual and scale are both 0
        if exact[j] > w:
            cases.append((exact[j] - w, j, True))
        cases.append((exact[j] + w, j, False))
    for tol, j, fails in cases:
        got, listed = _verdict(p, tol)
        if got is not None:
            assert got.tobytes() == roots.tobytes()
        failed = np.array([complex(r) in listed for r in roots.tolist()], bool)
        decided = np.abs(exact - tol) > w
        assert np.array_equal(failed[decided], (exact > tol)[decided]), tol
        if j is not None:
            assert failed[j] == fails, (j, tol)
        for r, x in zip(roots.tolist(), exact.tolist()):
            if complex(r) in listed:
                assert abs(listed[complex(r)] - x) <= w


def test_roots_match_exact_oracle_on_random_polynomials():
    rng = np.random.default_rng(17)
    for _ in range(60):
        deg = int(rng.integers(1, 41))
        c = rng.normal(size=deg + 1) * 10.0 ** rng.integers(-4, 5, deg + 1)
        p = Polynomial(c)
        if p.coeffs.size >= 2:
            assert_exact_verdicts(p)


def test_root_finding_error_matches_exact_oracle():
    # 25 monic Schur factors with |u|_1 = 0.99 at n = 8: degree 200 with
    # tight root clusters, whose computed roots miss the residual bound
    p = schur_factor_product(np.random.default_rng(0), 25)
    with pytest.raises(RootFindingError) as err:
        poly_roots(p)
    roots = np.roots(p.coeffs[::-1])
    exact = dict(zip(map(complex, roots.tolist()),
                     exact_residual_ratios(p.coeffs, roots)))
    listed = dict(err.value.residuals)
    assert set(listed) == {r for r, x in exact.items() if x > 1e-6}
    assert all(abs(x - exact[r]) <= _window(p) for r, x in listed.items())
    assert_exact_verdicts(p, sample=4)


def _structured_cases():
    rng = np.random.default_rng(29)
    cases = {}
    # z^k * P, the shape of every gamma grown from the default z^(2n)
    for k in (1, 2, 4, 5, 16, 30, 40):
        cases[f"z^{k}*P"] = Polynomial(rng.normal(size=int(rng.integers(2, 13)))).shifted(k)
    # pure and scaled monomials: only zero roots, no eigensolve
    for k in (1, 2, 7, 30):
        cases[f"z^{k}"] = Polynomial.monomial(k)
        cases[f"-2.5z^{k}"] = Polynomial([-2.5]).shifted(k)
    # all-real roots (a real eigenvalue array) and all-complex roots
    for deg in (1, 3, 8, 15):
        cases[f"real-{deg}"] = Polynomial.from_roots(list(rng.uniform(-1.5, 1.5, deg)))
    for pairs in (1, 3, 7):
        roots = rng.uniform(0.2, 1.4, pairs) * np.exp(1j * rng.uniform(0.1, 3.0, pairs))
        cases[f"pairs-{pairs}"] = Polynomial.from_roots(list(roots) + list(roots.conj()))
    cases["pair*z^3"] = Polynomial.from_roots([0.5 + 0.5j, 0.5 - 0.5j]).shifted(3)
    # every residual ratio between 2e-11 and 3e-10, far above the window:
    # a check with its comparison reversed would pass them all
    cases["clustered"] = Polynomial.one()
    for _ in range(16):
        cases["clustered"] = cases["clustered"] * Polynomial([0.1, 0.0, 1.0])
    # coefficients with interior zeros
    for i in range(6):
        c = rng.normal(size=int(rng.integers(3, 14))) * 10.0 ** rng.integers(-3, 4)
        c[rng.integers(1, c.size - 1)] = 0.0
        cases[f"gaps-{i}"] = Polynomial(c)
    return cases


@pytest.mark.parametrize("name", list(_structured_cases()))
def test_roots_match_exact_oracle_on_structured_polynomials(name):
    assert_exact_verdicts(_structured_cases()[name])


@pytest.mark.parametrize("factors", [13, 40])
def test_roots_match_exact_oracle_on_long_schur_products(factors):
    # degrees 120 (with z^16) and 320: the largest gammas certification
    # meets
    p = schur_factor_product(np.random.default_rng(factors), factors)
    if factors == 13:
        p = p.shifted(16)
    assert_exact_verdicts(p, sample=4)


@pytest.mark.parametrize("mag, deg", [(1e-100, 5), (1e-20, 5), (1e90, 3),
                                      (1e-200, 2), (1e6, 40)])
def test_roots_at_extreme_magnitudes_pass_without_a_warning(mag, deg):
    # powers and scales far outside 1: the terms of 1e-100 and 1e-200
    # underflow, the others stay normal doubles.  No numeric warning may
    # reach the suite's filterwarnings = error
    rng = np.random.default_rng(1515)
    roots = mag * np.exp(1j * rng.uniform(0.0, np.pi, deg // 2))
    p = Polynomial.from_roots(list(roots) + list(roots.conj()) + [mag] * (deg % 2))
    got = poly_roots(p)
    assert got.tobytes() == np.roots(p.coeffs[::-1]).tobytes()
    assert max(exact_residual_ratios(p.coeffs, got)) < 1e-6 - _window(p)
    if mag in (1e-20, 1e90, 1e6):
        assert_exact_verdicts(p)


def test_roots_whose_powers_overflow_pass():
    # roots 1e200 and 1e-200: the square of 1e200 overflows, so that root's
    # scale is not finite and it passes even at ROOT_TOL = 0, though its
    # exact residual is 1
    p = Polynomial([1.0, -1e200, 1.0])
    got = poly_roots(p)
    assert got.tobytes() == np.roots(p.coeffs[::-1]).tobytes()
    r = int(got.max())
    c0, c1, c2 = map(int, p.coeffs)
    assert r == 1e200 and c0 + c1 * r + c2 * r * r == 1
    _, listed = _verdict(p, 0.0)
    assert 1e200 not in listed


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


def test_schur_check_of_zero_has_no_verdict():
    with pytest.raises(ValueError, match="^zero polynomial has no stability verdict$"):
        numeric.schur_check(Polynomial.zero())
