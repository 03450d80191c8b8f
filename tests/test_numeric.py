import numpy as np
import pytest
from numpy.testing import assert_allclose

from intctrl import (Polynomial, classify_roots, jury_stable, poly_roots,
                     schur_check, solve_linear, vec_1norm)
from intctrl.numeric import ConjugatePairingError, SingularMatrixError

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


def test_roots_requires_degree():
    with pytest.raises(ValueError):
        poly_roots(Polynomial([1.0]))


def test_classify_real_only():
    rs = classify_roots([1.0, -2.0])
    assert rs.n_real == 2 and rs.n_complex_pairs == 0


def test_classify_pure_pair():
    rs = classify_roots([1j, -1j])
    assert rs.n_real == 0 and rs.n_complex_pairs == 1
    assert rs.complex_pairs[0] == 1j


def test_classify_benchmark_target_roots():
    # the benchmark's degree-8 target roots: 2 real, 3 conjugate pairs
    roots = [-0.2616, 0.3728,
             0.6769 + 0.6490j, 0.6769 - 0.6490j,
             0.9168 + 0.1990j, 0.9168 - 0.1990j,
             0.9650 + 0.1j, 0.9650 - 0.1j]
    rs = classify_roots(roots)
    assert rs.n_real == 2 and rs.n_complex_pairs == 3


def test_classify_unpaired_raises():
    with pytest.raises(ConjugatePairingError):
        classify_roots([1j, 1j, -1j])


def test_classify_collapses_printed_conjugates():
    rs = classify_roots([0.5 + 1e-12j, 0.5 - 1e-12j])
    assert rs.n_real == 2


def reconstruct(rs):
    """Polynomial with the classified roots and leading coefficient."""
    roots = list(rs.real_roots)
    for eta in rs.complex_pairs:
        roots += [eta, eta.conjugate()]
    return Polynomial.from_roots(roots, leading=rs.leading_coeff,
                                 conj_tol=1e-7)


def test_rootset_reconstruction_fuzz():
    rng = np.random.default_rng(9)
    for _ in range(50):
        deg = int(rng.integers(1, 11))
        # well-separated roots on a grid
        pool = [complex(c, 0) for c in np.arange(-2.0, 2.01, 0.5)]
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
        rebuilt = reconstruct(classify_roots(poly_roots(p), lead))
        assert rebuilt.allclose(p, 1e-7)


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
