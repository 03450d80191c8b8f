import numpy as np
import pytest
from numpy.testing import assert_allclose

from intctrl import Polynomial
from intctrl.poly import (TRIM_TOL, _sum_residual, monic_from_vector,
                          toeplitz_stack, trim, vector_from_monic)


def test_mul_difference_of_squares():
    # (z+1)(z-1) = z^2 - 1
    out = Polynomial([1, 1]) * Polynomial([-1, 1])
    assert_allclose(out.coeffs, [-1, 0, 1])


def test_mul_identity():
    p = Polynomial([3.5, -2, 0.25, 1])
    assert (p * Polynomial.one()) == p


def test_mul_matches_bruteforce_convolution():
    rng = np.random.default_rng(42)
    for _ in range(20):
        a = rng.normal(size=6)   # degree 5
        b = rng.normal(size=6)
        want = np.zeros(11)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                want[i + j] += ca * cb
        got = Polynomial(a) * Polynomial(b)
        assert_allclose(got.coeffs, want, rtol=1e-13, atol=1e-13)


def test_mul_commutes():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = Polynomial(rng.normal(size=rng.integers(1, 8)))
        b = Polynomial(rng.normal(size=rng.integers(1, 8)))
        lhs, rhs = a * b, b * a
        scale = max(1.0, lhs.max_abs())
        assert (lhs - rhs).max_abs() <= 1e-12 * scale


def test_eval():
    assert Polynomial([1, 0, 1])(2.0) == 5.0
    assert Polynomial.zero()(3.7) == 0.0


def test_eval_at_root():
    p = Polynomial.from_roots([0.5, -1.25, 2.0])
    assert abs(p(0.5)) < 1e-12
    assert abs(p(complex(-1.25))) < 1e-12


def test_eval_printed_pendulum_numerator_at_minus_one():
    # the commonly quoted 2-significant-digit numerator is palindromic, so
    # its value at z = -1 cancels exactly in decimal
    p = Polynomial([0.0021, -0.0023, -0.0023, 0.0021])
    assert abs(p(-1.0)) < 1e-15


def test_zero_polynomial_degree_sentinel():
    z = Polynomial([0.0, 0.0])
    assert z.is_zero
    assert Polynomial([1.0]).coeffs.size - 1 == 0


def test_subtraction_trims_dust():
    a = Polynomial([1.0, 1.0, 1e-30, 1.0])
    b = Polynomial([0.0, 0.0, 0.0, 1.0])
    assert (a - b).coeffs.size - 1 == 1


def test_sum_that_overflows_is_rejected_not_trimmed_away():
    # an infinite maximum used to trim every entry below inf * tol, so this
    # sum came out as the zero polynomial; with warnings as errors, this
    # also pins that the overflow is not warned about first
    with pytest.raises(ValueError, match="finite"):
        Polynomial([1.0, 1e308]) + Polynomial([1.0, 1e308])
    with pytest.raises(ValueError, match="finite"):
        Polynomial([1.0, 1e308]) - Polynomial([1.0, -1e308])


def test_trim_relative():
    p = Polynomial([1e5, 1.0, 1e-6])
    # 1e-6 is below 1e-9 * 1e5
    assert trim(p).coeffs.size - 1 == 1


def test_from_roots_requires_conjugate_closure():
    with pytest.raises(ValueError):
        Polynomial.from_roots([1j])


def test_monic_and_leading():
    assert Polynomial([5, 0, 1]).is_monic()
    assert not Polynomial([5, 0, 2]).is_monic()
    assert Polynomial([5, 0, 2]).leading == 2


@pytest.mark.parametrize("wrap", [list, tuple, np.array, lambda c: (x for x in c)],
                         ids=["list", "tuple", "ndarray", "generator"])
def test_constructor_accepts_any_iterable(wrap):
    want = np.array([0.5, -2.0, 0.0, 3.0])
    p = Polynomial(wrap([0.5, -2.0, 0.0, 3.0, 0.0, -0.0]))
    assert p.coeffs.dtype == np.float64
    assert p.coeffs.tobytes() == want.tobytes()


def test_constructor_copies_and_freezes():
    # a nonzero top keeps the whole copy, a zero top a view of it
    for src in (np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 0.0, -0.0])):
        p = Polynomial(src)
        assert not np.shares_memory(p.coeffs, src)
        src[0] = 99.0
        assert p.coeffs[0] == 1.0
        assert not p.coeffs.flags.writeable
        with pytest.raises(ValueError):
            p.coeffs[0] = 5.0


def test_constructor_strips_signed_zeros_from_the_top():
    p = Polynomial(np.array([-0.0, 1.0, -0.0, 0.0, -0.0]))
    assert p.coeffs.tobytes() == np.array([-0.0, 1.0]).tobytes()
    assert Polynomial([-0.0, 0.0]).is_zero
    assert Polynomial(np.zeros(0)).is_zero


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_constructor_rejects_non_finite(bad):
    for wrap in (list, tuple, np.array):
        with pytest.raises(ValueError, match="finite"):
            Polynomial(wrap([1.0, bad, 2.0]))


def oracle_polynomial_coeffs(coeffs):
    """The coefficient array the constructor built with ``ndarray.all`` and
    an unconditional top-zero scan."""
    if not isinstance(coeffs, (np.ndarray, list, tuple)):
        coeffs = list(coeffs)
    arr = np.array(coeffs, dtype=float, ndmin=1)
    if not np.isfinite(arr).all():
        raise ValueError("polynomial coefficients must be finite")
    end = arr.size
    while end > 0 and arr[end - 1] == 0.0:
        end -= 1
    return arr[:end]


def _construction_outcome(build, coeffs):
    try:
        arr = build(coeffs)
    except ValueError as exc:
        return str(exc)
    return arr.dtype.str, arr.shape, arr.tobytes()


def test_constructor_matches_oracle():
    # random lengths with zeros, signed zeros and non-finite entries spread
    # over the array and its top, and the all-zero and empty arrays
    rng = np.random.default_rng(61)
    cases = [[], [0.0], [-0.0], [0.0, -0.0, 0.0], np.zeros(5), np.zeros(0),
             [1.0], [2.5, 0.0, 0.0], [np.nan], [0.0, np.inf], np.array(-0.0)]
    for _ in range(300):
        c = rng.normal(size=int(rng.integers(0, 12)))
        pick = rng.random(c.size)
        c[pick < 0.3] = 0.0
        c[pick > 0.9] = -0.0
        if c.size and rng.random() < 0.1:
            c[int(rng.integers(0, c.size))] = rng.choice([np.nan, np.inf, -np.inf])
        cases.append(c)
        cases.append(c.tolist())
    for coeffs in cases:
        got = _construction_outcome(lambda c: Polynomial(c).coeffs, coeffs)
        assert got == _construction_outcome(oracle_polynomial_coeffs, coeffs)


def oracle_trim(p):
    """The tolerance trim on a fresh copy, as :func:`trim` did."""
    c = p.coeffs.copy()
    if c.size == 0:
        return Polynomial.zero()
    cut = TRIM_TOL * np.abs(c).max()
    end = c.size
    while end > 0 and abs(c[end - 1]) <= cut:
        end -= 1
    return Polynomial(c[:end])


def test_trim_matches_oracle():
    rng = np.random.default_rng(67)
    for _ in range(300):
        c = rng.normal(size=int(rng.integers(0, 10)))
        dust = int(rng.integers(0, c.size + 1))
        if dust:
            c[-dust:] *= 10.0 ** -rng.integers(5, 14)
        assert (trim(Polynomial(c)).coeffs.tobytes()
                == oracle_trim(Polynomial(c)).coeffs.tobytes())


def _residual_outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def test_sum_residual_matches_polynomial_expression():
    # (a + b - c).max_abs() through Polynomials, on products with cancelling
    # tops (the trims decide), signed zeros, zero operands and overflow
    rng = np.random.default_rng(71)
    big = np.finfo(float).max
    cases = [(np.zeros(0), np.zeros(0), np.array([1.0])),
             (np.zeros(0), np.array([2.0, -0.0]), np.array([2.0])),
             (np.array([1.0, -0.0]), np.array([0.0, 0.0, -0.0]), np.zeros(0)),
             (np.array([big, big]), np.array([big]), np.array([1.0])),
             (np.array([1.0, big]), np.array([0.0, big]), np.array([1.0])),
             (np.array([big]), np.zeros(0), np.array([-big])),
             (np.array([1.0, np.inf]), np.array([1.0]), np.array([1.0]))]
    for _ in range(400):
        a = rng.normal(size=int(rng.integers(0, 9)))
        b = rng.normal(size=int(rng.integers(0, 9)))
        m = min(a.size, b.size)
        if m and rng.random() < 0.5:
            # cancel the top coefficients to round-off or exactly
            b[m - 1] = -a[m - 1] * (1.0 + rng.choice([0.0, 1e-12, 1e-6]))
        c = a[: int(rng.integers(0, a.size + 1))] + rng.normal(scale=1e-9)
        for v in (a, b, c):
            v[rng.random(v.size) < 0.15] = -0.0
        cases.append((a, b, c))
    for a, b, c in cases:
        # both routes overflow alike, each with its own warning
        with np.errstate(over="ignore", invalid="ignore"):
            got = _residual_outcome(_sum_residual, a, b, c)
            want = _residual_outcome(
                lambda: (Polynomial(a) + Polynomial(b) - Polynomial(c)).max_abs())
        assert got == want


# -- stacked convolution matrix ---------------------------------------------


def oracle_toeplitz_stack(a, n):
    """The entry-by-entry construction of :func:`toeplitz_stack`."""
    deg = a.coeffs.size - 1
    T = np.zeros((2 * n, n))
    for j in range(1, n + 1):
        for i in range(1, 2 * n + 1):
            k = n - i + j
            if 0 <= k <= deg:
                T[i - 1, j - 1] = a.coeffs[k]
    return T


def test_toeplitz_matches_loop_oracle():
    # every degree from the zero polynomial to n, with signed zeros inside
    rng = np.random.default_rng(41)
    for n in range(1, 10):
        for deg in range(-1, n + 1):
            c = rng.normal(size=deg + 1)
            c[rng.random(c.size) < 0.2] = -0.0
            if c.size:
                c[-1] = 1.5
            a = Polynomial(c)
            assert toeplitz_stack(a, n).tobytes() == oracle_toeplitz_stack(a, n).tobytes()


def test_toeplitz_constant():
    # only the constant coefficient is nonzero: zero on top, c*I below
    T = toeplitz_stack(Polynomial([3.0]), 2)
    assert_allclose(T[:2], np.zeros((2, 2)))
    assert_allclose(T[2:], 3.0 * np.eye(2))


def test_toeplitz_monic_full_degree():
    p = Polynomial([4, 3, 2, 1])  # monic degree 3
    T = toeplitz_stack(p, 3)
    assert T[0, 0] == 1.0
    # lower-trapezoidal: nothing above the leading-coefficient diagonal
    for i in range(6):
        for j in range(3):
            if 3 - (i + 1) + (j + 1) > 3:
                assert T[i, j] == 0.0


def test_toeplitz_index_formula():
    # a = z + 2, n = 2: entry (i,j) holds the coefficient of z^(n-i+j);
    # first column [a_2, a_1, a_0, a_-1] = [0, 1, 2, 0], second column is the
    # first shifted down one row
    T = toeplitz_stack(Polynomial([2, 1]), 2)
    assert_allclose(T[:, 0], [0, 1, 2, 0])
    assert_allclose(T[:, 1], [0, 0, 1, 2])


def test_toeplitz_degree_error():
    with pytest.raises(ValueError):
        toeplitz_stack(Polynomial([1, 1, 1]), 1)


def test_toeplitz_convolution_property():
    # T_n(a) @ descending(b) == descending(a * b), checked against poly mul
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        da = int(rng.integers(0, n + 1))
        a = Polynomial(rng.normal(size=da + 1))
        b = Polynomial(rng.normal(size=int(rng.integers(1, n + 1))))
        prod = a * b
        want = np.zeros(2 * n)
        want[2 * n - prod.coeffs.size:] = prod.coeffs[::-1]
        bvec = np.zeros(n)
        bvec[n - b.coeffs.size:] = b.coeffs[::-1]
        assert_allclose(toeplitz_stack(a, n) @ bvec, want, atol=1e-12)


# -- coefficient-vector bridge ------------------------------------------------


def test_vector_bridge_zero_vector():
    p = monic_from_vector(np.zeros(4))
    assert_allclose(p.coeffs, [0, 0, 0, 0, 1])


def test_vector_bridge_round_trip():
    x = np.array([3.0, -1.5, 0.25])
    assert_allclose(vector_from_monic(monic_from_vector(x)), x)


def test_vector_bridge_rejects_non_monic():
    with pytest.raises(ValueError):
        vector_from_monic(Polynomial([1, 2.0]))
    with pytest.raises(ValueError):
        vector_from_monic(Polynomial([1, 0, 1]), n=3)


@pytest.mark.parametrize("coeffs, text", [
    ([], "0"), ([-1.5], "-1.5"), ([0.5, -1.0], "-z + 0.5"),
    ([1.0, 2.5, 0.0, 1.0], "z^3 + 2.5z + 1"), ([0.0, 0.0, -2.0], "-2z^2")])
def test_str_writes_descending_terms(coeffs, text):
    assert str(Polynomial(coeffs)) == text
