"""Shared generators and fixture data for the suite."""
import math
import os
from fractions import Fraction

# one BLAS thread, as CI and bench/run.py pin it, set before numpy loads
# BLAS: the suite runs as the benchmark does (test_blas_threads checks that
# the sweep's outcomes do not depend on the count)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest

from intctrl import Polynomial, converter, stabilizer
from intctrl.bezout import coprime_check, solve_diophantine
from intctrl.numeric import vec_1norm
from intctrl.poly import monic_from_vector, vector_from_monic
from intctrl.target import (DeltaFactors, active_index_set, build_hyperplanes,
                            delta_matrix, find_integer_target)
from intctrl.fixtures import pendulum_plant, pendulum_pre_controller


@pytest.fixture(scope="session")
def pendulum():
    return pendulum_plant()


@pytest.fixture(scope="session")
def pre_controller():
    return pendulum_pre_controller()


@pytest.fixture
def steer_calls(monkeypatch):
    """Arguments and outcome of every ``steer`` call made by either
    algorithm, as ``(args, outcome)``: the returned tuple, or the exception
    raised.  The warnings are copied at once, since the caller appends to
    them."""
    calls = []
    real = stabilizer.steer

    def recording(*args):
        try:
            out = real(*args)
        except Exception as exc:
            calls.append((args, exc))
            raise
        calls.append((args, out[:5] + (list(out[5]),) + out[6:]))
        return out

    monkeypatch.setattr(stabilizer, "steer", recording)
    monkeypatch.setattr(converter, "steer", recording)
    return calls


#: bound on the exact residual of a steering run's identity after each step,
#: relative to the largest coefficient of its terms.  It grows with the
#: update matrix: the suite's runs reach at most 7.9e-11, on sweep
#: conversion 5, whose numerator's inverse series reaches 1.2e8 and whose
#: update matrices 4.5e8; the random plants' runs reach 7e-12 and the
#: pendulum's 2e-15
STEP_IDENTITY_RTOL = 1e-9


def invariant_breach(args, trace):
    """First step of a ``steer`` run whose state breaks its polynomial
    identity, or None.

    ``args`` are the call's ``(p, q, factor, shift, num, x0, s0, cfg)`` and
    ``trace`` its steps.  The residual ``e_k = z^shift p monic(x_k) + s_k
    num - factor_k q`` of the identity, with the cofactor of ``steer``'s
    recurrence ``s' = f s + z^shift p a``, is followed in exact rational
    arithmetic on the recorded floats.  A step with ``f = monic(u)`` from
    ``r = monic(x)`` has ``a = ((u r) mod z^n) / num mod z^n`` and the exact
    quotient ``r' = (f r - num a) / z^n``, so ``e' = f e + z^(shift+n) p
    (monic(x') - r')``; ``e`` is kept as integers over one denominator.
    After every step ``max|e|`` must stay within ``STEP_IDENTITY_RTOL`` of
    the largest coefficient of the three terms, which floats measure well
    enough.
    """
    p, q, factor, shift, num, x0, s0, _ = args
    n = x0.size
    P, NUM = _exact(p.coeffs), _exact(num.coeffs)
    inverse = [1 / NUM[0]]  # num^-1 mod z^n
    for i in range(1, n):
        inverse.append(-sum(NUM[j] * inverse[i - j]
                            for j in range(1, min(i, len(NUM) - 1) + 1))
                       / NUM[0])
    r = _exact(monic_from_vector(x0).coeffs)
    e, e_den = _over_one_denominator(_add(
        [0] * shift + _mul(P, r), _mul(_exact(s0.coeffs), NUM),
        [-c for c in _mul(_exact(factor.coeffs), _exact(q.coeffs))]))
    s = s0
    for step in trace:
        f = monic_from_vector(step.u)
        fr = _mul(_exact(f.coeffs), r)
        a = _mul(fr[:n], inverse)[:n]
        quotient = _add(fr, [-c for c in _mul(NUM, a)])[n:]
        r = _exact(monic_from_vector(step.x).coeffs)
        f_int, f_den = _over_one_denominator(_exact(f.coeffs))
        d_int, d_den = _over_one_denominator(
            _mul(P, _add(r, [-c for c in quotient])))
        den = math.lcm(f_den * e_den, d_den)
        e = [c * (den // (f_den * e_den)) for c in _mul(f_int, e)]
        for i, c in enumerate(d_int, shift + n):
            e[i] += c * (den // d_den)
        e_den = den
        s = f * s + (p * Polynomial([float(c) for c in a])).shifted(shift)
        factor = f * factor
        shift += n
        scale = max((p * monic_from_vector(step.x)).max_abs(),
                    (s * num).max_abs(), (factor * q).max_abs())
        if max(map(abs, e)) > Fraction(STEP_IDENTITY_RTOL * scale) * e_den:
            return step.k
    return None


def _exact(coeffs):
    return [Fraction(c) for c in coeffs.tolist()]


def _over_one_denominator(fractions):
    """Integer numerators over the common denominator, and that
    denominator."""
    den = math.lcm(*(c.denominator for c in fractions))
    return [c.numerator * (den // c.denominator) for c in fractions], den


def _mul(a, b):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return out


def _add(*polys):
    out = [0] * max(map(len, polys))
    for poly in polys:
        for i, c in enumerate(poly):
            out[i] += c
    return out


def _as_integers(values):
    """Integers ``m_i`` and one exponent ``e`` with ``values[i] = m_i * 2**e``
    exactly, for finite doubles."""
    parts = [math.frexp(v) for v in values]
    e = min((k for m, k in parts if m), default=53) - 53
    return [int(m * 2.0 ** 53) << (k - 53 - e) if m else 0 for m, k in parts], e


def exact_residual_ratios(coeffs, roots):
    """``|p(r)| / sum_i |c_i| |r|^i`` for every root double ``r`` of the
    coefficient doubles ``coeffs`` (ascending), as the nearest double.

    Each double is written as ``m * 2**e``, and with ``r = (a + ib) 2**e``
    both ``p(r)`` and the scale follow by Horner in Python integers, in the
    same units: the scale in ``Z[sqrt(M)]``, ``M = a^2 + b^2``, as ``x + y
    sqrt(M)``.  The two square roots are taken to 128 bits beyond their
    integer parts, far below a double's rounding.  A zero residual gives 0.
    """
    big, _ = _as_integers(coeffs.tolist())
    d = len(big) - 1
    ratios, seen = [], {}
    for r in np.asarray(roots, dtype=complex).tolist():
        # a conjugate root has the conjugate residual and the same scale
        if (r.real, abs(r.imag)) in seen:
            ratios.append(seen[r.real, abs(r.imag)])
            continue
        (a, b), e = _as_integers([r.real, r.imag])
        if e > 0:
            a, b, e = a << e, b << e, 0
        m = a * a + b * b
        # 2**(-e d) p(r) and its scale, in the units of the integers of c
        re, im, x, y = big[d], 0, abs(big[d]), 0
        for i in range(d - 1, -1, -1):
            term = big[i] << -e * (d - i)
            re, im = re * a - im * b + term, re * b + im * a
            x, y = y * m + abs(term), x
        res2 = re * re + im * im
        k = 128
        seen[r.real, abs(r.imag)] = (math.isqrt(res2 << 2 * k)
                                     / ((x << k) + y * math.isqrt(m << 2 * k))
                                     if res2 else 0.0)
        ratios.append(seen[r.real, abs(r.imag)])
    return ratios


def random_roots(rng, count, radius):
    """Conjugation-closed random roots, about 40% in complex pairs."""
    roots = []
    while len(roots) < count:
        if count - len(roots) >= 2 and rng.random() < 0.4:
            re = rng.uniform(-radius, radius)
            im = rng.uniform(0.05, radius)
            roots += [complex(re, im), complex(re, -im)]
        else:
            roots.append(complex(rng.uniform(-radius, radius), 0.0))
    return roots


def random_plant(rng, n_max=6, radius=1.5):
    """Random proper coprime-ish plant from root placements."""
    n = int(rng.integers(1, n_max + 1))
    den = Polynomial.from_roots(random_roots(rng, n, radius))
    deg_num = int(rng.integers(0, n + 1))
    lead = rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0])
    num = Polynomial.from_roots(random_roots(rng, deg_num, radius), leading=lead)
    return den, num


def well_posed_plant(rng, n_max=6, quality_min=1e-4, pred_iter_max=6,
                     x0_sup_max=50.0):
    """Random plant restricted to the numerically well-posed synthesis class.

    Beyond the coprimality-quality floor, instances are kept only when the
    default initialization is moderate in size and the steering iteration is
    predicted to finish in a few steps (sampled inverse-update-matrix norm
    times the target distance).  Long runs pile up near-identical Schur
    factors whose root clusters exceed what double-precision coefficient
    representation can certify, so they are out of scope for the property
    suite by construction rather than by outcome.
    """
    while True:
        den, num = random_plant(rng, n_max)
        if abs(num(0.0)) < 1e-6:
            continue
        if coprime_check(den, num).quality <= quality_min:
            continue
        n = den.coeffs.size - 1
        try:
            r0 = solve_diophantine(den, Polynomial.monomial(2 * n), num).r
            x0 = vector_from_monic(r0, n)
        except Exception:
            continue
        if np.max(np.abs(x0), initial=0.0) > x0_sup_max:
            continue
        planes = build_hyperplanes(num, n)
        try:
            active = active_index_set(x0, planes)
            x_star = find_integer_target(x0, planes, active).x_star
        except Exception:
            continue
        if _predicted_iterations(x0, x_star, num, n) > pred_iter_max:
            continue
        return den, num


def _predicted_iterations(x0, x_star, num, n, mu=0.99, samples=33):
    dist = vec_1norm(x_star - x0)
    if dist == 0.0:
        return 0
    factors = DeltaFactors.from_numerator(num, n)
    sigma = 0.0
    for rho in np.linspace(0.0, 1.0, samples):
        x = rho * x0 + (1.0 - rho) * x_star
        try:
            inv = np.linalg.inv(delta_matrix(x, factors)[0])
        except np.linalg.LinAlgError:
            return 10 ** 9
        sigma = max(sigma, float(np.max(np.sum(np.abs(inv), axis=0))))
    return int(np.ceil(sigma * dist / mu))


def sweep_plant(index):
    """Plant ``index`` of the seed-7 sweep of orders up to 8 (the
    benchmark's ``random-sweep`` plants)."""
    rng = np.random.default_rng(7)
    for _ in range(index + 1):
        den, num = random_plant(rng, n_max=8)
    return den, num


def sweep_conversion(index):
    """Conversion ``index`` of the seed-7 sweep: ``(ctrl_den, den, num)``,
    a controller denominator of degree n - 1 with real roots drawn
    uniformly in (-1.2, 1.2) (seed 99) against sweep plant ``index``."""
    plants, roots = np.random.default_rng(7), np.random.default_rng(99)
    for _ in range(index + 1):
        den, num = random_plant(plants, n_max=8)
        n = den.coeffs.size - 1
        ctrl_den = Polynomial.from_roots(list(roots.uniform(-1.2, 1.2, n - 1)))
    return ctrl_den, den, num


def schur_factor_product(rng, factors, n=8):
    """Product of monic factors with |u|_1 = 0.99, the shape of a long
    steering run's gamma."""
    p = Polynomial.one()
    for _ in range(factors):
        u = rng.normal(size=n)
        u *= 0.99 / vec_1norm(u)
        p = p * Polynomial(np.concatenate([u[::-1], [1.0]]))
    return p
