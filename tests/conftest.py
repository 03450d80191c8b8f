"""Shared generators and fixture data for the suite."""
import os

# one BLAS thread, as CI and bench/run.py pin it, set before numpy loads
# BLAS: the pivots quoted in large closing-solve errors depend on the count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest

from intctrl import (DeltaFactors, Polynomial, active_index_set,
                     build_hyperplanes, converter, coprime_check, delta_matrix,
                     find_integer_target, monic_from_vector, solve_diophantine,
                     stabilizer, vec_1norm, vector_from_monic)
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
        calls.append((args, out[:5] + (list(out[5]),)))
        return out

    monkeypatch.setattr(stabilizer, "steer", recording)
    monkeypatch.setattr(converter, "steer", recording)
    return calls


def invariant_breach(args, trace):
    """First step of a ``steer`` run whose state disagrees with its
    polynomial identity, or None.

    ``args`` are the call's ``(p, q, factor, shift, num, x0, cfg)`` and
    ``trace`` its steps.  After step k the reduction ``z^shift p r + s num =
    factor q`` is solved afresh from the factors of steps 0..k, and its
    quotient ``r`` must match ``monic(x_k)`` to 1e-7.
    """
    p, q, factor, shift, num, x0, _ = args
    for step in trace:
        factor = monic_from_vector(step.u) * factor
        shift += x0.size
        r = solve_diophantine(p.shifted(shift), factor * q, num).r
        if not r.allclose(monic_from_vector(step.x), 1e-7):
            return step.k
    return None


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
            x_star = find_integer_target(x0, planes, active, num).x_star
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
            inv = np.linalg.inv(delta_matrix(x, factors))
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


def schur_factor_product(rng, factors, n=8):
    """Product of monic factors with |u|_1 = 0.99, the shape of a long
    steering run's gamma."""
    p = Polynomial.one()
    for _ in range(factors):
        u = rng.normal(size=n)
        u *= 0.99 / vec_1norm(u)
        p = p * Polynomial(np.concatenate([u[::-1], [1.0]]))
    return p
