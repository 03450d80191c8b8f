"""Bitwise oracles for the per-plant kernels of one synthesis call.

Each oracle below is the earlier implementation of a kernel that now makes
fewer numpy calls: plane norms recomputed on every use, a single candidate
tested as a block of one, ``np.linalg.eigvals`` through its wrapper,
reductions through ``ufunc.reduce``, a sum residual checked for
finiteness at every step.  Every call that a synthesis makes to one of these
kernels is recorded with its outcome and replayed against the oracle;
results, or the exception class and message, must agree byte for byte.
There are two exceptions.  ``poly_roots``' oracle takes each residual
verdict from the exact ratio, so a ``RootFindingError`` must list the same
roots, not the same rounded ratios.  And the lower bound of min|gamma| that
a synthesis certificate proves from gamma's factors has a scalar reference
below that rounds differently, so the verdict must agree and the bound only
within the error that the reference derives.
"""
import math
from collections import Counter
from math import copysign

import numpy as np
import pytest

from intctrl import (Certificate, ConversionConfig, Polynomial, SchurFactors,
                     StabilizationConfig, bezout, closed_loop_poly,
                     convert_controller, converter, numeric, run_algorithm1,
                     stabilizer, target, verify)
from intctrl.bezout import (CoprimalityResult, DiophantineSolution,
                            NotCoprimeError)
from intctrl.converter import run_algorithm2
from intctrl.fixtures import (CONVERSION_ALPHA_INI_ROOTS,
                              PENDULUM_GAMMA_INI_ROOTS)
from intctrl.numeric import (IMAG_TOL, RootFindingError, SchurResult,
                             SingularMatrixError, vec_1norm)
from intctrl.poly import _trim_length
from intctrl.target import (ActiveSet, HyperplaneSet,
                            InconsistentActiveSetError, IntegerTarget,
                            SIDE_TOL, TargetSearchError, build_hyperplanes)

from conftest import exact_residual_ratios, random_plant

# -- poly ---------------------------------------------------------------------


def oracle_check_finite(coeffs):
    if not np.logical_and.reduce(np.isfinite(coeffs)):
        raise ValueError("polynomial coefficients must be finite")


def oracle_max_abs(p):
    return float(np.maximum.reduce(np.abs(p.coeffs), initial=0.0))


def oracle_trim_length(coeffs):
    if coeffs.size == 0:
        return 0
    mags = np.abs(coeffs)
    cut = 1e-9 * np.maximum.reduce(mags)
    end = coeffs.size
    while end > 0 and mags[end - 1] <= cut:
        end -= 1
    return end


def oracle_trimmed(coeffs):
    return Polynomial(coeffs[: oracle_trim_length(coeffs)])


def oracle_sum_residual(a, b, c):
    oracle_check_finite(a)
    oracle_check_finite(b)
    total = np.zeros(max(a.size, b.size))
    total[: a.size] = a
    total[: b.size] += b
    end = oracle_trim_length(total)
    oracle_check_finite(total[:end])
    diff = np.zeros(max(end, c.size))
    diff[:end] = total[:end]
    diff[: c.size] -= c
    end = oracle_trim_length(diff)
    oracle_check_finite(diff[:end])
    return float(np.maximum.reduce(np.abs(diff[:end]), initial=0.0))


def oracle_product(a, b):
    if a.is_zero or b.is_zero:
        return np.zeros(0)
    return np.convolve(a.coeffs, b.coeffs)


def oracle_mul(a, b):
    if a.is_zero or b.is_zero:
        return Polynomial.zero()
    return Polynomial(np.convolve(a.coeffs, b.coeffs))


def oracle_sub(a, b):
    n = max(a.coeffs.size, b.coeffs.size)
    out = np.zeros(n)
    out[: a.coeffs.size] = a.coeffs
    low = np.zeros(n)
    low[: b.coeffs.size] = b.coeffs
    return oracle_trimmed(out - low)


# -- numeric ------------------------------------------------------------------


def oracle_lu_solve(A, b, rcond=1e-13):
    lu, piv, _ = numeric._flapack.dgetrf(A)
    diag = np.abs(lu.diagonal())
    scale = float(np.maximum.reduce(diag))
    pivot = float(np.minimum.reduce(diag))
    if scale == 0.0 or pivot <= rcond * scale:
        raise SingularMatrixError(pivot, scale)
    x, info = numeric.dgetrs(lu, piv, b)
    if info:
        raise ValueError(f"illegal value in argument {-info} of LAPACK getrs")
    return x


def oracle_poly_roots(p, tol_root=1e-6):
    if p.is_zero:
        raise ValueError("the zero polynomial has no finite root set")
    c = p.coeffs
    zeros = int((c != 0.0).argmax())
    desc = c[zeros:][::-1]
    if desc.size > 1:
        A = np.zeros((desc.size - 1, desc.size - 1))
        A.reshape(-1)[desc.size - 1 :: desc.size] = 1.0
        A[0, :] = -desc[1:] / desc[0]
        roots = np.linalg.eigvals(A)
    else:
        roots = np.zeros(0)
    if zeros:
        roots = np.concatenate((roots, np.zeros(zeros, roots.dtype)))
    # each verdict from the exact residual ratio: the float check agrees
    # wherever a ratio lies outside its rounding window, as every one these
    # syntheses meet does
    bad = [(complex(r), x) for r, x in zip(roots.tolist(),
                                           exact_residual_ratios(c, roots))
           if x > tol_root]
    if bad:
        raise RootFindingError(bad)
    return roots


def oracle_schur_check(p, tol_margin=1e-9):
    if p.is_zero:
        raise ValueError("zero polynomial has no stability verdict")
    if p.coeffs.size == 1:
        return SchurResult(True, 0.0, False)
    radius = float(np.maximum.reduce(np.abs(oracle_poly_roots(p))))
    return SchurResult(radius < 1.0 - tol_margin, radius,
                       abs(radius - 1.0) <= 1e-6)


# -- target -------------------------------------------------------------------


def oracle_sides(normals, offsets, x):
    return np.array([row @ x for row in normals]) - offsets


def oracle_norms(normals):
    return np.array([vec_1norm(row) for row in normals])


def oracle_build_hyperplanes(num, n):
    if num.is_zero:
        raise ValueError("numerator must be nonzero")
    if num(0.0) == 0.0:
        raise ValueError("numerator must not vanish at z = 0 (factor z^l first)")
    deg = num.coeffs.size - 1
    if deg > n:
        raise ValueError(f"deg(num) = {deg} exceeds ambient dimension {n}")
    reals, pairs = oracle_classify_roots(oracle_poly_roots(num) if deg else ())
    rows = [np.array([lam ** k for k in range(n, -1, -1)]) for lam in reals]
    roots = [complex(lam) for lam in reals]
    for eta in pairs:
        row = np.array([eta ** k for k in range(n, -1, -1)])
        rows += [row.real, row.imag]
        roots += [eta, eta]
    power = np.array(rows).reshape(len(rows), n + 1)
    normals = power[:, 1:].copy()
    # the fields a HyperplaneSet is fingerprinted by
    return normals, -power[:, 0], tuple(roots), len(reals)


def oracle_classify_roots(roots):
    """Sorted real roots and one sorted representative, of positive
    imaginary part, per conjugate pair, each pair matched greedily with its
    nearest conjugate; an unmatched complex root is an error."""
    reals, upper, lower = [], [], []
    for r in roots:
        r = complex(r)
        if abs(r.imag) <= IMAG_TOL * (1.0 + abs(r)):
            reals.append(r.real)
        elif r.imag > 0:
            upper.append(r)
        else:
            lower.append(r)
    if len(upper) != len(lower):
        raise ValueError(
            f"unpaired complex roots: {len(upper)} upper vs {len(lower)} lower")
    pairs = []
    for u in sorted(upper, key=lambda z: (z.real, z.imag)):
        dists = [abs(u.conjugate() - w) for w in lower]
        j = int(np.argmin(dists))
        cand = lower.pop(j)
        if dists[j] > 1e-3 * (1.0 + abs(u)):
            raise ValueError(f"no conjugate found for {u} (nearest {cand})")
        pairs.append(u)
    return sorted(reals), sorted(pairs, key=lambda z: (z.real, z.imag))


def oracle_active_index_set(x0, planes):
    x0 = np.asarray(x0, dtype=float)
    sup = float(np.max(np.abs(x0), initial=0.0))
    thresh = SIDE_TOL * (1.0 + oracle_norms(planes.normals) * max(1.0, sup))
    active = np.abs(oracle_sides(planes.normals, planes.offsets, x0)) > thresh
    vanished = np.flatnonzero(~active[:planes.n_real])
    if vanished.size:
        t = int(vanished[0])
        raise InconsistentActiveSetError(
            f"real-root plane {t} (root {planes.roots[t].real:g}) passes "
            "through the base point: its polynomial shares a root with the "
            "numerator")
    rows = np.flatnonzero(active).tolist()
    return ActiveSet(tuple(rows), planes.normals[rows], planes.offsets[rows],
                     oracle_norms(planes.normals)[rows],
                     oracle_sides(planes.normals, planes.offsets, x0)[rows])


class OracleActivePlanes:
    """The given planes, every candidate tested as a row of a block.  The
    shell walk hands its candidates over as columns: they are copied into
    C-ordered rows first, so that the products round as a row layout does."""

    def __init__(self, x0, normals, offsets):
        self.normals, self.offsets = normals, offsets
        self.norms = oracle_norms(normals)
        self.sides0 = oracle_sides(normals, offsets, x0)

    def _row_sides(self, rows):
        return rows @ self.normals.T - self.offsets

    def first_feasible(self, cands):
        rows = np.ascontiguousarray(cands.T)
        sides = self._row_sides(rows)
        sup = np.maximum(1.0, np.maximum.reduce(np.abs(rows), axis=1))
        margin = SIDE_TOL * (1.0 + sup[:, None] * self.norms)
        bad = (self.sides0 * sides <= 0.0) | (np.abs(sides) <= margin)
        good = np.flatnonzero(~np.logical_or.reduce(bad, axis=1))
        return int(good[0]) if good.size else None

    def sides(self, cands):
        return self._row_sides(np.ascontiguousarray(cands.T)).T

    def feasible(self, cand):
        # with no active plane every candidate is a target
        return (not self.norms.size
                or self.first_feasible(cand[:, None]) is not None)


def oracle_find_integer_target(x0, num, active):
    # the sides and norms are computed again, not read from active
    x0 = np.asarray(x0, dtype=float)
    stacked = OracleActivePlanes(x0, active.normals, active.offsets)
    start = np.round(x0)
    examined = 1
    if stacked.feasible(start):
        return IntegerTarget(start, "round", examined)
    center = np.round(target._fallback_center(x0, num, stacked))
    radius = float(np.max(np.abs(center - start)))
    cand, count = target._search_around(start, radius, stacked)
    examined += count
    if cand is not None:
        return IntegerTarget(cand, "shell", examined)
    examined += 1
    if stacked.feasible(center):
        return IntegerTarget(center, "fallback", examined)
    distances = (np.abs(oracle_sides(active.normals, active.offsets, center))
                 / oracle_norms(active.normals))
    raise TargetSearchError(
        "integer-target search exhausted: not even the constructive target "
        "lies on the side of x0 of every active plane, as it does in exact "
        "arithmetic, so the plane geometry broke down numerically",
        candidate=center, margins=distances.tolist())


def oracle_toeplitz_stack(a, n):
    # entry (i, j), 0-based, is the coefficient of z^(n - i + j)
    deg = a.coeffs.size - 1
    if deg > n:
        raise ValueError(f"degree {deg} exceeds stack dimension {n}")
    T = np.zeros((2 * n, n))
    for i in range(2 * n):
        for j in range(n):
            if 0 <= n - i + j <= deg:
                T[i, j] = a.coeffs[n - i + j]
    return T


# -- bezout -------------------------------------------------------------------


def oracle_dense_matrix(p, q, modulus):
    # column j < dr + 1 holds p from row j down, column dr + 1 + i holds the
    # modulus from row i down: coefficient k of either sits on a diagonal,
    # one strided slice of the flat matrix, written where it is not +0.0
    dp = p.coeffs.size - 1
    dq = q.coeffs.size - 1
    dr = dq - dp
    dim = dq + 1
    A = np.zeros((dim, dim))
    flat = A.reshape(-1)
    step = dim + 1
    for k, c in enumerate(p.coeffs.tolist()):
        if c or copysign(1.0, c) < 0.0:
            flat[k * dim : k * dim + (dr + 1) * step : step] = c
    for k, c in enumerate(modulus.coeffs.tolist()):
        start = k * dim + dr + 1
        flat[start : start + dp * step : step] = c
    return A


def oracle_dense_solve(p, q, modulus):
    dr = q.coeffs.size - p.coeffs.size
    A = oracle_dense_matrix(p, q, modulus)
    try:
        x = oracle_lu_solve(A, q.coeffs)
    except SingularMatrixError as exc:
        raise NotCoprimeError(
            f"coefficient system singular to tolerance (pivot {exc.pivot:.3e}): "
            "p and modulus are not coprime", pivot=exc.pivot) from exc
    return Polynomial(x[: dr + 1]), oracle_trimmed(x[dr + 1 :])


def oracle_solve_diophantine(p, q, modulus):
    if p.is_zero or modulus.is_zero:
        raise ValueError("p and modulus must be nonzero")
    if not p.is_monic():
        raise ValueError("p must be monic (normalize before calling)")
    dp = p.coeffs.size - 1
    dm = modulus.coeffs.size - 1
    dq = q.coeffs.size - 1 if not q.is_zero else 0
    if q.is_zero or dq < dp:
        raise ValueError(f"deg(q) = {dq if not q.is_zero else None} "
                         f"must be >= deg(p) = {dp}")
    if dp - 1 + dm > dq:
        raise ValueError("deg(p) - 1 + deg(modulus) must not exceed deg(q)")
    # a z^N solves densely like any other p
    r, s = oracle_dense_solve(p, q, modulus)
    pr, sm = oracle_product(p, r), oracle_product(s, modulus)
    err = oracle_sum_residual(pr, sm, q.coeffs)
    scale = max(1.0, oracle_max_abs(q), oracle_max_abs(Polynomial(pr)),
                oracle_max_abs(Polynomial(sm)))
    if err > 1e-10 * scale:
        raise NotCoprimeError(
            f"Diophantine residual {err:.3e} exceeds 1.0e-10 * {scale:.3e}; "
            "inputs are close to sharing a factor")
    return DiophantineSolution(r, s)


def oracle_sylvester(a, b):
    da, db = a.size - 1, b.size - 1
    S = np.zeros((da + db, da + db))
    a_desc, b_desc = a[::-1], b[::-1]
    for i in range(db):
        S[i : i + da + 1, i] = a_desc
    for i in range(da):
        S[i : i + db + 1, db + i] = b_desc
    return S


def oracle_coprime_check(a, b):
    if a.is_zero or b.is_zero:
        raise ValueError("coprimality of a zero polynomial is undefined")
    if a.coeffs.size == 1 or b.coeffs.size == 1:
        return CoprimalityResult(True, 1.0)
    an = Polynomial(a.coeffs / oracle_max_abs(a)).coeffs
    bn = Polynomial(b.coeffs / oracle_max_abs(b)).coeffs
    if an.size < 2 or bn.size < 2:
        raise ValueError("both polynomials must have degree >= 1")
    sv = np.linalg.svd(oracle_sylvester(an, bn), compute_uv=False)
    quality = float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0
    return CoprimalityResult(quality > 1e-8, quality)


# -- verify -------------------------------------------------------------------


U, EPS = 2.0 ** -53, 2.0 ** -52
RHO = 1.0 - 1e-9
GAP = 1.0 - RHO
DOWN, UP = 1.0 - 2.0 ** -48, 1.0 + 2.0 ** -48


def rho_power_lo(m):
    return max(1.0 - m * (GAP * 1.001), 0.0)


def norm_up(values):
    return sum(abs(v) for v in values) * (1.0 + (len(values) + 4) * EPS)


def reference_schur_bound(p, factors):
    """``numeric.schur_product_proof`` one scalar at a time: ``(bound,
    allowance, reason)``, where ``allowance`` bounds how far two evaluations
    of the bound that round differently can part.  Each evaluation computes
    a factor's modulus within its slack of the exact one, so two of them
    part by at most twice the slack, plus relative rounding of the rates and
    error terms; ``allowance`` carries those differences through the
    recursion, weighted by its terms' magnitudes."""
    rows = factors.steps.tolist()
    n = factors.steps.shape[1] - 1
    if isinstance(factors.base, int):
        roots = None
        prod = np.zeros(factors.base + 1)
        prod[-1] = 1.0
        base_lo, base_err = rho_power_lo(factors.base), 0.0
    else:
        roots = list(factors.base)
        inner = [(RHO - abs(r) * UP) * DOWN for r in roots]
        if not all(d > 0.0 for d in inner):
            return 0.0, 0.0, "an initial root is not inside the circle"
        expanded = np.array([1.0], dtype=complex)
        base_err = 0.0
        for r in roots:
            base_err = ((base_err + 6 * U * norm_up(expanded.tolist()))
                        * ((1.0 + abs(r) * UP) * UP) * UP)
            expanded = np.convolve(expanded, np.array([-r, 1.0]))
        base_err = (base_err + norm_up(expanded.imag.tolist())) * UP
        prod = expanded.real
        base_lo = (math.prod(inner) * (1.0 - len(roots) * EPS) * DOWN
                   - base_err * UP)
    scale = 1.0 + (n + 6) * EPS
    sums, norms, lipschitz = [], [], []
    for k, row in enumerate(rows):
        sums.append(sum(abs(a) * (UP / (1.0 - (n - i) * (GAP * 1.001)) * scale)
                        for i, a in enumerate(row[:n])))
        norms.append(sum(abs(a) for a in row) * scale)
        lipschitz.append(sum(i * abs(a) for i, a in enumerate(row)) * scale)
        if not (sums[-1] < 1.0 and row[n] == 1.0):
            return 0.0, 0.0, (f"the roots of factor {k + 1} of {len(rows)} are "
                              "not proved inside the circle")
    floors = [max((DOWN - s * UP) * rho_power_lo(n) * DOWN, 0.0) for s in sums]
    errs, sizes = [], []
    gamma = (n + 1) * U / (1.0 - (n + 1) * U)
    for f, norm in zip(factors.steps, norms):
        errs.append(gamma * norm * norm_up(prod.tolist()) * UP)
        sizes.append(prod.size)
        prod = np.convolve(f, prod)
    shift = factors.shift
    if not (p.size == prod.size + shift and not p[:shift].any()
            and p[shift:].tobytes() == prod.tobytes()):
        return 0.0, 0.0, "it is not the product of its factors"
    slack = [(4 * n + 4) * U * norm * UP for norm in norms]

    def run(rates_at, base, base_size):
        # the bound, its magnitude without cancellation and the allowance
        bound, size, allow = base, abs(base) + base_err, 64 * U * base_size
        for k, (rate, delta) in enumerate(rates_at):
            e = errs[k]
            tol = (n + sizes[k] + 64) * U
            allow = (rate * allow + delta * size
                     + tol * (rate * size + e))
            size = rate * size + e
            bound = rate * bound * DOWN - e
        return bound, allow

    bound, allow = run([(fl, (n + 64) * U * fl) for fl in floors], base_lo,
                       base_lo + base_err)
    if bound > 0.0:
        lift = rho_power_lo(shift)
        return bound * lift * DOWN, allow, ""
    m = numeric.ARC_SAMPLES
    while True:
        reach = (math.pi / (2 * m) + 2.0 ** -40) * UP
        least, least_allow, hopeless = math.inf, 0.0, False
        for j in range(m):
            theta = (j + 0.5) * (math.pi / m)
            w = complex(RHO * math.cos(theta), RHO * math.sin(theta))
            powers = [1.0 + 0j]
            for _ in range(n):
                powers.append(powers[-1] * w)
            rates, sampled_rates = [], []
            for k, row in enumerate(rows):
                modulus = abs(sum(a * z for a, z in zip(row, powers)))
                rate = max(modulus * DOWN
                           - (slack[k] + lipschitz[k] * reach) * UP,
                           floors[k]) * DOWN
                rates.append((rate, 2 * slack[k] + (n + 64) * U * rate))
                sampled_rates.append((modulus, 0.0))
            if roots is None:
                base, sampled_base = base_lo, base_lo
            else:
                dist = [min(abs(w - r), abs(w - r.conjugate())) for r in roots]
                arc = [max(d * DOWN - reach * UP, i) for d, i in zip(dist, inner)]
                base = (math.prod(arc) * (1.0 - len(roots) * EPS) * DOWN
                        - base_err * UP)
                sampled_base = math.prod(dist) - base_err
            bound, allow = run(rates, base, abs(base) + base_err)
            if bound < least:
                least, least_allow = bound, allow
            hopeless |= not run(sampled_rates, sampled_base, 0.0)[0] > 0.0
        if least > 0.0:
            return least * rho_power_lo(shift) * DOWN, least_allow, ""
        if hopeless or m >= numeric.ARC_SAMPLES_MAX:
            return 0.0, 0.0, ("the stepwise Rouche bound of its modulus on the "
                              "circle does not stay positive")
        m *= 2


def oracle_certify_stabilization(plant_den, plant_num, alpha, beta, gamma, *,
                                 factors=None, quality=None):
    ad, bn = oracle_mul(alpha, plant_den), oracle_mul(beta, plant_num)
    residual = oracle_sum_residual(ad.coeffs, bn.coeffs, gamma.coeffs)
    scale = max(1.0, oracle_max_abs(ad), oracle_max_abs(bn),
                oracle_max_abs(gamma))
    cert = Certificate("stabilization", residual, 1e-8 * scale)
    int_dev = (float(np.maximum.reduce(np.abs(alpha.coeffs - alpha.coeffs.round())))
               if alpha.coeffs.size else 0.0)
    cert.conditions["alpha_integer"] = int_dev <= 1e-6
    cert.conditions["alpha_monic"] = alpha.is_monic(1e-6)
    cert.witnesses["alpha_integer_deviation"] = int_dev
    if factors is None:
        gs = oracle_schur_check(gamma)
        cert.conditions["gamma_schur"] = gs.is_schur
        cert.conditions["gamma_monic"] = gamma.is_monic()
        cert.witnesses["gamma_spectral_radius"] = gs.spectral_radius
        if gs.near_boundary:
            cert.warnings.append(
                f"gamma spectral radius {gs.spectral_radius:.9f} is within the "
                "near-unit-circle band; the stability verdict is fragile")
    else:
        bound, _, reason = reference_schur_bound(gamma.coeffs, factors)
        cert.conditions["gamma_schur"] = bound > 0.0
        cert.conditions["gamma_monic"] = gamma.is_monic()
        cert.witnesses["gamma_min_modulus_bound"] = bound
        if reason:
            cert.warnings.append(
                f"gamma is not proved Schur on |z| = 1 - SCHUR_MARGIN: {reason}")
    deg = verify._deg
    cert.conditions["degree_gap"] = deg(beta) < deg(alpha)
    cert.witnesses["alpha_degree"] = float(deg(alpha))
    cert.witnesses["beta_degree"] = float(deg(beta))
    if quality is None:
        quality = oracle_coprime_check(plant_den, plant_num).quality
    cert.witnesses["plant_coprimality_quality"] = quality
    if quality < 1e-6:
        cert.warnings.append(
            f"plant coprimality quality {quality:.3e} is marginal; the "
            "synthesis problem is numerically delicate")
    return cert


def oracle_closed_loop_poly(plant_den, plant_num, ctrl_den, ctrl_num):
    return oracle_sub(oracle_mul(plant_den, ctrl_den),
                      oracle_mul(plant_num, ctrl_num))


# -- recording and replay ------------------------------------------------------


def fingerprint(obj):
    """Bytes of a kernel's outcome: arrays with dtype and shape, floats with
    their type, exceptions by class and message."""
    if isinstance(obj, RootFindingError):
        # the listed roots: their ratios are checked against the exact ones
        # in test_numeric
        return "raised", type(obj), [r for r, _ in obj.residuals]
    if isinstance(obj, BaseException):
        return "raised", type(obj), str(obj)
    if isinstance(obj, np.ndarray):
        return obj.dtype.str, obj.shape, obj.tobytes()
    if isinstance(obj, Polynomial):
        return "poly", obj.coeffs.tobytes()
    if isinstance(obj, HyperplaneSet):
        return fingerprint((obj.normals, obj.offsets, obj.roots, obj.n_real))
    if isinstance(obj, Certificate):
        # the bound proved from gamma's factors is compared apart, within the
        # reference's allowance
        record = obj.to_dict()
        bound = record["witnesses"].pop("gamma_min_modulus_bound", None)
        return repr(record), bound
    if isinstance(obj, tuple):
        return tuple(fingerprint(o) for o in obj)
    return type(obj).__name__, repr(obj)


ORACLES = {
    "solve_diophantine": oracle_solve_diophantine,
    "coprime_check": oracle_coprime_check,
    "_lu_solve": oracle_lu_solve,
    "poly_roots": oracle_poly_roots,
    "schur_check": oracle_schur_check,
    "build_hyperplanes": oracle_build_hyperplanes,
    "active_index_set": oracle_active_index_set,
    "find_integer_target": oracle_find_integer_target,
    "toeplitz_stack": oracle_toeplitz_stack,
    "certify_stabilization": oracle_certify_stabilization,
}

#: every namespace a synthesis calls a rewritten kernel from
CALL_SITES = [
    (stabilizer, "solve_diophantine"), (converter, "solve_diophantine"),
    (stabilizer, "coprime_check"), (converter, "coprime_check"),
    (verify, "coprime_check"), (bezout, "_lu_solve"),
    (target, "_lu_solve"), (target, "poly_roots"), (numeric, "poly_roots"),
    (verify, "poly_roots"), (verify, "schur_check"),
    (stabilizer, "build_hyperplanes"), (stabilizer, "active_index_set"),
    (stabilizer, "find_integer_target"), (stabilizer, "certify_stabilization"),
    (stabilizer, "toeplitz_stack"),
]


@pytest.fixture
def kernel_calls(monkeypatch):
    """``(kernel, args, kwargs, fingerprint of the outcome)`` of every call
    to a rewritten kernel, fingerprinted at once: callers extend the
    certificate's warnings afterwards."""
    calls = []

    def recorder(real, name):
        def recording(*args, **kwargs):
            try:
                out = real(*args, **kwargs)
            except Exception as exc:
                calls.append((name, args, kwargs, fingerprint(exc)))
                raise
            calls.append((name, args, kwargs, fingerprint(out)))
            return out
        return recording

    for module, name in CALL_SITES:
        monkeypatch.setattr(module, name, recorder(getattr(module, name), name))
    return calls


def assert_match_oracles(calls) -> Counter:
    """Replay every recorded call on its oracle; the number of calls per
    kernel."""
    seen = Counter()
    for name, args, kwargs, got in calls:
        try:
            want = fingerprint(ORACLES[name](*args, **kwargs))
        except Exception as exc:
            want = fingerprint(exc)
        if kwargs.get("factors") is not None and got[0] != "raised":
            _, allowance, _ = reference_schur_bound(args[4].coeffs,
                                                    kwargs["factors"])
            assert got[0] == want[0], (name, args, kwargs)
            assert abs(got[1] - want[1]) <= allowance, (got[1], want[1], allowance)
            seen["schur_product_proof"] += 1
        else:
            assert got == want, (name, args, kwargs)
        seen[name] += 1
    return seen


def test_kernels_match_oracles_on_pendulum(pendulum, pre_controller,
                                           kernel_calls):
    den, num = pendulum
    for cfg in (None, StabilizationConfig(gamma_ini_roots=PENDULUM_GAMMA_INI_ROOTS),
                StabilizationConfig(mu=0.5)):
        assert run_algorithm1(den, num, cfg).certificate.passed
    for roots in (None, CONVERSION_ALPHA_INI_ROOTS):
        convert_controller(pre_controller, den, num,
                           ConversionConfig(alpha_ini_roots=roots))
    seen = assert_match_oracles(kernel_calls)
    assert set(seen) == set(ORACLES) | {"schur_product_proof"}


def test_kernels_match_oracles_on_random_plants(kernel_calls):
    # the unfiltered plants of the benchmark's sweep, orders 1 to 8, with
    # every failure the sweep meets; every third run steps at mu = 0.5
    rng = np.random.default_rng(707)
    outcomes = Counter()
    for i in range(150):
        den, num = random_plant(rng, n_max=8)
        cfg = StabilizationConfig(mu=0.5) if i % 3 == 0 else None
        try:
            outcomes[run_algorithm1(den, num, cfg).certificate.passed] += 1
        except (ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
            outcomes[type(exc).__name__] += 1
    seen = assert_match_oracles(kernel_calls)
    # gamma is proved from its factors: a synthesis no longer finds its roots
    assert set(seen) == set(ORACLES) - {"schur_check"} | {"schur_product_proof"}
    assert outcomes[True] > 60 and len(outcomes) > 3, outcomes
    assert seen["find_integer_target"] > 100


def test_conversion_kernels_match_oracles_on_random_designs(kernel_calls):
    # a seeded stable controller denominator against each random plant: the
    # dense Diophantine solve of the conversion's z^N solves
    rng = np.random.default_rng(808)
    for _ in range(100):
        den, num = random_plant(rng, n_max=6)
        n = den.coeffs.size - 1
        roots = rng.uniform(-0.9, 0.9, int(rng.integers(1, n + 1)))
        try:
            run_algorithm2(Polynomial.from_roots(list(roots)), num, n)
        except (ValueError, RuntimeError, np.linalg.LinAlgError):
            pass
    seen = assert_match_oracles(kernel_calls)
    # one initial solve per design: steering carries the cofactor, so no
    # closing solve follows
    assert seen["solve_diophantine"] == 100


def test_lu_solve_matches_oracle_on_singular_and_random_systems():
    rng = np.random.default_rng(909)
    cases = [(np.zeros((3, 3)), np.ones(3)), (np.eye(2), np.array([np.nan, 1.0])),
             (np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones(2)),
             (np.array([[np.nan, 0.0], [0.0, 1.0]]), np.ones(2))]
    for _ in range(300):
        n = int(rng.integers(1, 12))
        A = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-8, 8, size=(n, n))
        if rng.random() < 0.2:
            A[-1] = A[0] * (1.0 + rng.choice([0.0, 1e-15, 1e-9]))
        cases.append((A, rng.normal(size=n)))
    for A, b in cases:
        got, want = [], []
        for fn, out in ((numeric._lu_solve, got), (oracle_lu_solve, want)):
            try:
                out.append(fingerprint(fn(A, b)))
            except Exception as exc:
                out.append(fingerprint(exc))
        assert got == want


def _signed_zeros(rng, coeffs):
    """``coeffs`` with about a third of its entries below the top set to
    +0.0 or -0.0."""
    out = coeffs.copy()
    hit = rng.random(out.size - 1) < 0.35
    out[:-1][hit] = rng.choice([0.0, -0.0], size=int(hit.sum()))
    return out


def test_structured_matrices_match_the_slice_writes_bit_for_bit(monkeypatch):
    # the Sylvester matrix and the Diophantine system matrix are gathered
    # through a cached index; over random degrees, with p = z^N, a p holding
    # -0.0 coefficients and a modulus holding zero entries, they are the
    # slice-written matrices, byte for byte and C-ordered
    rng = np.random.default_rng(1212)
    systems = []
    monkeypatch.setattr(bezout, "_lu_solve",
                        lambda A, b: systems.append(A) or np.ones(b.size))
    negative_zeros = Counter()
    for i in range(600):
        da, db = (int(d) for d in rng.integers(1, 11, size=2))
        a, b = rng.normal(size=da + 1), rng.normal(size=db + 1)
        if i % 2:
            a, b = _signed_zeros(rng, a), _signed_zeros(rng, b)
        got, want = bezout._sylvester(a, b), oracle_sylvester(a, b)
        assert got.flags.c_contiguous and got.tobytes() == want.tobytes()

        dp, dm = (int(d) for d in rng.integers(0, 10, size=2))
        dq = max(dp, dp - 1 + dm) + int(rng.integers(0, 3))
        p = np.append(rng.normal(size=dp), 1.0)
        modulus = rng.normal(size=dm + 1)
        kind = ("random", "z^N", "signed-zero p", "zero modulus entries")[i % 4]
        if kind == "z^N":
            p = np.append(np.zeros(dp), 1.0)
        elif kind == "signed-zero p":
            p = _signed_zeros(rng, p)
        elif kind == "zero modulus entries":
            modulus = _signed_zeros(rng, modulus)
        args = Polynomial(p), Polynomial(rng.normal(size=dq + 1)), Polynomial(modulus)
        bezout._dense_solve(*args)
        want = oracle_dense_matrix(*args)
        assert systems[-1].flags.c_contiguous
        assert systems[-1].tobytes() == want.tobytes(), (kind, args)
        negative_zeros[kind] += bool((np.signbit(want) & (want == 0.0)).any())
    # the -0.0 coefficients reach the system matrices
    assert min(negative_zeros["signed-zero p"],
               negative_zeros["zero modulus entries"]) > 50, negative_zeros
    index = bezout._band_index((3, 2), (2, 3))
    assert index is bezout._band_index((3, 2), (2, 3))
    assert not index.flags.writeable


def test_closed_loop_poly_matches_oracle_where_no_trim_drops_the_top():
    rng = np.random.default_rng(1010)
    for _ in range(400):
        polys = [Polynomial(rng.normal(size=int(rng.integers(1, 8)))
                            * 10.0 ** rng.integers(-3, 4)) for _ in range(4)]
        if rng.random() < 0.1:
            polys[3] = Polynomial.zero()
        want = oracle_closed_loop_poly(*polys)
        top = oracle_mul(polys[0], polys[2])
        if want.coeffs.size < top.coeffs.size:
            continue  # the earlier trim dropped the exact leading product
        assert closed_loop_poly(*polys).coeffs.tobytes() == want.coeffs.tobytes()


def _outcome(fn, *args):
    try:
        return fingerprint(fn(*args))
    except Exception as exc:
        return fingerprint(exc)


def test_trim_length_matches_oracle_at_the_cut():
    # entries at the cut and one ulp either side, exact and signed zeros,
    # all-zero arrays and a NaN; a non-finite maximum is left to the test
    # below, where the earlier trim emptied the array
    rng = np.random.default_rng(1111)
    cases = [np.zeros(0), np.zeros(3), np.array([-0.0, 0.0]),
             np.array([1.0, np.nan, 0.0]), np.array([np.nan])]
    for _ in range(300):
        c = rng.normal(size=int(rng.integers(1, 10))) * 10.0 ** rng.integers(-5, 6)
        cut = 1e-9 * float(np.max(np.abs(c)))
        for k in range(1, min(4, c.size)):
            c[-k] = rng.choice([0.0, -0.0, cut, -cut, np.nextafter(cut, 0.0),
                                np.nextafter(cut, np.inf), 2 * cut])
        cases.append(c)
    for c in cases:
        assert _trim_length(c) == oracle_trim_length(c), c


def test_trim_keeps_a_non_finite_maximum():
    # the earlier trim cut every entry below inf * tol = inf
    for c, earlier in ((np.array([1.0, np.inf]), 0),
                       (np.array([-np.inf, 1e-300, 0.0]), 0),
                       (np.array([np.inf, np.nan]), 2)):
        assert _trim_length(c) == c.size
        assert oracle_trim_length(c) == earlier


def test_single_candidate_test_matches_block_oracle_at_the_margin():
    # first_feasible of one column against the oracle's row test: sides
    # placed at the margin SIDE_TOL * (1 + max(1, |cand|_inf) * norm) and
    # fractions and multiples of it, on either side of x0; then a NaN
    # candidate, whose sup both routes keep as NaN, and the origin
    rng = np.random.default_rng(1212)
    for _ in range(300):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(1, 5))
        normals = rng.normal(size=(k, n))
        cand = np.round(rng.normal(size=n) * 10.0 ** rng.integers(0, 3))
        norms = np.add.reduce(np.abs(normals), axis=1)
        margin = SIDE_TOL * (1.0 + max(1.0, float(np.max(np.abs(cand)))) * norms)
        want_sides = margin * rng.choice([0.0, 0.5, 1.0, 1.5, 2.0, 3.0], k) \
            * rng.choice([-1.0, 1.0], k)
        offsets = cand @ normals.T - want_sides
        x0 = cand + rng.normal(size=n)
        planes = HyperplaneSet(normals, offsets, (0j,) * k, 0)
        got = target.active_index_set(x0, planes)
        want = OracleActivePlanes(x0, got.normals, got.offsets)
        for c in (cand, np.full(n, np.nan), np.zeros(n)):
            got_feasible = got.first_feasible(c[:, None]) is not None
            assert got_feasible == want.feasible(c)
            assert got.sides0.tobytes() == want.sides0.tobytes()


def test_build_hyperplanes_matches_oracle_on_sweep_numerators():
    # every numerator of the benchmark's seed-7 sweep: the eigensolver's
    # exact conjugate pairs need no pairing search
    rng = np.random.default_rng(7)
    for _ in range(600):
        den, num = random_plant(rng, n_max=8)
        n = den.coeffs.size - 1
        assert (_outcome(build_hyperplanes, num, n)
                == _outcome(oracle_build_hyperplanes, num, n))


def test_numerator_vanishing_at_zero_is_rejected_like_oracle():
    for num in (Polynomial([0.0, 1.0]), Polynomial([0.0, 0.5, -2.0]),
                Polynomial([1e-300, 1.0]), Polynomial.zero(), Polynomial([2.0])):
        for n in (2, 3):
            assert (_outcome(build_hyperplanes, num, n)
                    == _outcome(oracle_build_hyperplanes, num, n))


def test_default_configuration_is_the_default_constructed_one(pendulum):
    rng = np.random.default_rng(1414)
    plants = [pendulum] + [random_plant(rng) for _ in range(20)]
    for den, num in plants:
        got = _outcome(lambda: _result_bytes(run_algorithm1(den, num)))
        want = _outcome(lambda: _result_bytes(
            run_algorithm1(den, num, StabilizationConfig())))
        assert got == want


def _result_bytes(r):
    return (r.alpha, r.beta, r.gamma, r.x_star, r.iterations, r.certificate,
            r.warnings, tuple((t.x, t.u, t.hit, t.distance) for t in r.trace))


def test_overflowing_companion_row_is_rejected_like_oracle():
    # a leading coefficient so small that the companion row overflows
    for coeffs in ([1e300, 1e-300], [1.0, 1e300, 1e-300]):
        p = Polynomial(coeffs)
        with np.errstate(over="ignore"):
            assert (_outcome(numeric.poly_roots, p)
                    == _outcome(oracle_poly_roots, p)
                    == fingerprint(np.linalg.LinAlgError(
                        "Array must not contain infs or NaNs")))


def _factored(base, steps, shift):
    prod = (Polynomial.from_roots(base).coeffs if isinstance(base, tuple)
            else np.concatenate([np.zeros(base), [1.0]]))
    for f in steps:
        prod = np.convolve(f, prod)
    return np.concatenate([np.zeros(shift), prod]), SchurFactors(base, steps, shift)


@pytest.mark.parametrize("base, steps, shift", [
    (4, [[0.1, -0.2, 1.0], [0.3, 0.1, 1.0]], 3),           # whole-circle bound
    (PENDULUM_GAMMA_INI_ROOTS[:4], [[0.2, 0.3, 1.0]] * 3, 2),
    (4, [[0.45, -0.5, 1.0]] * 12, 1),                       # arcs
    (2, [[-0.98, 1.0]] * 16, 0),                            # not proved
    ((0.6, 0.3 + 0.5j, 0.3 - 0.5j), [[0.45, -0.5, 1.0]] * 10, 5),
], ids=["floors", "roots-floors", "arcs", "undecided", "roots-arcs"])
def test_schur_proof_matches_reference_on_hand_cases(base, steps, shift):
    # shifts and root bases, which the synthesis calls above do not reach
    p, factors = _factored(base, np.array(steps), shift)
    got = numeric.schur_product_proof(p, factors)
    bound, allowance, reason = reference_schur_bound(p, factors)
    assert got.reason == reason
    assert (got.min_modulus > 0.0) == (bound > 0.0)
    assert abs(got.min_modulus - bound) <= allowance


# -- the kernels as they were before their set-up was trimmed -----------------
#
# poly_roots wrote the companion row as -c_i / lead through a temporary,
# schur_product_proof took its floors, factor checks and error terms as array
# operations, and _identity_residual took three maxima for its scale; the
# rewrites must give the same bits, exceptions and messages.

from intctrl.numeric import (ARC_SAMPLES, ARC_SAMPLES_MAX, ROOT_TOL,  # noqa: E402
                             SchurProof, _arc_powers, _base_bounds,
                             _convolve, _eigvals_failed, _expanded_roots,
                             _factor_weights, _norm_up, _rho_power_lo)
from intctrl.numeric import _DOWN, _EPS, _POINT_ERR, _RHO, _U, _UP  # noqa: E402
from intctrl.poly import _max_abs, _sum_residual  # noqa: E402


def earlier_poly_roots(p):
    if p.is_zero or p.coeffs.size < 2:
        raise ValueError("root finding requires degree >= 1")
    c = p.coeffs
    # np.roots(c[::-1]) without its wrappers: the eigenvalues of the same
    # companion matrix of c with its zero low-order coefficients split off,
    # followed by one zero root per split coefficient
    zeros = int((c != 0.0).argmax())
    desc = c[zeros:][::-1]
    if desc.size > 1:
        A = np.zeros((desc.size - 1, desc.size - 1))
        A.reshape(-1)[desc.size - 1 :: desc.size] = 1.0
        # one error state for the row and the eigensolve: a quotient that
        # overflows is left to the finiteness check, and finite
        # coefficients over a nonzero leading one raise no invalid flag, so
        # only a failed eigensolve calls _eigvals_failed
        with np.errstate(call=_eigvals_failed, invalid="call", over="ignore",
                         divide="ignore", under="ignore"):
            A[0, :] = -desc[1:] / desc[0]
            # np.linalg.eigvals(A) without the wrapper's checks, which cost
            # more than a small solve; only the first row can be non-finite
            if np.count_nonzero(np.isfinite(A[0])) != A.shape[1]:
                raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
            roots = np.linalg._umath_linalg.eigvals(A, signature="d->D")
        roots = roots if np.count_nonzero(roots.imag) else roots.real
    else:
        roots = np.zeros(0)
    # the split-off zero roots are not checked: at 0 the residual and its
    # scale are both |c_0| = 0
    powers = np.empty((roots.size, c.size), roots.dtype)
    powers[:, 0] = 1.0
    powers[:, 1:] = roots[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply.accumulate(powers, axis=1, out=powers)
        res = np.abs(powers.dot(c))
        scale = np.abs(powers).dot(np.abs(c))
        bad = res > ROOT_TOL * scale
    if np.count_nonzero(bad):
        raise RootFindingError([(complex(roots[i]), float(res[i]) / float(scale[i]))
                                for i in np.flatnonzero(bad)])
    if zeros:
        roots = np.concatenate((roots, np.zeros(zeros, roots.dtype)))
    return roots


def earlier_schur_product_proof(p, factors):
    steps, shift = factors.steps, factors.shift
    k_count, n = steps.shape[0], steps.shape[1] - 1
    if isinstance(factors.base, (int, np.integer)):
        roots = None
        prod = np.zeros(factors.base + 1)
        prod[-1] = 1.0
        base_lo = _rho_power_lo(factors.base)
    else:
        roots = np.array(factors.base, dtype=complex)
        inner = (_RHO - np.abs(roots) * _UP) * _DOWN
        if np.count_nonzero(inner > 0.0) != roots.size:
            return SchurProof(0.0, "an initial root is not inside the circle")
        prod, base_err, _ = _expanded_roots(roots)
        base_lo = (float(np.multiply.reduce(inner)) * (1.0 - roots.size * _EPS)
                   * _DOWN - base_err * _UP)
    # per factor, upper bounds of the Rouche sum against z^n, the 1-norm and
    # the Lipschitz constant
    sums = np.abs(steps).dot(_factor_weights(n))
    inside = (sums[:, 0] < 1.0) & (steps[:, n] == 1.0)
    if np.count_nonzero(inside) != k_count:
        return SchurProof(0.0, f"the roots of factor {int(inside.argmin()) + 1} "
                               f"of {k_count} are not proved inside the circle")
    # |f| >= rho^n (1 - Rouche sum) on all of the circle
    floor = np.maximum((_DOWN - sums[:, 0] * _UP) * _rho_power_lo(n) * _DOWN,
                       0.0)
    # the partial products, multiplied as steering multiplied them
    partials = [prod]
    for f in steps:
        partials.append(_convolve(f, partials[-1]))
    prod = partials.pop()
    partial = np.array([_norm_up(q) for q in partials])
    if (p.size != prod.size + shift or np.count_nonzero(p[:shift])
            or np.count_nonzero(p[shift:] != prod)):
        return SchurProof(0.0, "it is not the product of its factors")
    err = (n + 1) * _U / (1.0 - (n + 1) * _U) * sums[:, 1] * partial * _UP
    # one bound for the whole circle from the floors first
    bound = base_lo
    for rate, e in zip(floor.tolist(), err.tolist()):
        bound = rate * bound * _DOWN - e
    if bound > 0.0:
        return SchurProof(bound * _rho_power_lo(shift) * _DOWN, "")
    slack = (4 * n + 4) * _U * sums[:, 1] * _UP
    m = ARC_SAMPLES
    while True:
        values = _arc_powers(m, n).dot(steps.T)
        moduli = np.hypot(values[:m], values[m:])
        reach = (np.pi / (2 * m) + _POINT_ERR) * _UP
        # rows 0..m-1 bound each factor below on the arcs; rows m..2m-1 are
        # its sampled moduli, without the arc slack
        rates = np.concatenate((np.maximum(
            moduli * _DOWN - (slack + sums[:, 2] * reach) * _UP, floor) * _DOWN,
            moduli))
        if roots is None:
            state = np.full(2 * m, base_lo)
        else:
            state = _base_bounds(roots, inner, m, n, reach, base_err)
        # a row at or below 0 (or NaN) stays so: rates are >= 0 (or NaN) and
        # error terms > 0 (argmin finds a NaN first)
        bound, sampled = state[:m], state[m:]
        for rate, e in zip(rates.T, err.tolist()):
            state *= rate
            state -= e
            if not (sampled[sampled.argmin()] > 0.0 or bound[bound.argmin()] > 0.0):
                break
        least = float(bound[bound.argmin()])
        if least > 0.0:
            return SchurProof(least * _rho_power_lo(shift) * _DOWN, "")
        if not sampled[sampled.argmin()] > 0.0 or m >= ARC_SAMPLES_MAX:
            return SchurProof(0.0, "the stepwise Rouche bound of its modulus "
                                   "on the circle does not stay positive")
        m *= 2


@pytest.fixture
def proof_calls(monkeypatch):
    """Every call a synthesis makes to poly_roots and schur_product_proof,
    with its arguments."""
    calls = []
    for module, name in ((target, "poly_roots"), (verify, "poly_roots"),
                         (numeric, "poly_roots"),
                         (verify, "schur_product_proof"),
                         (bezout, "_identity_residual"),
                         (verify, "_identity_residual")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _real=real, _name=name:
                            calls.append((_name, a)) or _real(*a))
    return calls


def earlier_identity_residual(a, b, c, d, q):
    ab, cd = bezout._product(a, b), bezout._product(c, d)
    residual = _sum_residual(ab, cd, q.coeffs)
    return residual, max(1.0, q.max_abs(), _max_abs(ab), _max_abs(cd))


EARLIER = {"_identity_residual": (bezout._identity_residual,
                                  earlier_identity_residual),
           "poly_roots": (numeric.poly_roots, earlier_poly_roots),
           "schur_product_proof": (numeric.schur_product_proof,
                                   earlier_schur_product_proof)}


def _exact(fn, *args):
    """Bytes of an outcome, the ratios of a RootFindingError included."""
    try:
        out = fn(*args)
    except Exception as exc:
        return "raised", type(exc), str(exc)
    return fingerprint(out) if isinstance(out, np.ndarray) else repr(out)


def test_trimmed_kernels_match_their_earlier_versions(proof_calls, pendulum,
                                                      pre_controller):
    # every call of the seed-7 sweep's 600 plants and of the pendulum
    # fixtures, with and without their initial roots
    rng = np.random.default_rng(7)
    for _ in range(600):
        try:
            run_algorithm1(*random_plant(rng, n_max=8))
        except (ValueError, RuntimeError, np.linalg.LinAlgError):
            pass
    den, num = pendulum
    for roots in (None, PENDULUM_GAMMA_INI_ROOTS):
        run_algorithm1(den, num, StabilizationConfig(gamma_ini_roots=roots))
    for roots in (None, CONVERSION_ALPHA_INI_ROOTS):
        convert_controller(pre_controller, den, num,
                           ConversionConfig(alpha_ini_roots=roots))
    seen = Counter()
    for name, args in proof_calls:
        now, earlier = EARLIER[name]
        assert _exact(now, *args) == _exact(earlier, *args), (name, args)
        seen[name] += 1
    assert seen["poly_roots"] > 400 and seen["schur_product_proof"] > 300, seen
    assert seen["_identity_residual"] > 700, seen


@pytest.mark.parametrize("coeffs", [
    [0.0, 0.0, 1.0, -2.0], [-0.0, 3.0, -0.0, 1e-300], [1e300, 1e-300],
    [1.0, 1e300, 1e-300], [5e-324, 1.0], [1.0, -0.0, 0.0, 2.0],
    [1e-200, 0.0, 0.0, 1e200]])
def test_poly_roots_matches_its_earlier_version_at_the_extremes(coeffs):
    p = Polynomial(coeffs)
    with np.errstate(over="ignore"):
        assert _exact(numeric.poly_roots, p) == _exact(earlier_poly_roots, p)


@pytest.mark.parametrize("base, steps, shift", [
    (4, [[0.1, -0.2, 1.0], [0.3, 0.1, 1.0]], 3),
    (4, [[0.45, -0.5, 1.0]] * 12, 1),
    (2, [[-0.98, 1.0]] * 16, 0),
    (2, [[0.1, 1.0], [1.5, 1.0]], 0),
    (2, [[0.1, 1.0], [0.2, 2.0]], 0),
    ((0.6, 0.3 + 0.5j, 0.3 - 0.5j), [[0.45, -0.5, 1.0]] * 10, 5),
    ((1.2,), [[0.1, 1.0]], 0),
], ids=["floors", "arcs", "undecided", "outside", "not-monic", "roots-arcs",
        "root-outside"])
def test_schur_proof_matches_its_earlier_version_on_hand_cases(base, steps,
                                                               shift):
    p, factors = _factored(base, np.array(steps), shift)
    for q in (p, p * (1.0 + 2.0 ** -52)):
        assert (_exact(numeric.schur_product_proof, q, factors)
                == _exact(earlier_schur_product_proof, q, factors))
