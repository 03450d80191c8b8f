"""The one-call LAPACK solve against the calls it replaced, bit for bit,
and how an SVD failure is reported.

``numeric._lu_solve`` makes one ``dgesv`` call, LAPACK's getrf then getrs,
where it called ``dgetrf`` and then ``dgetrs``.  Results, or the
exception class and message, must agree.  ``bezout.coprime_check`` calls
``np.linalg.svd(S, compute_uv=False)``, whose failure the CLI reports as a
synthesis failure; its quality is compared with a Sylvester oracle bit for
bit in ``test_bezout.py``.
"""
import numpy as np
import pytest
from scipy.linalg import lapack

from intctrl import Polynomial, numeric
from intctrl.bezout import coprime_check
from intctrl.cli import main
from intctrl.fixtures import fixture_path
from intctrl.numeric import SOLVE_RCOND, SingularMatrixError


def two_call_solve(A, b):
    """The solve as getrf followed by getrs, with the same pivot test."""
    lu, piv, _ = lapack.dgetrf(A)
    diag = np.abs(lu.diagonal())
    scale = float(np.maximum.reduce(diag))
    pivot = float(np.minimum.reduce(diag))
    if scale == 0.0 or pivot <= SOLVE_RCOND * scale:
        raise SingularMatrixError(pivot, scale)
    x, info = lapack.dgetrs(lu, piv, b)
    if info:
        raise ValueError(f"illegal value in argument {-info} of LAPACK getrs")
    return x


def outcome(solve, A, b):
    try:
        x = solve(A, b)
    except Exception as exc:
        return type(exc), str(exc)
    return x.dtype.str, x.shape, x.tobytes()


def systems():
    """(kind, A, b): random, ill-conditioned, exactly singular and
    NaN-carrying matrices of orders 1 to 40."""
    rng = np.random.default_rng(2323)
    for n in (1, 2, 3, 5, 8, 13, 17, 40):
        i = np.arange(n)
        yield "random", rng.normal(size=(n, n)) * 10.0 ** rng.integers(-3, 4)
        yield "hilbert", 1.0 / (i[:, None] + i + 1.0)
        yield "graded", rng.normal(size=(n, n)) * np.logspace(0, -15, n)
        yield "zero", np.zeros((n, n))
        A = rng.normal(size=(n, n))
        A[rng.integers(n), rng.integers(n)] = np.nan
        yield "nan", A
        A = rng.normal(size=(n, n))
        A[rng.integers(n), rng.integers(n)] = np.inf
        yield "inf", A
        if n > 1:
            A = rng.normal(size=(n, n))
            A[-1] = A[0]
            yield "repeated-row", A
            A = rng.normal(size=(n, n))
            A[:, n // 2] = A[:, 0] * 3.0
            yield "dependent-column", A
        if n > 2:
            # an exactly zero column makes getrf meet a zero pivot, and a
            # NaN below it on the diagonal keeps the pivot test from
            # raising, so the solve still runs getrs on that LU
            A = rng.normal(size=(n, n))
            A[:, 1] = 0.0
            A[2, 2] = np.nan
            yield "zero-pivot-behind-nan", A


@pytest.mark.parametrize("shape", ["vector", "matrix"])
def test_one_call_solve_equals_getrf_then_getrs(shape):
    rng = np.random.default_rng(99)
    kinds = set()
    for kind, A in systems():
        n = A.shape[0]
        b = rng.normal(size=n if shape == "vector" else (n, 2))
        got = outcome(numeric._lu_solve, A, b)
        assert got == outcome(two_call_solve, A, b), kind
        if kind == "zero-pivot-behind-nan":
            # gesv stopped at the zero pivot, before its getrs
            assert numeric.dgesv(A, b)[3] > 0
            assert got[0] != SingularMatrixError
        kinds.add((kind, got[0] is SingularMatrixError))
    # every kind of system occurs, singular ones raising
    assert ("random", False) in kinds and ("zero", True) in kinds
    assert ("repeated-row", True) in kinds and ("hilbert", True) in kinds
    assert ("zero-pivot-behind-nan", False) in kinds


def test_singular_solve_names_pivot_and_scale():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError) as err:
        numeric._lu_solve(A, np.ones(2))
    assert str(err.value) == str(outcome(two_call_solve, A, np.ones(2))[1])
    assert err.value.pivot == 0.0 and err.value.scale == 2.0


def test_svd_that_does_not_converge_exits_3(monkeypatch, capsys):
    def failing(S, compute_uv=True):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", failing)
    with pytest.raises(np.linalg.LinAlgError, match="^SVD did not converge$"):
        coprime_check(Polynomial([1.0, 2.0, 1.0]), Polynomial([3.0, 1.0]))
    assert main(["stabilize", str(fixture_path("pendulum.json"))]) == 3
    assert capsys.readouterr().err == "synthesis failed: SVD did not converge\n"
