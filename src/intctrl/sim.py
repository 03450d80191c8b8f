"""Discrete-time state-space realization and closed-loop simulation."""
from __future__ import annotations

import io
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .poly import Polynomial, RationalTF


class AlgebraicLoopError(ValueError):
    """Both the plant and the controller's feedback channel feed through."""


@dataclass(frozen=True)
class StateSpace:
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        for name in "ABCD":
            object.__setattr__(self, name,
                               np.atleast_2d(np.asarray(getattr(self, name),
                                                        dtype=float)))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ValueError("A must be square")
        if self.B.shape[0] != n or self.C.shape[1] != n:
            raise ValueError("B/C dimensions inconsistent with A")
        if self.D.shape != (self.C.shape[0], self.B.shape[1]):
            raise ValueError("D dimensions inconsistent with B and C")

    @property
    def n_states(self) -> int:
        return self.A.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.B.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.C.shape[0]


def realize_tf(tf: RationalTF) -> StateSpace:
    """Controllable canonical realization of a proper SISO transfer function.

    The state matrix is the companion form whose last row holds the negated
    monic-denominator coefficients, so an integer monic denominator yields
    an all-integer state matrix.  A biproper input gets its direct term
    extracted by one division step.
    """
    if tf.den.is_zero:
        raise ValueError("denominator must be nonzero")
    if tf.num.coeffs.size > tf.den.coeffs.size:
        raise ValueError("transfer function must be proper")
    # the controllable form is the controller's observable one transposed,
    # states reversed: the same numbers from the one companion construction
    obs = realize_controller(tf.den, tf.num, Polynomial.zero())
    return StateSpace(obs.A.T[::-1, ::-1], obs.C.T[::-1], obs.B[::-1, :1].T,
                      obs.D[:, :1])


def _direct_term(num: Polynomial, den: Polynomial) -> tuple[float, Polynomial]:
    """Direct term ``d0`` and strictly proper numerator ``num - d0 * den`` of
    ``num / den`` for a monic ``den`` with ``deg(num) <= deg(den)``."""
    if num.coeffs.size < den.coeffs.size:
        return 0.0, num
    d0 = float(num.coeffs[-1])
    return d0, num - d0 * den


@np.errstate(over="ignore")  # Polynomial rejects any result that overflows
def realize_controller(den: Polynomial, num_y: Polynomial,
                       num_r: Polynomial) -> StateSpace:
    """Shared-state realization of the two-input controller
    ``u = (num_y * y + num_r * r) / den``.

    Observable companion form (first column holds the negated denominator
    coefficients) so that a single state chain serves both input channels;
    an integer monic denominator yields an all-integer state matrix.
    """
    if den.is_zero:
        raise ValueError("denominator must be nonzero")
    scale = den.leading
    den = Polynomial(den.coeffs / scale)
    n = den.coeffs.size - 1
    chans = []
    for num in (num_y, num_r):
        num = Polynomial(num.coeffs / scale)
        if num.coeffs.size > den.coeffs.size:
            raise ValueError("improper controller channel")
        chans.append(_direct_term(num, den))
    if n == 0:
        return StateSpace(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((1, 0)),
                          np.array([[chans[0][0], chans[1][0]]]))
    A = np.zeros((n, n))
    A[:, 0] = -den.coeffs[:-1][::-1]
    A[:-1, 1:] = np.eye(n - 1)
    B = np.zeros((n, 2))
    D = np.zeros((1, 2))
    for j, (d0, strict) in enumerate(chans):
        # numerator taps enter high power first; the direct term folds the
        # denominator back out of the strictly proper part
        taps = np.zeros(n)
        taps[: strict.coeffs.size] = strict.coeffs
        B[:, j] = taps[::-1]
        D[0, j] = d0
    C = np.zeros((1, n))
    C[0, 0] = 1.0
    return StateSpace(A, B, C, D)


class SimulationResult(NamedTuple):
    y: np.ndarray
    u: np.ndarray
    r: np.ndarray
    diverged: bool
    steps: int


#: steps per block: the state recursion runs a block at a time, then the
#: block's outputs are formed and checked for divergence in one pass
BLOCK_STEPS = 128
#: |y| beyond which a run counts as diverged
DIVERGENCE_LIMIT = 1e12


@np.errstate(over="ignore", invalid="ignore")  # an overflow diverges the run
def _closed_loop(plant: StateSpace, controller: StateSpace):
    """Augmented closed loop ``z' = A z + b r`` over ``z = [x_plant; x_ctrl]``.

    Returns ``[A | b]``, ``[c_y | d_y]`` and ``[c_u | d_u]``, each acting on
    ``[z; r]``.  Well-posedness (``dp * dcy == 0``) makes the loop equation
    ``u = dcy (Cp xp + dp u) + Cc xc + dcr r`` explicit, which covers both a
    strictly proper plant and a biproper plant with a strictly proper
    feedback channel.
    """
    n_p, n_c = plant.n_states, controller.n_states
    dp = plant.D[0, 0]
    dcy, dcr = controller.D[0]
    bp, bcy, bcr = plant.B[:, 0], controller.B[:, 0], controller.B[:, 1]
    cu = np.concatenate([dcy * plant.C[0], controller.C[0], [dcr]])
    cy = np.concatenate([plant.C[0], np.zeros(n_c), [0.0]]) + dp * cu
    ab = np.zeros((n_p + n_c, n_p + n_c + 1))
    ab[:n_p, :n_p] = plant.A
    ab[n_p:, n_p:-1] = controller.A
    ab[n_p:, -1] = bcr
    ab[:n_p] += np.outer(bp, cu)
    ab[n_p:] += np.outer(bcy, cy)
    return ab, cy, cu


def simulate_loop(plant: StateSpace, controller: StateSpace,
                  reference: Sequence[float] | float, steps: int) -> SimulationResult:
    """Run the feedback loop ``u = controller(y, r)``, ``y = plant(u)``, from rest.

    The loop must be well-posed: either the plant is strictly proper or the
    controller's output-feedback channel is.  It is realized once as one
    augmented system and stepped with one matrix-vector product per step.
    Divergence (|y| beyond ``DIVERGENCE_LIMIT``, or not finite) truncates
    the run just after the first offending sample and sets the flag
    instead of overflowing silently.
    """
    if plant.n_inputs != 1 or plant.n_outputs != 1:
        raise ValueError("plant must be SISO")
    if controller.n_inputs != 2 or controller.n_outputs != 1:
        raise ValueError("controller must map (y, r) -> u")
    if plant.D[0, 0] != 0.0 and controller.D[0, 0] != 0.0:
        raise AlgebraicLoopError(
            "both plant and controller feedback channel have direct terms")
    if not isinstance(steps, (int, np.integer)) or steps < 0:
        raise ValueError(f"steps must be a nonnegative integer, got {steps!r}")
    ref = np.asarray(reference, dtype=float)
    if ref.ndim > 1:
        raise ValueError("reference must be a number or a one-dimensional "
                         f"sequence, got shape {ref.shape}")
    if not np.isfinite(ref).all():
        raise ValueError("reference must be finite")
    r_seq = np.full(steps, float(ref)) if ref.ndim == 0 else ref
    if r_seq.size < steps:
        raise ValueError("reference sequence shorter than the simulation")
    ab, cy, cu = _closed_loop(plant, controller)
    n = ab.shape[0]
    # rows hold [z_k; r_k] for one block plus the state that starts the next
    w = np.zeros((BLOCK_STEPS + 1, n + 1))
    pairs = tuple(zip(w[:-1], w[1:, :n]))
    y = np.empty(steps)
    u = np.empty(steps)
    step = ab.dot  # np.dot's C routine, bit for bit, without its dispatch
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, steps, BLOCK_STEPS):
            m = min(BLOCK_STEPS, steps - k0)
            block, yb = w[:m], y[k0:k0 + m]
            block[:, n] = r_seq[k0:k0 + m]
            for z, z_next in pairs[:m]:
                step(z, out=z_next)
            block.dot(cy, out=yb)
            block.dot(cu, out=u[k0:k0 + m])
            # |y| <= limit also rejects NaN, which max propagates
            if not np.abs(yb).max() <= DIVERGENCE_LIMIT:
                k = k0 + int((np.abs(yb) <= DIVERGENCE_LIMIT).argmin())
                return SimulationResult(y[: k + 1], u[: k + 1],
                                        r_seq[: k + 1], True, k + 1)
            w[0, :n] = w[m, :n]
    return SimulationResult(y, u, r_seq[:steps], False, steps)


def write_trajectory_csv(fp: io.TextIOBase, result: SimulationResult) -> None:
    """CSV with header ``k,r,u,y``, one row per step, 17 significant digits."""
    fp.write("k,r,u,y\n")
    for k in range(result.steps):
        fp.write(f"{k},{result.r[k]:.17g},{result.u[k]:.17g},{result.y[k]:.17g}\n")
