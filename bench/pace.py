"""A fixed reference kernel timed next to every operation.

The machine the benchmark was tuned on changes speed by up to 60% for
seconds to minutes at a time, and CPU time drifts with wall time, so a
latency in milliseconds measures the machine as much as the program.  The
workloads therefore run this kernel, untimed as far as their own latencies
go, after every operation, and the gated metrics divide each operation's
time by the median kernel time around it.  The result is in ``ref_ms``:
milliseconds on a machine on which the kernel takes exactly 1 ms (the
default mix takes about 1.1 ms on a calm 2.1 GHz Xeon).

The kernel uses no intctrl code, so a change to the package cannot speed
it up; it mixes what the workloads spend their time on: a loop of small
matrix-vector products (the simulator), a dense eigenvalue problem of the
size of the degree-27 conversion polynomials (root finding and Schur
checks), a loop of Python integer and dictionary work (the target search)
and float formatting (the CLI's JSON).
"""
from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: Kernel samples on each side of an operation whose median is its pace;
#: a long operation also takes every sample that lies within its own
#: duration before it starts or after it ends.
HALF_WINDOW = 10

_rng = np.random.default_rng(20231)
_A = _rng.standard_normal((12, 12)) * 0.2
_B = _rng.standard_normal(12)
_M = _rng.standard_normal((28, 28))
_P = _rng.standard_normal(12)


def kernel(matvec_steps: int = 40, dict_steps: int = 2000,
           text_values: int = 600) -> float:
    """The reference work.  With the defaults its four parts take about
    equal time, about 1.1 ms in all on a calm 2.1 GHz Xeon."""
    x = np.zeros(12)
    acc = 0.0
    for k in range(matvec_steps):
        acc += abs(float(_B @ x))
        x = _A @ x + _B * (1.0 / (1 + k))
    acc += float(np.abs(np.linalg.eigvals(_M)).max())
    acc += float(np.abs(np.roots(_P)).max())
    table: dict[int, int] = {}
    for i in range(dict_steps):
        table[i % 37] = table.get(i % 37, 0) + i * i
    values = [(i * 0.5) ** 0.5 for i in range(text_values)]
    text = ",".join(f"{v:.6g}" for v in sorted(values, reverse=True)[:150])
    return acc + len(table) + len(text)


class Pace:
    """Kernel times in the order they were taken.  Each operation samples
    the kernel right after it ends.  ``mix`` sets the kernel's parts (see
    ``kernel``), so that a workload's kernel leans toward the work the
    workload does; paced times therefore compare across commits, not
    across workloads."""

    def __init__(self, **mix):
        self.mix = mix
        self.samples: list[float] = []  # kernel milliseconds
        self.starts: list[float] = []   # perf_counter seconds at each start

    def sample(self) -> int:
        """Time the kernel once; returns the sample's index."""
        t0 = time.perf_counter()
        kernel(**self.mix)
        self.samples.append((time.perf_counter() - t0) * 1e3)
        self.starts.append(t0)
        return len(self.samples) - 1

    def local_ms(self, index: int, span_ms: float = 0.0) -> float:
        """Median kernel milliseconds around sample ``index``, taken after
        an operation of ``span_ms``."""
        t = self.starts[index]
        span = span_ms / 1e3
        lo = min(max(0, index - HALF_WINDOW),
                 bisect.bisect_left(self.starts, t - 2 * span))
        hi = max(index + HALF_WINDOW + 1,
                 bisect.bisect_right(self.starts, t + span))
        return statistics.median(self.samples[lo:hi])

    def ref_ms(self, ms: float, index: int) -> float:
        """An operation of ``ms`` that ended at sample ``index``, in ref_ms."""
        return ms / self.local_ms(index, ms)
