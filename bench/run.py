"""intctrl benchmark: drive the public API in one thread, as a closed loop.

    python3 bench/run.py --workload pendulum --seed 1 --seconds 30 --trace 0

Workloads: ``pendulum``, ``random-sweep`` and ``pendulum-sim`` (NOTES.md
says why each exists).  Run from the root of a source checkout: the
package is imported from ``src/``.  With ``--trace 0`` the run measures the
end-to-end metrics untraced; with ``--trace 1`` it alternates untraced and
traced passes and reports the per-layer metrics and the tracing overhead.
Every metric is printed as a line with its unit and better direction; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import os

# BLAS threads are pinned before numpy is first imported: unpinned, the
# pendulum stabilize p95 measured 8.0 ms against 2.8 ms pinned on 2 cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
if not (SRC / "intctrl" / "__init__.py").is_file():
    sys.exit(f"error: {SRC / 'intctrl'} not found; run from a source "
             "checkout of the intctrl repository")
sys.path[:0] = [str(SRC), str(BENCH)]

from tracing import (FAILURE_KEYS, PER_LAYER, Tracer, exact_part,  # noqa: E402
                     layer_values)
from workloads import MODULES, WORKLOADS, percentile  # noqa: E402

#: (metric, unit, better).  The operation behind the latencies is a
#: pendulum round, one sweep plant, or a round of the three simulations;
#: throughput counts rounds, plants or simulated steps per second.  Times
#: are in ref_ms, milliseconds at the reference kernel's pace (pace.py).
END_TO_END = (
    ("latency_p50", "ref_ms", "lower"),
    ("throughput", "1/ref_s", "higher"),
    ("ok_share", "share", "higher"),
    ("setup_s", "s", "lower"),
)

#: Fresh interpreters timed per run for ``setup_s``, after one untimed
#: start that leaves the bytecode cache warm.  Each imports intctrl and
#: builds the workload: fixture load, plant generation, and for
#: ``pendulum-sim`` the synthesis and realization of its loops.
SETUP_RUNS = 7
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import intctrl
from pathlib import Path
from workloads import WORKLOADS
WORKLOADS[sys.argv[1]](int(sys.argv[2]), Path(sys.argv[3]))
print(time.perf_counter() - t0)
"""


class Pass(NamedTuple):
    result: object              # the workload's PassResult
    snapshot: dict | None = None  # tracer aggregates of a traced pass

    def ref_ms(self, pace) -> float:
        """The pass's call time in ref_ms."""
        return sum(pace.ref_ms(ms, i)
                   for ms, i in zip(self.result.latency_ms, self.result.ref))


def measure_setup(workload: str, seed: int, workdir: str) -> float:
    """Median seconds for a fresh interpreter to import intctrl and set
    the workload up."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(BENCH), env.get("PYTHONPATH")) if p)
    argv = [sys.executable, "-c", SETUP_CODE, workload, str(seed), workdir]
    times = []
    for _ in range(SETUP_RUNS + 1):
        out = subprocess.run(argv, env=env, capture_output=True, text=True,
                             timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times[1:])


def one_pass(workload, tracer=None) -> Pass:
    result = workload.run_pass(tracer)
    if tracer is None:
        return Pass(result)
    snapshot = tracer.take()
    counts = snapshot["counts"]
    for key, count in Counter(o for o in result.outcomes if o != "ok").items():
        bucket = key if key in FAILURE_KEYS else "failures.other"
        counts[bucket] = counts.get(bucket, 0) + count
        counts["taxonomy." + key] = count
    return Pass(result, snapshot)


def run_passes(workload, seconds: float, tracer=None):
    """Passes for ``seconds``: at least one, and no further pass starts
    that would likely end after ``seconds``.  Untraced, returns the
    passes.  Traced, alternates an untraced and a traced pass, so that both
    see the same machine conditions, and returns both lists.
    """
    untraced, traced = [], []
    start = time.perf_counter()
    step = 0.0
    while not untraced or time.perf_counter() - start + step <= seconds:
        now = time.perf_counter()
        untraced.append(one_pass(workload))
        if tracer is not None:
            with tracer.installed():
                traced.append(one_pass(workload, tracer))
        step = time.perf_counter() - now
    return untraced, traced


def end_to_end(workload, results: list, outcomes: list[str],
               setup_s: float) -> dict[str, float]:
    """Median latency and throughput over the run, in ref_ms."""
    latency, work = workload.summary(results)
    return {
        "latency_p50": statistics.median(latency),
        "throughput": work / (sum(latency) / 1e3),
        "ok_share": outcomes.count("ok") / len(outcomes),
        "setup_s": setup_s,
    }


def print_row(name, value, unit, better, note="") -> None:
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<58} {shown:>14} {unit:<10} {better + ' is better':<16} {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    cls = WORKLOADS[args.workload]
    tracer = Tracer(MODULES) if args.trace else None
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=BENCH) as tmp:
        setup_s = (None if args.trace
                   else measure_setup(args.workload, args.seed, tmp))
        if tracer is None:
            workload = cls(args.seed, Path(tmp))
        else:
            with tracer.installed():
                workload = cls(args.seed, Path(tmp))
            setup_snapshot = tracer.take()
        for _ in range(cls.warm_up_passes):
            workload.run_pass(None)
        workload.pace.samples.clear()
        passes, traced = run_passes(workload, args.seconds, tracer)

    measured = passes + traced
    outcomes = [o for p in measured for o in p.result.outcomes]
    failed = sum(o != "ok" for o in outcomes)
    deterministic = (workload.ledger.mismatches == 0
                     and len({exact_part(p.snapshot) for p in traced}) <= 1)
    correct = deterministic and not (cls.expect_all_ok and failed)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)}+{len(traced)} traced outcomes={len(outcomes)}")
    if args.trace:
        untraced_ref_ms = statistics.median(p.ref_ms(workload.pace) for p in passes)
        overhead = (statistics.median(p.ref_ms(workload.pace) for p in traced)
                    - untraced_ref_ms)
        values = layer_values([p.snapshot for p in traced], setup_snapshot,
                              overhead)
        declared = [(m, u, b) for m, u, b, _kind, _src in PER_LAYER]
        print("per-layer metrics (traced passes):")
        for name, unit, better in declared:
            print_row(name, values[name], unit, better)
        print_row("trace.overhead_share",
                  overhead / untraced_ref_ms,
                  "share", "lower", "report-only")
        print("failure taxonomy (first traced pass):")
        for key, count in sorted(traced[0].snapshot["counts"].items()):
            if key.startswith("taxonomy."):
                print_row(key[len("taxonomy."):], count, "count/pass", "lower")
    else:
        results = [p.result for p in passes]
        values = end_to_end(workload, results, outcomes, setup_s)
        declared = END_TO_END
        print("end-to-end metrics (untraced passes):")
        for name, unit, better in declared:
            print_row(name, values[name], unit, better)
        print("report-only (other views of the same passes, not gated):")
        for row in workload.report(results):
            print_row(*row)
        raw = [ms for r in results for ms in r.latency_ms]
        print_row("latency_ms_p50", percentile(raw, 50), "ms", "lower",
                  "wall clock, not paced")
        print_row("pace.kernel_ms_p50", statistics.median(workload.pace.samples),
                  "ms", "lower", f"{len(workload.pace.samples)} samples")
        print_row("failed_share", failed / len(outcomes), "share", "lower",
                  f"{failed}/{len(outcomes)}")
        for key, count in sorted(Counter(passes[0].result.outcomes).items()):
            if key != "ok":
                print_row(key, count, "count/pass", "lower")
    for reason, count in sorted(workload.ledger.reasons.items()):
        print(f"  independent check failed ({count} distinct outputs): {reason}")
    if not deterministic:
        print("  outputs or counts differed between repeats of one operation")

    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _better in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
