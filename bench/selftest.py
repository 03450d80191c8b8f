"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

Runs from the root of a source checkout and exits non-zero if a test fails.
It is kept out of the package's pytest suite on purpose: the baseline test
pins the sweep outcome at the commit that introduced the benchmark, and a
change that makes synthesis more robust is expected to move it.  Such a
change records the new numbers here in a benchmark change of its own.
"""
from __future__ import annotations

import dis
import hashlib
import json
import sys
import traceback
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (pins BLAS threads and puts src/ on the path)
import plants  # noqa: E402
from tracing import PER_LAYER, WRAPS, Tracer  # noqa: E402
from workloads import MODULES, OK, WORKLOADS, RandomSweep  # noqa: E402

#: Plants per order n = 1..8 in the seed-7 sweep, and a digest of every
#: coefficient, so that the data cannot drift unnoticed.
SWEEP_ORDER_COUNTS = {1: 70, 2: 74, 3: 79, 4: 64, 5: 66, 6: 84, 7: 82, 8: 81}
SWEEP_DIGEST = "c004bc929eebd3fe519520b903345e69ec271d74a67c801aa5c8143a677646f3"

#: Sweep outcome when the benchmark was introduced (375/600 certified).
BASELINE_CERTIFIED = {1: 70, 2: 74, 3: 72, 4: 52, 5: 35, 6: 33, 7: 26, 8: 13}
BASELINE_FAILURES = {
    "failures.NotCoprimeError.bezout.solve_diophantine.closing": 96,
    "failures.InconsistentActiveSetError.target.active_index_set": 69,
    "failures.SynthesisError.stabilizer.run_algorithm1.steering": 36,
    "failures.certificate": 11,
    "failures.RootFindingError.numeric.poly_roots": 6,
    "failures.NotCoprimeError.bezout.solve_diophantine.initial": 6,
    "failures.SynthesisError.stabilizer.run_algorithm1.closing": 1,
}
BASELINE_STRATEGIES = {"round": 372, "shell": 152, "fallback": 1}
BASELINE_CANDIDATES = 224_305

#: Names the benchmark calls itself; every other wrapped name must be
#: looked up by some function of the module that holds it.
ENTRY_POINTS = {("cli", "main"), ("stabilizer", "run_algorithm1"),
                ("converter", "convert_controller"), ("sim", "realize_tf"),
                ("sim", "realize_controller"), ("sim", "simulate_loop")}


def _global_names(module) -> set[str]:
    """Global names loaded by the code of the module's functions."""
    names: set[str] = set()
    stack = [obj.__code__ for obj in vars(module).values()
             if isinstance(obj, types.FunctionType)
             and obj.__module__ == module.__name__]
    while stack:
        code = stack.pop()
        names.update(ins.argval for ins in dis.get_instructions(code)
                     if ins.opname == "LOAD_GLOBAL")
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return names


def test_generator_counts_and_digest():
    sweep = plants.sweep_plants()
    counts: dict[int, int] = {}
    digest = hashlib.sha256()
    for den, num in sweep:
        counts[den.size - 1] = counts.get(den.size - 1, 0) + 1
        digest.update(den.astype("<f8").tobytes() + b"|")
        digest.update(num.astype("<f8").tobytes() + b";")
    assert dict(sorted(counts.items())) == SWEEP_ORDER_COUNTS, counts
    assert digest.hexdigest() == SWEEP_DIGEST, digest.hexdigest()


def test_wrapped_names_exist_where_called():
    Tracer(MODULES).resolve()
    for mod_name, attr, _ in WRAPS:
        if (mod_name, attr) in ENTRY_POINTS:
            continue
        module = MODULES[mod_name]
        assert attr in _global_names(module), (
            f"{module.__name__} no longer calls {attr}; the wrapper would "
            "report zero for its layer")


def test_declared_metrics_match_benchmark_json():
    spec = json.loads((run.BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [row[:3] for row in PER_LAYER]


def test_sweep_reproduces_baseline():
    sweep = RandomSweep(seed=7, workdir=Path("."))
    tracer = Tracer(MODULES)
    with tracer.installed():
        result = run.one_pass(sweep, tracer)
    counts = result.snapshot["counts"]
    certified = {n: ok for n, (ok, _) in
                 sweep.certified_by_order(result.result).items()}
    assert certified == BASELINE_CERTIFIED, certified
    assert result.result.outcomes.count(OK) == 375
    failures = {k[len("taxonomy."):]: v for k, v in counts.items()
                if k.startswith("taxonomy.")}
    assert failures == BASELINE_FAILURES, failures
    strategies = {k.split(".")[-1]: v for k, v in counts.items()
                  if k.startswith("target.strategy.")}
    assert strategies == BASELINE_STRATEGIES, strategies
    assert counts["target.candidates_examined.sum"] == BASELINE_CANDIDATES


def main() -> int:
    failed = 0
    for name, fn in list(globals().items()):
        if not name.startswith("test_"):
            continue
        try:
            fn()
        except Exception:
            failed += 1
            print(f"FAIL {name}")
            traceback.print_exc()
        else:
            print(f"PASS {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
