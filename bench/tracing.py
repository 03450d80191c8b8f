"""Per-layer spans and counters for the benchmark's traced run.

The layers are the ``intctrl`` modules.  Modules import each other's
functions by name, so a function is wrapped in every namespace that calls
it (``stabilizer.find_integer_target``, not ``target.find_integer_target``);
patching only the defining module would miss those calls.  Each wrapper
records a span (name, duration, time covered by child spans) and, for a few
functions, counts read from the returned value.  ``poly`` is not wrapped:
its cost lands in its callers' self time.
"""
from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

ALGORITHM_SPANS = ("stabilizer.run_algorithm1", "converter.run_algorithm2")
CLOSING = "bezout.solve_diophantine.closing"
INITIAL = "bezout.solve_diophantine.initial"

#: (module, attribute, span name): one wrapper per calling namespace.
#: ``solve_diophantine`` spans are renamed to ``.initial`` or ``.closing``
#: at call time, see :meth:`Tracer._span_name`.
WRAPS = (
    ("cli", "main", "cli.main"),
    ("cli", "parse_problem_file", "cli.parse_problem_file"),
    ("cli", "run_algorithm1", "stabilizer.run_algorithm1"),
    ("cli", "convert_controller", "converter.convert_controller"),
    ("cli", "coprime_check", "bezout.coprime_check"),
    ("cli", "schur_check", "numeric.schur_check"),
    ("cli", "poly_roots", "numeric.poly_roots"),
    ("cli", "certify_stabilization", "verify.certify_stabilization"),
    ("cli", "certify_conversion", "verify.certify_conversion"),
    ("stabilizer", "run_algorithm1", "stabilizer.run_algorithm1"),
    ("stabilizer", "preprocess_plant", "stabilizer.preprocess_plant"),
    ("stabilizer", "make_gamma_ini", "stabilizer.make_gamma_ini"),
    ("stabilizer", "coprime_check", "bezout.coprime_check"),
    ("stabilizer", "solve_diophantine", "bezout.solve_diophantine"),
    ("stabilizer", "build_hyperplanes", "target.build_hyperplanes"),
    ("stabilizer", "active_index_set", "target.active_index_set"),
    ("stabilizer", "find_integer_target", "target.find_integer_target"),
    ("stabilizer", "delta_matrix", "target.delta_matrix"),
    ("stabilizer", "control_input", "target.control_input"),
    ("stabilizer", "certify_stabilization", "verify.certify_stabilization"),
    ("converter", "convert_controller", "converter.convert_controller"),
    ("converter", "run_algorithm2", "converter.run_algorithm2"),
    ("converter", "assemble_converted", "converter.assemble_converted"),
    ("converter", "coprime_check", "bezout.coprime_check"),
    ("converter", "solve_diophantine", "bezout.solve_diophantine"),
    ("converter", "certify_conversion", "verify.certify_conversion"),
    ("verify", "coprime_check", "bezout.coprime_check"),
    ("verify", "schur_check", "numeric.schur_check"),
    ("verify", "poly_roots", "numeric.poly_roots"),
    ("numeric", "poly_roots", "numeric.poly_roots"),
    ("target", "poly_roots", "numeric.poly_roots"),
    ("sim", "realize_tf", "sim.realize_tf"),
    ("sim", "realize_controller", "sim.realize_controller"),
    ("sim", "simulate_loop", "sim.simulate_loop"),
)

#: Failure keys reported as per-layer metrics; any other key is summed
#: into ``failures.other``.  Exceptions are keyed by class and origin, the
#: innermost wrapped span active at the raise (a top-level algorithm span
#: also names the phase it had reached: setup, steering or closing).
FAILURE_KEYS = (
    "failures.NotCoprimeError." + CLOSING,
    "failures.NotCoprimeError." + INITIAL,
    "failures.InconsistentActiveSetError.target.active_index_set",
    "failures.SynthesisError.stabilizer.run_algorithm1.steering",
    "failures.SynthesisError.stabilizer.run_algorithm1.closing",
    "failures.RootFindingError.numeric.poly_roots",
    "failures.certificate",
    "failures.independent_check",
)

#: Certificate conditions reported by name; the rest go to ``.other``.
CERT_CONDITIONS = ("gamma_schur", "identity_residual", "alpha_schur")

PER_PASS_MS = "ms/pass"
PER_PASS = "count/pass"

#: (metric, unit, better, kind, source).  kind ``ms`` is a span's total
#: time, ``self`` its time minus wrapped children, ``calls`` its call count,
#: ``count`` a counter and ``overhead`` the median traced pass time minus
#: the median untraced one, both paced (``pace.py``).  Values are per pass, except the ``setup``
#: rows, which are taken from the workload's set-up.
PER_LAYER = (
    ("target.find_integer_target.ms", PER_PASS_MS, "lower", "ms", "target.find_integer_target"),
    ("target.candidates_examined.sum", PER_PASS, "lower", "count", "target.candidates_examined.sum"),
    ("target.candidates_examined.max", PER_PASS, "lower", "count", "target.candidates_examined.max"),
    ("target.strategy.round.count", PER_PASS, "higher", "count", "target.strategy.round"),
    ("target.strategy.shell.count", PER_PASS, "lower", "count", "target.strategy.shell"),
    ("target.strategy.fallback.count", PER_PASS, "lower", "count", "target.strategy.fallback"),
    ("target.strategy.origin.count", PER_PASS, "higher", "count", "target.strategy.origin"),
    ("target.build_hyperplanes.ms", PER_PASS_MS, "lower", "ms", "target.build_hyperplanes"),
    ("target.active_index_set.ms", PER_PASS_MS, "lower", "ms", "target.active_index_set"),
    ("target.delta_matrix.calls", PER_PASS, "lower", "calls", "target.delta_matrix"),
    ("target.delta_matrix.ms", PER_PASS_MS, "lower", "ms", "target.delta_matrix"),
    ("target.control_input.calls", PER_PASS, "lower", "calls", "target.control_input"),
    ("target.control_input.ms", PER_PASS_MS, "lower", "ms", "target.control_input"),
    ("target.hit_share", "share", "higher", "hit_share", "target.control_input"),
    ("bezout.coprime_check.ms", PER_PASS_MS, "lower", "ms", "bezout.coprime_check"),
    ("bezout.solve_diophantine.initial.ms", PER_PASS_MS, "lower", "ms", INITIAL),
    ("bezout.solve_diophantine.closing.ms", PER_PASS_MS, "lower", "ms", CLOSING),
    ("bezout.closing_not_coprime.count", PER_PASS, "lower", "count", "failures.NotCoprimeError." + CLOSING),
    ("stabilizer.run_algorithm1.ms", PER_PASS_MS, "lower", "ms", "stabilizer.run_algorithm1"),
    ("stabilizer.self.ms", PER_PASS_MS, "lower", "self", "stabilizer.run_algorithm1"),
    ("stabilizer.preprocess_plant.ms", PER_PASS_MS, "lower", "ms", "stabilizer.preprocess_plant"),
    ("stabilizer.make_gamma_ini.ms", PER_PASS_MS, "lower", "ms", "stabilizer.make_gamma_ini"),
    ("stabilizer.iterations.sum", PER_PASS, "lower", "count", "stabilizer.iterations.sum"),
    ("stabilizer.iterations.max", PER_PASS, "lower", "count", "stabilizer.iterations.max"),
    ("converter.run_algorithm2.ms", PER_PASS_MS, "lower", "ms", "converter.run_algorithm2"),
    ("converter.self.ms", PER_PASS_MS, "lower", "self", "converter.run_algorithm2"),
    ("converter.assemble_converted.ms", PER_PASS_MS, "lower", "ms", "converter.assemble_converted"),
    ("converter.iterations", PER_PASS, "lower", "count", "converter.iterations.sum"),
    ("verify.certify_stabilization.ms", PER_PASS_MS, "lower", "ms", "verify.certify_stabilization"),
    ("verify.certify_conversion.ms", PER_PASS_MS, "lower", "ms", "verify.certify_conversion"),
    ("numeric.schur_check.calls", PER_PASS, "lower", "calls", "numeric.schur_check"),
    ("numeric.schur_check.ms", PER_PASS_MS, "lower", "ms", "numeric.schur_check"),
    ("numeric.poly_roots.calls", PER_PASS, "lower", "calls", "numeric.poly_roots"),
    ("numeric.poly_roots.ms", PER_PASS_MS, "lower", "ms", "numeric.poly_roots"),
    *((f"verify.cert_failed.{c}.count", PER_PASS, "lower", "count", f"verify.cert_failed.{c}")
      for c in CERT_CONDITIONS + ("other",)),
    ("sim.simulate_loop.ms", PER_PASS_MS, "lower", "ms", "sim.simulate_loop"),
    ("sim.steps", PER_PASS, "higher", "count", "sim.steps"),
    ("sim.diverged.count", PER_PASS, "lower", "count", "sim.diverged"),
    ("sim.realize_tf.ms", "ms", "lower", "setup", "sim.realize_tf"),
    ("sim.realize_controller.ms", "ms", "lower", "setup", "sim.realize_controller"),
    ("cli.main.ms", PER_PASS_MS, "lower", "ms", "cli.main"),
    ("cli.parse_problem_file.ms", PER_PASS_MS, "lower", "ms", "cli.parse_problem_file"),
    ("cli.self.ms", PER_PASS_MS, "lower", "self", "cli.main"),
    *((key, PER_PASS, "lower", "count", key) for key in FAILURE_KEYS),
    ("failures.other", PER_PASS, "lower", "count", "failures.other"),
    ("trace.overhead", "ref_ms/pass", "lower", "overhead", "traced minus untraced pass time"),
)


class Tracer:
    """Wrap the calling namespaces of ``modules`` and aggregate spans.

    ``modules`` maps the short module names used in :data:`WRAPS` to the
    imported ``intctrl`` modules.  Aggregates accumulate until
    :meth:`take` returns and resets them, once per pass.
    """

    def __init__(self, modules: dict):
        self.modules = modules
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[float] = []
        self._phase = "setup"
        self._raised: tuple[BaseException, str] | None = None
        self._reset()

    def _reset(self):
        self.ms: dict[str, float] = defaultdict(float)
        self.self_ms: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    def take(self) -> dict:
        """Aggregates since the last call, then start afresh."""
        out = {"ms": dict(self.ms), "self": dict(self.self_ms),
               "calls": dict(self.calls), "counts": dict(self.counts)}
        self._reset()
        return out

    def resolve(self) -> list[tuple[object, str, object]]:
        """``(module, attribute, function)`` for every wrapped name.

        Raises ``AttributeError`` naming the entry when a module no longer
        has the attribute, so a rename fails loudly instead of reporting
        zero for a layer.
        """
        out = []
        for mod_name, attr, _ in WRAPS:
            module = self.modules[mod_name]
            fn = getattr(module, attr, None)
            if not callable(fn):
                raise AttributeError(
                    f"traced name {module.__name__}.{attr} is missing; "
                    "update bench/tracing.py WRAPS")
            out.append((module, attr, fn))
        return out

    @contextmanager
    def installed(self):
        resolved = self.resolve()
        for (module, attr, fn), (_, _, span) in zip(resolved, WRAPS):
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, span))
        try:
            yield self
        finally:
            for module, attr, fn in reversed(self._saved):
                setattr(module, attr, fn)
            self._saved.clear()

    def origin(self, exc: BaseException) -> str | None:
        """Innermost span that saw ``exc`` propagate, if any did."""
        if self._raised is not None and self._raised[0] is exc:
            return self._raised[1]
        return None

    def _span_name(self, span: str) -> str:
        # the closing solve is the one made after the target search returned
        if span == "bezout.solve_diophantine":
            if self._phase in ("steering", "closing"):
                self._phase = "closing"
                return CLOSING
            return INITIAL
        if span in ALGORITHM_SPANS:
            self._phase = "setup"
        return span

    def _wrap(self, fn, span: str):
        def traced(*args, **kwargs):
            name = self._span_name(span)
            self._stack.append(0.0)  # time covered by child spans
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if self._raised is None or self._raised[0] is not exc:
                    origin = (f"{name}.{self._phase}" if name in ALGORITHM_SPANS
                              else name)
                    self._raised = (exc, origin)
                raise
            finally:
                dt = (time.perf_counter() - t0) * 1e3
                children = self._stack.pop()
                if self._stack:
                    self._stack[-1] += dt
                self.ms[name] += dt
                self.self_ms[name] += dt - children
                self.calls[name] += 1
            self._observe(name, result)
            return result

        return traced

    def _observe(self, name: str, result) -> None:
        c = self.counts
        if name == "target.find_integer_target":
            self._phase = "steering"
            c["target.candidates_examined.sum"] += result.candidates_examined
            c["target.candidates_examined.max"] = max(
                c["target.candidates_examined.max"], result.candidates_examined)
            c[f"target.strategy.{result.strategy}"] += 1
        elif name == "target.control_input":
            c["target.hits"] += int(result.hit)
        elif name in ALGORITHM_SPANS:
            key = name.split(".")[0] + ".iterations"
            c[key + ".sum"] += result.iterations
            c[key + ".max"] = max(c[key + ".max"], result.iterations)
        elif name.startswith("verify.certify_"):
            failed = [k for k, ok in result.conditions.items() if not ok]
            if result.identity_residual > result.residual_tol:
                failed.append("identity_residual")
            for cond in failed:
                cond = cond if cond in CERT_CONDITIONS else "other"
                c[f"verify.cert_failed.{cond}"] += 1
        elif name == "sim.simulate_loop":
            c["sim.steps"] += result.steps
            c["sim.diverged"] += int(result.diverged)


def layer_values(passes: list[dict], setup: dict,
                 overhead: float) -> dict[str, float]:
    """Per-layer metric values: medians over passes for times, the first
    pass for counts (the caller checks that counts repeat)."""
    first = passes[0]
    out = {}
    for metric, _unit, _better, kind, src in PER_LAYER:
        if kind == "overhead":
            out[metric] = overhead
        elif kind == "setup":
            out[metric] = setup["ms"].get(src, 0.0)
        elif kind in ("ms", "self"):
            out[metric] = statistics.median(p[kind].get(src, 0.0) for p in passes)
        elif kind == "calls":
            out[metric] = first["calls"].get(src, 0)
        elif kind == "hit_share":
            calls = first["calls"].get(src, 0)
            out[metric] = first["counts"].get("target.hits", 0) / calls if calls else 0.0
        else:
            out[metric] = first["counts"].get(src, 0)
    return out


def exact_part(snapshot: dict) -> tuple:
    """The parts of a pass's aggregates that must repeat exactly."""
    return (tuple(sorted(snapshot["calls"].items())),
            tuple(sorted(snapshot["counts"].items())))
