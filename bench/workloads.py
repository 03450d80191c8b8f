"""The benchmark's workloads and the independent checks of their outputs.

Each workload builds its inputs from the seed in its constructor (set-up)
and then runs passes: a pendulum round, a sweep over all plants, or a round
of simulations.  A pass times each public-API call on its own, so the
checks that follow a call are never inside a timing, and samples the
reference kernel (``pace.py``) after every operation.  See NOTES.md for why
each workload exists.
"""
from __future__ import annotations

import json
import statistics
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.polynomial import polynomial as npoly

from intctrl import cli, converter, numeric, sim, stabilizer, target, verify
from intctrl.fixtures import (CONVERSION_ALPHA_INI_ROOTS,
                              PENDULUM_GAMMA_INI_ROOTS, fixture_path,
                              pendulum_plant, pendulum_pre_controller)
from intctrl.poly import Polynomial, RationalTF

import plants
from pace import Pace

#: Modules whose namespaces the tracer wraps.
MODULES = {"cli": cli, "converter": converter, "numeric": numeric,
           "sim": sim, "stabilizer": stabilizer, "target": target,
           "verify": verify}

#: Integer controller denominators of the pendulum fixtures when the
#: benchmark was introduced, descending: z^8 - z^7 - 13z^6 - 4z^5 + 10z^4 and
#: z^27 - z^26 - 4z^25 - 2z^24 + 4z^23.
STABILIZE_DEN = (1, -1, -13, -4, 10) + (0,) * 4
CONVERT_DEN = (1, -1, -4, -2, 4) + (0,) * 23

#: Relative identity residual accepted by the independent checks; the
#: same bound as the package's certificate default.
IDENTITY_RTOL = 1e-8

OK = "ok"
CERTIFICATE = "failures.certificate"
CHECK = "failures.independent_check"


class PassResult(NamedTuple):
    latency_ms: list[float]         # one entry per operation
    ref: list[int]                  # its reference-kernel sample (Pace)
    work: int                       # rounds, plants or simulated steps
    outcomes: list[str]             # OK or a failure key per outcome
    parts: dict[str, list[float]]   # report-only per-call latencies


class Ledger:
    """Outcome bookkeeping shared by the workloads.

    Every repeat of an operation must reproduce the output of its first run;
    ``mismatches`` counts the repeats that did not.  The independent check
    of an output runs once per distinct output.
    """

    def __init__(self):
        self.first: dict[str, object] = {}
        self.verdicts: dict[tuple[str, object], str] = {}
        self.reasons: Counter = Counter()
        self.mismatches = 0

    def seen(self, key: str, signature) -> None:
        if self.first.setdefault(key, signature) != signature:
            self.mismatches += 1

    def judge(self, key: str, signature, check) -> str:
        """OK or the failure key for an output; ``check()`` returns None,
        "certificate" or the reason the output is wrong."""
        self.seen(key, signature)
        if (key, signature) not in self.verdicts:
            reason = check()
            if reason is None:
                verdict = OK
            elif reason == "certificate":
                verdict = CERTIFICATE
            else:
                self.reasons[reason] += 1
                verdict = CHECK
            self.verdicts[key, signature] = verdict
        return self.verdicts[key, signature]

    def raised(self, key: str, exc: Exception, tracer) -> str:
        """Failure key of an exception: its class, plus its origin when
        traced."""
        self.seen(key, ("raised", type(exc).__name__, str(exc)))
        origin = tracer.origin(exc) if tracer is not None else None
        name = type(exc).__name__
        return f"failures.{name}.{origin}" if origin else f"failures.{name}"


class clock_ms:
    """``with clock_ms() as t: ...`` leaves the elapsed milliseconds in
    ``t.ms``."""

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self.ms = (time.perf_counter() - self._t0) * 1e3


def rounds_ref_ms(pace: Pace, results: list[PassResult]) -> list[float]:
    """Round latencies in ref_ms, one per pass of a round workload."""
    return [pace.ref_ms(r.latency_ms[0], r.ref[0]) for r in results]


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q))


def _signature(*polys: Polynomial) -> tuple[bytes, ...]:
    return tuple(p.coeffs.tobytes() for p in polys)


def _deg(coeffs: np.ndarray) -> int:
    return coeffs.size - 1


def _identity_residual(terms, rhs: np.ndarray) -> tuple[float, float]:
    """max|sum(terms) - rhs| and the coefficient scale it is judged by."""
    size = max([rhs.size] + [t.size for t in terms])
    total = np.zeros(size)
    for t in terms:
        total[: t.size] += t
    total[: rhs.size] -= rhs
    scale = max([1.0, float(np.max(np.abs(rhs)))]
                + [float(np.max(np.abs(t))) for t in terms if t.size])
    return float(np.max(np.abs(total))), scale


def _spectral_radius(coeffs: np.ndarray) -> float:
    if coeffs.size < 2:
        return 0.0
    return float(np.max(np.abs(np.roots(coeffs[::-1]))))


def _is_integer_monic(coeffs: np.ndarray) -> bool:
    return (coeffs.size > 0 and coeffs[-1] == 1.0
            and bool(np.all(coeffs == np.round(coeffs))))


def check_stabilization(den: Polynomial, num: Polynomial, result) -> str | None:
    """Why a ``run_algorithm1`` result is wrong, or None.

    Uses numpy only: alpha exactly integer and monic, deg(beta) < deg(alpha),
    ``alpha*den + beta*num = gamma`` for the monicized plant, and the roots
    of gamma inside the unit circle.
    """
    if not result.certificate.passed:
        return "certificate"
    lead = den.coeffs[-1]
    alpha, beta, gamma = (result.alpha.coeffs, result.beta.coeffs,
                          result.gamma.coeffs)
    if not _is_integer_monic(alpha):
        return "alpha is not exactly integer monic"
    if _deg(beta) >= _deg(alpha):
        return "deg(beta) >= deg(alpha)"
    terms = [npoly.polymul(alpha, den.coeffs / lead)]
    if beta.size:
        terms.append(npoly.polymul(beta, num.coeffs / lead))
    residual, scale = _identity_residual(terms, gamma)
    if residual > IDENTITY_RTOL * scale:
        return "stabilization identity residual"
    if _spectral_radius(gamma) >= 1.0:
        return "gamma has a root on or outside the unit circle"
    return None


def check_conversion(den: Polynomial, num: Polynomial, pre, conv) -> str | None:
    """Why a ``convert_controller`` result is wrong, or None.

    The converted denominator is gamma, exactly integer and monic;
    deg(beta) < deg(gamma) - deg(den); ``alpha*pre.den + beta*num = gamma``;
    and the cancelled factor alpha has its roots inside the unit circle.
    """
    if not conv.certificate.passed:
        return "certificate"
    alpha, beta, gamma = conv.alpha.coeffs, conv.beta.coeffs, conv.gamma.coeffs
    if not np.array_equal(conv.den.coeffs, gamma):
        return "converted denominator differs from gamma"
    if not _is_integer_monic(gamma):
        return "gamma is not exactly integer monic"
    if _deg(beta) >= _deg(gamma) - _deg(den.coeffs):
        return "deg(beta) >= deg(gamma) - n"
    terms = [npoly.polymul(alpha, pre.den.coeffs)]
    if beta.size:
        terms.append(npoly.polymul(beta, num.coeffs))
    residual, scale = _identity_residual(terms, gamma)
    if residual > IDENTITY_RTOL * scale:
        return "conversion identity residual"
    if _spectral_radius(alpha) >= 1.0:
        return "alpha has a root on or outside the unit circle"
    return None


def _rng(seed: int) -> np.random.Generator:
    # default_rng rejects negative seeds; any integer is a valid run seed
    return np.random.default_rng(abs(seed))


def _descending(p: Polynomial) -> tuple:
    return tuple(p.coeffs[::-1])


def _roots_arg(roots) -> str:
    return ",".join(f"{r.real!r}{r.imag:+}j" for r in roots)


class Pendulum:
    """The paper's fixtures: API stabilize, API convert, then both via the
    CLI in-process.  One pass is one round of the four calls."""

    warm_up_passes = 30
    expect_all_ok = True

    def __init__(self, seed: int, workdir: Path):
        del seed  # the fixtures are fixed; the seed selects nothing here
        self.den, self.num = pendulum_plant()
        self.pre = pendulum_pre_controller()
        self.stab_cfg = stabilizer.StabilizationConfig(
            gamma_ini_roots=PENDULUM_GAMMA_INI_ROOTS)
        self.conv_cfg = converter.ConversionConfig(
            alpha_ini_roots=CONVERSION_ALPHA_INI_ROOTS)
        self.cli_out = {"stabilize": workdir / "stabilize.json",
                        "convert": workdir / "convert.json"}
        self.cli_argv = {
            "stabilize": ["stabilize", str(fixture_path("pendulum.json")),
                          "--gamma-ini-roots=" + _roots_arg(PENDULUM_GAMMA_INI_ROOTS),
                          "--out", str(self.cli_out["stabilize"])],
            "convert": ["convert", str(fixture_path("pendulum_conversion.json")),
                        "--alpha-ini-roots=" + _roots_arg(CONVERSION_ALPHA_INI_ROOTS),
                        "--out", str(self.cli_out["convert"])],
        }
        self.ledger = Ledger()
        self.pace = Pace()

    def run_pass(self, tracer) -> PassResult:
        outcomes = []
        with clock_ms() as t_stab:
            try:
                res = stabilizer.run_algorithm1(self.den, self.num, self.stab_cfg)
            except Exception as exc:  # an outcome to count, not a crash
                res = exc
        outcomes.append(self._stabilized(res, tracer))

        with clock_ms() as t_conv:
            try:
                conv = converter.convert_controller(self.pre, self.den, self.num,
                                                    self.conv_cfg)
            except Exception as exc:
                conv = exc
        outcomes.append(self._converted(conv, tracer))

        with clock_ms() as t_cli:
            codes = {cmd: cli.main(argv) for cmd, argv in self.cli_argv.items()}
        ref = self.pace.sample()
        for cmd, expected in (("stabilize", STABILIZE_DEN),
                              ("convert", CONVERT_DEN)):
            outcomes.append(self._cli(cmd, codes[cmd], expected))

        parts = {"stabilize_ms": [t_stab.ms], "convert_ms": [t_conv.ms],
                 "cli_ms": [t_cli.ms]}
        return PassResult([t_stab.ms + t_conv.ms + t_cli.ms], [ref], 1,
                          outcomes, parts)

    def _stabilized(self, res, tracer) -> str:
        if isinstance(res, Exception):
            return self.ledger.raised("stabilize", res, tracer)

        def check():
            if _descending(res.alpha) != STABILIZE_DEN:
                return "stabilize denominator differs from the recorded one"
            return check_stabilization(self.den, self.num, res)

        return self.ledger.judge(
            "stabilize", _signature(res.alpha, res.beta, res.gamma), check)

    def _converted(self, conv, tracer) -> str:
        if isinstance(conv, Exception):
            return self.ledger.raised("convert", conv, tracer)

        def check():
            if _descending(conv.den) != CONVERT_DEN:
                return "convert denominator differs from the recorded one"
            return check_conversion(self.den, self.num, self.pre, conv)

        return self.ledger.judge(
            "convert", _signature(conv.alpha, conv.beta, conv.gamma), check)

    def _cli(self, cmd: str, code: int, expected: tuple) -> str:
        if code != 0:
            return self.ledger.judge("cli." + cmd, code,
                                     lambda: f"cli {cmd} exit code {code}")
        text = self.cli_out[cmd].read_bytes()

        def check():
            payload = json.loads(text)
            if not payload["certificate"]["passed"]:
                return "certificate"
            if tuple(payload["controller"]["den"]) != expected:
                return f"cli {cmd} denominator differs from the recorded one"
            return None

        return self.ledger.judge("cli." + cmd, text, check)

    def summary(self, results: list[PassResult]) -> tuple[list[float], int]:
        """Round latencies in ref_ms and the rounds they did."""
        return rounds_ref_ms(self.pace, results), len(results)

    def report(self, results: list[PassResult]) -> list[tuple]:
        note = f"all {len(results)} rounds"
        rows = [("latency_p90", percentile(self.summary(results)[0], 90),
                 "ref_ms", "lower", note)]
        for key, pcts in (("stabilize_ms", (50, 90)), ("convert_ms", (50, 90)),
                          ("cli_ms", (50,))):
            values = [v for r in results for v in r.parts[key]]
            rows += [(f"{key}_p{q}", percentile(values, q), "ms", "lower", note)
                     for q in pcts]
        return rows


class RandomSweep:
    """The unfiltered fixed-seed sweep: ``run_algorithm1`` with the default
    configuration on every plant.  One pass solves all plants once, in an
    order drawn from the seed."""

    warm_up_passes = 1
    expect_all_ok = False

    def __init__(self, seed: int, workdir: Path):
        del workdir
        raw = plants.sweep_plants()
        self.plants = [(Polynomial(den), Polynomial(num)) for den, num in raw]
        self.order = _rng(seed).permutation(len(raw)).tolist()
        self.ledger = Ledger()
        self.pace = Pace()

    def run_pass(self, tracer) -> PassResult:
        latency, ref = [], []
        outcomes = [""] * len(self.plants)
        for i in self.order:
            den, num = self.plants[i]
            with clock_ms() as t:
                try:
                    res = stabilizer.run_algorithm1(den, num)
                except Exception as exc:  # a failed synthesis is an outcome
                    res = exc
            latency.append(t.ms)
            ref.append(self.pace.sample())
            outcomes[i] = self._outcome(i, den, num, res, tracer)
        return PassResult(latency, ref, len(self.plants), outcomes, {})

    def _outcome(self, i, den, num, res, tracer) -> str:
        if isinstance(res, Exception):
            return self.ledger.raised(str(i), res, tracer)
        return self.ledger.judge(
            str(i), _signature(res.alpha, res.beta, res.gamma),
            lambda: check_stabilization(den, num, res))

    def certified_by_order(self, result: PassResult) -> dict[int, tuple[int, int]]:
        """Plant order -> (certified and checked, attempted) in one pass."""
        tally: dict[int, list[int]] = {}
        for (den, _), outcome in zip(self.plants, result.outcomes):
            counts = tally.setdefault(den.coeffs.size - 1, [0, 0])
            counts[0] += outcome == OK
            counts[1] += 1
        return {k: tuple(v) for k, v in sorted(tally.items())}

    def summary(self, results: list[PassResult]) -> tuple[list[float], int]:
        """Each plant's median solve in ref_ms over the passes (the passes
        solve the plants in the same order), and the plant count."""
        solves = zip(*([self.pace.ref_ms(ms, i) for ms, i in zip(r.latency_ms, r.ref)]
                       for r in results))
        return [statistics.median(s) for s in solves], len(self.plants)

    def report(self, results: list[PassResult]) -> list[tuple]:
        solve, plants = self.summary(results)
        note = f"{plants} plants, median of {len(results)} passes"
        certified = " ".join(
            f"n={k}:{ok}/{total}"
            for k, (ok, total) in self.certified_by_order(results[0]).items())
        wall = [statistics.median(t) for t in zip(*(r.latency_ms for r in results))]
        pass_s = statistics.median(sum(r.latency_ms) for r in results) / 1e3
        wall_note = f"wall clock, {note}"
        return [
            ("latency_p90", percentile(solve, 90), "ref_ms", "lower", note),
            ("solve_p98", percentile(solve, 98), "ref_ms", "lower", note),
            ("solve_max", max(solve), "ref_ms", "lower", note),
            ("solve_ms_p50", percentile(wall, 50), "ms", "lower", wall_note),
            ("solve_ms_p98", percentile(wall, 98), "ms", "lower", wall_note),
            ("solve_ms_max", max(wall), "ms", "lower", wall_note),
            ("plants_per_s", plants / pass_s, "1/s", "higher",
             "wall clock, median pass"),
            ("certified_by_order", certified, "", "higher", "first pass"),
        ]


class PendulumSim:
    """Closed-loop simulation of the stabilized loop (8-state controller),
    the converted loop (27-state controller) and the stabilized controller
    with its feedback sign flipped, which must be flagged as diverged.
    Realizations are built in set-up; one pass runs the three loops."""

    warm_up_passes = 5
    expect_all_ok = True
    HORIZON = 1000

    def __init__(self, seed: int, workdir: Path):
        del workdir
        den, num = pendulum_plant()
        stab = stabilizer.run_algorithm1(den, num, stabilizer.StabilizationConfig(
            gamma_ini_roots=PENDULUM_GAMMA_INI_ROOTS))
        conv = converter.convert_controller(
            pendulum_pre_controller(), den, num,
            converter.ConversionConfig(alpha_ini_roots=CONVERSION_ALPHA_INI_ROOTS))
        loop = verify.closed_loop_poly(den, num, stab.controller_den,
                                       stab.controller_num)
        # static prefilter giving the stabilized loop unit DC gain r -> y
        prefilter = Polynomial([loop(1.0).real / num(1.0).real])
        plant = sim.realize_tf(RationalTF(num, den))
        refs = _rng(seed).uniform(0.5, 2.5, size=3)
        self.loops = (
            ("stabilized", plant, sim.realize_controller(
                stab.controller_den, stab.controller_num, prefilter), refs[0], True),
            ("converted", plant, sim.realize_controller(
                conv.den, conv.num_y, conv.num_r), refs[1], True),
            ("sign-flipped", plant, sim.realize_controller(
                stab.controller_den, -stab.controller_num, prefilter), refs[2], False),
        )
        self.ledger = Ledger()
        # the simulator is a loop of small matrix-vector products; a kernel
        # weighted toward them follows its pace most closely
        self.pace = Pace(matvec_steps=150, dict_steps=500, text_values=0)

    def run_pass(self, tracer) -> PassResult:
        total_ms = 0.0
        steps = 0
        outcomes = []
        for name, plant, ctrl, ref, stable in self.loops:
            with clock_ms() as t:
                try:
                    res = sim.simulate_loop(plant, ctrl, float(ref), self.HORIZON)
                except Exception as exc:
                    res = exc
            total_ms += t.ms
            if isinstance(res, Exception):
                outcomes.append(self.ledger.raised(name, res, tracer))
                continue
            steps += res.steps
            outcomes.append(self.ledger.judge(
                name, (res.steps, res.diverged, res.y.tobytes()),
                lambda: self._check(name, res, ref, stable)))
        return PassResult([total_ms], [self.pace.sample()], steps, outcomes, {})

    def _check(self, name, res, ref, stable) -> str | None:
        if not stable:
            if res.diverged and res.steps < self.HORIZON:
                return None
            return f"{name} loop was not flagged as diverged"
        if res.diverged or res.steps != self.HORIZON:
            return f"{name} loop diverged"
        tail = res.y[3 * self.HORIZON // 4:]
        if np.max(np.abs(tail - ref)) > 1e-3 * max(1.0, abs(ref)):
            return f"{name} loop did not settle to the reference"
        return None

    def summary(self, results: list[PassResult]) -> tuple[list[float], int]:
        """Round latencies in ref_ms and the steps they simulated."""
        return rounds_ref_ms(self.pace, results), sum(r.work for r in results)

    def report(self, results: list[PassResult]) -> list[tuple]:
        return [
            ("latency_p90", percentile(self.summary(results)[0], 90),
             "ref_ms", "lower", f"all {len(results)} rounds"),
            ("sim_steps_per_s", sum(r.work for r in results)
             / (sum(sum(r.latency_ms) for r in results) / 1e3),
             "1/s", "higher", "wall clock, all rounds"),
        ]


WORKLOADS = {"pendulum": Pendulum, "random-sweep": RandomSweep,
             "pendulum-sim": PendulumSim}
