"""Command-line interface: stabilize, convert, analyze, simulate.

Exit codes: 0 success (and certificate pass), 2 input validation error
or a file that cannot be read or written (one stderr line naming it; an
output path is checked before the work), 3 synthesis failure (a
numerical breakdown included), 4 certificate failure.  ``stabilize``,
``convert`` and ``analyze`` write their result JSON whenever a
certificate was made, and exit 4 when it fails; a certificate's root
finding that breaks down fails its condition, with a warning.  The
closed-loop spectral radius that ``analyze`` reports for information is
written as null when its root finding breaks down, with a warning;
``stabilize`` reports none, since its loop is the plant's leading
coefficient times ``z^shift * gamma``, which the certificate proves Schur
from its factors.  Result JSON is byte-stable across runs for identical
inputs and flags: ``json.dumps(payload, indent=2, sort_keys=True)`` and a
newline, which ``--out`` overwrites in place.
"""
from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import stat
import sys
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .bezout import coprime_check
from .converter import ConversionConfig, PreController, convert_controller
from .numeric import RootFindingError, poly_roots, schur_check
from .poly import Polynomial, RationalTF
from .sim import realize_controller, realize_tf, simulate_loop, write_trajectory_csv
from .stabilizer import (StabilizationConfig, SteeringConfig, SynthesisError,
                         run_algorithm1)
from .target import InconsistentActiveSetError, TargetSearchError
from .verify import certify_conversion, certify_stabilization, closed_loop_poly

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SYNTHESIS = 3
EXIT_CERTIFICATE = 4

#: the polynomial fields of each problem-file block, in the order a command
#: takes them, each with whether it may be the zero polynomial
_BLOCKS = {
    "plant": {"den": False, "num": False},
    "controller": {"den": False, "num_y": True, "num_r": True},
    "solution": {"alpha": False, "beta": True, "gamma": False},
}
_KNOWN_TOP_KEYS = {*_BLOCKS, "ordering", "name", "notes"}
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_CONSTANTS = {None: "null", True: "true", False: "false"}

#: errors a command reports as a synthesis failure: numerical breakdowns.
#: An inconsistent active set and a singular or failed LAPACK call subclass
#: ValueError, so main tests them before the validation errors (exit 2),
#: NotCoprimeError among those
_SYNTHESIS_ERRORS = (SynthesisError, TargetSearchError, RootFindingError,
                     InconsistentActiveSetError, np.linalg.LinAlgError)


class ProblemFileError(ValueError):
    pass


def _poly_from(data, field: str, ordering: str, allow_zero=False) -> Polynomial:
    # json reads true as a number and NaN, Infinity and 1e400 as floats
    if not isinstance(data, list) or not all(type(c) in (int, float) for c in data):
        raise ProblemFileError(f"field '{field}': expected a list of numbers")
    try:
        finite = all(math.isfinite(c) for c in data)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise ProblemFileError(f"field '{field}': coefficients must be finite")
    coeffs = data[::-1] if ordering == "descending" else data
    p = Polynomial(coeffs)
    if p.is_zero and not allow_zero:
        raise ProblemFileError(f"field '{field}': polynomial is zero")
    return p


def _block(raw: dict, name: str, ordering: str) -> tuple[Polynomial, ...]:
    """The polynomials of block ``name``, in the order of ``_BLOCKS``.  The
    block holds exactly its fields; ``solution`` may also carry the
    ``power_shift`` that ``stabilize`` writes, which nothing reads."""
    block, fields = raw[name], _BLOCKS[name]
    extra = ["power_shift"] if name == "solution" else []
    if not (isinstance(block, dict) and fields.keys() <= block.keys() <= {*fields, *extra}):
        optional = f", optionally {extra}" if extra else ""
        raise ProblemFileError(f"field '{name}': expected exactly the keys "
                               f"{sorted(fields)}{optional}")
    return tuple(_poly_from(block[k], f"{name}.{k}", ordering, allow_zero)
                 for k, allow_zero in fields.items())


def _poly_out(p: Polynomial, ordering: str) -> list[float]:
    coeffs = p.coeffs.tolist()
    return coeffs[::-1] if ordering == "descending" else coeffs


def _block_out(name: str, polys, ordering: str) -> dict:
    """Block ``name`` as :func:`_block` reads it back: ``polys`` in the order
    of ``_BLOCKS``."""
    return {k: _poly_out(p, ordering) for k, p in zip(_BLOCKS[name], polys)}


def parse_problem_file(path: str) -> dict:
    """Load and validate a problem description.

    Schema: ``{"plant": {"den": [...], "num": [...]},
    "controller": {"den": [...], "num_y": [...], "num_r": [...]},
    "solution": {"alpha": [...], "beta": [...], "gamma": [...]},
    "ordering": "descending"|"ascending"}`` with optional name/notes; each
    block holds exactly its fields (see :func:`_block`), and controller and
    solution blocks are required only by the commands that consume them.
    Coefficient lists honor the ordering field (descending matches the way
    polynomials are usually written out).
    """
    try:
        with open(path) as fp:
            raw = json.loads(fp.read())
    except OSError as exc:
        raise ProblemFileError(f"cannot read problem file {path}: {exc.strerror}")
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ProblemFileError(f"invalid JSON in {path}: {exc}")
    if not isinstance(raw, dict):
        raise ProblemFileError("problem file must hold a JSON object")
    unknown = set(raw) - _KNOWN_TOP_KEYS
    if unknown:
        raise ProblemFileError(f"unknown field(s) {sorted(unknown)}; expected "
                               f"{sorted(_KNOWN_TOP_KEYS)}")
    ordering = raw.get("ordering", "descending")
    if ordering not in ("descending", "ascending"):
        raise ProblemFileError(
            f"field 'ordering': expected 'descending' or 'ascending', got {ordering!r}")
    out: dict = {"ordering": ordering}

    if "plant" not in raw:
        raise ProblemFileError("field 'plant': missing")
    den, num = _block(raw, "plant", ordering)
    if num.coeffs.size > den.coeffs.size:
        raise ProblemFileError(
            f"field 'plant': improper plant (deg(num) = {num.coeffs.size - 1} "
            f"> deg(den) = {den.coeffs.size - 1})")
    ok, quality = coprime_check(den, num)
    if not ok:
        shared = _shared_roots(den, num)
        raise ProblemFileError(
            f"field 'plant': den and num are not coprime (quality {quality:.3e}"
            + (f"; shared root(s) near {shared}" if shared else "") + ")")
    out["plant"] = (den, num)

    if "controller" in raw:
        out["controller"] = PreController(*_block(raw, "controller", ordering))
    if "solution" in raw:
        out["solution"] = _block(raw, "solution", ordering)
    return out


def _shared_roots(a: Polynomial, b: Polynomial) -> list[str]:
    if a.coeffs.size < 2 or b.coeffs.size < 2:
        return []
    try:
        ra, rb = poly_roots(a), poly_roots(b)
    except (RootFindingError, np.linalg.LinAlgError):  # the hint is best effort
        return []
    shared = []
    for r in ra:
        if np.min(np.abs(rb - r)) < 1e-6 * (1 + abs(r)):
            shared.append(f"{complex(r):.6g}")
    return shared


def _parse_complex_list(text: str) -> tuple[complex, ...]:
    try:
        # only a trailing imaginary unit is rewritten: "inf" keeps its i
        return tuple(complex(tok[:-1] + "j" if tok.endswith("i") else tok)
                     for tok in map(str.strip, text.split(",")) if tok)
    except ValueError as exc:
        raise ProblemFileError(f"cannot parse root list {text!r}: {exc}")


def _json(o, pad: str = "") -> str:
    """``json.dumps(o, indent=2, sort_keys=True)`` for ``o`` nested at ``pad``,
    without the pure-Python encoder that ``json`` indents with; keys are str."""
    if isinstance(o, str):
        return _quote(o)
    if isinstance(o, float):
        return _NON_FINITE.get(text := float.__repr__(o), text)
    if o is None or o is True or o is False:
        return _CONSTANTS[o]
    if isinstance(o, int):
        return int.__repr__(o)
    if not isinstance(o, (list, tuple, dict)):
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
    if not o:
        return "{}" if isinstance(o, dict) else "[]"
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(o, dict):
        body = sep.join([_quote(k) + ": " + _json(v, inner)
                         for k, v in sorted(o.items())])
        return "{\n" + inner + body + "\n" + pad + "}"
    try:  # float.__repr__ refuses a non-float; only nan and inf spell an "n"
        body = sep.join(map(float.__repr__, o))
    except TypeError:
        body = "n"
    if "n" in body:
        body = sep.join([_json(v, inner) for v in o])
    return "[\n" + inner + body + "\n" + pad + "]"


def _emit(payload: dict, out: str | None) -> None:
    text = _json(payload) + "\n"
    if out:  # in place: truncating first can cost more than the write
        with open(os.open(out, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fp:
            fp.write(text.encode())
            if stat.S_ISREG(os.fstat(fp.fileno()).st_mode):  # not /dev/null
                fp.truncate()
    else:
        sys.stdout.write(text)


def _emit_certified(payload: dict, out: str | None, cert) -> int:
    """Write a synthesis result; a failed certificate still writes it, then
    exits 4."""
    _emit(payload, out)
    if not cert.passed:
        print("certificate failed", file=sys.stderr)
        return EXIT_CERTIFICATE
    return EXIT_OK


def _spectral_radius(cl: Polynomial) -> tuple[float | None, list[str]]:
    """Spectral radius of a closed loop, reported for information only: when
    its root finding breaks down, None and a warning quoting why."""
    try:
        return schur_check(cl).spectral_radius, []
    except (RootFindingError, np.linalg.LinAlgError) as exc:
        return None, [f"closed-loop spectral radius not computed: {exc}"]


def _trace_out(trace) -> list[dict]:
    return [{**s._asdict(), "x": s.x.tolist(), "u": s.u.tolist()} for s in trace]


def _cmd_stabilize(args) -> int:
    problem = parse_problem_file(args.problem)
    den, num = problem["plant"]
    ordering = problem["ordering"]
    roots = _parse_complex_list(args.gamma_ini_roots) if args.gamma_ini_roots else None
    cfg = StabilizationConfig(gamma_ini_roots=roots, mu=args.mu)
    result = run_algorithm1(den, num, cfg)
    payload = {
        "command": "stabilize",
        "ordering": ordering,
        "controller": {
            "den": _poly_out(result.controller_den, ordering),
            "num": _poly_out(result.controller_num, ordering),
        },
        "solution": {**_block_out("solution", (result.alpha, result.beta,
                                               result.gamma), ordering),
                     "power_shift": result.power_shift},
        "x_star": result.x_star.tolist(),
        "iterations": result.iterations,
        "trace": _trace_out(result.trace),
        "certificate": result.certificate.to_dict(),
        "warnings": list(result.warnings),
    }
    return _emit_certified(payload, args.out, result.certificate)


def _cmd_convert(args) -> int:
    problem = parse_problem_file(args.problem)
    if "controller" not in problem:
        raise ProblemFileError("convert requires a 'controller' block")
    den, num = problem["plant"]
    pre = problem["controller"]
    ordering = problem["ordering"]
    roots = _parse_complex_list(args.alpha_ini_roots) if args.alpha_ini_roots else None
    cfg = ConversionConfig(alpha_ini_roots=roots, mu=args.mu)
    conv = convert_controller(pre, den, num, cfg)
    payload = {
        "command": "convert",
        "ordering": ordering,
        "controller": _block_out("controller", (conv.den, conv.num_y,
                                                conv.num_r), ordering),
        "solution": _block_out("solution", (conv.alpha, conv.beta, conv.gamma),
                               ordering),
        "certificate": conv.certificate.to_dict(),
        "warnings": list(conv.certificate.warnings),
    }
    cert = conv.certificate
    if args.verify:
        cert = certify_conversion(den, num, pre, conv)
        cert.warnings = list(dict.fromkeys(cert.warnings + conv.certificate.warnings))
        payload["certificate"] = cert.to_dict()
    return _emit_certified(payload, args.out, cert)


def _cmd_analyze(args) -> int:
    problem = parse_problem_file(args.problem)
    if "solution" not in problem:
        raise ProblemFileError("analyze requires a 'solution' block")
    den, num = problem["plant"]
    alpha, beta, gamma = problem["solution"]
    cert = certify_stabilization(den, num, alpha, beta, gamma)
    radius, warnings = _spectral_radius(closed_loop_poly(den, num, alpha, -beta))
    payload = {
        "command": "analyze",
        "ordering": problem["ordering"],
        "certificate": cert.to_dict(),
        "closed_loop": {"spectral_radius": radius},
        "warnings": warnings,
    }
    _emit(payload, args.out)
    return EXIT_OK if cert.passed else EXIT_CERTIFICATE


def _cmd_simulate(args) -> int:
    problem = parse_problem_file(args.problem)
    if "controller" not in problem:
        raise ProblemFileError("simulate requires a 'controller' block")
    den, num = problem["plant"]
    pre = problem["controller"]
    plant_ss = realize_tf(RationalTF(num, den))
    ctrl_ss = realize_controller(pre.den, pre.num_y, pre.num_r)
    result = simulate_loop(plant_ss, ctrl_ss, args.reference, args.steps)
    if args.out_csv:
        with open(args.out_csv, "w") as fp:
            write_trajectory_csv(fp, result)
    payload = {
        "command": "simulate",
        "steps": result.steps,
        "diverged": result.diverged,
        "final_y": float(result.y[-1]) if result.steps else None,
        "final_u": float(result.u[-1]) if result.steps else None,
    }
    _emit(payload, args.out)
    return EXIT_OK


def _add_common(sub, roots: str):
    sub.add_argument("problem", help="problem description JSON file")
    sub.add_argument("--mu", type=float, default=SteeringConfig.mu,
                     help="step-size bound in (0,1), default %(default)s")
    sub.add_argument(f"--{roots}", type=str, default=None,
                     help="comma-separated complex roots, e.g. '0.5,0.1+0.2j'; "
                          "use the --flag=value form when the list starts "
                          "with a dash")
    sub.add_argument("--out", type=str, default=None,
                     help="write result JSON here instead of stdout")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parsing leaves a parser as it was, so one serves every call of main
    parser = argparse.ArgumentParser(
        prog="intctrl",
        description="Integer-denominator controller synthesis and conversion")
    subs = parser.add_subparsers(dest="command", required=True)

    st = subs.add_parser("stabilize", help="synthesize a stabilizing controller "
                         "whose denominator has integer coefficients")
    _add_common(st, "gamma-ini-roots")
    st.set_defaults(func=_cmd_stabilize)

    cv = subs.add_parser("convert", help="convert a pre-designed controller to "
                         "integer coefficients, preserving the closed loop")
    _add_common(cv, "alpha-ini-roots")
    cv.add_argument("--verify", action="store_true",
                    help="recompute the certificate from the emitted polynomials")
    cv.set_defaults(func=_cmd_convert)

    an = subs.add_parser("analyze", help="certify a hand-written solution triple")
    an.add_argument("problem")
    an.add_argument("--out", type=str, default=None)
    an.set_defaults(func=_cmd_analyze)

    si = subs.add_parser("simulate", help="closed-loop simulation")
    si.add_argument("problem")
    si.add_argument("--steps", type=int, default=1000)
    si.add_argument("--reference", type=float, default=0.0)
    si.add_argument("--out-csv", type=str, default=None)
    si.add_argument("--out", type=str, default=None)
    si.set_defaults(func=_cmd_simulate)
    return parser


def _check_writable(path: str) -> None:
    """Raise the error that writing ``path`` would raise, before the work and
    without creating or truncating it: an existing path must be a writable
    non-directory (``/dev/null`` is one), a new one needs an existing,
    writable directory to go in."""
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        parent = os.path.dirname(path) or os.curdir
        if not os.path.isdir(parent):
            raise
        code = 0 if os.access(parent, os.W_OK | os.X_OK) else errno.EACCES
    else:
        code = (errno.EISDIR if stat.S_ISDIR(mode)
                else 0 if os.access(path, os.W_OK) else errno.EACCES)
    if code:
        raise OSError(code, os.strerror(code), path)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        for path in (args.out, getattr(args, "out_csv", None)):
            if path:
                _check_writable(path)
        return args.func(args)
    except _SYNTHESIS_ERRORS as exc:
        print(f"synthesis failed: {exc}", file=sys.stderr)
        return EXIT_SYNTHESIS
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:  # --out or --out-csv, before or while writing
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
