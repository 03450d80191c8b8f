"""Digests of intctrl's outputs, to compare two versions of the code bit for
bit.

    PYTHONPATH=src python tests/output_digest.py

prints three lines, ``sweep <sha256>``, ``pendulum-cli <sha256>`` and
``pendulum-sim <sha256>``.  The sweep digest covers the stabilizing synthesis and a conversion of each of
the 600 seed-7 plants of the benchmark's sweep (conftest's ``sweep_plant``
and ``sweep_conversion``): every returned polynomial, integer target,
iteration count, trace step, Schur factor, coprimality quality, warning and
certificate, and every exception's class and message.  The pendulum digest
covers the bytes of the JSON that the CLI writes for the fixtures:
``stabilize`` with the default and with the fixture's initial roots,
``convert`` likewise, and ``analyze`` of the plant with the default
stabilization's solution.  The simulator digest covers the JSON and the
``--out-csv`` bytes of the CLI's ``simulate`` of the conversion fixture, at
500 steps and reference 1.0 and at 1000 steps and reference 0.0, and the
realizations, ``y``, ``u``, ``steps`` and ``diverged`` of the benchmark's
three pendulum loops (``bench/workloads.py``'s ``PendulumSim`` at seed 1):
the stabilized and the converted loop and the sign-flipped one.

``intctrl`` is imported from the path, so one copy of this script digests
any checkout: point PYTHONPATH at that checkout's ``src``.  Float bits can
depend on the CPU and the BLAS, so a digest is only compared with one taken
on the same machine.
"""
import hashlib
import json
import sys
import tempfile
from pathlib import Path

# the plant generator is the suite's own, next to this file; conftest pins
# one BLAS thread unless the environment sets the count
sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import random_plant  # noqa: E402
import numpy as np  # noqa: E402
from intctrl import (ConversionConfig, Polynomial, RationalTF,  # noqa: E402
                     StabilizationConfig, cli, closed_loop_poly,
                     convert_controller, realize_controller, realize_tf,
                     run_algorithm1, simulate_loop)
from intctrl.converter import run_algorithm2  # noqa: E402
from intctrl.fixtures import (CONVERSION_ALPHA_INI_ROOTS,  # noqa: E402
                              PENDULUM_GAMMA_INI_ROOTS, fixture_path,
                              pendulum_plant, pendulum_pre_controller)


def _update(digest, value):
    """Feed one output into the digest: arrays by dtype, shape and bytes,
    polynomials by their coefficients, anything else by its repr."""
    if isinstance(value, np.ndarray):
        digest.update(f"{value.dtype.str}{value.shape}".encode())
        digest.update(value.tobytes())
    elif isinstance(value, Polynomial):
        _update(digest, value.coeffs)
    elif isinstance(value, tuple):
        digest.update(f"{type(value).__name__}({len(value)})".encode())
        for item in value:
            _update(digest, item)
    else:
        digest.update(f"{type(value).__name__}:{value!r}".encode())


def sweep_digest() -> str:
    plants, roots = np.random.default_rng(7), np.random.default_rng(99)
    digest = hashlib.sha256()
    for _ in range(600):
        den, num = random_plant(plants, n_max=8)
        n = den.coeffs.size - 1
        ctrl_den = Polynomial.from_roots(list(roots.uniform(-1.2, 1.2, n - 1)))
        for run in (lambda: run_algorithm1(den, num),
                    lambda: run_algorithm2(ctrl_den, num, n)):
            try:
                out = run()
            except Exception as exc:
                digest.update(f"{type(exc).__name__}: {exc}".encode())
                continue
            for name in ("alpha", "beta", "gamma", "x_star", "iterations",
                         "trace", "warnings", "factors", "quality"):
                _update(digest, getattr(out, name, None))
            _update(digest, getattr(out, "certificate", None))
    return digest.hexdigest()


def _roots_arg(roots) -> str:
    return ",".join(f"{r.real!r}{r.imag:+}j" for r in roots)


def pendulum_cli_digest() -> str:
    stabilize, convert = (str(fixture_path(name)) for name in
                          ("pendulum.json", "pendulum_conversion.json"))
    runs = {
        "stabilize": ["stabilize", stabilize],
        "stabilize-roots": ["stabilize", stabilize, "--gamma-ini-roots="
                            + _roots_arg(PENDULUM_GAMMA_INI_ROOTS)],
        "convert": ["convert", convert],
        "convert-roots": ["convert", convert, "--alpha-ini-roots="
                          + _roots_arg(CONVERSION_ALPHA_INI_ROOTS)],
    }
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, argv in runs.items():
            code = cli.main(argv + ["--out", str(tmp / f"{name}.json")])
            digest.update(f"{name} {code}\n".encode())
            digest.update((tmp / f"{name}.json").read_bytes())
        # analyze the plant with the default stabilization's solution
        plant = json.loads(Path(stabilize).read_text())
        result = json.loads((tmp / "stabilize.json").read_text())
        (tmp / "analyze-in.json").write_text(json.dumps(
            {"plant": plant["plant"], "ordering": result["ordering"],
             "solution": result["solution"]}))
        code = cli.main(["analyze", str(tmp / "analyze-in.json"),
                         "--out", str(tmp / "analyze.json")])
        digest.update(f"analyze {code}\n".encode())
        digest.update((tmp / "analyze.json").read_bytes())
    return digest.hexdigest()


def pendulum_sim_digest() -> str:
    problem = str(fixture_path("pendulum_conversion.json"))
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for steps, reference in (("500", "1.0"), ("1000", "0.0")):
            out, csv = tmp / f"{steps}.json", tmp / f"{steps}.csv"
            code = cli.main(["simulate", problem, "--steps", steps,
                             "--reference", reference, "--out", str(out),
                             "--out-csv", str(csv)])
            digest.update(f"simulate {steps} {reference} {code}\n".encode())
            digest.update(out.read_bytes())
            digest.update(csv.read_bytes())
    # the loops as the benchmark's pendulum-sim workload builds them
    den, num = pendulum_plant()
    stab = run_algorithm1(den, num, StabilizationConfig(
        gamma_ini_roots=PENDULUM_GAMMA_INI_ROOTS))
    conv = convert_controller(pendulum_pre_controller(), den, num,
                              ConversionConfig(
                                  alpha_ini_roots=CONVERSION_ALPHA_INI_ROOTS))
    loop = closed_loop_poly(den, num, stab.controller_den, stab.controller_num)
    prefilter = Polynomial([loop(1.0).real / num(1.0).real])
    plant = realize_tf(RationalTF(num, den))
    loops = (
        realize_controller(stab.controller_den, stab.controller_num, prefilter),
        realize_controller(conv.den, conv.num_y, conv.num_r),
        realize_controller(stab.controller_den, -stab.controller_num, prefilter),
    )
    refs = np.random.default_rng(1).uniform(0.5, 2.5, size=3)
    for ss in (plant,) + loops:
        for matrix in (ss.A, ss.B, ss.C, ss.D):
            _update(digest, matrix)
    for ctrl, ref in zip(loops, refs):
        res = simulate_loop(plant, ctrl, float(ref), 1000)
        for value in (res.y, res.u, res.steps, res.diverged):
            _update(digest, value)
    return digest.hexdigest()


def main():
    print("sweep", sweep_digest())
    print("pendulum-cli", pendulum_cli_digest())
    print("pendulum-sim", pendulum_sim_digest())


if __name__ == "__main__":
    main()
