"""Digests of intctrl's outputs, to compare two versions of the code bit for
bit.

    PYTHONPATH=src python tests/output_digest.py

prints two lines, ``sweep <sha256>`` and ``pendulum-cli <sha256>``.  The
sweep digest covers the stabilizing synthesis and a conversion of each of
the 600 seed-7 plants of the benchmark's sweep (conftest's ``sweep_plant``
and ``sweep_conversion``): every returned polynomial, integer target,
iteration count, trace step, Schur factor, coprimality quality, warning and
certificate, and every exception's class and message.  The pendulum digest
covers the bytes of the JSON that the CLI writes for the fixtures:
``stabilize`` with the default and with the fixture's initial roots,
``convert`` likewise, and ``analyze`` of the plant with the default
stabilization's solution.

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
from intctrl import Polynomial, cli, run_algorithm1  # noqa: E402
from intctrl.converter import run_algorithm2  # noqa: E402
from intctrl.fixtures import (CONVERSION_ALPHA_INI_ROOTS,  # noqa: E402
                              PENDULUM_GAMMA_INI_ROOTS, fixture_path)


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


def main():
    print("sweep", sweep_digest())
    print("pendulum-cli", pendulum_cli_digest())


if __name__ == "__main__":
    main()
