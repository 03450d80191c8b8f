"""The seed-7 sweep's outcomes do not depend on the BLAS thread count.

Each run is a fresh interpreter, since OpenBLAS reads its thread count when
numpy loads.  The digest covers every returned polynomial and certificate,
and every exception's class and message, of the stabilizing synthesis and
of a conversion per plant (a random real controller denominator of degree
n - 1).
"""
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

SWEEP_DIGEST = """
import hashlib
import numpy as np
from conftest import random_plant
from intctrl import Polynomial, run_algorithm1
from intctrl.converter import run_algorithm2

# the plants and designs of conftest's sweep_plant and sweep_conversion
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
        for poly in (out.alpha, out.beta, out.gamma):
            digest.update(poly.coeffs.tobytes())
        digest.update(repr(getattr(out, "certificate", None)).encode())
print(digest.hexdigest())
"""


def _sweep_digest(threads):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    done = subprocess.run([sys.executable, "-c", SWEEP_DIGEST], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout


def test_sweep_digest_is_the_same_at_one_and_two_blas_threads():
    assert _sweep_digest("1") == _sweep_digest("2")
