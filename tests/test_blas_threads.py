"""The outputs do not depend on the BLAS thread count.

``output_digest.py`` digests the seed-7 sweep's syntheses and conversions
and the pendulum CLI JSON; it runs here in a fresh interpreter per thread
count, since OpenBLAS reads its thread count when numpy loads.
"""
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def _digests(threads):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    done = subprocess.run([sys.executable, str(TESTS / "output_digest.py")],
                          env=env, capture_output=True, text=True, check=True)
    return done.stdout


def test_sweep_digest_is_the_same_at_one_and_two_blas_threads():
    one = _digests("1")
    assert [line.split()[0] for line in one.splitlines()] == ["sweep",
                                                               "pendulum-cli"]
    assert one == _digests("2")
