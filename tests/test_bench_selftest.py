"""The benchmark's coupling to the package, checked by the package's suite.

``bench/selftest.py`` stays out of this suite because its sweep-baseline
test pins an outcome that a more robust synthesis moves.  Three of its
checks must hold on every change: the sweep generator's data, that every
function ``bench/tracing.py`` wraps by name is still looked up by the
module that calls it (a rename would make its layer read zero), and that
the declared metrics match ``BENCHMARK.json``.  They run in a fresh process
from the repository root, since importing ``bench/run.py`` pins the BLAS
threads and puts ``src/`` on the path.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHECKS = ("test_generator_counts_and_digest",
          "test_wrapped_names_exist_where_called",
          "test_declared_metrics_match_benchmark_json")


def test_benchmark_name_coupling_holds():
    script = "; ".join(["import sys", "sys.path.insert(0, 'bench')",
                        "import selftest"]
                       + [f"selftest.{name}()" for name in CHECKS])
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
