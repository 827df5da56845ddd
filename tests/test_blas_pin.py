"""`import marble` pins BLAS to one thread unless the user chose a count.

Each case runs in a fresh interpreter with the thread variables removed
from its environment, because the pin only works if numpy has not been
imported yet, and this process imported it long ago.
"""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_fresh(code, **preset):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(preset)
    env["PYTHONPATH"] = SRC
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.split()


def test_import_sets_one_thread():
    out = run_fresh("import os, marble; "
                    f"print(*(os.environ[v] for v in {THREAD_VARS!r}))")
    assert out == ["1", "1", "1"]


def test_user_setting_wins():
    out = run_fresh("import os, marble; "
                    "print(os.environ['OPENBLAS_NUM_THREADS'])",
                    OPENBLAS_NUM_THREADS="3")
    assert out == ["3"]


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc/self/status")
def test_process_runs_one_thread():
    out = run_fresh("import marble, numpy\n"
                    "for line in open('/proc/self/status'):\n"
                    "    if line.startswith('Threads:'):\n"
                    "        print(line.split()[1])")
    assert out == ["1"]
