"""The benchmark's self-check passes against the package in this checkout.

It traces a real forward pass and expects every layer label in it, so a
change that hides layers from the benchmark's tracer fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selfcheck_passes():
    run = subprocess.run([sys.executable, "perfbench/selfcheck.py"], cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
