import os
import subprocess
import sys
from pathlib import Path

import pytest


def test_perfbench_checks_self_test_passes():
    # the benchmark's checks reject each perturbed value; the self-test
    # runs random_mould and projection_sum, so it follows their definitions
    pytest.importorskip("sympy")
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([sys.executable, "perfbench/checks.py"], cwd=root, env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stdout + out.stderr
