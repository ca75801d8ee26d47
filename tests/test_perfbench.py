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


def test_resonance_deep_round_passes_its_checks(tmp_path, monkeypatch):
    # one round of the benchmark's exact-path workload on the seed-1
    # fixtures: sympy brackets, DP word counts and verdicts by family
    pytest.importorskip("sympy")
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    import fixtures
    import workloads

    manifest = fixtures.write_all(1, tmp_path)
    wl = workloads.ResonanceDeep(manifest, root, tmp_path)
    outputs = {}
    for name, fn in wl.ops:
        ok, out, _ = fn()
        assert ok, (name, out)
        outputs[name] = out
    assert wl.check(outputs) == []
