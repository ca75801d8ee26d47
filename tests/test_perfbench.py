import importlib
import inspect
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


def checked_round(workload, tmp_path, monkeypatch):
    """The check problems of one seed-1 round of a benchmark workload."""
    pytest.importorskip("sympy")
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    import fixtures
    import workloads

    manifest = fixtures.write_all(1, tmp_path)
    wl = workloads.WORKLOADS[workload](manifest, root, tmp_path)
    outputs = {}
    for name, fn in wl.ops:
        ok, out, _ = fn()
        assert ok, (name, out)
        outputs[name] = out
    return wl.check(outputs)


def test_resonance_deep_round_passes_its_checks(tmp_path, monkeypatch):
    # one round of the benchmark's exact-path workload on the seed-1
    # fixtures: sympy brackets, DP word counts and verdicts by family
    assert checked_round("resonance_deep", tmp_path, monkeypatch) == []


def test_mould_sum_round_passes_its_checks(tmp_path, monkeypatch):
    # one round of projection sums on the seed-1 fixtures: random moulds
    # on their own fold, indicator, table and sum moulds on the word fold,
    # checked by sympy brackets, the sum rule and the letter sums
    assert checked_round("mould_sum", tmp_path, monkeypatch) == []


def test_traced_targets_missing_from_the_package_are_the_known_ones(monkeypatch):
    # the tracer skips a target that the package no longer has, and its
    # per-layer metrics then read 0 with no warning: the known missing ones
    # are the walk and pair functions deleted earlier and Derivation.apply,
    # so a refactor that silently zeroes one more metric fails here
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    import tracing

    targets = [*tracing.TIMED, *tracing.COUNTED, *tracing.WALKS, tracing.RHS]
    missing = set()
    for module, path in targets:
        owner = importlib.import_module(f"isocenter.{module}")
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
        if owner is None or inspect.getattr_static(owner, attr, None) is None:
            missing.add(f"{module}.{path}")
    assert len(targets) > 30
    assert missing == {"lie_analysis.pairwise_brackets", "lie_analysis.iter_nested_brackets",
                       "operators.Derivation.apply"}
