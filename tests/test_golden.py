"""Byte comparison of `--format json` reports against committed output,
and of fresh runs under two hash seeds against each other.

The files under tests/golden/ pin scalar formatting, key order and the
order of resonant words.  A change that alters any of them on purpose
regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and the diff of tests/golden/ shows what moved.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from cli_runner import CliRunner

from isocenter.cli import main

GOLDEN = Path(__file__).parent / "golden"
FIELDS = sorted(p.stem for p in (GOLDEN / "fields").glob("*.json"))


def cases():
    for name in FIELDS:
        field = str(GOLDEN / "fields" / f"{name}.json")
        yield f"analyze-{name}", ["analyze", "--input", field, "--max-word-length", "4"]
        yield f"classify-{name}", ["classify", "--input", field]
        yield f"scan-periods-{name}", ["scan-periods", "--input", field, "--radii", "0.02,0.05"]
    yield "verify-lemmas-seed0", ["verify-lemmas", "--seed", "0"]
    yield "complexity-CR-5", ["complexity", "--condition", "CR", "--degree", "5"]
    yield "complexity-UI-7", ["complexity", "--condition", "UI", "--degree", "7"]


def render(args) -> bytes:
    result = CliRunner().invoke(main, [*args, "--format", "json"])
    assert result.exit_code == 0, result.output
    return result.stdout_bytes


CASES = list(cases())


@pytest.mark.parametrize("name,args", CASES, ids=[name for name, _ in CASES])
def test_json_matches_golden(name, args):
    assert render(args) == (GOLDEN / f"{name}.json").read_bytes()


# no set or dict order may leak into a report: each command, run in fresh
# interpreters under two hash seeds, writes the same bytes
HASH_SEED_CASES = [
    ["analyze", "--input", str(GOLDEN / "fields" / "cubic.json"), "--max-word-length", "5"],
    ["verify-lemmas", "--seed", "3"],
    ["classify", "--input", str(GOLDEN / "fields" / "witness.json")],
]


@pytest.mark.parametrize("args", HASH_SEED_CASES, ids=[args[0] for args in HASH_SEED_CASES])
def test_json_is_identical_across_hash_seeds(args):
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "isocenter.cli", *args, "--format", "json"],
                              env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] and outputs[0] == outputs[1]


if __name__ == "__main__":
    for name, args in CASES:
        (GOLDEN / f"{name}.json").write_bytes(render(args))
