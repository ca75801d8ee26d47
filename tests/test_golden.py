"""Byte comparison of `--format json` reports against committed output.

The files under tests/golden/ pin scalar formatting, key order and the
order of resonant words.  A change that alters any of them on purpose
regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and the diff of tests/golden/ shows what moved.
"""

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


if __name__ == "__main__":
    for name, args in CASES:
        (GOLDEN / f"{name}.json").write_bytes(render(args))
