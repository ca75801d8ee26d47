"""Each CLI command, run in a fresh interpreter, loads only the isocenter
modules it runs and imports nothing from outside the standard library: the
package has no runtime dependencies."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
FIELDS = Path(__file__).resolve().parent / "golden" / "fields"

# runs one command, then prints the isocenter modules it loaded as the last line
PROBE = """
import json, sys

class OnlyStandardLibrary:
    def find_spec(self, name, path=None, target=None):
        top = name.partition(".")[0]
        if top != "isocenter" and top not in sys.stdlib_module_names:
            raise ImportError(f"{name} is not in the standard library")

sys.meta_path.insert(0, OnlyStandardLibrary())
from isocenter.cli import main
try:
    main(sys.argv[1:])
except SystemExit:
    pass
print(json.dumps(sorted(m.split(".")[1] for m in sys.modules if m.startswith("isocenter."))))
"""

NUMERICAL = {"numverify", "dop853"}
EXACT_WORDS = {"prenormal", "lie_analysis"}


def loaded_modules(args) -> set:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *args, "--format", "json"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.mark.parametrize(
    "args,absent",
    [
        (["complexity", "--condition", "UI", "--degree", "5"],
         EXACT_WORDS | NUMERICAL | {"lemmas", "algebra", "prepared", "operators"}),
        (["classify", "--input", str(FIELDS / "uniform.json")], EXACT_WORDS | NUMERICAL | {"lemmas"}),
        (["classify", "--input", os.devnull], EXACT_WORDS | NUMERICAL | {"lemmas", "conditions"}),
        (["scan-periods", "--input", str(FIELDS / "uniform.json")], EXACT_WORDS | {"lemmas", "conditions"}),
        (["analyze", "--input", str(FIELDS / "cubic.json"), "--max-word-length", "3"], NUMERICAL),
        (["verify-lemmas"], NUMERICAL),
    ],
    ids=["complexity", "classify", "classify-malformed", "scan-periods", "analyze", "verify-lemmas"],
)
def test_command_loads_only_what_it_runs(args, absent):
    loaded = loaded_modules(args)
    assert "cli" in loaded
    assert loaded & absent == set()
