"""Each CLI command, run in a fresh interpreter, loads only the isocenter
modules it runs and imports nothing from outside the standard library: the
package has no runtime dependencies.  The exact commands load neither
``dataclasses`` (which imports ``inspect``, ``ast`` and ``dis``) nor
``fractions``, and ``scan-periods`` does not load ``fractions``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
FIELDS = Path(__file__).resolve().parent / "golden" / "fields"

# runs one command, then prints as its last line the modules loaded since the
# probe started, so not those that the host's site loads into every interpreter
PROBE = """
import json, sys
before = set(sys.modules)

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
print(json.dumps(sorted(set(sys.modules) - before)))
"""

NUMERICAL = {"numverify", "dop853"}
EXACT_WORDS = {"prenormal", "lie_analysis"}
WATCHED = {"dataclasses", "inspect", "fractions"}


def loaded_modules(args) -> tuple[set, set]:
    """The isocenter modules that one command loads, and the other modules."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *args, "--format", "json"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    package = {m.split(".")[1] for m in loaded if m.startswith("isocenter.")}
    return package, {m for m in loaded if not m.startswith("isocenter")}


@pytest.mark.parametrize(
    "args,absent,watched_absent",
    [
        (["complexity", "--condition", "UI", "--degree", "5"],
         EXACT_WORDS | NUMERICAL | {"lemmas", "algebra", "prepared", "operators"}, WATCHED),
        (["classify", "--input", str(FIELDS / "uniform.json")],
         EXACT_WORDS | NUMERICAL | {"lemmas", "operators"}, WATCHED),
        (["classify", "--input", os.devnull],
         EXACT_WORDS | NUMERICAL | {"lemmas", "conditions", "operators"}, WATCHED),
        # numverify keeps its dataclasses
        (["scan-periods", "--input", str(FIELDS / "uniform.json")],
         EXACT_WORDS | {"lemmas", "conditions", "operators"}, {"fractions"}),
        (["analyze", "--input", str(FIELDS / "cubic.json"), "--max-word-length", "3"], NUMERICAL, WATCHED),
        (["verify-lemmas"], NUMERICAL, WATCHED),
    ],
    ids=["complexity", "classify", "classify-malformed", "scan-periods", "analyze", "verify-lemmas"],
)
def test_command_loads_only_what_it_runs(args, absent, watched_absent):
    package, others = loaded_modules(args)
    assert "cli" in package
    assert package & absent == set()
    assert others & watched_absent == set()
