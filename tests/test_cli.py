import json
from pathlib import Path

import pytest
from cli_runner import CliRunner

from isocenter.cli import dumps_report, main
from isocenter.errors import InternalInconsistencyError
from isocenter.operators import Derivation, _apply

FIELDS = Path(__file__).parent / "golden" / "fields"
CUBIC = str(FIELDS / "cubic.json")
UNIFORM = str(FIELDS / "uniform.json")


@pytest.fixture
def runner():
    return CliRunner()


def write_field(tmp_path, name, degree, coeffs, xi_sign="+"):
    obj = {
        "xi_sign": xi_sign,
        "degree": degree,
        "coefficients": [
            {"i": i, "j": j, "value": v} for (i, j), v in coeffs.items()
        ],
    }
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def uniform_field(tmp_path):
    return write_field(tmp_path, "uniform.json", 2, {(2, 0): "1/1+0/1i", (1, 1): "1/1+0/1i"})


@pytest.fixture
def witness_field(tmp_path):
    return write_field(tmp_path, "witness.json", 2, {(2, 0): "1/1+0/1i", (1, 1): "2/1+0/1i"})


@pytest.fixture
def linear_field(tmp_path):
    return write_field(tmp_path, "linear.json", 2, {})


def test_analyze_uniform_text(runner, uniform_field):
    result = runner.invoke(main, ["analyze", "--input", uniform_field])
    assert result.exit_code == 0
    assert "nilpotent_order1: True" in result.output
    assert "resonant letters: none" in result.output
    assert "verdict: LinearisableStructural" in result.output


def test_analyze_witness_printed(runner, witness_field):
    result = runner.invoke(main, ["analyze", "--input", witness_field])
    assert result.exit_code == 0
    assert "nonzero bracket" in result.output


def test_analyze_empty_alphabet(runner, linear_field):
    result = runner.invoke(main, ["analyze", "--input", linear_field, "--format", "json"])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["alphabet"] == []
    assert report["nilpotent_order1"] is True


def test_json_roundtrip_byte_identical(runner, uniform_field):
    result = runner.invoke(main, ["analyze", "--input", uniform_field, "--format", "json"])
    assert result.exit_code == 0
    assert dumps_report(json.loads(result.output)) == result.output


def test_deterministic_output(runner, witness_field):
    args = ["analyze", "--input", witness_field, "--format", "json"]
    out1 = runner.invoke(main, args).output
    out2 = runner.invoke(main, args).output
    assert out1 == out2


def test_classify_command(runner, uniform_field):
    result = runner.invoke(main, ["classify", "--input", uniform_field, "--format", "json"])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["quadratic_conditions"] == ["Q_ii"]
    assert report["uniform"]["holds"] is True
    assert report["cauchy_riemann"]["holds"] is False


def test_complexity_command(runner):
    result = runner.invoke(
        main, ["complexity", "--condition", "UI", "--degree", "5", "--format", "json"]
    )
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert (report["q"], report["m"]) == (7, 1)


def test_scan_periods_linear(runner, linear_field):
    result = runner.invoke(
        main,
        ["scan-periods", "--input", linear_field, "--radii", "0.05,0.1", "--format", "json"],
    )
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["max_rel_spread"] < 1e-10


def test_invalid_input_exit_code(runner, tmp_path):
    missing = str(tmp_path / "absent.json")
    assert runner.invoke(main, ["analyze", "--input", missing]).exit_code == 1
    bad = tmp_path / "bad.json"
    bad.write_text('{"degree": 2, "coefficients": [], "bogus": 1}')
    assert runner.invoke(main, ["analyze", "--input", str(bad)]).exit_code == 1
    assert runner.invoke(main, ["scan-periods", "--input", str(bad)]).exit_code == 1


def test_bad_radii_exit_code(runner, linear_field):
    for radii in ("abc", "nan"):
        result = runner.invoke(
            main, ["scan-periods", "--input", linear_field, "--radii", radii]
        )
        assert result.exit_code == 1
        assert result.stderr.startswith("error:")


def test_verify_lemmas_seed_stability(runner):
    outs = []
    for seed in ("0", "1"):
        result = runner.invoke(
            main, ["verify-lemmas", "--seed", seed, "--format", "json"]
        )
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["all_passed"] is True
        outs.append([r["passed"] for r in report["lemmas"]])
    assert outs[0] == outs[1]


def test_verify_lemmas_mutation_fails(runner, monkeypatch):
    # the anticommutator in place of the commutator: the suites must fail
    def anticommutator(d1, d2):
        x1, y1, x2, y2 = d1.dx, d1.dy, d2.dx, d2.dy
        return Derivation(_apply(x1, y1, x2) + _apply(x2, y2, x1), _apply(x1, y1, y2) + _apply(x2, y2, y1))

    monkeypatch.setattr("isocenter.lemmas.lie_bracket", anticommutator)
    result = runner.invoke(main, ["verify-lemmas"])
    assert result.exit_code == 2
    assert "FAIL fond2" in result.output


def test_scan_periods_non_returning_orbit(runner, tmp_path):
    # the orbit from radius 0.45 escapes: the step size underflows
    path = write_field(tmp_path, "escape.json", 3, {(2, 1): "50/1+0/1i"})
    result = runner.invoke(main, ["scan-periods", "--input", path, "--radii", "0.45"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # handled, no traceback
    assert result.stderr.startswith("error: radius 0.45: integration failed")


def test_scan_periods_tiny_radius(runner):
    # at r0 = 1e-320 the absolute tolerance max(tol, 1e-13) * r0 * 1e-3 underflows to 0
    result = runner.invoke(main, ["scan-periods", "--input", CUBIC, "--radii", "1e-320"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # handled, no traceback
    assert result.stderr.startswith("error: initial radius")


def test_scan_periods_huge_radius(runner):
    # at r0 = 1e100 the initial step size computes to 0
    with pytest.warns(UserWarning, match="exceeds"):
        result = runner.invoke(main, ["scan-periods", "--input", CUBIC, "--radii", "1e100"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # handled, no traceback
    assert "error:" in result.stderr and "Traceback" not in result.output


def test_internal_inconsistency_exit_code(runner, monkeypatch, uniform_field):
    def disagree(f):
        raise InternalInconsistencyError("two routes disagree")

    monkeypatch.setattr("isocenter.conditions.check_uniform", disagree)
    result = runner.invoke(main, ["classify", "--input", uniform_field])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # handled, no traceback
    assert result.stderr == "internal inconsistency: two routes disagree\n"


def test_scan_periods_mirror(runner, tmp_path):
    # xi = -i mirror of a Q_ii field: its orbits run clockwise
    path = write_field(
        tmp_path, "mirror.json", 2, {(2, 0): "1/4-1/8i", (1, 1): "1/4+1/8i"}, xi_sign="-"
    )
    result = runner.invoke(main, ["scan-periods", "--input", path, "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output)["max_rel_spread"] < 1e-8


def test_malformed_value_clean_error(runner, tmp_path):
    path = tmp_path / "int_value.json"
    path.write_text('{"degree": 2, "coefficients": [{"i": 2, "j": 0, "value": 5}]}')
    result = runner.invoke(main, ["classify", "--input", str(path)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # handled, no traceback
    assert "error:" in result.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["complexity", "--condition", "XX", "--degree", "3"],
        ["complexity", "--condition", "CR"],
        ["analyze", "--max-word-length", "abc", "--input", CUBIC],
        ["analyze"],
        ["scan-periods", "--tol", "tiny", "--input", CUBIC],
        ["no-such-command"],
        [],
        ["analyze", "--max", "3", "--input", CUBIC],
        ["analyze", "--input", CUBIC, "--format", "xml"],
        ["analyze", "-h", "--input", CUBIC],
    ],
)
def test_usage_error_is_invalid_input(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # handled, no traceback
    assert result.stderr.startswith("error:")


@pytest.mark.parametrize("args", [["--help"], ["analyze", "--help"], ["verify-lemmas", "--help"]])
def test_help_exits_zero(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    assert "Usage:" in result.output


@pytest.mark.parametrize("max_len", ["0", "-3"])
def test_analyze_rejects_max_word_length_below_one(runner, linear_field, max_len):
    # the empty alphabet skips word enumeration: the verdict checks the bound
    for field in (CUBIC, linear_field):
        result = runner.invoke(main, ["analyze", "--input", field, "--max-word-length", max_len])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error:")


@pytest.mark.parametrize(
    "args,stderr",
    [
        (["analyze", "--input", CUBIC, "--series-depth", "0"], "depth must be >= 1, got 0"),
        (["scan-periods", "--input", UNIFORM, "--radii", ","], "radii must be nonempty"),
        (["scan-periods", "--input", UNIFORM, "--tol", "0"],
         "tolerance must be positive and finite, got 0.0"),
        (["scan-periods", "--input", UNIFORM, "--tol", "nan"],
         "tolerance must be positive and finite, got nan"),
        (["scan-periods", "--input", UNIFORM, "--radii", "inf"], "radii must be finite, got [inf]"),
        (["scan-periods", "--input", UNIFORM, "--radii", "-0.05"],
         "initial radius must be positive and finite, got -0.05"),
        (["scan-periods", "--input", UNIFORM, "--radii", "-0.05,0.1"],
         "initial radius must be positive and finite, got -0.05"),
        (["scan-periods", "--input", UNIFORM, "--tol", "-1e-10"],
         "tolerance must be positive and finite, got -1e-10"),
        (["scan-periods", "--input", UNIFORM, "--tol", "-inf"],
         "tolerance must be positive and finite, got -inf"),
        *(
            ([command, "--input", path], f"cannot read field file {path}: {reason}")
            for command in ("analyze", "classify", "scan-periods")
            for path, reason in (
                (str(FIELDS), f"[Errno 21] Is a directory: {str(FIELDS)!r}"),
                ("/dev/null", "Expecting value: line 1 column 1 (char 0)"),
            )
        ),
    ],
)
def test_error_line_bytes(runner, args, stderr):
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # handled, no traceback
    assert result.stderr == f"error: {stderr}\n"
    assert result.stdout == ""


UNREADABLE_JSON = {
    "not_utf8.json": b'{"degree": 2, "coefficients": ["\xff"]}',
    "deep.json": b"[" * 200_000 + b"]" * 200_000,
    "long_int.json": b'{"degree": 2, "coefficients": [], "n": ' + b"7" * 5000 + b"}",
}


@pytest.mark.parametrize("command", ["classify", "analyze", "scan-periods"])
@pytest.mark.parametrize("name", sorted(UNREADABLE_JSON))
def test_undecodable_field_file_is_an_error_line(runner, tmp_path, command, name):
    # bytes json cannot decode: not UTF-8, nested past the recursion limit,
    # an integer literal past the interpreter's digit limit
    path = tmp_path / name
    path.write_bytes(UNREADABLE_JSON[name])
    result = runner.invoke(main, [command, "--input", str(path)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # handled, no traceback
    assert result.stderr.startswith(f"error: cannot read field file {path}: ")
    assert "Traceback" not in result.output


def test_coefficient_beyond_double_range(runner, tmp_path):
    # exact commands take p_{2,0} = 10^400; the period oracle cannot
    path = write_field(tmp_path, "huge.json", 2, {(2, 0): f"{10 ** 400}/1+0/1i"})
    for command in ("classify", "analyze"):
        assert runner.invoke(main, [command, "--input", path]).exit_code == 0
    result = runner.invoke(main, ["scan-periods", "--input", path])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # handled, no traceback
    assert result.stderr == "error: coefficient p_{2,0} is beyond the range of a double\n"


def test_keyboard_interrupt_aborts(runner, monkeypatch):
    def interrupt(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr("isocenter.cli.emit", interrupt)
    result = runner.invoke(main, ["complexity", "--condition", "CR", "--degree", "3"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # handled, no traceback
    assert result.stderr == "\nAborted!\n"
    assert result.stdout == ""


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_scan_periods_default_radii_and_tol(runner, fmt):
    defaults = runner.invoke(main, ["scan-periods", "--input", UNIFORM, "--format", fmt])
    spelled = runner.invoke(
        main,
        ["scan-periods", "--input", UNIFORM, "--radii", "0.02,0.05,0.1,0.2", "--tol", "1e-10",
         "--format", fmt],
    )
    assert defaults.exit_code == spelled.exit_code == 0
    assert defaults.stdout_bytes == spelled.stdout_bytes
    assert len(defaults.stdout.splitlines()) >= 5
