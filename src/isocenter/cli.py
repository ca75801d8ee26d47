"""Command-line surface: parse a field file, run analyses, emit reports.

JSON output is the stable machine contract (canonical key order, byte
deterministic for fixed input and seed); text output is for humans.
Exit codes: 0 success, 1 invalid input, 2 internal inconsistency or
lemma failure.

Each command imports the modules it runs inside its own function:
``complexity`` and ``classify`` load no mould, word or numerical layer (a
malformed ``classify`` input not even the checkers), ``scan-periods`` no
exact analysis, ``analyze`` no numerical layer, and only ``verify-lemmas``
the lemma suites.  No command but ``scan-periods`` loads ``dataclasses``,
and none ``fractions``; ``tests/test_import_hygiene.py`` pins both.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .errors import InputError, InternalInconsistencyError, NonPeriodicError

EXIT_INVALID_INPUT = 1
EXIT_INCONSISTENT = 2


def dumps_report(obj: dict) -> str:
    """Canonical JSON rendering; re-emitting a parsed report is byte-stable."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def emit(obj: dict, fmt: str, text_lines) -> None:
    if fmt == "json":
        sys.stdout.write(dumps_report(obj))
    else:
        for line in text_lines(obj):
            print(line)


def analyze(input_path, max_word_length, series_depth, fmt):
    """Alphabet, weights, brackets, central series, resonant words."""
    from .lie_analysis import central_series, enumerate_resonant_words
    from .operators import word_str
    from .prenormal import structural_linearisability
    from .prepared import PlanarField, decompose, reconstruct, weight

    f = PlanarField.load(input_path)
    reconstruct(f)
    a = decompose(f)
    series = central_series(a, series_depth)
    resonant = enumerate_resonant_words(a, max_word_length)
    verdict = structural_linearisability(a, max_word_length)
    report = {
        "field": f.to_json_obj(),
        "alphabet": [
            {
                "letter": f"{n[0]},{n[1]}",
                "weight": weight(n),
                "operator": a[n].to_dict(),
            }
            for n in a.letters()
        ],
        "nilpotent_order1": series.nilpotent_order1,
        "bracket_witnesses": [
            {"letters": [f"{p[0]},{p[1]}", f"{q[0]},{q[1]}"], "bracket": d.to_dict()}
            for (p, q), d in series.witnesses
        ],
        "central_series_level_sizes": [len(level) for level in series.levels],
        "resonant_letters": [f"{n[0]},{n[1]}" for n in a.resonant_letters()],
        "resonant_words": [word_str(w) for w in resonant],
        "structural_linearisability": verdict,
    }

    def text(rep):
        yield f"degree: {rep['field']['degree']}, xi_sign: {rep['field']['xi_sign']}"
        yield "alphabet:"
        for entry in rep["alphabet"]:
            yield f"  ({entry['letter']})  weight {entry['weight']:+d}"
        yield f"nilpotent_order1: {rep['nilpotent_order1']}"
        for w in rep["bracket_witnesses"]:
            yield f"  nonzero bracket [{w['letters'][0]} , {w['letters'][1]}]"
        yield f"central series level sizes: {rep['central_series_level_sizes']}"
        if rep["resonant_letters"]:
            yield f"resonant letters: {', '.join(rep['resonant_letters'])}"
        else:
            yield "resonant letters: none"
        yield f"resonant words (length <= {max_word_length}): {len(rep['resonant_words'])}"
        for w in rep["resonant_words"][:20]:
            yield f"  {w}"
        yield f"verdict: {rep['structural_linearisability']}"

    emit(report, fmt, text)


def classify(input_path, fmt):
    """Quadratic condition membership plus UI and CR verdicts."""
    from .prepared import PlanarField

    f = PlanarField.load(input_path)
    # imported after the load, so that a malformed file never loads the checkers
    from .conditions import check_cauchy_riemann, check_uniform, classify_quadratic

    report = {
        "field": f.to_json_obj(),
        "uniform": check_uniform(f).to_json_obj(),
        "cauchy_riemann": check_cauchy_riemann(f).to_json_obj(),
    }
    if f.degree == 2:
        report["quadratic_conditions"] = sorted(classify_quadratic(f))

    def text(rep):
        if "quadratic_conditions" in rep:
            conds = rep["quadratic_conditions"]
            yield f"quadratic conditions: {', '.join(conds) if conds else 'none'}"
        for key in ("uniform", "cauchy_riemann"):
            v = rep[key]
            yield f"{v['condition']}: {'holds' if v['holds'] else 'fails'}"
            for item in v["failing"]:
                yield f"  {item['relation']}  residual {item['residual']}"

    emit(report, fmt, text)


def verify_lemmas(seed, fmt):
    """Run the randomized lemma suites; exit 2 on any failure."""
    from .lemmas import run_all

    results = run_all(seed)
    report = {
        "seed": seed,
        "lemmas": [r.to_json_obj() for r in results],
        "all_passed": all(r.passed for r in results),
    }

    def text(rep):
        for r in rep["lemmas"]:
            status = "PASS" if r["passed"] else "FAIL"
            yield f"{status} {r['name']}: {r['detail']}"
        yield f"all_passed: {rep['all_passed']}"

    emit(report, fmt, text)
    if not report["all_passed"]:
        sys.exit(EXIT_INCONSISTENT)


def scan_periods(input_path, fmt, **scan):
    """Measure orbit return times over a list of radii."""
    from .numverify import isochrony_scan
    from .prepared import PlanarField

    f = PlanarField.load(input_path)
    if "radii" in scan:
        radii = scan["radii"]
        try:
            scan["radii"] = [float(r) for r in radii.split(",") if r.strip()]
        except ValueError as exc:
            raise InputError(f"bad radii list {radii!r}") from exc
    report = isochrony_scan(f, **scan).to_json_obj()

    def text(rep):
        for r, t in zip(rep["radii"], rep["periods"]):
            yield f"r0 = {r:g}: return time {t:.12f}"
        yield f"max relative spread vs 2*pi: {rep['max_rel_spread']:.3e}"

    emit(report, fmt, text)


def complexity(condition, degree, fmt):
    """Geometric complexity of the homogeneous condition family."""
    from .conditions import geometric_complexity

    gc = geometric_complexity(condition, degree)
    report = {"condition": condition, "degree": degree, **gc.to_json_obj()}

    def text(rep):
        yield (
            f"{rep['condition']} at degree {rep['degree']}: "
            f"q = {rep['q']}, m = {rep['m']} "
            f"(ambient dimension {rep['ambient_dim']})"
        )

    emit(report, fmt, text)


class _HelpFormatter(argparse.HelpFormatter):
    def add_usage(self, usage, actions, groups, prefix="Usage: "):
        super().add_usage(usage, actions, groups, prefix)


class _Parser(argparse.ArgumentParser):
    """argparse with `--help` as its only built-in option, no abbreviated
    option names, and each usage error raised as invalid input (exit 1)."""

    def __init__(self, **kwargs):
        super().__init__(add_help=False, allow_abbrev=False, formatter_class=_HelpFormatter, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")
        # no option here has a single dash, so a token such as -1e-10 or -inf
        # after an option is its value, not an unknown option
        self._negative_number_matcher = re.compile(r"-[^-]")

    def error(self, message):
        raise InputError(message)


def _parser(prog_name) -> _Parser:
    about = "Exact mould/comould analysis of planar polynomial vector fields."
    parser = _Parser(prog=prog_name or "isocenter", description=about)
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(run, input_file=True):
        name = run.__name__.replace("_", "-")
        sub = commands.add_parser(name, help=run.__doc__, description=run.__doc__)
        sub.set_defaults(run=run)
        if input_file:
            sub.add_argument("--input", dest="input_path", required=True, help="Field JSON file.")
        sub.add_argument("--format", dest="fmt", choices=["json", "text"], default="text")
        return sub

    sub = command(analyze)
    sub.add_argument("--max-word-length", type=int, default=6)
    sub.add_argument("--series-depth", type=int, default=3)
    command(classify)
    sub = command(verify_lemmas, input_file=False)
    sub.add_argument("--seed", type=int, default=0)
    sub = command(scan_periods)
    # absent unless given, so that isochrony_scan's defaults are the CLI's
    sub.add_argument("--radii", default=argparse.SUPPRESS)
    sub.add_argument("--tol", type=float, default=argparse.SUPPRESS)
    sub = command(complexity, input_file=False)
    sub.add_argument("--condition", choices=["CR", "UI"], required=True)
    sub.add_argument("--degree", type=int, required=True)
    return parser


def main(args=None, prog_name=None):
    """Run the command that ``args`` (default ``sys.argv[1:]``) names.

    Maps each error to its exit code in one place: a usage error (never
    argparse's own exit 2), malformed input and an orbit that does not
    return exit 1 with an ``error:`` line, an interrupt exits 1 with
    ``Aborted!``, and an internal inconsistency exits 2.
    """
    try:
        opts = vars(_parser(prog_name).parse_args(args))
        opts.pop("run")(**opts)
    except KeyboardInterrupt:
        print("\nAborted!", file=sys.stderr)
        sys.exit(EXIT_INVALID_INPUT)
    except (InputError, NonPeriodicError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_INVALID_INPUT)
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        sys.exit(EXIT_INCONSISTENT)


if __name__ == "__main__":
    main()
