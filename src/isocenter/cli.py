"""Command-line surface: parse a field file, run analyses, emit reports.

JSON output is the stable machine contract (canonical key order, byte
deterministic for fixed input and seed); text output is for humans.
Exit codes: 0 success, 1 invalid input, 2 internal inconsistency or
lemma failure.
"""

from __future__ import annotations

import json
import sys

import click

from .conditions import (
    check_cauchy_riemann,
    check_uniform,
    classify_quadratic,
    geometric_complexity,
)
from .errors import InputError, InternalInconsistencyError, NonPeriodicError
from .lie_analysis import central_series, enumerate_resonant_words
from .numverify import DEFAULT_RADII, DEFAULT_TOL, isochrony_scan
from .operators import word_str
from .prenormal import structural_linearisability
from .prepared import PlanarField, decompose, reconstruct, weight

EXIT_INVALID_INPUT = 1
EXIT_INCONSISTENT = 2


def dumps_report(obj: dict) -> str:
    """Canonical JSON rendering; re-emitting a parsed report is byte-stable."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def emit(obj: dict, fmt: str, text_lines) -> None:
    if fmt == "json":
        click.echo(dumps_report(obj), nl=False)
    else:
        for line in text_lines(obj):
            click.echo(line)


format_option = click.option(
    "--format", "fmt", type=click.Choice(["json", "text"]), default="text"
)
input_option = click.option(
    "--input", "input_path", required=True, type=click.Path(), help="Field JSON file."
)


class Cli(click.Group):
    """Command group that maps each error to its exit code in one place.

    A usage error (a bad option value, a missing required option, an
    unknown command or no command), malformed input and an orbit that does
    not return exit 1 with an ``error:`` line, not click's exit 2, which
    this CLI keeps for an ``internal inconsistency:``.
    """

    def main(self, *args, **kwargs):
        try:
            return super().main(*args, standalone_mode=False, **kwargs)
        except click.ClickException as exc:
            click.echo(f"error: {exc.format_message()}", err=True)
            sys.exit(EXIT_INVALID_INPUT)
        except click.Abort:
            click.echo("Aborted!", err=True)
            sys.exit(EXIT_INVALID_INPUT)
        except (InputError, NonPeriodicError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_INVALID_INPUT)
        except InternalInconsistencyError as exc:
            click.echo(f"internal inconsistency: {exc}", err=True)
            sys.exit(EXIT_INCONSISTENT)


@click.group(cls=Cli, no_args_is_help=False)
def main():
    """Exact mould/comould analysis of planar polynomial vector fields."""


@main.command()
@input_option
@click.option("--max-word-length", default=6, show_default=True)
@click.option("--series-depth", default=3, show_default=True)
@format_option
def analyze(input_path, max_word_length, series_depth, fmt):
    """Alphabet, weights, brackets, central series, resonant words."""
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


@main.command()
@input_option
@format_option
def classify(input_path, fmt):
    """Quadratic condition membership plus UI and CR verdicts."""
    f = PlanarField.load(input_path)
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


@main.command("verify-lemmas")
@click.option("--seed", default=0, show_default=True)
@format_option
def verify_lemmas(seed, fmt):
    """Run the randomized lemma suites; exit 2 on any failure."""
    # imported here so that the other commands never compile the lemma suites
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


@main.command("scan-periods")
@input_option
@click.option("--radii", default=",".join(str(r) for r in DEFAULT_RADII), show_default=True)
@click.option("--tol", default=DEFAULT_TOL, show_default=True)
@format_option
def scan_periods(input_path, radii, tol, fmt):
    """Measure orbit return times over a list of radii."""
    f = PlanarField.load(input_path)
    try:
        radii_list = [float(r) for r in radii.split(",") if r.strip()]
    except ValueError as exc:
        raise InputError(f"bad radii list {radii!r}") from exc
    report = isochrony_scan(f, radii_list, tol).to_json_obj()

    def text(rep):
        for r, t in zip(rep["radii"], rep["periods"]):
            yield f"r0 = {r:g}: return time {t:.12f}"
        yield f"max relative spread vs 2*pi: {rep['max_rel_spread']:.3e}"

    emit(report, fmt, text)


@main.command()
@click.option(
    "--condition", type=click.Choice(["CR", "UI"]), required=True
)
@click.option("--degree", type=int, required=True)
@format_option
def complexity(condition, degree, fmt):
    """Geometric complexity of the homogeneous condition family."""
    gc = geometric_complexity(condition, degree)
    report = {"condition": condition, "degree": degree, **gc.to_json_obj()}

    def text(rep):
        yield (
            f"{rep['condition']} at degree {rep['degree']}: "
            f"q = {rep['q']}, m = {rep['m']} "
            f"(ambient dimension {rep['ambient_dim']})"
        )

    emit(report, fmt, text)


if __name__ == "__main__":
    main()
