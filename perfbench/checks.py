"""Checks of the program's outputs, computed apart from the program.

Brackets are recomputed with sympy polynomials over the Gaussian
rationals (QQ_I), from operators built here out of the field file by the
prepared-form rules; word counts come from a dynamic program over the
letter weights; verdicts, period spreads and CLI reports are held to what
is known of each input family.  Every check returns a list of problems,
empty when the output is right.  ``python3 perfbench/checks.py`` runs the
self-test: each check must reject a deliberately perturbed value.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import sympy as sp
from sympy.polys.domains import QQ_I

import fixtures

X, Y = sp.symbols("x y")
TWO_PI = 2.0 * math.pi
DEFAULT_RADII = (0.02, 0.05, 0.1, 0.2)
TOL = 1e-10
ISO_SPREAD = 100 * TOL     # a known isochronous field may spread this much
NON_ISO_SPREAD = 1e-5      # a non-isochronous center deviates at least this much
MIRROR_TOL = 10 * TOL * TWO_PI
ISOCHRONOUS = {"cauchy_riemann", "ui_homogeneous", "Q_i", "Q_ii", "Q_iii", "Q_iv"}


# --- sympy operators --------------------------------------------------------

def poly(terms: dict) -> sp.Poly:
    """{(i, j): (re, im)} -> Poly in x, y over QQ_I."""
    return sp.Poly.from_dict({e: QQ_I(c[0], c[1]) for e, c in terms.items()} or {(0, 0): QQ_I(0, 0)},
                             X, Y, domain=QQ_I)


def from_program(p) -> sp.Poly:
    """A program BiPoly as a sympy Poly."""
    return poly({e: (c.re, c.im) for e, c in p.terms.items()})


def coefficients(obj: dict) -> dict:
    return {(e["i"], e["j"]): fixtures.parse(e["value"]) for e in obj["coefficients"]}


def operators(obj: dict) -> dict:
    """Letter -> (P, Q) with the operator P d/dx + Q d/dy, built from the field.

    B_{(i-1,k-i)} = x^{i-1} y^{k-i} (p_{i,k-i} x d/dx + conj(p_{k-i+1,i-1}) y d/dy),
    B_{(-1,k)} = p_{0,k} y^k d/dx and B_{(k,-1)} = conj(p_{0,k}) x^k d/dy.
    """
    p = coefficients(obj)
    zero = fixtures.g(0)
    ops = {}
    for k in range(2, obj["degree"] + 1):
        for i in range(1, k + 1):
            a = p.get((i, k - i), zero)
            b = fixtures.gconj(p.get((k - i + 1, i - 1), zero))
            if a != zero or b != zero:
                ops[(i - 1, k - i)] = (poly({(i, k - i): a} if a != zero else {}),
                                       poly({(i - 1, k - i + 1): b} if b != zero else {}))
        c = p.get((0, k), zero)
        if c != zero:
            ops[(-1, k)] = (poly({(0, k): c}), poly({}))
            ops[(k, -1)] = (poly({}), poly({(k, 0): fixtures.gconj(c)}))
    return ops


def bracket(d1, d2):
    """[d1, d2] = d1 d2 - d2 d1 on the coordinate functions."""
    def apply(d, f):
        return d[0] * f.diff(X) + d[1] * f.diff(Y)
    return (apply(d1, d2[0]) - apply(d2, d1[0]), apply(d1, d2[1]) - apply(d2, d1[1]))


def nested(word, ops):
    """Left-nested bracket, last letter outermost: [B_nr, [..., [B_n2, B_n1]]]."""
    acc = ops[tuple(word[0])]
    for n in word[1:]:
        acc = bracket(ops[tuple(n)], acc)
    return acc


def terms(p: sp.Poly) -> dict:
    """The nonzero terms of a Poly.  Compare these, not Polys: sympy's
    mul_ground(0) leaves a zero Poly that is neither is_zero nor equal to 0."""
    return {m: c for m, c in p.rep.to_dict().items() if c}


def is_zero(d) -> bool:
    return not terms(d[0]) and not terms(d[1])


def same(derivation, d) -> bool:
    """A program Derivation equals the sympy pair d."""
    return (terms(from_program(derivation.dx)) == terms(d[0])
            and terms(from_program(derivation.dy)) == terms(d[1]))


def scaled(d, c):
    s = QQ_I(c[0], c[1])
    return (d[0].mul_ground(s), d[1].mul_ground(s))


def added(d1, d2):
    return (d1[0] + d2[0], d1[1] + d2[1])


ZERO_PAIR = (poly({}), poly({}))


# --- counts -----------------------------------------------------------------

def weight(n) -> int:
    return n[0] - n[1]


def resonant_word_count(alphabet, max_len: int) -> int:
    """Words of length 1..max_len with weight sum zero, by DP over weights."""
    total = 0
    ways = {0: 1}
    for _ in range(max_len):
        nxt = {}
        for w, k in ways.items():
            for n in alphabet:
                nxt[w + weight(n)] = nxt.get(w + weight(n), 0) + k
        ways = nxt
        total += ways.get(0, 0)
    return total


# --- resonance_deep ---------------------------------------------------------

def check_analysis(entry: dict, obj: dict, out: dict, sample: list) -> list:
    """One exact-pipeline output: reconstruction, alphabet, pairwise brackets,
    level-2 size, resonant-word count and order, sampled witness brackets
    and the verdict.

    ``out`` holds "recon" (dx, dy), "alphabet" (letter -> Derivation),
    "nilpotent", "witness_pairs", "level_sizes", "words", "verdict";
    ``sample`` is a list of (word, program Derivation of its bracket).
    """
    problems = []
    ops = operators(obj)
    p = coefficients(obj)
    xi = (Fraction(0), Fraction(1 if obj.get("xi_sign", "+") == "+" else -1))
    want_dx = poly({(1, 0): xi, **p})
    want_dy = poly({(0, 1): (-xi[0], -xi[1]), **{(j, i): fixtures.gconj(c) for (i, j), c in p.items()}})
    if terms(from_program(out["recon"][0])) != terms(want_dx) or terms(from_program(out["recon"][1])) != terms(want_dy):
        problems.append("reconstruction differs from xi x + P, -xi y + Q")
    alphabet = out["alphabet"]
    if sorted(alphabet) != sorted(ops):
        problems.append(f"alphabet letters {sorted(alphabet)} != {sorted(ops)}")
        return problems
    for n, d in alphabet.items():
        if not same(d, ops[n]):
            problems.append(f"operator B_{n} differs")
    letters = list(ops)
    nonzero_pairs = set()
    for a in range(len(letters)):
        for b in range(a, len(letters)):
            if not is_zero(bracket(ops[letters[a]], ops[letters[b]])):
                nonzero_pairs.add(frozenset((letters[a], letters[b])))
    if set(map(frozenset, out["witness_pairs"])) != nonzero_pairs:
        problems.append("pairwise bracket witnesses differ from the nonzero pairs")
    if out["nilpotent"] != (not nonzero_pairs):
        problems.append("order-1 nilpotency verdict is wrong")
    sizes = out["level_sizes"]
    if sizes[0] != len(letters) or (len(sizes) > 1 and sizes[1] != 2 * len(nonzero_pairs)):
        problems.append(f"central series level sizes {sizes[:2]} != [{len(letters)}, {2 * len(nonzero_pairs)}]")
    words = out["words"]
    L = entry["max_len"]
    if len(words) != resonant_word_count(letters, L):
        problems.append(f"{len(words)} resonant words, DP count {resonant_word_count(letters, L)}")
    if any(sum(map(weight, w)) != 0 or not 1 <= len(w) <= L for w in words):
        problems.append("a listed word is not resonant or too long")
    if words != sorted(set(words), key=lambda w: (len(w), w)):
        problems.append("resonant words are not sorted and unique")
    witness = False
    for word, derivation in sample:
        want = nested(word, ops)
        witness = witness or not is_zero(want)
        if not same(derivation, want):
            problems.append(f"bracket of word {word} differs from the sympy route")
    zero_letter = any(weight(n) == 0 for n in letters)
    if entry["family"] in ("ui_homogeneous", "cauchy_riemann"):
        expect = "LinearisableStructural"
    elif zero_letter or witness:
        expect = "Unknown"
    else:
        expect = None
    if expect and out["verdict"] != expect:
        problems.append(f"verdict {out['verdict']}, expected {expect}")
    return problems


def sample_words(words: list, name: str, k: int = 4) -> list:
    """The shortest two resonant words of length >= 2 plus k-2 drawn at random."""
    longer = [w for w in words if len(w) >= 2]
    rng = random.Random(name)
    return longer[:2] + (rng.sample(longer[2:], min(k - 2, len(longer) - 2)) if len(longer) > 2 else [])


# --- mould_sum --------------------------------------------------------------

def check_moulds(entry: dict, obj: dict, outs: dict, mould_value) -> list:
    """Projection sums of one alphabet, by mould name.

    Indicator and table sums must equal (1/|w|)[B_w] summed over their
    words; the sum mould's output must be the sum of its parts'; on
    uniform alphabets, whose pairwise brackets vanish, the full-support sum
    is the letter sum and the resonant-support sum the weight-zero letter
    sum; a resonant-support sum has only weight-zero terms.
    ``mould_value(name, word)`` evaluates the input mould.
    """
    problems = []
    ops = operators(obj)
    moulds = entry["moulds"]

    def expect_words(pairs):
        acc = ZERO_PAIR
        for word, value in pairs:
            term = scaled(nested(word, ops), (Fraction(1, len(word)), Fraction(0)))
            acc = added(acc, scaled(term, value))
        return acc

    for name, out in outs.items():
        spec = moulds[name]
        if spec["kind"] == "indicator":
            want = expect_words([(spec["word"], fixtures.g(1))])
        elif spec["kind"] == "table":
            want = expect_words([(w, fixtures.parse(v)) for w, v in spec["entries"]])
        elif spec["kind"] == "sum" and all(part in outs for part in spec["of"]):
            a, b = (outs[part] for part in spec["of"])
            want = (from_program(a.dx) + from_program(b.dx), from_program(a.dy) + from_program(b.dy))
        elif entry["family"] == "ui_homogeneous":
            resonant = spec.get("support") == "resonant"
            want = ZERO_PAIR
            for n, d in ops.items():
                if not resonant or weight(n) == 0:
                    v = mould_value(name, (n,))
                    want = added(want, scaled(d, (v.re, v.im)))
        else:
            want = None
        if want is not None and not same(out, want):
            problems.append(f"{entry['name']}: projection sum of mould {name} differs")
        if spec.get("support") == "resonant":
            grades = [(i - 1, j) for i, j in out.dx.terms] + [(i, j - 1) for i, j in out.dy.terms]
            if any(weight(n) != 0 for n in grades):
                problems.append(f"{entry['name']}: resonant-support sum {name} has a nonresonant term")
    return problems


# --- period_scan ------------------------------------------------------------

def check_periods(entry: dict, scan, reference=None) -> list:
    """Spread bookkeeping, known-family spreads and xi = -i mirror periods."""
    problems = []
    name = entry["name"]
    if tuple(scan.radii) != DEFAULT_RADII:
        problems.append(f"{name}: radii {scan.radii}")
    spread = max(abs(t - TWO_PI) / TWO_PI for t in scan.periods)
    if spread != scan.max_rel_spread:
        problems.append(f"{name}: spread {scan.max_rel_spread} != recomputed {spread}")
    if entry["family"] in ISOCHRONOUS and spread > ISO_SPREAD:
        problems.append(f"{name}: isochronous family spread {spread:.3e} > {ISO_SPREAD:.0e}")
    if entry["family"] == "none" and spread < NON_ISO_SPREAD:
        problems.append(f"{name}: non-isochronous quadratic spread {spread:.3e} < {NON_ISO_SPREAD:.0e}")
    if reference is not None and any(abs(a - b) > MIRROR_TOL for a, b in zip(scan.periods, reference.periods)):
        problems.append(f"{name}: mirror periods {scan.periods} != {reference.periods}")
    return problems


# --- cli_session ------------------------------------------------------------

def complexity_count(condition: str, d: int) -> dict:
    """(q, m, ambient) by counting coefficient slots and relations directly."""
    slots = [(i, n - i) for n in range(2, d + 1) for i in range(n + 1)]
    if condition == "CR":
        q = sum(1 for i, j in slots if i + j == d and j >= 1)
    else:
        top = [(i, j) for i, j in slots if i + j == d]
        q = sum(1 for i, j in top if i == 0) + sum(1 for i, j in top if i >= 1)
        q += 1 if d % 2 else 0
    return {"q": q, "m": 1, "ambient_dim": len(slots)}


def classify_expect(obj: dict) -> dict:
    p = coefficients(obj)
    zero = fixtures.g(0)
    d = obj["degree"]
    ui = all(p.get((0, n), zero) == zero for n in range(2, d + 1)) and all(
        p.get((i, n - i), zero) == fixtures.gconj(p.get((n - i + 1, i - 1), zero))
        for n in range(2, d + 1) for i in range(1, n + 1))
    cr = all(j == 0 for (i, j), c in p.items() if c != zero)
    out = {"uniform": ui, "cauchy_riemann": cr}
    if d == 2:
        out["quadratic_conditions"] = sorted(fixtures.quadratic_families(
            p.get((2, 0), zero), p.get((1, 1), zero), p.get((0, 2), zero)))
    return out


def check_cli(op: str, entry, report: dict, field=None) -> list:
    """One successful CLI report, by command; ``field`` is the input file's
    content."""
    problems = []
    if op == "complexity":
        want = {"condition": entry["condition"], "degree": entry["degree"],
                **complexity_count(entry["condition"], entry["degree"])}
        if report != want:
            problems.append(f"complexity {report} != {want}")
    elif op == "classify":
        want = classify_expect(field)
        got = {"uniform": report["uniform"]["holds"], "cauchy_riemann": report["cauchy_riemann"]["holds"]}
        if "quadratic_conditions" in report:
            got["quadratic_conditions"] = report["quadratic_conditions"]
        if got != want:
            problems.append(f"classify {got} != {want}")
    elif op == "analyze":
        letters = list(operators(field))
        count = resonant_word_count(letters, entry["max_len"])
        if len(report["resonant_words"]) != count:
            problems.append(f"analyze lists {len(report['resonant_words'])} resonant words, DP count {count}")
        if sorted(a["letter"] for a in report["alphabet"]) != sorted(f"{a},{b}" for a, b in letters):
            problems.append("analyze alphabet differs")
        if report["structural_linearisability"] != "Unknown":
            problems.append("analyze verdict on a field with a weight-zero letter is not Unknown")
    elif op == "scan-periods":
        spread = max(abs(t - TWO_PI) / TWO_PI for t in report["periods"])
        if spread > ISO_SPREAD or report["max_rel_spread"] != spread:
            problems.append(f"scan-periods spread {report['max_rel_spread']} on an isochronous field")
    elif op == "verify-lemmas":
        if report.get("all_passed") is not True or not report.get("lemmas"):
            problems.append("verify-lemmas did not report all_passed")
    return problems


# --- self-test --------------------------------------------------------------

def self_test() -> list:
    """Run each check on a right value and on a perturbed one.

    Returns the names of checks that accepted a perturbed value or rejected
    a right one.  Needs the isocenter package importable.
    """
    from isocenter import (GaussianRational, Mould, PlanarField, decompose, indicator_mould,
                           nested_bracket, projection_sum, random_mould, reconstruct)
    from isocenter.lie_analysis import central_series, enumerate_resonant_words
    from isocenter.numverify import PeriodScan
    from isocenter.operators import Derivation
    from isocenter.prenormal import structural_linearisability

    bad = []

    def expect(name, ok_problems, bad_problems):
        if ok_problems or not bad_problems:
            bad.append(f"{name}: right value gave {ok_problems}, perturbed gave {bad_problems}")

    obj = fixtures.dense(random.Random("self-test"), 2)
    entry = {"name": "self", "family": "dense", "max_len": 4}
    f = PlanarField.from_json_obj(obj)
    a = decompose(f)
    series = central_series(a, 3)
    words = enumerate_resonant_words(a, 4)
    out = {"recon": reconstruct(f), "alphabet": dict(a.entries), "nilpotent": series.nilpotent_order1,
           "witness_pairs": [pair for pair, _ in series.witnesses],
           "level_sizes": [len(level) for level in series.levels], "words": words,
           "verdict": structural_linearisability(a, 4)}
    sample = [(w, nested_bracket(w, a.entries)) for w in sample_words(words, "self")]
    ok = check_analysis(entry, obj, out, sample)
    one = next(iter(a.entries.values()))
    perturbations = {
        "words": {**out, "words": words[:-1]},
        "verdict": {**out, "verdict": "LinearisableStructural"},
        "alphabet": {**out, "alphabet": {**out["alphabet"], next(iter(a.entries)): one.scale(2)}},
        "level_sizes": {**out, "level_sizes": [len(a), 0]},
    }
    for what, perturbed in perturbations.items():
        expect(f"analysis/{what}", ok, check_analysis(entry, obj, perturbed, sample))
    w, d = sample[0]
    expect("analysis/witness bracket", ok, check_analysis(entry, obj, out, [(w, d.scale(3))]))

    word = sample[0][0]
    mentry = {"name": "self", "family": "dense", "moulds": {"indicator": {"kind": "indicator", "word": word}}}
    right = projection_sum(indicator_mould(tuple(word)), a, 4)
    expect("moulds/indicator", check_moulds(mentry, obj, {"indicator": right}, None),
           check_moulds(mentry, obj, {"indicator": right.scale(2)}, None))
    sentry = {"name": "self", "family": "dense", "moulds": {
        "a": {"kind": "table", "entries": [[word, "1/1+0/1i"]]},
        "b": {"kind": "table", "entries": [[word, "2/1+0/1i"]]},
        "s": {"kind": "sum", "of": ["a", "b"]}}}
    outs = {"a": right, "b": right.scale(2), "s": right.scale(3)}
    expect("moulds/linearity", check_moulds(sentry, obj, outs, None),
           check_moulds(sentry, obj, {**outs, "s": right.scale(4)}, None))
    rentry = {"name": "self", "family": "dense", "moulds": {"r": {"kind": "random", "support": "resonant"}}}
    expect("moulds/resonant support", check_moulds(rentry, obj, {"r": Derivation(right.dx.scale(0), right.dy.scale(0))}, None),
           check_moulds(rentry, obj, {"r": nested_bracket(((1, 0),), a.entries)}, None))

    def scan(*periods):
        return PeriodScan(DEFAULT_RADII, periods, max(abs(t - TWO_PI) / TWO_PI for t in periods))

    iso = {"name": "self", "family": "Q_i"}
    none = {"name": "self", "family": "none"}
    flat = scan(*(TWO_PI,) * 4)
    expect("periods/isochronous", check_periods(iso, flat), check_periods(iso, scan(*(TWO_PI * (1 + 1e-6),) * 4)))
    expect("periods/non-isochronous", check_periods(none, scan(*(TWO_PI * 1.01,) * 4)), check_periods(none, flat))
    expect("periods/mirror", check_periods(iso, flat, flat), check_periods(iso, flat, scan(*(TWO_PI + 1e-6,) * 4)))
    expect("periods/spread", [], check_periods(iso, PeriodScan(DEFAULT_RADII, flat.periods, 1e-3)))

    centry = {"condition": "UI", "degree": 5}
    right_c = {"condition": "UI", "degree": 5, "q": 7, "m": 1, "ambient_dim": 18}
    expect("cli/complexity", check_cli("complexity", centry, right_c),
           check_cli("complexity", centry, {**right_c, "q": 6}))
    expect("cli/verify-lemmas", check_cli("verify-lemmas", None, {"all_passed": True, "lemmas": [1]}),
           check_cli("verify-lemmas", None, {"all_passed": False, "lemmas": [1]}))
    quad = fixtures.quadratic_member(random.Random("self-test"), "Q_ii")
    right_q = {"uniform": {"holds": True}, "cauchy_riemann": {"holds": False}, "quadratic_conditions": ["Q_ii"]}
    expect("cli/classify", check_cli("classify", None, right_q, quad),
           check_cli("classify", None, {**right_q, "quadratic_conditions": []}, quad))
    report = {"resonant_words": [str(w) for w in words], "structural_linearisability": "Unknown",
              "alphabet": [{"letter": f"{n[0]},{n[1]}"} for n in a.entries]}
    expect("cli/analyze", check_cli("analyze", entry, report, obj),
           check_cli("analyze", entry, {**report, "resonant_words": report["resonant_words"][1:]}, obj))
    right_s = {"periods": list(flat.periods), "max_rel_spread": 0.0}
    expect("cli/scan-periods", check_cli("scan-periods", None, right_s),
           check_cli("scan-periods", None, {"periods": [TWO_PI * 1.001] * 4, "max_rel_spread": 1e-3}))

    ui = fixtures.ui_homogeneous(random.Random("self-test"), 5, middle="real")
    m = random_mould(7, support_resonant_only=True)
    uentry = {"name": "self", "family": "ui_homogeneous", "moulds": {"r": {"kind": "random", "support": "resonant"}}}
    right_u = projection_sum(m, decompose(PlanarField.from_json_obj(ui)), 5)
    expect("moulds/letter sum", check_moulds(uentry, ui, {"r": right_u}, lambda _, word: m.value(word)),
           check_moulds(uentry, ui, {"r": right_u.scale(2)}, lambda _, word: m.value(word)))
    zero = Mould(lambda word: GaussianRational(), support_resonant_only=True)
    right_z = projection_sum(zero, decompose(PlanarField.from_json_obj(ui)), 5)
    expect("moulds/zero letter sum", check_moulds(uentry, ui, {"r": right_z}, lambda _, word: zero.value(word)),
           check_moulds(uentry, ui, {"r": right_u}, lambda _, word: zero.value(word)))

    from workloads import malformed_handled

    if not malformed_handled(1, "error: bad value\n") or malformed_handled(1, "Traceback ...\nTypeError: x\n"):
        bad.append("cli/malformed")
    if resonant_word_count([(1, 0), (0, 1)], 2) != 2:
        bad.append("dp count")
    return bad


if __name__ == "__main__":
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    failures = self_test()
    print("\n".join(failures) if failures else "self-test: every check rejects its perturbed value")
    sys.exit(1 if failures else 0)
