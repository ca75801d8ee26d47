"""Seeded input files for the isocenter benchmark.

Every field file the benchmark hands the program is made here from the
run's seed, with the benchmark's own exact arithmetic and no program code,
so one seed always gives the same bytes.  Remake every file of one seed:

    python3 perfbench/fixtures.py --seed 7 --out perfbench/_work/fixtures-7

Gaussian rationals are pairs (re, im) of Fractions.  A field is the JSON
object the program reads: xi_sign, degree and coefficient entries
{"i", "j", "value": "a/b+c/di"}.  The make-up of each workload is listed in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import random
from fractions import Fraction
from pathlib import Path

# Seed string of the inputs that must not depend on --seed: the
# reference fields whose xi = -i mirrors fail today, and the CLI session's
# fixed parts.
FIXED = "fixed"


# --- Gaussian rationals -----------------------------------------------------

def g(re, im=0):
    return (Fraction(re), Fraction(im))


def gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gconj(a):
    return (a[0], -a[1])


def gtext(a) -> str:
    re, im = a
    sign = "+" if im >= 0 else "-"
    return f"{re.numerator}/{re.denominator}{sign}{abs(im.numerator)}/{im.denominator}i"


def generic(rng: random.Random) -> tuple:
    """Nonzero real and imaginary parts, each +-(1..9)/(1..9)."""
    return tuple(Fraction(rng.randint(1, 9) * rng.choice((-1, 1)), rng.randint(1, 9)) for _ in range(2))


def unit(rng: random.Random) -> tuple:
    """Gaussian rational of modulus 1, from a Pythagorean pair."""
    a, b = rng.randint(1, 4), rng.randint(1, 4)
    n = a * a + b * b
    u = (Fraction(a * a - b * b, n), Fraction(2 * a * b, n))
    return gmul(u, g(rng.choice((-1, 1))))


# --- fields -----------------------------------------------------------------

def field(degree: int, coeffs: dict) -> dict:
    entries = [
        {"i": i, "j": j, "value": gtext(c)}
        for (i, j), c in sorted(coeffs.items(), key=lambda kv: (sum(kv[0]), -kv[0][0]))
        if c != g(0)
    ]
    return {"xi_sign": "+", "degree": degree, "coefficients": entries}


def dense(rng, d):
    """Every slot p_{i,j}, 2 <= i+j <= d, set to a generic scalar."""
    return field(d, {(i, n - i): generic(rng) for n in range(2, d + 1) for i in range(n + 1)})


def ui_homogeneous(rng, d, middle="zero", scalar=None):
    """Homogeneous degree d with p_{0,d} = 0 and p_{i,d-i} = conj(p_{d-i+1,i-1}).

    For odd d the middle coefficient p_{m+1,m} pairs with itself, so it
    must be real: ``middle`` is "zero" (the isochronous case) or "real".
    """
    scalar = scalar or generic
    c = {}
    for i in range(1, d + 1):
        partner = d - i + 1
        if i < partner:
            c[i] = scalar(rng)
            c[partner] = gconj(c[i])
        elif i == partner:
            c[i] = g(0) if middle == "zero" else (scalar(rng)[0], Fraction(0))
    return field(d, {(i, d - i): v for i, v in c.items()})


def cauchy_riemann(rng, d, scalar=None):
    """Holomorphic perturbation: only p_{n,0}, n = 2..d."""
    scalar = scalar or generic
    return field(d, {(n, 0): scalar(rng) for n in range(2, d + 1)})


def extreme(rng, ks):
    """Only the extreme slots p_{0,k}: the alphabet is B_{(-1,k)}, B_{(k,-1)}."""
    return field(max(ks), {(0, k): generic(rng) for k in ks})


def quadratic(p20, p11, p02):
    return field(2, {(2, 0): p20, (1, 1): p11, (0, 2): p02})


def quadratic_families(p20, p11, p02) -> set:
    """Membership in Q_i..Q_iv, computed here from the defining relations."""
    zero = g(0)

    def norm(z):
        return z[0] * z[0] + z[1] * z[1]

    def lin(k):
        return gmul(g(k), gconj(p11))

    out = set()
    if p11 == zero and p02 == zero:
        out.add("Q_i")
    if p20 == gconj(p11) and p02 == zero:
        out.add("Q_ii")
    if p20 == lin(Fraction(5, 2)) and norm(p11) == Fraction(4, 9) * norm(p02):
        out.add("Q_iii")
    if p20 == lin(Fraction(7, 6)) and norm(p11) == 4 * norm(p02):
        out.add("Q_iv")
    return out


def small(rng: random.Random, eighths: int = 2) -> tuple:
    """Nonzero parts +-k/8, k = 1..eighths: keeps orbits at r <= 0.2 in the
    period annulus."""
    return tuple(Fraction(rng.randint(1, eighths) * rng.choice((-1, 1)), 8) for _ in range(2))


def quadratic_member(rng, family):
    """A quadratic in the named family, or "none": a center outside all four.

    Q_iii and Q_iv are isochronous only with p_{0,2} in phase with p_{1,1}^3
    (the relations checked by the program constrain moduli alone), so their
    p_{0,2} is -3/2 and 1/2 times p_{1,1} * p_{1,1} / conj(p_{1,1}).  A
    "none" quadratic has real coefficients, which make the origin a
    reversible center, rotated by a unit scalar; it is redrawn until it lies
    outside Q_i..Q_iv.
    """
    p11 = small(rng)
    phase = gmul(p11, gmul(p11, g(1 / (p11[0] ** 2 + p11[1] ** 2))))
    if family == "Q_i":
        return quadratic(small(rng, 6), g(0), g(0))
    if family == "Q_ii":
        return quadratic(gconj(p11), p11, g(0))
    if family == "Q_iii":
        return quadratic(gmul(g(Fraction(5, 2)), gconj(p11)), p11,
                         gmul(g(Fraction(-3, 2)), gmul(phase, p11)))
    if family == "Q_iv":
        return quadratic(gmul(g(Fraction(7, 6)), gconj(p11)), p11,
                         gmul(g(Fraction(1, 2)), gmul(phase, p11)))
    while True:
        p20, p11, p02 = (g(Fraction(rng.randint(1, 6) * rng.choice((-1, 1)), 8)) for _ in range(3))
        if not quadratic_families(p20, p11, p02):
            break
    u = unit(rng)
    ubar = gconj(u)
    return quadratic(gmul(p20, u), gmul(p11, ubar), gmul(p02, gmul(ubar, gmul(ubar, ubar))))


def mirror(obj: dict) -> dict:
    """The xi = -i field with p'_{i,j} = conj(p_{i,j}): the reflected orbit."""
    out = json.loads(json.dumps(obj))
    out["xi_sign"] = "-"
    for entry in out["coefficients"]:
        entry["value"] = gtext(gconj(parse(entry["value"])))
    return out


def parse(text: str) -> tuple:
    """Inverse of gtext."""
    body = text.rstrip("i")
    cut = max(body.rfind("+"), body.rfind("-"))
    return (Fraction(body[:cut]), Fraction(body[cut:]))


# Malformed inputs: each must end in exit code 1 with an "error:" message.
MALFORMED = {
    "malformed_int_value": {
        "xi_sign": "+", "degree": 2,
        "coefficients": [{"i": 2, "j": 0, "value": 5}],
    },
    "malformed_bool_exponent": {
        "xi_sign": "+", "degree": 2,
        "coefficients": [{"i": True, "j": 1, "value": "1/1+0/1i"}],
    },
}


# --- workloads --------------------------------------------------------------

def _rng(seed, name):
    return random.Random(f"{seed}:{name}")


def resonance_deep(seed):
    """Fields for the exact analyze pipeline, each with its word length L."""
    out = [
        ("dense_cubic", dense(_rng(seed, "dense_cubic"), 3), "dense", 4),
        ("dense_quartic", dense(_rng(seed, "dense_quartic"), 4), "dense", 3),
    ]
    for d in range(5, 9):
        out.append((f"ui_hom_{d}", ui_homogeneous(_rng(seed, f"ui_hom_{d}"), d), "ui_homogeneous", 6))
    for d in range(3, 7):
        out.append((f"cr_{d}", cauchy_riemann(_rng(seed, f"cr_{d}"), d), "cauchy_riemann", 6))
    out.append(("extreme_2_3", extreme(_rng(seed, "extreme"), (2, 3)), "extreme", 6))
    return [{"name": n, "field": f, "family": fam, "max_len": L} for n, f, fam, L in out]


def letters(obj: dict) -> list:
    """Alphabet letters of a field, by the prepared-form rules.

    Letter (i-1, k-i) is present when p_{i,k-i} or p_{k-i+1,i-1} is
    nonzero; the extreme pair (-1, k), (k, -1) when p_{0,k} is nonzero.
    """
    slots = {(e["i"], e["j"]) for e in obj["coefficients"]}
    out = []
    for k in range(2, obj["degree"] + 1):
        for i in range(1, k + 1):
            if (i, k - i) in slots or (k - i + 1, i - 1) in slots:
                out.append((i - 1, k - i))
        if (0, k) in slots:
            out += [(-1, k), (k, -1)]
    return out


def _words(rng, alphabet, length, count):
    """``count`` distinct words (or as many as there are)."""
    out = []
    for _ in range(50 * count):
        w = _word(rng, alphabet, length)
        if w not in out:
            out.append(w)
        if len(out) == count:
            break
    return out


def _word(rng, alphabet, length):
    """A word whose first two letters differ, so its bracket is generic."""
    word = [rng.choice(alphabet)]
    while len(word) < length:
        n = rng.choice(alphabet)
        if len(word) == 1 and n == word[0]:
            continue
        word.append(n)
    return [list(n) for n in word]


def mould_sum(seed):
    """Alphabets with the moulds summed over them.

    A mould is {"kind": "random", "seed", "support": "all"|"resonant"},
    {"kind": "sum", "of": [two mould names]}, {"kind": "indicator",
    "word": [[n1, n2], ...]} or {"kind": "table", "entries": [[word, value]]}.
    Indicator and table words have length 3 on dense alphabets and 1 on
    uniform ones, whose pairwise brackets all vanish.
    """
    rng = _rng(seed, "moulds")
    alphabets = [
        ("dense_quadratic", dense(_rng(seed, "m_dense_quadratic"), 2), "dense", 5),
        ("dense_cubic", dense(_rng(seed, "m_dense_cubic"), 3), "dense", 3),
        ("ui_hom_5", ui_homogeneous(_rng(seed, "m_ui_hom_5"), 5, middle="real"), "ui_homogeneous", 5),
        ("ui_hom_6", ui_homogeneous(_rng(seed, "m_ui_hom_6"), 6), "ui_homogeneous", 5),
    ]
    out = []
    for name, f, fam, L in alphabets:
        alphabet = letters(f)
        length = 3 if fam == "dense" else 1

        def rand(support):
            return {"kind": "random", "seed": rng.randrange(10**6), "support": support}

        moulds = {
            "full_a": rand("all"),
            "full_b": rand("all"),
            "sum_ab": {"kind": "sum", "of": ["full_a", "full_b"]},
            "resonant": rand("resonant"),
            "indicator": {"kind": "indicator", "word": _word(rng, alphabet, length)},
            "table": {"kind": "table", "entries": [
                [w, gtext(generic(rng))] for w in _words(rng, alphabet, length, 3)]},
        }
        ops = {"dense_quadratic": list(moulds), "dense_cubic": ["resonant", "indicator", "table"]}.get(
            name, ["full_a", "resonant", "table"])
        out.append({"name": name, "field": f, "family": fam, "max_len": L, "moulds": moulds, "ops": ops})
    return out


PERIOD_FAMILIES = ("Q_i", "Q_ii", "Q_iii", "Q_iv")


# The seed-independent fields whose xi = -i mirrors are scanned.
MIRRORED = ("cr_3", "ui_hom_4", "Q_iii", "quad_none_0")


def _period_fields(seed):
    out = []
    for d in (3, 4):
        out.append((f"cr_{d}", cauchy_riemann(_rng(seed, f"p_cr_{d}"), d, scalar=small), "cauchy_riemann"))
    for d in (2, 3, 4, 5):
        out.append((f"ui_hom_{d}", ui_homogeneous(_rng(seed, f"p_ui_{d}"), d, scalar=small), "ui_homogeneous"))
    for fam in PERIOD_FAMILIES:
        out.append((fam, quadratic_member(_rng(seed, f"p_{fam}"), fam), fam))
    for k in range(2):
        out.append((f"quad_none_{k}", quadratic_member(_rng(seed, f"p_none_{k}"), "none"), "none"))
    return out


def period_scan(seed):
    """Seeded fields, then the fixed reference fields and their xi = -i mirrors."""
    reference = [(f"ref_{n}", f, fam) for n, f, fam in _period_fields(FIXED) if n in MIRRORED]
    out = [{"name": n, "field": f, "family": fam} for n, f, fam in _period_fields(seed) + reference]
    for n, f, fam in reference:
        out.append({"name": "mirror_" + n, "field": mirror(f), "family": fam, "mirror_of": n})
    return out


def cli_session(seed):
    """The session's input files plus its fixed malformed inputs."""
    rng = _rng(seed, "cli")
    fam = rng.choice(PERIOD_FAMILIES + ("none",))
    files = [
        {"name": "classify_quadratic", "field": quadratic_member(_rng(seed, "c_quad"), fam), "family": fam},
        {"name": "analyze_cubic", "field": dense(_rng(seed, "c_cubic"), 3), "family": "dense", "max_len": 3},
        {"name": "scan_cr", "field": cauchy_riemann(_rng(seed, "c_cr"), 3, scalar=small), "family": "cauchy_riemann"},
    ]
    files += [{"name": n, "field": f, "family": "malformed"} for n, f in MALFORMED.items()]
    return {"files": files,
            "complexity": {"condition": rng.choice(("CR", "UI")), "degree": rng.randint(2, 12)}}


MAKERS = {
    "resonance_deep": resonance_deep,
    "mould_sum": mould_sum,
    "period_scan": period_scan,
    "cli_session": cli_session,
}


def write_all(seed: int, out: Path) -> dict:
    """Write every workload's field files for ``seed`` under ``out``.

    Returns the manifest (also written as manifest.json): per workload, the
    entries with a "path" to their field file in place of the field.
    """
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"seed": seed}
    for workload, make in MAKERS.items():
        made = make(seed)
        entries = made["files"] if workload == "cli_session" else made
        for entry in entries:
            path = out / f"{workload}__{entry['name']}.json"
            path.write_text(json.dumps(entry.pop("field"), indent=1) + "\n")
            entry["path"] = str(path)
        manifest[workload] = made
    reference = out / "reference_quartic.json"
    reference.write_text(json.dumps(dense(_rng(FIXED, "dense_quartic"), 4), indent=1) + "\n")
    manifest["reference_quartic"] = str(reference)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return manifest


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    manifest = write_all(args.seed, args.out)
    count = sum(len(v if isinstance(v, list) else v["files"]) for k, v in manifest.items() if k != "seed")
    print(f"wrote {count} field files and manifest.json to {args.out}")


if __name__ == "__main__":
    main()
