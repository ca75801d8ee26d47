"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
pass/fail lines.
"""

import random
import time
from fractions import Fraction

from isocenter.algebra import GaussianRational
from isocenter.conditions import classify_quadratic, geometric_complexity
from isocenter.lemmas import (
    lemma_bracket_formulas,
    lemma_fond2,
    lemma_fond3,
    lemma_holom,
    lemma_quadratic_bracket,
    lemma_structure1,
)
from isocenter.numverify import isochrony_scan, measure_period, to_real_system
from isocenter.operators import _apply, bracket_oracle, lie_bracket
from isocenter.samples import quadratic, random_hom_op

SEED = 20260823


def G(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def check(num, desc, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def applied(d, p):
    """d applied to the polynomial p, dx dp/dx + dy dp/dy, on BiPoly arithmetic."""
    return _apply(d.dx, d.dy, p)


def test_criterion_1_quadratic_bracket_formula():
    t0 = time.perf_counter()
    result = lemma_quadratic_bracket(SEED)
    elapsed = time.perf_counter() - t0
    check(1, f"quadratic bracket formula, 100 draws in {elapsed:.2f}s",
          result.passed and elapsed < 1.0)


def test_criterion_2_bracket_lemma_formulas():
    t0 = time.perf_counter()
    result = lemma_bracket_formulas(SEED + 1)
    elapsed = time.perf_counter() - t0
    check(2, f"degree-n bracket formulas vs oracle in {elapsed:.2f}s",
          result.passed and elapsed < 10.0)


def test_criterion_3_fond2_conditions():
    result = lemma_fond2(SEED + 2)
    check(3, "both quadratic coefficient conditions give vanishing pairwise brackets",
          result.passed)


def test_criterion_4_structure1():
    result = lemma_structure1(SEED + 3)
    check(4, "homogeneous uniform fields are nilpotent of order 1 (d=2..6)",
          result.passed)


def test_criterion_5_holom():
    t0 = time.perf_counter()
    result = lemma_holom(SEED + 4)
    elapsed = time.perf_counter() - t0
    check(5, f"holomorphic fields have trivial resonant subset in {elapsed:.2f}s",
          result.passed and elapsed < 60.0)


def test_criterion_6_fond3_projection_reduction():
    result = lemma_fond3(SEED + 5)
    check(6, "projection sum reduces to the letter sum for nilpotent alphabets",
          result.passed)


def test_criterion_7_quadratic_classification():
    ok = (
        classify_quadratic(quadratic(1, 0, 0)) == {"Q_i"}
        and classify_quadratic(quadratic(1, 1, 0)) == {"Q_ii"}
        and classify_quadratic(quadratic(G(Fraction(5, 2)), G(1), G(Fraction(-3, 2)))) == {"Q_iii"}
        and classify_quadratic(quadratic(G(Fraction(7, 6)), G(1), G(Fraction(1, 2)))) == {"Q_iv"}
        and classify_quadratic(quadratic(1, 1, 1)) == set()
    )
    check(7, "four-condition membership plus empty set on the violator", ok)


def test_criterion_8_geometric_complexity():
    ok = True
    for d in range(2, 9):
        ok = ok and geometric_complexity("CR", d).q == d
        want = d + 1 if d % 2 == 0 else d + 2
        ok = ok and geometric_complexity("UI", d).q == want
        ok = ok and geometric_complexity("CR", d).m == 1
        ok = ok and geometric_complexity("UI", d).m == 1
    check(8, "closed-form complexity pairs for d=2..8", ok)


def test_criterion_9_numerical_isochrony():
    t0 = time.perf_counter()
    radii = (0.02, 0.05, 0.1, 0.2)
    # one isochronous representative per condition; iii needs the
    # negative-real third coefficient (the printed relations fix only its
    # modulus)
    instances = [
        quadratic(1, 0, 0),
        quadratic(1, 1, 0),
        quadratic(G(Fraction(5, 2)), G(1), G(Fraction(-3, 2))),
        quadratic(G(Fraction(7, 6)), G(1), G(Fraction(1, 2))),
    ]
    spreads = [isochrony_scan(f, radii).max_rel_spread for f in instances]
    system = to_real_system(quadratic(1, 1, 1))
    t_a = measure_period(system, 0.05)
    t_b = measure_period(system, 0.1)
    violator_diff = abs(t_a - t_b) / t_a
    elapsed = time.perf_counter() - t0
    ok = all(s < 1e-6 for s in spreads) and violator_diff > 1e-4 and elapsed < 30.0
    check(
        9,
        f"spreads {['%.1e' % s for s in spreads]}, violator diff {violator_diff:.1e}, "
        f"{elapsed:.1f}s",
        ok,
    )


def test_criterion_10_oracle_equivalence():
    rng = random.Random(SEED + 9)
    ok = True
    for _ in range(1000):
        d1, d2 = random_hom_op(rng), random_hom_op(rng)
        from isocenter.algebra import BiPoly

        i = rng.randint(0, 8)
        p = BiPoly.monomial(i, rng.randint(0, 8 - i))
        br = lie_bracket(d1, d2)
        if br != bracket_oracle(d1, d2) or applied(br, p) != applied(d1, applied(d2, p)) - applied(d2, applied(d1, p)):
            ok = False
            break
    check(10, "1000 random bracket/oracle agreement triples", ok)
