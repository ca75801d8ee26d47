"""The plane's rotation and scaling as checks of every route.

The rotation z = u·w by the unit u = 3/5 + 4/5 i sends p_{i,j} to
p_{i,j}·u^(i-1-j), and the scaling z = λ·w by λ = 3/2 sends p_{i,j} to
p_{i,j}·λ^(i+j-1).  Each keeps the problem's form with exact
coefficients, so on seeded random dense, Cauchy-Riemann, UI-homogeneous
and quadratic-family fields, in both orientations of ξ:

- the letters, the structural verdict, the central series' level sizes
  and witness pairs, the resonant words, the resonance witnesses' words
  and the coefficient conditions are invariant, with ``==``;
- the letter B_n is multiplied by u^ω(n), ω(n) = n1 - n2, under rotation
  and by λ^(n1+n2) under scaling, and so, by bilinearity, the nested
  bracket of a word by the product over its letters, with ``==``;
- under scaling the period oracle satisfies T_scaled(r0) = T(λ·r0)
  within 10·DEFAULT_TOL.  Under rotation a rotated start point lies on
  another orbit, so the periods are not compared.

The mirror (conjugate coefficients, flipped ξ) is left out: its rule for
the exact routes is not yet established.
"""

import random
from fractions import Fraction

from test_route_agreement import both_orientations, quadratic_member

from isocenter.algebra import GaussianRational
from isocenter.conditions import check_cauchy_riemann, check_uniform, classify_quadratic
from isocenter.errors import NonPeriodicError
from isocenter.lie_analysis import central_series, enumerate_resonant_words, resonant_subset_trivial
from isocenter.numverify import DEFAULT_TOL, measure_period, to_real_system
from isocenter.operators import nested_bracket
from isocenter.prenormal import structural_linearisability
from isocenter.prepared import PlanarField, decompose
from isocenter.samples import random_cr_field, random_field, random_ui_homogeneous

U = GaussianRational(Fraction(3, 5), Fraction(4, 5))
LAMBDA = Fraction(3, 2)
RADII = (0.02, 0.04)


def product(factors) -> GaussianRational:
    out = GaussianRational(1)
    for c in factors:
        out = out * c
    return out


def power(c: GaussianRational, k: int) -> GaussianRational:
    """c^k; a negative k multiplies conj(c), which is 1/c only for |c| = 1."""
    return product([c if k >= 0 else c.conj()] * abs(k))


def rotation_factor(i: int, j: int) -> GaussianRational:
    return power(U, i - 1 - j)


def scaling_factor(i: int, j: int) -> GaussianRational:
    return power(GaussianRational(LAMBDA), i + j - 1)


def rotation_letter_factor(n) -> GaussianRational:
    return power(U, n[0] - n[1])


def scaling_letter_factor(n) -> GaussianRational:
    return power(GaussianRational(LAMBDA), n[0] + n[1])


def mapped(f: PlanarField, factor) -> PlanarField:
    coefficients = {(i, j): c * factor(i, j) for (i, j), c in f.coefficients.items()}
    return PlanarField(f.degree, coefficients, f.xi_sign)


def sample_fields(seed: int) -> list[PlanarField]:
    rng = random.Random(seed)
    fields = [random_field(rng, d) for d in (2, 3, 4) for _ in range(2)]
    fields += [random_cr_field(rng, d) for d in (2, 3, 4)]
    fields += [random_ui_homogeneous(rng, d) for d in (2, 3, 4)]
    fields += [quadratic_member(rng, family) for family in ("Q_i", "Q_ii", "Q_iii", "Q_iv")]
    return [g for f in fields for g in both_orientations(f)]


def verdicts(f: PlanarField) -> tuple:
    """The coefficient conditions' outcomes: which relations fail, not their residuals,
    since a residual is multiplied by the map's factor at its coefficient."""
    failing = tuple([rel for rel, _ in check(f).failing_relations] for check in (check_uniform, check_cauchy_riemann))
    return failing, classify_quadratic(f) if f.degree == 2 else None


def assert_exact_routes_map(f: PlanarField, g: PlanarField, letter_factor, rng: random.Random) -> None:
    """Every exact route on f and on its image g: invariant, or covariant by letter_factor."""
    a, b = decompose(f), decompose(g)
    assert b.letters() == a.letters()
    for n in a:
        assert b[n] == a[n].scale(letter_factor(n))
    assert structural_linearisability(b, 6) == structural_linearisability(a, 6)
    series_a, series_b = central_series(a, 3), central_series(b, 3)
    assert [len(level) for level in series_b.levels] == [len(level) for level in series_a.levels]
    assert [pair for pair, _ in series_b.witnesses] == [pair for pair, _ in series_a.witnesses]
    for (pair, d), (_, e) in zip(series_a.witnesses, series_b.witnesses):
        assert e == d.scale(product(map(letter_factor, pair)))
    resonant = enumerate_resonant_words(a, 4)
    assert enumerate_resonant_words(b, 4) == resonant
    report_a, report_b = resonant_subset_trivial(a, 4), resonant_subset_trivial(b, 4)
    assert report_b.structurally_proven == report_a.structurally_proven
    assert [w for w, _ in report_b.witnesses] == [w for w, _ in report_a.witnesses]
    letters = a.letters()
    words = rng.sample(resonant, min(4, len(resonant)))
    words += [tuple(rng.choices(letters, k=rng.randint(1, 4))) for _ in range(4)]
    words += [w for w, _ in report_a.witnesses]
    for w in words:
        assert nested_bracket(w, b.entries) == nested_bracket(w, a.entries).scale(product(map(letter_factor, w)))
    assert verdicts(g) == verdicts(f)


def test_rotation_maps_every_exact_route():
    rng = random.Random(181)
    for f in sample_fields(18):
        assert_exact_routes_map(f, mapped(f, rotation_factor), rotation_letter_factor, rng)


def test_scaling_maps_every_route():
    rng = random.Random(182)
    pairs = compared = 0
    for f in sample_fields(19):
        g = mapped(f, scaling_factor)
        assert_exact_routes_map(f, g, scaling_letter_factor, rng)
        s, t = to_real_system(f), to_real_system(g)
        for r0 in RADII:
            pairs += 1
            try:
                scaled, unscaled = measure_period(t, r0), measure_period(s, float(LAMBDA) * r0)
            except NonPeriodicError:
                continue
            compared += 1
            assert abs(scaled - unscaled) <= 10 * DEFAULT_TOL, (f, r0)
    assert compared >= 0.9 * pairs
