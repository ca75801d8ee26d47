import random
from fractions import Fraction
from itertools import product

import pytest

from isocenter.algebra import BiPoly, GaussianRational
from isocenter.errors import InputError
from isocenter.lie_analysis import (
    central_series,
    cr_structural_predicate,
    enumerate_resonant_words,
    iter_nested_brackets,
    pairwise_brackets,
    resonant_subset_trivial,
)
from isocenter.prepared import Alphabet, PlanarField, decompose, weight
from isocenter.samples import quadratic, random_cr_field, random_field, random_ui_homogeneous


def G(re, im=0):
    return GaussianRational.of(Fraction(re), Fraction(im))


def test_pairwise_fond2_conditions():
    # p_{2,0} = conj(p_{1,1}), p_{0,2} = 0
    assert pairwise_brackets(decompose(quadratic(G(1, -2), G(1, 2), 0))).nilpotent_order1
    # p_{1,1} = p_{0,2} = 0
    assert pairwise_brackets(decompose(quadratic(G(3, 5), 0, 0))).nilpotent_order1


def test_pairwise_witness():
    report = pairwise_brackets(decompose(quadratic(1, 2, 0)))
    assert not report.nilpotent_order1
    (pair, br) = report.witnesses[0]
    assert set(pair) == {(1, 0), (0, 1)}
    # scalar 2 = p_{1,1} (conj(p_{1,1}) - p_{2,0})
    assert br.dx == BiPoly.monomial(2, 1, G(2)) or br.dx == BiPoly.monomial(2, 1, G(-2))


def test_central_series_levels():
    a = decompose(quadratic(1, 2, 0))
    report = central_series(a, 3)
    assert len(report.levels[0]) == 2
    assert report.levels[1]  # nonzero pairwise bracket exists
    assert len(report.levels) == 3
    # every level-k generator from homogeneous degree-2 generators has
    # total polynomial degree k(d-1)+1 = k+1
    for k, level in enumerate(report.levels, start=1):
        for d in level:
            for part in (d.dx, d.dy):
                assert part.is_zero() or part.is_homogeneous(k + 1)


def test_central_series_trivial_cases():
    assert central_series(decompose(PlanarField(degree=2, coefficients={})), 3).levels == [[]]
    nil = central_series(decompose(quadratic(G(1), G(1), 0)), 3)
    assert nil.nilpotent_order1 and nil.levels[1] == []
    with pytest.raises(InputError):
        central_series(decompose(quadratic(1, 0, 0)), 0)


def test_enumerate_resonant_words_quadratic():
    a = decompose(quadratic(1, 2, 3))
    assert enumerate_resonant_words(a, 1) == []
    words = enumerate_resonant_words(a, 2)
    assert words == sorted(
        [
            ((1, 0), (0, 1)),
            ((0, 1), (1, 0)),
            ((-1, 2), (2, -1)),
            ((2, -1), (-1, 2)),
        ],
        key=lambda w: (len(w), w),
    )


def test_resonant_words_properties():
    a = decompose(quadratic(1, 2, 3))
    words = enumerate_resonant_words(a, 4)
    assert all(weight(w) == 0 for w in words)
    reversed_set = {tuple(reversed(w)) for w in words}
    assert reversed_set == set(words)


def test_resonant_letter_counts_homogeneous_cubic():
    coeffs = {(i, 3 - i): G(1, 1) for i in range(4)}
    a = decompose(PlanarField(degree=3, coefficients=coeffs))
    assert enumerate_resonant_words(a, 1) == [((1, 1),)]


def test_resonant_subset_trivial_cases():
    # CR field: all brackets of resonant words vanish, structurally proven
    rng = random.Random(0)
    rep = resonant_subset_trivial(decompose(random_cr_field(rng, 3)), 6)
    assert rep.all_brackets_zero and rep.structurally_proven
    # zero perturbation: trivially true
    rep = resonant_subset_trivial(decompose(PlanarField(degree=2, coefficients={})), 6)
    assert rep.all_brackets_zero
    # witness case
    rep = resonant_subset_trivial(decompose(quadratic(1, 2, 0)), 2)
    assert not rep.all_brackets_zero
    assert rep.witnesses[0][0] in (((1, 0), (0, 1)), ((0, 1), (1, 0)))


def test_resonant_length1_witness():
    # a weight-zero letter with nonzero operator is itself a witness
    coeffs = {(i, 3 - i): G(1, 1) for i in range(4)}
    rep = resonant_subset_trivial(decompose(PlanarField(degree=3, coefficients=coeffs)), 1)
    assert not rep.all_brackets_zero
    assert rep.witnesses[0][0] == ((1, 1),)


def test_cr_structural_predicate():
    rng = random.Random(1)
    assert cr_structural_predicate(decompose(random_cr_field(rng, 4)))
    assert not cr_structural_predicate(decompose(quadratic(1, 2, 0)))


def test_ui_homogeneous_nilpotent_sampled():
    rng = random.Random(42)
    for d in range(2, 7):
        for _ in range(10):
            f = random_ui_homogeneous(rng, d)
            assert pairwise_brackets(decompose(f)).nilpotent_order1


def test_series_grading_homogeneous():
    rng = random.Random(6)
    for d in (3, 4):
        coeffs = {(i, d - i): G(rng.randint(-3, 3), rng.randint(-3, 3)) for i in range(d + 1)}
        f = PlanarField(degree=d, coefficients={k: v for k, v in coeffs.items() if v})
        report = central_series(decompose(f), 3)
        for k, level in enumerate(report.levels, start=1):
            for deriv in level:
                for part in (deriv.dx, deriv.dy):
                    assert part.is_zero() or part.is_homogeneous(k * (d - 1) + 1)


def random_alphabet(rng):
    """Up to 6 letters of a random field of degree 2..4, so extreme
    letters (-1,k), (k,-1) and weight-zero letters (k,k) all occur."""
    a = decompose(random_field(rng, rng.randint(2, 4), density=rng.uniform(0.3, 1)))
    letters = rng.sample(a.letters(), min(len(a), rng.randint(2, 6)))
    return Alphabet({n: a[n] for n in letters})


def test_enumerate_resonant_words_matches_brute_force():
    rng = random.Random(7)
    cases = [(decompose(quadratic(1, 2, 3)), 3)]
    cases += [(random_alphabet(rng), rng.randint(1, 5)) for _ in range(60)]
    kinds = set()
    for a, max_len in cases:
        kinds |= {"extreme" if -1 in n else "zero" if weight(n) == 0 else "plain" for n in a}
        brute = sorted(
            (w for r in range(1, max_len + 1) for w in product(a.letters(), repeat=r) if weight(w) == 0),
            key=lambda w: (len(w), w),
        )
        assert enumerate_resonant_words(a, max_len) == brute
    assert kinds == {"extreme", "zero", "plain"}


def test_resonant_walk_keeps_every_weight_zero_bracket():
    rng = random.Random(8)
    for _ in range(40):
        a = random_alphabet(rng)
        max_len = rng.randint(1, 4)
        full = [(w, d) for w, wt, d in iter_nested_brackets(a, max_len) if wt == 0]
        pruned = list(iter_nested_brackets(a, max_len, resonant_only=True))
        assert all(wt == weight(w) for w, wt, _ in pruned)
        assert [(w, d) for w, wt, d in pruned if wt == 0] == full
