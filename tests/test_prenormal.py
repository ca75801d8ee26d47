import random
from fractions import Fraction

import pytest

from isocenter.algebra import GaussianRational
from isocenter.errors import InputError
from isocenter.operators import ZERO_DERIVATION
from isocenter.prenormal import (
    LINEARISABLE_STRUCTURAL,
    UNKNOWN,
    Mould,
    indicator_mould,
    letter_sum,
    projection_sum,
    random_mould,
    structural_linearisability,
    table_mould,
    verify_fond3,
)
from isocenter.prepared import PlanarField, decompose
from isocenter.samples import quadratic, random_ui_homogeneous


def G(re, im=0):
    return GaussianRational.of(Fraction(re), Fraction(im))


def test_projection_sum_zero_field():
    a = decompose(PlanarField(degree=2, coefficients={}))
    assert projection_sum(random_mould(0), a, 6) == ZERO_DERIVATION


def test_projection_sum_nilpotent_reduces_to_letters():
    # uniform quadratic: nilpotent of order 1 and no resonant letters
    a = decompose(quadratic(G(1, -1), G(1, 1), 0))
    m = random_mould(3, support_resonant_only=True)
    assert projection_sum(m, a, 6) == ZERO_DERIVATION


def test_projection_sum_resonant_letter_survives():
    # homogeneous d=5 uniform field with nonzero middle coefficient keeps
    # exactly the weight-zero letter term
    rng = random.Random(8)
    f = random_ui_homogeneous(rng, 5, force_middle_zero=False)
    assert f.coeff(3, 2)  # middle coefficient drawn nonzero real
    a = decompose(f)
    m = random_mould(4, support_resonant_only=True)
    total = projection_sum(m, a, 6)
    assert total == letter_sum(m, a)
    assert a.resonant_letters() == [(2, 2)]
    assert total != ZERO_DERIVATION or not m.value(((2, 2),))


def test_projection_sum_linearity_in_mould():
    a = decompose(quadratic(1, 2, 3))
    m1 = random_mould(1, support_resonant_only=False)
    m2 = random_mould(2, support_resonant_only=False)
    s1 = projection_sum(m1, a, 3)
    s2 = projection_sum(m2, a, 3)
    s12 = projection_sum(Mould(lambda w: m1.value(w) + m2.value(w)), a, 3)
    assert s12 == s1 + s2


def test_projection_sum_deterministic():
    a = decompose(quadratic(1, 2, 3))
    m = random_mould(5, support_resonant_only=True)
    assert projection_sum(m, a, 4) == projection_sum(m, a, 4)


def test_projection_sum_max_len_independent_under_nilpotency():
    a = decompose(quadratic(G(2, 1), G(2, -1), 0))
    m = random_mould(6, support_resonant_only=True)
    results = {projection_sum(m, a, k) for k in (1, 2, 4, 6)}
    assert len(results) == 1


def test_resonant_support_enforced():
    a = decompose(quadratic(1, 2, 3))
    # a resonant-supported mould evaluates to zero off resonance
    m = Mould(lambda w: G(1), support_resonant_only=True)
    assert m.value(((1, 0),)).is_zero()
    assert m.value(((1, 0), (0, 1))) == G(1)
    assert m.value(()).is_zero()
    # zeroing all resonant values yields the zero derivation
    zero_on_res = Mould(lambda w: G(0), support_resonant_only=True)
    assert projection_sum(zero_on_res, a, 4) == ZERO_DERIVATION


def test_indicator_and_table_moulds():
    a = decompose(quadratic(1, 2, 0))
    word = ((1, 0), (0, 1))
    ind = indicator_mould(word)
    from isocenter.operators import nested_bracket

    expect = nested_bracket(word, dict(a.entries)).scale(Fraction(1, 2))
    assert projection_sum(ind, a, 3) == expect
    tab = table_mould({word: G(2)})
    assert projection_sum(tab, a, 3) == expect.scale(2)


def test_random_mould_is_pure_function_of_word():
    m = random_mould(11)
    w = ((2, -1), (-1, 2))
    assert m.value(w) == m.value(tuple(w))


def test_verify_fond3_cases():
    # even homogeneous degree: no resonant letters, letter part empty
    rng = random.Random(10)
    f4 = random_ui_homogeneous(rng, 4)
    a4 = decompose(f4)
    assert verify_fond3(a4, 20, 6, seed=1)
    assert letter_sum(random_mould(1), a4) == ZERO_DERIVATION
    # odd homogeneous degree with nonzero middle: letter part is the
    # single weight-zero letter
    f5 = random_ui_homogeneous(rng, 5)
    a5 = decompose(f5)
    assert verify_fond3(a5, 20, 6, seed=2)
    # zero field: vacuous
    assert verify_fond3(decompose(PlanarField(degree=2, coefficients={})), 5, 4)
    # precondition: non-nilpotent alphabet rejected
    with pytest.raises(InputError):
        verify_fond3(decompose(quadratic(1, 2, 0)), 5, 4)


def test_structural_linearisability_verdicts():
    # holomorphic quadratic: predicate route
    assert structural_linearisability(decompose(quadratic(1, 0, 0)), 6) == LINEARISABLE_STRUCTURAL
    # uniform quadratic: nilpotent route
    assert structural_linearisability(decompose(quadratic(G(1), G(1), 0)), 6) == LINEARISABLE_STRUCTURAL
    # condition iii parameters: structure alone cannot decide
    f = quadratic(G(Fraction(5, 2)), G(1), G(Fraction(-3, 2)))
    assert structural_linearisability(decompose(f), 6) == UNKNOWN
