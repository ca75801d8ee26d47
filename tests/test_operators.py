import random
from fractions import Fraction

import pytest

from isocenter.algebra import BiPoly, GaussianRational, X, Y
from isocenter.errors import InputError
from isocenter.operators import (
    ZERO_DERIVATION,
    Derivation,
    bracket_oracle,
    hom_op,
    lie_bracket,
    nested_bracket,
    parse_word,
    word_str,
)
from isocenter.samples import quadratic, random_hom_op, random_scalar
from isocenter.prepared import decompose


def G(re, im=0):
    return GaussianRational.of(Fraction(re), Fraction(im))


def test_apply_to_coordinate():
    d = Derivation(BiPoly.monomial(2, 0), BiPoly.zero())
    assert d.apply(X) == BiPoly.monomial(2, 0)


def test_apply_quadratic_family():
    # x(p_{2,0} x d/dx + conj(p_{1,1}) y d/dy) applied to x
    op = hom_op((1, 0), BiPoly.monomial(2, 0), BiPoly.monomial(1, 1, G(2)))
    assert op.apply(X) == BiPoly.monomial(2, 0)
    assert op.apply(Y) == BiPoly.monomial(1, 1, G(2))


def test_apply_extreme_family():
    op = hom_op((-1, 2), BiPoly.monomial(0, 2, G(3)), BiPoly.zero())
    # 3 y^2 d/dx applied to x^2 gives 6 x y^2
    assert op.apply(BiPoly.monomial(2, 0)) == BiPoly.monomial(1, 2, G(6))


def test_bracket_antisymmetry_and_self():
    rng = random.Random(7)
    for _ in range(30):
        d1, d2 = random_hom_op(rng), random_hom_op(rng)
        assert lie_bracket(d1, d2) == -lie_bracket(d2, d1)
        assert lie_bracket(d1, d1) == ZERO_DERIVATION


def test_jacobi_identity():
    rng = random.Random(11)
    for _ in range(15):
        d1, d2, d3 = (random_hom_op(rng, 3) for _ in range(3))
        total = (
            lie_bracket(d1, lie_bracket(d2, d3))
            + lie_bracket(d2, lie_bracket(d3, d1))
            + lie_bracket(d3, lie_bracket(d1, d2))
        )
        assert total == ZERO_DERIVATION


def test_bracket_grading():
    rng = random.Random(13)
    for _ in range(40):
        d1, d2 = random_hom_op(rng), random_hom_op(rng)
        br = lie_bracket(d1, d2)
        if br:
            assert br.letter == (
                d1.letter[0] + d2.letter[0],
                d1.letter[1] + d2.letter[1],
            )


def test_homogeneity_of_action():
    # image of a monomial under a homogeneous operator is a scalar
    # multiple of the shifted monomial
    rng = random.Random(17)
    for _ in range(40):
        op = random_hom_op(rng)
        m = (rng.randint(0, 4), rng.randint(0, 4))
        image = op.apply(BiPoly.monomial(*m))
        if image:
            n1, n2 = op.letter
            assert set(image.terms) == {(m[0] + n1, m[1] + n2)}


def test_bracket_oracle_equivalence_small():
    rng = random.Random(19)
    for _ in range(50):
        d1, d2 = random_hom_op(rng), random_hom_op(rng)
        p = BiPoly.monomial(rng.randint(0, 4), rng.randint(0, 4))
        assert lie_bracket(d1, d2).apply(p) == bracket_oracle(d1, d2, p)


def op_with_letter(rng, n):
    """Random operator of letter n, drawn apart from any other of that letter."""
    n1, n2 = n
    dx = BiPoly.monomial(n1 + 1, n2, random_scalar(rng)) if n2 >= 0 else BiPoly.zero()
    dy = BiPoly.monomial(n1, n2 + 1, random_scalar(rng)) if n1 >= 0 else BiPoly.zero()
    return hom_op(n, dx, dy)


def random_sum_op(rng):
    """Sum of 1-3 random homogeneous operators, some sharing the first's letter."""
    first = random_hom_op(rng)
    total = first
    for _ in range(rng.randint(0, 2)):
        if rng.random() < 0.5 and first.letter is not None:
            total = total + op_with_letter(rng, first.letter)
        else:
            total = total + random_hom_op(rng)
    return total


def test_multi_letter_bracket_matches_oracle():
    rng = random.Random(23)
    multi = 0
    for _ in range(80):
        d1, d2 = random_sum_op(rng), random_sum_op(rng)
        multi += d1.letter is None and bool(d1)
        br = lie_bracket(d1, d2)
        for p in (X, Y, BiPoly.monomial(rng.randint(0, 4), rng.randint(0, 4))):
            assert br.apply(p) == bracket_oracle(d1, d2, p)
    assert multi >= 20


def test_polynomial_views_roundtrip():
    rng = random.Random(29)
    for _ in range(50):
        dx, dy = (
            BiPoly({(rng.randint(0, 3), rng.randint(0, 3)): random_scalar(rng) for _ in range(4)})
            for _ in range(2)
        )
        d = Derivation(dx, dy)
        assert d.dx == dx and d.dy == dy
        assert sum(d.split().values(), ZERO_DERIVATION) == d
        assert all(op.letter == n for n, op in d.split().items())


def test_bracket_oracle_trivial_cases():
    d = hom_op((1, 0), BiPoly.monomial(2, 0), BiPoly.zero())
    xy = BiPoly.monomial(1, 1)
    assert bracket_oracle(d, d, xy).is_zero()
    xdx = Derivation(X, BiPoly.zero())
    ydy = Derivation(BiPoly.zero(), Y)
    assert bracket_oracle(xdx, ydy, xy).is_zero()


def test_extreme_pair_bracket_instance():
    # p_{0,2} = 3 gives [B_{(2,-1)}, B_{(-1,2)}] = 18 xy (x d/dx - y d/dy)
    a = decompose(quadratic(0, 0, 3))
    br = lie_bracket(a[(2, -1)], a[(-1, 2)])
    assert br.dx == BiPoly.monomial(2, 1, G(18))
    assert br.dy == BiPoly.monomial(1, 2, G(-18))


def test_nested_bracket_conventions():
    a = decompose(quadratic(1, 2, 0))
    ops = dict(a.entries)
    assert nested_bracket(((1, 0),), ops) == ops[(1, 0)]
    assert nested_bracket(((1, 0), (1, 0)), ops) == ZERO_DERIVATION
    # left-nested with last letter outermost; oracle is the composition
    # difference applied to the coordinates
    word = ((1, 0), (0, 1))
    br = nested_bracket(word, ops)
    d_inner, d_outer = ops[(1, 0)], ops[(0, 1)]
    assert br.dx == bracket_oracle(d_outer, d_inner, X)
    assert br.dy == bracket_oracle(d_outer, d_inner, Y)
    assert not br.is_zero()


def test_nested_bracket_errors():
    a = decompose(quadratic(1, 2, 0))
    ops = dict(a.entries)
    with pytest.raises(InputError):
        nested_bracket((), ops)
    with pytest.raises(InputError):
        nested_bracket(((9, 9),), ops)


def test_hom_op_rejects_wrong_multidegree():
    with pytest.raises(InputError):
        hom_op((1, 0), BiPoly.monomial(1, 1), BiPoly.zero())


def test_word_text_roundtrip():
    w = ((1, 0), (0, 1), (-1, 2))
    assert parse_word(word_str(w)) == w
    with pytest.raises(InputError):
        parse_word("(1;2)")


def test_zero_derivations_compare_equal():
    d = hom_op((1, 0), BiPoly.monomial(2, 0), BiPoly.monomial(1, 1, G(2)))
    zeros = [Derivation(BiPoly.zero(), BiPoly.zero()), d.scale(0), d - d, lie_bracket(d, d)]
    assert all(z == ZERO_DERIVATION and z.letter is None for z in zeros)
    assert d.letter == (1, 0) and (-d).letter == (1, 0) and d.scale(G(0, 3)).letter == (1, 0)
