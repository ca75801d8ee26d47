import random
from fractions import Fraction

import pytest

from isocenter.algebra import ZERO, BiPoly, GaussianRational, X, Y
from isocenter.errors import InputError
from isocenter.operators import (
    ZERO_DERIVATION,
    Derivation,
    bracket_oracle,
    hom_op,
    lie_bracket,
    linear_combination,
    nested_bracket,
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


def test_zero_derivations_compare_equal():
    d = hom_op((1, 0), BiPoly.monomial(2, 0), BiPoly.monomial(1, 1, G(2)))
    zeros = [Derivation(BiPoly.zero(), BiPoly.zero()), d.scale(0), d - d, lie_bracket(d, d)]
    assert all(z == ZERO_DERIVATION and z.letter is None for z in zeros)
    assert d.letter == (1, 0) and (-d).letter == (1, 0) and d.scale(G(0, 3)).letter == (1, 0)


def sympy_vector_field(d, x, y):
    """(P, Q) of d = P d/dx + Q d/dy, each letter written as the product
    x^n1 y^n2 (a x d/dx + b y d/dy) in sympy."""
    import sympy

    def gauss(z):
        return sympy.Rational(z.re.numerator, z.re.denominator) + sympy.I * sympy.Rational(
            z.im.numerator, z.im.denominator
        )

    p = q = sympy.Integer(0)
    for (n1, n2), (a, b) in d.terms.items():
        monomial = x**n1 * y**n2
        p += monomial * gauss(a) * x
        q += monomial * gauss(b) * y
    return p, q


def sympy_bracket(d1, d2, x, y):
    """[d1, d2] by symbolic differentiation of the component polynomials."""
    (p1, q1), (p2, q2) = sympy_vector_field(d1, x, y), sympy_vector_field(d2, x, y)

    def apply(p, q, g):
        return p * g.diff(x) + q * g.diff(y)

    return apply(p1, q1, p2) - apply(p2, q2, p1), apply(p1, q1, q2) - apply(p2, q2, q1)


def test_lie_bracket_matches_sympy_differentiation():
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    rng = random.Random(29)
    letters = [(i, k - i) for k in range(1, 5) for i in range(k + 1)]
    extreme = [(-1, k) for k in range(2, 6)] + [(k, -1) for k in range(2, 6)]
    pairs = [(n, m) for n in extreme for m in extreme]
    pairs += [(rng.choice(letters + extreme), rng.choice(letters + extreme)) for _ in range(120)]
    for n, m in pairs:
        d1, d2 = op_with_letter(rng, n), op_with_letter(rng, m)
        expected = sympy_bracket(d1, d2, x, y)
        got = sympy_vector_field(lie_bracket(d1, d2), x, y)
        assert all(sympy.expand(g - e) == 0 for g, e in zip(got, expected)), (n, m)


# --- the reference route: the closed form on GaussianRational objects -----


def dot(p, q, r, s):
    """p*q + r*s, skipping zero products."""
    x = p * q if p and q else ZERO
    return x + r * s if r and s else x


def reference_lie_bracket(d1, d2):
    """[d1, d2] by the closed form with one scalar object per operation."""
    t = {}
    for n, (a, b) in d1.terms.items():
        for m, (c, e) in d2.terms.items():
            s = dot(a, m[0], b, m[1])
            minus_t = dot(c, -n[0], e, -n[1])
            x, y = dot(s, c, minus_t, a), dot(s, e, minus_t, b)
            k = (n[0] + m[0], n[1] + m[1])
            if k in t:
                x, y = t[k][0] + x, t[k][1] + y
            if x or y:
                t[k] = (x, y)
            else:
                t.pop(k, None)
    return Derivation._of(t)


def wide_scalar(rng):
    """A scalar with zero, small or ~10^30 parts and denominators."""
    def part():
        kind = rng.random()
        if kind < 0.2:
            return Fraction(0)
        if kind < 0.6:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        return Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**30))

    return GaussianRational(part(), part())


def wide_derivation(rng):
    """1-4 letters with components in -1..2, so pairs often share an output letter."""
    t, size = {}, rng.randint(1, 4)
    while len(t) < size:
        a, b = wide_scalar(rng), wide_scalar(rng)
        if a or b:
            t[(rng.randint(-1, 2), rng.randint(-1, 2))] = (a, b)
    return Derivation._of(t)


def test_lie_bracket_matches_object_route():
    rng = random.Random(31)
    shared = 0
    for _ in range(1500):
        d1, d2 = wide_derivation(rng), wide_derivation(rng)
        sums = [(n[0] + m[0], n[1] + m[1]) for n in d1.terms for m in d2.terms]
        shared += len(set(sums)) < len(sums)
        # equal derivations hold equal (a, b, d) triples: scalars are kept in lowest terms
        assert lie_bracket(d1, d2) == reference_lie_bracket(d1, d2)
        assert lie_bracket(d1, d1) == ZERO_DERIVATION
    assert shared >= 300


def test_linear_combination_matches_fold_of_scale():
    rng = random.Random(37)
    for _ in range(500):
        terms = [(wide_scalar(rng), wide_derivation(rng)) for _ in range(rng.randint(1, 5))]
        # a term and its exact negation, so some letter sums cancel part way
        c, d = terms[rng.randrange(len(terms))]
        terms.insert(rng.randrange(len(terms) + 1), (-c, d))
        fold = sum((d.scale(c) for c, d in terms), ZERO_DERIVATION)
        assert linear_combination(terms) == fold


def test_linear_combination_cancels_to_zero():
    rng = random.Random(41)
    for _ in range(100):
        d = wide_derivation(rng)
        c, e = wide_scalar(rng), wide_scalar(rng)
        terms = [(c, d), (e, d), (-(c + e), d)]
        assert linear_combination(terms) == ZERO_DERIVATION
        assert linear_combination(terms).letter is None
