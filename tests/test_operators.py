import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest

from isocenter.algebra import ZERO, BiPoly, GaussianRational, X, Y
from isocenter import operators
from isocenter.errors import InputError
from isocenter.lemmas import (
    lemma_bracket_formulas,
    lemma_quadratic_bracket,
    transpose_pair_bracket,
    transpose_pair_ops,
)
from isocenter.lie_analysis import _independent
from isocenter.operators import (
    ZERO_DERIVATION,
    Derivation,
    bracket_oracle,
    lie_bracket,
    linear_combination,
    nested_bracket,
)
from isocenter.samples import quadratic, random_cr_field, random_hom_op, random_scalar
from isocenter.prepared import decompose


def G(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def applied(d, p):
    """d applied to the polynomial p, dx dp/dx + dy dp/dy, on BiPoly arithmetic."""
    return operators._apply(d.dx, d.dy, p)


def test_apply_to_coordinate():
    d = Derivation(BiPoly.monomial(2, 0), BiPoly())
    assert applied(d, X) == BiPoly.monomial(2, 0)


def test_apply_quadratic_family():
    # x(p_{2,0} x d/dx + conj(p_{1,1}) y d/dy) applied to x
    op = Derivation(BiPoly.monomial(2, 0), BiPoly.monomial(1, 1, G(2)))
    assert applied(op, X) == BiPoly.monomial(2, 0)
    assert applied(op, Y) == BiPoly.monomial(1, 1, G(2))


def test_apply_extreme_family():
    op = Derivation(BiPoly.monomial(0, 2, G(3)), BiPoly())
    # 3 y^2 d/dx applied to x^2 gives 6 x y^2
    assert applied(op, BiPoly.monomial(2, 0)) == BiPoly.monomial(1, 2, G(6))


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
        image = applied(op, BiPoly.monomial(*m))
        if image:
            n1, n2 = op.letter
            assert set(image.terms) == {(m[0] + n1, m[1] + n2)}


def double_application(d1, d2, p):
    """d1(d2(p)) - d2(d1(p)), the bracket's action on p by its definition."""
    return applied(d1, applied(d2, p)) - applied(d2, applied(d1, p))


def count_view_builds(monkeypatch):
    """Counter of (id of the operator, "dx" or "dy") per view built from now on."""
    built = Counter()
    for view in ("dx", "dy"):
        build = getattr(Derivation, view).fget
        monkeypatch.setattr(Derivation, view, property(
            lambda d, build=build, view=view: built.update([(id(d), view)]) or build(d)))
    return built


def test_bracket_oracle_equivalence_small(monkeypatch):
    # the oracle builds each operator's dx and dy views once per call
    built = count_view_builds(monkeypatch)
    rng = random.Random(19)
    for _ in range(50):
        d1, d2 = random_hom_op(rng), random_hom_op(rng)
        p = BiPoly.monomial(rng.randint(0, 4), rng.randint(0, 4))
        built.clear()
        got = bracket_oracle(d1, d2)
        assert built == Counter({(id(d), view): 1 for d in (d1, d2) for view in ("dx", "dy")})
        br = lie_bracket(d1, d2)
        assert br == got
        assert applied(br, p) == double_application(d1, d2, p)


def test_bracket_oracle_does_not_call_lie_bracket(monkeypatch):
    # the two routes are independent: with the closed form unavailable, the
    # oracle still returns the lemmas' closed-form brackets, over the whole
    # family i = 0..n+1, where p_{n+1,-1} = 0 is c at i = 0 and a at i = n+1
    def refuse(d1, d2):
        raise AssertionError("bracket_oracle called lie_bracket")

    monkeypatch.setattr(operators, "lie_bracket", refuse)
    rng = random.Random(31)
    for n in range(2, 6):
        for i in range(n + 2):
            a = ZERO if i == n + 1 else random_scalar(rng)
            c = ZERO if i == 0 else random_scalar(rng)
            assert bracket_oracle(*transpose_pair_ops(n, i, a, c)) == transpose_pair_bracket(n, i, a, c)
    # the quadratic identity is the case n = i = 2 on a decomposed field
    p20, p11, p02 = (random_scalar(rng) or G(1, 1) for _ in range(3))
    ops = decompose(quadratic(p20, p11, p02))
    assert bracket_oracle(ops[(1, 0)], ops[(0, 1)]) == transpose_pair_bracket(2, 2, p20, p11)


def test_lemmas_call_the_oracle_once_per_operator_pair(monkeypatch):
    # each pair's four views are built once, by its one oracle call; the
    # closed form and the expected operators build none
    built = count_view_builds(monkeypatch)
    for run, seed, pairs in ((lemma_bracket_formulas, 1, 1250), (lemma_quadratic_bracket, 0, 100)):
        built.clear()
        assert run(seed).passed
        views = Counter(view for _, view in built.elements())
        assert views == Counter(dx=2 * pairs, dy=2 * pairs)


def op_with_letter(rng, n):
    """Random operator of letter n, drawn apart from any other of that letter."""
    n1, n2 = n
    dx = BiPoly.monomial(n1 + 1, n2, random_scalar(rng)) if n2 >= 0 else BiPoly()
    dy = BiPoly.monomial(n1, n2 + 1, random_scalar(rng)) if n1 >= 0 else BiPoly()
    d = Derivation(dx, dy)
    assert not d or d.letter == n
    return d


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
        assert br == bracket_oracle(d1, d2)
        for p in (X, Y, BiPoly.monomial(rng.randint(0, 4), rng.randint(0, 4))):
            assert applied(br, p) == double_application(d1, d2, p)
    assert multi >= 20


def vanishing(d1, d2):
    """Which of s = a m1 + b m2 and t = c n1 + e n2 vanish, per letter pair."""
    kinds = Counter()
    for n, (a, b) in d1.terms.items():
        for m, (c, e) in d2.terms.items():
            s, t = a * m[0] + b * m[1], c * n[0] + e * n[1]
            kinds["both" if not (s or t) else "s only" if not s else "t only" if not t else "neither"] += 1
    return kinds


def cancelling_op(rng):
    """1-3 letters among (k, 0), (0, k) and (k, k), with halves often zero
    or opposite, so that s or t of a letter pair often vanishes."""
    t = {}
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(1, 3)
        n = rng.choice(((k, 0), (0, k), (k, k)))
        a = random_scalar(rng) or G(1)
        a, b = rng.choice(((a, ZERO), (ZERO, a), (a, -a), (a, random_scalar(rng))))
        t[n] = (a, b)
    return Derivation.from_terms(t)


def test_lie_bracket_of_pairs_with_vanishing_s_and_t_matches_oracle():
    # the closed form skips a letter pair when s and t both vanish; a pair
    # where only one of them vanishes still brackets to a nonzero operator;
    # two letter pairs with one sum n + m = n' + m' meet in linear_combination
    rng = random.Random(53)
    seen = Counter()
    for _ in range(500):
        d1, d2 = cancelling_op(rng), cancelling_op(rng)
        seen += vanishing(d1, d2)
        sums = [(n1 + m1, n2 + m2) for n1, n2 in d1.raw for m1, m2 in d2.raw]
        seen["colliding sums"] += len(set(sums)) < len(sums)
        assert lie_bracket(d1, d2) == bracket_oracle(d1, d2)
    # the x-family against the y-family of a Cauchy-Riemann alphabet
    for d in (2, 3, 4, 5):
        a = decompose(random_cr_field(rng, d))
        for n, m in product(a.letters(), repeat=2):
            (kind,) = vanishing(a[n], a[m])
            seen["CR " + kind] += 1
            br = lie_bracket(a[n], a[m])
            assert br == bracket_oracle(a[n], a[m])
            assert kind != "both" or not br
    assert all(seen[k] >= 80 for k in ("both", "s only", "t only", "neither")), seen
    assert seen["CR both"] >= 20 and seen["colliding sums"] >= 20, seen


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
    d = Derivation(BiPoly.monomial(2, 0), BiPoly())
    xy = BiPoly.monomial(1, 1)
    assert not bracket_oracle(d, d)
    xdx = Derivation(X, BiPoly())
    ydy = Derivation(BiPoly(), Y)
    assert not bracket_oracle(xdx, ydy)
    assert not double_application(xdx, ydy, xy)


def test_extreme_pair_bracket_instance():
    # p_{0,2} = 3 gives [B_{(2,-1)}, B_{(-1,2)}] = 18 xy (x d/dx - y d/dy)
    a = decompose(quadratic(0, 0, 3))
    br = lie_bracket(a[(2, -1)], a[(-1, 2)])
    assert br.dx == BiPoly.monomial(2, 1, G(18))
    assert br.dy == BiPoly.monomial(1, 2, G(-18))
    assert br == transpose_pair_bracket(2, 3, ZERO, G(3))


def test_quadratic_bracket_instance():
    # p20 = 1, p11 = i, p02 = 0 gives the quadratic identity's value
    # [B_{(1,0)}, B_{(0,1)}] = (1 - i) x^2 y d/dx + (-1 - i) x y^2 d/dy
    a = decompose(quadratic(1, G(0, 1), 0))
    br = lie_bracket(a[(1, 0)], a[(0, 1)])
    assert br.dx == BiPoly.monomial(2, 1, G(1, -1))
    assert br.dy == BiPoly.monomial(1, 2, G(-1, -1))
    assert br == transpose_pair_bracket(2, 2, G(1), G(0, 1))


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
    assert br == bracket_oracle(d_outer, d_inner)
    assert br


def test_nested_bracket_errors():
    a = decompose(quadratic(1, 2, 0))
    ops = dict(a.entries)
    with pytest.raises(InputError):
        nested_bracket((), ops)
    with pytest.raises(InputError):
        nested_bracket(((9, 9),), ops)


def test_zero_derivations_compare_equal():
    d = Derivation(BiPoly.monomial(2, 0), BiPoly.monomial(1, 1, G(2)))
    zeros = [Derivation(BiPoly(), BiPoly()), d.scale(0), d - d, lie_bracket(d, d)]
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
    return Derivation.from_terms(t)


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


def wide_terms(rng):
    """1-4 letters with components in -1..2, so pairs often share an output letter."""
    t, size = {}, rng.randint(1, 4)
    while len(t) < size:
        a, b = wide_scalar(rng), wide_scalar(rng)
        if a or b:
            t[(rng.randint(-1, 2), rng.randint(-1, 2))] = (a, b)
    return t


def wide_derivation(rng):
    return Derivation.from_terms(wide_terms(rng))


def triple(c):
    """The coefficient (a, b, d) of linear_combination for the scalar c."""
    d = lcm(c.re.denominator, c.im.denominator)
    return int(c.re * d), int(c.im * d), d


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
        assert linear_combination([(triple(c), d) for c, d in terms]) == fold
        # the same coefficients unreduced as (k a, k b, k d), and a zero (0, 0, d) term
        unreduced = []
        for c, d in terms:
            k, (a, b, e) = rng.randint(1, 10**12), triple(c)
            unreduced.append(((k * a, k * b, k * e), d))
        unreduced.insert(rng.randrange(len(unreduced) + 1),
                         ((0, 0, rng.randint(1, 10**12)), wide_derivation(rng)))
        got = linear_combination(unreduced)
        assert canonical(got) and got == fold


def test_linear_combination_cancels_to_zero():
    rng = random.Random(41)
    for _ in range(100):
        d = wide_derivation(rng)
        c, e = wide_scalar(rng), wide_scalar(rng)
        terms = [(triple(c), d), (triple(e), d), (triple(-(c + e)), d)]
        assert linear_combination(terms) == ZERO_DERIVATION
        assert linear_combination(terms).letter is None


def test_linear_combination_refuses_denominators_not_positive():
    d = Derivation.from_terms({(1, 0): (G(1), G(0, 2))})
    for c in ((1, 0, 0), (1, 0, -1), (-2, 5, -7), (0, 0, 0), (0, 0, -3)):
        with pytest.raises(InputError, match="denominator must be positive"):
            linear_combination([((1, 0, 1), d), (c, d)])


def primes(count):
    out, n = [], 2
    while len(out) < count:
        if all(n % p for p in out if p * p <= n):
            out.append(n)
        n += 1
    return out


def object_combination(terms):
    """The sum of c * d over GaussianRational pairs, letter by letter, as a Derivation."""
    total = {}
    for c, d in terms:
        total = object_sum(total, object_scale(d.terms, c))
    return Derivation.from_terms(total)


def test_deferred_reduction_over_distinct_prime_denominators():
    # every coefficient over its own prime, so each term widens the running
    # denominators it meets; a run of terms and their negations, shuffled,
    # cancels exactly part way (letters it alone touched must vanish), and
    # the negation of the rest cancels everything at the end
    rng = random.Random(47)
    ps = primes(300)
    cancelled = 0
    for _ in range(80):
        k = rng.randint(3, 20)
        chosen = rng.sample(ps, 2 * k)
        pool = [wide_derivation(rng) for _ in range(rng.randint(1, 4))]
        a, b = ([(G(Fraction(rng.randint(-60, 60), p), Fraction(rng.randint(-60, 60), p)), rng.choice(pool))
                 for p in part] for part in (chosen[:k], chosen[k:]))
        own = wide_derivation(rng)  # a letter of its own, which only the cancelling run touches
        a[0] = a[0][0] or G(1), own
        head = a + [(-c, d) for c, d in a]
        rng.shuffle(head)
        terms = head + b
        got = linear_combination([(triple(c), d) for c, d in terms])
        fold = sum((d.scale(c) for c, d in terms), ZERO_DERIVATION)
        assert canonical(got) and got == fold == object_combination(b)
        cancelled += bool(set(own.raw) - {n for _, d in b for n in d.raw})
        tail = terms + [(-c, d) for c, d in reversed(b)]
        assert linear_combination([(triple(c), d) for c, d in tail]) == ZERO_DERIVATION
    assert cancelled >= 40, cancelled


def test_deferred_reduction_of_unreduced_triples_with_large_common_factors():
    # coefficients (k a, k b, k d) whose common factor k is a large prime, a
    # power of ten or the product of the other terms' denominators: the
    # running denominators carry k until the one gcd per half at the end
    rng = random.Random(53)
    for _ in range(150):
        terms = [(wide_scalar(rng), wide_derivation(rng)) for _ in range(rng.randint(1, 6))]
        product_of_denominators = 1
        for c, _ in terms:
            product_of_denominators *= triple(c)[2]
        unreduced = []
        for c, d in terms:
            k = rng.choice([2**61 - 1, 2**89 - 1, 10**40, product_of_denominators, rng.getrandbits(100) | 1])
            a, b, e = triple(c)
            unreduced.append(((k * a, k * b, k * e), d))
        got = linear_combination(unreduced)
        fold = sum((d.scale(c) for c, d in terms), ZERO_DERIVATION)
        assert canonical(got) and got == fold == object_combination(terms)


def test_linear_combination_gcd_budget(monkeypatch):
    # a budget on the count of gcds, which no host speed changes: k terms at
    # one letter over one shared denominator cost one gcd per output letter,
    # whatever k is; a term whose denominator does not divide the running
    # one costs one more, and one whose denominator divides it none
    calls = Counter()
    real = operators.gcd

    def counting(*args):
        calls["gcd"] += 1
        return real(*args)

    monkeypatch.setattr(operators, "gcd", counting)
    rng = random.Random(59)
    d = Derivation.from_terms({(1, 1): (G(Fraction(3, 5), Fraction(-2, 5)), G(Fraction(1, 7), Fraction(4, 7)))})
    for k in (1, 2, 5, 40, 300):
        terms = [((rng.randint(1, 99), 0, 11), d) for _ in range(k)]
        calls.clear()
        got = linear_combination(terms)
        r = got.raw[(1, 1)]
        assert (r[0] or r[1]) and (r[2] or r[3]) and calls["gcd"] == 1, (k, calls)
        assert got == sum((d.scale(G(Fraction(c[0], 11))) for c, _ in terms), ZERO_DERIVATION)
    # 13 opens the letter; 17, 19 and 23 widen it; 13 * 17, 17, 13 * 17 * 19 and 1 divide it
    denominators = [13, 17, 13 * 17, 19, 17, 13 * 17 * 19, 23, 1]
    terms = [((rng.randint(1, 99), 0, e), d) for e in denominators]
    calls.clear()
    got = linear_combination(terms)
    assert calls["gcd"] == 1 + 3, calls
    assert got == sum((d.scale(G(Fraction(c[0], c[2]))) for c, _ in terms), ZERO_DERIVATION)


# --- the integer letter maps against an object route -----------------------


def canonical(d):
    """Every letter is five ints (a_re, a_im, b_re, b_im, d) over a positive
    denominator, gcd 1 over all five, and no letter is all zero."""
    for r in d.raw.values():
        assert len(r) == 5 and all(type(x) is int for x in r)
        assert r[4] > 0 and gcd(*r) == 1
        assert r[0] or r[1] or r[2] or r[3]
    return True


def object_sum(t1, t2):
    """The letter maps of GaussianRational pairs added scalar by scalar."""
    t = dict(t1)
    for n, (c, e) in t2.items():
        if n in t:
            c, e = t[n][0] + c, t[n][1] + e
        if c or e:
            t[n] = (c, e)
        else:
            t.pop(n, None)
    return t


def object_scale(t, c):
    return {n: (a * c, b * c) for n, (a, b) in t.items() if a * c or b * c}


def object_neg(t):
    return {n: (-a, -b) for n, (a, b) in t.items()}


def partner_terms(rng, t):
    """Fresh wide terms, or t with some halves negated and the rest redrawn,
    so a sum with t cancels halves and whole letters."""
    if rng.random() < 0.5:
        return wide_terms(rng)
    out = {}
    for n, (a, b) in t.items():
        a = -a if rng.random() < 0.6 else wide_scalar(rng)
        b = -b if rng.random() < 0.6 else wide_scalar(rng)
        if a or b:
            out[n] = (a, b)
    return out or wide_terms(rng)


def test_storage_arithmetic_matches_object_route():
    rng = random.Random(43)
    cancelled = 0
    for _ in range(600):
        t1 = wide_terms(rng)
        t2 = partner_terms(rng, t1)
        c, e = wide_scalar(rng), wide_scalar(rng)
        d1, d2 = Derivation.from_terms(t1), Derivation.from_terms(t2)
        total = object_sum(t1, t2)
        cancelled += len(total) < len(set(t1) | set(t2))
        results = {
            "neg": (-d1, object_neg(t1)),
            "add": (d1 + d2, total),
            "sub": (d1 - d2, object_sum(t1, object_neg(t2))),
            "scale": (d1.scale(c), object_scale(t1, c)),
            "combination": (
                linear_combination([(triple(c), d1), (triple(e), d2), ((0, 0, 1), d1),
                                    (triple(-c), d2)]),
                object_sum(object_scale(t1, c), object_scale(t2, e - c)),
            ),
        }
        for name, (got, want) in results.items():
            assert canonical(got), name
            assert got.terms == want, name
            assert got == Derivation.from_terms(want), name
    assert cancelled >= 100


def polynomial_terms(rng):
    """Wide terms on the letters a polynomial field has: n >= 0, or
    (-1, k) with only a and (k, -1) with only b."""
    t = {}
    for _ in range(rng.randint(1, 5)):
        n = (rng.randint(-1, 3), rng.randint(-1, 3))
        a = wide_scalar(rng) if n[0] >= -1 and n[1] >= 0 else ZERO
        b = wide_scalar(rng) if n[0] >= 0 and n[1] >= -1 else ZERO
        if a or b:
            t[n] = (a, b)
    return t


def test_views_match_object_route():
    rng = random.Random(47)
    for _ in range(400):
        t = polynomial_terms(rng)
        d = Derivation.from_terms(t)
        dx = BiPoly({(n1 + 1, n2): a for (n1, n2), (a, _) in t.items() if a})
        dy = BiPoly({(n1, n2 + 1): b for (n1, n2), (_, b) in t.items() if b})
        assert canonical(d) and d.terms == t
        assert d.dx == dx and d.dy == dy
        assert d.to_dict() == Derivation(dx, dy).to_dict()
        assert d == Derivation(dx, dy) == Derivation.from_terms(d.terms)
        assert d.dx.to_dict() == dx.to_dict() and d.dy.to_dict() == dy.to_dict()


def shared_factor_scalar(rng):
    """A scalar, zero one time in four, whose parts' denominators are
    products of 2, 3, 5 and 7, so two of them often share prime factors."""
    if rng.random() < 0.25:
        return ZERO

    def part():
        d = 1
        for q in (2, 3, 5, 7):
            d *= q ** rng.choice((0, 0, 1, 2, 3))
        return Fraction(rng.randint(-30, 30) * rng.choice((1, 2, 6, 35)), d)

    return GaussianRational(part(), part())


def test_join_over_one_denominator_is_lowest_terms():
    # a letter's two lowest-terms halves go over lcm(r, v): the five ints
    # equal the explicit reduction of that form by the gcd of all five
    rng = random.Random(61)
    shared = 0
    for _ in range(2000):
        a, b = shared_factor_scalar(rng), shared_factor_scalar(rng)
        if not (a or b):
            continue
        (p, q, r), (s, u, v) = ((z._a, z._b, z._d) for z in (a, b))
        shared += r != v and gcd(r, v) > 1
        e = lcm(r, v)
        whole = (p * (e // r), q * (e // r), s * (e // v), u * (e // v), e)
        g = gcd(*whole)
        want = tuple(x // g for x in whole)
        assert Derivation.from_terms({(1, 0): (a, b)}).raw[(1, 0)] == want
        dx = BiPoly({(2, 0): a}) if a else BiPoly()
        dy = BiPoly({(1, 1): b}) if b else BiPoly()
        assert Derivation(dx, dy).raw[(1, 0)] == want
    assert shared >= 400, shared
    # multi-letter derivations: the views and the terms join back to d
    for _ in range(300):
        t = {}
        for _ in range(rng.randint(1, 5)):
            n = (rng.randint(-1, 3), rng.randint(-1, 3))
            a = shared_factor_scalar(rng) if n[0] >= -1 and n[1] >= 0 else ZERO
            b = shared_factor_scalar(rng) if n[0] >= 0 and n[1] >= -1 else ZERO
            if a or b:
                t[n] = (a, b)
        d = Derivation.from_terms(t)
        assert canonical(d) and Derivation(d.dx, d.dy) == d == Derivation.from_terms(d.terms)


def test_from_terms_takes_ints_and_fraction_like_halves():
    # halves are coerced as scale(2), BiPoly and table_mould coerce them
    want = Derivation.from_terms({(1, 0): (G(1), ZERO), (0, 1): (G(Fraction(2, 3)), G(Fraction(-1, 6)))})
    got = Derivation.from_terms({(1, 0): (1, 0), (0, 1): (Fraction(2, 3), Fraction(-1, 6)), (2, 2): (0, Fraction(0))})
    assert got == want and canonical(got) and got.raw[(0, 1)] == (4, 0, -1, 0, 6)
    with pytest.raises(TypeError, match="cannot coerce str"):
        Derivation.from_terms({(1, 0): ("1", 0)})


def test_views_refuse_letters_without_a_monomial():
    # any integer letter is stored and bracketed, but x^-1 y^-1 x d/dx and
    # x^-2 y (y d/dy) have no polynomial view
    for letter, pair, view in (((-1, -1), (G(1), ZERO), "dx"), ((-2, 1), (G(4), ZERO), "dx"),
                               ((0, -3), (G(2), G(5)), "dx"), ((-2, 0), (ZERO, G(3)), "dy"),
                               ((2, -2), (ZERO, G(1, 1)), "dy")):
        d = Derivation.from_terms({letter: pair})
        assert d.terms == {letter: pair} and not lie_bracket(d, d)
        message = rf"letter \({letter[0]},{letter[1]}\) has no d/{view} monomial"
        with pytest.raises(InputError, match=message):
            getattr(d, view)
    d = Derivation.from_terms({(-1, -1): (G(1), ZERO)})
    assert d.dy == BiPoly()
    with pytest.raises(InputError, match=r"letter \(-1,-1\)"):
        str(d)


def test_equality_and_hash_are_value_equality():
    rng = random.Random(53)
    for _ in range(300):
        t = wide_terms(rng)
        d, c = Derivation.from_terms(t), wide_scalar(rng) or G(1)
        inverse = c.conj() * GaussianRational(1 / c.norm_sq().re)
        same = [d, -(-d), d.scale(c).scale(inverse), d + d - d, linear_combination([((1, 0, 1), d)])]
        assert all(x == d and hash(x) == hash(d) for x in same)
        # a half that cancels stores zero numerators
        n = next(iter(t))
        a, b = t[n]
        e = wide_scalar(rng) or G(1)
        s = Derivation.from_terms({n: (a, b)}) + Derivation.from_terms({n: (-a, e)})
        want = Derivation.from_terms({n: (G(0), b + e)})
        assert s == want and hash(s) == hash(want)
        assert not (b + e) or s.raw[n][:2] == (0, 0)
        assert want == Derivation.from_terms({n: (G(Fraction(0, 7)), b + e)})
        # all-zero pairs are dropped, so they leave no letter behind
        padded = Derivation.from_terms({**t, (5, 5): (ZERO, G(Fraction(0, 3)))})
        assert padded == d and hash(padded) == hash(d) and (5, 5) not in padded.raw


def object_independent(u, v):
    """The span test by the object determinant a*e - b*c."""
    ((a, b),), ((c, e),) = u.terms.values(), v.terms.values()
    return bool(a * e - b * c)


def test_independent_matches_object_determinant():
    rng = random.Random(59)
    outcomes = Counter()
    for _ in range(800):
        n = (rng.randint(-1, 2), rng.randint(-1, 2))
        a, b = wide_scalar(rng), wide_scalar(rng)
        if not (a or b):
            continue
        u = Derivation.from_terms({n: (a, b)})
        kind = rng.randrange(3)
        if kind == 0:  # a multiple of u: dependent
            v = u.scale(wide_scalar(rng) or G(1))
        elif kind == 1:  # zero exactly where u is zero
            c, e = wide_scalar(rng), wide_scalar(rng)
            v = Derivation.from_terms({n: (c if a else ZERO, e if b else ZERO)})
        else:
            v = Derivation.from_terms({n: (wide_scalar(rng), wide_scalar(rng))})
        if not v:
            continue
        got = _independent([((n,), u)], n, v)
        assert got == object_independent(u, v)
        assert _independent([], n, v)
        outcomes[got] += 1
    assert outcomes[True] >= 200 and outcomes[False] >= 200, outcomes
