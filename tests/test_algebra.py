import random
import re
from collections import Counter, namedtuple
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isocenter.algebra import ZERO, BiPoly, GaussianRational, X, Y
from isocenter.errors import InputError
from isocenter.samples import random_scalar

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=9
)
scalars = st.builds(GaussianRational, rationals, rationals)
exponents = st.tuples(st.integers(0, 4), st.integers(0, 4))
polys = st.dictionaries(exponents, scalars, max_size=5).map(BiPoly)


def G(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


class TestGaussianRational:
    def test_lowest_terms(self):
        z = G(Fraction(2, 4), Fraction(-3, -6))
        assert z.re == Fraction(1, 2) and z.im == Fraction(1, 2)

    def test_conj_involution(self):
        z = G(Fraction(5, 2), Fraction(-1, 3))
        assert z.conj().conj() == z

    def test_norm_sq_real(self):
        z = G(3, -4)
        assert z.norm_sq() == G(25)
        assert z.norm_sq().im == 0

    def test_text_roundtrip(self):
        for z in (G(Fraction(5, 2)), G(0, -1), G(-1, Fraction(2, 7))):
            assert GaussianRational.parse(str(z)) == z

    def test_parse_forms(self):
        assert GaussianRational.parse("5/2+0/1i") == G(Fraction(5, 2))
        assert GaussianRational.parse("-3") == G(-3)
        assert GaussianRational.parse("2i") == G(0, 2)
        with pytest.raises(InputError):
            GaussianRational.parse("not a number")


class TestBiPoly:
    def test_additive_identity(self):
        x2 = BiPoly.monomial(2, 0)
        assert x2 + BiPoly() == x2

    def test_difference_of_squares(self):
        assert (X + Y) * (X - Y) == BiPoly.monomial(2, 0) - BiPoly.monomial(0, 2)

    def test_scale_inverse(self):
        p = BiPoly.monomial(0, 2, G(3))
        assert p.scale(Fraction(1, 3)) == BiPoly.monomial(0, 2)

    def test_partial_power_rule(self):
        p = BiPoly.monomial(2, 1)
        assert p.partial("x") == BiPoly.monomial(1, 1, G(2))
        assert p.partial("y") == BiPoly.monomial(2, 0)
        assert not BiPoly.monomial(0, 0, G(7)).partial("x")

    def test_no_zero_terms_stored(self):
        p = BiPoly({(1, 0): G(1), (0, 1): G(0)})
        assert (0, 1) not in p.terms
        assert not (p - p)

    def test_swap_conj_examples(self):
        # termwise hand oracle: (1+i) x y^2 -> (1-i) x^2 y
        p = BiPoly.monomial(1, 2, G(1, 1))
        assert p.swap_conj() == BiPoly.monomial(2, 1, G(1, -1))
        # y^2 coefficient moves to x^2 with conjugation
        q = BiPoly.monomial(0, 2, G(2, 5))
        assert q.swap_conj() == BiPoly.monomial(2, 0, G(2, -5))


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + q == q + p
    assert p * q == q * p


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_swap_conj_properties(p, q):
    assert p.swap_conj().swap_conj() == p
    assert (p + q).swap_conj() == p.swap_conj() + q.swap_conj()
    assert (p * q).swap_conj() == p.swap_conj() * q.swap_conj()


@settings(max_examples=60, deadline=None)
@given(polys)
def test_partials_commute(p):
    assert p.partial("x").partial("y") == p.partial("y").partial("x")


# Scalar kernel against the plain route: a pair of Fractions (re, im).

def canonical(re: Fraction, im: Fraction) -> tuple[int, int, int]:
    """Lowest-terms triple (a, b, d) of (a + b i)/d with d > 0."""
    d = re.denominator * im.denominator // gcd(re.denominator, im.denominator)
    return int(re * d), int(im * d), d


def agrees(z, ref) -> bool:
    """z has the reference value and is stored in lowest terms."""
    return type(z) is GaussianRational and (z._a, z._b, z._d) == canonical(*ref)


def ref_str(re: Fraction, im: Fraction) -> str:
    sign = "+" if im >= 0 else "-"
    return f"{re.numerator}/{re.denominator}{sign}{abs(im.numerator)}/{im.denominator}i"


wide = st.fractions(min_value=-50, max_value=50, max_denominator=60)
pairs = st.tuples(wide, wide)
plain = st.one_of(st.integers(-30, 30), wide)


@settings(max_examples=200, deadline=None)
@given(pairs, pairs, plain)
def test_scalar_kernel_matches_fraction_pairs(p, q, k):
    (a, b), (c, e) = p, q
    z, w = GaussianRational(a, b), GaussianRational(c, e)
    assert agrees(z, p) and (z.re, z.im) == p
    assert agrees(z + w, (a + c, b + e))
    assert agrees(z - w, (a - c, b - e))
    assert agrees(z * w, (a * c - b * e, a * e + b * c))
    assert agrees(-z, (-a, -b))
    assert agrees(z.conj(), (a, -b))
    assert agrees(z.norm_sq(), (a * a + b * b, Fraction(0)))
    assert agrees(z + k, (a + k, b)) and agrees(k + z, (a + k, b))
    assert agrees(z - k, (a - k, b)) and agrees(k - z, (k - a, -b))
    assert agrees(z * k, (a * k, b * k)) and agrees(k * z, (a * k, b * k))
    assert agrees(GaussianRational(k), (Fraction(k), Fraction(0)))
    assert (z == w) == (p == q)
    assert z == GaussianRational(a, b) and hash(z) == hash(GaussianRational(a, b))
    assert bool(z) == (p != (0, 0))
    assert str(z) == ref_str(a, b)
    assert agrees(GaussianRational.parse(str(z)), p)
    assert z.to_complex() == complex(float(a), float(b))


def test_scalar_parts_and_zero():
    assert GaussianRational() == GaussianRational(0, Fraction(0, 7)) == GaussianRational.parse("0/5")
    assert agrees(GaussianRational(Fraction(4, 6), Fraction(-1, 4)), (Fraction(2, 3), Fraction(-1, 4)))
    assert agrees(G(3, 4) * 0, (Fraction(0), Fraction(0)))
    with pytest.raises(TypeError):
        GaussianRational(0.5)
    # any value with int numerator and denominator is a rational, not in
    # lowest terms perhaps, but a denominator below 1 is refused
    ratio = namedtuple("ratio", "numerator denominator")
    assert agrees(GaussianRational(ratio(4, 6), ratio(-3, 12)), (Fraction(2, 3), Fraction(-1, 4)))
    assert agrees(G(1) - ratio(2, 4), (Fraction(1, 2), Fraction(0)))
    for bad in (ratio(1, 0), ratio(1, -2), ratio(1.0, 2)):
        with pytest.raises(TypeError):
            GaussianRational(bad)
        with pytest.raises(TypeError):
            G(1) + bad
    with pytest.raises(TypeError):  # a scalar is no part of another
        GaussianRational(G(1))


def test_scalar_operators_defer_to_unknown_operands():
    # an operand type the scalar does not know gets NotImplemented, so its
    # own reflected method runs: k * p is BiPoly's p * k
    k = G(1, 2)
    p = BiPoly({(1, 0): G(3), (0, 2): G(Fraction(1, 2), -1)})
    assert k * p == p * k == p.scale(k) and k * p != p
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        assert getattr(k, op)(p) is NotImplemented, op
        assert getattr(k, op)("x") is NotImplemented, op
    for operand in ("x", 0.5, None):
        with pytest.raises(TypeError):
            k + operand
        with pytest.raises(TypeError):
            k - operand
        with pytest.raises(TypeError):
            operand - k
        with pytest.raises(TypeError):
            k * operand
    # known operands keep their results, on either side
    assert k + 1 == 1 + k == G(2, 2) and k - Fraction(1, 2) == G(Fraction(1, 2), 2)
    assert 1 - k == -(k - 1) == G(0, -2) and Fraction(1, 2) - k == G(Fraction(-1, 2), -2)
    assert Fraction(1, 3) * k == k * Fraction(1, 3) == G(Fraction(1, 3), Fraction(2, 3))
    # the constructor and the coercion behind scale still refuse
    with pytest.raises(TypeError, match="cannot coerce str"):
        p.scale("x")
    with pytest.raises(TypeError, match="cannot make a GaussianRational"):
        GaussianRational("1")


# BiPoly's integer arithmetic against the coefficient-by-coefficient
# route on the GaussianRational objects of .terms.

def ref_add(t1, t2):
    t = dict(t1)
    for e, c in t2.items():
        s = t.get(e, ZERO) + c
        if s:
            t[e] = s
        else:
            t.pop(e, None)
    return t


def ref_mul(t1, t2):
    t = {}
    for (i1, j1), c1 in t1.items():
        for (i2, j2), c2 in t2.items():
            t = ref_add(t, {(i1 + i2, j1 + j2): c1 * c2})
    return t


def ref_scale(t, s):
    return {e: c * s for e, c in t.items() if c * s}


def ref_partial(t, var):
    k = 0 if var == "x" else 1
    return {(i - (k == 0), j - (k == 1)): c * (i, j)[k] for (i, j), c in t.items() if (i, j)[k]}


def ref_swap_conj(t):
    return {(j, i): c.conj() for (i, j), c in t.items()}


def lowest(p: BiPoly) -> bool:
    """Every stored coefficient is a nonzero int triple in lowest terms."""
    for a, b, d in p._t.values():
        assert type(a) is type(b) is type(d) is int
        assert d > 0 and gcd(a, b, d) == 1 and (a or b)
    return True


def wide_coefficient(rng):
    """Small parts over small denominators, so sums and products share
    factors, or parts near 10^25."""
    def part():
        if rng.random() < 0.7:
            return Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 4, 6, 12)))
        return Fraction(rng.randint(-10**25, 10**25), rng.randint(1, 10**25))
    return GaussianRational(part(), part())


def wide_poly(rng, size=4):
    """Up to size terms of total degree <= 3, so products collide."""
    return BiPoly({(rng.randint(0, 3), rng.randint(0, 3)): wide_coefficient(rng)
                   for _ in range(rng.randint(0, size))})


def partner(rng, p):
    """A fresh polynomial, or -p with some terms redrawn, so p + partner cancels."""
    if rng.random() < 0.4:
        return wide_poly(rng)
    return BiPoly({e: -c if rng.random() < 0.7 else wide_coefficient(rng)
                   for e, c in p.terms.items()})


def test_bipoly_arithmetic_matches_scalar_route():
    rng = random.Random(59)
    cancelled = reduced = 0
    for _ in range(600):
        p = wide_poly(rng)
        q = partner(rng, p)
        # (r + s)(r - s): the cross terms r s - s r cancel inside the product
        r, s = wide_poly(rng, 2), wide_poly(rng, 2)
        k = rng.choice((wide_coefficient(rng), rng.randint(-6, 6), Fraction(rng.randint(-6, 6), 4)))
        kz = k if isinstance(k, GaussianRational) else GaussianRational(k)
        tp, tq = p.terms, q.terms
        cancelled += len(ref_add(tp, tq)) < len(set(tp) | set(tq))
        reduced += any(gcd(c1._a * c2._a - c1._b * c2._b, c1._a * c2._b + c1._b * c2._a,
                           c1._d * c2._d) > 1 for c1 in tp.values() for c2 in tq.values())
        results = {
            "add": (p + q, ref_add(tp, tq)),
            "sub": (p - q, ref_add(tp, {e: -c for e, c in tq.items()})),
            "mul": (p * q, ref_mul(tp, tq)),
            "square difference": ((r + s) * (r - s),
                                  ref_add(ref_mul(r.terms, r.terms), ref_scale(ref_mul(s.terms, s.terms), -1))),
            "scale": (p.scale(k), ref_scale(tp, kz)),
            "scalar product": (p * k, ref_scale(tp, kz)),
            "partial x": (p.partial("x"), ref_partial(tp, "x")),
            "partial y": (p.partial("y"), ref_partial(tp, "y")),
            "swap_conj": (p.swap_conj(), ref_swap_conj(tp)),
        }
        for name, (got, want) in results.items():
            assert lowest(got), name
            assert got.terms == want, name
            assert got == BiPoly(want), name
    assert cancelled >= 100 and reduced >= 100, (cancelled, reduced)


def fraction_route_scalar(rng, bound=9):
    """random_scalar as it was first written: two Fractions through the constructor."""
    return GaussianRational(
        Fraction(rng.randint(-bound, bound), rng.randint(1, bound)),
        Fraction(rng.randint(-bound, bound), rng.randint(1, bound)),
    )


def test_random_scalar_matches_fraction_route():
    # same values and the same draws: the generator states agree after each one
    for seed in range(40):
        for bound in (1, 2, 3, 9, 12, 10**6, 10**20):
            new, old = random.Random(seed), random.Random(seed)
            for _ in range(25):
                z = random_scalar(new, bound) if bound != 9 else random_scalar(new)
                w = fraction_route_scalar(old, bound)
                assert (z._a, z._b, z._d) == (w._a, w._b, w._d)
                assert new.getstate() == old.getstate()


# GaussianRational.parse against the route it replaced: the same grammar,
# with each matched part read by Fraction.

FULL_AS_FIRST_WRITTEN = re.compile(r"^\s*([+-]?\d+(?:/\d+)?)\s*([+-]\s*\d+(?:/\d+)?)\s*i\s*$")


def fraction_route_parse(text):
    """parse as it was first written, giving the lowest-terms triple."""
    if m := FULL_AS_FIRST_WRITTEN.match(text):
        re_part, im_part = m.group(1), m.group(2).replace(" ", "")
    elif m := GaussianRational._REAL.match(text):
        re_part, im_part = m.group(1), "0"
    elif m := GaussianRational._IMAG.match(text):
        re_part, im_part = "0", m.group(1)
    else:
        raise InputError(f"cannot parse Gaussian rational: {text!r}")
    try:
        return canonical(Fraction(re_part), Fraction(im_part))
    except (ZeroDivisionError, ValueError) as exc:
        raise InputError(f"cannot parse Gaussian rational: {text!r}: {exc}") from None


def parse_outcome(parse, text):
    try:
        return parse(text)
    except InputError as exc:
        return str(exc)


def grammar_text(rng):
    """A random text of parse's grammar, sometimes with one character
    inserted, dropped or replaced."""
    def numeral():
        digits = str(rng.choice((0, 1, 6, 12, rng.randint(0, 10**6))))
        return rng.choice(("", "", "0", "00")) + digits

    def part(signs):
        text = rng.choice(signs) + numeral()
        return text + "/" + numeral() if rng.random() < 0.6 else text

    def space():
        return rng.choice(("", "", " ", "  ", "\t"))

    re_part, im_part = part(("", "+", "-")), part(("+", "-", "+ ", "-  "))
    text = rng.choice((
        space() + re_part + space() + im_part + space() + "i" + space(),
        space() + re_part + space(),
        space() + im_part.replace(" ", "").lstrip("+") + space() + "i" + space(),
    ))
    if rng.random() < 0.2:
        k = rng.randrange(len(text) + 1)
        text = text[:k] + rng.choice("0123456789+-/i .x\n") + text[k + 1 if rng.random() < 0.5 else k:]
    return text


def test_parse_matches_fraction_route():
    # the same triple, or the same InputError message, on random texts of the
    # grammar, non-lowest terms, signs and spaces, zero denominators and
    # numerals too long for int()
    rng = random.Random(71)
    long = "7" * 5000
    texts = [grammar_text(rng) for _ in range(4000)] + [
        "4/6", "-10/4+15/-6i", "-10/4+15/6i", "6/4-9/6i", "0/5", "-0/3+0/9i", "007/014", "12i", "-4/8i",
        "+1/2+3/4i", " -1 /2", "1 +  2i", "1 -   2/4 i", "\t3/9\t-\t1i\n", "+-1", "1+2", "1i+2", "", " ",
        "1/0", "-3/0", "0/0", "+3/0+1i", "1+2/0i", "1/0+2/0i", "0/0i", "٣/٤-١i", "1 +\t2i", "1- 2/3i",
        long, "-" + long, "1/" + long, long + "+1i", "1+" + long + "i", "1+1/" + long + "i",
        "1/0+" + long + "i", long + "+1/0i", long[:4300] + "/" + long[:4300],
    ]
    counts = Counter()
    for text in texts:
        got, want = parse_outcome(GaussianRational.parse, text), parse_outcome(fraction_route_parse, text)
        if isinstance(want, tuple):
            counts["value"] += 1
            assert isinstance(got, GaussianRational) and (got._a, got._b, got._d) == want, text
        elif FULL_AS_FIRST_WRITTEN.match(text) and not GaussianRational._FULL.match(text):
            # whitespace other than spaces after the imaginary part's sign: the
            # first pattern took it and Fraction refused it, the pattern now
            # refuses it itself, so the message lacks Fraction's reason
            counts["sign whitespace"] += 1
            assert got == f"cannot parse Gaussian rational: {text!r}" and want.startswith(got + ": "), text
        else:
            counts["error"] += 1
            assert got == want, text
    assert counts["value"] >= 2000 and counts["error"] >= 500 and counts["sign whitespace"] >= 2, counts
