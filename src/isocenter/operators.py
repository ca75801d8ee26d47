"""Homogeneous derivations, Lie brackets and word-indexed nested brackets.

Every polynomial derivation is uniquely a sum over letters n = (n1, n2)
of x^n1 y^n2 (a_n x d/dx + b_n y d/dy), and a derivation is stored as the
sparse map n -> (a_n, b_n) with no all-zero pairs.  A d/dx monomial
x^i y^j belongs to letter (i-1, j) and a d/dy monomial x^i y^j to letter
(i, j-1).  The bracket of two one-letter operators has the closed form

    [(n, a, b), (m, c, e)] = (n+m, s*c - t*a, s*e - t*b),
    s = a*m1 + b*m2,  t = c*n1 + e*n2,

extended bilinearly.  ``lie_bracket`` evaluates it on the integer
triples (a, b, d) of the scalars over one common denominator per letter
pair, with one gcd per output scalar.  ``linear_combination`` keeps its
running sums as raw triples, with one gcd per component and added term.
Both build scalar objects only for their result.  After a partial sum
cancels, a result may store its letters in another order than a
scalar-by-scalar sum would; no output reads that order, since the
(dx, dy) views sort by grlex.  The (dx, dy) polynomial views and
``apply`` serve the independent double-application route
(``bracket_oracle``) only.  The nested bracket of a word n1...nr is
left-nested with the last letter outermost:
[B_{nr}, [B_{n_{r-1}}, ..., [B_{n2}, B_{n1}]...]].  This nesting order is
fixed project-wide.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Mapping, Sequence

from .algebra import ZERO, BiPoly, GaussianRational, _reduced, _triple
from .errors import InputError

Letter = tuple[int, int]
Word = tuple[Letter, ...]
Scalars = tuple[GaussianRational, GaussianRational]


class Derivation:
    """First-order operator, stored as the map letter -> (a, b).

    ``letter`` is the only letter of a nonzero one-letter operator and
    None otherwise.  Instances are treated as immutable.
    """

    __slots__ = ("_t",)

    def __init__(self, dx: BiPoly, dy: BiPoly):
        t: dict[Letter, Scalars] = {(i - 1, j): (c, ZERO) for (i, j), c in dx.terms.items()}
        for (i, j), c in dy.terms.items():
            a, _ = t.get((i, j - 1), (ZERO, ZERO))
            t[(i, j - 1)] = (a, c)
        self._t = t

    @staticmethod
    def _of(t: dict[Letter, Scalars]) -> "Derivation":
        out = Derivation.__new__(Derivation)
        out._t = t
        return out

    @property
    def terms(self) -> Mapping[Letter, Scalars]:
        return self._t

    @property
    def letter(self) -> Letter | None:
        return next(iter(self._t)) if len(self._t) == 1 else None

    @property
    def dx(self) -> BiPoly:
        return BiPoly({(n1 + 1, n2): a for (n1, n2), (a, _) in self._t.items() if a})

    @property
    def dy(self) -> BiPoly:
        return BiPoly({(n1, n2 + 1): b for (n1, n2), (_, b) in self._t.items() if b})

    def split(self) -> dict[Letter, "Derivation"]:
        """The one-letter operators whose sum is this derivation."""
        return {n: Derivation._of({n: ab}) for n, ab in self._t.items()}

    def apply(self, p: BiPoly) -> BiPoly:
        return self.dx * p.partial("x") + self.dy * p.partial("y")

    def is_zero(self) -> bool:
        return not self._t

    def __bool__(self) -> bool:
        return bool(self._t)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Derivation):
            return NotImplemented
        return self._t == other._t

    def __hash__(self):
        return hash(frozenset(self._t.items()))

    def __neg__(self) -> "Derivation":
        return Derivation._of({n: (-a, -b) for n, (a, b) in self._t.items()})

    def __add__(self, other: "Derivation") -> "Derivation":
        t = dict(self._t)
        for n, (c, e) in other._t.items():
            _accumulate(t, n, c, e)
        return Derivation._of(t)

    def __sub__(self, other: "Derivation") -> "Derivation":
        return self + (-other)

    def scale(self, scalar) -> "Derivation":
        if not scalar:
            return ZERO_DERIVATION
        return Derivation._of({n: (a * scalar, b * scalar) for n, (a, b) in self._t.items()})

    def to_dict(self) -> dict:
        out = {"dx": self.dx.to_dict(), "dy": self.dy.to_dict()}
        if self.letter is not None:
            out["letter"] = f"{self.letter[0]},{self.letter[1]}"
        return out

    def __str__(self) -> str:
        tag = f" [{self.letter[0]},{self.letter[1]}]" if self.letter else ""
        return f"({self.dx})dx + ({self.dy})dy{tag}"

    __repr__ = __str__


ZERO_DERIVATION = Derivation(BiPoly.zero(), BiPoly.zero())


def _accumulate(t: dict[Letter, Scalars], n: Letter, c, e) -> None:
    """Add the scalar pair (c, e) at letter n, dropping an all-zero sum."""
    if n in t:
        c, e = t[n][0] + c, t[n][1] + e
    if c or e:
        t[n] = (c, e)
    else:
        t.pop(n, None)


def linear_combination(terms: Iterable[tuple[GaussianRational, Derivation]]) -> Derivation:
    """Sum of c * d over the (c, d) pairs, zero c skipped.

    Each letter's running pair is kept as two raw integer triples, and
    each added term c * (a, b) brings a component to lowest terms with one
    gcd.  Scalars are made only for the result, where all-zero letters are
    dropped.
    """
    acc: dict[Letter, list[int]] = {}  # n -> [pa, pb, pd, qa, qb, qd]
    for c, d in terms:
        if not c:
            continue
        ca, cb, cd = c._a, c._b, c._d
        for n, (a, b) in d._t.items():
            r = acc.get(n)
            if r is None:
                r = acc[n] = [0, 0, 1, 0, 0, 1]
            for k, z in ((0, a), (3, b)):
                za, zb = z._a, z._b
                if not (za or zb):
                    continue
                # running + c * z over one denominator, then one gcd
                f, e = cd * z._d, r[k + 2]
                u, v = ca * za - cb * zb, ca * zb + cb * za
                if e != f:
                    u, v, f = r[k] * f + u * e, r[k + 1] * f + v * e, e * f
                else:
                    u, v = r[k] + u, r[k + 1] + v
                if f != 1:
                    g = gcd(u, v, f)
                    if g != 1:
                        u, v, f = u // g, v // g, f // g
                r[k], r[k + 1], r[k + 2] = u, v, f
    return Derivation._of({
        n: (_triple(pa, pb, pd), _triple(qa, qb, qd))
        for n, (pa, pb, pd, qa, qb, qd) in acc.items()
        if pa or pb or qa or qb
    })


def hom_op(letter: Letter, dx: BiPoly, dy: BiPoly) -> Derivation:
    """The operator dx d/dx + dy d/dy, checked to be zero or of this one letter."""
    d = Derivation(dx, dy)
    if d and d.letter != letter:
        raise InputError(f"operator {d} is not homogeneous of letter {letter}")
    return d


def lie_bracket(d1: Derivation, d2: Derivation) -> Derivation:
    """[d1, d2] = d1∘d2 - d2∘d1, by the closed form on each letter pair.

    The closed form is evaluated on the integer triples of the scalars,
    over the one common denominator of the pair's four scalars, and each
    output scalar is brought to lowest terms with one gcd.  If both
    arguments are homogeneous with letters n and m, a nonzero result is
    homogeneous with letter n + m.
    """
    acc: dict[Letter, tuple[int, ...]] = {}  # n + m -> (xa, xb, ya, yb, D)
    for (n1, n2), (a, b) in d1._t.items():
        aa, ab, ad = a._a, a._b, a._d
        ba, bb, bd = b._a, b._b, b._d
        for (m1, m2), (c, e) in d2._t.items():
            ca, cb, cd = c._a, c._b, c._d
            ea, eb, ed = e._a, e._b, e._d
            # s = a*m1 + b*m2 over ad*bd, t = c*n1 + e*n2 over cd*ed
            u, v = m1 * bd, m2 * ad
            sa, sb = aa * u + ba * v, ab * u + bb * v
            u, v = n1 * ed, n2 * cd
            ta, tb = ca * u + ea * v, cb * u + eb * v
            # x = s*c - t*a and y = s*e - t*b over D = ad*bd*cd*ed
            xa = (sa * ca - sb * cb) * ed - (ta * aa - tb * ab) * bd
            xb = (sa * cb + sb * ca) * ed - (ta * ab + tb * aa) * bd
            ya = (sa * ea - sb * eb) * cd - (ta * ba - tb * bb) * ad
            yb = (sa * eb + sb * ea) * cd - (ta * bb + tb * ba) * ad
            if not (xa or xb or ya or yb):
                continue
            den = ad * bd * cd * ed
            k = (n1 + m1, n2 + m2)
            if k in acc:  # another pair gave letter k: add over the product denominator
                pa, pb, qa, qb, f = acc[k]
                xa, xb = pa * den + xa * f, pb * den + xb * f
                ya, yb = qa * den + ya * f, qb * den + yb * f
                den *= f
            acc[k] = (xa, xb, ya, yb, den)
    return Derivation._of({
        k: (_reduced(xa, xb, den), _reduced(ya, yb, den))
        for k, (xa, xb, ya, yb, den) in acc.items()
        if xa or xb or ya or yb
    })


def bracket_oracle(d1: Derivation, d2: Derivation, p: BiPoly) -> BiPoly:
    """Independent check value: d1(d2(p)) - d2(d1(p)) by double application."""
    return d1.apply(d2.apply(p)) - d2.apply(d1.apply(p))


def nested_bracket(word: Sequence[Letter], ops: Mapping[Letter, Derivation]) -> Derivation:
    """Left-nested bracket of the word's operators.

    A length-1 word returns the operator itself; longer words fold the
    next letter in as the left bracket argument.
    """
    if not word:
        raise InputError("nested bracket of the empty word is undefined")
    for letter in word:
        if letter not in ops:
            raise InputError(f"unknown letter {letter}")
    acc = ops[word[0]]
    for letter in word[1:]:
        acc = lie_bracket(ops[letter], acc)
    return acc


def word_str(word: Sequence[Letter]) -> str:
    return "·".join(f"({n1},{n2})" for n1, n2 in word)
