"""Homogeneous derivations, Lie brackets and word-indexed nested brackets.

Every polynomial derivation is uniquely a sum over letters n = (n1, n2)
of x^n1 y^n2 (a_n x d/dx + b_n y d/dy), and a derivation is stored as the
sparse map n -> (a_n, b_n) with no all-zero pairs, each pair held as five
ints over one denominator (``Derivation.raw``).  A d/dx monomial x^i y^j
belongs to letter (i-1, j) and a d/dy monomial x^i y^j to letter (i, j-1).
The bracket of two one-letter operators has the closed form

    [(n, a, b), (m, c, e)] = (n+m, s*c - t*a, s*e - t*b),
    s = a*m1 + b*m2,  t = c*n1 + e*n2,

extended bilinearly.  ``lie_bracket`` evaluates it on the stored ints,
one letter of its left operand at a time; ``linear_combination``, with
coefficients as integer triples (a, b, d) meaning (a + b i)/d, d > 0,
is the one place that adds letter maps; negation flips signs.  None of
them builds a scalar object.  ``GaussianRational`` enters only through
``from_terms``, which builds an operator as a letter map, and ``scale``'s
argument, and leaves through ``terms``, ``to_dict`` and ``str``.
``Derivation(dx, dy)`` builds one from a field's polynomials, and the
(dx, dy) views bring each half to lowest terms as a ``BiPoly`` triple.
After a partial sum cancels, a result may store its letters in another
order than a letter-by-letter sum would; no output reads that order,
since the views sort by grlex.  The views serve the independent
double-application route only: ``bracket_oracle`` returns the whole
bracket as a ``Derivation``, from each operator's two views built once
and applied on ``BiPoly``'s arithmetic, so one call checks one operator
pair against ``lie_bracket`` with ``==``.  The nested bracket of a word
n1...nr is left-nested with the last letter outermost:
[B_{nr}, [B_{n_{r-1}}, ..., [B_{n2}, B_{n1}]...]].  This nesting order is
fixed project-wide.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Mapping, Sequence

from .algebra import BiPoly, GaussianRational, _coerce, _lowest, _reduced
from .errors import InputError

Letter = tuple[int, int]
Word = tuple[Letter, ...]
Scalars = tuple[GaussianRational, GaussianRational]
Quintuple = tuple[int, int, int, int, int]


class Derivation:
    """First-order operator, stored as the map letter -> (a, b) of ``raw``'s int quintuples.

    ``letter`` is the only letter of a nonzero one-letter operator and
    None otherwise.  Instances are treated as immutable.
    """

    __slots__ = ("_t",)

    def __init__(self, dx: BiPoly, dy: BiPoly):
        t = {(i - 1, j): (p, q, 0, 0, r) for (i, j), (p, q, r) in dx._t.items()}
        for (i, j), (s, u, v) in dy._t.items():
            p, q, _, _, r = t.get((i, j - 1), (0, 0, 0, 0, v))  # no d/dx part: a zero half over v
            t[(i, j - 1)] = _join(p, q, r, s, u, v)
        self._t = t

    @staticmethod
    def from_terms(terms: Mapping[Letter, Scalars]) -> "Derivation":
        """The operator with the scalar pair (a, b) at each letter, all-zero pairs dropped.

        Each half is a ``GaussianRational``, an int or a Fraction-like
        value.  Any integer letters are taken, as the closed forms hold for
        all of them, but only a polynomial field's letters have polynomial
        views: ``dx`` and ``dy`` raise InputError on a part that has no
        monomial.
        """
        pairs = ((n, _coerce(a), _coerce(b)) for n, (a, b) in terms.items())
        return Derivation._of({n: _join(a._a, a._b, a._d, b._a, b._b, b._d) for n, a, b in pairs if a or b})

    @staticmethod
    def _of(t: dict[Letter, Quintuple]) -> "Derivation":
        out = Derivation.__new__(Derivation)
        out._t = t
        return out

    @property
    def raw(self) -> Mapping[Letter, Quintuple]:
        """The stored map letter -> (a_re, a_im, b_re, b_im, d): the pair
        ((a_re + a_im i)/d, (b_re + b_im i)/d) over one denominator d > 0,
        gcd 1 over all five ints, numerators not all zero.  The form is
        canonical, so equal derivations store equal maps."""
        return self._t

    @property
    def terms(self) -> dict[Letter, Scalars]:
        return {n: (_reduced(p, q, d), _reduced(s, u, d)) for n, (p, q, s, u, d) in self._t.items()}

    @property
    def letter(self) -> Letter | None:
        return next(iter(self._t)) if len(self._t) == 1 else None

    @property
    def dx(self) -> BiPoly:
        return BiPoly._of({(n1 + 1, n2): _lowest(p, q, d)
                           for (n1, n2), (p, q, _, _, d) in self._t.items()
                           if (p or q) and (n1 >= -1 and n2 >= 0 or _no_monomial(n1, n2, "dx"))})

    @property
    def dy(self) -> BiPoly:
        return BiPoly._of({(n1, n2 + 1): _lowest(s, u, d)
                           for (n1, n2), (_, _, s, u, d) in self._t.items()
                           if (s or u) and (n1 >= 0 and n2 >= -1 or _no_monomial(n1, n2, "dy"))})

    def split(self) -> dict[Letter, "Derivation"]:
        """The one-letter operators whose sum is this derivation."""
        return {n: Derivation._of({n: r}) for n, r in self._t.items()}

    def __bool__(self) -> bool:
        return bool(self._t)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Derivation):
            return NotImplemented
        return self._t == other._t

    def __hash__(self):
        return hash(frozenset(self._t.items()))

    def __neg__(self) -> "Derivation":
        return Derivation._of({n: (-p, -q, -s, -u, d) for n, (p, q, s, u, d) in self._t.items()})

    def __add__(self, other: "Derivation") -> "Derivation":
        return linear_combination((((1, 0, 1), self), ((1, 0, 1), other)))

    def __sub__(self, other: "Derivation") -> "Derivation":
        return self + (-other)

    def scale(self, scalar) -> "Derivation":
        c = _coerce(scalar)
        return linear_combination((((c._a, c._b, c._d), self),))

    def to_dict(self) -> dict:
        out = {"dx": self.dx.to_dict(), "dy": self.dy.to_dict()}
        if self.letter is not None:
            out["letter"] = f"{self.letter[0]},{self.letter[1]}"
        return out

    def __str__(self) -> str:
        tag = f" [{self.letter[0]},{self.letter[1]}]" if self.letter else ""
        return f"({self.dx})dx + ({self.dy})dy{tag}"

    __repr__ = __str__


ZERO_DERIVATION = Derivation._of({})


def _join(p: int, q: int, r: int, s: int, u: int, v: int) -> Quintuple:
    """The ``raw`` form of ((p + q i)/r, (s + u i)/v), two lowest-terms halves, over
    L = lcm(r, v), with one gcd (none when r == v).  No prime divides all five: one
    dividing L as often as it divides r, say, divides neither L/r nor both p and q."""
    if r != v:
        g = gcd(r, v)
        h, k = v // g, r // g
        p, q, s, u, r = p * h, q * h, s * k, u * k, r * h
    return p, q, s, u, r


def _no_monomial(n1: int, n2: int, part: str):
    """Refuse a view of letter (n1, n2), whose d/dx or d/dy part has no monomial."""
    raise InputError(f"letter ({n1},{n2}) has no d/{part} monomial")


def linear_combination(terms: Iterable[tuple[tuple[int, int, int], Derivation]]) -> Derivation:
    """Sum of c * d over the (c, d) pairs, zero c skipped.

    Each c is an integer triple (a, b, d) meaning (a + b i)/d, d > 0, not
    necessarily in lowest terms; a c with d <= 0 raises InputError.  The
    sum is accumulated unreduced (``_accumulate``) and brought to the
    canonical form at the end (``_canonical``).  All-zero letters are
    dropped.
    """
    return _canonical(_accumulate({}, terms))


def _accumulate(acc: dict[Letter, list[int]], terms) -> dict[Letter, list[int]]:
    """Add each c * d into acc, the map n -> [a_re, a_im, b_re, b_im, d] of unreduced letters.

    A row is ``raw``'s form, not yet reduced.  A term whose denominator
    divides a row's running one is scaled up to it with no gcd; any other
    widens the running denominator to the lcm, with one gcd.
    """
    for (ca, cb, cd), d in terms:
        if cd <= 0:
            raise InputError(f"coefficient denominator must be positive, got {cd}")
        if not (ca or cb):
            continue
        for n, (pa, pb, qa, qb, zd) in d._t.items():
            xa, xb, ya, yb, f = ca * pa - cb * pb, ca * pb + cb * pa, ca * qa - cb * qb, ca * qb + cb * qa, cd * zd
            r = acc.get(n)
            if r is None:
                acc[n] = [xa, xb, ya, yb, f]
                continue
            e = r[4]
            if e % f:  # widen the running denominator e to lcm(e, f) = e h = f m
                g = gcd(e, f)
                h, m = f // g, e // g
                r[:] = r[0] * h + xa * m, r[1] * h + xb * m, r[2] * h + ya * m, r[3] * h + yb * m, e * h
            else:
                m = e // f
                r[0] += xa * m
                r[1] += xb * m
                r[2] += ya * m
                r[3] += yb * m
    return acc


def _canonical(acc: dict[Letter, list[int]]) -> Derivation:
    """The derivation of an unreduced row map, each letter in ``raw``'s form with one gcd."""
    out: dict[Letter, Quintuple] = {}
    for n, (pa, pb, qa, qb, e) in acc.items():
        if pa or pb or qa or qb:
            g = gcd(pa, pb, qa, qb, e)
            out[n] = pa // g, pb // g, qa // g, qb // g, e // g
    return Derivation._of(out)


def lie_bracket(d1: Derivation, d2: Derivation) -> Derivation:
    """[d1, d2] = d1∘d2 - d2∘d1, by the closed form on letters.

    A one-letter d1 = (n, a, b) over denominator D brackets into d2 letter
    by letter: with m's scalars over E, s is over D, t over E and the
    output letter n + m's halves over D E, so the closed form runs on the
    numerators alone, and each output letter is formed once and reduced
    with one gcd; a letter m whose s and t both vanish, or whose bracket
    is zero, gives none.  Any other d1 is the ``linear_combination`` of
    its letters' brackets.  If both arguments are homogeneous with letters
    n and m, a nonzero result is homogeneous with letter n + m.
    """
    if len(d1._t) != 1:
        return linear_combination(((1, 0, 1), lie_bracket(op, d2)) for op in d1.split().values())
    (((n1, n2), (aa, ab, ba, bb, dd)),) = d1._t.items()
    out: dict[Letter, Quintuple] = {}
    for (m1, m2), (ca, cb, ea, eb, ed) in d2._t.items():
        sa, sb = aa * m1 + ba * m2, ab * m1 + bb * m2
        ta, tb = ca * n1 + ea * n2, cb * n1 + eb * n2
        if not (sa or sb or ta or tb):  # s = t = 0: this letter's bracket is zero
            continue
        xa = sa * ca - sb * cb - ta * aa + tb * ab
        xb = sa * cb + sb * ca - ta * ab - tb * aa
        ya = sa * ea - sb * eb - ta * ba + tb * bb
        yb = sa * eb + sb * ea - ta * bb - tb * ba
        if not (xa or xb or ya or yb):
            continue
        f = dd * ed
        g = gcd(xa, xb, ya, yb, f)
        out[(n1 + m1, n2 + m2)] = xa // g, xb // g, ya // g, yb // g, f // g
    return Derivation._of(out)


def bracket_oracle(d1: Derivation, d2: Derivation) -> Derivation:
    """Independent check route: [d1, d2] by double application to x and y.

    The bracket's d/dx part is d1(d2.dx) - d2(d1.dx) and its d/dy part
    d1(d2.dy) - d2(d1.dy), on ``BiPoly`` arithmetic; each operator's two
    views are built once.  ``lie_bracket`` is not called.
    """
    x1, y1, x2, y2 = d1.dx, d1.dy, d2.dx, d2.dy
    return Derivation(_apply(x1, y1, x2) - _apply(x2, y2, x1),
                      _apply(x1, y1, y2) - _apply(x2, y2, y1))


def _apply(dx: BiPoly, dy: BiPoly, p: BiPoly) -> BiPoly:
    """The operator with views (dx, dy) applied to p: dx dp/dx + dy dp/dy."""
    return dx * p.partial("x") + dy * p.partial("y")


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
