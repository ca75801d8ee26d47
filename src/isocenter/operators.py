"""Homogeneous derivations, Lie brackets and word-indexed nested brackets.

Every polynomial derivation is uniquely a sum over letters n = (n1, n2)
of x^n1 y^n2 (a_n x d/dx + b_n y d/dy), and a derivation is stored as the
sparse map n -> (a_n, b_n) with no all-zero pairs, each pair held as the
six ints (a_re, a_im, a_den, b_re, b_im, b_den) with each half in lowest
terms, so a zero half is (0, 0, 1).  A d/dx monomial x^i y^j belongs to
letter (i-1, j) and a d/dy monomial x^i y^j to letter (i, j-1).  The
bracket of two one-letter operators has the closed form

    [(n, a, b), (m, c, e)] = (n+m, s*c - t*a, s*e - t*b),
    s = a*m1 + b*m2,  t = c*n1 + e*n2,

extended bilinearly.  ``lie_bracket`` evaluates it on the stored ints
over one common denominator per letter pair, with one gcd per output
half, and skips a pair whose s and t both vanish; ``linear_combination``
takes its coefficients as integer triples (a, b, d) meaning (a + b i)/d,
d > 0, keeps each letter's halves unreduced over a running denominator,
widened to the lcm with one gcd only by a term whose denominator does not
divide it, and brings each output half to lowest terms with one gcd at
the end; negation flips signs.
None of them builds a scalar object: ``GaussianRational`` appears only
in ``terms``, ``to_dict``, ``str``, ``from_terms`` and ``scale``'s
argument.  The (dx, dy) views hand each half's triple straight to
``BiPoly``, which stores the same triples, and ``Derivation(dx, dy)``
reads them back.  After a partial sum cancels, a result may store its
letters in another order than a letter-by-letter sum would; no output
reads that order, since the (dx, dy) views sort by grlex.  The (dx, dy)
polynomial views serve the independent double-application route only:
``bracket_oracle`` returns the whole bracket as a
``Derivation``, from each operator's two views built once and applied on
``BiPoly``'s arithmetic, so one call checks one operator pair against
``lie_bracket`` with ``==``.  The nested bracket of a word n1...nr is
left-nested with the last letter outermost:
[B_{nr}, [B_{n_{r-1}}, ..., [B_{n2}, B_{n1}]...]].  This nesting order is
fixed project-wide.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Mapping, Sequence

from .algebra import BiPoly, GaussianRational, _coerce, _triple
from .errors import InputError

Letter = tuple[int, int]
Word = tuple[Letter, ...]
Scalars = tuple[GaussianRational, GaussianRational]
Sextuple = tuple[int, int, int, int, int, int]


class Derivation:
    """First-order operator, stored as the map letter -> (a, b) of int sextuples.

    ``letter`` is the only letter of a nonzero one-letter operator and
    None otherwise.  Instances are treated as immutable.
    """

    __slots__ = ("_t",)

    def __init__(self, dx: BiPoly, dy: BiPoly):
        t = {(i - 1, j): c + (0, 0, 1) for (i, j), c in dx._t.items()}
        for (i, j), c in dy._t.items():
            n = (i, j - 1)
            t[n] = t.get(n, (0, 0, 1))[:3] + c
        self._t = t

    @staticmethod
    def from_terms(terms: Mapping[Letter, Scalars]) -> "Derivation":
        """The operator with the scalar pair (a, b) at each letter, all-zero pairs dropped.

        Any integer letters are taken, as the closed forms hold for all of
        them, but only a polynomial field's letters have polynomial views:
        ``dx`` and ``dy`` raise InputError on a part that has no monomial.
        """
        return Derivation._of({
            n: (a._a, a._b, a._d, b._a, b._b, b._d) for n, (a, b) in terms.items() if a or b
        })

    @staticmethod
    def _of(t: dict[Letter, Sextuple]) -> "Derivation":
        out = Derivation.__new__(Derivation)
        out._t = t
        return out

    @property
    def raw(self) -> Mapping[Letter, Sextuple]:
        """The stored map letter -> (a_re, a_im, a_den, b_re, b_im, b_den)."""
        return self._t

    @property
    def terms(self) -> dict[Letter, Scalars]:
        return {n: (_triple(p, q, r), _triple(s, u, v))
                for n, (p, q, r, s, u, v) in self._t.items()}

    @property
    def letter(self) -> Letter | None:
        return next(iter(self._t)) if len(self._t) == 1 else None

    @property
    def dx(self) -> BiPoly:
        return BiPoly._of({(n1 + 1, n2): (p, q, r)
                           for (n1, n2), (p, q, r, _, _, _) in self._t.items()
                           if (p or q) and (n1 >= -1 and n2 >= 0 or _no_monomial(n1, n2, "dx"))})

    @property
    def dy(self) -> BiPoly:
        return BiPoly._of({(n1, n2 + 1): (s, u, v)
                           for (n1, n2), (_, _, _, s, u, v) in self._t.items()
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
        return Derivation._of({n: (-p, -q, r, -s, -u, v)
                               for n, (p, q, r, s, u, v) in self._t.items()})

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


def _no_monomial(n1: int, n2: int, part: str):
    """Refuse a view of letter (n1, n2), whose d/dx or d/dy part has no monomial."""
    raise InputError(f"letter ({n1},{n2}) has no d/{part} monomial")


def linear_combination(terms: Iterable[tuple[tuple[int, int, int], Derivation]]) -> Derivation:
    """Sum of c * d over the (c, d) pairs, zero c skipped.

    Each c is an integer triple (a, b, d) meaning (a + b i)/d, d > 0, not
    necessarily in lowest terms; a c with d <= 0 raises InputError.  Each
    letter's running halves are unreduced numerators over a running
    denominator (``_accumulate``), and each half is brought to lowest terms
    with one gcd at the end (``_canonical``), so the result is canonical.
    All-zero letters are dropped.
    """
    return _canonical(_accumulate({}, terms))


def _accumulate(acc: dict[Letter, list[int]], terms) -> dict[Letter, list[int]]:
    """Add each c * d into acc, the map n -> [pa, pb, pd, qa, qb, qd] of unreduced halves.

    A term whose denominator divides a half's running one is scaled up to
    it with no gcd; any other widens the running denominator to the lcm,
    with one gcd, or with none while the running one is 1.
    """
    for (ca, cb, cd), d in terms:
        if cd <= 0:
            raise InputError(f"coefficient denominator must be positive, got {cd}")
        if not (ca or cb):
            continue
        for n, z in d._t.items():
            r = acc.get(n)
            if r is None:
                r = acc[n] = [0, 0, 1, 0, 0, 1]
            for k in (0, 3):
                za, zb = z[k], z[k + 1]
                if not (za or zb):
                    continue
                f, e = cd * z[k + 2], r[k + 2]
                u, v = ca * za - cb * zb, ca * zb + cb * za
                if e % f:  # widen the running denominator e to lcm(e, f) = e h = f m
                    g = gcd(e, f) if e != 1 else 1
                    h, m = f // g, e // g
                    r[k], r[k + 1], r[k + 2] = r[k] * h + u * m, r[k + 1] * h + v * m, e * h
                else:
                    if e != f:
                        m = e // f
                        u, v = u * m, v * m
                    r[k] += u
                    r[k + 1] += v
    return acc


def _canonical(acc: dict[Letter, list[int]]) -> Derivation:
    """The derivation of ``_accumulate``'s map, each half in lowest terms with one gcd."""
    out: dict[Letter, Sextuple] = {}
    for n, (pa, pb, pd, qa, qb, qd) in acc.items():
        if pa or pb or qa or qb:
            g, h = gcd(pa, pb, pd), gcd(qa, qb, qd)
            out[n] = pa // g, pb // g, pd // g, qa // h, qb // h, qd // h
    return Derivation._of(out)


def hom_op(letter: Letter, dx: BiPoly, dy: BiPoly) -> Derivation:
    """The operator dx d/dx + dy d/dy, checked to be zero or of this one letter."""
    d = Derivation(dx, dy)
    if d and d.letter != letter:
        raise InputError(f"operator {d} is not homogeneous of letter {letter}")
    return d


def lie_bracket(d1: Derivation, d2: Derivation) -> Derivation:
    """[d1, d2] = d1∘d2 - d2∘d1, by the closed form on each letter pair.

    The closed form is evaluated on the stored ints, over the one common
    denominator of the pair's four scalars, and each output half is
    brought to lowest terms with one gcd; a pair whose s and t both
    vanish brackets to zero and is skipped.  If both
    arguments are homogeneous with letters n and m, a nonzero result is
    homogeneous with letter n + m.
    """
    out: dict[Letter, Sextuple] = {}
    for (n1, n2), (aa, ab, ad, ba, bb, bd) in d1._t.items():
        for (m1, m2), (ca, cb, cd, ea, eb, ed) in d2._t.items():
            # s = a*m1 + b*m2 over ad*bd, t = c*n1 + e*n2 over cd*ed
            u, v = m1 * bd, m2 * ad
            sa, sb = aa * u + ba * v, ab * u + bb * v
            u, v = n1 * ed, n2 * cd
            ta, tb = ca * u + ea * v, cb * u + eb * v
            if not (sa or sb or ta or tb):  # s = t = 0: this pair's bracket is zero
                continue
            # x = s*c - t*a and y = s*e - t*b over D = ad*bd*cd*ed
            xa = (sa * ca - sb * cb) * ed - (ta * aa - tb * ab) * bd
            xb = (sa * cb + sb * ca) * ed - (ta * ab + tb * aa) * bd
            ya = (sa * ea - sb * eb) * cd - (ta * ba - tb * bb) * ad
            yb = (sa * eb + sb * ea) * cd - (ta * bb + tb * ba) * ad
            if not (xa or xb or ya or yb):
                continue
            xd = yd = ad * bd * cd * ed
            k = (n1 + m1, n2 + m2)
            if k in out:  # another pair gave letter k: add each half over the product denominator
                pa, pb, pd, qa, qb, qd = out.pop(k)
                xa, xb, xd = pa * xd + xa * pd, pb * xd + xb * pd, pd * xd
                ya, yb, yd = qa * yd + ya * qd, qb * yd + yb * qd, qd * yd
                if not (xa or xb or ya or yb):
                    continue
            g, h = gcd(xa, xb, xd), gcd(ya, yb, yd)
            out[k] = xa // g, xb // g, xd // g, ya // h, yb // h, yd // h
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
