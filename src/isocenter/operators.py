"""Homogeneous derivations, Lie brackets and word-indexed nested brackets.

Every polynomial derivation is uniquely a sum over letters n = (n1, n2)
of x^n1 y^n2 (a_n x d/dx + b_n y d/dy), and a derivation is stored as the
sparse map n -> (a_n, b_n) with no all-zero pairs.  A d/dx monomial
x^i y^j belongs to letter (i-1, j) and a d/dy monomial x^i y^j to letter
(i, j-1).  The bracket of two one-letter operators has the closed form

    [(n, a, b), (m, c, e)] = (n+m, s*c - t*a, s*e - t*b),
    s = a*m1 + b*m2,  t = c*n1 + e*n2,

extended bilinearly.  The (dx, dy) polynomial views and ``apply`` serve
the independent double-application route (``bracket_oracle``) only.  The
nested bracket of a word n1...nr is left-nested with the last letter
outermost: [B_{nr}, [B_{n_{r-1}}, ..., [B_{n2}, B_{n1}]...]].  This
nesting order is fixed project-wide.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .algebra import ZERO, BiPoly, GaussianRational
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
    """Sum of c * d over the (c, d) pairs, in place in one letter map; zero c skipped."""
    t: dict[Letter, Scalars] = {}
    for c, d in terms:
        if c:
            for n, (a, b) in d._t.items():
                _accumulate(t, n, a * c, b * c)
    return Derivation._of(t)


def _dot(p, q, r, s):
    """p*q + r*s, skipping zero products."""
    x = p * q if p and q else ZERO
    return x + r * s if r and s else x


def hom_op(letter: Letter, dx: BiPoly, dy: BiPoly) -> Derivation:
    """The operator dx d/dx + dy d/dy, checked to be zero or of this one letter."""
    d = Derivation(dx, dy)
    if d and d.letter != letter:
        raise InputError(f"operator {d} is not homogeneous of letter {letter}")
    return d


def lie_bracket(d1: Derivation, d2: Derivation) -> Derivation:
    """[d1, d2] = d1∘d2 - d2∘d1, by the closed form on each letter pair.

    If both arguments are homogeneous with letters n and m, a nonzero
    result is homogeneous with letter n + m.
    """
    t: dict[Letter, Scalars] = {}
    for n, (a, b) in d1._t.items():
        for m, (c, e) in d2._t.items():
            # s and t of the module docstring, t negated so x and y are dot products
            s = _dot(a, m[0], b, m[1])
            minus_t = _dot(c, -n[0], e, -n[1])
            x, y = _dot(s, c, minus_t, a), _dot(s, e, minus_t, b)
            if x or y:
                _accumulate(t, (n[0] + m[0], n[1] + m[1]), x, y)
    return Derivation._of(t)


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
