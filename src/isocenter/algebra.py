"""Exact Gaussian-rational scalars and sparse bivariate polynomials.

Everything here is immutable and exact.  A scalar is the integer triple
(a, b, d) meaning (a + b i)/d, kept in lowest terms: d > 0 and
gcd(a, b, d) = 1, so zero is (0, 0, 1) and equal values have equal
triples.  Each sum or product makes one gcd, none when the denominator
is 1.  A polynomial is a sparse map from exponent pairs to the same
triples, with no stored zero coefficients, and its arithmetic works on
the ints with one gcd per coefficient it adds or makes: scalar objects
appear only at the edge (the constructor, ``monomial``, ``scale``'s argument,
``terms``, ``sorted_terms``, ``to_dict`` and ``str``).  Floating point
never appears in this module, and ``fractions`` is imported only by the
``re`` and ``im`` properties, when called.
"""

from __future__ import annotations

import re as _re
from math import gcd
from typing import TYPE_CHECKING, Iterator, Mapping

from .errors import InputError

if TYPE_CHECKING:  # ``re`` and ``im`` import it when called, so no command loads it
    from fractions import Fraction


class GaussianRational:
    """Complex number (a + b i)/d with exact integer a, b and d.

    The constructor takes two rationals: ints, or Fraction-like values
    whose ``numerator`` and ``denominator`` are ints.  ``+``, ``-`` and
    ``*`` take an int, a Fraction-like value or a ``GaussianRational`` on
    either side; for any other operand they return ``NotImplemented``, so
    the other operand's reflected method is tried.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        r, i = _ratio(re), _ratio(im)
        if r is None or i is None:
            raise TypeError(f"cannot make a GaussianRational from {re!r}, {im!r}")
        (a, p), (b, q) = r, i
        self._a, self._b, self._d = _lowest(a * q, b * p, p * q)

    @property
    def re(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self._b, self._d)

    def __add__(self, other) -> "GaussianRational":
        if type(other) is not GaussianRational:
            other = _operand(other)
            if other is None:
                return NotImplemented
        d, f = self._d, other._d
        if d == f:
            return _reduced(self._a + other._a, self._b + other._b, d)
        return _reduced(self._a * f + other._a * d, self._b * f + other._b * d, d * f)

    __radd__ = __add__

    def __sub__(self, other) -> "GaussianRational":
        if type(other) is not GaussianRational:
            other = _operand(other)
            if other is None:
                return NotImplemented
        d, f = self._d, other._d
        if d == f:
            return _reduced(self._a - other._a, self._b - other._b, d)
        return _reduced(self._a * f - other._a * d, self._b * f - other._b * d, d * f)

    def __rsub__(self, other) -> "GaussianRational":
        return (-self).__add__(other)

    def __mul__(self, other) -> "GaussianRational":
        if type(other) is int:
            return _reduced(self._a * other, self._b * other, self._d)
        if type(other) is not GaussianRational:
            other = _operand(other)
            if other is None:
                return NotImplemented
        a, b, c, e = self._a, self._b, other._a, other._b
        return _reduced(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def __neg__(self) -> "GaussianRational":
        return _triple(-self._a, -self._b, self._d)

    def conj(self) -> "GaussianRational":
        return _triple(self._a, -self._b, self._d)

    def norm_sq(self) -> "GaussianRational":
        """|z|^2 = z * conj(z); always has zero imaginary part."""
        return _reduced(self._a * self._a + self._b * self._b, 0, self._d * self._d)

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __eq__(self, other) -> bool:
        if type(other) is not GaussianRational:
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._d))

    def to_complex(self) -> complex:
        # int true division is correctly rounded, as float(Fraction) is
        return complex(self._a / self._d, self._b / self._d)

    def __str__(self) -> str:
        a, b, d = self._a, self._b, self._d
        g, h = gcd(a, d), gcd(b, d)
        sign = "+" if b >= 0 else "-"
        return f"{a // g}/{d // g}{sign}{abs(b) // h}/{d // h}i"

    def __repr__(self) -> str:
        return f"GaussianRational({self})"

    _FULL = _re.compile(
        r"^\s*([+-]?\d+(?:/\d+)?)\s*([+-] *\d+(?:/\d+)?)\s*i\s*$"
    )
    _REAL = _re.compile(r"^\s*([+-]?\d+(?:/\d+)?)\s*$")
    _IMAG = _re.compile(r"^\s*([+-]?\d+(?:/\d+)?)\s*i\s*$")

    @staticmethod
    def parse(text: str) -> "GaussianRational":
        """Parse the text form "a/b+c/d i" (denominators optional).

        Spaces may follow the sign of the imaginary part.  Each part is
        read with ``int()``, and the value brought to lowest terms with
        one gcd.
        """
        if m := GaussianRational._FULL.match(text):
            re, im = m.group(1), m.group(2).replace(" ", "")
        elif m := GaussianRational._REAL.match(text):
            re, im = m.group(1), "0"
        elif m := GaussianRational._IMAG.match(text):
            re, im = "0", m.group(1)
        else:
            raise InputError(f"cannot parse Gaussian rational: {text!r}")
        try:
            (a, p), (b, q) = _parse_ratio(re), _parse_ratio(im)
        except (ZeroDivisionError, ValueError) as exc:
            # a zero denominator, or more digits than int() converts
            raise InputError(f"cannot parse Gaussian rational: {text!r}: {exc}") from None
        return _reduced(a * q, b * p, p * q)


def _parse_ratio(text: str) -> tuple[int, int]:
    """Numerator and denominator of a matched "n" or "n/d"; d = 0 raises."""
    num, _, den = text.partition("/")
    n, d = int(num), int(den) if den else 1
    if not d:
        raise ZeroDivisionError(f"Fraction({n}, 0)")  # worded as Fraction(n, 0) words it
    return n, d


def _ratio(value) -> tuple[int, int] | None:
    """(numerator, denominator) of an int or a Fraction-like value, else None."""
    n, d = getattr(value, "numerator", None), getattr(value, "denominator", None)
    if isinstance(n, int) and isinstance(d, int) and d > 0:
        return n, d
    return None


def _triple(a: int, b: int, d: int) -> GaussianRational:
    """The scalar (a + b i)/d from a triple already in lowest terms."""
    z = object.__new__(GaussianRational)
    z._a, z._b, z._d = a, b, d
    return z


def _lowest(a: int, b: int, d: int) -> tuple[int, int, int]:
    """The triple (a, b, d), d > 0, brought to lowest terms."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            return a // g, b // g, d // g
    return a, b, d


def _add_into(t: dict, e, a: int, b: int, d: int) -> None:
    """Add (a + b i)/d, d > 0, to t[e] with one gcd; drop the entry if it cancels."""
    z = t.get(e)
    if z is not None:
        p, q, r = z
        if r == d:
            a, b = p + a, q + b
        else:
            a, b, d = p * d + a * r, q * d + b * r, r * d
        if not (a or b):
            del t[e]
            return
    t[e] = _lowest(a, b, d)


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """The scalar (a + b i)/d for d > 0, brought to lowest terms."""
    return _triple(*_lowest(a, b, d))


ZERO = GaussianRational()
ONE = GaussianRational(1)


def _operand(value) -> GaussianRational | None:
    """A scalar, int or Fraction-like value as a scalar; None for any other type."""
    if isinstance(value, GaussianRational):
        return value
    if type(value) is int:
        return _triple(value, 0, 1)
    r = _ratio(value)
    return None if r is None else _reduced(r[0], 0, r[1])


def _coerce(value) -> GaussianRational:
    z = _operand(value)
    if z is None:
        raise TypeError(f"cannot coerce {type(value).__name__} to GaussianRational")
    return z


Exponent = tuple[int, int]


def grlex_key(e: Exponent) -> tuple[int, int]:
    """Graded lexicographic sort key: total degree, then descending x power."""
    return (e[0] + e[1], -e[0])


class BiPoly:
    """Sparse bivariate polynomial in (x, y): exponent -> lowest-terms triple.

    Instances are treated as immutable.
    """

    __slots__ = ("_t",)

    def __init__(self, terms: Mapping[Exponent, GaussianRational] | None = None):
        t: dict[Exponent, tuple[int, int, int]] = {}
        if terms:
            for (i, j), c in terms.items():
                if i < 0 or j < 0:
                    raise InputError(f"negative exponent in term {(i, j)}")
                if c:
                    c = _coerce(c)
                    t[(i, j)] = (c._a, c._b, c._d)
        self._t = t

    @staticmethod
    def _of(t: dict[Exponent, tuple[int, int, int]]) -> "BiPoly":
        """The polynomial with these lowest-terms triples, taken as canonical without a check."""
        out = BiPoly.__new__(BiPoly)
        out._t = t
        return out

    @staticmethod
    def monomial(i: int, j: int, coef=ONE) -> "BiPoly":
        return BiPoly({(i, j): coef})

    @property
    def terms(self) -> dict[Exponent, GaussianRational]:
        return {e: _triple(*c) for e, c in self._t.items()}

    def __bool__(self) -> bool:
        return bool(self._t)

    def __eq__(self, other) -> bool:
        return isinstance(other, BiPoly) and self._t == other._t

    def __add__(self, other: "BiPoly") -> "BiPoly":
        if not other._t:
            return self
        if not self._t:
            return other
        t = dict(self._t)
        for e, (a, b, d) in other._t.items():
            _add_into(t, e, a, b, d)
        return BiPoly._of(t)

    def __neg__(self) -> "BiPoly":
        return BiPoly._of({e: (-a, -b, d) for e, (a, b, d) in self._t.items()})

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        return self + (-other)

    def __mul__(self, other) -> "BiPoly":
        if not isinstance(other, BiPoly):
            return self.scale(other)
        if not other._t:
            return other
        t: dict[Exponent, tuple[int, int, int]] = {}
        for (i1, j1), (a, b, d) in self._t.items():
            for (i2, j2), (c, f, h) in other._t.items():
                _add_into(t, (i1 + i2, j1 + j2), a * c - b * f, a * f + b * c, d * h)
        return BiPoly._of(t)

    __rmul__ = __mul__

    def scale(self, scalar) -> "BiPoly":
        s = _coerce(scalar)
        c, f, h = s._a, s._b, s._d
        if not (c or f):
            return BiPoly()
        return BiPoly._of({e: _lowest(a * c - b * f, a * f + b * c, d * h)
                           for e, (a, b, d) in self._t.items()})

    def partial(self, var: str) -> "BiPoly":
        """Formal partial derivative with respect to "x" or "y"."""
        if var == "x":
            return BiPoly._of({(i - 1, j): _lowest(a * i, b * i, d)
                               for (i, j), (a, b, d) in self._t.items() if i})
        if var == "y":
            return BiPoly._of({(i, j - 1): _lowest(a * j, b * j, d)
                               for (i, j), (a, b, d) in self._t.items() if j})
        raise InputError(f"unknown variable {var!r}")

    def swap_conj(self) -> "BiPoly":
        """Conjugate every coefficient and transpose exponents.

        Realizes the companion polynomial rule q_{i,j} = conj(p_{j,i}):
        the result is sum conj(p_{j,i}) x^i y^j.
        """
        return BiPoly._of({(j, i): (a, -b, d) for (i, j), (a, b, d) in self._t.items()})

    def is_homogeneous(self, degree: int | None = None) -> bool:
        degs = {i + j for i, j in self._t}
        if not degs:
            return True
        if len(degs) > 1:
            return False
        return degree is None or degs == {degree}

    def sorted_terms(self) -> Iterator[tuple[Exponent, GaussianRational]]:
        for e in sorted(self._t, key=grlex_key):
            yield e, _triple(*self._t[e])

    def to_dict(self) -> dict[str, str]:
        """Serialize as {"i,j": "a/b+c/di"} in graded lexicographic order."""
        return {f"{i},{j}": str(c) for (i, j), c in self.sorted_terms()}

    def __str__(self) -> str:
        if not self._t:
            return "0"
        parts = []
        for (i, j), c in self.sorted_terms():
            mon = "".join(
                s
                for s in (
                    f"x^{i}" if i > 1 else ("x" if i == 1 else ""),
                    f"y^{j}" if j > 1 else ("y" if j == 1 else ""),
                )
                if s
            )
            parts.append(f"({c}){'*' + mon if mon else ''}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"BiPoly({self})"


X = BiPoly.monomial(1, 0)
Y = BiPoly.monomial(0, 1)
