"""Exact Gaussian-rational scalars and sparse bivariate polynomials.

Everything here is immutable and exact: scalars are complex numbers with
rational real/imaginary parts, polynomials are sparse maps from exponent
pairs to scalars with no stored zero coefficients.  Floating point never
appears in this module.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Union

from .errors import InputError

RationalLike = Union[int, Fraction]


@dataclass(frozen=True)
class GaussianRational:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def of(re: RationalLike = 0, im: RationalLike = 0) -> "GaussianRational":
        return GaussianRational(Fraction(re), Fraction(im))

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        other = _coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        other = _coerce(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other) -> "GaussianRational":
        other = _coerce(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def conj(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm_sq(self) -> "GaussianRational":
        """|z|^2 computed as z * conj(z); always has zero imaginary part."""
        return self * self.conj()

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        sign = "+" if self.im >= 0 else "-"
        return (
            f"{self.re.numerator}/{self.re.denominator}"
            f"{sign}{abs(self.im.numerator)}/{self.im.denominator}i"
        )

    _FULL = _re.compile(
        r"^\s*([+-]?\d+(?:/\d+)?)\s*([+-]\s*\d+(?:/\d+)?)\s*i\s*$"
    )
    _REAL = _re.compile(r"^\s*([+-]?\d+(?:/\d+)?)\s*$")
    _IMAG = _re.compile(r"^\s*([+-]?\d+(?:/\d+)?)\s*i\s*$")

    @staticmethod
    def parse(text: str) -> "GaussianRational":
        """Parse the text form "a/b+c/d i" (denominators optional)."""
        m = GaussianRational._FULL.match(text)
        if m:
            return GaussianRational(
                Fraction(m.group(1)), Fraction(m.group(2).replace(" ", ""))
            )
        m = GaussianRational._REAL.match(text)
        if m:
            return GaussianRational(Fraction(m.group(1)))
        m = GaussianRational._IMAG.match(text)
        if m:
            return GaussianRational(Fraction(0), Fraction(m.group(1)))
        raise InputError(f"cannot parse Gaussian rational: {text!r}")


ZERO = GaussianRational()
ONE = GaussianRational.of(1)


def _coerce(value) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(Fraction(value))
    raise TypeError(f"cannot coerce {type(value).__name__} to GaussianRational")


Exponent = tuple[int, int]


def grlex_key(e: Exponent) -> tuple[int, int]:
    """Graded lexicographic sort key: total degree, then descending x power."""
    return (e[0] + e[1], -e[0])


class BiPoly:
    """Sparse bivariate polynomial in (x, y) over GaussianRational.

    Canonical form: no zero coefficients are stored, exponents are
    nonnegative integer pairs.  Instances are treated as immutable.
    """

    __slots__ = ("_t",)

    def __init__(self, terms: Mapping[Exponent, GaussianRational] | None = None):
        t: dict[Exponent, GaussianRational] = {}
        if terms:
            for (i, j), c in terms.items():
                if i < 0 or j < 0:
                    raise InputError(f"negative exponent in term {(i, j)}")
                if c:
                    t[(i, j)] = c
        self._t = t

    @staticmethod
    def zero() -> "BiPoly":
        return BiPoly()

    @staticmethod
    def monomial(i: int, j: int, coef=ONE) -> "BiPoly":
        return BiPoly({(i, j): _coerce(coef)})

    @property
    def terms(self) -> Mapping[Exponent, GaussianRational]:
        return self._t

    def is_zero(self) -> bool:
        return not self._t

    def __bool__(self) -> bool:
        return bool(self._t)

    def __eq__(self, other) -> bool:
        return isinstance(other, BiPoly) and self._t == other._t

    def __add__(self, other: "BiPoly") -> "BiPoly":
        t = dict(self._t)
        for e, c in other._t.items():
            s = t.get(e, ZERO) + c
            if s:
                t[e] = s
            elif e in t:
                del t[e]
        out = BiPoly.__new__(BiPoly)
        out._t = t
        return out

    def __neg__(self) -> "BiPoly":
        out = BiPoly.__new__(BiPoly)
        out._t = {e: -c for e, c in self._t.items()}
        return out

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        return self + (-other)

    def __mul__(self, other) -> "BiPoly":
        if isinstance(other, BiPoly):
            t: dict[Exponent, GaussianRational] = {}
            for (i1, j1), c1 in self._t.items():
                for (i2, j2), c2 in other._t.items():
                    e = (i1 + i2, j1 + j2)
                    s = t.get(e, ZERO) + c1 * c2
                    if s:
                        t[e] = s
                    elif e in t:
                        del t[e]
            out = BiPoly.__new__(BiPoly)
            out._t = t
            return out
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, scalar) -> "BiPoly":
        s = _coerce(scalar)
        if not s:
            return BiPoly.zero()
        out = BiPoly.__new__(BiPoly)
        out._t = {e: c * s for e, c in self._t.items()}
        return out

    def partial(self, var: str) -> "BiPoly":
        """Formal partial derivative with respect to "x" or "y"."""
        if var not in ("x", "y"):
            raise InputError(f"unknown variable {var!r}")
        t: dict[Exponent, GaussianRational] = {}
        for (i, j), c in self._t.items():
            if var == "x":
                if i > 0:
                    t[(i - 1, j)] = c * i
            else:
                if j > 0:
                    t[(i, j - 1)] = c * j
        out = BiPoly.__new__(BiPoly)
        out._t = t
        return out

    def swap_conj(self) -> "BiPoly":
        """Conjugate every coefficient and transpose exponents.

        Realizes the companion polynomial rule q_{i,j} = conj(p_{j,i}):
        the result is sum conj(p_{j,i}) x^i y^j.
        """
        out = BiPoly.__new__(BiPoly)
        out._t = {(j, i): c.conj() for (i, j), c in self._t.items()}
        return out

    def is_homogeneous(self, degree: int | None = None) -> bool:
        degs = {i + j for i, j in self._t}
        if not degs:
            return True
        if len(degs) > 1:
            return False
        return degree is None or degs == {degree}

    def sorted_terms(self) -> Iterator[tuple[Exponent, GaussianRational]]:
        for e in sorted(self._t, key=grlex_key):
            yield e, self._t[e]

    def to_dict(self) -> dict[str, str]:
        """Serialize as {"i,j": "a/b+c/di"} in graded lexicographic order."""
        return {f"{i},{j}": str(c) for (i, j), c in self.sorted_terms()}

    @staticmethod
    def from_dict(data: Mapping[str, str]) -> "BiPoly":
        terms = {}
        for key, val in data.items():
            try:
                i, j = (int(part) for part in key.split(","))
            except ValueError as exc:
                raise InputError(f"bad exponent key {key!r}") from exc
            terms[(i, j)] = GaussianRational.parse(val)
        return BiPoly(terms)

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
