"""Prepared form of a planar field: alphabet extraction, weights, rebuild.

The input is the complex representation  x' = ξx + P(x,y), y' = -ξy + Q(y,x)
with y = conj(x) and Q derived from P by coefficient conjugation with
exponent transposition (never stored).  Decomposition produces one family
of homogeneous operators B_{(i-1,k-i)}, i = 0..k+1 (see ``decompose``);
the weight of a letter (n1,n2) is kept as the integer n1 - n2, dropping
the common ξ factor (resonance and additivity are unchanged).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Iterator, Mapping

from .algebra import BiPoly, GaussianRational, X, Y, ZERO, _coerce, grlex_key
from .errors import InputError, InternalInconsistencyError
from .records import Record

if TYPE_CHECKING:
    from .operators import Derivation, Letter, Word

_FIELD_KEYS = {"xi_sign", "degree", "coefficients"}
_COEFF_KEYS = {"i", "j", "value"}


class PlanarField(Record):
    """Degree-d perturbation P plus the sign of ξ (ξ^2 = -1, default +i).

    ``coefficients`` keeps the nonzero entries of the given map in its
    order, each an int, Fraction-like value or scalar made a
    ``GaussianRational``: any other value raises TypeError, and a non-int
    exponent InputError.
    """

    __slots__ = ("degree", "coefficients", "xi_sign")

    def __init__(self, degree: int, coefficients: Mapping[tuple[int, int], GaussianRational],
                 xi_sign: str = "+"):
        if degree < 2:
            raise InputError(f"degree must be >= 2, got {degree}")
        if xi_sign not in ("+", "-"):
            raise InputError(f"xi_sign must be '+' or '-', got {xi_sign!r}")
        clean = {}
        for (i, j), c in coefficients.items():
            # type() rather than isinstance, as in the loader: bool is an int subclass
            if type(i) is not int or type(j) is not int:
                raise InputError(f"coefficient exponents must be integers: {(i, j)!r}")
            if not (2 <= i + j <= degree) or i < 0 or j < 0:
                raise InputError(
                    f"coefficient exponent ({i},{j}) outside 2 <= i+j <= {degree}"
                )
            c = _coerce(c)
            if c:
                clean[(i, j)] = c
        self._fill(degree, clean, xi_sign)

    @property
    def xi(self) -> GaussianRational:
        return GaussianRational(0, 1 if self.xi_sign == "+" else -1)

    def coeff(self, i: int, j: int) -> GaussianRational:
        return self.coefficients.get((i, j), ZERO)

    def perturbation(self) -> BiPoly:
        return BiPoly(dict(self.coefficients))

    def is_homogeneous(self) -> bool:
        return all(i + j == self.degree for i, j in self.coefficients)

    def to_json_obj(self) -> dict:
        return {
            "xi_sign": self.xi_sign,
            "degree": self.degree,
            "coefficients": [
                {"i": i, "j": j, "value": str(self.coefficients[i, j])}
                for i, j in sorted(self.coefficients, key=grlex_key)
            ],
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "PlanarField":
        if not isinstance(obj, dict):
            raise InputError("field file must contain a JSON object")
        unknown = set(obj) - _FIELD_KEYS
        if unknown:
            raise InputError(f"unknown keys in field file: {sorted(unknown)}")
        if "degree" not in obj or "coefficients" not in obj:
            raise InputError("field file requires 'degree' and 'coefficients'")
        # type() rather than isinstance: JSON true/false load as bool, an int subclass
        if type(obj["degree"]) is not int:
            raise InputError("'degree' must be an integer")
        coeffs = {}
        if not isinstance(obj["coefficients"], list):
            raise InputError("'coefficients' must be a list")
        for entry in obj["coefficients"]:
            if not isinstance(entry, dict) or set(entry) != _COEFF_KEYS:
                raise InputError(f"bad coefficient entry: {entry!r}")
            if type(entry["i"]) is not int or type(entry["j"]) is not int:
                raise InputError(f"coefficient exponents must be integers: {entry!r}")
            if not isinstance(entry["value"], str):
                raise InputError(f"coefficient value must be a string: {entry!r}")
            key = (entry["i"], entry["j"])
            if key in coeffs:
                raise InputError(f"duplicate coefficient entry for {key}")
            coeffs[key] = GaussianRational.parse(entry["value"])
        return PlanarField(
            degree=obj["degree"],
            coefficients=coeffs,
            xi_sign=obj.get("xi_sign", "+"),
        )

    @staticmethod
    def load(path) -> "PlanarField":
        try:
            with open(path) as fh:
                obj = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON, UTF-8 or digit count
            raise InputError(f"cannot read field file {path}: {exc}") from exc
        return PlanarField.from_json_obj(obj)


class Alphabet(Record):
    """Letters with their nonzero homogeneous operators, in grlex letter order:
    the constructor drops a zero operator, so ``len``, ``==`` and
    ``resonant_letters`` see only the letters of the prefix tree.

    The private slot ``_trees`` holds the alphabet's comould: the nested
    brackets of the prefix tree that ``lie_analysis.iter_bracket_levels``
    builds on first use, level by level, and keeps while the alphabet
    lives, so every later central series or projection sum over it reads
    them back.  The full tree is kept under the key 0, and the tree pruned
    for resonant words of at most L letters under L.  ``_trees`` is not a
    field: ``==``, ``repr``, copy and pickle see ``entries`` only, and a
    copy starts with no tree.  The trees grow without a lock, so two
    threads must not use one alphabet at once.
    """

    __slots__ = ("entries", "_trees")

    def __init__(self, entries: Mapping[Letter, Derivation] | None = None):
        self._fill({n: entries[n] for n in sorted(entries or {}, key=grlex_key) if entries[n]})
        object.__setattr__(self, "_trees", {})

    def letters(self) -> list[Letter]:
        return list(self.entries)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, letter: Letter) -> bool:
        return letter in self.entries

    def __getitem__(self, letter: Letter) -> Derivation:
        return self.entries[letter]

    def resonant_letters(self) -> list[Letter]:
        return [n for n in self.entries if weight(n) == 0]


def weight(item: Letter | Word) -> int:
    """Weight of a letter (n1 - n2) or of a word (sum over letters)."""
    if len(item) == 2 and isinstance(item[0], int):
        return item[0] - item[1]
    return sum(n1 - n2 for n1, n2 in item)


def decompose(f: PlanarField) -> Alphabet:
    """Split the field's derivation P d/dx + Q d/dy into one-letter operators.

    For 2 <= k <= d and i = 0..k+1, reading p_{i,j} = 0 outside 0 <= i, j:
        B_{(i-1,k-i)} = x^{i-1} y^{k-i} (p_{i,k-i} x d/dx + conj(p_{k-i+1,i-1}) y d/dy)
    whose ends are B_{(-1,k)} = p_{0,k} y^k d/dx and B_{(k,-1)} = conj(p_{0,k}) x^k d/dy.
    Letters with identically zero operators are omitted.
    """
    # imported here so that loading a field does not load the operators
    from .operators import Derivation

    p = f.perturbation()
    return Alphabet(Derivation(p, p.swap_conj()).split())


def reconstruct(f: PlanarField) -> tuple[BiPoly, BiPoly]:
    """Apply X_lin + sum of alphabet operators to the coordinates.

    The result must equal (ξx + P, -ξy + swap_conj(P)) exactly; any
    mismatch is an invariant breach of the decomposition.
    """
    from .operators import Derivation, linear_combination

    linear = Derivation.from_terms({(0, 0): (f.xi, -f.xi)})
    total = linear_combination(((1, 0, 1), d) for d in (linear, *decompose(f).entries.values()))
    dx, dy = total.dx, total.dy
    p = f.perturbation()
    want_dx = X.scale(f.xi) + p
    want_dy = Y.scale(-f.xi) + p.swap_conj()
    if dx != want_dx or dy != want_dy:
        raise InternalInconsistencyError(
            "decomposition does not reconstruct the field: "
            f"got ({dx}, {dy}), want ({want_dx}, {want_dy})"
        )
    return dx, dy
