"""Prepared form of a planar field: alphabet extraction, weights, rebuild.

The input is the complex representation  x' = ξx + P(x,y), y' = -ξy + Q(y,x)
with y = conj(x) and Q derived from P by coefficient conjugation with
exponent transposition (never stored).  Decomposition produces the three
families of homogeneous operators; the weight of a letter (n1,n2) is kept
as the integer n1 - n2, dropping the common ξ factor (resonance and
additivity are unchanged).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from .algebra import BiPoly, GaussianRational, ZERO
from .errors import InputError, InternalInconsistencyError
from .operators import Derivation, Letter, Word

_FIELD_KEYS = {"xi_sign", "degree", "coefficients"}
_COEFF_KEYS = {"i", "j", "value"}


@dataclass(frozen=True)
class PlanarField:
    """Degree-d perturbation P plus the sign of ξ (ξ^2 = -1, default +i)."""

    degree: int
    coefficients: Mapping[tuple[int, int], GaussianRational]
    xi_sign: str = "+"

    def __post_init__(self):
        if self.degree < 2:
            raise InputError(f"degree must be >= 2, got {self.degree}")
        if self.xi_sign not in ("+", "-"):
            raise InputError(f"xi_sign must be '+' or '-', got {self.xi_sign!r}")
        clean = {}
        for (i, j), c in self.coefficients.items():
            if not (2 <= i + j <= self.degree) or i < 0 or j < 0:
                raise InputError(
                    f"coefficient exponent ({i},{j}) outside 2 <= i+j <= {self.degree}"
                )
            if c:
                clean[(i, j)] = c
        object.__setattr__(self, "coefficients", clean)

    @property
    def xi(self) -> GaussianRational:
        return GaussianRational.of(0, 1 if self.xi_sign == "+" else -1)

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
                {"i": i, "j": j, "value": str(c)}
                for (i, j), c in sorted(
                    self.coefficients.items(), key=lambda kv: (kv[0][0] + kv[0][1], -kv[0][0])
                )
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
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read field file {path}: {exc}") from exc
        return PlanarField.from_json_obj(obj)


@dataclass(frozen=True)
class Alphabet:
    """Letters with their (nonzero) homogeneous operators."""

    entries: Mapping[Letter, Derivation] = field(default_factory=dict)

    def __post_init__(self):
        ordered = {
            letter: self.entries[letter]
            for letter in sorted(self.entries, key=lambda n: (n[0] + n[1], -n[0]))
        }
        object.__setattr__(self, "entries", ordered)

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

    def weight_bounds(self) -> tuple[int, int]:
        """(min, max) letter weight; (0, 0) for the empty alphabet."""
        ws = [weight(n) for n in self.entries]
        if not ws:
            return (0, 0)
        return (min(ws), max(ws))


def weight(item: Letter | Word) -> int:
    """Weight of a letter (n1 - n2) or of a word (sum over letters)."""
    if len(item) == 2 and isinstance(item[0], int):
        return item[0] - item[1]
    return sum(n1 - n2 for n1, n2 in item)


def decompose(f: PlanarField) -> Alphabet:
    """Split the field's derivation P d/dx + Q d/dy into one-letter operators.

    For 2 <= k <= d, 1 <= i <= k this gives the three families
        B_{(i-1,k-i)} = x^{i-1} y^{k-i} (p_{i,k-i} x d/dx + conj(p_{k-i+1,i-1}) y d/dy)
        B_{(-1,k)}    = p_{0,k} y^k d/dx
        B_{(k,-1)}    = conj(p_{0,k}) x^k d/dy
    Letters with identically zero operators are omitted.
    """
    p = f.perturbation()
    return Alphabet(Derivation(p, p.swap_conj()).split())


def reconstruct(f: PlanarField) -> tuple[BiPoly, BiPoly]:
    """Apply X_lin + sum of alphabet operators to the coordinates.

    The result must equal (ξx + P, -ξy + swap_conj(P)) exactly; any
    mismatch is an invariant breach of the decomposition.
    """
    linear = Derivation(BiPoly.monomial(1, 0, f.xi), BiPoly.monomial(0, 1, -f.xi))
    total = sum(decompose(f).entries.values(), linear)
    dx, dy = total.dx, total.dy
    p = f.perturbation()
    want_dx = BiPoly.monomial(1, 0, f.xi) + p
    want_dy = BiPoly.monomial(0, 1, -f.xi) + p.swap_conj()
    if dx != want_dx or dy != want_dy:
        raise InternalInconsistencyError(
            "decomposition does not reconstruct the field: "
            f"got ({dx}, {dy}), want ({want_dx}, {want_dy})"
        )
    return dx, dy
