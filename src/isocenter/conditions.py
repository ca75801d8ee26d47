"""Coefficient-level isochronicity conditions and geometric complexity.

Each checker evaluates two independent routes (coefficient relations and
the defining polynomial identity) and insists they agree exactly; modulus
conditions are handled as identities between products with conjugates,
never via square roots.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import InputError, InternalInconsistencyError
from .records import Record

if TYPE_CHECKING:  # the checkers import these when they run, so `complexity` loads neither
    from .algebra import GaussianRational
    from .prepared import PlanarField


class ConditionVerdict(Record):
    """Whether a condition holds: ``failing_relations`` lists the residual of
    each failing relation, and is empty when it holds."""

    __slots__ = ("condition_id", "failing_relations")

    def __init__(self, condition_id: str, failing_relations: list[tuple[str, GaussianRational]]):
        self._fill(condition_id, failing_relations)

    @property
    def holds(self) -> bool:
        return not self.failing_relations

    def to_json_obj(self) -> dict:
        return {
            "condition": self.condition_id,
            "holds": self.holds,
            "failing": [
                {"relation": rel, "residual": str(res)}
                for rel, res in self.failing_relations
            ],
        }


class GeomComplexity(Record):
    """(q, m): q polynomial identities of degree at most m, in an ambient
    coefficient space of the stated dimension."""

    __slots__ = ("q", "m", "ambient_dim")

    def __init__(self, q: int, m: int, ambient_dim: int):
        self._fill(q, m, ambient_dim)

    def to_json_obj(self) -> dict:
        return {"q": self.q, "m": self.m, "ambient_dim": self.ambient_dim}


def _uniform_relations(f: PlanarField) -> list[tuple[str, GaussianRational]]:
    """Residuals of p_{0,n} = 0 and p_{i,n-i} = conj(p_{n-i+1,i-1}).

    Only slots (n, i) that hold a stored coefficient or its mirror can
    fail; they are checked in order of n, then i, with i = 0 standing for
    p_{0,n} = 0.
    """
    slots = set()
    for i, j in f.coefficients:
        n = i + j
        slots.add((n, i))  # i = 0 is the p_{0,n} relation itself
        if j + 1 <= n:
            slots.add((n, j + 1))  # the relation whose mirror is p_{i,j}
    failing = []
    for n, i in sorted(slots):
        if i == 0:
            failing.append((f"p_{{0,{n}}}=0", f.coeff(0, n)))
            continue
        res = f.coeff(i, n - i) - f.coeff(n - i + 1, i - 1).conj()
        if res:
            failing.append((f"p_{{{i},{n - i}}}=conj(p_{{{n - i + 1},{i - 1}}})", res))
    return failing


def check_uniform(f: PlanarField) -> ConditionVerdict:
    """Uniform isochronicity: y*P = x*swap_conj(P).

    Route (a) is the coefficient relations, route (b) the polynomial
    identity; the two must agree.
    """
    from .algebra import BiPoly

    failing = _uniform_relations(f)
    p = f.perturbation()
    identity_holds = (BiPoly.monomial(0, 1) * p) == (BiPoly.monomial(1, 0) * p.swap_conj())
    _routes_agree("uniform-isochronicity", identity_holds, failing)
    return ConditionVerdict("UI", failing)


def check_cauchy_riemann(f: PlanarField) -> ConditionVerdict:
    """Cauchy-Riemann condition: dP/dy = 0, i.e. p_{i,j} = 0 for j >= 1."""
    failing = [
        (f"p_{{{i},{j}}}=0", c)
        for (i, j), c in sorted(f.coefficients.items(), key=lambda kv: (sum(kv[0]), kv[0][0]))
        if j
    ]
    _routes_agree("Cauchy-Riemann", not f.perturbation().partial("y"), failing)
    return ConditionVerdict("CR", failing)


def _routes_agree(condition: str, identity_holds: bool, failing: list) -> None:
    """Raise InternalInconsistencyError unless the identity holds exactly
    when no relation fails."""
    if identity_holds != (not failing):
        raise InternalInconsistencyError(
            f"{condition} routes disagree: "
            f"identity={identity_holds}, relations_failing={len(failing)}"
        )


def classify_quadratic(f: PlanarField) -> set[str]:
    """Membership in the four quadratic isochronous-center conditions.

    Returns every satisfied condition id among Q_i..Q_iv (possibly
    several, possibly none):

    - Q_i:   p11 = 0 and p02 = 0;
    - Q_ii:  p20 = conj(p11) and p02 = 0;
    - Q_iii: p20 = 5/2 conj(p11), |p11|^2 = 4/9 |p02|^2 and
      2 p02 conj(p11) + 3 p11^2 = 0;
    - Q_iv:  p20 = 7/6 conj(p11), |p11|^2 = 4 |p02|^2 and
      2 p02 conj(p11) - p11^2 = 0.

    The last relation of Q_iii and Q_iv fixes the phase of p02 against
    p11^3; like the others it is covariant under rotation of the plane.
    Modulus relations are exact identities between squared moduli.  A
    relation with a fraction is tested with its denominators cleared,
    2 p20 = 5 conj(p11) for the first, so only integers multiply.
    """
    if f.degree != 2:
        raise InputError(f"quadratic classification needs degree 2, got {f.degree}")
    p20, p11, p02 = f.coeff(2, 0), f.coeff(1, 1), f.coeff(0, 2)
    phase = 2 * p02 * p11.conj()
    square = p11 * p11
    out = set()
    if not p11 and not p02:
        out.add("Q_i")
    if not (p20 - p11.conj()) and not p02:
        out.add("Q_ii")
    if (
        not (2 * p20 - 5 * p11.conj())
        and not (9 * p11.norm_sq() - 4 * p02.norm_sq())
        and not (phase + 3 * square)
    ):
        out.add("Q_iii")
    if (
        not (6 * p20 - 7 * p11.conj())
        and not (p11.norm_sq() - p02.norm_sq() * 4)
        and not (phase - square)
    ):
        out.add("Q_iv")
    return out


def homogeneous_uniform_verdict(f: PlanarField) -> ConditionVerdict:
    """Homogeneous uniform conditions, with the extra odd-degree relation.

    Requires p_{0,d} = 0 and p_{i,d-i} = conj(p_{d-i+1,i-1}) for i=1..d;
    for d = 2m+1 additionally p_{m+1,m} = 0.  A positive verdict implies
    (and asserts) the structural linearisability of the alphabet.
    """
    from .lie_analysis import LINEARISABLE_STRUCTURAL, structural_linearisability
    from .prepared import decompose

    if not f.is_homogeneous():
        raise InputError("field perturbation is not homogeneous")
    d = f.degree
    failing = _uniform_relations(f)
    if d % 2 == 1:
        m = (d - 1) // 2
        r = f.coeff(m + 1, m)
        if r:
            failing.append((f"p_{{{m + 1},{m}}}=0", r))
    verdict = ConditionVerdict("HOM_UNIFORM", failing)
    if verdict.holds and structural_linearisability(decompose(f), 6) != LINEARISABLE_STRUCTURAL:
        raise InternalInconsistencyError(
            "homogeneous uniform field failed the structural linearisability check"
        )
    return verdict


def geometric_complexity(condition_id: str, d: int) -> GeomComplexity:
    """Closed-form complexity of the homogeneous degree-d condition family.

    Holomorphic: (d, 1).  Uniform: (d+1, 1) for even d, (d+2, 1) for odd
    d (the odd case carries the extra middle-coefficient relation).  The
    ambient dimension is the generic coefficient count of a degree-d
    perturbation.
    """
    if type(d) is not int:  # type(), as PlanarField's degree: bool is an int subclass
        raise InputError("'degree' must be an integer")
    if d < 2:
        raise InputError(f"degree must be >= 2, got {d}")
    ambient = (d + 1) * (d + 2) // 2 - 3
    if condition_id == "CR":
        return GeomComplexity(q=d, m=1, ambient_dim=ambient)
    if condition_id == "UI":
        q = d + 1 if d % 2 == 0 else d + 2
        return GeomComplexity(q=q, m=1, ambient_dim=ambient)
    raise InputError(f"unknown condition id {condition_id!r}")
