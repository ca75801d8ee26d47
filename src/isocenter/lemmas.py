"""Closed-form bracket formulas and the randomized lemma suites.

The closed forms are the stated expected values; every suite checks them
against both ``lie_bracket`` and brute-force double application
(``bracket_oracle``), or checks a structural statement on seeded random
instances.  All checks are exact.  The closed forms and the operator
pairs they are checked on are letter maps (``Derivation.from_terms``), so
``BiPoly`` enters only through ``decompose`` and the oracle.
"""

from __future__ import annotations

import random
from itertools import combinations

from .algebra import ZERO
from .lie_analysis import central_series, resonant_subset_trivial
from .operators import ZERO_DERIVATION, Derivation, bracket_oracle, lie_bracket
from .prenormal import projection_sum, random_mould, verify_fond3
from .prepared import Alphabet, decompose
from .records import Record
from .samples import (
    quadratic,
    random_cr_field,
    random_nonzero_scalar,
    random_scalar,
    random_ui_homogeneous,
)


class LemmaResult(Record):
    """One lemma suite's outcome, with a line on what it ran or where it failed."""

    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        self._fill(name, passed, detail)

    def to_json_obj(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def transpose_pair_bracket(n: int, i: int, a, c) -> Derivation:
    """Expected [B_{(i-1,n-i)}, B_{(n-i,i-1)}] with a = p_{i,n-i}, c = p_{n-i+1,i-1}
    for every transposed pair i = 0..n+1, reading p_{i,j} = 0 outside 0 <= i, j.

    With U = c - conj(a):
        d/dx part: [(n-i) a U + (i-1) c conj(U)] x (xy)^{n-1}
        d/dy part: -[(n-i) conj(a) conj(U) + (i-1) conj(c) U] y (xy)^{n-1}
    At i = n+1 (a = 0, c = p_{0,n}) this is the extreme pair's
    n|p_{0,n}|^2 (xy)^{n-1}(x d/dx - y d/dy).  At n = i = 2 it is the quadratic
    identity p11 (conj(p11) - p20) x^2 y d/dx + conj(p11) (conj(p20) - p11) x y^2 d/dy,
    which forces the sign of the (i-1) term in the d/dx part.
    """
    u = c - a.conj()
    cx = (n - i) * a * u + (i - 1) * c * u.conj()
    cy = -((n - i) * a.conj() * u.conj() + (i - 1) * c.conj() * u)
    return Derivation.from_terms({(n - 1, n - 1): (cx, cy)})


def transpose_pair_ops(n: int, i: int, a, c) -> tuple[Derivation, Derivation]:
    """The operator pair B_{(i-1,n-i)}, B_{(n-i,i-1)} from the two
    homogeneous coefficients a = p_{i,n-i}, c = p_{n-i+1,i-1}."""
    return (Derivation.from_terms({(i - 1, n - i): (a, c.conj())}),
            Derivation.from_terms({(n - i, i - 1): (c, a.conj())}))


def _bracket_mismatch(d1: Derivation, d2: Derivation, want: Derivation) -> str:
    """Empty when ``lie_bracket`` and ``bracket_oracle`` both give want,
    else what differs: the closed form's result, or the oracle."""
    got = lie_bracket(d1, d2)
    if got != want:
        return f"got {got}, want {want}"
    return "" if bracket_oracle(d1, d2) == want else "oracle differs"


def lemma_quadratic_bracket(seed: int) -> LemmaResult:
    draws = 100
    rng = random.Random(seed)
    for k in range(draws):
        p20, p11, p02 = (random_scalar(rng) for _ in range(3))
        ops = decompose(quadratic(p20, p11, p02)).entries
        d1, d2 = ops.get((1, 0), ZERO_DERIVATION), ops.get((0, 1), ZERO_DERIVATION)
        err = _bracket_mismatch(d1, d2, transpose_pair_bracket(2, 2, p20, p11))
        if err:
            return LemmaResult("quadratic_bracket", False, f"draw {k}: {err}")
    return LemmaResult("quadratic_bracket", True, f"{draws} draws")


def lemma_bracket_formulas(seed: int) -> LemmaResult:
    draws, max_n = 50, 6
    rng = random.Random(seed)
    for n in range(2, max_n + 1):
        for k in range(draws):
            # the extreme pair i = n+1 (a = p_{n+1,-1} = 0, c = p_{0,n}), then i = 1..n
            pairs = [(n + 1, ZERO, random_nonzero_scalar(rng))]
            pairs += [(i, random_scalar(rng), random_scalar(rng)) for i in range(1, n + 1)]
            for i, a, c in pairs:
                err = _bracket_mismatch(*transpose_pair_ops(n, i, a, c), transpose_pair_bracket(n, i, a, c))
                if err:
                    return LemmaResult("bracket_formulas", False, f"n={n} i={i} draw {k}: {err}")
    return LemmaResult("bracket_formulas", True, f"n=2..{max_n}, {draws} draws each")


def lemma_fond2(seed: int) -> LemmaResult:
    """Both quadratic coefficient conditions give order-1 nilpotency."""
    draws = 100
    rng = random.Random(seed)
    for k in range(draws):
        p11 = random_scalar(rng)
        fields = [
            quadratic(p11.conj(), p11, 0),
            quadratic(random_scalar(rng), 0, 0),
        ]
        for which, f in enumerate(fields):
            a = decompose(f)
            # each unordered pair of distinct letters once ([y, x] = -[x, y],
            # [x, x] = 0), through this module's name `lie_bracket`, not
            # `central_series`, so a test that patches that name sees it fail
            for x, y in combinations(a.letters(), 2):
                br = lie_bracket(a[x], a[y])
                if br:
                    return LemmaResult("fond2", False, f"condition {which + 1} draw {k}: [{x},{y}] = {br}")
    return LemmaResult("fond2", True, f"{draws} draws per condition")


def lemma_structure1(seed: int) -> LemmaResult:
    draws, max_d = 50, 6
    rng = random.Random(seed)
    for d in range(2, max_d + 1):
        for k in range(draws):
            f = random_ui_homogeneous(rng, d)
            report = central_series(decompose(f), 1)
            if not report.nilpotent_order1:
                (pair, br) = report.witnesses[0]
                return LemmaResult(
                    "structure1", False, f"d={d} draw {k}: [{pair}] = {br}"
                )
    return LemmaResult("structure1", True, f"d=2..{max_d}, {draws} draws each")


def _cr_structural_predicate(a: Alphabet) -> bool:
    """Every operator is a monomial multiple of x^{n+1} d/dx or y^{n+1} d/dy, n >= 1.

    That is, each letter (n1, n2) has an x-part only, with n2 = 0 and
    n1 >= 1, or a y-part only, with n1 = 0 and n2 >= 1.  The x-family and
    the y-family commute with each other, so the letters of a word with a
    nonzero nested bracket all lie in one family, and within a family the
    weights all have one sign: +n1 for x, -n2 for y.  So no resonant word
    of any length has a nonzero nested bracket: the paper's CR lemma, a
    special case of the components' certificate.  Without n1 >= 1 and
    n2 >= 1 it fails: d/dx and x^2 d/dx, the letters (-1, 0) and (1, 0),
    make the resonant word ((-1, 0), (1, 0)) with the bracket -2x d/dx.
    """
    return all(
        (not (ya or yb) and n2 == 0 and n1 >= 1) or (not (xa or xb) and n1 == 0 and n2 >= 1)
        for op in a.entries.values()
        for (n1, n2), (xa, xb, ya, yb, _) in op.raw.items()
    )


def lemma_holom(seed: int) -> LemmaResult:
    draws, max_d, max_len = 50, 5, 6
    rng = random.Random(seed)
    for d in range(2, max_d + 1):
        for k in range(draws):
            f = random_cr_field(rng, d)
            a = decompose(f)  # the CR lemma: the predicate holds, and the certificate agrees
            report = resonant_subset_trivial(a, max_len)
            if not (_cr_structural_predicate(a) and report.all_brackets_zero and report.structurally_proven):
                return LemmaResult(
                    "holom", False, f"d={d} draw {k}: witnesses={report.witnesses[:1]}"
                )
    return LemmaResult("holom", True, f"d=2..{max_d}, {draws} draws, max_len={max_len}")


def lemma_fond3(seed: int) -> LemmaResult:
    trials, max_len = 20, 6
    rng = random.Random(seed)
    cases = []
    p11 = random_scalar(rng)
    cases.append(("quadratic uniform", quadratic(p11.conj(), p11, 0), False))
    for d in range(3, 7):
        odd = d % 2 == 1
        f = random_ui_homogeneous(rng, d, force_middle_zero=odd)
        cases.append((f"homogeneous d={d}", f, True))
    for name, f, expect_zero in cases:
        a = decompose(f)
        if not verify_fond3(a, trials, max_len, seed=seed):
            return LemmaResult("fond3", False, f"{name}: projection sum != letter sum")
        if expect_zero or not a.resonant_letters():
            m = random_mould(seed + 1, support_resonant_only=True)
            if projection_sum(m, a, max_len) != ZERO_DERIVATION:
                return LemmaResult("fond3", False, f"{name}: reduction is not linear")
    return LemmaResult("fond3", True, f"{len(cases)} alphabets, {trials} moulds each")


def run_all(seed: int) -> list[LemmaResult]:
    return [
        lemma_quadratic_bracket(seed),
        lemma_bracket_formulas(seed + 1),
        lemma_fond2(seed + 2),
        lemma_structure1(seed + 3),
        lemma_holom(seed + 4),
        lemma_fond3(seed + 5),
    ]
