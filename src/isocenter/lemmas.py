"""Closed-form bracket formulas and the randomized lemma suites.

The closed forms are the stated expected values; every suite checks them
against brute-force double application, or checks a structural statement
on seeded random instances.  All checks are exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .algebra import X, Y, BiPoly, GaussianRational
from .lie_analysis import central_series, resonant_subset_trivial
from .operators import (
    ZERO_DERIVATION,
    Derivation,
    bracket_oracle,
    hom_op,
    lie_bracket,
)
from .prenormal import projection_sum, random_mould, verify_fond3
from .prepared import decompose
from .samples import (
    quadratic,
    random_cr_field,
    random_nonzero_scalar,
    random_scalar,
    random_ui_homogeneous,
)


@dataclass(frozen=True)
class LemmaResult:
    name: str
    passed: bool
    detail: str = ""

    def to_json_obj(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def quadratic_display_bracket(p20, p11) -> Derivation:
    """Expected [B_{(1,0)}, B_{(0,1)}] for a quadratic field.

    Scalars follow the quadratic bracket identity; the monomial carried
    by the d/dy part is x y^2 (forced by the grading: the bracket has
    letter (1,1)).
    """
    cx = p11 * (p11.conj() - p20)
    cy = p11.conj() * (p20.conj() - p11)
    return Derivation(BiPoly.monomial(2, 1, cx), BiPoly.monomial(1, 2, cy))


def extreme_pair_bracket(n: int, p0n) -> Derivation:
    """Expected [B_{(n,-1)}, B_{(-1,n)}] = n|p_{0,n}|^2 (xy)^{n-1}(x d/dx - y d/dy)."""
    c = p0n.norm_sq() * GaussianRational.of(n)
    return Derivation(BiPoly.monomial(n, n - 1, c), BiPoly.monomial(n - 1, n, -c))


def transpose_pair_bracket(n: int, i: int, a, c) -> Derivation:
    """Expected [B_{(i-1,n-i)}, B_{(n-i,i-1)}] with a = p_{i,n-i}, c = p_{n-i+1,i-1}.

    With U = c - conj(a):
        d/dx part: [(n-i) a U + (i-1) c conj(U)] x (xy)^{n-1}
        d/dy part: -[(n-i) conj(a) conj(U) + (i-1) conj(c) U] y (xy)^{n-1}
    The sign of the (i-1) term in the d/dx part is forced by consistency
    with the quadratic bracket identity (n = 2, i = 2).
    """
    u = c - a.conj()
    cx = GaussianRational.of(n - i) * a * u + GaussianRational.of(i - 1) * c * u.conj()
    cy = -(
        GaussianRational.of(n - i) * a.conj() * u.conj()
        + GaussianRational.of(i - 1) * c.conj() * u
    )
    return Derivation(BiPoly.monomial(n, n - 1, cx), BiPoly.monomial(n - 1, n, cy))


def transpose_pair_ops(n: int, i: int, a, c) -> tuple[Derivation, Derivation]:
    """The operator pair B_{(i-1,n-i)}, B_{(n-i,i-1)} from the two
    homogeneous coefficients a = p_{i,n-i}, c = p_{n-i+1,i-1}."""
    first = hom_op(
        (i - 1, n - i),
        BiPoly.monomial(i, n - i, a),
        BiPoly.monomial(i - 1, n - i + 1, c.conj()),
    )
    second = hom_op(
        (n - i, i - 1),
        BiPoly.monomial(n - i + 1, i - 1, c),
        BiPoly.monomial(n - i, i, a.conj()),
    )
    return first, second


def extreme_pair_ops(n: int, p0n) -> tuple[Derivation, Derivation]:
    """B_{(n,-1)} = conj(p_{0,n}) x^n d/dy and B_{(-1,n)} = p_{0,n} y^n d/dx."""
    first = hom_op((n, -1), BiPoly.zero(), BiPoly.monomial(n, 0, p0n.conj()))
    second = hom_op((-1, n), BiPoly.monomial(0, n, p0n), BiPoly.zero())
    return first, second


def _op(alphabet, letter) -> Derivation:
    return alphabet[letter] if letter in alphabet else ZERO_DERIVATION


def lemma_quadratic_bracket(seed: int) -> LemmaResult:
    draws = 100
    rng = random.Random(seed)
    for k in range(draws):
        p20, p11, p02 = (random_scalar(rng) for _ in range(3))
        a = decompose(quadratic(p20, p11, p02))
        d1, d2 = _op(a, (1, 0)), _op(a, (0, 1))
        got = lie_bracket(d1, d2)
        want = quadratic_display_bracket(p20, p11)
        if got != want:
            return LemmaResult(
                "quadratic_bracket", False, f"draw {k}: got {got}, want {want}"
            )
        if bracket_oracle(d1, d2, X) != want.dx or bracket_oracle(d1, d2, Y) != want.dy:
            return LemmaResult("quadratic_bracket", False, f"draw {k}: oracle differs")
    return LemmaResult("quadratic_bracket", True, f"{draws} draws")


def lemma_bracket_formulas(seed: int) -> LemmaResult:
    draws, max_n = 50, 6
    rng = random.Random(seed)
    for n in range(2, max_n + 1):
        for k in range(draws):
            p0n = random_nonzero_scalar(rng)
            d1, d2 = extreme_pair_ops(n, p0n)
            want = extreme_pair_bracket(n, p0n)
            if lie_bracket(d1, d2) != want:
                return LemmaResult(
                    "bracket_formulas", False, f"extreme pair n={n} draw {k}"
                )
            if bracket_oracle(d1, d2, X) != want.dx or bracket_oracle(d1, d2, Y) != want.dy:
                return LemmaResult(
                    "bracket_formulas", False, f"extreme pair oracle n={n} draw {k}"
                )
            for i in range(1, n + 1):
                a = random_scalar(rng)
                c = random_scalar(rng)
                d1, d2 = transpose_pair_ops(n, i, a, c)
                want = transpose_pair_bracket(n, i, a, c)
                if lie_bracket(d1, d2) != want:
                    return LemmaResult(
                        "bracket_formulas", False, f"transpose pair n={n} i={i} draw {k}"
                    )
                if (
                    bracket_oracle(d1, d2, X) != want.dx
                    or bracket_oracle(d1, d2, Y) != want.dy
                ):
                    return LemmaResult(
                        "bracket_formulas",
                        False,
                        f"transpose pair oracle n={n} i={i} draw {k}",
                    )
    return LemmaResult("bracket_formulas", True, f"n=2..{max_n}, {draws} draws each")


def lemma_fond2(seed: int) -> LemmaResult:
    """Both quadratic coefficient conditions give order-1 nilpotency."""
    draws = 100
    rng = random.Random(seed)
    for k in range(draws):
        p11 = random_scalar(rng)
        fields = [
            quadratic(p11.conj(), p11, 0),
            quadratic(random_scalar(rng), GaussianRational.of(0), 0),
        ]
        for which, f in enumerate(fields):
            a = decompose(f)
            letters = a.letters()
            for x in letters:
                for y in letters:
                    br = lie_bracket(a[x], a[y])
                    if br:
                        return LemmaResult(
                            "fond2",
                            False,
                            f"condition {which + 1} draw {k}: [{x},{y}] = {br}",
                        )
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


def lemma_holom(seed: int) -> LemmaResult:
    draws, max_d, max_len = 50, 5, 6
    rng = random.Random(seed)
    for d in range(2, max_d + 1):
        for k in range(draws):
            f = random_cr_field(rng, d)
            report = resonant_subset_trivial(decompose(f), max_len)
            if not report.all_brackets_zero or not report.structurally_proven:
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
