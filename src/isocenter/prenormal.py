"""Projection-theorem sums for abstract moulds and their reductions.

A mould is any map from words to exact scalars; the concrete correction
and prenormal moulds are supplied by the caller, never computed here.
Resonant-support enforcement wraps the evaluation: non-resonant words are
sent to zero before the user function is consulted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .algebra import GaussianRational, ZERO
from .errors import InputError
from .lie_analysis import iter_nested_brackets, pairwise_brackets
from .operators import ZERO_DERIVATION, Derivation, Word, parse_word, word_str
from .prepared import Alphabet, weight

LINEARISABLE_STRUCTURAL = "LinearisableStructural"
UNKNOWN = "Unknown"


@dataclass(frozen=True)
class Mould:
    """Word -> scalar evaluation, optionally restricted to resonant support."""

    evaluate_fn: Callable[[Word], GaussianRational]
    support_resonant_only: bool = False

    def value(self, word: Word) -> GaussianRational:
        if not word:
            return ZERO
        if self.support_resonant_only and weight(word) != 0:
            return ZERO
        return self.evaluate_fn(word)

    def __add__(self, other: "Mould") -> "Mould":
        return Mould(
            lambda w: self.value(w) + other.value(w),
            support_resonant_only=False,
        )


def random_mould(seed: int, support_resonant_only: bool = True) -> Mould:
    """Seeded mould with small rational values, a pure function of the word.

    Each word gets its own generator keyed by (seed, word), so values do
    not depend on evaluation order.
    """

    def evaluate(word: Word) -> GaussianRational:
        rng = random.Random(f"{seed}|{word_str(word)}")
        return GaussianRational(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        )

    return Mould(evaluate, support_resonant_only=support_resonant_only)


def indicator_mould(word: Word) -> Mould:
    """Mould equal to 1 on one chosen word and 0 elsewhere."""
    target = tuple(word)

    def evaluate(w: Word) -> GaussianRational:
        return GaussianRational.of(1) if w == target else ZERO

    return Mould(evaluate, support_resonant_only=False)


def table_mould(entries: Mapping[Word, GaussianRational]) -> Mould:
    table = {tuple(w): v for w, v in entries.items()}

    def evaluate(w: Word) -> GaussianRational:
        return table.get(w, ZERO)

    return Mould(evaluate, support_resonant_only=False)


def mould_from_json(obj: dict) -> Mould:
    """Build a mould from its JSON spec (kinds: "random", "table")."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InputError("mould spec must be an object with a 'kind' key")
    if obj["kind"] == "random":
        if set(obj) - {"kind", "seed", "support"}:
            raise InputError(f"unknown keys in mould spec: {sorted(set(obj) - {'kind', 'seed', 'support'})}")
        support = obj.get("support", "resonant")
        if support not in ("resonant", "all"):
            raise InputError(f"unknown mould support {support!r}")
        return random_mould(int(obj.get("seed", 0)), support == "resonant")
    if obj["kind"] == "table":
        entries = {}
        for entry in obj.get("entries", []):
            if set(entry) != {"word", "value"}:
                raise InputError(f"bad mould table entry: {entry!r}")
            entries[parse_word(entry["word"])] = GaussianRational.parse(entry["value"])
        return table_mould(entries)
    raise InputError(f"unknown mould kind {obj['kind']!r}")


def projection_sum(m: Mould, a: Alphabet, max_len: int) -> Derivation:
    """Truncated bracket form of the mould-comould series.

    Evaluates  sum_{r=1..max_len} (1/r) sum_{|n|=r} M^n [B_n]  with exact
    rational 1/r factors.  The empty word never contributes.  Subtrees
    whose prefix bracket vanishes contribute nothing and are skipped.
    """
    total = ZERO_DERIVATION
    for word, w, deriv in iter_nested_brackets(
        a, max_len, resonant_only=m.support_resonant_only
    ):
        if deriv.is_zero():
            continue
        val = m.value(word)
        if not val:
            continue
        total = total + deriv.scale(val * GaussianRational.of(Fraction(1, len(word))))
    return total


def letter_sum(m: Mould, a: Alphabet, resonant_only: bool = True) -> Derivation:
    """sum over (weight-zero) letters of M^n B_n, no bracket terms."""
    total = ZERO_DERIVATION
    for n in a.letters():
        if resonant_only and weight(n) != 0:
            continue
        val = m.value((n,))
        if val:
            total = total + a[n].scale(val)
    return total


def structural_linearisability(a: Alphabet, max_len: int) -> str:
    """Mould-independent verdict from the bracket structure alone.

    LinearisableStructural when every resonant nested bracket up to
    max_len vanishes and either the holomorphic structural predicate
    holds or the alphabet is order-1 nilpotent with no weight-zero
    letters; otherwise Unknown.
    """
    from .lie_analysis import resonant_subset_trivial

    report = resonant_subset_trivial(a, max_len)
    if not report.all_brackets_zero:
        return UNKNOWN
    if report.structurally_proven:
        return LINEARISABLE_STRUCTURAL
    if pairwise_brackets(a).nilpotent_order1 and not a.resonant_letters():
        return LINEARISABLE_STRUCTURAL
    return UNKNOWN


def verify_fond3(
    a: Alphabet, trials: int, max_len: int, seed: int = 0
) -> bool:
    """Check the order-1-nilpotent reduction of the projection sum.

    For seeded resonant-supported moulds the full truncated sum must
    equal the sum over weight-zero letters alone.  Requires the alphabet
    to pass the pairwise bracket test.
    """
    if not pairwise_brackets(a).nilpotent_order1:
        raise InputError("alphabet is not nilpotent of order 1")
    for t in range(trials):
        m = random_mould(seed + t, support_resonant_only=True)
        if projection_sum(m, a, max_len) != letter_sum(m, a):
            return False
    return True
