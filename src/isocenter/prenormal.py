"""Projection-theorem sums for abstract moulds and their reductions.

A mould is any map from words to exact scalars; the concrete correction
and prenormal moulds are supplied by the caller, never computed here.
Resonant-support enforcement wraps the evaluation: non-resonant words are
sent to zero before the user function is consulted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Callable, Mapping

from .algebra import ONE, GaussianRational, ZERO, _reduced
from .errors import InputError
from .lie_analysis import central_series, iter_bracket_levels, resonant_subset_trivial, twin
from .operators import Derivation, Word, lie_bracket, linear_combination
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


def _draws(seed: int, word: Word) -> tuple[int, int, int, int]:
    """The integers p, q, r, s behind ``random_mould(seed)``'s value on a word."""
    z = seed & 0xFFFFFFFFFFFFFFFF
    for letter in word:
        for c in letter:
            z = ((z ^ c) + 0x9E3779B97F4A7C15) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
            z ^= z >> 31
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
    z = (z ^ z >> 27) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
    z ^= z >> 31
    z, p = divmod(z, 19)
    z, q = divmod(z, 9)
    z, r = divmod(z, 19)
    s = z % 9
    return p - 9, q + 1, r - 9, s + 1


def random_mould(seed: int, support_resonant_only: bool = True) -> Mould:
    """Seeded mould with small rational values, a pure function of (seed, word).

    Its value on a word is p/q + (r/s) i, read off a 64-bit integer z that
    is folded from the seed and the word's letters, all arithmetic mod 2^64:

    - z starts at seed mod 2^64;
    - each letter component c, n1 before n2 and first letter first, is
      folded in as  z = ((z XOR c) + 0x9E3779B97F4A7C15) * 0xBF58476D1CE4E5B9
      and then  z = z XOR (z >> 31), with c taken mod 2^64;
    - the fold ends with splitmix64's finaliser (Steele, Lea and Flood,
      2014):  z = (z XOR z >> 30) * 0xBF58476D1CE4E5B9,
      z = (z XOR z >> 27) * 0x94D049BB133111EB,  z = z XOR z >> 31;
    - successive divmod of z by 19, 9, 19 and 9 leave remainders p + 9,
      q - 1, r + 9 and s - 1, so p and r lie in -9..9 and q and s in 1..9.

    Seeds and components may be negative or 2^64 and beyond; only their
    residues mod 2^64 count.
    """

    def evaluate(word: Word) -> GaussianRational:
        p, q, r, s = _draws(seed, word)
        return _reduced(p * s, r * q, q * s)

    return Mould(evaluate, support_resonant_only=support_resonant_only)


def indicator_mould(word: Word) -> Mould:
    """Mould equal to 1 on one chosen word and 0 elsewhere.

    Letters are taken as int tuples, so a JSON word (letters as lists) matches.
    """
    target = tuple(tuple(map(int, n)) for n in word)

    def evaluate(w: Word) -> GaussianRational:
        return GaussianRational.of(1) if w == target else ZERO

    return Mould(evaluate, support_resonant_only=False)


def table_mould(entries: Mapping[Word, GaussianRational]) -> Mould:
    table = {tuple(w): v for w, v in entries.items()}

    def evaluate(w: Word) -> GaussianRational:
        return table.get(w, ZERO)

    return Mould(evaluate, support_resonant_only=False)


def projection_sum(m: Mould, a: Alphabet, max_len: int) -> Derivation:
    """Truncated bracket form of the mould-comould series.

    Evaluates  sum_{r=1..max_len} (1/r) sum_{|n|=r} M^n [B_n]  with exact
    rational 1/r factors, one level of the prefix tree at a time.  The
    empty word never contributes.  The tree's levels hold only the words
    whose bracket is nonzero, and from level 2 on an entry (w, d) stands
    for w and twin(w), whose bracket is -d, so it is weighted by
    M(w) - M(twin w).  So below the deepest level L the mould is evaluated
    only where the word's bracket is nonzero.  Level L uses bilinearity in
    the last letter:

        sum_{|w|=L} M^w [B_w] = sum_n [B_n, S_n],  S_n = sum_{|u|=L-1} M^{un} [B_u],

    where an entry u of level L-1 of length 2 or more is weighted by
    M(u n) - M(twin(u) n).  So a length-L word costs one mould value, and
    each letter with nonzero S_n one bracket.  The mould is therefore also
    evaluated on length-L words whose own bracket vanishes: it must be a
    pure function of the word.
    """
    resonant = m.support_resonant_only
    levels = iter_bracket_levels(a, max_len, resonant)
    sums = []
    # every level but the deepest, entry by entry; at max_len 1 that is the only level
    for r, level in enumerate(islice(levels, max(max_len - 1, 1)), 1):
        sums.append(linear_combination((_class_value(m, w, r > 1), d) for w, _, d in level))
    if max_len > 1:
        twinned = max_len > 2  # the entries u of level L-1 are twin classes
        by_letter = {}  # n -> S_n of the docstring, from the entries u of level L-1
        for n in a.letters():
            wn = weight(n)
            ends = ((u + (n,), d) for u, w, d in level if not (resonant and w + wn))
            by_letter[n] = linear_combination((_class_value(m, v, twinned), d) for v, d in ends)
        brackets = ((ONE, lie_bracket(a[n], s)) for n, s in by_letter.items() if s)
        sums.append(linear_combination(brackets))
    return linear_combination((GaussianRational(Fraction(1, r)), s) for r, s in enumerate(sums, 1))


def _class_value(m: Mould, word: Word, twinned: bool) -> GaussianRational:
    """M on the word, less M on its twin when the tree entry stands for both."""
    return m.value(word) - m.value(twin(word)) if twinned else m.value(word)


def letter_sum(m: Mould, a: Alphabet) -> Derivation:
    """sum over weight-zero letters of M^n B_n, no bracket terms."""
    return linear_combination((m.value((n,)), a[n]) for n in a.resonant_letters())


def structural_linearisability(a: Alphabet, max_len: int) -> str:
    """Mould-independent verdict from the bracket structure alone.

    LinearisableStructural when every resonant nested bracket up to
    max_len vanishes and either the holomorphic structural predicate
    holds or the alphabet is order-1 nilpotent; otherwise Unknown.  The
    nilpotent route needs no separate test for weight-zero letters: such
    a letter is a resonant word of length 1 whose bracket, the operator
    itself, is nonzero, so it already fails the first condition.
    """
    report = resonant_subset_trivial(a, max_len)
    if not report.all_brackets_zero:
        return UNKNOWN
    if report.structurally_proven:
        return LINEARISABLE_STRUCTURAL
    if central_series(a, 1).nilpotent_order1:
        return LINEARISABLE_STRUCTURAL
    return UNKNOWN


def verify_fond3(
    a: Alphabet, trials: int, max_len: int, seed: int = 0
) -> bool:
    """Check the order-1-nilpotent reduction of the projection sum.

    For seeded resonant-supported moulds the full truncated sum must
    equal the sum over weight-zero letters alone.  Requires the alphabet
    to be nilpotent of order 1: every letter pair brackets to zero.
    """
    if not central_series(a, 1).nilpotent_order1:
        raise InputError("alphabet is not nilpotent of order 1")
    for t in range(trials):
        m = random_mould(seed + t, support_resonant_only=True)
        if projection_sum(m, a, max_len) != letter_sum(m, a):
            return False
    return True
