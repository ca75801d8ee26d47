"""Structure analysis of the Lie algebra generated by the alphabet operators.

Covers the descending central series (truncated, generating sets only),
the order-1 nilpotency test, resonant-word enumeration and the bounded
triviality test of the resonant bracket subset.  Nested brackets are
walked over the word prefix tree with zero-pruning: once a prefix bracket
vanishes, every extension vanishes and the subtree is skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Iterator

from .errors import InputError
from .operators import Derivation, Letter, Word, lie_bracket
from .prepared import Alphabet, weight


@dataclass(frozen=True)
class SeriesReport:
    """Central-series generating sets plus the order-1 nilpotency verdict."""

    levels: list[list[Derivation]]
    nilpotent_order1: bool
    witnesses: list[tuple[tuple[Letter, Letter], Derivation]] = field(default_factory=list)


@dataclass(frozen=True)
class ResonanceReport:
    """Verdict on the resonant nested brackets up to a word-length bound.

    ``witnesses`` pairs each resonant word whose nested bracket is nonzero
    with that bracket.  ``structurally_proven`` upgrades the bounded
    verdict when the holomorphic structural predicate holds for the whole
    alphabet.
    """

    all_brackets_zero: bool
    witnesses: list[tuple[Word, Derivation]] = field(default_factory=list)
    structurally_proven: bool = False


def pairwise_brackets(a: Alphabet) -> SeriesReport:
    """Bracket every unordered letter pair; true iff all brackets vanish."""
    witnesses = []
    level2 = []
    letters = a.letters()
    for n, m in combinations_with_replacement(letters, 2):
        br = lie_bracket(a[n], a[m])
        if br:
            witnesses.append(((n, m), br))
            level2.append(br)
    return SeriesReport(
        levels=[[a[n] for n in letters], level2],
        nilpotent_order1=not witnesses,
        witnesses=witnesses,
    )


def central_series(a: Alphabet, depth: int) -> SeriesReport:
    """Truncated descending central series as generating sets.

    Level 1 is the alphabet; level k+1 collects all nonzero brackets of a
    level-1 operator with a level-k generator.  Stops early at an empty
    level.  No linear-independence reduction is performed.
    """
    if depth < 1:
        raise InputError(f"depth must be >= 1, got {depth}")
    generators = [a[n] for n in a.letters()]
    levels = [generators]
    for _ in range(1, depth):
        prev = levels[-1]
        if not prev:
            break
        nxt = []
        for g in generators:
            for h in prev:
                br = lie_bracket(g, h)
                if br:
                    nxt.append(br)
        levels.append(nxt)
        if not nxt:
            break
    pw = pairwise_brackets(a)
    return SeriesReport(
        levels=levels,
        nilpotent_order1=pw.nilpotent_order1,
        witnesses=pw.witnesses,
    )


def _weight_sums(a: Alphabet, max_len: int) -> list[set[int]]:
    """sums[k] is the set of weights of the k-letter words, k = 0..max_len."""
    weights = {weight(n) for n in a}
    sums = [{0}]
    for _ in range(max_len):
        sums.append({s + w for s in sums[-1] for w in weights})
    return sums


def iter_nested_brackets(
    a: Alphabet, max_len: int, resonant_only: bool = False
) -> Iterator[tuple[Word, int, Derivation]]:
    """Yield (word, weight, nested bracket) over the pruned prefix tree.

    Every yielded word has all proper prefixes with nonzero bracket; zero
    subtrees are skipped since their extensions all bracket to zero.  With
    ``resonant_only`` the walk additionally skips words of nonzero weight
    that no extension within the length bound brings back to weight zero.
    """
    if max_len < 1:
        raise InputError(f"max_len must be >= 1, got {max_len}")
    letters = [(n, weight(n)) for n in a.letters()]
    # reach[k]: weights of the words of 1..k letters
    reach: list[set[int]] = [set()]
    if resonant_only:
        for s in _weight_sums(a, max_len)[1:]:
            reach.append(reach[-1] | s)

    def walk(word: Word, w: int, deriv: Derivation):
        yield word, w, deriv
        if len(word) >= max_len or deriv.is_zero():
            return
        left = max_len - len(word) - 1
        for n, wn in letters:
            nw = w + wn
            if resonant_only and nw and -nw not in reach[left]:
                continue
            yield from walk(word + (n,), nw, lie_bracket(a[n], deriv))

    for n, wn in letters:
        if resonant_only and wn and -wn not in reach[max_len - 1]:
            continue
        yield from walk((n,), wn, a[n])


def enumerate_resonant_words(a: Alphabet, max_len: int) -> list[Word]:
    """All weight-zero words of length <= max_len, graded lexicographic.

    Each length r is walked in lexicographic letter order, keeping a
    prefix only while the letters still to come can bring its weight back
    to zero, so the words come out already sorted by (length, word).
    """
    if max_len < 1:
        raise InputError(f"max_len must be >= 1, got {max_len}")
    letters = sorted((n, weight(n)) for n in a)
    sums = _weight_sums(a, max_len)
    found: list[Word] = []

    def walk(word: Word, w: int, left: int):
        if not left:
            found.append(word)
            return
        need = sums[left - 1]
        for n, wn in letters:
            if -(w + wn) in need:
                walk(word + (n,), w + wn, left - 1)

    for r in range(1, max_len + 1):
        walk((), 0, r)
    return found


def resonant_subset_trivial(a: Alphabet, max_len: int) -> ResonanceReport:
    """Evaluate nested brackets of resonant words up to the length bound.

    For length-1 resonant words the "bracket" is the operator itself
    (always nonzero by alphabet construction, hence always a witness).
    """
    witnesses = [
        (word, deriv)
        for word, w, deriv in iter_nested_brackets(a, max_len, resonant_only=True)
        if w == 0 and deriv
    ]
    ok = not witnesses
    return ResonanceReport(
        all_brackets_zero=ok,
        witnesses=witnesses,
        structurally_proven=ok and cr_structural_predicate(a),
    )


def cr_structural_predicate(a: Alphabet) -> bool:
    """Every operator is a monomial multiple of x^n d/dx or y^n d/dy.

    Under this shape the two surviving families commute with each other
    and no resonant word of any length produces a nonzero nested bracket,
    so a bounded all-zero verdict extends to all word lengths.
    """
    return all(
        (not cy and n2 == 0) or (not cx and n1 == 0)
        for op in a.entries.values()
        for (n1, n2), (cx, cy) in op.terms.items()
    )
