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
from .operators import Derivation, Letter, Word, lie_bracket, word_str
from .prepared import Alphabet, weight


@dataclass(frozen=True)
class SeriesReport:
    """Central-series generating sets plus the order-1 nilpotency verdict."""

    levels: list[list[Derivation]]
    nilpotent_order1: bool
    witnesses: list[tuple[tuple[Letter, Letter], Derivation]] = field(default_factory=list)

    def to_json_obj(self) -> dict:
        return {
            "level_sizes": [len(level) for level in self.levels],
            "nilpotent_order1": self.nilpotent_order1,
            "witnesses": [
                {
                    "letters": [f"{a[0]},{a[1]}", f"{b[0]},{b[1]}"],
                    "bracket": d.to_dict(),
                }
                for (a, b), d in self.witnesses
            ],
        }


@dataclass(frozen=True)
class ResonanceReport:
    """Verdict on the resonant nested brackets up to a word-length bound.

    ``resonant_words`` lists the resonant words whose nested bracket was
    explicitly evaluated; resonant words pruned away because a proper
    prefix already bracketed to zero are omitted (their bracket is zero).
    ``structurally_proven`` upgrades the bounded verdict when the
    holomorphic structural predicate holds for the whole alphabet.
    """

    max_len: int
    resonant_words: list[Word]
    all_brackets_zero: bool
    witnesses: list[tuple[Word, Derivation]] = field(default_factory=list)
    structurally_proven: bool = False

    def to_json_obj(self) -> dict:
        return {
            "max_len": self.max_len,
            "resonant_words": [word_str(w) for w in self.resonant_words],
            "all_brackets_zero": self.all_brackets_zero,
            "structurally_proven": self.structurally_proven,
            "witnesses": [
                {"word": word_str(w), "bracket": d.to_dict()}
                for w, d in self.witnesses
            ],
        }


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


def _resonance_reachable(w: int, remaining: int, wmin: int, wmax: int) -> bool:
    """Can some extension by 1..remaining letters bring the weight to zero?"""
    for k in range(1, remaining + 1):
        if w + k * wmin <= 0 <= w + k * wmax:
            return True
    return False


def iter_nested_brackets(
    a: Alphabet, max_len: int, resonant_only: bool = False
) -> Iterator[tuple[Word, int, Derivation]]:
    """Yield (word, weight, nested bracket) over the pruned prefix tree.

    Every yielded word has all proper prefixes with nonzero bracket; zero
    subtrees are skipped since their extensions all bracket to zero.  With
    ``resonant_only`` the walk additionally skips branches that cannot
    reach weight zero within the length bound (words already at weight
    zero are always yielded first).
    """
    if max_len < 1:
        raise InputError(f"max_len must be >= 1, got {max_len}")
    letters = a.letters()
    wmin, wmax = a.weight_bounds()

    def walk(word: Word, w: int, deriv: Derivation):
        yield word, w, deriv
        if len(word) >= max_len or deriv.is_zero():
            return
        for n in letters:
            nw = w + weight(n)
            if resonant_only and nw != 0 and not _resonance_reachable(
                nw, max_len - len(word) - 1, wmin, wmax
            ):
                continue
            yield from walk(word + (n,), nw, lie_bracket(a[n], deriv))

    for n in letters:
        w = weight(n)
        if resonant_only and w != 0 and not _resonance_reachable(
            w, max_len - 1, wmin, wmax
        ):
            continue
        yield from walk((n,), w, a[n])


def enumerate_resonant_words(a: Alphabet, max_len: int) -> list[Word]:
    """All weight-zero words of length <= max_len, graded lexicographic."""
    if max_len < 1:
        raise InputError(f"max_len must be >= 1, got {max_len}")
    letters = a.letters()
    wmin, wmax = a.weight_bounds()
    found: list[Word] = []

    def walk(word: Word, w: int):
        if word and w == 0:
            found.append(word)
        remaining = max_len - len(word)
        if remaining == 0:
            return
        for n in letters:
            nw = w + weight(n)
            if nw == 0 or _resonance_reachable(nw, remaining - 1, wmin, wmax):
                walk(word + (n,), nw)

    walk((), 0)
    found.sort(key=lambda w: (len(w), w))
    return found


def resonant_subset_trivial(a: Alphabet, max_len: int) -> ResonanceReport:
    """Evaluate nested brackets of resonant words up to the length bound.

    For length-1 resonant words the "bracket" is the operator itself
    (always nonzero by alphabet construction, hence always a witness).
    """
    resonant: list[Word] = []
    witnesses: list[tuple[Word, Derivation]] = []
    for word, w, deriv in iter_nested_brackets(a, max_len, resonant_only=True):
        if w == 0:
            resonant.append(word)
            if deriv:
                witnesses.append((word, deriv))
    resonant.sort(key=lambda w: (len(w), w))
    ok = not witnesses
    return ResonanceReport(
        max_len=max_len,
        resonant_words=resonant,
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
