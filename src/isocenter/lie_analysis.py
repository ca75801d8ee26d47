"""Structure analysis of the Lie algebra generated by the alphabet operators.

Covers the descending central series (truncated, generating sets only),
the order-1 nilpotency test, resonant-word enumeration and the bounded
triviality test of the resonant bracket subset.

Every nested bracket of a word is one letter-map term at the word's
multidegree, so the brackets of the length-r words of multidegree g span
a space V_{r,g} of dimension at most 2, and

    V_{r+1,h} = sum over letters n of [B_n, V_{r,h-n}].

Left-normed brackets span the algebra the letters generate (Reutenauer,
*Free Lie Algebras*, 1993), so the resonance verdict is read off these
spans grade by grade instead of walking every word.  Resonant words are
listed by joining half-words through a table keyed by weight.
``iter_bracket_levels`` is the one traversal of the word prefix tree: it
yields the zero-pruned tree level by level.  The projection sum reads it
up to level L-1 (level 1 when L is 1) and brackets level L once per letter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
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

    ``witnesses`` is empty when every resonant bracket up to the bound
    vanishes.  Otherwise it is a basis (one or two vectors) of the first
    nonzero resonant span V_{r,(k,k)}: the shortest length r, then the
    smallest k.  Each entry is a resonant word of length r with its
    nonzero nested bracket.  ``structurally_proven`` upgrades the bounded
    verdict when the holomorphic structural predicate holds for the whole
    alphabet.
    """

    all_brackets_zero: bool
    witnesses: list[tuple[Word, Derivation]] = field(default_factory=list)
    structurally_proven: bool = False


def _pair_brackets(ops: list[Derivation]) -> dict[tuple[int, int], Derivation]:
    """[ops[i], ops[j]] for each index pair i < j whose bracket is nonzero.

    The bracket of an operator with itself always vanishes, so only the
    unordered pairs of distinct letters are bracketed, once each.
    """
    out = {}
    for i, j in combinations(range(len(ops)), 2):
        br = lie_bracket(ops[i], ops[j])
        if br:
            out[(i, j)] = br
    return out


def _witness_pairs(letters: list[Letter], pairs) -> list[tuple[tuple[Letter, Letter], Derivation]]:
    return [((letters[i], letters[j]), br) for (i, j), br in pairs.items()]


def pairwise_brackets(a: Alphabet) -> SeriesReport:
    """Bracket every unordered letter pair; true iff all brackets vanish."""
    letters = a.letters()
    pairs = _pair_brackets([a[n] for n in letters])
    return SeriesReport(
        levels=[[a[n] for n in letters], list(pairs.values())],
        nilpotent_order1=not pairs,
        witnesses=_witness_pairs(letters, pairs),
    )


def _next_level(generators, prev, twin):
    """Level k+1 from level k, with each entry's twin index.

    ``twin[i]`` is the index of an earlier entry equal to -prev[i], or
    None.  The bracket with a twin is the negated bracket with the
    earlier entry, so it is not computed again.
    """
    nxt, nxt_twin = [], []
    for g in generators:
        made = {}  # index in prev -> index in nxt
        for i, h in enumerate(prev):
            j = twin[i]
            if j is None:
                br = lie_bracket(g, h)
                if br:
                    made[i] = len(nxt)
                    nxt.append(br)
                    nxt_twin.append(None)
            elif j in made:
                made[i] = len(nxt)
                nxt.append(-nxt[made[j]])
                nxt_twin.append(made[j])
    return nxt, nxt_twin


def central_series(a: Alphabet, depth: int) -> SeriesReport:
    """Truncated descending central series as generating sets.

    Level 1 is the alphabet; level k+1 collects all nonzero brackets of a
    level-1 operator with a level-k generator, generator-major.  Stops
    early at an empty level.  No linear-independence reduction is
    performed.  Each unordered letter pair is bracketed once: level 2 and
    the pairwise witnesses come from that one pass, and [B_m, B_n] is
    taken as -[B_n, B_m].
    """
    if depth < 1:
        raise InputError(f"depth must be >= 1, got {depth}")
    letters = a.letters()
    generators = [a[n] for n in letters]
    pairs = _pair_brackets(generators)
    levels = [generators]
    if depth > 1 and generators:
        level, twin = [], []
        at = {}  # pair i < j -> its index in level 2
        for i in range(len(generators)):
            for j in range(len(generators)):
                if (j, i) in at:
                    twin.append(at[(j, i)])
                    level.append(-level[at[(j, i)]])
                elif (i, j) in pairs:
                    at[(i, j)] = len(level)
                    twin.append(None)
                    level.append(pairs[(i, j)])
        levels.append(level)
        while len(levels) < depth and level:
            level, twin = _next_level(generators, level, twin)
            levels.append(level)
    return SeriesReport(
        levels=levels,
        nilpotent_order1=not pairs,
        witnesses=_witness_pairs(letters, pairs),
    )


def _reach(a: Alphabet, max_len: int) -> list[set[int]]:
    """reach[k] is the set of weights of the words of at most k letters."""
    weights = {weight(n) for n in a}
    sums, reach = {0}, [{0}]
    for _ in range(max_len):
        sums = {s + w for s in sums for w in weights}
        reach.append(reach[-1] | sums)
    return reach


def iter_bracket_levels(
    a: Alphabet, max_len: int, resonant_only: bool = False
) -> Iterator[list[tuple[Word, int, Derivation]]]:
    """Yield the pruned prefix tree level by level, word lengths 1..max_len.

    Level r lists (word, weight, nested bracket) for the length-r words
    whose proper prefixes all have a nonzero bracket; zero subtrees are
    skipped since their extensions all bracket to zero.  With
    ``resonant_only`` a word is also skipped when no extension within the
    length bound brings its weight back to zero.  A level is built only
    when it is asked for.
    """
    if max_len < 1:
        raise InputError(f"max_len must be >= 1, got {max_len}")
    letters = [(n, weight(n)) for n in a.letters()]
    reach = _reach(a, max_len) if resonant_only else None
    level = [((n,), wn, a[n]) for n, wn in letters if not reach or -wn in reach[max_len - 1]]
    yield level
    for left in range(max_len - 2, -1, -1):
        level = [
            (word + (n,), w + wn, lie_bracket(a[n], d))
            for word, w, d in level
            if d
            for n, wn in letters
            if not reach or -(w + wn) in reach[left]
        ]
        yield level


def enumerate_resonant_words(a: Alphabet, max_len: int) -> list[Word]:
    """All weight-zero words of length <= max_len, graded lexicographic.

    A word of length r is its ceil(r/2)-letter prefix followed by a
    floor(r/2)-letter suffix of the opposite weight.  Half-words are built
    in lexicographic letter order, keeping a k-letter half only if at most
    max_len - k more letters can bring its weight back to zero (every
    factor of a resonant word passes), and suffixes are grouped by weight.
    Joining each prefix, in order, with its suffixes, in order, gives the
    words already sorted by (length, word).
    """
    if max_len < 1:
        raise InputError(f"max_len must be >= 1, got {max_len}")
    letters = sorted((n, weight(n)) for n in a)
    reach = _reach(a, max_len)
    halves = [[((), 0)]]
    for k in range(1, (max_len + 1) // 2 + 1):
        keep = reach[max_len - k]
        halves.append([
            (h + (n,), w + wn) for h, w in halves[-1] for n, wn in letters if -(w + wn) in keep
        ])
    found: list[Word] = []
    for r in range(1, max_len + 1):
        tails: dict[int, list[Word]] = {}
        for s, w in halves[r // 2]:
            tails.setdefault(w, []).append(s)
        for p, w in halves[(r + 1) // 2]:
            for s in tails.get(-w, ()):
                found.append(p + s)
    return found


def _independent(basis: list[tuple[Word, Derivation]], letter: Letter, v: Derivation) -> bool:
    """Whether the nonzero one-letter v lies outside the span of the basis.

    The span has at most two dimensions, the pair (a, b) at the letter, so
    the test is one exact 2x2 determinant against a single basis vector.
    """
    if not basis:
        return True
    a, b = basis[0][1].terms[letter]
    c, e = v.terms[letter]
    return bool(a * e - b * c)


def _first_resonant_basis(a: Alphabet, max_len: int) -> list[tuple[Word, Derivation]]:
    """Basis of the first nonzero resonant span V_{r,(k,k)}, r <= max_len.

    Builds the spans length by length, each cell a basis of word brackets
    keyed by multidegree.  A cell is kept only if at most max_len - r
    more letters can bring its weight back to zero.  Returns [] when every
    resonant span up to the bound is zero.
    """
    if max_len < 1:
        raise InputError(f"max_len must be >= 1, got {max_len}")
    letters = a.letters()
    reach = _reach(a, max_len)
    cells = {n: [((n,), a[n])] for n in letters if a[n] and -weight(n) in reach[max_len - 1]}
    for r in range(1, max_len + 1):
        resonant = sorted(g for g in cells if g[0] == g[1])
        if resonant:
            return cells[resonant[0]]
        if r == max_len or not cells:
            break
        keep = reach[max_len - r - 1]
        nxt = {}
        for g, basis in cells.items():
            for n in letters:
                h = (g[0] + n[0], g[1] + n[1])
                if h[1] - h[0] not in keep:
                    continue
                cell = nxt.setdefault(h, [])
                for word, d in basis:
                    if len(cell) == 2:
                        break
                    br = lie_bracket(a[n], d)
                    if br and _independent(cell, h, br):
                        cell.append((word + (n,), br))
        cells = {h: basis for h, basis in nxt.items() if basis}
    return []


def resonant_subset_trivial(a: Alphabet, max_len: int) -> ResonanceReport:
    """Test whether every resonant nested bracket up to the length bound vanishes.

    For length-1 resonant words the "bracket" is the operator itself
    (always nonzero by alphabet construction, hence always a witness).
    """
    witnesses = _first_resonant_basis(a, max_len)
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
