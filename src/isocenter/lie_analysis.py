"""Structure analysis of the Lie algebra generated by the alphabet operators.

Covers the descending central series (truncated, generating sets only),
resonant-word enumeration, the bounded triviality test of the resonant
bracket subset and the structural verdict, ``structural_linearisability``:
the all-lengths certificate of the commutation components.

Every nested bracket of a word is one letter-map term at the word's
multidegree, so the brackets of the length-r words of multidegree g span
a space V_{r,g} of dimension at most 2, and

    V_{r+1,h} = sum over letters n of [B_n, V_{r,h-n}].

Left-normed brackets span the algebra the letters generate (Reutenauer,
*Free Lie Algebras*, 1993), so the resonance verdict is read off these
spans grade by grade instead of walking every word.  The spans are built
inside the components of the non-commutation graph, whose edges are the
nonzero letter-pair brackets of the tree's level 2: ad_{B_n} is a
derivation, so [B_n, B_w] = 0 when B_n commutes with every letter of w,
and the letters of a word with a nonzero bracket all lie in one component.
So with no weight-zero letter and each component's weights of one strict
sign, no resonant word of any length has a nonzero bracket: the
all-lengths certificate.  The CR lemma (``lemmas``), and order-1
nilpotency with no weight-zero letter (each component one letter), are
special cases of it.  Each prefix of a resonant word with one is brought
back to weight zero by letters of its own component, the one reach rule by
which the verdict and the resonant tree prune.  So a CR alphabet, whose
components each have weights of one sign, or a UI-homogeneous one, whose
letters all commute, makes no bracket past the letter pairs, and
``analyze`` brackets each letter pair once in all.  Resonant words are
listed by joining half-words through a table keyed by weight, pruned by
the whole alphabet's reach, since they are words, not brackets.
``iter_bracket_levels`` is the one traversal of the word prefix tree.
Swapping the first two letters of a word negates its bracket, so from
level 2 on each entry stands for a swap-twin class {w, twin(w)}: the word
w with its bracket d, and ``twin(w)`` with -d.  The central series and its
pair witnesses are read off its levels; the projection sum reads it up to
level L-1 (level 1 when L is 1) and brackets level L once per letter.

The tree is the alphabet's comould: its brackets depend on the alphabet
alone, never on a mould.  So it is built once, a level at a time as its
levels are first asked for, and kept on the ``Alphabet`` while the
alphabet lives: one full tree, shared by every length bound and by the
central series, and one tree pruned to resonant words per bound, since
that pruning depends on the bound.  An entry is a triple (word, weight,
bracket) with no parent link: a word's parent is the word less its last
letter, by which a mould keeps its own fold states.  The memory retained
is that of the largest trees asked for; dropping the alphabet frees it.

``central_series`` and ``enumerate_resonant_words`` run with the cyclic
garbage collector paused, and restore its state on return or raise.
What they build is tuples, lists, dicts and ``Derivation``, none of which
refers back to itself, so reference counting frees all of it and a
collection would find nothing.  The pause saves the collector's rescans
of the growing word and bracket lists during the build, not a collection:
allocations still count while it holds, so the first one after it runs a
young pass over everything the call returned, which frees nothing.
``resonant_subset_trivial`` is not paused, since its span DP keeps at
most two vectors per cell, and ``iter_bracket_levels`` is a generator, so
a pause held across a ``yield`` would reach into its caller.
"""

from __future__ import annotations

import functools
import gc
from typing import Callable, Iterator

from .errors import InputError
from .operators import Derivation, Letter, Word, lie_bracket
from .prepared import Alphabet, weight
from .records import Record

LINEARISABLE_STRUCTURAL = "LinearisableStructural"
UNKNOWN = "Unknown"


def _gc_paused(fn: Callable) -> Callable:
    """Run fn with the cyclic collector paused and its state restored after; never a generator."""

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


class SeriesReport(Record):
    """Central-series generating sets plus the order-1 nilpotency verdict:
    ``witnesses`` is empty when every letter pair commutes."""

    __slots__ = ("levels", "witnesses")

    def __init__(self, levels: list[list[Derivation]], witnesses: list[tuple[tuple[Letter, Letter], Derivation]]):
        self._fill(levels, witnesses)

    @property
    def nilpotent_order1(self) -> bool:
        return not self.witnesses


class ResonanceReport(Record):
    """Verdict on the resonant nested brackets up to a word-length bound;
    the all-lengths verdict is ``structural_linearisability``.

    ``witnesses`` is empty when every resonant bracket up to the bound
    vanishes.  Otherwise it is a basis (one or two vectors) of the first
    nonzero resonant span V_{r,(k,k)}: the shortest length r, then the
    smallest k.  Each entry is a resonant word of length r with its
    nonzero nested bracket.
    """

    __slots__ = ("witnesses",)

    def __init__(self, witnesses: list[tuple[Word, Derivation]]):
        self._fill(witnesses)

    @property
    def all_brackets_zero(self) -> bool:
        return not self.witnesses


@_gc_paused
def central_series(a: Alphabet, depth: int) -> SeriesReport:
    """Truncated descending central series as generating sets, with pair witnesses.

    Level k is the nonzero length-k brackets of the prefix tree, each twin
    class of level k >= 2 listed as its bracket d and then -d.  Stops
    early at an empty level; no linear-independence reduction is made.
    The witnesses are the nonzero [B_n, B_m] with n before m: the level-2
    entries (m, n), in order.  The levels are read off the alphabet's kept tree.
    """
    if depth < 1:
        raise InputError(f"depth must be >= 1, got {depth}")
    tree = iter_bracket_levels(a, max(depth, 2))
    levels = [[d for _, _, d in next(tree)]]
    pairs = next(tree)
    witnesses = [((n, m), d) for (m, n), _, d in pairs]
    while len(levels) < depth and levels[-1]:  # so the level after an empty one is never built
        level = pairs if len(levels) == 1 else next(tree)
        levels.append([e for _, _, d in level for e in (d, -d)])
    return SeriesReport(levels=levels, witnesses=witnesses)


def _reach(weights: set[int], max_len: int) -> list[set[int]]:
    """reach[k] is the set of weights of the words of at most k letters
    whose letters have the given weights."""
    sums, reach = {0}, [{0}]
    for _ in range(max_len):
        sums = {s + w for s in sums for w in weights}
        reach.append(reach[-1] | sums)
    return reach


def iter_bracket_levels(a: Alphabet, max_len: int, resonant_only: bool = False) -> Iterator[list[tuple]]:
    """Yield the prefix tree level by level, word lengths 1..max_len.

    Level r lists (word, weight, nested bracket) entries with a nonzero
    bracket, so no zero subtree is formed.  Level 1 is the letters.  From
    level 2 on an entry (w, weight, d) stands for its swap-twin class: w,
    and ``twin(w)`` with the same weight and bracket -d.  Level 2 is the
    pairs (m, n) with n before m.  Level r+1 extends every level-r entry
    by every letter, letter-major, as twin(w) + (n,) is twin(w + (n,)).
    So each word with a nonzero bracket is stood for exactly once.  With
    ``resonant_only`` an entry is also skipped when no extension within
    the length bound by letters of its own component brings its weight
    back to zero; its level 2 is a filter of the full tree's.  At
    ``max_len`` 1 that is the weight-zero letters, found with no bracket.

    The levels are kept on the alphabet, and each is built when it is
    first asked for (module docstring).
    """
    if max_len < 1:
        raise InputError(f"max_len must be >= 1, got {max_len}")
    key = max_len if resonant_only else 0
    if key not in a._trees:
        part = None
        if resonant_only:
            # at max_len 1 no letter is extended, so the level is the weight-zero letters
            # and no component is read: each letter stands alone with the reach row {0}
            part = _component_reach(a, max_len) if max_len > 1 else {n: ([n], [{0}]) for n in a}
        a._trees[key] = [], part
    levels, part = a._trees[key]
    for r in range(max_len):
        if r == len(levels):
            keep = None if part is None else {n: reach[max_len - r - 1] for n, (_, reach) in part.items()}
            levels.append(_grow(a, levels, keep))
        yield levels[r]


def _grow(a: Alphabet, levels: list[list[tuple]], keep: dict[Letter, set[int]] | None) -> list[tuple]:
    """The tree's level after ``levels``, its levels so far, as (word, weight, bracket) triples.

    ``keep`` is None for the full tree; for the resonant one an extension
    by the letter n is kept only if the negation of its weight is in
    ``keep[n]``, the reach of n's component.  The resonant level 2 is the
    full tree's, filtered so, with no bracket made.
    """
    if not levels:
        return [((n,), weight(n), a[n]) for n in a if keep is None or n in keep and -weight(n) in keep[n]]
    first, level = levels[0], levels[-1]  # no word of the tree has a letter outside level 1
    pairs = len(levels) == 1  # level 2 extends only the letters after n; later levels every entry
    if pairs and keep is not None:
        _, full = iter_bracket_levels(a, 2)
        return [(w, wt, d) for w, wt, d in full if w[1] in keep and -wt in keep[w[1]]]
    nxt = []
    for j, ((n,), wn, op) in enumerate(first):
        for word, w, d in level[j + 1:] if pairs else level:
            if keep is not None and -(w + wn) not in keep[n]:
                continue
            br = lie_bracket(op, d)
            if br:
                nxt.append((word + (n,), w + wn, br))
    return nxt


def twin(word: Word) -> Word:
    """The word with its first two letters swapped; its bracket is the negation."""
    return word[1::-1] + word[2:]


@_gc_paused
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
    reach = _reach({wn for _, wn in letters}, max_len)
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
    the test is one exact 2x2 determinant a*e - b*c, v = (c, e), against a
    single basis vector.  It reads the numerators of ``Derivation.raw``
    alone: dropping a pair's positive denominator scales it, not its span.
    """
    if not basis:
        return True
    pa, pb, qa, qb, _ = basis[0][1].raw[letter]
    ra, rb, sa, sb, _ = v.raw[letter]
    return pa * sa - pb * sb != qa * ra - qb * rb or pa * sb + pb * sa != qa * rb + qb * ra


def _component_reach(a: Alphabet, max_len: int) -> dict[Letter, tuple[list[Letter], list[set[int]]]]:
    """Each letter whose component can make a resonant word, mapped to the
    component's letters (its key is the first) and their ``_reach`` table.

    The components are those of the non-commutation graph, read off the
    alphabet's kept levels 1 and 2.  A component whose weights share one
    strict sign is left out, so the map is empty when all are.
    """
    first, pairs = iter_bracket_levels(a, 2)
    parent = {n: n for (n,), _, _ in first}

    def root(n: Letter) -> Letter:
        while parent[n] != n:
            n = parent[n]
        return n

    for (m, n), _, _ in pairs:
        parent[root(m)] = root(n)
    groups: dict[Letter, list[Letter]] = {}
    for n in parent:
        groups.setdefault(root(n), []).append(n)
    part = {}
    for letters in groups.values():
        weights = {weight(n) for n in letters}
        if min(weights) <= 0 <= max(weights):
            part.update(dict.fromkeys(letters, (letters, _reach(weights, max_len))))
    return part


def structural_linearisability(a: Alphabet, max_len: int) -> str:
    """Mould-independent verdict from the bracket structure alone.

    LinearisableStructural when the commutation components certify that no
    resonant nested bracket of any length is nonzero (module docstring), else
    Unknown, whatever max_len >= 1.  A weight-zero letter fails before any bracket.
    """
    if max_len < 1:
        raise InputError(f"max_len must be >= 1, got {max_len}")
    return UNKNOWN if a.resonant_letters() or _component_reach(a, 1) else LINEARISABLE_STRUCTURAL


def _first_resonant_basis(a: Alphabet, max_len: int) -> list[tuple[Word, Derivation]]:
    """Basis of the first nonzero resonant span V_{r,(k,k)}, r <= max_len.

    A weight-zero letter is returned at once, before any bracket.  Else
    the spans are built length by length, each cell a basis of word
    brackets keyed by component and multidegree, extended by its own
    component's letters and kept only while at most max_len - r more of
    them can bring its weight back to zero.  The length-2 cells take their
    brackets from level 2, d for the entry (m, n) and -d for its twin.
    The spans at the first resonant multidegree are joined over
    components.  Returns [] when every resonant span up to the bound is zero.
    """
    if max_len < 1:
        raise InputError(f"max_len must be >= 1, got {max_len}")
    if zero := a.resonant_letters():
        return [((zero[0],), a[zero[0]])]
    if max_len == 1:
        return []
    part = _component_reach(a, max_len)
    first, pairs = iter_bracket_levels(a, 2)
    cells = {(part[n][0][0], n): [((n,), d)] for (n,), w, d in first
             if n in part and -w in part[n][1][max_len - 1]}
    if not cells:
        return []
    brackets = {}  # every ordered letter pair with a nonzero bracket
    for (m, n), _, d in pairs:
        brackets[m, n], brackets[n, m] = d, -d
    for r in range(1, max_len):
        nxt = {}
        for (c, g), basis in cells.items():
            letters, reach = part[c]
            keep = reach[max_len - r - 1]
            for n in letters:
                h = (g[0] + n[0], g[1] + n[1])
                if h[1] - h[0] not in keep:
                    continue
                cell = nxt.setdefault((c, h), [])
                for word, d in basis:
                    if len(cell) == 2:
                        break
                    br = brackets.get((word[0], n)) if r == 1 else lie_bracket(a[n], d)
                    if br and _independent(cell, h, br):
                        cell.append((word + (n,), br))
        cells = {key: basis for key, basis in nxt.items() if basis}
        resonant = [h for _, h in cells if h[0] == h[1]]
        if resonant:
            k = min(resonant)
            found: list[tuple[Word, Derivation]] = []
            for word, d in [v for (_, h), basis in cells.items() if h == k for v in basis]:
                if len(found) < 2 and _independent(found, k, d):
                    found.append((word, d))
            return found
    return []


def resonant_subset_trivial(a: Alphabet, max_len: int) -> ResonanceReport:
    """Test whether every resonant nested bracket up to the length bound vanishes.

    Its witnesses are bounded (``ResonanceReport``).  A weight-zero letter,
    whose operator an ``Alphabet`` never holds as zero, is a witness found
    before any bracket is made.  Longer resonant words are sought within
    the components of the non-commutation graph only, from the letter-pair
    brackets of the alphabet's level 2.
    """
    return ResonanceReport(witnesses=_first_resonant_basis(a, max_len))

