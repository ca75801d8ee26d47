"""Projection-theorem sums for abstract moulds and their reductions.

A mould is any map from words to exact scalars; the concrete correction
and prenormal moulds are supplied by the caller, never computed here.
Resonant-support enforcement wraps the evaluation: non-resonant words are
sent to zero before the user function is consulted.  The projection sum
has two routes: a mould that knows a finite word set off which it is zero
(``indicator_mould``, ``table_mould``) is summed one nested bracket per
support word, and every other mould by the prefix tree of
``iter_bracket_levels``.  That tree, the brackets [B_w] of the comould,
depends on the alphabet alone: it is built once and kept on the
``Alphabet`` while the alphabet lives, so the sums of many moulds over one
alphabet bracket its words once.  The memory retained is that of the
largest trees asked for; dropping the alphabet frees it.

The mould side is kept on the mould: every fold state, in ``value`` and
the sums alike, comes from ``Mould._state``.  A fold mould keeps the state
of each tuple word asked, so a word whose parent word (all but its last
letter) was asked before costs one ``step``, and a word asked again none.
A sum keeps one state per tree word and twin below its deepest level;
dropping the mould frees them.  The word fold keeps nothing.
"""

from __future__ import annotations

from functools import reduce
from itertools import islice
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Mapping

from .algebra import ONE, GaussianRational, ZERO, _coerce, _reduced
from .errors import InputError
from .lie_analysis import _certified, central_series, iter_bracket_levels, twin
from .operators import Derivation, Letter, Word, lie_bracket, linear_combination, nested_bracket
from .prepared import Alphabet, weight

if TYPE_CHECKING:
    from fractions import Fraction

LINEARISABLE_STRUCTURAL = "LinearisableStructural"
UNKNOWN = "Unknown"
_MASK = (1 << 64) - 1  # random_mould's arithmetic is mod 2^64
_parts = attrgetter("_a", "_b", "_d")  # the integer triple of a GaussianRational
_NONE = object()  # no state kept for a word


class Mould:
    """Word -> scalar evaluation, optionally restricted to resonant support.

    A mould is a left fold, ``fold = (start, step, finish)``: a word's state
    is ``start`` taken through ``step(state, letter)`` letter by letter, and
    ``finish(state)`` is the value as an integer triple (a, b, d) meaning
    (a + b i)/d, d > 0, not necessarily in lowest terms, which the sums
    pass to ``linear_combination`` unreduced.  ``Mould(fn)`` has the word
    fold: the state is the word so far, ``step`` appends a letter and
    ``finish`` is the triple of ``fn``'s value.  Exactly one of ``fn``
    and ``fold`` must be given.

    Every fold state, for ``value`` and for the sums, comes from
    ``_state``, which keeps the state of each word it folds in a dict
    private to the mould.  So the fold must be a pure function of the
    word, and ``step`` must never mutate a state: a kept state, like a
    parent's in ``projection_sum``, is stepped again for every child
    word.  A word already asked is read back, a word whose parent word
    (all but its last letter) was asked takes one ``step`` from that
    state, and any other word is folded from ``start``; only the word's
    own state is kept, never its prefixes'.  So the memory is one state
    per distinct word asked (by a sum, one per tree word and twin below
    its deepest level), freed with the mould.  A JSON word (letters as
    lists) cannot be hashed and is folded from ``start`` each time, and
    the word fold, whose state is the word itself, keeps nothing.

    ``support`` is None, or a finite collection of words off which the
    mould is zero.  Only ``indicator_mould`` and ``table_mould`` set it,
    and ``projection_sum`` then sums over those words alone.
    """

    def __init__(self, evaluate_fn: Callable[[Word], GaussianRational] | None = None,
                 support_resonant_only: bool = False, fold: tuple | None = None):
        if (evaluate_fn is None) == (fold is None):
            raise TypeError("Mould takes exactly one of evaluate_fn and fold")
        self.support_resonant_only = support_resonant_only
        self.support = None
        self._states = None if fold is None else {}  # the word fold's state is the word: none kept
        word_fold = (), lambda w, n: w + (n,), lambda w: _parts(evaluate_fn(w))
        self.start, self.step, self.finish = fold or word_fold

    def value(self, word: Word) -> GaussianRational:
        if not word or self.support_resonant_only and weight(word):
            return ZERO
        return _reduced(*self.finish(self._state(word)))

    def _state(self, word: Word):
        """The fold state of a nonempty word: read back, one ``step`` from its parent word's, or folded."""
        states = self._states
        if states is None:
            return tuple(word)
        try:
            state = states.get(word, _NONE)
        except TypeError:  # a JSON word (letters as lists) cannot be hashed, so no state is kept
            return reduce(self.step, word, self.start)
        if state is _NONE:
            parent = states.get(word[:-1], _NONE)
            state = reduce(self.step, word, self.start) if parent is _NONE else self.step(parent, word[-1])
            states[word] = state
        return state


def _mix(z: int, letter: Letter) -> int:
    """``random_mould``'s step: one letter's components folded into z."""
    for c in letter:
        z = ((z ^ c) + 0x9E3779B97F4A7C15) * 0xBF58476D1CE4E5B9 & _MASK
        z ^= z >> 31
    return z


def _split(z: int) -> tuple[int, int, int, int]:
    """splitmix64's finaliser on z, then p, q, r, s read off by divmod."""
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ z >> 27) * 0x94D049BB133111EB & _MASK
    z ^= z >> 31
    z, p = divmod(z, 19)
    z, q = divmod(z, 9)
    z, r = divmod(z, 19)
    return p - 9, q + 1, r - 9, z % 9 + 1


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
    residues mod 2^64 count.  z is the mould's fold state, and its
    ``finish`` gives the triple (p s, r q, q s).
    """

    def finish(z: int) -> tuple[int, int, int]:
        p, q, r, s = _split(z)
        return p * s, r * q, q * s

    return Mould(support_resonant_only=support_resonant_only, fold=(seed & _MASK, _mix, finish))


def indicator_mould(word: Word) -> Mould:
    """Mould equal to 1 on one chosen word and 0 elsewhere.

    Letters are taken as int tuples, so a JSON word (letters as lists)
    matches.  Its support is that one word, so ``projection_sum`` brackets
    it alone.
    """
    return _finite({tuple(tuple(map(int, n)) for n in word): ONE})


def table_mould(entries: Mapping[Word, GaussianRational | int | Fraction]) -> Mould:
    """Mould with the given value on each listed word and 0 elsewhere.

    Values may be ints or ``Fraction``s too; each is made a scalar once,
    here.  Its support is the listed words, so ``projection_sum`` brackets
    each of them once and no other word.
    """
    return _finite({tuple(w): _coerce(v) for w, v in entries.items()})


def _finite(table: dict[Word, GaussianRational]) -> Mould:
    """The word-fold mould with the table's values, zero off its words, which are its support.

    ``value`` takes a JSON word (letters as lists) too: such a word cannot
    be hashed, so it is looked up again with tuple letters.  The support
    route folds only the table's own words and never meets one.
    """

    def evaluate(w: Word) -> GaussianRational:
        try:
            return table.get(w, ZERO)
        except TypeError:
            return table.get(tuple(map(tuple, w)), ZERO)

    m = Mould(evaluate)
    m.support = tuple(table)
    return m


def projection_sum(m: Mould, a: Alphabet, max_len: int) -> Derivation:
    """Truncated bracket form of the mould-comould series.

    Evaluates  sum_{r=1..max_len} (1/r) sum_{|n|=r} M^n [B_n]  with exact
    rational 1/r factors, one level of the prefix tree at a time.  The
    empty word never contributes.  The tree's levels hold only the words
    whose bracket is nonzero, and from level 2 on an entry (w, d) stands
    for w and twin(w), whose bracket is -d, so it is weighted by
    M(w) - M(twin w), the unreduced difference of the two finished
    triples.  Every weight, 1/r factor included, is an integer triple
    that ``linear_combination`` reduces with one gcd per term.  The tree
    is the alphabet's comould, built on the first sum (or central series)
    that needs it and kept on the alphabet, so a repeat sum brackets no
    tree word.  The mould's fold states of w and twin(w) come from
    ``Mould._state``, level by level, so each is one ``step`` from its
    parent word's on a fresh fold mould and read back on a kept one; the
    mould keeps one state per tree word and twin below level L.
    Below the deepest level L the mould is finished only on nonzero
    brackets, and with resonant support only at weight zero.  Level L uses
    bilinearity in the last letter:

        sum_{|w|=L} M^w [B_w] = sum_n [B_n, S_n],  S_n = sum_{|u|=L-1} M^{un} [B_u],

    where an entry u of level L-1 of length 2 or more is weighted by
    M(u n) - M(twin(u) n), a step from each of u's states, taken once per
    entry before the loop over n and never kept.  So a length-L word costs
    one step and one finish, and each letter with nonzero S_n
    one bracket.  The mould is therefore also evaluated on length-L words
    whose own bracket vanishes: it must be a pure function of the word.

    A mould with a known ``support`` (``indicator_mould``, ``table_mould``)
    skips the tree: the sum is taken over its support words w with
    1 <= |w| <= max_len and every letter in the alphabet, weight zero too
    under resonant support, each weighted by its folded value over |w|
    and bracketed by ``nested_bracket``.  The result is the tree's.
    """
    if m.support is not None:
        return _support_sum(m, a, max_len)
    resonant, step, finish, state = m.support_resonant_only, m.step, m.finish, m._state
    levels = iter_bracket_levels(a, max_len, resonant)
    sums = []
    # every level but the deepest, entry by entry; at max_len 1 that is the only level
    for r, level in enumerate(islice(levels, max(max_len - 1, 1)), 1):
        states = [(state(w), r > 1 and state(twin(w))) for w, _, _ in level]
        values = ((_class_value(finish, s, t, r > 1), d)
                  for (_, w, d), (s, t) in zip(level, states) if not (resonant and w))
        sums.append(linear_combination(values))
    if max_len > 1:
        twinned = max_len > 2  # the entries u of level L-1 are twin classes
        by_letter = {}  # n -> S_n of the docstring, from the entries u of level L-1
        for n in a.letters():
            wn = weight(n)
            ends = ((_class_value(finish, step(s, n), twinned and step(t, n), twinned), d)
                    for (_, w, d), (s, t) in zip(level, states) if not (resonant and w + wn))
            by_letter[n] = linear_combination(ends)
        brackets = (((1, 0, 1), lie_bracket(a[n], s)) for n, s in by_letter.items() if s)
        sums.append(linear_combination(brackets))
    return linear_combination(((1, 0, r), s) for r, s in enumerate(sums, 1))


def _support_sum(m: Mould, a: Alphabet, max_len: int) -> Derivation:
    """``projection_sum`` of a mould that is zero off the words of ``m.support``."""
    if max_len < 1:
        raise InputError(f"max_len must be >= 1, got {max_len}")
    ops, resonant = a.entries, m.support_resonant_only
    terms = []
    for w in m.support:
        # a word with a letter outside the alphabet has no bracket, and so no term
        if not 0 < len(w) <= max_len or any(n not in ops for n in w) or resonant and weight(w):
            continue
        p, q, d = m.finish(m._state(w))
        if p or q:
            terms.append(((p, q, d * len(w)), nested_bracket(w, ops)))
    return linear_combination(terms)


def _class_value(finish: Callable, s, t, twinned: bool) -> tuple[int, int, int]:
    """M at fold state s, less M at state t for a twin class, as an unreduced triple."""
    a, b, d = finish(s)
    if twinned:
        e, f, g = finish(t)
        return a * g - e * d, b * g - f * d, d * g
    return a, b, d


def letter_sum(m: Mould, a: Alphabet) -> Derivation:
    """sum over weight-zero letters of M^n B_n, no bracket terms."""
    return linear_combination((m.finish(m._state((n,))), a[n]) for n in a.resonant_letters())


def structural_linearisability(a: Alphabet, max_len: int) -> str:
    """Mould-independent verdict from the bracket structure alone.

    LinearisableStructural when the commutation components certify that
    no resonant nested bracket of any length is nonzero
    (``ResonanceReport.structurally_proven``), otherwise Unknown, whatever
    the bound max_len >= 1.
    """
    if max_len < 1:
        raise InputError(f"max_len must be >= 1, got {max_len}")
    return LINEARISABLE_STRUCTURAL if _certified(a) else UNKNOWN


def verify_fond3(
    a: Alphabet, trials: int, max_len: int, seed: int = 0
) -> bool:
    """Check the order-1-nilpotent reduction of the projection sum.

    For seeded resonant-supported moulds the full truncated sum must
    equal the sum over weight-zero letters alone.  Requires the alphabet
    to be nilpotent of order 1: every letter pair brackets to zero.
    """
    if trials < 1 or max_len < 1:
        raise InputError(f"trials and max_len must be >= 1, got {trials} and {max_len}")
    if not central_series(a, 1).nilpotent_order1:
        raise InputError("alphabet is not nilpotent of order 1")
    for t in range(trials):
        m = random_mould(seed + t, support_resonant_only=True)
        if projection_sum(m, a, max_len) != letter_sum(m, a):
            return False
    return True
