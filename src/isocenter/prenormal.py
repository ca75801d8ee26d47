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
alphabet bracket its words once.  A tree sum adds every level into one
unreduced accumulator of ``operators`` and brings it to lowest terms
once, at the end.

The mould side is kept on the mould.  ``Mould.value`` makes its word a
tuple of tuples, so past it every word is a tuple word, and a JSON word
(letters as lists) is its tuple word.  A mould keeps the finished
triple of each word it evaluates, under the word's parent word (all but
its last letter) and by its last letter, and a fold mould the state of
each word it folds.  ``Mould._value`` gives one word's value, read back or
finished from the word's state, and ``Mould._children`` the values of a
word's children at a sum's deepest level, each missing one a ``step`` from
the word's state.  So a repeat sum makes no ``step``, ``finish`` or user
function call, and dropping the mould frees what it keeps.  The word fold
keeps values only, as its state is the word, and a finite mould keeps
none, as its table holds them.
"""

from __future__ import annotations

from functools import reduce
from itertools import islice
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Mapping

from .algebra import ONE, GaussianRational, ZERO, _coerce, _reduced
from .errors import InputError
from .lie_analysis import _certified, central_series, iter_bracket_levels, twin
from .operators import (Derivation, Letter, Word, _accumulate, _canonical, lie_bracket, linear_combination,
                        nested_bracket, word_str)
from .prepared import Alphabet, weight

if TYPE_CHECKING:
    from fractions import Fraction

LINEARISABLE_STRUCTURAL = "LinearisableStructural"
UNKNOWN = "Unknown"
_MASK = (1 << 64) - 1  # random_mould's arithmetic is mod 2^64
_parts = attrgetter("_a", "_b", "_d")  # the integer triple of a GaussianRational
_NONE = object()  # no state kept for a word
_NO_VALUES: dict = {}  # never written: the kept values of the children of a word with none


class Mould:
    """Word -> scalar evaluation, optionally restricted to resonant support.

    A mould is a left fold, ``fold = (start, step, finish)``: a word's state
    is ``start`` taken through ``step(state, letter)`` letter by letter, and
    ``finish(state)`` is the value as an integer triple (a, b, d) meaning
    (a + b i)/d, d > 0, not necessarily in lowest terms, which the sums
    add in unreduced; a ``finish`` with d <= 0 raises InputError naming
    the word, and no value is kept for it.  ``Mould(fn)`` has the word
    fold: the state is the word so far, ``step`` appends a letter and
    ``finish`` is the triple of ``fn``'s value.  Exactly one of ``fn``
    and ``fold`` must be given; a sum of moulds is a word fold,
    ``Mould(lambda w: m1.value(w) + m2.value(w))``.  ``value`` takes a
    JSON word (letters as lists) too: it makes every word a tuple of tuples
    first, so the fold and ``fn`` see tuple words only, and a JSON word
    shares its tuple word's kept state and value.

    A mould keeps the value of each word it evaluates, in a dict
    private to the mould from the word's parent word (all but its last
    letter) to a dict from the last letter to the triple, and a fold mould
    the state of each word ``_state`` folds, in another.  So the fold, and
    ``fn``, must be pure functions of the word: a word's value is computed
    once, and ``fn`` is called at most once per distinct word.
    ``step`` must never mutate a state: a kept state, like a parent's in
    ``projection_sum``, is stepped again for every child word.  ``_value``
    reads a word's value back, or finishes the word's state; ``_state``
    reads that back, takes one ``step`` from the parent word's kept state,
    or folds from ``start``, and keeps only the word's own state, never its
    prefixes'.  ``_children`` gives the values of the children u·n of a
    word u at a sum's deepest level: a missing one is one ``step`` from u's
    state, and its own state is not kept.  So the memory is one value per
    distinct word evaluated and one state per distinct word folded: a sum
    to length L keeps one state per tree word and twin below L, and one
    value per tree word and twin up to L, the children u·n and twin(u)·n of
    level L included.  On the 9-letter golden cubic at L = 5 that is 5,733
    states and 51,417 values, 7.7 MB by tracemalloc against the alphabet's
    18.6 MB tree, all freed with the mould.  The word fold keeps no state,
    as its state is the word, and a finite mould (``indicator_mould``,
    ``table_mould``) no value, as its table holds them.

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
        self._values = {}
        word_fold = (), lambda w, n: w + (n,), lambda w: _parts(evaluate_fn(w))
        self.start, self.step, self.finish = fold or word_fold

    def value(self, word: Word) -> GaussianRational:
        word = tuple([tuple(n) for n in word])  # a JSON word's letters are lists; a tuple letter is kept as it is
        if not word or self.support_resonant_only and weight(word):
            return ZERO
        return _reduced(*self._value(word))

    def _value(self, word: Word) -> tuple[int, int, int]:
        """The finished triple of a nonempty tuple word: read back, or finished from its fold state and kept."""
        parent, n = word[:-1], word[-1]
        kids = self._values.get(parent, _NO_VALUES)
        value = kids.get(n)
        if value is None:
            value = self.finish(self._state(word))
            if value[2] <= 0:
                _refuse(word, value)
            if self.support is None:  # a finite mould's values are its table: none kept
                if kids is _NO_VALUES:
                    kids = self._values[parent] = {}
                kids[n] = value
        return value

    def _children(self, word: Word, letters) -> dict:
        """The values of the children word·n, n in letters, kept by letter.

        A missing one is one ``step`` from the word's state and one ``finish``; its own state is not kept.
        """
        kids = self._values.get(word)
        if kids is None:
            kids = self._values[word] = {}
        missing = [n for n in letters if n not in kids] if kids else letters
        if missing:
            state, step, finish = self._state(word), self.step, self.finish
            for n in missing:
                value = finish(step(state, n))
                if value[2] <= 0:
                    _refuse(word + (n,), value)
                kids[n] = value
        return kids

    def _state(self, word: Word):
        """The fold state of a nonempty tuple word: read back, one ``step`` from its parent word's, or folded."""
        states = self._states
        if states is None:
            return word
        state = states.get(word, _NONE)
        if state is _NONE:
            parent = states.get(word[:-1], _NONE)
            state = reduce(self.step, word, self.start) if parent is _NONE else self.step(parent, word[-1])
            states[word] = state
        return state


def _refuse(word: Word, value: tuple[int, int, int]) -> None:
    """Refuse a finished triple whose denominator is not positive."""
    raise InputError(f"mould value {value} on word {word_str(word)} has denominator {value[2]}, not > 0")


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
    """The word-fold mould with the table's values, zero off its words, which are its support."""
    m = Mould(lambda w: table.get(w, ZERO))
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
    triples.  Every weight is an integer triple with the level's 1/r
    folded in as (a, b, d r), and every level below L is added into one
    accumulator (``operators._accumulate``), unreduced; so is each
    bracket [B_n, S_n] of level L below, with the weight (1, 0, L), and
    the accumulator is brought to lowest terms once, at the end
    (``operators._canonical``).  The tree is the alphabet's comould, built
    on the first sum (or central series) that needs it and kept on the
    alphabet, so a repeat sum brackets no tree word.  The values of w and
    twin(w) come from ``Mould._value``, level by level: on a fresh fold
    mould each is one ``step`` from its parent word's kept state and one
    ``finish``, and on a kept mould each is read back.  Below the deepest
    level L the mould is evaluated only on nonzero brackets, and with
    resonant support only at weight zero; the states of the other entries
    are still kept, as their children step from them.  Level L uses
    bilinearity in the last letter:

        sum_{|w|=L} M^w [B_w] = sum_n [B_n, S_n],  S_n = sum_{|u|=L-1} M^{un} [B_u],

    where an entry u of level L-1 of length 2 or more is weighted by
    M(u n) - M(twin(u) n).  They come from ``Mould._children``, once per
    u and twin(u) for all the letters n, with resonant support only those
    of weight zero: their values are kept too, their states are not, so
    on a first sum a length-L word costs one step from u's state and one
    finish, and on a repeat sum nothing.  Under resonant support the
    entries u are grouped by weight once, and S_n reads the group of
    weight -weight(n) alone.  Each S_n is brought to lowest terms before
    its bracket, and each letter with nonzero S_n costs one bracket.  The
    mould is therefore also evaluated on length-L words whose own bracket
    vanishes: it must be a pure function of the word.

    A mould with a known ``support`` (``indicator_mould``, ``table_mould``)
    skips the tree: the sum is taken over its support words w with
    1 <= |w| <= max_len and every letter in the alphabet, weight zero too
    under resonant support, each weighted by its folded value over |w|
    and bracketed by ``nested_bracket``.  The result is the tree's.
    """
    if m.support is not None:
        return _support_sum(m, a, max_len)
    resonant, value, state = m.support_resonant_only, m._value, m._state
    levels = iter_bracket_levels(a, max_len, resonant)
    acc = {}  # the whole sum, unreduced, in one accumulator
    # every level but the deepest, entry by entry; at max_len 1 that is the only level
    for r, level in enumerate(islice(levels, max(max_len - 1, 1)), 1):
        words = [(w, r > 1 and twin(w)) for w, _, _ in level]
        terms = []
        for (w, t), (_, wt, d) in zip(words, level):
            if resonant and wt:  # not finished, but its children step from its state
                state(w)
                r > 1 and state(t)
            else:
                p, q, e = _difference(value(w), value(t)) if r > 1 else value(w)
                terms.append(((p, q, e * r), d))
        _accumulate(acc, terms)
    if max_len > 1:
        twinned = max_len > 2  # the entries u of level L-1 are twin classes
        letters = a.letters()
        if resonant:  # only the children of weight zero are evaluated: by u's weight, the letters they end in
            ending = {}
            for n in letters:
                ending.setdefault(-weight(n), []).append(n)
        ends = {}  # by u's weight (one group, 0, under full support): (kept children of u, of twin(u), [B_u])
        for (u, t), (_, wt, d) in zip(words, level):
            ns = ending.get(wt) if resonant else letters
            if ns:
                ends.setdefault(wt if resonant else 0, []).append(
                    (m._children(u, ns), twinned and m._children(t, ns), d))
        top = (1, 0, max_len)
        for n in letters:  # S_n of the docstring, canonical, then its bracket
            group = ends.get(-weight(n) if resonant else 0)
            if group:
                s = linear_combination(((_difference(ku[n], kt[n]) if kt else ku[n], d) for ku, kt, d in group))
                if s:
                    _accumulate(acc, ((top, lie_bracket(a[n], s)),))
    return _canonical(acc)


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
        p, q, d = m._value(w)
        if p or q:
            terms.append(((p, q, d * len(w)), nested_bracket(w, ops)))
    return linear_combination(terms)


def _difference(v: tuple[int, int, int], t: tuple[int, int, int]) -> tuple[int, int, int]:
    """The triple v less the triple t, unreduced: a twin class's weight M(w) - M(twin w)."""
    a, b, d = v
    e, f, g = t
    return a * g - e * d, b * g - f * d, d * g


def letter_sum(m: Mould, a: Alphabet) -> Derivation:
    """sum over weight-zero letters of M^n B_n, no bracket terms."""
    return linear_combination((m._value((n,)), a[n]) for n in a.resonant_letters())


def structural_linearisability(a: Alphabet, max_len: int) -> str:
    """Mould-independent verdict from the bracket structure alone.

    LinearisableStructural when the commutation components certify that
    no resonant nested bracket of any length is nonzero
    (``ResonanceReport.structurally_proven``), otherwise Unknown, whatever
    the bound max_len >= 1; no central series, CR predicate or span DP runs.
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
