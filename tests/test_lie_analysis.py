import functools
import gc
import os
import random
import resource
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from isocenter import algebra, lemmas, lie_analysis, prenormal
from isocenter.algebra import BiPoly, GaussianRational
from isocenter.errors import InputError
from isocenter.lemmas import _cr_structural_predicate
from isocenter.lie_analysis import (
    central_series,
    enumerate_resonant_words,
    iter_bracket_levels,
    resonant_subset_trivial,
    twin,
)
from isocenter.operators import Derivation, bracket_oracle, lie_bracket, nested_bracket
from isocenter.prenormal import projection_sum, random_mould, structural_linearisability
from isocenter.prepared import Alphabet, PlanarField, decompose, weight
from isocenter.samples import quadratic, random_cr_field, random_field, random_ui_homogeneous


def G(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def test_pairwise_fond2_conditions():
    # p_{2,0} = conj(p_{1,1}), p_{0,2} = 0
    assert central_series(decompose(quadratic(G(1, -2), G(1, 2), 0)), 2).nilpotent_order1
    # p_{1,1} = p_{0,2} = 0
    assert central_series(decompose(quadratic(G(3, 5), 0, 0)), 2).nilpotent_order1


def test_pairwise_witness():
    report = central_series(decompose(quadratic(1, 2, 0)), 2)
    assert not report.nilpotent_order1
    (pair, br) = report.witnesses[0]
    assert set(pair) == {(1, 0), (0, 1)}
    # scalar 2 = p_{1,1} (conj(p_{1,1}) - p_{2,0})
    assert br.dx == BiPoly.monomial(2, 1, G(2)) or br.dx == BiPoly.monomial(2, 1, G(-2))


def test_central_series_levels():
    a = decompose(quadratic(1, 2, 0))
    report = central_series(a, 3)
    assert len(report.levels[0]) == 2
    assert report.levels[1]  # nonzero pairwise bracket exists
    assert len(report.levels) == 3
    # every level-k generator from homogeneous degree-2 generators has
    # total polynomial degree k(d-1)+1 = k+1
    for k, level in enumerate(report.levels, start=1):
        for d in level:
            for part in (d.dx, d.dy):
                assert {i + j for i, j in part.terms} <= {k + 1}


def test_central_series_trivial_cases():
    assert central_series(decompose(PlanarField(degree=2, coefficients={})), 3).levels == [[]]
    nil = central_series(decompose(quadratic(G(1), G(1), 0)), 3)
    assert nil.nilpotent_order1 and nil.levels[1] == []
    with pytest.raises(InputError):
        central_series(decompose(quadratic(1, 0, 0)), 0)


def test_enumerate_resonant_words_quadratic():
    a = decompose(quadratic(1, 2, 3))
    assert enumerate_resonant_words(a, 1) == []
    words = enumerate_resonant_words(a, 2)
    assert words == sorted(
        [
            ((1, 0), (0, 1)),
            ((0, 1), (1, 0)),
            ((-1, 2), (2, -1)),
            ((2, -1), (-1, 2)),
        ],
        key=lambda w: (len(w), w),
    )


def test_resonant_words_properties():
    a = decompose(quadratic(1, 2, 3))
    words = enumerate_resonant_words(a, 4)
    assert all(weight(w) == 0 for w in words)
    reversed_set = {tuple(reversed(w)) for w in words}
    assert reversed_set == set(words)


def test_resonant_letter_counts_homogeneous_cubic():
    coeffs = {(i, 3 - i): G(1, 1) for i in range(4)}
    a = decompose(PlanarField(degree=3, coefficients=coeffs))
    assert enumerate_resonant_words(a, 1) == [((1, 1),)]


def test_resonant_subset_trivial_cases():
    # CR field: all brackets of resonant words vanish, structurally proven
    rng = random.Random(0)
    rep = resonant_subset_trivial(decompose(random_cr_field(rng, 3)), 6)
    assert rep.all_brackets_zero and rep.structurally_proven
    # zero perturbation: trivially true
    rep = resonant_subset_trivial(decompose(PlanarField(degree=2, coefficients={})), 6)
    assert rep.all_brackets_zero
    # witness case
    rep = resonant_subset_trivial(decompose(quadratic(1, 2, 0)), 2)
    assert not rep.all_brackets_zero
    assert rep.witnesses[0][0] in (((1, 0), (0, 1)), ((0, 1), (1, 0)))


def test_resonant_length1_witness():
    # a weight-zero letter with nonzero operator is itself a witness
    coeffs = {(i, 3 - i): G(1, 1) for i in range(4)}
    rep = resonant_subset_trivial(decompose(PlanarField(degree=3, coefficients=coeffs)), 1)
    assert not rep.all_brackets_zero
    assert rep.witnesses[0][0] == ((1, 1),)


def test_cr_structural_predicate():
    rng = random.Random(1)
    assert _cr_structural_predicate(decompose(random_cr_field(rng, 4)))
    assert not _cr_structural_predicate(decompose(quadratic(1, 2, 0)))
    # d/dx and x^2 d/dx are x-only, but their weights -1 and +1 cancel: the
    # resonant word ((-1,0),(1,0)) has the bracket -2x d/dx, so no bound
    # certifies all lengths
    a = x_and_y_letters({-1: 1, 1: 1}, {})
    word = ((-1, 0), (1, 0))
    assert weight(word) == 0 and nested_bracket(word, a.entries) == Derivation.from_terms({(0, 0): (G(-2), G(0))})
    assert not _cr_structural_predicate(a) and not resonant_subset_trivial(a, 1).structurally_proven
    assert structural_linearisability(a, 1) == structural_linearisability(a, 2) == "Unknown"
    assert not _cr_structural_predicate(x_and_y_letters({}, {-1: 1, 1: 2}))
    assert not _cr_structural_predicate(x_and_y_letters({0: 1}, {}))
    assert _cr_structural_predicate(x_and_y_letters({1: 1, 2: 3}, {1: 2}))
    for d in range(2, 7):  # no decomposed CR field has such a letter
        assert _cr_structural_predicate(decompose(random_cr_field(rng, d)))


def x_and_y_letters(x, y):
    """The alphabet of the x-only letters (n, 0), n in x, with operator
    x^{n+1} d/dx, and the y-only letters (0, n), n in y, with y^{n+1} d/dy."""
    entries = {(n, 0): Derivation.from_terms({(n, 0): (G(x[n]), G(0))}) for n in x}
    entries.update({(0, n): Derivation.from_terms({(0, n): (G(0), G(y[n]))}) for n in y})
    return Alphabet(entries)


def test_ui_homogeneous_nilpotent_sampled():
    rng = random.Random(42)
    for d in range(2, 7):
        for _ in range(10):
            f = random_ui_homogeneous(rng, d)
            assert central_series(decompose(f), 2).nilpotent_order1


def test_series_grading_homogeneous():
    rng = random.Random(6)
    for d in (3, 4):
        coeffs = {(i, d - i): G(rng.randint(-3, 3), rng.randint(-3, 3)) for i in range(d + 1)}
        f = PlanarField(degree=d, coefficients={k: v for k, v in coeffs.items() if v})
        report = central_series(decompose(f), 3)
        for k, level in enumerate(report.levels, start=1):
            for deriv in level:
                for part in (deriv.dx, deriv.dy):
                    assert {i + j for i, j in part.terms} <= {k * (d - 1) + 1}


def random_alphabet(rng):
    """Up to 6 letters of a random field of degree 2..4, so extreme
    letters (-1,k), (k,-1) and weight-zero letters (k,k) all occur."""
    a = decompose(random_field(rng, rng.randint(2, 4), density=rng.uniform(0.3, 1)))
    letters = rng.sample(a.letters(), min(len(a), rng.randint(2, 6)))
    return Alphabet({n: a[n] for n in letters})


def tree_nodes(a, max_len, resonant_only=False):
    """Every (word, weight, bracket) of the pruned prefix tree, level after level."""
    return [node[:3] for level in iter_bracket_levels(a, max_len, resonant_only) for node in level]


def three_letters(a):
    return Alphabet({n: a[n] for n in a.letters()[:3]})


def class_words(level):
    """The (word, weight, bracket) of every word a level's entries stand for:
    the entry itself and, from level 2 on, its swap twin with bracket -d."""
    out = []
    for w, wt, d in level:
        out.append((w, wt, d))
        if len(w) > 1:
            out.append((twin(w), wt, -d))
    return sorted(out, key=lambda node: node[0])


def test_bracket_levels_match_brute_force():
    # each level, its entries expanded into their twin classes, against every
    # itertools.product word with its nested_bracket, kept when that is
    # nonzero and, with resonant_only, when some word of at most max_len - r
    # letters of the word's own component brings its weight back to zero;
    # no word may appear twice.  L is
    # capped so that at most 700 words have length L.  The meeting
    # alphabets have two components that meet at the multidegree (0, 0)
    rng = random.Random(20)
    cases = [(decompose(quadratic(1, 2, 3)), 4)]
    cases += [(random_alphabet(rng), k % 5 + 1) for k in range(80)]
    cases += [(meeting_alphabet(rng), 4) for _ in range(10)]
    kinds, cut, twins = set(), 0, 0
    for a, max_len in cases:
        letters, part = a.letters(), components(a)
        max_len = max(L for L in range(1, max_len + 1) if L == 1 or len(a) ** L <= 700)
        kinds |= {"extreme" if -1 in n else "zero" if weight(n) == 0 else "plain" for n in a}
        full = list(iter_bracket_levels(a, max_len))
        pruned = list(iter_bracket_levels(a, max_len, resonant_only=True))
        assert len(full) == len(pruned) == max_len
        for r in range(1, max_len + 1):
            words = sorted(product(letters, repeat=r))
            brackets = ((w, nested_bracket(w, a.entries)) for w in words)
            want = [(w, weight(w), d) for w, d in brackets if d]
            kept = [node for node in want if -node[1] in word_weights(part[node[0][0]], max_len - r)]
            for level, expected in ((full[r - 1], want), (pruned[r - 1], kept)):
                got = class_words(level)
                assert len({w for w, _, _ in got}) == len(got)
                assert got == expected
        cut += pruned != full
        twins += max_len > 1 and bool(full[1])
    assert kinds == {"extreme", "zero", "plain"} and cut >= 10 and twins >= 10


def test_enumerate_resonant_words_matches_brute_force():
    rng = random.Random(7)
    cases = [(decompose(quadratic(1, 2, 3)), 3)]
    cases += [(random_alphabet(rng), rng.randint(1, 5)) for _ in range(60)]
    # longer words over three letters, so both halves span several letters
    cases += [(three_letters(random_alphabet(rng)), rng.randint(5, 7)) for _ in range(30)]
    kinds = set()
    for a, max_len in cases:
        kinds |= {"extreme" if -1 in n else "zero" if weight(n) == 0 else "plain" for n in a}
        brute = sorted(
            (w for r in range(1, max_len + 1) for w in product(a.letters(), repeat=r) if weight(w) == 0),
            key=lambda w: (len(w), w),
        )
        assert enumerate_resonant_words(a, max_len) == brute
    assert kinds == {"extreme", "zero", "plain"}


def test_resonant_walk_keeps_every_weight_zero_bracket():
    rng = random.Random(8)
    for _ in range(40):
        a = random_alphabet(rng)
        max_len = rng.randint(1, 4)
        full = [(w, d) for w, wt, d in tree_nodes(a, max_len) if wt == 0]
        pruned = tree_nodes(a, max_len, resonant_only=True)
        assert all(wt == weight(w) for w, wt, _ in pruned)
        assert [(w, d) for w, wt, d in pruned if wt == 0] == full


def test_resonance_spans_match_walk():
    # the span DP against the prefix walk it replaced: same verdict, and
    # its witnesses are resonant words of the walk's shortest witness length
    rng = random.Random(11)
    seen = {True: 0, False: 0}
    ranks = {1: 0, 2: 0}
    for k in range(200):
        a = random_alphabet(rng)
        if k % 2:
            a = Alphabet({n: a[n] for n in a if weight(n)})
        max_len = rng.randint(1, 5)
        walk = [
            (w, d) for w, wt, d in tree_nodes(a, max_len, resonant_only=True) if wt == 0 and d
        ]
        rep = resonant_subset_trivial(a, max_len)
        assert rep.all_brackets_zero == (not walk)
        seen[rep.all_brackets_zero] += 1
        if walk:
            shortest = min(len(w) for w, _ in walk)
            cell = rep.witnesses[0][1].letter
            for w, d in rep.witnesses:
                assert len(w) == shortest and weight(w) == 0
                assert d and d == nested_bracket(w, a.entries) and d.letter == cell
            # the basis size is the rank of every walk bracket in that cell
            pairs = [d.terms[cell] for w, d in walk if len(w) == shortest and d.letter == cell]
            rank = 2 if any(p * s - q * r for p, q in pairs for r, s in pairs) else 1
            assert len(rep.witnesses) == rank
            ranks[rank] += 1
    assert min(seen.values()) >= 30 and min(ranks.values()) >= 10


def test_resonance_witness_is_first_resonant_cell():
    # two witnesses of length 2 at different multidegrees: (1,1) comes first
    rng = random.Random(12)
    a = decompose(random_field(rng, 4, density=1))
    a = Alphabet({n: a[n] for n in ((1, 0), (0, 1), (2, 0), (0, 2))})
    rep = resonant_subset_trivial(a, 3)
    assert rep.witnesses
    assert {w for w, _ in rep.witnesses} <= {((1, 0), (0, 1)), ((0, 1), (1, 0))}


def parent_reach(a, max_len):
    """The slow route's reach table, over the weights of all letters."""
    weights = {weight(n) for n in a}
    sums, reach = {0}, [{0}]
    for _ in range(max_len):
        sums = {s + w for s in sums for w in weights}
        reach.append(reach[-1] | sums)
    return reach


def parent_first_resonant_basis(a, max_len):
    """The span DP before components, kept as the slow route, verbatim but
    for its helpers' names: every letter extends every cell, each bracket
    made, with the reach of the whole alphabet."""
    if max_len < 1:
        raise InputError(f"max_len must be >= 1, got {max_len}")
    letters = a.letters()
    reach = parent_reach(a, max_len)
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
                    if br and lie_analysis._independent(cell, h, br):
                        cell.append((word + (n,), br))
        cells = {h: basis for h, basis in nxt.items() if basis}
    return []


def span_rank(vectors, cell):
    """The rank of one-letter brackets at the letter cell, by the scalar
    pairs of their terms views."""
    pairs = [d.terms[cell] for d in vectors]
    if not pairs:
        return 0
    return 2 if any(p * s - q * r for p, q in pairs for r, s in pairs) else 1


def components(a):
    """The letters of each component of the non-commutation graph, found
    by search over every nonzero letter-pair bracket."""
    letters = [n for n in a if a[n]]
    out, seen = {}, set()
    for n in letters:
        if n in seen:
            continue
        part, todo = {n}, [n]
        while todo:
            m = todo.pop()
            for k in letters:
                if k not in part and lie_bracket(a[m], a[k]):
                    part.add(k)
                    todo.append(k)
        seen |= part
        out.update((k, frozenset(part)) for k in part)
    return out


@functools.cache
def word_weights(letters, k):
    """The weights of the words of at most k letters drawn from letters."""
    return {weight(w) for j in range(k + 1) for w in product(sorted(letters), repeat=j)}


def sparse_alphabet(rng):
    """3 to 6 letters with integer halves that are often zero, so that many
    letter pairs commute and components are paths as well as cliques."""
    pool = [(i, j) for i in range(-1, 4) for j in range(-1, 4) if i + j >= 0]
    half = lambda: rng.choice((0, 0, 0, 1, -1, 2, -3))
    entries = {n: Derivation.from_terms({n: (G(half()), G(half()))}) for n in rng.sample(pool, rng.randint(3, 6))}
    return Alphabet({n: d for n, d in entries.items() if d})


def star_alphabet(rng):
    """Leaves x^k y d/dy, letters (k, 0) that commute with each other, and
    one hub y^j d/dx, letter (-1, j), that brackets nonzero with each leaf:
    a component that is no clique, whose shortest nonzero resonant bracket
    joins two leaves through the hub."""
    leaves = rng.sample([1, 2, 3], rng.randint(2, 3))
    entries = {(k, 0): Derivation.from_terms({(k, 0): (G(0), G(rng.choice((1, -1, 2))))}) for k in leaves}
    j = rng.choice((1, 2, 3))
    entries[-1, j] = Derivation.from_terms({(-1, j): (G(rng.choice((1, -2, 3))), G(0))})
    return Alphabet(entries)


def meeting_alphabet(rng):
    """An x-only and a y-only component, each with weights of both signs,
    which commute and meet at the multidegree (0, 0) only."""
    xs = rng.sample([-1, 1, 2, 3], rng.randint(2, 3))
    ys = rng.sample([-1, 1, 2, 3], rng.randint(2, 3))
    if min(xs) > 0:
        xs[0] = -1
    if min(ys) > 0:
        ys[0] = -1
    coefficient = lambda: rng.choice((1, -1, 2, 3))
    return x_and_y_letters({n: coefficient() for n in xs}, {n: coefficient() for n in ys})


def commuting_families(rng):
    """The letters (2k, k), c x^{2k} y^k (2x d/dx - y d/dy) of weight k, and
    (k, 2k), c x^k y^{2k} (x d/dx - 2y d/dy) of weight -k, for one to three
    k in 1..3 each: x^m E_a and x^n E_b bracket to x^{m+n}(<a,n> E_b -
    <b,m> E_a), which is zero across the families, so each family is a
    component of one weight sign, although neither is x- or y-only."""
    coefficient = lambda: G(rng.choice((1, -1, 2, 3)), rng.choice((0, 1, -2)))
    entries = {}
    for p, q in ((2, 1), (1, 2)):
        for k in rng.sample([1, 2, 3], rng.randint(1, 3)):
            c = coefficient()
            entries[p * k, q * k] = Derivation.from_terms({(p * k, q * k): (c * G(p), c * G(-q))})
    return Alphabet(entries)


def test_resonance_dp_matches_the_slow_route(monkeypatch):
    # the component DP against the parent DP, which brackets every letter
    # with every cell: same verdict, same witness length and cell, the same
    # span, and each witness bracket is its word's nested_bracket.  Every
    # bracket the DP makes beyond level 2 is of a word of length l <= L
    # whose weight some word of at most L - l letters of its component
    # brings back to zero
    rng = random.Random(25)
    alphabets = []
    for k in range(80):
        a = random_alphabet(rng)
        alphabets.append(Alphabet({n: a[n] for n in a if weight(n)}) if k % 2 else a)
    for d in range(2, 7):
        alphabets += [decompose(random_cr_field(rng, d)), decompose(random_ui_homogeneous(rng, d))]
        alphabets.append(decompose(random_ui_homogeneous(rng, d, force_middle_zero=True)))
    alphabets += [meeting_alphabet(rng) for _ in range(50)]
    alphabets += [sparse_alphabet(rng) for _ in range(60)]
    alphabets += [star_alphabet(rng) for _ in range(30)]
    alphabets.append(x_and_y_letters({-1: 1, 1: 1}, {}))
    made, kept = [], []

    def recorded(d1, d2):
        br = lie_bracket(d1, d2)
        made.append((d1.letter, d2, br))
        kept.append(br)  # alive, so no later result reuses an id
        return br

    seen, ranks, lengths = Counter(), Counter(), Counter()
    joined = apart = made_total = 0
    for a in alphabets:
        part = components(a)
        list(iter_bracket_levels(a, 2))  # level 2 is the tree's, not the DP's
        for max_len in range(1, 7):
            slow = parent_first_resonant_basis(a, max_len)
            made.clear()
            monkeypatch.setattr(lie_analysis, "lie_bracket", recorded)
            rep = resonant_subset_trivial(a, max_len)
            monkeypatch.setattr(lie_analysis, "lie_bracket", lie_bracket)
            length = {}  # a DP bracket's word length: its operand's plus one, level 2's being 2
            made_total += len(made)
            for n, d, br in made:
                length[id(br)] = r = length.get(id(d), 2) + 1
                g = d.letter
                assert r <= max_len and g[1] - g[0] - weight(n) in word_weights(part[n], max_len - r)
            fast = rep.witnesses
            assert rep.all_brackets_zero == (not slow) == (not fast)
            seen[rep.all_brackets_zero] += 1
            if not slow:
                continue
            cell = slow[0][1].letter
            assert cell[0] == cell[1] and all(d.letter == cell for _, d in fast)
            assert {len(w) for w, _ in fast} == {len(slow[0][0])}
            for w, d in fast:
                assert weight(w) == 0 and d == nested_bracket(w, a.entries)
            assert span_rank([d for _, d in fast + slow], cell) == len(fast) == len(slow)
            ranks[len(fast)] += 1
            lengths[len(fast[0][0])] += 1
            joined += len({part[w[0]] for w, _ in fast}) > 1
            apart += any(m != n and not lie_bracket(a[m], a[n]) for w, _ in fast for m in w for n in w)
    # both verdicts, both ranks, witnesses of length 1 to 4, bases joined
    # over two components, witnesses with two letters that commute, and
    # the reach check run on hundreds of the DP's brackets
    assert len(alphabets) >= 200
    assert min(seen.values()) >= 200 and min(ranks.values()) >= 20, (seen, ranks)
    assert set(lengths) >= {1, 2, 3, 4} and joined >= 10 and apart >= 10, (lengths, joined, apart)
    assert made_total >= 300


def test_structural_verdict_does_not_depend_on_max_len(monkeypatch):
    # the verdict is the components' certificate, run with neither the
    # central series, the CR predicate nor the span DP: the same at
    # L = 1..6 and equal to structurally_proven there.  The CR predicate
    # implies it, and d/dx with x^2 d/dx, x-only letters of weights -1 and
    # +1 that do not commute, are Unknown at every L
    def refuse(*args):
        raise AssertionError("the verdict left the certificate")

    rng = random.Random(26)
    alphabets = [random_alphabet(rng) for _ in range(60)]
    for d in range(2, 7):
        alphabets += [decompose(random_cr_field(rng, d)) for _ in range(3)]
        alphabets += [decompose(random_ui_homogeneous(rng, d, force_middle_zero=z)) for z in (False, True)]
    alphabets += [meeting_alphabet(rng) for _ in range(20)] + [sparse_alphabet(rng) for _ in range(40)]
    alphabets += [star_alphabet(rng) for _ in range(20)] + [commuting_families(rng) for _ in range(20)]
    alphabets += [x_and_y_letters({-1: 1, 1: 1}, {}), x_and_y_letters({1: 1, 2: 3}, {1: 2})]
    with monkeypatch.context() as m:
        for name in ("central_series", "_first_resonant_basis"):
            m.setattr(lie_analysis, name, refuse)
        m.setattr(lemmas, "_cr_structural_predicate", refuse)
        m.setattr(prenormal, "central_series", refuse)
        verdicts = [{structural_linearisability(a, L) for L in range(1, 7)} for a in alphabets]
        for a in alphabets:
            for max_len in (0, -3):
                with pytest.raises(InputError, match=f"^max_len must be >= 1, got {max_len}$"):
                    structural_linearisability(a, max_len)
    seen = Counter()
    for a, verdict in zip(alphabets, verdicts):
        proven = {resonant_subset_trivial(a, L).structurally_proven for L in range(1, 7)}
        assert len(verdict) == len(proven) == 1, a
        assert verdict == {"LinearisableStructural" if True in proven else "Unknown"}
        assert proven == {True} or not _cr_structural_predicate(a), a
        seen[verdict.pop(), _cr_structural_predicate(a)] += 1
    assert structural_linearisability(alphabets[-2], 1) == "Unknown"
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize("max_len", [0, -3])
def test_resonance_rejects_max_len_below_one(max_len):
    for a in (decompose(PlanarField(degree=2, coefficients={})), decompose(quadratic(1, 2, 3))):
        with pytest.raises(InputError):
            resonant_subset_trivial(a, max_len)
        with pytest.raises(InputError):
            structural_linearisability(a, max_len)
        with pytest.raises(InputError):
            enumerate_resonant_words(a, max_len)


def test_enumerate_without_resonant_words_is_instant():
    # 15 letters of positive weight: no half-word can come back to weight
    # zero, so nothing is built.  Unpruned halves would number 15^12, so the
    # call runs in a child process capped at 1 GiB of address space and 60 s.
    code = """
import random
from isocenter.lie_analysis import enumerate_resonant_words
from isocenter.prepared import Alphabet, decompose, weight
from isocenter.samples import random_field
a = decompose(random_field(random.Random(14), 7, density=1))
a = Alphabet({n: a[n] for n in [n for n in a.letters() if weight(n) > 0][:15]})
print(len(a), enumerate_resonant_words(a, 24))
"""
    cap = 1 << 30
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr[-500:]
    assert out.stdout.split() == ["15", "[]"]


def naive_central_series(a, depth):
    """Every generator against every level-k entry, each bracket computed."""
    generators = [a[n] for n in a.letters()]
    levels = [generators]
    while len(levels) < depth and levels[-1]:
        levels.append([br for g in generators for h in levels[-1] for br in [lie_bracket(g, h)] if br])
    witnesses = [
        ((n, m), lie_bracket(a[n], a[m]))
        for i, n in enumerate(a.letters())
        for m in a.letters()[i:]
        if lie_bracket(a[n], a[m])
    ]
    return levels, witnesses


def test_central_series_matches_generator_loop():
    rng = random.Random(15)
    cases = [(decompose(quadratic(1, 2, 3)), 4), (decompose(PlanarField(degree=2, coefficients={})), 3)]
    cases += [(random_alphabet(rng), rng.randint(1, 4)) for _ in range(40)]
    for a, depth in cases:
        levels, witnesses = naive_central_series(a, depth)
        report = central_series(a, depth)
        assert list(map(Counter, report.levels)) == list(map(Counter, levels))
        assert report.witnesses == witnesses
        assert report.nilpotent_order1 == (not witnesses)


def test_central_series_brackets_each_swap_twin_pair_once(monkeypatch):
    # level 2 brackets each unordered letter pair once, level 3 one word of
    # each pair of swap twins: k(k-1)/2 + k |level 2| / 2 brackets
    a = decompose(random_field(random.Random(16), 4, density=1))
    k, level2 = len(a), len(central_series(a, 2).levels[1])
    calls = [0]

    def counted(d1, d2):
        calls[0] += 1
        return lie_bracket(d1, d2)

    monkeypatch.setattr(lie_analysis, "lie_bracket", counted)
    central_series(a, 3)
    assert k == 15 and calls[0] <= k * (k - 1) // 2 + k * level2 // 2


@pytest.mark.parametrize(
    "kind, max_len", [("dense", 10), ("dense without weight zero", 10), ("cauchy-riemann", 14)]
)
def test_resonance_verdict_bracket_count_is_polynomial(monkeypatch, kind, max_len):
    # the walk brackets exponentially many words in L; the span DP stays
    # below |letters|^2 L^2 (the count raises as soon as it passes)
    rng = random.Random(16)
    if kind == "cauchy-riemann":
        a = decompose(random_cr_field(rng, 4))
    else:
        a = decompose(random_field(rng, 4, density=1))
        if kind == "dense without weight zero":
            a = Alphabet({n: a[n] for n in a if weight(n)})
    bound = len(a) ** 2 * max_len**2
    calls = [0]

    def counted(d1, d2):
        calls[0] += 1
        if calls[0] > bound:
            raise AssertionError(f"more than {bound} brackets")
        return lie_bracket(d1, d2)

    monkeypatch.setattr(lie_analysis, "lie_bracket", counted)
    verdict = structural_linearisability(a, max_len)
    assert verdict == ("LinearisableStructural" if kind == "cauchy-riemann" else "Unknown")
    assert calls[0] <= bound


def test_commuting_families_make_no_bracket_beyond_level_2(monkeypatch):
    # CR and UI-homogeneous alphabets of degree 2..8 at L = 6: each family
    # of a CR alphabet is a component whose weights share one sign, and the
    # letters of a UI one all commute, so a fresh alphabet's verdict makes
    # only level 2's k(k-1)/2 brackets (28 on the degree-5 CR alphabet,
    # where the DP that bracketed every letter with every cell made 242),
    # and none if it has a weight-zero letter, the witness before any
    # bracket.  A second verdict, as after analyze's central series, makes none
    calls = [0]

    def counted(d1, d2):
        calls[0] += 1
        return lie_bracket(d1, d2)

    monkeypatch.setattr(lie_analysis, "lie_bracket", counted)
    for d in range(2, 9):
        rng = random.Random(d)
        fields = [random_cr_field(rng, d), random_ui_homogeneous(rng, d)]
        fields.append(random_ui_homogeneous(rng, d, force_middle_zero=True))
        for f in fields:
            a = decompose(f)
            k = len(a)
            calls[0] = 0
            verdict = structural_linearisability(a, 6)
            assert calls[0] == (0 if a.resonant_letters() else k * (k - 1) // 2), (d, f)
            calls[0] = 0
            assert structural_linearisability(a, 6) == verdict and calls[0] == 0
            assert verdict == ("Unknown" if a.resonant_letters() else "LinearisableStructural")
    a = decompose(random_cr_field(random.Random(5), 5))
    calls[0] = 0
    assert structural_linearisability(a, 6) == "LinearisableStructural" and (len(a), calls[0]) == (8, 28)


FIELDS = Path(__file__).parent / "golden" / "fields"


@contextmanager
def collections_started():
    """The generations of the cyclic collections that start inside the block."""
    starts = []

    def record(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(record)
    try:
        yield starts
    finally:
        gc.callbacks.remove(record)


def test_builders_run_no_collection():
    # left running, the collector rescans the growing word and bracket
    # lists: 59 collections in these two calls
    a = decompose(PlanarField.load(FIELDS / "cubic.json"))
    assert gc.isenabled()
    with collections_started() as starts:
        words = enumerate_resonant_words(a, 6)
    assert len(words) == 37172 and len(starts) <= 1, starts
    with collections_started() as starts:
        central_series(a, 3)
    assert len(starts) <= 1, starts


def test_builders_restore_collector_state():
    a = decompose(PlanarField.load(FIELDS / "cubic.json"))
    calls = [
        lambda: central_series(a, 3),
        lambda: enumerate_resonant_words(a, 4),
        lambda: resonant_subset_trivial(a, 4),
        lambda: structural_linearisability(a, 4),
    ]
    failing = [
        lambda: central_series(a, 0),
        lambda: enumerate_resonant_words(a, 0),
        lambda: resonant_subset_trivial(a, 0),
        lambda: structural_linearisability(a, 0),
    ]
    assert gc.isenabled()
    results = []
    for call in calls:
        results.append(call())
        assert gc.isenabled()
    for call in failing:
        with pytest.raises(InputError):
            call()
        assert gc.isenabled()
    gc.disable()
    try:
        for call, result in zip(calls, results):
            assert call() == result
            assert not gc.isenabled()
        for call in failing:
            with pytest.raises(InputError):
                call()
            assert not gc.isenabled()
    finally:
        gc.enable()


def test_builders_make_no_reference_cycle():
    # the premise of pausing the collector: reference counting alone frees
    # everything the builders make, so a collection after them finds nothing
    rng = random.Random(18)
    alphabets = [decompose(PlanarField.load(path)) for path in sorted(FIELDS.glob("*.json"))]
    alphabets += [decompose(random_field(rng, d, density=1)) for d in (3, 4)]
    alphabets += [decompose(random_cr_field(rng, d)) for d in (3, 5)]
    gc.collect()
    gc.disable()
    try:
        for a in alphabets:
            central_series(a, 3)
            enumerate_resonant_words(a, 5)
            resonant_subset_trivial(a, 5)
            structural_linearisability(a, 5)
        assert gc.collect() == 0
    finally:
        gc.enable()


# the only code that makes a GaussianRational: the constructor, and
# _triple, which calls object.__new__ itself
SCALAR_MAKERS = ("GaussianRational.__init__", "_triple")


def scalar_work(fn):
    """Run fn, counting the calls into algebra's code by qualified name
    and, among them, the GaussianRational objects made."""
    entered = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == algebra.__file__:
            entered[frame.f_code.co_qualname] += 1

    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, sum(entered[k] for k in SCALAR_MAKERS), entered


def test_exact_hot_path_builds_no_scalar_object():
    # the series and the resonance verdict work on the letter maps' ints:
    # no GaussianRational is made or touched
    a = decompose(PlanarField.load(FIELDS / "cubic.json"))
    series, built, entered = scalar_work(lambda: central_series(a, 3))
    assert [len(level) for level in series.levels] == [9, 68, 580]
    assert (built, entered) == (0, Counter())
    report, built, entered = scalar_work(lambda: resonant_subset_trivial(a, 6))
    assert not report.all_brackets_zero and not report.structurally_proven
    assert (built, entered) == (0, Counter())
    # the projection sum hands mould values, bracket weights and 1/r
    # factors to linear_combination as integer triples
    for resonant in (False, True):
        m = random_mould(7, resonant)
        total, built, entered = scalar_work(lambda: projection_sum(m, a, 4))
        assert total and (built, entered) == (0, Counter())
    # the views bring each half to a lowest-terms triple for BiPoly, and
    # the constructor joins them back; only .terms makes scalars
    d = next(d for d in series.levels[2] if d.dx and d.dy)
    (dx, dy), built, entered = scalar_work(lambda: (d.dx, d.dy))
    assert dx and dy and built == 0 and entered["BiPoly._of"] == 2
    assert set(entered) <= {"BiPoly._of", "_lowest"}, entered
    back, built, entered = scalar_work(lambda: Derivation(dx, dy))
    assert back == d and (built, entered) == (0, Counter())
    _, built, entered = scalar_work(lambda: d.terms)
    assert built == entered["_triple"] == 2 * len(d.raw)
    # the double-application oracle runs on BiPoly's ints throughout
    ops = list(a.entries.values())
    nonzero = 0
    for d1, d2 in product(ops[:5], repeat=2):
        got, built, entered = scalar_work(lambda: bracket_oracle(d1, d2))
        assert got == lie_bracket(d1, d2)
        # BiPoly's own methods and its two triple helpers, no scalar code
        assert built == 0, entered
        assert all(k.startswith("BiPoly.") or k in ("_lowest", "_add_into") for k in entered), entered
        nonzero += bool(got)
    assert nonzero >= 15


def test_cr_structural_predicate_matches_object_route():
    # the predicate reads zero tests off the stored ints; compare with the
    # scalar objects of the terms view, on halves that are zero, real,
    # imaginary or complex
    rng = random.Random(61)
    letters = [(1, 0), (2, 0), (0, 1), (0, 2), (1, 1), (-1, 2), (2, -1), (-1, 0), (0, -1), (0, 0)]
    halves = [G(0), G(0), G(2, 0), G(0, 3), G(1, -1)]
    outcomes = Counter()
    for _ in range(400):
        entries = {}
        for n in rng.sample(letters, rng.randint(1, 2)):
            a = rng.choice(halves) if n[1] >= 0 else G(0)
            b = rng.choice(halves) if n[0] >= 0 else G(0)
            if a or b:
                entries[n] = Derivation.from_terms({n: (a, b)})
        want = all(
            (not cy and n2 == 0 and n1 > 0) or (not cx and n1 == 0 and n2 > 0)
            for op in entries.values()
            for (n1, n2), (cx, cy) in op.terms.items()
        )
        got = _cr_structural_predicate(Alphabet(entries))
        assert got == want, entries
        outcomes[got] += 1
    assert outcomes[True] >= 50 and outcomes[False] >= 50, outcomes
