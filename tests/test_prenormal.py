import json
import random
from collections import Counter
from fractions import Fraction
from functools import cache, partial, reduce
from itertools import combinations, product
from pathlib import Path

import pytest
from test_lie_analysis import commuting_families, random_alphabet
from test_numverify import run_fresh

from isocenter import lie_analysis, operators, prenormal
from isocenter.algebra import ONE, ZERO, GaussianRational
from isocenter.errors import InputError
from isocenter.lemmas import _cr_structural_predicate
from isocenter.lie_analysis import (
    central_series,
    iter_bracket_levels,
    resonant_subset_trivial,
    twin,
)
from isocenter.operators import ZERO_DERIVATION, lie_bracket, linear_combination, nested_bracket
from isocenter.prenormal import (
    LINEARISABLE_STRUCTURAL,
    UNKNOWN,
    _MASK,
    Mould,
    _mix,
    _split,
    indicator_mould,
    letter_sum,
    projection_sum,
    random_mould,
    structural_linearisability,
    table_mould,
    verify_fond3,
)
from isocenter.prepared import Alphabet, PlanarField, decompose, weight
from isocenter.samples import quadratic, random_field, random_ui_homogeneous


def G(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def test_projection_sum_zero_field():
    a = decompose(PlanarField(degree=2, coefficients={}))
    assert projection_sum(random_mould(0), a, 6) == ZERO_DERIVATION


def test_projection_sum_nilpotent_reduces_to_letters():
    # uniform quadratic: nilpotent of order 1 and no resonant letters
    a = decompose(quadratic(G(1, -1), G(1, 1), 0))
    m = random_mould(3, support_resonant_only=True)
    assert projection_sum(m, a, 6) == ZERO_DERIVATION


def test_projection_sum_resonant_letter_survives():
    # homogeneous d=5 uniform field with nonzero middle coefficient keeps
    # exactly the weight-zero letter term
    rng = random.Random(8)
    f = random_ui_homogeneous(rng, 5, force_middle_zero=False)
    assert f.coeff(3, 2)  # middle coefficient drawn nonzero real
    a = decompose(f)
    m = random_mould(4, support_resonant_only=True)
    total = projection_sum(m, a, 6)
    assert total == letter_sum(m, a)
    assert a.resonant_letters() == [(2, 2)]
    assert total != ZERO_DERIVATION or not m.value(((2, 2),))


def test_projection_sum_linearity_in_mould():
    a = decompose(quadratic(1, 2, 3))
    m1 = random_mould(1, support_resonant_only=False)
    m2 = random_mould(2, support_resonant_only=False)
    s1 = projection_sum(m1, a, 3)
    s2 = projection_sum(m2, a, 3)
    s12 = projection_sum(Mould(lambda w: m1.value(w) + m2.value(w)), a, 3)
    assert s12 == s1 + s2


def test_projection_sum_deterministic():
    a = decompose(quadratic(1, 2, 3))
    m = random_mould(5, support_resonant_only=True)
    assert projection_sum(m, a, 4) == projection_sum(m, a, 4)


def test_projection_sum_max_len_independent_under_nilpotency():
    a = decompose(quadratic(G(2, 1), G(2, -1), 0))
    m = random_mould(6, support_resonant_only=True)
    results = {projection_sum(m, a, k) for k in (1, 2, 4, 6)}
    assert len(results) == 1


def test_resonant_support_enforced():
    a = decompose(quadratic(1, 2, 3))
    # a resonant-supported mould evaluates to zero off resonance
    m = Mould(lambda w: G(1), support_resonant_only=True)
    assert not m.value(((1, 0),))
    assert m.value(((1, 0), (0, 1))) == G(1)
    assert not m.value(())
    # zeroing all resonant values yields the zero derivation
    zero_on_res = Mould(lambda w: G(0), support_resonant_only=True)
    assert projection_sum(zero_on_res, a, 4) == ZERO_DERIVATION


def test_indicator_and_table_moulds():
    a = decompose(quadratic(1, 2, 0))
    word = ((1, 0), (0, 1))
    expect = nested_bracket(word, dict(a.entries)).scale(Fraction(1, 2))
    assert expect
    # the same word with list letters, as json.load gives it
    for given in (word, [list(n) for n in word]):
        assert projection_sum(indicator_mould(given), a, 3) == expect
    tab = table_mould({word: G(2)})
    assert projection_sum(tab, a, 3) == expect.scale(2)
    # int and Fraction values are made scalars once, at construction
    plain = table_mould({word: 2, word[:1]: Fraction(-1, 3), word[1:]: 0})
    scalars = table_mould({word: G(2), word[:1]: G(Fraction(-1, 3)), word[1:]: G(0)})
    assert all(type(v) is GaussianRational for v in map(plain.value, plain.support))
    for max_len in (1, 2, 3):
        assert projection_sum(plain, a, max_len) == projection_sum(scalars, a, max_len)
    # value takes JSON words (letters as lists), as random_mould's does
    json_word = json.loads(json.dumps(word))
    assert indicator_mould(word).value(json_word) == G(1)
    assert indicator_mould(word).value(json_word[:1]) == ZERO
    assert tab.value(json_word) == plain.value(json_word) == G(2)
    assert plain.value(json_word[:1]) == G(Fraction(-1, 3)) and not tab.value([[0, 1]])


MOULD_LETTERS = [(1, 0), (0, 1), (2, -1), (-1, 2), (1, 1), (1 << 33, -3)]
MOULD_WORDS = [w for r in range(1, 5) for w in product(MOULD_LETTERS, repeat=r)]


def test_random_mould_is_pure_function_of_word():
    # JSON list letters give the tuple word's value, and two moulds made
    # from one seed agree whichever order their words are asked in
    for resonant_only in (False, True):
        m = random_mould(11, support_resonant_only=resonant_only)
        for w in MOULD_WORDS[:60]:
            assert m.value(json.loads(json.dumps(w))) == m.value(w), w
    m1, m2 = random_mould(11, False), random_mould(11, False)
    forward = [m1.value(w) for w in MOULD_WORDS]
    backward = [m2.value(w) for w in reversed(MOULD_WORDS)]
    assert forward == backward[::-1]
    assert len(set(forward)) > 100


def reference_random_mould_value(seed, word):
    """The mould value as ``random_mould``'s docstring defines it, step by step."""
    mod = 1 << 64
    z = seed % mod
    for c in [c for letter in word for c in letter]:
        z = (z ^ (c % mod)) % mod
        z = (z + 0x9E3779B97F4A7C15) % mod
        z = (z * 0xBF58476D1CE4E5B9) % mod
        z = z ^ (z >> 31)
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % mod
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % mod
    z = z ^ (z >> 31)
    digits = []
    for base in (19, 9, 19, 9):
        digits.append(z % base)
        z = z // base
    p, q, r, s = digits[0] - 9, digits[1] + 1, digits[2] - 9, digits[3] + 1
    return GaussianRational(Fraction(p, q), Fraction(r, s))


@pytest.mark.parametrize("resonant_only", [False, True])
def test_random_mould_matches_reference_fold(resonant_only):
    # negative components and one of 2^33: components count mod 2^64, not 2^32;
    # so do seeds, and 2^70 takes seed 0's values
    assert "random" not in vars(prenormal)
    for seed in (0, 1, 12345, -1, 1 << 70):
        m = random_mould(seed, support_resonant_only=resonant_only)
        # a shuffled order too: each value is a function of its word alone
        for w in MOULD_WORDS + random.Random(seed).sample(MOULD_WORDS, 50):
            want = ZERO if resonant_only and weight(w) else reference_random_mould_value(seed, w)
            assert m.value(w) == want, (seed, w)


def tuple_fold():
    """A user fold whose state is a tuple: (position, a, b) with a and b
    depending on the letters' order, finished as (a + b i)/7."""
    start = (0, 1, 0)

    def step(state, letter):
        k, x, y = state
        return k + 1, 3 * x + letter[0] * (k + 2), 5 * y - letter[1] + x

    return start, step, lambda state: (state[1], state[2], 7)


def pair_fold(m1, m2):
    """The fold of m1's value plus m2's: its state is the pair of the parts'
    states, ``step`` steps both and ``finish`` adds their triples unreduced."""
    step1, finish1, step2, finish2 = m1.step, m1.finish, m2.step, m2.finish

    def step(state, letter):
        return step1(state[0], letter), step2(state[1], letter)

    def finish(state):
        a, b, d = finish1(state[0])
        e, f, g = finish2(state[1])
        return a * g + e * d, b * g + f * d, d * g

    return (m1.start, m2.start), step, finish


def folded(m, word):
    """The value of a fold mould by the slow route: its fold from ``start``."""
    if not word or m.support_resonant_only and weight(word):
        return ZERO
    a, b, d = m.finish(reduce(m.step, word, m.start))
    return G(Fraction(a, d), Fraction(b, d))


def kept_values(m):
    """The values a mould keeps, by word: they are kept under the word's parent word, by last letter."""
    return {parent + (n,): v for parent, kids in m._values.items() for n, v in kids.items()}


def test_kept_states_match_the_refold():
    # value keeps word states and steps from the parent's: in any order of
    # asking, and with JSON words mixed in, it equals the fold from start
    # and, for random_mould, the reference definition
    rng = random.Random(27)
    orders = {
        "forward": MOULD_WORDS,
        "reversed": MOULD_WORDS[::-1],
        "shuffled": rng.sample(MOULD_WORDS, len(MOULD_WORDS)),
        "longest first": sorted(MOULD_WORDS, key=len, reverse=True),
    }
    stepped = 0
    for name, words in orders.items():
        for resonant_only in (False, True):
            m = random_mould(13, resonant_only)
            user = Mould(support_resonant_only=resonant_only, fold=tuple_fold())
            for k, w in enumerate(words):
                asked = json.loads(json.dumps(w)) if k % 5 == 0 else w
                want = ZERO if resonant_only and weight(w) else reference_random_mould_value(13, w)
                assert m.value(asked) == folded(m, w) == want, (name, w)
                assert user.value(asked) == folded(user, w), (name, w)
                assert m.value(w) == want and user.value(w) == folded(user, w)
                stepped += w[:-1] in user._states
    assert stepped > 1000
    # a 2,000-letter word, asked letter by letter and then at once on a fresh mould
    long_word = tuple(rng.choice(MOULD_LETTERS) for _ in range(2000))
    m, fresh = random_mould(2, False), random_mould(2, False)
    for r in range(1, len(long_word) + 1):
        m.value(long_word[:r])
    want = reference_random_mould_value(2, long_word)
    assert m.value(long_word) == fresh.value(long_word) == want
    assert len(m._states) == 2000 and len(fresh._states) == 1
    user = Mould(fold=tuple_fold())
    assert user.value(long_word) == folded(user, long_word)


def test_kept_states_one_per_distinct_tuple_word():
    # one entry per distinct tuple word whose value is folded (the resonant
    # support's zeros are not), a JSON word sharing its tuple word's state
    # and value, none for the word fold or finite moulds, and no dict
    # shared between two moulds of one seed
    rng = random.Random(28)
    asked = [rng.choice(MOULD_WORDS) for _ in range(400)]
    for resonant_only in (False, True):
        m, other = random_mould(9, resonant_only), random_mould(9, resonant_only)
        for w in asked:
            m.value(w)
            m.value(json.loads(json.dumps(w)))
        assert set(m._states) == {w for w in asked if not resonant_only or not weight(w)}
        assert len(m._states) < len(asked) and m._states
        assert other._states == {} and other._states is not m._states
    json_only, tuple_only = random_mould(9, False), random_mould(9, False)
    for w in asked:
        json_only.value([list(n) for n in w])
        tuple_only.value(w)
    assert set(json_only._states) == set(kept_values(json_only)) == set(asked)
    assert json_only._states == tuple_only._states and kept_values(json_only) == kept_values(tuple_only)
    states, values = dict(json_only._states), kept_values(json_only)
    for w in asked:
        assert json_only.value(w) == tuple_only.value(json.loads(json.dumps(w)))
    assert json_only._states == states and kept_values(json_only) == values == kept_values(tuple_only)
    word = MOULD_WORDS[-1]
    finite = [indicator_mould(word), table_mould({word: G(2), word[:1]: G(3)})]
    for m in [Mould(lambda w: G(len(w))), Mould(random_mould(9, False).value)] + finite:
        for w in asked:
            m.value(w)
        assert m._states is None


def test_mould_takes_exactly_one_of_fn_and_fold():
    # neither would fail only on the first value, and both would drop fn
    with pytest.raises(TypeError, match="exactly one"):
        Mould()
    with pytest.raises(TypeError, match="exactly one"):
        Mould(support_resonant_only=True)
    with pytest.raises(TypeError, match="exactly one"):
        Mould(lambda w: G(1), fold=tuple_fold())


def test_type_error_in_a_users_fold_surfaces():
    # value makes a JSON word its tuple word before any lookup, and no
    # TypeError is caught: a TypeError from a user's step or finish, or from
    # a word fold's fn, surfaces from value and from projection_sum, after a
    # single call,
    # with no refold from start, and no value is kept for the word
    calls = Counter()
    start, step, finish = tuple_fold()

    def bad_step(state, letter):
        calls["step"] += 1
        if letter == (2, -1):
            raise TypeError("step refused")
        return step(state, letter)

    def bad_finish(state):
        calls["finish"] += 1
        if state[0] == 3:
            raise TypeError("finish refused")
        return finish(state)

    m = Mould(fold=(start, bad_step, finish))
    assert m.value(((1, 0), (0, 1))) == folded(Mould(fold=tuple_fold()), ((1, 0), (0, 1)))
    calls.clear()
    with pytest.raises(TypeError, match="step refused"):
        m.value(((1, 0), (0, 1), (2, -1)))
    assert calls["step"] == 1 and ((1, 0), (0, 1), (2, -1)) not in m._states
    assert ((1, 0), (0, 1), (2, -1)) not in kept_values(m) and ((1, 0), (0, 1)) in kept_values(m)
    calls.clear()
    with pytest.raises(TypeError, match="step refused"):
        m.value(((2, -1),))
    assert calls["step"] == 1 and not kept_values(m).keys() - {((1, 0), (0, 1))}
    m = Mould(fold=(start, step, bad_finish))
    with pytest.raises(TypeError, match="finish refused"):
        m.value(((1, 0), (0, 1), (1, 1)))
    assert calls["finish"] == 1 and kept_values(m) == {} and len(m._states) == 1
    a = decompose(quadratic(1, 2, 3))
    assert (2, -1) in a.letters()
    for resonant_only in (False, True):
        calls.clear()
        m = Mould(support_resonant_only=resonant_only, fold=(start, bad_step, finish))
        with pytest.raises(TypeError, match="step refused"):
            projection_sum(m, a, 3)
        assert calls["step"] <= len(a) and (((2, -1),) not in m._states)
        assert ((2, -1),) not in kept_values(m)
    m = Mould(fold=(start, step, bad_finish))
    with pytest.raises(TypeError, match="finish refused"):
        projection_sum(m, a, 4)
    assert kept_values(m) and all(len(w) < 3 for w in kept_values(m))

    def refuses(w):
        return len(w) > 1 and tuple(w[-1]) == (2, -1)

    def bad_fn(w):
        calls["fn"] += 1
        if refuses(w):
            raise TypeError("fn refused")
        return G(len(w), w[0][0])

    refused = ((1, 0), (0, 1), (2, -1))
    m = Mould(bad_fn)
    for asked in (refused, json.loads(json.dumps(refused)), refused):
        calls.clear()
        with pytest.raises(TypeError, match="fn refused"):
            m.value(asked)
        assert calls["fn"] == 1 and refused not in kept_values(m)
    assert m.value(refused[:2]) == G(2, 1) and list(kept_values(m)) == [refused[:2]]
    for resonant_only in (False, True):
        m = Mould(bad_fn, support_resonant_only=resonant_only)
        with pytest.raises(TypeError, match="fn refused"):
            projection_sum(m, a, 3)
        assert not any(map(refuses, kept_values(m)))
        with pytest.raises(TypeError, match="fn refused"):
            projection_sum(m, a, 3)


def test_finish_with_denominator_not_positive_is_refused():
    # a finish that gives d <= 0 raises InputError naming the word, from
    # value (tuple and JSON words), letter_sum and projection_sum, whether
    # the word is a tree word below L or a child at level L, and no value is
    # kept for it.  Unrefused, (1, 0, -1) became a value unequal to the -1
    # of the equal fold (-1, 0, 1), and the two moulds' sums differed
    start, step, finish = tuple_fold()
    a = decompose(quadratic(1, 2, 3))
    cubic = decompose(random_field(random.Random(1), 3, density=1))
    assert cubic.resonant_letters()
    w = ((1, 0), (0, 1))
    for bad in (0, -1, -7):
        def bad_finish(state, bad=bad, at=2):
            x, y, d = finish(state)
            return (x, y, bad) if state[0] == at else (x, y, d)

        m = Mould(fold=(start, step, bad_finish))
        for asked in (w, json.loads(json.dumps(w)), w):
            with pytest.raises(InputError, match=rf"\(1,0\)·\(0,1\) has denominator {bad}"):
                m.value(asked)
        assert m.value(w[:1]) == folded(Mould(fold=tuple_fold()), w[:1]) and list(kept_values(m)) == [w[:1]]
        for resonant in (False, True):
            for L in (2, 3):  # the length-2 words are level L's children, then tree words below L
                m = Mould(support_resonant_only=resonant, fold=(start, step, bad_finish))
                with pytest.raises(InputError, match="denominator"):
                    projection_sum(m, a, L)
                assert all(len(v) == 1 for v in kept_values(m)) and (resonant or kept_values(m)), L
            m = Mould(support_resonant_only=resonant, fold=(start, step, partial(bad_finish, at=1)))
            with pytest.raises(InputError, match="denominator"):
                letter_sum(m, cubic)
            assert kept_values(m) == {}
        with pytest.raises(InputError, match="denominator"):
            Mould(fold=pair_fold(random_mould(1, False), Mould(fold=(start, step, lambda state: (1, 0, 0))))).value(w)
    negative, positive = (Mould(fold=(start, step, lambda state, d=d: (d, 0, -d))) for d in (1, -1))
    with pytest.raises(InputError, match="denominator -1"):
        projection_sum(negative, a, 3)
    assert projection_sum(positive, a, 3) == -projection_sum(Mould(lambda w: ONE), a, 3)


def old_route_projection_sum(m, a, max_len):
    """The projection sum by the route before its one accumulator: one
    ``linear_combination`` per level of the tree, the deepest by its last
    letters, over the values of ``m.value``, then the levels combined
    with their 1/r factors."""
    def weighted(w, twinned):
        c = m.value(w) - (m.value(twin(w)) if twinned else ZERO)
        return c._a, c._b, c._d

    levels = list(iter_bracket_levels(a, max_len, m.support_resonant_only))
    sums = [linear_combination((weighted(w, r > 1), d) for w, _, d in level)
            for r, level in enumerate(levels[:max(max_len - 1, 1)], 1)]
    if max_len > 1:
        below = levels[max_len - 2]
        sums.append(linear_combination(
            ((1, 0, 1), lie_bracket(a[n], linear_combination((weighted(u + (n,), max_len > 2), d)
                                                             for u, _, d in below)))
            for n in a.letters()))
    return linear_combination(((1, 0, r), s) for r, s in enumerate(sums, 1))


def test_projection_sum_matches_the_level_by_level_route():
    # the one-accumulator sum against the route it replaced and against the
    # brute force, on random alphabets at L = 1..5 with both supports, for
    # fold moulds, word folds and a pair fold, fresh and kept across sums in
    # shuffled order; one alphabet in four has a single letter, so no
    # letter pair brackets and level L - 1 is empty from L = 3 on
    rng = random.Random(61)
    lengths, empty, nonzero = set(), 0, 0
    for k in range(32):
        a = random_alphabet(rng)
        if k % 4 == 0:
            n = rng.choice(a.letters())
            a = Alphabet({n: a[n]})
        max_len = max(L for L in range(1, 6) if L == 1 or len(a) ** L <= 300)
        brackets = brute_brackets(a, max_len)
        for resonant in (False, True):
            makers = {
                "fold": lambda: random_mould(k, resonant),
                "word fold": lambda: Mould(cache(random_mould(k + 100, resonant).value), resonant),
                "pair": lambda: Mould(support_resonant_only=resonant,
                                      fold=pair_fold(random_mould(k, resonant), Mould(fold=tuple_fold()))),
            }
            kept = {kind: make() for kind, make in makers.items()}
            for L in rng.sample(range(1, max_len + 1), max_len):
                lengths.add(L)
                empty += L > 2 and not list(iter_bracket_levels(a, L, resonant))[L - 2]
                shorter = [(w, d) for w, d in brackets if len(w) <= L]
                for kind, make in makers.items():
                    got = projection_sum(make(), a, L)
                    assert got == projection_sum(kept[kind], a, L) == old_route_projection_sum(make(), a, L), kind
                    assert got == brute_projection_sum(make(), shorter), (k, L, kind)
                    nonzero += bool(got)
    assert lengths == {1, 2, 3, 4, 5} and empty >= 40 and nonzero >= 400, (empty, nonzero)


def _draws(seed, word):
    """The integers p, q, r, s behind ``random_mould(seed)``'s value on a word."""
    return _split(reduce(_mix, word, seed & _MASK))


# chi-square quantiles at p = 1e-6 for 18 and 8 degrees of freedom: the
# counts are fixed by the definition, so the bound is set to catch a skewed
# draw, not a chance excess (p's statistic is 40.9 here, near its 0.2 % tail)
CHI2_BOUND = {19: 61.91, 9: 42.70}


def test_random_mould_draws_are_uniform():
    # every value of p, r in -9..9 and q, s in 1..9 occurs, and each
    # draw's counts over 3 seeds x 1,554 words pass a chi-square test
    draws = [_draws(seed, w) for seed in (0, 1, 12345) for w in MOULD_WORDS]
    for k, values in enumerate((range(-9, 10), range(1, 10), range(-9, 10), range(1, 10))):
        counts = Counter(d[k] for d in draws)
        assert set(counts) == set(values), k
        expected = len(draws) / len(values)
        chi2 = sum((counts[v] - expected) ** 2 / expected for v in values)
        assert chi2 < CHI2_BOUND[len(values)], (k, chi2)
    # the value is p/q + (r/s) i, and different seeds give different values
    m = random_mould(5, False)
    for w in MOULD_WORDS:
        p, q, r, s = _draws(5, w)
        assert m.value(w) == G(Fraction(p, q), Fraction(r, s)), w
    sequences = [[random_mould(seed, False).value(w) for w in MOULD_WORDS] for seed in (0, 1, 12345)]
    for s1, s2 in combinations(sequences, 2):
        assert sum(x == y for x, y in zip(s1, s2)) < len(MOULD_WORDS) // 20


def test_projection_sum_leaves_hashlib_unloaded():
    # the mould hashes words with integer arithmetic; hashlib would load OpenSSL
    code = (
        "import sys, isocenter.cli; "
        "from isocenter.prenormal import projection_sum, random_mould; "
        "from isocenter.prepared import decompose; "
        "from isocenter.samples import quadratic; "
        "print(bool(projection_sum(random_mould(1, False), decompose(quadratic(1, 2, 3)), 3))); "
        "print('_hashlib' in sys.modules)"
    )
    assert run_fresh(code).split() == ["True", "False"]


def test_verify_fond3_cases():
    # even homogeneous degree: no resonant letters, letter part empty
    rng = random.Random(10)
    f4 = random_ui_homogeneous(rng, 4)
    a4 = decompose(f4)
    assert verify_fond3(a4, 20, 6, seed=1)
    assert letter_sum(random_mould(1), a4) == ZERO_DERIVATION
    # odd homogeneous degree with nonzero middle: letter part is the
    # single weight-zero letter
    f5 = random_ui_homogeneous(rng, 5)
    a5 = decompose(f5)
    assert verify_fond3(a5, 20, 6, seed=2)
    # zero field: vacuous
    assert verify_fond3(decompose(PlanarField(degree=2, coefficients={})), 5, 4)
    # precondition: non-nilpotent alphabet rejected
    with pytest.raises(InputError):
        verify_fond3(decompose(quadratic(1, 2, 0)), 5, 4)


def test_verify_fond3_rejects_empty_bounds(monkeypatch):
    # no trial or no length would check nothing and return True
    def refuse(*args):
        raise AssertionError("verify_fond3 worked before checking its bounds")

    a4 = decompose(random_ui_homogeneous(random.Random(10), 4))
    monkeypatch.setattr(prenormal, "central_series", refuse)
    for trials, max_len in ((0, 6), (-3, 6), (5, 0), (5, -1), (0, 0)):
        with pytest.raises(InputError):
            verify_fond3(a4, trials, max_len)


def test_structural_linearisability_verdicts():
    # holomorphic quadratic: the x- and y-families are components of one sign
    assert structural_linearisability(decompose(quadratic(1, 0, 0)), 6) == LINEARISABLE_STRUCTURAL
    # uniform quadratic: every letter is its own component
    assert structural_linearisability(decompose(quadratic(G(1), G(1), 0)), 6) == LINEARISABLE_STRUCTURAL
    # condition iii parameters: structure alone cannot decide
    f = quadratic(G(Fraction(5, 2)), G(1), G(Fraction(-3, 2)))
    assert structural_linearisability(decompose(f), 6) == UNKNOWN


def brute_brackets(a, max_len):
    """Every word from itertools.product with its nonzero nested bracket."""
    words = (w for r in range(1, max_len + 1) for w in product(a.letters(), repeat=r))
    return [(w, d) for w in words for d in [nested_bracket(w, a.entries)] if d]


def brute_projection_sum(m, brackets):
    """Sum of M(w) [B_w] / |w| over the (word, bracket) pairs, term by term."""
    total = ZERO_DERIVATION
    for w, d in brackets:
        total = total + d.scale(m.value(w) * GaussianRational(Fraction(1, len(w))))
    return total


def test_projection_sum_matches_brute_force():
    # L cycles through 1..5, capped so that there are at most 700 words of
    # length L; random moulds are cached, since they are pure and the brute
    # force asks again for every value
    rng = random.Random(17)
    kinds, lengths = set(), set()
    nonzero = 0
    for k in range(200):
        a = random_alphabet(rng)
        max_len = max(L for L in range(1, 1 + k % 5 + 1) if L == 1 or len(a) ** L <= 700)
        lengths.add(max_len)
        kinds |= {"extreme" if -1 in n else "zero" if weight(n) == 0 else "plain" for n in a}
        brackets = brute_brackets(a, max_len)
        words = [w for w, _ in brackets] or [()]
        table = table_mould({rng.choice(words): G(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(4)})
        full = Mould(cache(random_mould(k, support_resonant_only=False).value))
        moulds = [
            full,
            Mould(full.value, support_resonant_only=True),
            indicator_mould(rng.choice(words)),
            table,
            Mould(lambda w, m1=full, m2=table: m1.value(w) + m2.value(w)),
        ]
        # one alphabet instance, which keeps its trees, at every L up to
        # max_len in shuffled order and with both supports: a tree pruned
        # for one L and served at another would differ from a fresh
        # alphabet's sum and from the brute force
        for L in random.Random(k).sample(range(1, max_len + 1), max_len):
            shorter = [(w, d) for w, d in brackets if len(w) <= L]
            for m in moulds[:2]:
                got = projection_sum(m, a, L)
                assert got == projection_sum(m, Alphabet(a.entries), L) == brute_projection_sum(m, shorter)
        for m in moulds:
            got = projection_sum(m, a, max_len)
            assert got == brute_projection_sum(m, brackets)
            nonzero += bool(got)
    assert kinds == {"extreme", "zero", "plain"} and lengths == {1, 2, 3, 4, 5}
    assert nonzero >= 500


def test_random_mould_fold_matches_brute_force_and_word_fold():
    # random_mould's own fold through projection_sum, against the brute
    # force and against the same values on the word fold, Mould(value),
    # with seeds that are negative or 2^64 and beyond
    rng = random.Random(21)
    lengths, seeds = set(), set()
    nonzero = 0
    for k in range(200):
        a = random_alphabet(rng)
        max_len = max(L for L in range(1, 1 + k % 5 + 1) if L == 1 or len(a) ** L <= 700)
        lengths.add(max_len)
        seed = [k, -k - 1, (1 << 64) + k, rng.getrandbits(80), -rng.getrandbits(70)][k % 5]
        seeds.add("negative" if seed < 0 else "wide" if seed >> 64 else "plain")
        brackets = brute_brackets(a, max_len)
        for resonant_only in (False, True):
            m = random_mould(seed, resonant_only)
            got = projection_sum(m, a, max_len)
            assert got == brute_projection_sum(m, brackets)
            assert got == projection_sum(Mould(m.value, resonant_only), a, max_len)
            nonzero += bool(got)
    assert lengths == {1, 2, 3, 4, 5} and seeds == {"negative", "wide", "plain"}
    assert nonzero >= 200


def test_projection_sum_steps_each_lineage_once(monkeypatch):
    # a fresh fold mould steps once per tree word and twin below level L,
    # each from its parent word's kept state, and once per child u n and
    # twin(u) n of level L from u's (5,837 _mix calls here; a refold from
    # the start would cost r per word of length r), finishing each word
    # once; a repeat sum reads every value back, with no _mix and no
    # finish.  A word fold calls fn once per distinct word on its first sum
    # and never on a repeat
    a = decompose(random_field(random.Random(18), 3, density=1))
    max_len = 4
    sizes = [len(level) for level in iter_bracket_levels(a, max_len - 1)]
    words = sizes[0] + 2 * sum(sizes[1:]) + 2 * sizes[-1] * len(a)
    calls = Counter()
    mix = prenormal._mix

    def counted(z, letter):
        calls["mix"] += 1
        return mix(z, letter)

    monkeypatch.setattr(prenormal, "_mix", counted)
    kept = random_mould(3, support_resonant_only=False)
    finish = kept.finish

    def finished(z):
        calls["finish"] += 1
        return finish(z)

    kept.finish = finished
    want = projection_sum(kept, a, max_len)
    assert calls["mix"] == calls["finish"] == words == 5837
    calls.clear()
    assert projection_sum(kept, a, max_len) == want
    assert calls["mix"] == calls["finish"] == 0
    asked = Counter()

    def fn(w):
        asked[w] += 1
        return kept.value(w)  # read back: no _mix and no finish

    word_fold = Mould(fn)
    assert projection_sum(word_fold, a, max_len) == want
    assert len(asked) == words and set(asked.values()) == {1}
    assert projection_sum(word_fold, a, max_len) == want
    assert sum(asked.values()) == words and calls["mix"] == calls["finish"] == 0
    assert len(a) == 9 and want


def test_projection_sum_brackets_no_length_l_word(monkeypatch):
    # one bracket per word of length 2..L-1 in the tree, and one per letter
    # whose S_n is nonzero; none for a word of the deepest length
    rng = random.Random(18)
    a = decompose(random_field(rng, 3, density=1))
    max_len = 4
    bound = sum(len(a) ** r for r in range(2, max_len)) + len(a)
    calls = [0]

    def counted(d1, d2):
        calls[0] += 1
        if calls[0] > bound:
            raise AssertionError(f"more than {bound} brackets")
        return lie_bracket(d1, d2)

    word = next(
        w for w in product(a.letters(), repeat=max_len) if weight(w) and nested_bracket(w, a.entries)
    )
    monkeypatch.setattr(lie_analysis, "lie_bracket", counted)
    monkeypatch.setattr(prenormal, "lie_bracket", counted)
    # the word fold of an indicator has no support, so it takes the tree
    got = projection_sum(Mould(indicator_mould(word).value), a, max_len)
    assert got == nested_bracket(word, a.entries).scale(G(Fraction(1, max_len)))
    assert len(a) == 9 and calls[0] <= bound


def test_projection_sum_brackets_each_swap_twin_pair_once(monkeypatch):
    # at L = 4 the tree brackets each unordered letter pair once at level 2
    # and, at level 3, one word of each pair of swap twins; level 4 costs
    # one bracket per letter
    a = decompose(random_field(random.Random(18), 3, density=1))
    k = len(a)
    pairs = sum(1 for m, n in combinations(a.letters(), 2) if lie_bracket(a[m], a[n]))
    tree, last = [0], [0]

    def counter(cell):
        def counted(d1, d2):
            cell[0] += 1
            return lie_bracket(d1, d2)
        return counted

    monkeypatch.setattr(lie_analysis, "lie_bracket", counter(tree))
    monkeypatch.setattr(prenormal, "lie_bracket", counter(last))
    assert projection_sum(random_mould(3, support_resonant_only=False), a, 4)
    assert k == 9 and pairs > 0
    assert tree[0] == k * (k - 1) // 2 + k * pairs and last[0] <= k


def test_projection_sum_reuses_the_alphabets_tree(monkeypatch):
    # the tree is kept on the alphabet, so a sum of another mould over it
    # makes no tree bracket and no _reach: only the deepest level's
    # [B_n, S_n], at most one per letter, with either support
    a = decompose(random_field(random.Random(18), 3, density=1))
    fresh = Alphabet(a.entries)
    want = {resonant: projection_sum(random_mould(5, resonant), fresh, 4) for resonant in (False, True)}
    for resonant in (False, True):
        assert projection_sum(random_mould(3, resonant), a, 4)
    calls = [0]

    def refuse(*args):
        raise AssertionError("the tree was built again")

    def counted(d1, d2):
        calls[0] += 1
        return lie_bracket(d1, d2)

    monkeypatch.setattr(lie_analysis, "lie_bracket", refuse)
    monkeypatch.setattr(lie_analysis, "_reach", refuse)
    monkeypatch.setattr(prenormal, "lie_bracket", counted)
    for resonant in (False, True):
        calls[0] = 0
        assert projection_sum(random_mould(5, resonant), a, 4) == want[resonant]
        assert 0 < calls[0] <= len(a)


def test_resonant_sum_bracket_budgets_on_the_benchmark_fields(tmp_path, monkeypatch):
    # projection_sum(random_mould(1, True), a, 6) on fresh seed-1 benchmark
    # alphabets.  The resonant tree prunes by component reach: on the CR
    # fields, whose two families each have one weight sign, it keeps no
    # entry past level 1 and brackets only the full tree's k(k-1)/2 letter
    # pairs (28 and 45, against 404 and 1,095 by the whole alphabet's
    # reach).  On the mould_sum fields it makes no more brackets than that
    # whole-alphabet route did, as its level 2 is read off the full tree's
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import fixtures

    manifest = fixtures.write_all(1, tmp_path)
    paths = {f"{w}/{e['name']}": e["path"] for w in ("resonance_deep", "mould_sum") for e in manifest[w]}
    calls = [0]

    def counted(d1, d2):
        calls[0] += 1
        return lie_bracket(d1, d2)

    monkeypatch.setattr(lie_analysis, "lie_bracket", counted)
    monkeypatch.setattr(prenormal, "lie_bracket", counted)

    def summed(name):
        a = decompose(PlanarField.load(paths[name]))
        calls[0] = 0
        projection_sum(random_mould(1, True), a, 6)
        return a, calls[0]

    for name, k in (("resonance_deep/cr_5", 8), ("resonance_deep/cr_6", 10)):
        a, made = summed(name)
        levels = list(iter_bracket_levels(a, 6, resonant_only=True))
        assert (len(a), made, sum(map(len, levels[1:]))) == (k, k * (k - 1) // 2, 0), name
    budgets = {"dense_quadratic": 342, "dense_cubic": 17009, "ui_hom_5": 10, "ui_hom_6": 15}
    assert {e["name"] for e in manifest["mould_sum"]} == set(budgets)
    for name, budget in budgets.items():
        assert 0 < summed(f"mould_sum/{name}")[1] <= budget, name


def benchmark_fields(tmp_path, monkeypatch):
    """The seed-1 benchmark field files, by "workload/name", and the manifest."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import fixtures

    manifest = fixtures.write_all(1, tmp_path)
    paths = {f"{w}/{e['name']}": e["path"] for w in ("resonance_deep", "mould_sum") for e in manifest[w]}
    return paths, manifest


def test_resonant_sum_at_length_one_makes_no_bracket(tmp_path, monkeypatch):
    # at L = 1 the resonant tree is the weight-zero letters: no letter pair
    # is bracketed for the components (36 and 105 brackets before)
    paths, _ = benchmark_fields(tmp_path, monkeypatch)
    calls = [0]

    def counted(d1, d2):
        calls[0] += 1
        return lie_bracket(d1, d2)

    monkeypatch.setattr(lie_analysis, "lie_bracket", counted)
    monkeypatch.setattr(prenormal, "lie_bracket", counted)
    for name in ("mould_sum/dense_cubic", "resonance_deep/dense_quartic"):
        a = decompose(PlanarField.load(paths[name]))
        m = random_mould(1, True)
        got = projection_sum(m, a, 1)
        assert calls[0] == 0, name
        assert got == letter_sum(m, a), name
        assert [w for w, *_ in next(iter_bracket_levels(a, 1, resonant_only=True))] == [
            (n,) for n in a.resonant_letters()]
    assert calls[0] == 0


def test_warm_mould_sum_round_difference_budget(tmp_path, monkeypatch):
    # a warmed seed-1 mould_sum round of the benchmark (its moulds and
    # alphabets kept from a first round) makes one _difference per twin
    # class whose value is summed: 360 below the deepest level and 1,036
    # children u n of the deepest.  A word of level 1 is no twin class and
    # takes its value as it is
    _, manifest = benchmark_fields(tmp_path, monkeypatch)
    import workloads

    wl = workloads.WORKLOADS["mould_sum"](manifest, Path(__file__).resolve().parents[1], tmp_path)
    first = [fn()[1] for _, fn in wl.ops]
    calls = [0]
    difference = prenormal._difference

    def counted(v, t):
        calls[0] += 1
        return difference(v, t)

    monkeypatch.setattr(prenormal, "_difference", counted)
    assert [fn()[1] for _, fn in wl.ops] == first
    assert calls[0] == 1396


def test_benchmark_round_gcd_budgets(tmp_path, monkeypatch):
    # counts of the exact kernels' gcds, which no host speed changes: a
    # warmed seed-1 mould_sum round (1,740 with each half of a letter
    # reduced on its own), and one seed-1 resonance_deep round (4,322 so)
    _, manifest = benchmark_fields(tmp_path, monkeypatch)
    import workloads

    root = Path(__file__).resolve().parents[1]
    wl = workloads.WORKLOADS["mould_sum"](manifest, root, tmp_path)
    first = [fn()[1] for _, fn in wl.ops]
    calls = [0]
    real = operators.gcd

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(operators, "gcd", counted)
    assert [fn()[1] for _, fn in wl.ops] == first
    assert calls[0] == 919
    wl = workloads.WORKLOADS["resonance_deep"](manifest, root, tmp_path)
    calls[0] = 0
    assert all(fn()[0] for _, fn in wl.ops)
    assert calls[0] == 2185


def test_sum_of_fold_moulds_steps_once_per_value(tmp_path, monkeypatch):
    # the benchmark's sum_ab on mould_sum/dense_quadratic at L = 5: the first
    # sum takes at most one _mix step per value of its parts (a refold takes
    # one per letter, about 8,400), and a repeat sum none
    paths, manifest = benchmark_fields(tmp_path, monkeypatch)
    entry = next(e for e in manifest["mould_sum"] if e["name"] == "dense_quadratic")
    specs = entry["moulds"]
    assert entry["max_len"] == 5 and specs["sum_ab"]["of"] == ["full_a", "full_b"]
    steps = [0]
    mix = prenormal._mix

    def counted(z, letter):
        steps[0] += 1
        return mix(z, letter)

    monkeypatch.setattr(prenormal, "_mix", counted)
    m1, m2 = (random_mould(specs[p]["seed"], specs[p]["support"] == "resonant") for p in ("full_a", "full_b"))
    asked = []

    def summed(w):
        asked.append(w)
        return m1.value(w) + m2.value(w)

    a = decompose(PlanarField.load(paths["mould_sum/dense_quadratic"]))
    first = projection_sum(Mould(summed), a, 5)
    assert 0 < steps[0] <= 2 * len(asked) and 2 * sum(map(len, asked)) > 8000
    steps[0] = 0
    assert projection_sum(Mould(summed), a, 5) == first and steps[0] == 0
    assert first == projection_sum(random_mould(specs["full_a"]["seed"], False), a, 5) + projection_sum(
        random_mould(specs["full_b"]["seed"], False), a, 5)


def test_sum_of_fold_moulds_fresh_and_reused():
    # Mould(lambda w: m1.value(w) + m2.value(w)) over random alphabets gives
    # the sum of the reference values, with fresh moulds and with moulds
    # kept across L = 1..5 in shuffled order
    rng = random.Random(29)
    lengths, nonzero = set(), 0
    for k in range(30):
        a = random_alphabet(rng)
        max_len = max(L for L in range(1, 6) if L == 1 or len(a) ** L <= 700)
        lengths.add(max_len)
        seeds = (k, 1000 + k)
        ref = Mould(lambda w: sum((reference_random_mould_value(s, w) for s in seeds), ZERO))
        kept = [random_mould(s, False) for s in seeds]
        for L in rng.sample(range(1, max_len + 1), max_len):
            want = projection_sum(ref, a, L)
            nonzero += bool(want)
            fresh = [random_mould(s, False) for s in seeds]
            for m1, m2 in (fresh, kept):
                assert projection_sum(Mould(lambda w, m1=m1, m2=m2: m1.value(w) + m2.value(w)), a, L) == want
    assert 5 in lengths and nonzero >= 50, nonzero


def test_repeat_sums_over_kept_moulds_match_fresh_and_brute_force():
    # random_mould sums at L = 1..5 in shuffled order, both supports: a
    # repeat sum over a kept mould reads its states back, and must equal a
    # fresh mould's sum and the brute force over the reference values.  A
    # resonant sum keeps the states of the non-resonant prefixes of its
    # tree words; the same mould, then summed with full support and asked
    # for its values, must read those states back right too
    rng = random.Random(31)
    lengths, nonzero, prefixes = set(), 0, 0
    for k in range(60):
        a = random_alphabet(rng)
        max_len = max(L for L in range(1, 1 + k % 5 + 1) if L == 1 or len(a) ** L <= 700)
        lengths.add(max_len)
        brackets = brute_brackets(a, max_len)
        reference = cache(lambda w, k=k: reference_random_mould_value(k, w))
        kept = {resonant: random_mould(k, resonant) for resonant in (False, True)}
        flipped = random_mould(k, True)
        for L in rng.sample(range(1, max_len + 1), max_len):
            shorter = [(w, d) for w, d in brackets if len(w) <= L]
            want = {resonant: brute_projection_sum(Mould(reference, resonant), shorter)
                    for resonant in (False, True)}
            for resonant, m in kept.items():
                fresh = projection_sum(random_mould(k, resonant), a, L)
                assert projection_sum(m, a, L) == projection_sum(m, a, L) == fresh == want[resonant], (k, L)
                nonzero += bool(fresh)
            flipped.support_resonant_only = True
            assert projection_sum(flipped, a, L) == want[True], (k, L)
            prefixes += any(weight(w) for w in flipped._states)
            flipped.support_resonant_only = False
            assert projection_sum(flipped, a, L) == want[False], (k, L)
            assert all(flipped.value(w) == reference(w) for w in list(flipped._states)), (k, L)
    assert lengths == {1, 2, 3, 4, 5} and nonzero >= 200 and prefixes >= 50, (nonzero, prefixes)


def test_kept_values_match_fresh_moulds_and_brute_force():
    # fold moulds (random_mould) and word folds over the reference values,
    # with both supports, kept across sums at L = 1..5 in shuffled order and
    # asked for values in between, JSON words mixed in: every repeat sum
    # reads the kept values back and must equal a fresh mould's sum and the
    # itertools.product brute force over the reference values
    rng = random.Random(37)
    lengths, nonzero, read_back = set(), 0, 0
    for k in range(40):
        a = random_alphabet(rng)
        max_len = max(L for L in range(1, 1 + k % 5 + 1) if L == 1 or len(a) ** L <= 700)
        lengths.add(max_len)
        brackets = brute_brackets(a, max_len)
        cached = cache(lambda w, k=k: reference_random_mould_value(k, w))

        def reference(w, cached=cached):  # a JSON word too
            return cached(tuple(map(tuple, w)))

        kept = {(kind, resonant): random_mould(k, resonant) if kind == "fold" else Mould(reference, resonant)
                for kind in ("fold", "word fold") for resonant in (False, True)}
        words = [w for w, _ in brackets] + [w + (n,) for w, _ in brackets if len(w) == max_len - 1
                                            for n in a.letters()]
        for L in rng.sample(range(1, max_len + 1), max_len):
            shorter = [(w, d) for w, d in brackets if len(w) <= L]
            for (kind, resonant), m in kept.items():
                want = brute_projection_sum(Mould(reference, resonant), shorter)
                fresh = random_mould(k, resonant) if kind == "fold" else Mould(reference, resonant)
                assert projection_sum(m, a, L) == projection_sum(fresh, a, L) == want, (k, L, kind)
                values = kept_values(m)
                read_back += sum(w in values for w, _ in shorter)
                for w in rng.sample(words, min(len(words), 20)):
                    asked = json.loads(json.dumps(w)) if rng.random() < 0.3 else w
                    value = ZERO if resonant and weight(w) else reference(w)
                    assert m.value(asked) == value, (k, w, kind)
                assert projection_sum(m, a, L) == want, (k, L, kind)
                nonzero += bool(want)
    assert lengths == {1, 2, 3, 4, 5} and nonzero >= 300 and read_back > 5000, (nonzero, read_back)


def test_sums_in_any_order_step_within_the_kept_words(monkeypatch):
    # sums at L = 1..5 in shuffled order on one fold mould: each kept value
    # was stepped once, and each kept state cost at most one step per letter
    # of its word.  A word kept as the deepest level of a shorter sum has a
    # value and no state, so a longer sum may fold its state, or a child's,
    # from start
    calls = [0]
    mix = prenormal._mix

    def counted(z, letter):
        calls[0] += 1
        return mix(z, letter)

    rng = random.Random(39)
    schedules, deep = set(), 0
    for k in range(20):
        a = random_alphabet(rng)
        for resonant in (False, True):
            order = rng.sample(range(1, 6), 5)
            schedules.add(tuple(order))
            want = [projection_sum(random_mould(k, resonant), a, L) for L in order]
            with monkeypatch.context() as patch:
                patch.setattr(prenormal, "_mix", counted)
                m = random_mould(k, resonant)
                calls[0] = 0
                assert [projection_sum(m, a, L) for L in order] == want
            values = len(kept_values(m))
            assert values <= calls[0] <= values + sum(map(len, m._states)), (k, order)
        # one sum on a fresh mould: every tree word of length 3 or more, and
        # its twin, steps from its parent word's kept state, weight nonzero
        # or not
        for resonant in (False, True):
            m = random_mould(k, resonant)
            projection_sum(m, a, 5)
            assert all(w[:-1] in m._states for w in m._states if len(w) > 2), k
            deep += resonant and sum(len(w) > 2 and weight(w[:-1]) != 0 for w in m._states)
    assert len(schedules) > 30 and deep > 100, deep


def test_word_fold_calls_fn_once_per_distinct_word():
    # a word fold over two alphabets that share letters, asked for values
    # and summed at L = 1..5 in shuffled order, with both supports: fn is
    # called once per distinct tuple word it is asked for, and each sum
    # equals a fresh word fold's
    rng = random.Random(41)
    shared = 0
    for k in range(6):
        fields = [decompose(random_field(rng, 3, density=1)) for _ in range(2)]
        alphabets = [Alphabet({n: f[n] for n in rng.sample(f.letters(), 4)}) for f in fields]
        shared += len(set(alphabets[0].letters()) & set(alphabets[1].letters()))
        letters = sorted({n for a in alphabets for n in a.letters()})
        for resonant in (False, True):
            asked = Counter()

            def fn(w, k=k):
                asked[w] += 1
                return reference_random_mould_value(k, w)

            m = Mould(fn, resonant)
            schedule = [(a, L) for a in alphabets for L in range(1, 6)]
            for a, L in rng.sample(schedule, len(schedule)):
                want = projection_sum(Mould(lambda w, k=k: reference_random_mould_value(k, w), resonant), a, L)
                assert projection_sum(m, a, L) == want, (k, L)
                for r in (1, 2, 3):
                    w = tuple(rng.choice(letters) for _ in range(r))
                    assert m.value(w) == (ZERO if resonant and weight(w) else reference_random_mould_value(k, w))
            assert asked and set(asked.values()) == {1} and set(asked) == set(kept_values(m))
    assert shared >= 6


def test_one_sum_keeps_a_state_per_word_below_l_and_a_value_per_word():
    # one full-support sum at L = 4 on the 9-letter cubic keeps one state per
    # tree word and twin of levels 1..3, and one value per such word and per
    # child u n and twin(u) n of level 4; the word fold keeps the same
    # values and no state
    a = decompose(random_field(random.Random(18), 3, density=1))
    levels = list(iter_bracket_levels(a, 3))
    sizes = [len(level) for level in levels]
    below = {v for level in levels for w, _, _ in level for v in (w, twin(w))}
    children = {v + (n,) for w, _, _ in levels[-1] for v in (w, twin(w)) for n in a.letters()}
    m = random_mould(3, support_resonant_only=False)
    projection_sum(m, a, 4)
    assert len(m._states) == sizes[0] + 2 * sum(sizes[1:]) == len(below)
    values = kept_values(m)
    assert len(values) == len(m._states) + 2 * sizes[-1] * len(a) == len(below | children)
    assert set(m._states) == below and set(values) == below | children
    word_fold = Mould(m.value)
    projection_sum(word_fold, a, 4)
    assert word_fold._states is None and kept_values(word_fold).keys() == values.keys()


def test_finite_moulds_keep_no_values():
    # a finite mould's values are its table: value and the sums keep none
    a = decompose(random_field(random.Random(18), 3, density=1))
    word = next(w for w, _, _ in list(iter_bracket_levels(a, 2))[-1])
    for m, want in ((indicator_mould(word), G(1)), (table_mould({word: G(2), word[:1]: G(3)}), G(2))):
        for w in MOULD_WORDS:
            m.value(w)
            m.value(json.loads(json.dumps(w)))
        assert m.value(word) == want and projection_sum(m, a, 3)
        letter_sum(m, a)
        assert m._values == {}


def test_analyze_brackets_each_letter_pair_once(monkeypatch):
    # analyze's calls on a UI-homogeneous alphabet of even degree, which is
    # order-1 nilpotent with no weight-zero letter: central_series(a, 3)
    # brackets each unordered letter pair once and stops at the empty level
    # 2 without building level 3; structural_linearisability(a, 6) reads
    # level 2 back from the alphabet for the component certificate (every
    # letter its own component), so it makes no bracket.  On a fresh
    # alphabet the resonance test makes only level 2's brackets
    a = decompose(random_ui_homogeneous(random.Random(24), 6))
    k = len(a)
    calls, grown = [0], [0]
    grow = lie_analysis._grow

    def counted(d1, d2):
        calls[0] += 1
        return lie_bracket(d1, d2)

    def counted_grow(*args):
        grown[0] += 1
        return grow(*args)

    monkeypatch.setattr(lie_analysis, "lie_bracket", counted)
    monkeypatch.setattr(lie_analysis, "_grow", counted_grow)
    assert [len(level) for level in central_series(a, 3).levels] == [k, 0]
    assert calls[0] == k * (k - 1) // 2 and grown[0] == 2
    calls[0] = 0
    assert structural_linearisability(a, 6) == LINEARISABLE_STRUCTURAL
    assert calls[0] == 0 and grown[0] == 2
    assert resonant_subset_trivial(Alphabet(a.entries), 6).all_brackets_zero
    assert calls[0] == k * (k - 1) // 2 and grown[0] == 4
    assert k == 6 and not a.resonant_letters()


OUTSIDE = (9, -1)  # no letter of a random_alphabet, whose degree is at most 4


def edge_support(rng, a, max_len):
    """Support words on a's letters with each edge case of the finite route,
    keyed by case: longer than L, a letter outside the alphabet, empty, the
    first two letters equal, a word with its twin, and a weight-zero word."""
    letters = a.letters()

    def word(r):
        return tuple(rng.choice(letters) for _ in range(r))

    w = word(rng.randint(2, max(2, max_len)))
    inner = word(rng.randint(1, max_len))
    k = rng.randrange(len(inner))
    n = rng.choice(letters)
    cases = {
        "plain": [word(rng.randint(1, max_len)) for _ in range(3)],
        "long": [word(max_len + rng.randint(1, 2))],
        "outside": [inner[:k] + (OUTSIDE,) + inner[k + 1:]],
        "empty": [()],
        "equal": [(n, n) + word(rng.randint(0, max(0, max_len - 2)))],
        "twins": [w, twin(w)],
    }
    small = (v for r in range(1, min(max_len, 3) + 1) for v in product(letters, repeat=r))
    cases["resonant"] = [v for v in small if weight(v) == 0][:2]
    return cases


def test_finite_support_route_matches_tree():
    # indicator and table moulds on random alphabets, L = 1..5, against the
    # same values as a word fold, Mould(m.value), which has no support and so
    # takes the tree; with resonant support too, set on the finite mould
    rng = random.Random(23)
    seen, lengths = Counter(), set()
    nonzero = 0
    for k in range(60):
        a = random_alphabet(rng)
        if not a:
            continue
        max_len = max(L for L in range(1, 1 + k % 5 + 1) if L == 1 or len(a) ** L <= 700)
        lengths.add(max_len)
        cases = edge_support(rng, a, max_len)
        words = [w for ws in cases.values() for w in ws]
        values = [G(rng.randint(-5, 5), rng.randint(0, 5)) for _ in words]
        values[rng.randrange(len(values))] = ZERO
        moulds = [indicator_mould(w) for w in words] + [table_mould(dict(zip(words, values)))]
        for m in moulds:
            for resonant in (False, True):
                m.support_resonant_only = resonant
                got = projection_sum(m, a, max_len)
                assert got == projection_sum(Mould(m.value, resonant), a, max_len), (k, m.support)
                nonzero += bool(got)
        seen.update(case for case, ws in cases.items() if ws)
    assert lengths == {1, 2, 3, 4, 5} and len(seen) == 7 and min(seen.values()) >= 10
    assert nonzero >= 200


def test_finite_support_route_skips_the_tree(monkeypatch):
    # no call of iter_bracket_levels, no bracket beyond the support words'
    # own nested brackets, and no mould value off the support
    a = decompose(random_field(random.Random(18), 3, density=1))
    letters = a.letters()
    words = [tuple(letters[:4]), tuple(letters[2:5]), (letters[1], letters[0], letters[2]),
             (letters[-1],)]
    table = {w: G(k + 1, -k) for k, w in enumerate(words)}
    want = {w: projection_sum(Mould(indicator_mould(w).value), a, 4) for w in words}
    want_table = projection_sum(Mould(table_mould(table).value), a, 4)
    calls = [0]

    def refuse(*args):
        raise AssertionError("the prefix tree was walked")

    def counted(d1, d2):
        calls[0] += 1
        return lie_bracket(d1, d2)

    monkeypatch.setattr(prenormal, "iter_bracket_levels", refuse)
    monkeypatch.setattr(operators, "lie_bracket", counted)
    for w in words:
        m = indicator_mould(w)
        m.finish = lambda word, f=m.finish, w=w: f(word) if word == w else pytest.fail(word)
        assert projection_sum(m, a, 4) == want[w] and want[w]
    assert projection_sum(table_mould(table), a, 4) == want_table
    assert calls[0] == 2 * sum(len(w) - 1 for w in words)
    with pytest.raises(AssertionError, match="tree was walked"):
        projection_sum(random_mould(1, support_resonant_only=False), a, 4)


def test_support_is_set_by_finite_moulds_only():
    word = ((1, 0), (0, 1))
    assert indicator_mould([list(n) for n in word]).support == (word,)
    assert table_mould({word: G(2), word[:1]: G(3)}).support == (word, word[:1])
    assert table_mould({}).support == ()
    assert Mould(lambda w: G(1)).support is None
    assert random_mould(1).support is None and random_mould(1, False).support is None
    # max_len below 1 is refused alike on both routes
    a = decompose(quadratic(1, 2, 3))
    for m in (indicator_mould(word), table_mould({}), random_mould(1), Mould(lambda w: G(1))):
        for max_len in (0, -2):
            with pytest.raises(InputError, match=f"^max_len must be >= 1, got {max_len}$"):
                projection_sum(m, a, max_len)


def old_structural_linearisability(a, max_len):
    """The verdict before the component certificate: every resonant bracket
    up to max_len vanishes (the span DP), and either the CR predicate holds
    or the alphabet is order-1 nilpotent with no weight-zero letter."""
    if not resonant_subset_trivial(a, max_len).all_brackets_zero:
        return UNKNOWN
    nilpotent = not any(lie_bracket(a[m], a[n]) for m, n in combinations(a.letters(), 2))
    if _cr_structural_predicate(a) or nilpotent and not a.resonant_letters():
        return LINEARISABLE_STRUCTURAL
    return UNKNOWN


def test_structural_certificate_against_the_old_rule():
    # random alphabets, their one-letter sub-alphabets (always nilpotent)
    # and uniform homogeneous fields (nilpotent, weight-zero letter at odd
    # degree), each with and without its weight-zero letters, and two
    # commuting families of opposite weight signs, at L = 1..6: every old
    # LinearisableStructural stays so, and on each alphabet that only the
    # certificate accepts, no itertools.product word of length <= 6 is
    # resonant with a nonzero nested_bracket
    rng = random.Random(19)
    alphabets = []
    for k in range(600):
        a = random_alphabet(rng)
        if k % 3 == 1 and len(a):
            n = rng.choice(a.letters())
            a = Alphabet({n: a[n]})
        elif k % 3 == 2:
            a = decompose(random_ui_homogeneous(rng, rng.randint(2, 5)))
        alphabets += [a, Alphabet({n: a[n] for n in a if weight(n)})]
    drawn = len(alphabets)
    alphabets += [commuting_families(rng) for _ in range(40)]
    verdicts, only_new = Counter(), []
    for i, a in enumerate(alphabets):
        for max_len in range(1, 7):
            old, new = old_structural_linearisability(a, max_len), structural_linearisability(a, max_len)
            assert old == UNKNOWN or new == LINEARISABLE_STRUCTURAL, (a, max_len)
            verdicts[old, new, i < drawn] += 1
            if old != new and a not in only_new:
                only_new.append(a)
    resonant = 0
    for a in only_new:
        for w in (w for r in range(1, 7) for w in product(a.letters(), repeat=r) if not weight(w)):
            assert not nested_bracket(w, a.entries), w
            resonant += 1
    # 162 of the 7,200 random verdicts move, on 16 alphabets whose weights
    # all share one sign, and 216 of the 240 of the families, on 36
    assert verdicts[UNKNOWN, LINEARISABLE_STRUCTURAL, True] >= 150 and len(only_new) >= 50
    assert min(verdicts[v, v, True] for v in (UNKNOWN, LINEARISABLE_STRUCTURAL)) >= 2500
    assert resonant >= 29000
