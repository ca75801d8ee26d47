"""Which scalars the lemma suites draw at seed 0, pinned per lemma.

tests/golden/verify-lemmas-seed0.json holds only the pass lines and the
draw counts, so it cannot see a change in the scalars a lemma checks, nor
a check that silently weakens for some draws.  Here every value returned
by ``random_scalar`` and ``random_nonzero_scalar`` is recorded, through
``samples`` (which the field generators call) and through the names that
``lemmas`` imported, as (name, a, b, d), grouped by the lemma that drew
it, and each lemma's list is compared by count and SHA-256 digest.
"""

import hashlib
import sys
from collections import Counter

from isocenter import lemmas, samples

LEMMAS = ("quadratic_bracket", "bracket_formulas", "fond2", "structure1", "holom", "fond3")
# lemma -> (number of draws, SHA-256 of the repr of the (name, a, b, d) list)
PINNED = {
    "quadratic_bracket": (300, "4c50a6b56af2f80f2f2621da63321d0d108ba52e681ef887347a8c8272342c26"),
    "bracket_formulas": (2500, "079830fa51d9a827e50a4084a81a3da42c819ac77d41ef52ec515fcd3a736ecb"),
    "fond2": (200, "5c9c1a1bf6e61ff07e567cbee8d521976e42b74b1f037800d618c31a36fe01dd"),
    "structure1": (450, "74917a397ab7fdc2b767d0ae1c20dc8f9d79b80620161bdfa8f88601a52dbacb"),
    "holom": (1001, "4237c2eaa33e6e1abf38cea30a0aadca3b86f87c482bea625b65efd2c15f5f3e"),
    "fond3": (9, "ad247ee1bb2903ee9aee322ec89a9e4956b4fb5acec20b6f62874cb12173cd65"),
}


def digest(draws):
    return hashlib.sha256(repr(draws).encode()).hexdigest()


def test_lemma_draws_at_seed_0_are_pinned(monkeypatch):
    draws = {}
    current = []

    def recorder(name, original):
        def recorded(*args):
            z = original(*args)
            draws[current[-1]].append((name, z._a, z._b, z._d))
            return z
        return recorded

    for name in ("random_scalar", "random_nonzero_scalar"):
        wrapped = recorder(name, getattr(samples, name))
        monkeypatch.setattr(samples, name, wrapped)
        monkeypatch.setattr(lemmas, name, wrapped)

    def entering(lemma, run):
        def entered(seed):
            current.append(lemma)
            draws[lemma] = []
            return run(seed)
        return entered

    for lemma in LEMMAS:
        name = f"lemma_{lemma}"
        monkeypatch.setattr(lemmas, name, entering(lemma, getattr(lemmas, name)))
    results = lemmas.run_all(0)
    assert [r.name for r in results] == list(LEMMAS) == current
    assert all(r.passed for r in results)
    assert {lemma: (len(d), digest(d)) for lemma, d in draws.items()} == PINNED


def _alphabet_sizes_and_brackets(monkeypatch, module, lemma, seed):
    """The sizes of the alphabets that ``lemma(seed)`` decomposes, and the
    number of ``lie_bracket`` calls made through ``module``'s name."""
    from isocenter.operators import lie_bracket

    sizes, calls = [], [0]
    decompose = lemmas.decompose

    def recorded(f):
        a = decompose(f)
        sizes.append(len(a))
        return a

    def counted(d1, d2):
        calls[0] += 1
        return lie_bracket(d1, d2)

    monkeypatch.setattr(lemmas, "decompose", recorded)
    monkeypatch.setattr(module, "lie_bracket", counted)
    assert lemma(seed).passed
    return sizes, calls[0]


def test_holom_brackets_only_its_alphabets_letter_pairs(monkeypatch):
    # lemma_holom's 200 alphabets are CR, whose families are components
    # with weights of one sign: each verdict brackets its k letters' pairs
    # once, k(k-1)/2, and nothing past level 2
    from isocenter import lie_analysis

    sizes, calls = _alphabet_sizes_and_brackets(monkeypatch, lie_analysis, lemmas.lemma_holom, 4)
    assert len(sizes) == 200 and calls == sum(k * (k - 1) // 2 for k in sizes) == 2500


def test_fond2_brackets_each_unordered_letter_pair_once(monkeypatch):
    # lemma_fond2's 200 quadratic alphabets have two letters each: one
    # bracket per alphabet, k(k-1)/2, through lemmas' own name lie_bracket
    sizes, calls = _alphabet_sizes_and_brackets(monkeypatch, lemmas, lemmas.lemma_fond2, 2)
    assert len(sizes) == 200 and calls == sum(k * (k - 1) // 2 for k in sizes) == 200


def test_suites_build_operators_as_letter_maps(monkeypatch):
    # the closed forms and the operator pairs are letter maps: a BiPoly is
    # built only as a decomposed field's perturbation, and Derivation(dx, dy)
    # runs only in decompose and once per bracket_oracle pair
    from isocenter.algebra import BiPoly
    from isocenter.operators import Derivation

    built = Counter()
    monomial, bipoly, derivation = BiPoly.monomial, BiPoly.__init__, Derivation.__init__

    def counted_monomial(*args):
        built["BiPoly.monomial"] += 1
        return monomial(*args)

    def counted_bipoly(self, *args):
        built["BiPoly"] += 1
        bipoly(self, *args)

    def counted_derivation(self, dx, dy):
        built["Derivation in " + sys._getframe(1).f_code.co_name] += 1
        derivation(self, dx, dy)

    monkeypatch.setattr(BiPoly, "monomial", staticmethod(counted_monomial))
    monkeypatch.setattr(BiPoly, "__init__", counted_bipoly)
    monkeypatch.setattr(Derivation, "__init__", counted_derivation)
    assert all(r.passed for r in lemmas.run_all(0))
    assert built == {"BiPoly": 755, "Derivation in decompose": 755, "Derivation in bracket_oracle": 1350}
