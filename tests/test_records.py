"""The package's result records: construction by position or keyword, value
equality, fresh entries per alphabet, and no assignment."""

import copy
import pickle
import random

import pytest

from isocenter.algebra import GaussianRational
from isocenter.conditions import ConditionVerdict, GeomComplexity
from isocenter.errors import InputError
from isocenter.lemmas import LemmaResult
from isocenter.lie_analysis import (
    ResonanceReport,
    SeriesReport,
    central_series,
    enumerate_resonant_words,
    resonant_subset_trivial,
)
from isocenter.operators import ZERO_DERIVATION, Derivation
from isocenter.prenormal import projection_sum, random_mould
from isocenter.prepared import Alphabet, PlanarField, decompose
from isocenter.records import Record
from isocenter.samples import quadratic, random_hom_op

OPS = [random_hom_op(random.Random(k)) for k in range(3)]
HALF = GaussianRational(1, 2)

# (class, positional arguments, the same by keyword, one argument changed)
CASES = [
    (PlanarField, (2, {(2, 0): HALF}, "-"),
     dict(degree=2, coefficients={(2, 0): HALF}, xi_sign="-"), (2, {(2, 0): HALF}, "+")),
    (Alphabet, ({(1, 0): OPS[0]},), dict(entries={(1, 0): OPS[0]}), ({(1, 0): OPS[1]},)),
    (SeriesReport, ([[OPS[0]]], [(((1, 0), (0, 1)), OPS[1])]),
     dict(levels=[[OPS[0]]], witnesses=[(((1, 0), (0, 1)), OPS[1])]),
     ([[OPS[0]]], [])),
    (ResonanceReport, ([(((1, 1),), OPS[2])],), dict(witnesses=[(((1, 1),), OPS[2])]), ([(((1, 1),), OPS[1])],)),
    (ConditionVerdict, ("UI", [("p_{0,2}=0", HALF)]),
     dict(condition_id="UI", failing_relations=[("p_{0,2}=0", HALF)]),
     ("CR", [("p_{0,2}=0", HALF)])),
    (GeomComplexity, (6, 1, 18), dict(q=6, m=1, ambient_dim=18), (7, 1, 18)),
    (LemmaResult, ("fond2", True, "100 draws"), dict(name="fond2", passed=True, detail="100 draws"),
     ("fond2", False, "100 draws")),
]


@pytest.mark.parametrize("cls,args,kwargs,changed", CASES, ids=[c[0].__name__ for c in CASES])
def test_record_is_an_immutable_value(cls, args, kwargs, changed):
    r = cls(*args)
    assert isinstance(r, Record) and not hasattr(r, "__dict__")
    assert r == cls(**kwargs) and not r != cls(**kwargs)
    assert r != cls(*changed)
    assert r != args and r != object()
    assert copy.copy(r) == r == pickle.loads(pickle.dumps(r))
    assert repr(r) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in kwargs.items())})"
    for name in cls.__slots__:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(r, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(r, name)
    with pytest.raises(AttributeError):
        r.extra = 1
    assert r == cls(**kwargs)


# (record with no witness or failing relation, one with, the derived flag)
FLAGGED = [
    (SeriesReport([[OPS[0]]], []), SeriesReport([[OPS[0]]], [(((1, 0), (0, 1)), OPS[1])]), "nilpotent_order1"),
    (ResonanceReport([]), ResonanceReport([(((1, 1),), OPS[2])]), "all_brackets_zero"),
    (ConditionVerdict("UI", []), ConditionVerdict("UI", [("p_{0,2}=0", HALF)]), "holds"),
]


@pytest.mark.parametrize("clear,flagged,flag", FLAGGED, ids=[c[2] for c in FLAGGED])
def test_verdict_flags_are_derived_from_the_witnesses(clear, flagged, flag):
    # a report cannot say a condition holds while it lists a failing relation:
    # the flag is read off the list, is no field and cannot be set
    assert getattr(clear, flag) is True and getattr(flagged, flag) is False
    assert flag not in type(clear).__slots__ and isinstance(getattr(type(clear), flag), property)
    for r in (clear, flagged):
        with pytest.raises(AttributeError):
            setattr(r, flag, True)
        with pytest.raises(AttributeError):
            delattr(r, flag)
    with pytest.raises(TypeError):
        type(clear)(*clear._values(), True)
    with pytest.raises(TypeError):
        type(clear)(**{name: getattr(clear, name) for name in clear._fields}, **{flag: True})
    assert getattr(clear, flag) is True and getattr(flagged, flag) is False


def test_condition_verdict_json_reads_its_failing_relations():
    obj = ConditionVerdict("UI", [("p_{0,2}=0", HALF)]).to_json_obj()
    assert obj == {"condition": "UI", "holds": False,
                   "failing": [{"relation": "p_{0,2}=0", "residual": str(HALF)}]}
    assert ConditionVerdict("CR", []).to_json_obj() == {"condition": "CR", "holds": True, "failing": []}


def test_hash_follows_the_values():
    assert hash(GeomComplexity(6, 1, 18)) == hash(GeomComplexity(q=6, m=1, ambient_dim=18))
    assert hash(LemmaResult("a", True, "")) == hash(LemmaResult(name="a", passed=True, detail=""))
    assert {LemmaResult("a", True, ""), LemmaResult("a", True, "")} == {LemmaResult("a", True, "")}
    with pytest.raises(TypeError):  # a dict field is unhashable
        hash(PlanarField(2, {}))


def test_alphabet_trees_are_not_a_field():
    # the bracket trees an alphabet keeps are private state: a used alphabet
    # equals a fresh one and prints alike, a copy or a pickle round trip of
    # it is equal and starts with no tree, and it is as unhashable and as
    # closed to assignment as before
    a = decompose(quadratic(1, 2, 3))
    fresh = Alphabet(a.entries)
    central_series(a, 3)
    for resonant in (False, True):
        projection_sum(random_mould(1, resonant), a, 4)
    assert set(a._trees) == {0, 4} and fresh._trees == {}
    assert a == fresh and not a != fresh and repr(a) == repr(fresh)
    for b in (copy.copy(a), pickle.loads(pickle.dumps(a))):
        assert b == a and b.entries == a.entries and b._trees == {}
    with pytest.raises(TypeError):
        hash(a)
    for name in ("entries", "_trees"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(a, name, None)
    assert set(a._trees) == {0, 4}


def test_defaults_are_fresh_per_instance():
    # xi_sign is the one default of a record; an alphabet copies its entries
    assert PlanarField(2, {}).xi_sign == "+"
    a, b = Alphabet({}), Alphabet({})
    assert a == b and a.entries == {} and a.entries is not b.entries


def test_constructors_keep_their_checks_and_order():
    f = PlanarField(3, {(0, 3): HALF, (2, 0): GaussianRational(0), (1, 1): HALF})
    assert f.coefficients == {(0, 3): HALF, (1, 1): HALF}
    with pytest.raises(InputError, match="degree must be >= 2"):
        PlanarField(1, {})
    with pytest.raises(InputError, match="xi_sign"):
        PlanarField(2, {}, "i")
    with pytest.raises(InputError, match="outside"):
        PlanarField(degree=2, coefficients={(3, 0): HALF})
    ops = {(2, 0): OPS[0], (-1, 2): OPS[1], (1, 0): OPS[2], (0, 1): Derivation.from_terms({})}
    assert list(Alphabet(ops).entries) == [(1, 0), (-1, 2), (2, 0)]  # the zero operator at (0, 1) is dropped


def test_alphabet_drops_zero_operators():
    # a zero operator is no letter: len, ==, the resonant letters, the
    # prefix tree's level 1 and the resonance verdict all leave it out
    ops = decompose(quadratic(1, 2, 0)).entries
    a = Alphabet({(1, 1): ZERO_DERIVATION, **ops})
    assert a == Alphabet(ops) and a.entries == ops
    assert len(a) == len(central_series(a, 1).levels[0]) == 2
    assert a.resonant_letters() == []
    assert enumerate_resonant_words(a, 3) == enumerate_resonant_words(Alphabet(ops), 3)
    assert resonant_subset_trivial(a, 3) == resonant_subset_trivial(Alphabet(ops), 3)
