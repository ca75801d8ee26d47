import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isocenter.algebra import BiPoly, GaussianRational
from isocenter.errors import InputError
from isocenter.prepared import PlanarField, decompose, reconstruct, weight
from isocenter.samples import quadratic, random_field, random_nonzero_scalar


def G(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def test_decompose_quadratic_example():
    a = decompose(quadratic(1, 2, 3))
    assert set(a.letters()) == {(1, 0), (0, 1), (-1, 2), (2, -1)}
    assert a[(1, 0)].dx == BiPoly.monomial(2, 0, G(1))
    assert a[(1, 0)].dy == BiPoly.monomial(1, 1, G(2))
    assert a[(0, 1)].dx == BiPoly.monomial(1, 1, G(2))
    assert a[(0, 1)].dy == BiPoly.monomial(0, 2, G(1))
    assert a[(-1, 2)].dx == BiPoly.monomial(0, 2, G(3))
    assert not a[(-1, 2)].dy
    assert a[(2, -1)].dy == BiPoly.monomial(2, 0, G(3))
    assert not a[(2, -1)].dx


def test_decompose_zero_and_sparse():
    assert len(decompose(PlanarField(degree=3, coefficients={}))) == 0
    a = decompose(quadratic(1, 2, 0))
    assert (-1, 2) not in a and (2, -1) not in a


def test_decompose_matches_families():
    rng = random.Random(31)
    for _ in range(40):
        d = rng.randint(2, 6)
        coeffs = dict(random_field(rng, d).coefficients)
        for k in range(2, d + 1):
            coeffs[(0, k)] = random_nonzero_scalar(rng)
        f = PlanarField(degree=d, coefficients=coeffs)
        want = {}
        for k in range(2, d + 1):
            for i in range(1, k + 1):
                a = f.coeff(i, k - i)
                b = f.coeff(k - i + 1, i - 1).conj()
                if a or b:
                    want[(i - 1, k - i)] = (
                        BiPoly.monomial(i, k - i, a),
                        BiPoly.monomial(i - 1, k - i + 1, b),
                    )
            p0k = f.coeff(0, k)
            want[(-1, k)] = (BiPoly.monomial(0, k, p0k), BiPoly())
            want[(k, -1)] = (BiPoly(), BiPoly.monomial(k, 0, p0k.conj()))
        a = decompose(f)
        assert set(a.letters()) == set(want)
        for n, (dx, dy) in want.items():
            assert (a[n].dx, a[n].dy, a[n].letter) == (dx, dy, n)


def test_letter_degree_bounds():
    rng = random.Random(3)
    for _ in range(20):
        d = rng.randint(2, 6)
        f = random_field(rng, d)
        for (n1, n2) in decompose(f).letters():
            assert 1 <= n1 + n2 <= d - 1
            assert n1 >= -1 and n2 >= -1
            assert [n1, n2].count(-1) <= 1


def test_weight_examples():
    assert weight((1, 0)) == 1
    assert weight((3, 3)) == 0
    assert weight(((2, -1), (-1, 2))) == 0


def test_weight_is_morphism():
    rng = random.Random(5)
    letters = [(1, 0), (0, 1), (-1, 2), (2, -1), (2, 2)]
    for _ in range(50):
        u = tuple(rng.choice(letters) for _ in range(rng.randint(0, 4)))
        v = tuple(rng.choice(letters) for _ in range(rng.randint(0, 4)))
        assert weight(u + v) == weight(u) + weight(v)


def test_resonant_letter_parity():
    # homogeneous even degree: no weight-zero letter; odd degree 2m+1:
    # only candidate is (m, m)
    rng = random.Random(9)
    for d in range(2, 7):
        coeffs = {(i, d - i): G(1, 1) for i in range(d + 1)}
        a = decompose(PlanarField(degree=d, coefficients=coeffs))
        zero_letters = [n for n in a.letters() if weight(n) == 0]
        if d % 2 == 0:
            assert zero_letters == []
        else:
            m = (d - 1) // 2
            assert zero_letters == [(m, m)]


def test_reconstruct_linear_and_quadratic():
    lin = PlanarField(degree=2, coefficients={})
    dx, dy = reconstruct(lin)
    assert dx == BiPoly.monomial(1, 0, G(0, 1))
    assert dy == BiPoly.monomial(0, 1, G(0, -1))
    dx, dy = reconstruct(quadratic(1, 2, 3))
    p = BiPoly({(2, 0): G(1), (1, 1): G(2), (0, 2): G(3)})
    assert dx == BiPoly.monomial(1, 0, G(0, 1)) + p
    assert dy == BiPoly.monomial(0, 1, G(0, -1)) + p.swap_conj()


def test_reconstruct_roundtrip_random():
    rng = random.Random(2024)
    for _ in range(200):
        d = rng.randint(2, 6)
        f = random_field(rng, d)
        reconstruct(f)  # raises on any mismatch


def test_xi_sign():
    f = PlanarField(degree=2, coefficients={}, xi_sign="-")
    assert f.xi == G(0, -1)
    dx, _ = reconstruct(f)
    assert dx == BiPoly.monomial(1, 0, G(0, -1))


def test_field_validation():
    with pytest.raises(InputError):
        PlanarField(degree=1, coefficients={})
    with pytest.raises(InputError):
        PlanarField(degree=2, coefficients={(1, 0): G(1)})
    with pytest.raises(InputError):
        PlanarField(degree=2, coefficients={(0, 3): G(1)})


class TestFieldFile:
    def good_obj(self):
        return {
            "xi_sign": "+",
            "degree": 2,
            "coefficients": [{"i": 2, "j": 0, "value": "1/1+0/1i"}],
        }

    def test_load_roundtrip(self, tmp_path):
        path = tmp_path / "field.json"
        path.write_text(json.dumps(self.good_obj()))
        f = PlanarField.load(path)
        assert f.coeff(2, 0) == G(1)
        assert PlanarField.from_json_obj(f.to_json_obj()) == f

    def test_unknown_keys_rejected(self):
        obj = self.good_obj()
        obj["extra"] = 1
        with pytest.raises(InputError):
            PlanarField.from_json_obj(obj)
        obj = self.good_obj()
        obj["coefficients"][0]["k"] = 1
        with pytest.raises(InputError):
            PlanarField.from_json_obj(obj)

    def test_duplicate_coefficient_rejected(self):
        obj = self.good_obj()
        obj["coefficients"].append({"i": 2, "j": 0, "value": "2/1+0/1i"})
        with pytest.raises(InputError):
            PlanarField.from_json_obj(obj)

    @pytest.mark.parametrize(
        "entry",
        [
            {"value": 5},
            {"value": None},
            {"value": [1, 0]},
            {"i": True, "j": 1},
            {"i": 1, "j": True},
            {"value": "1/0"},
            {"value": "1/1+1/0i"},
            {"value": "1" * 5000},
        ],
        ids=[
            "int value", "null value", "list value", "bool i", "bool j",
            "zero denominator", "zero imaginary denominator", "5000 digits",
        ],
    )
    def test_malformed_coefficient_rejected(self, entry):
        obj = self.good_obj()
        obj["coefficients"][0].update(entry)
        with pytest.raises(InputError):
            PlanarField.from_json_obj(obj)

    def test_boolean_degree_rejected(self):
        obj = self.good_obj()
        obj["degree"] = True
        with pytest.raises(InputError, match="integer"):
            PlanarField.from_json_obj(obj)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            PlanarField.load(tmp_path / "absent.json")


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=8), kids, max_size=4),
    max_leaves=12,
)
# the text form of a scalar, zero denominators included
scalar_texts = st.from_regex(r"[+-]?\d{1,3}(/\d{1,2})?([+-]\d{1,3}(/\d{1,2})?i)?", fullmatch=True)


@st.composite
def mutated_fields(draw):
    """A field object with valid exponents, one key of it or of an entry replaced or removed."""
    degree = draw(st.integers(2, 4))
    slots = [(i, n - i) for n in range(2, degree + 1) for i in range(n + 1)]
    obj = {
        "xi_sign": draw(st.sampled_from("+-")),
        "degree": degree,
        "coefficients": [
            {"i": i, "j": j, "value": draw(scalar_texts)}
            for i, j in draw(st.lists(st.sampled_from(slots), unique=True, max_size=4))
        ],
    }
    target = draw(st.sampled_from([obj, *obj["coefficients"]]))
    key = draw(st.sampled_from([*sorted(target), "extra"]))
    if draw(st.booleans()):
        target[key] = draw(json_values | scalar_texts)
    else:
        target.pop(key, None)
    return obj


@settings(max_examples=400, deadline=None)
@given(json_values | mutated_fields())
def test_from_json_obj_accepts_or_raises_input_error(obj):
    try:
        f = PlanarField.from_json_obj(obj)
    except InputError:
        return
    assert isinstance(f, PlanarField)
