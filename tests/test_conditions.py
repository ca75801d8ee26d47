import random
from fractions import Fraction

import pytest

from isocenter import conditions
from isocenter.algebra import BiPoly, GaussianRational
from isocenter.conditions import (
    check_cauchy_riemann,
    check_uniform,
    classify_quadratic,
    geometric_complexity,
    homogeneous_uniform_verdict,
)
from isocenter.errors import InputError, InternalInconsistencyError
from isocenter.lie_analysis import central_series
from isocenter.prenormal import LINEARISABLE_STRUCTURAL, structural_linearisability
from isocenter.prepared import PlanarField, decompose
from isocenter.samples import quadratic, random_field, random_ui_homogeneous


def G(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


class TestUniform:
    def test_quadratic_holds(self):
        assert check_uniform(quadratic(1, 1, 0)).holds

    def test_quadratic_fails_with_residual(self):
        v = check_uniform(quadratic(1, 1, 3))
        assert not v.holds
        assert ("p_{0,2}=0", G(3)) in v.failing_relations

    def test_cubic_instance(self):
        # relations for n=3: p_{0,3}=0, p_{1,2}=conj(p_{3,0}),
        # p_{2,1} real, p_{3,0}=conj(p_{1,2})
        f = PlanarField(
            degree=3,
            coefficients={
                (1, 2): G(2, 5),
                (2, 1): G(7),
                (3, 0): G(2, -5),
            },
        )
        assert check_uniform(f).holds

    def test_route_agreement_random(self):
        rng = random.Random(100)
        for _ in range(500):
            d = rng.randint(2, 6)
            check_uniform(random_field(rng, d))  # raises on disagreement


class TestCauchyRiemann:
    def test_examples(self):
        assert check_cauchy_riemann(quadratic(5, 0, 0)).holds
        f = PlanarField(degree=3, coefficients={(3, 0): G(1), (2, 0): G(1)})
        assert check_cauchy_riemann(f).holds
        v = check_cauchy_riemann(quadratic(1, 2, 0))
        assert not v.holds
        assert ("p_{1,1}=0", G(2)) in v.failing_relations

    def test_route_agreement_random(self):
        rng = random.Random(101)
        for _ in range(500):
            d = rng.randint(2, 6)
            check_cauchy_riemann(random_field(rng, d))


class TestClassifyQuadratic:
    def test_all_four_conditions(self):
        assert classify_quadratic(quadratic(1, 0, 0)) == {"Q_i"}
        assert classify_quadratic(quadratic(1, 1, 0)) == {"Q_ii"}
        assert classify_quadratic(
            quadratic(G(Fraction(5, 2)), G(1), G(Fraction(-3, 2)))
        ) == {"Q_iii"}
        # same moduli, p_{0,2} out of phase with p_{1,1}^3: not isochronous
        assert classify_quadratic(
            quadratic(G(Fraction(5, 2)), G(1), G(Fraction(3, 2)))
        ) == set()
        assert classify_quadratic(
            quadratic(G(Fraction(7, 6)), G(1), G(Fraction(1, 2)))
        ) == {"Q_iv"}

    def test_degenerate_linear(self):
        # every relation is homogeneous, so the zero field satisfies all four
        assert classify_quadratic(quadratic(0, 0, 0)) == {"Q_i", "Q_ii", "Q_iii", "Q_iv"}

    def test_violator_empty(self):
        assert classify_quadratic(quadratic(1, 1, 1)) == set()

    def test_wrong_degree(self):
        with pytest.raises(InputError):
            classify_quadratic(PlanarField(degree=3, coefficients={}))

    def test_modulus_relations_phase_invariant(self):
        # rotating the plane by u multiplies p20, p11, p02 by u, conj(u),
        # conj(u)^3 and keeps every family; turning the phase of p_{0,2}
        # alone leaves Q_iii, and the Q_ii equality is exactly as written
        p20, p11 = G(Fraction(5, 2), -5), G(1, 2)
        p02 = G(Fraction(-3, 10)) * p11 * p11 * p11  # -3/2 p11^2 / conj(p11)
        assert classify_quadratic(quadratic(p20, p11, p02)) == {"Q_iii"}
        for u in (G(0, 1), G(Fraction(3, 5), Fraction(4, 5))):
            v = u.conj()
            assert classify_quadratic(quadratic(u * p20, v * p11, v * v * v * p02)) == {"Q_iii"}
        assert classify_quadratic(quadratic(p20, p11, G(0, 1) * p02)) == set()
        assert "Q_ii" not in classify_quadratic(quadratic(G(0, 1), G(1), 0))

    def test_symbolic_half_of_theorem(self):
        # Q_i and Q_ii fields are order-1 nilpotent and structurally
        # linearisable
        for f in (quadratic(G(2, 3), 0, 0), quadratic(G(1, -4), G(1, 4), 0)):
            a = decompose(f)
            assert central_series(a, 2).nilpotent_order1
            assert structural_linearisability(a, 6) == LINEARISABLE_STRUCTURAL


class TestHomogeneousUniform:
    def test_even_degree_holds(self):
        rng = random.Random(55)
        f = random_ui_homogeneous(rng, 4)
        assert homogeneous_uniform_verdict(f).holds

    def test_odd_degree_needs_middle_zero(self):
        rng = random.Random(56)
        while True:
            f = random_ui_homogeneous(rng, 5)
            if f.coeff(3, 2):
                break
        v = homogeneous_uniform_verdict(f)
        assert not v.holds
        assert any("p_{3,2}=0" == rel for rel, _ in v.failing_relations)
        f0 = random_ui_homogeneous(rng, 5, force_middle_zero=True)
        assert homogeneous_uniform_verdict(f0).holds

    def test_zero_field_vacuous(self):
        assert homogeneous_uniform_verdict(PlanarField(degree=4, coefficients={})).holds

    def test_non_homogeneous_rejected(self):
        f = PlanarField(degree=3, coefficients={(2, 0): G(1), (3, 0): G(1)})
        with pytest.raises(InputError):
            homogeneous_uniform_verdict(f)


class TestGeometricComplexity:
    def test_closed_forms(self):
        assert geometric_complexity("CR", 3).q == 3
        assert geometric_complexity("UI", 4).q == 5
        assert geometric_complexity("UI", 5).q == 7

    def test_closed_forms_count_the_checkers_relations(self):
        # a second route: on a generic homogeneous degree-d field every
        # relation fails, so q is the number of failing relations that the
        # checker emits, and ambient_dim is the number of coefficient slots
        # (i, j) with 2 <= i+j <= d
        rng = random.Random(57)
        part = lambda: rng.choice((1, -1)) * Fraction(rng.randint(1, 9), rng.randint(1, 9))
        for d in range(2, 9):
            f = PlanarField(degree=d, coefficients={(i, d - i): G(part(), part()) for i in range(d + 1)})
            cr = check_cauchy_riemann(f).failing_relations
            ui = homogeneous_uniform_verdict(f).failing_relations
            assert all(res for _, res in cr + ui)  # the field is generic
            slots = sum(1 for i in range(d + 1) for j in range(d + 1) if 2 <= i + j <= d)
            for condition, failing in (("CR", cr), ("UI", ui)):
                c = geometric_complexity(condition, d)
                assert (c.q, c.m, c.ambient_dim) == (len(failing), 1, slots), (condition, d)
            assert len(ui) == (d + 1 if d % 2 == 0 else d + 2)
        assert all(geometric_complexity(c, d).m == 1 for c in ("CR", "UI") for d in range(2, 9))

    def test_ambient_dimension(self):
        gc = geometric_complexity("CR", 4)
        assert gc.ambient_dim == (4 + 1) * (4 + 2) // 2 - 3

    def test_unknown_condition(self):
        with pytest.raises(InputError):
            geometric_complexity("XX", 3)

    def test_cr_count_matches_relation_count(self):
        # for homogeneous degree d the CR checker emits exactly d
        # coefficient relations
        for d in range(2, 7):
            coeffs = {(i, d - i): G(1, 1) for i in range(d + 1)}
            f = PlanarField(degree=d, coefficients=coeffs)
            v = check_cauchy_riemann(f)
            assert len(v.failing_relations) == d == geometric_complexity("CR", d).q


def dense_uniform_relations(f):
    """The uniform relations over every coefficient slot, in order."""
    failing = []
    for n in range(2, f.degree + 1):
        r = f.coeff(0, n)
        if r:
            failing.append((f"p_{{0,{n}}}=0", r))
        for i in range(1, n + 1):
            res = f.coeff(i, n - i) - f.coeff(n - i + 1, i - 1).conj()
            if res:
                failing.append((f"p_{{{i},{n - i}}}=conj(p_{{{n - i + 1},{i - 1}}})", res))
    return failing


def dense_cr_relations(f):
    """The Cauchy-Riemann relations over every coefficient slot, in order."""
    failing = []
    for n in range(2, f.degree + 1):
        for i in range(0, n):
            r = f.coeff(i, n - i)
            if r:
                failing.append((f"p_{{{i},{n - i}}}=0", r))
    return failing


def test_sparse_relations_match_dense_loops():
    rng = random.Random(102)
    for _ in range(300):
        d = rng.randint(2, 6)
        f = random_field(rng, d, density=rng.random())
        if rng.random() < 0.3:
            f = random_ui_homogeneous(rng, d)
        assert check_uniform(f).failing_relations == dense_uniform_relations(f)
        assert check_cauchy_riemann(f).failing_relations == dense_cr_relations(f)


def test_disagreeing_routes_raise_with_the_checker_message(monkeypatch):
    # each checker's relation route is made to disagree with its identity route
    with monkeypatch.context() as m:
        m.setattr(conditions, "_uniform_relations", lambda f: [])
        with pytest.raises(InternalInconsistencyError) as exc:
            check_uniform(quadratic(1, 1, 3))
    assert str(exc.value) == (
        "uniform-isochronicity routes disagree: identity=False, relations_failing=0"
    )
    with monkeypatch.context() as m:
        m.setattr(BiPoly, "partial", lambda p, var: BiPoly())
        with pytest.raises(InternalInconsistencyError) as exc:
            check_cauchy_riemann(quadratic(1, 1, 3))
    assert str(exc.value) == "Cauchy-Riemann routes disagree: identity=True, relations_failing=2"
