import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from isocenter.algebra import GaussianRational
from isocenter.errors import InputError, NonPeriodicError
from isocenter.numverify import (
    DEFAULT_TOL,
    TWO_PI,
    RealSystem,
    isochrony_scan,
    measure_period,
    to_real_system,
)
from isocenter.prepared import PlanarField
from isocenter.samples import quadratic

LINEAR = PlanarField(degree=2, coefficients={})
CUBIC = Path(__file__).parent / "golden" / "fields" / "cubic.json"


def test_linear_rotation_rhs():
    s = to_real_system(LINEAR)
    assert s.rhs(1.0, 0.0) == (0.0, 1.0)
    assert s.rhs(0.3, -0.7) == (0.7, 0.3)


def test_quadratic_rhs_expansion():
    # P = x^2: (u', v') = (-v + u^2 - v^2, u + 2uv)
    s = to_real_system(quadratic(1, 0, 0))
    u, v = 0.3, 0.2
    du, dv = s.rhs(u, v)
    assert du == pytest.approx(-v + u * u - v * v, abs=1e-15)
    assert dv == pytest.approx(u + 2 * u * v, abs=1e-15)


def test_rhs_is_real_on_grid():
    s = to_real_system(quadratic(1, 2, 3))
    for u in (-0.2, 0.0, 0.15):
        for v in (-0.1, 0.05, 0.2):
            du, dv = s.rhs(u, v)
            assert isinstance(du, float) and isinstance(dv, float)
            assert math.isfinite(du) and math.isfinite(dv)


def test_linear_period_is_two_pi():
    s = to_real_system(LINEAR)
    for r0 in (0.02, 0.1, 0.3):
        assert measure_period(s, r0) == pytest.approx(TWO_PI, rel=1e-10)


def test_linear_scan_spread():
    scan = isochrony_scan(LINEAR, (0.02, 0.05, 0.1, 0.2))
    assert scan.max_rel_spread < 1e-10
    assert scan.reference == TWO_PI


def test_convergence_under_tolerance_halving():
    s = to_real_system(quadratic(1, 1, 0))
    t1 = measure_period(s, 0.1, tol=1e-9)
    t2 = measure_period(s, 0.1, tol=5e-10)
    assert abs(t1 - t2) < 1e-8


def test_input_validation():
    s = to_real_system(LINEAR)
    with pytest.raises(InputError):
        measure_period(s, -0.1)
    with pytest.raises(InputError):
        measure_period(s, 0.1, tol=0)
    with pytest.raises(InputError):
        isochrony_scan(LINEAR, [])
    with pytest.raises(InputError):
        isochrony_scan(LINEAR, [0.1, 0.05])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InputError):
            measure_period(s, bad)
        with pytest.raises(InputError):
            measure_period(s, 0.1, tol=bad)
        with pytest.raises(InputError):
            isochrony_scan(LINEAR, [0.05, bad])
        with pytest.raises(InputError):
            isochrony_scan(LINEAR, [0.05], tol=bad)


def counted(system):
    """The system with an rhs that counts its calls in ``calls[0]``."""
    calls = [0]

    def rhs(u, v):
        calls[0] += 1
        return system.rhs(u, v)

    return RealSystem(rhs), calls


def test_integration_stops_at_first_return():
    counts = []
    for budget in (10 * TWO_PI, 100 * TWO_PI):
        s, calls = counted(to_real_system(LINEAR))
        assert measure_period(s, 0.1, time_budget=budget) == pytest.approx(TWO_PI, rel=1e-10)
        counts.append(calls[0])
    assert counts[0] == counts[1]


def test_return_before_blow_up_is_measured():
    # at the last default radius, 0.2, this orbit returns once and then blows up
    f = PlanarField.load(CUBIC)
    scan = isochrony_scan(f)
    assert len(scan.periods) == 4 and all(math.isfinite(t) for t in scan.periods)
    assert [t.hex() for t in scan.periods[:3]] == [
        "0x1.923e77a1b97f6p+2",
        "0x1.92f19a6edb5e7p+2",
        "0x1.9612623fef6b2p+2",
    ]


def test_overflow_is_non_periodic():
    f = PlanarField.load(CUBIC)
    with pytest.raises(NonPeriodicError, match="overflowed"):
        measure_period(to_real_system(f), 1e200)


def test_missing_start_crossing():
    # v' vanishes at the start and v then goes negative: the orbit leaves
    # (r0, 0) without crossing the section
    s = RealSystem(lambda u, v: (-1.0, u - 0.1))
    with pytest.raises(NonPeriodicError, match="no start crossing"):
        measure_period(s, 0.1, time_budget=1.0)


def test_return_on_negative_side():
    # u = r0 - t and v = (r0/pi) sin(pi t / r0): the next upward crossing is at u = -r0
    r0 = 0.1
    s = RealSystem(lambda u, v: (-1.0, math.cos(math.pi * (u - r0) / r0)))
    with pytest.raises(NonPeriodicError, match="u = -0.1"):
        measure_period(s, r0, time_budget=1.0)


def test_non_returning_orbit():
    # strong outward drift never returns to the section
    f = PlanarField(degree=3, coefficients={(2, 1): GaussianRational.of(50)})
    s = to_real_system(f)
    with pytest.raises(NonPeriodicError):
        measure_period(s, 0.45, time_budget=12.0)


def test_large_radius_warns():
    with pytest.warns(UserWarning):
        isochrony_scan(LINEAR, (0.1, 0.6))


def test_scan_json_shape():
    obj = isochrony_scan(LINEAR, (0.05, 0.1)).to_json_obj()
    assert set(obj) == {"radii", "periods", "max_rel_spread", "reference"}
    assert obj["reference"] == pytest.approx(6.283185307179586)


def mirror(f):
    """The xi = -i field whose orbits are the reflections v -> -v of f's."""
    coeffs = {e: c.conj() for e, c in f.coefficients.items()}
    return PlanarField(degree=f.degree, coefficients=coeffs, xi_sign="-")


def G(re, im=0):
    return GaussianRational.of(Fraction(re), Fraction(im))


@pytest.mark.parametrize(
    "field",
    [
        PlanarField(degree=3, coefficients={(2, 0): G("1/8", "1/4"), (3, 0): G("-1/4", "1/4")}),
        quadratic(G("1/4", "1/8"), G("1/4", "-1/8"), 0),
    ],
    ids=["cauchy_riemann", "Q_ii"],
)
def test_mirror_has_same_periods(field):
    plus = isochrony_scan(field)
    minus = isochrony_scan(mirror(field))
    assert all(abs(a - b) <= 10 * DEFAULT_TOL * TWO_PI for a, b in zip(plus.periods, minus.periods))
    assert minus.max_rel_spread < 1e-8


def test_cli_import_leaves_scipy_unloaded():
    # scipy is loaded only to measure periods, the lemma suites only by verify-lemmas
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, isocenter.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m == 'isocenter.lemmas'))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
