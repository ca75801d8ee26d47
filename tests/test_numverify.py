import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from isocenter import dop853
from isocenter.algebra import GaussianRational
from isocenter.errors import InputError, NonPeriodicError
from isocenter.numverify import (
    DEFAULT_RADII,
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
FIELDS = Path(__file__).parent / "golden" / "fields"
CUBIC = FIELDS / "cubic.json"


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


def test_bad_time_budget_is_rejected():
    # unchecked, a nan budget can hang a step loop and the others end in a
    # misleading NonPeriodicError
    s = to_real_system(LINEAR)
    for bad in (math.nan, math.inf, -1.0, 0.0):
        with pytest.raises(InputError, match="time budget"):
            measure_period(s, 0.1, time_budget=bad)


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
    # pinned bits of this integrator, and of scipy's solve_ivp as reference
    assert [t.hex() for t in scan.periods[:3]] == [
        "0x1.923e77a1bb197p+2",
        "0x1.92f19a6edad93p+2",
        "0x1.9612623fef655p+2",
    ]
    scipy_periods = [
        float.fromhex("0x1.923e77a1b97f6p+2"),
        float.fromhex("0x1.92f19a6edb5e7p+2"),
        float.fromhex("0x1.9612623fef6b2p+2"),
    ]
    assert all(abs(t - ref) <= 1e-11 * ref for t, ref in zip(scan.periods, scipy_periods))


def test_overflow_is_non_periodic():
    f = PlanarField.load(CUBIC)
    with pytest.raises(NonPeriodicError, match="overflowed"):
        measure_period(to_real_system(f), 1e200)


# v' vanishes at the start and v then goes negative: the orbit leaves
# (r0, 0) = (0.1, 0) without crossing the section
MISSING_START = RealSystem(lambda u, v: (-1.0, u - 0.1))
# u = r0 - t and v = (r0/pi) sin(pi t / r0) with r0 = 0.1: the next upward
# crossing is at u = -r0
NEGATIVE_RETURN = RealSystem(lambda u, v: (-1.0, math.cos(math.pi * (u - 0.1) / 0.1)))
# strong outward drift never returns to the section from r0 = 0.45
NON_RETURNING = PlanarField(degree=3, coefficients={(2, 1): GaussianRational.of(50)})
# u' = u^2 blows up at t = 10 from u = 0.1, where the step size underflows
BLOW_UP = RealSystem(lambda u, v: (u * u, 1.0))


def test_missing_start_crossing():
    with pytest.raises(NonPeriodicError, match="no start crossing"):
        measure_period(MISSING_START, 0.1, time_budget=1.0)


def test_return_on_negative_side():
    with pytest.raises(NonPeriodicError, match="u = -0.1"):
        measure_period(NEGATIVE_RETURN, 0.1, time_budget=1.0)


def test_non_returning_orbit():
    with pytest.raises(NonPeriodicError):
        measure_period(to_real_system(NON_RETURNING), 0.45, time_budget=12.0)


def test_step_size_underflow():
    with pytest.raises(NonPeriodicError, match="integration failed from r0=0.1: step size underflow"):
        measure_period(BLOW_UP, 0.1, time_budget=20.0)


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


MIRROR_FIELDS = [
    PlanarField(degree=3, coefficients={(2, 0): G("1/8", "1/4"), (3, 0): G("-1/4", "1/4")}),
    quadratic(G("1/4", "1/8"), G("1/4", "-1/8"), 0),
]


@pytest.mark.parametrize("field", MIRROR_FIELDS, ids=["cauchy_riemann", "Q_ii"])
def test_mirror_has_same_periods(field):
    plus = isochrony_scan(field)
    minus = isochrony_scan(mirror(field))
    assert all(abs(a - b) <= 10 * DEFAULT_TOL * TWO_PI for a, b in zip(plus.periods, minus.periods))
    assert minus.max_rel_spread < 1e-8


def run_fresh(code):
    """stdout of ``code`` run in a fresh interpreter on this source tree."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout


def test_cli_import_leaves_scipy_unloaded():
    # the package never loads scipy; the DOP853 tables are loaded only to
    # measure periods, the lemma suites only by verify-lemmas
    code = (
        "import sys, isocenter.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
        "or m in ('isocenter.dop853', 'isocenter.lemmas')))"
    )
    assert run_fresh(code).strip() == "[]"


def test_scan_periods_runs_without_scipy_or_numpy():
    code = (
        "import sys; from isocenter.cli import main; "
        f"main(['scan-periods', '--input', {str(FIELDS / 'linear.json')!r}]); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'numpy'))); "
        "print('isocenter.dop853' in sys.modules)"
    )
    *report, loaded, measured = run_fresh(code).splitlines()
    assert sum("return time" in line for line in report) == 4
    assert loaded == "[]" and measured == "True"


# --- the reference route: scipy's solve_ivp --------------------------------


def scipy_period(s, r0, tol=DEFAULT_TOL, time_budget=10.0 * TWO_PI):
    """First return time by scipy's DOP853 with a terminal section event,
    the route `measure_period` replaced."""
    from scipy.integrate import solve_ivp

    def fun(t, state):
        return s.rhs(state[0], state[1])

    def section(t, state):
        return state[1]

    section.terminal = 2
    try:
        section.direction = math.copysign(1.0, s.rhs(r0, 0.0)[1])
        sol = solve_ivp(
            fun,
            (0.0, time_budget),
            [r0, 0.0],
            method="DOP853",
            rtol=max(tol, 1e-13),
            atol=max(tol, 1e-13) * r0 * 1e-3,
            events=section,
        )
    except OverflowError as exc:
        raise NonPeriodicError(f"integration overflowed from r0={r0}") from exc
    if not sol.success:
        raise NonPeriodicError(f"integration failed from r0={r0}: {sol.message}")
    t_events, y_events = sol.t_events[0], sol.y_events[0]
    if len(t_events) == 0 or t_events[0] != 0.0:
        raise NonPeriodicError(f"no start crossing of the section at t = 0 from r0={r0}")
    if len(t_events) < 2:
        raise NonPeriodicError(f"no return to the section from r0={r0} within budget")
    if y_events[1][0] <= 0:
        raise NonPeriodicError(f"first return from r0={r0} crosses the section at u = {y_events[1][0]:.3g} <= 0")
    return float(t_events[1])


def differential_fields():
    """Golden fields, the mirror-test fields with their mirrors, and one
    member of each quadratic family Q_i..Q_iv (phases as in README)."""
    fields = {p.stem: PlanarField.load(p) for p in sorted(FIELDS.glob("*.json"))}
    for name, f in zip(("cauchy_riemann", "Q_ii_complex"), MIRROR_FIELDS):
        fields[name] = f
        fields[name + "_mirror"] = mirror(f)
    fields["Q_i"] = quadratic(1, 0, 0)
    fields["Q_ii"] = quadratic(1, 1, 0)
    fields["Q_iii"] = quadratic(G("5/2"), G(1), G("-3/2"))
    fields["Q_iv"] = quadratic(G("7/6"), G(1), G("1/2"))
    return fields


def test_periods_match_scipy():
    pytest.importorskip("scipy.integrate")
    compared = 0
    for name, f in differential_fields().items():
        s = to_real_system(f)
        for r0 in DEFAULT_RADII:
            if (name, r0) == ("witness", 0.2):
                continue  # blows up before returning; see below
            ref = scipy_period(s, r0)
            assert abs(measure_period(s, r0) - ref) <= 0.1 * DEFAULT_TOL * ref, (name, r0)
            compared += 1
    assert compared == 51


def test_failures_match_scipy():
    pytest.importorskip("scipy.integrate")
    cases = [
        (to_real_system(PlanarField.load(FIELDS / "witness.json")), 0.2, 10.0 * TWO_PI),
        (to_real_system(NON_RETURNING), 0.45, 12.0),
        (MISSING_START, 0.1, 1.0),
        (NEGATIVE_RETURN, 0.1, 1.0),
        (BLOW_UP, 0.1, 20.0),
    ]
    for s, r0, budget in cases:
        with pytest.raises(NonPeriodicError):
            scipy_period(s, r0, time_budget=budget)
        with pytest.raises(NonPeriodicError):
            measure_period(s, r0, time_budget=budget)


def test_tables_match_scipy():
    coefficients = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")

    def dense(row, n):
        out = [0.0] * n
        for j, a in row.items():
            out[j] = a
        return out

    n = coefficients.N_STAGES
    for s in range(1, coefficients.N_STAGES_EXTENDED):  # stages 1..11, B as 12, extras 13..15
        assert dense(dop853.A[s], s) == list(coefficients.A[s, :s]), s
        # the autonomous form needs no nodes: each c_s is its row sum
        assert sum(dop853.A[s].values()) == pytest.approx(coefficients.C[s], abs=1e-14)
    assert dense(dop853.B, n) == list(coefficients.B)
    assert dense(dop853.E3, n + 1) == list(coefficients.E3)
    assert dense(dop853.E5, n + 1) == list(coefficients.E5)
    assert [dense(row, coefficients.N_STAGES_EXTENDED) for row in dop853.D] == coefficients.D.tolist()
