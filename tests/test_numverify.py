import math
import os
import random
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
    assert s.rhs(complex(1.0, 0.0)) == complex(0.0, 1.0)
    assert s.rhs(complex(0.3, -0.7)) == complex(0.7, 0.3)


def test_rhs_code_is_shared_by_exponent_shape():
    # the source depends on the exponents alone; coefficients enter through
    # the namespace, so each field keeps its own values
    f, g = quadratic(1, 2, 3), quadratic(-2, 5, 1)
    rf, rg = to_real_system(f).rhs, to_real_system(g).rhs
    assert rf.__code__ is rg.__code__
    z = complex(0.3, 0.2)
    w = z.conjugate()
    assert rf(z) == 1j * z + z**2 + 2 * z * w + 3 * w**2
    assert rg(z) == 1j * z - 2 * z**2 + 5 * z * w + w**2


def test_quadratic_rhs_expansion():
    # P = x^2: (u', v') = (-v + u^2 - v^2, u + 2uv)
    s = to_real_system(quadratic(1, 0, 0))
    u, v = 0.3, 0.2
    dz = s.rhs(complex(u, v))
    assert dz.real == pytest.approx(-v + u * u - v * v, abs=1e-15)
    assert dz.imag == pytest.approx(u + 2 * u * v, abs=1e-15)


def test_rhs_is_real_on_grid():
    # z' = u' + iv' is one complex with finite parts
    s = to_real_system(quadratic(1, 2, 3))
    for u in (-0.2, 0.0, 0.15):
        for v in (-0.1, 0.05, 0.2):
            dz = s.rhs(complex(u, v))
            assert isinstance(dz, complex)
            assert math.isfinite(dz.real) and math.isfinite(dz.imag)


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

    def rhs(z):
        calls[0] += 1
        return system.rhs(z)

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
MISSING_START = RealSystem(lambda z: complex(-1.0, z.real - 0.1))
# u = r0 - t and v = (r0/pi) sin(pi t / r0) with r0 = 0.1: the next upward
# crossing is at u = -r0
NEGATIVE_RETURN = RealSystem(lambda z: complex(-1.0, math.cos(math.pi * (z.real - 0.1) / 0.1)))
# strong outward drift never returns to the section from r0 = 0.45
NON_RETURNING = PlanarField(degree=3, coefficients={(2, 1): GaussianRational(50)})
# u' = u^2 blows up at t = 10 from u = 0.1, where the step size underflows
BLOW_UP = RealSystem(lambda z: complex(z.real * z.real, 1.0))


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
    return GaussianRational(Fraction(re), Fraction(im))


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
        dz = s.rhs(complex(state[0], state[1]))
        return dz.real, dz.imag

    def section(t, state):
        return state[1]

    section.terminal = 2
    try:
        section.direction = math.copysign(1.0, s.rhs(complex(r0, 0.0)).imag)
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


# float.hex() of every period of isochrony_scan at DEFAULT_RADII, recorded
# with the per-component stepper that the complex one replaced; witness
# blows up at 0.2 and is left out
PERIOD_HEX = {
    "cubic": [
        "0x1.923e77a1bb197p+2", "0x1.92f19a6edad93p+2",
        "0x1.9612623fef655p+2", "0x1.b57db7cee7438p+2",
    ],
    "linear": [
        "0x1.921fb5444fabep+2", "0x1.921fb5444f53ep+2",
        "0x1.921fb5444f53ep+2", "0x1.921fb5444f53ep+2",
    ],
    "mirror": [
        "0x1.921fb544510e7p+2", "0x1.921fb544441b5p+2",
        "0x1.921fb54441ec4p+2", "0x1.921fb54438e5cp+2",
    ],
    "uniform": [
        "0x1.921fb5444856cp+2", "0x1.921fb54433783p+2",
        "0x1.921fb544421dbp+2", "0x1.921fb5443c160p+2",
    ],
    "cauchy_riemann": [
        "0x1.921fb5444fc67p+2", "0x1.921fb5444a896p+2",
        "0x1.921fb54444193p+2", "0x1.921fb54441a22p+2",
    ],
    "cauchy_riemann_mirror": [
        "0x1.921fb5444fc67p+2", "0x1.921fb5444a896p+2",
        "0x1.921fb54444193p+2", "0x1.921fb54441a22p+2",
    ],
    "Q_ii_complex": [
        "0x1.921fb544510e7p+2", "0x1.921fb544441b5p+2",
        "0x1.921fb54441ec4p+2", "0x1.921fb54438e5cp+2",
    ],
    "Q_ii_complex_mirror": [
        "0x1.921fb544510e7p+2", "0x1.921fb544441b5p+2",
        "0x1.921fb54441ec4p+2", "0x1.921fb54438e5cp+2",
    ],
    "Q_i": [
        "0x1.921fb5444892dp+2", "0x1.921fb5443d243p+2",
        "0x1.921fb5443b9ffp+2", "0x1.921fb5445b624p+2",
    ],
    "Q_ii": [
        "0x1.921fb5444856cp+2", "0x1.921fb54433783p+2",
        "0x1.921fb544421dbp+2", "0x1.921fb5443c160p+2",
    ],
    "Q_iii": [
        "0x1.921fb544362e8p+2", "0x1.921fb5443efe2p+2",
        "0x1.921fb54445944p+2", "0x1.921fb544427d3p+2",
    ],
    "Q_iv": [
        "0x1.921fb54446ee3p+2", "0x1.921fb5443cb91p+2",
        "0x1.921fb5444626bp+2", "0x1.921fb5444509cp+2",
    ],
}


def test_periods_are_pinned_bit_for_bit():
    fields = differential_fields()
    assert set(PERIOD_HEX) == set(fields) - {"witness"}
    for name, pinned in PERIOD_HEX.items():
        assert [t.hex() for t in isochrony_scan(fields[name]).periods] == pinned, name


def test_tiny_radii_return_two_pi():
    # tiny states drive Brent's extrapolation denominator to 0, which must
    # bisect; below about 2.5e-311 the absolute tolerance underflows to 0
    for path in sorted(FIELDS.glob("*.json")):
        s = to_real_system(PlanarField.load(path))
        for e in range(100, 311):
            assert abs(measure_period(s, float(f"1e-{e}")) - TWO_PI) <= 1e-10, (path.stem, e)
        for r0 in (1e-311, 1e-320, 5e-324):
            with pytest.raises(InputError, match="too small"):
                measure_period(s, r0)


# rhs calls of measure_period at each of DEFAULT_RADII, summed per field,
# recorded with the rhs that took each power by ``**``; witness's count
# includes its failing run at 0.2
RHS_CALLS = {
    "cubic": 1608, "linear": 1128, "mirror": 1296, "uniform": 1524, "witness": 7377,
    "cauchy_riemann": 1344, "cauchy_riemann_mirror": 1344,
    "Q_ii_complex": 1296, "Q_ii_complex_mirror": 1296,
    "Q_i": 1524, "Q_ii": 1524, "Q_iii": 1908, "Q_iv": 1584,
}


def test_rhs_call_counts_are_pinned():
    fields = differential_fields()
    assert set(RHS_CALLS) == set(fields)
    for name, f in fields.items():
        s, calls = counted(to_real_system(f))
        for r0 in DEFAULT_RADII:
            try:
                measure_period(s, r0)
            except NonPeriodicError:
                assert (name, r0) == ("witness", 0.2)
        assert calls[0] == RHS_CALLS[name], name


def test_huge_radii_end_in_an_error_or_a_return():
    # from about 1e71 the scaled rhs norm of the initial step overflows to
    # inf, which made the first step size 0 and divided by it
    for path in sorted(FIELDS.glob("*.json")):
        s = to_real_system(PlanarField.load(path))
        for e in range(70, 161):
            try:
                assert math.isfinite(measure_period(s, float(f"1e{e}"))), (path.stem, e)
            except NonPeriodicError:
                pass


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


def test_brentq_bisects_when_the_extrapolation_underflows():
    # scaled so that Brent's inverse-quadratic denominator underflows to 0
    # while f stays representable: scipy's C code then divides by zero, gets
    # an infinite trial step and bisects; a zero trial step would creep
    # toward the root by 4 eps steps and take 40 and 41 calls
    optimize = pytest.importorskip("scipy.optimize")
    cases = [
        (lambda x: 1e-200 * (math.exp(x) - 2), 0.0, 3.0, "0x1.62e42fefa39edp-1"),
        (lambda x: 1e-160 * ((x - 0.3) ** 3 + 0.01 * (x - 0.3)), -1.0, 2.0, "0x1.3333333333333p-2"),
    ]
    for f, a, b, root in cases:
        calls = []
        x = dop853.brentq(lambda x: calls.append(x) or f(x), a, b)
        want, info = optimize.brentq(f, a, b, xtol=4 * dop853.EPS, rtol=4 * dop853.EPS, full_output=True)
        assert x.hex() == want.hex() == root
        assert len(calls) == info.function_calls == 23


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


# --- the kernel against a per-component route -------------------------------


def component_step(rhs, u, v, h):
    """One DOP853 step and its dense coefficients from the tables, with
    separate u and v float sums: the stages ku, kv, the new state, the E5
    and E3 sums and the interpolant's F0..F6 of each component."""

    def f(u, v):
        dz = rhs(complex(u, v))
        return dz.real, dz.imag

    def combine(items, ku, kv):
        du = dv = 0.0
        for j, a in items:
            du += a * ku[j]
            dv += a * kv[j]
        return du, dv

    def stage(items, u0, v0, ku, kv):
        du, dv = combine(items, ku, kv)
        gu, gv = f(u0 + du * h, v0 + dv * h)
        ku.append(gu)
        kv.append(gv)

    fu, fv = f(u, v)
    ku, kv = [fu], [fv]
    for s in range(1, 12):
        stage(dop853.A[s].items(), u, v, ku, kv)
    du, dv = combine(dop853.B_ITEMS, ku, kv)
    u_new, v_new = u + h * du, v + h * dv
    stage((), u_new, v_new, ku, kv)
    e5, e3 = combine(dop853.E5_ITEMS, ku, kv), combine(dop853.E3_ITEMS, ku, kv)
    out_k = (list(ku), list(kv))
    for s in range(13, 16):
        stage(dop853.A[s].items(), u, v, ku, kv)
    dense = []
    for delta, k in ((u_new - u, ku), (v_new - v, kv)):
        rows = [delta, h * k[0] - delta, 2 * delta - h * (k[12] + k[0])]
        rows += (h * sum(d * k[j] for j, d in row.items()) for row in dop853.D)
        dense.append(rows)
    return out_k, (u_new, v_new), e5, e3, dense


def test_trial_step_matches_component_route():
    rng = random.Random(853)
    for name in ("mirror", "witness", "cubic"):
        rhs = to_real_system(PlanarField.load(FIELDS / f"{name}.json")).rhs
        for _ in range(40):
            z = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
            h = rng.uniform(1e-4, 0.5)
            (ku, kv), (u_new, v_new), e5, e3, (fu, fv) = component_step(rhs, z.real, z.imag, h)
            k, z_new, e5z, e3z = dop853.trial_step(rhs, z, rhs(z), h)
            assert len(k) == 13
            assert [w.real for w in k] == ku and [w.imag for w in k] == kv
            assert (z_new.real, z_new.imag) == (u_new, v_new)
            assert (e5z.real, e5z.imag) == e5 and (e3z.real, e3z.imag) == e3
            f = dop853.dense_coefficients(rhs, z, z_new, k, h)
            assert [c.real for c in f] == fu and [c.imag for c in f] == fv


# --- the generated rhs against the power loop -------------------------------


def power_loop_rhs(f):
    """z' = ξz + Σ c z^i conj(z)^j as a loop over the coefficients with two
    complex powers per term, the route the generated rhs replaced."""
    xi = f.xi.to_complex()
    coeffs = [(i, j, c.to_complex()) for (i, j), c in f.coefficients.items()]

    def rhs(z):
        w = z.conjugate()
        dz = xi * z
        for i, j, c in coeffs:
            dz += c * z**i * w**j
        return dz

    return rhs


def sparse_field(rng, degree):
    """A field of the degree with a few random exponents and generic
    coefficients, of either orientation."""
    def part():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))

    support = [(i, n - i) for n in range(2, degree + 1) for i in range(n + 1)]
    sample = rng.sample(support, rng.randint(1, min(5, len(support))))
    coeffs = {e: G(part(), part()) for e in sample}
    return PlanarField(degree=degree, coefficients=coeffs, xi_sign=rng.choice("+-"))


def test_generated_rhs_matches_power_loop():
    rng = random.Random(14)
    fields = [PlanarField.load(p) for p in sorted(FIELDS.glob("*.json"))]
    fields += [sparse_field(rng, degree) for degree in range(2, 10) for _ in range(8)]
    exponents = {n for f in fields for e in f.coefficients for n in e}
    assert {3, 5, 6, 7, 9} <= exponents

    def bits(z):
        # zeros compare by value: ** starts each power from 1+0j
        return [x.hex() if x else 0.0 for x in (z.real, z.imag)]

    for f in fields:
        rhs, reference = to_real_system(f).rhs, power_loop_rhs(f)
        for _ in range(20):
            r = rng.uniform(-0.6, 0.6)
            for z in (complex(r, rng.uniform(-0.6, 0.6)), complex(r, 0.0), complex(0.0, r)):
                got, want = rhs(z), reference(z)
                assert got == want and bits(got) == bits(want), (f.coefficients, z)
