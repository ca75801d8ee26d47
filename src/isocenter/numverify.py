"""Numerical orbit-period oracle for the underlying real planar system.

This is the only non-exact module: coefficients are evaluated to double
precision and orbits are integrated with an adaptive high-order explicit
scheme.  Results are evidence, never proofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import InputError, NonPeriodicError
from .prepared import PlanarField

TWO_PI = 2.0 * math.pi

DEFAULT_RADII = (0.02, 0.05, 0.1, 0.2)
DEFAULT_TOL = 1e-10
RADIUS_WARN = 0.5


@dataclass(frozen=True)
class RealSystem:
    """Real 2D system (u', v') obtained from x' = ξx + P(x, conj(x))."""

    rhs: Callable[[float, float], tuple[float, float]]


def to_real_system(f: PlanarField) -> RealSystem:
    """Substitute x = u + iv, y = conj(x) and split into real and
    imaginary parts.  Reality of the right-hand side is automatic."""
    xi = f.xi.to_complex()
    coeffs = [(i, j, c.to_complex()) for (i, j), c in f.coefficients.items()]

    def rhs(u: float, v: float) -> tuple[float, float]:
        z = complex(u, v)
        w = z.conjugate()
        dz = xi * z
        for i, j, c in coeffs:
            dz += c * z**i * w**j
        return dz.real, dz.imag

    return RealSystem(rhs)


def measure_period(
    s: RealSystem,
    r0: float,
    tol: float = DEFAULT_TOL,
    time_budget: float = 10.0 * TWO_PI,
) -> float:
    """First return time to the section {v = 0, u > 0} from (r0, 0).

    Integrates with an adaptive 8th-order explicit pair; the crossing
    time comes from the solver's event root refinement.  A crossing counts
    in the direction the orbit leaves (r0, 0), the sign of v' there (up for
    ξ = +i).  The start point lies on the section, so the solver records it
    as the first crossing, at t = 0; integration stops at the second, the
    first return, and the time budget bounds only orbits that never return.
    Raises NonPeriodicError when the integration fails or overflows, when
    the start crossing is missing, when the return crosses at u <= 0, or
    when no return occurs within the budget.
    """
    if not (math.isfinite(r0) and r0 > 0):
        raise InputError(f"initial radius must be positive and finite, got {r0}")
    if not (math.isfinite(tol) and tol > 0):
        raise InputError(f"tolerance must be positive and finite, got {tol}")
    # imported here so that the exact commands never load scipy
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
            dense_output=False,
        )
    except OverflowError as exc:
        # complex powers raise instead of returning inf on huge states
        raise NonPeriodicError(f"integration overflowed from r0={r0}") from exc
    if not sol.success:
        raise NonPeriodicError(f"integration failed from r0={r0}: {sol.message}")
    t_events, y_events = sol.t_events[0], sol.y_events[0]
    if len(t_events) == 0 or t_events[0] != 0.0:
        raise NonPeriodicError(f"no start crossing of the section at t = 0 from r0={r0}")
    if len(t_events) < 2:
        raise NonPeriodicError(f"no return to the section from r0={r0} within budget")
    if y_events[1][0] <= 0:
        raise NonPeriodicError(
            f"first return from r0={r0} crosses the section at u = {y_events[1][0]:.3g} <= 0"
        )
    return float(t_events[1])


@dataclass(frozen=True)
class PeriodScan:
    radii: tuple[float, ...]
    periods: tuple[float, ...]
    max_rel_spread: float
    reference: float = TWO_PI

    def to_json_obj(self) -> dict:
        return {
            "radii": list(self.radii),
            "periods": list(self.periods),
            "max_rel_spread": self.max_rel_spread,
            "reference": self.reference,
        }


def isochrony_scan(
    f: PlanarField, radii: Sequence[float] = DEFAULT_RADII, tol: float = DEFAULT_TOL
) -> PeriodScan:
    """Measure return times over ascending radii; spread is relative to 2π."""
    if not radii:
        raise InputError("radii must be nonempty")
    radii = tuple(float(r) for r in radii)
    if not all(math.isfinite(r) for r in radii):
        raise InputError(f"radii must be finite, got {list(radii)}")
    if list(radii) != sorted(radii):
        raise InputError("radii must be ascending")
    if radii[-1] > RADIUS_WARN:
        import warnings

        warnings.warn(
            f"largest radius {radii[-1]} exceeds {RADIUS_WARN}; the orbit may "
            "leave the center basin",
            stacklevel=2,
        )
    system = to_real_system(f)
    periods = []
    for r in radii:
        try:
            periods.append(measure_period(system, r, tol))
        except NonPeriodicError as exc:
            raise NonPeriodicError(f"radius {r}: {exc}") from exc
    spread = max(abs(t - TWO_PI) / TWO_PI for t in periods)
    return PeriodScan(radii=radii, periods=tuple(periods), max_rel_spread=spread)
