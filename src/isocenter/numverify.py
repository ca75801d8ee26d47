"""Numerical orbit-period oracle for the underlying real planar system.

This is the only non-exact module: coefficients are evaluated to double
precision and orbits are integrated with an adaptive high-order explicit
scheme.  Results are evidence, never proofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from scipy.integrate import solve_ivp

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
    ξ = +i).  Raises NonPeriodicError when no such crossing with u > 0
    occurs within the time budget.
    """
    if r0 <= 0:
        raise InputError(f"initial radius must be positive, got {r0}")
    if tol <= 0:
        raise InputError(f"tolerance must be positive, got {tol}")

    def fun(t, state):
        return s.rhs(state[0], state[1])

    def section(t, state):
        return state[1]

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
    if not sol.success:
        raise NonPeriodicError(f"integration failed from r0={r0}: {sol.message}")
    for t_ev, y_ev in zip(sol.t_events[0], sol.y_events[0]):
        # skip the spurious event at the start point, which lies on the section
        if t_ev > 0.25 and y_ev[0] > 0:
            return float(t_ev)
    raise NonPeriodicError(f"no return to the section from r0={r0} within budget")


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
