"""Numerical orbit-period oracle for the underlying real planar system.

This is the only non-exact module: coefficients are evaluated to double
precision and orbits are integrated with DOP853, an adaptive 8th-order
explicit pair written on Python floats in `isocenter.dop853`, so no
numerical library is needed.  Results are evidence, never proofs.
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

    Integrates with DOP853, the adaptive 8th-order explicit pair of
    `isocenter.dop853`.  A crossing counts in the direction the orbit leaves
    (r0, 0), the sign of v' there (up for ξ = +i).  The start point lies on
    the section, so the first step records a crossing at t = 0; the second
    crossing, the first return, is found on the step's 7th-order interpolant
    by Brent's method, and integration stops there: the time budget bounds
    only orbits that never return.  Raises NonPeriodicError when the
    integration fails (step-size underflow or a non-finite state) or
    overflows, when the start crossing is missing, when the return crosses
    at u <= 0, or when no return occurs within the budget.
    """
    if not (math.isfinite(r0) and r0 > 0):
        raise InputError(f"initial radius must be positive and finite, got {r0}")
    if not (math.isfinite(tol) and tol > 0):
        raise InputError(f"tolerance must be positive and finite, got {tol}")
    if not (math.isfinite(time_budget) and time_budget > 0):
        raise InputError(f"time budget must be positive and finite, got {time_budget}")
    # imported here so that the exact commands never load the tables
    from .dop853 import StepFailure, brentq, steps

    rtol = max(tol, 1e-13)
    try:
        direction = math.copysign(1.0, s.rhs(r0, 0.0)[1])
        for step in steps(s.rhs, r0, 0.0, time_budget, rtol, rtol * r0 * 1e-3):
            # v goes from <= 0 to >= 0 in the section's direction
            crossed = direction * step.v_old <= 0.0 <= direction * step.v
            if step.t_old == 0.0:
                # the start point is on the section: the crossing at t = 0
                if not crossed:
                    raise NonPeriodicError(
                        f"no start crossing of the section at t = 0 from r0={r0}"
                    )
                continue
            if not crossed:
                continue
            y = step.dense()
            t_return = brentq(lambda t: y(t)[1], step.t_old, step.t)
            u_return = y(t_return)[0]
            if u_return <= 0:
                raise NonPeriodicError(
                    f"first return from r0={r0} crosses the section at u = {u_return:.3g} <= 0"
                )
            return t_return
    except OverflowError as exc:
        # complex powers raise instead of returning inf on huge states
        raise NonPeriodicError(f"integration overflowed from r0={r0}") from exc
    except StepFailure as exc:
        raise NonPeriodicError(f"integration failed from r0={r0}: {exc}") from exc
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
