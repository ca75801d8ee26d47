"""Numerical orbit-period oracle for the underlying real planar system.

This is the only non-exact module: coefficients are evaluated to double
precision, and the field's complex form z' = ξz + P(z, z̄), with
z = u + iv, is integrated as one Python complex by DOP853, the adaptive
8th-order explicit pair of `isocenter.dop853`, so no numerical library is
needed.  Results are evidence, never proofs.
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
    """Real planar system (u', v') = (Re z', Im z') of x' = ξx + P(x, x̄):
    its rhs maps z = u + iv to z'."""

    rhs: Callable[[complex], complex]


def to_real_system(f: PlanarField) -> RealSystem:
    """Substitute x = z = u + iv and y = conj(z): z' = ξz + Σ c z^i conj(z)^j."""
    xi = f.xi.to_complex()
    coeffs = [(i, j, c.to_complex()) for (i, j), c in f.coefficients.items()]

    def rhs(z: complex) -> complex:
        w = z.conjugate()
        dz = xi * z
        for i, j, c in coeffs:
            dz += c * z**i * w**j
        return dz

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
    only orbits that never return.  Raises InputError when the absolute
    tolerance tol * r0 * 1e-3 underflows to 0.  Raises NonPeriodicError
    when the integration fails (step-size underflow or a non-finite state)
    or overflows, when the start crossing is missing, when the return
    crosses at u <= 0, or when no return occurs within the budget.
    """
    if not (math.isfinite(r0) and r0 > 0):
        raise InputError(f"initial radius must be positive and finite, got {r0}")
    if not (math.isfinite(tol) and tol > 0):
        raise InputError(f"tolerance must be positive and finite, got {tol}")
    if not (math.isfinite(time_budget) and time_budget > 0):
        raise InputError(f"time budget must be positive and finite, got {time_budget}")
    # imported here so that the exact commands never load the tables
    from .dop853 import StepFailure, brentq, interpolant, steps

    rtol = max(tol, 1e-13)
    atol = rtol * r0 * 1e-3
    if atol == 0:
        raise InputError(f"initial radius {r0} is too small: its absolute tolerance underflows to 0")
    z0 = complex(r0, 0.0)
    try:
        direction = math.copysign(1.0, s.rhs(z0).imag)
        for t_old, t, z_old, z, k in steps(s.rhs, z0, time_budget, rtol, atol):
            # v goes from <= 0 to >= 0 in the section's direction
            crossed = direction * z_old.imag <= 0.0 <= direction * z.imag
            if t_old == 0.0:
                # the start point is on the section: the crossing at t = 0
                if not crossed:
                    raise NonPeriodicError(
                        f"no start crossing of the section at t = 0 from r0={r0}"
                    )
                continue
            if not crossed:
                continue
            y = interpolant(s.rhs, t_old, t, z_old, z, k)
            t_return = brentq(lambda x: y(x).imag, t_old, t)
            u_return = y(t_return).real
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
