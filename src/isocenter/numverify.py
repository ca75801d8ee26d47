"""Numerical orbit-period oracle for the underlying real planar system.

This is the only non-exact module: coefficients are evaluated to double
precision, and the field's complex form z' = ξz + P(z, z̄), with
z = u + iv, is integrated as one Python complex by DOP853, the adaptive
8th-order explicit pair of `isocenter.dop853`, so no numerical library is
needed.  The rhs of each field is straight-line source written from its
exponents and compiled once per exponent shape: each power of z and z̄ it
needs is computed once per call, by the products CPython's complex ``**``
makes, and a zero exponent leaves its factor out instead of multiplying by
1+0j, so its floats are those of ``ξz + Σ c * z**i * z̄**j`` up to the sign
of a zero part.  Its records stay dataclasses, as the benchmark's tracer
rebuilds ``RealSystem`` with ``dataclasses.replace``.  Results are evidence,
never proofs.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Sequence

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


def _power(x: str, n: int, lines: list[str]) -> str:
    """The name of x^n (n >= 1), appending to lines each product that builds
    it not yet there, in the order of CPython's complex ``**`` (``c_powu``):
    x^(2^k) = x^(2^(k-1)) * x^(2^(k-1)), and any other x^n = x^(n-top) * x^top,
    top the highest power of two <= n.  x^1 is x itself."""
    if n == 1:
        return x
    name = f"{x}{n}"
    top = 1 << (n.bit_length() - 1)
    a, b = (n // 2, n // 2) if top == n else (n - top, top)
    line = f"    {name} = {_power(x, a, lines)} * {_power(x, b, lines)}"
    if line not in lines:
        lines.append(line)
    return name


def _rhs_source(exponents) -> str:
    """Source of rhs(z) = ξz + Σ c_k z^i w^j with w = conj(z), the terms in
    the order of exponents, summed left to right; a zero exponent drops its
    factor, and w is made only when some term uses it.  Only the integer
    exponents enter the text."""
    lines = ["def rhs(z):"]
    if any(j for _, j in exponents):
        lines.append("    w = z.conjugate()")
    terms = ["xi * z"]
    for k, (i, j) in enumerate(exponents):
        term = f"c{k}"
        if i:
            term += " * " + _power("z", i, lines)
        if j:
            term += " * " + _power("w", j, lines)
        terms.append(term)
    lines.append("    return " + " + ".join(terms))
    return "\n".join(lines)


@functools.lru_cache(maxsize=256)
def _rhs_code(exponents: tuple[tuple[int, int], ...]):
    """The compiled `_rhs_source` of an exponent tuple, made once per shape."""
    return compile(_rhs_source(exponents), "<numverify rhs>", "exec")


def to_real_system(f: PlanarField) -> RealSystem:
    """Substitute x = z = u + iv and y = conj(z): z' = ξz + Σ c z^i conj(z)^j.

    The rhs is generated source (`_rhs_source`), compiled once per exponent
    shape (`_rhs_code`) and run by one ``exec`` into a fresh namespace that
    holds ξ as ``xi`` and the k-th coefficient, in ``f.coefficients`` order,
    as ``c{k}``: no value enters the source text, so fields of one shape
    share the rhs's code object and differ only in its globals.  Its floats
    are those of ``dz = ξz; dz += c * z**i * conj(z)**j`` term by term, up to
    the sign of a zero part (``**`` starts each power from 1+0j, where the
    source has no unit factor), except that products overflow to inf where
    ``**`` raises.  Raises InputError on a coefficient beyond the range of a
    double."""
    namespace = {"xi": f.xi.to_complex()}
    for k, ((i, j), c) in enumerate(f.coefficients.items()):
        try:
            namespace[f"c{k}"] = c.to_complex()
        except OverflowError:
            raise InputError(f"coefficient p_{{{i},{j}}} is beyond the range of a double") from None
    exec(_rhs_code(tuple(f.coefficients)), namespace)
    return RealSystem(namespace["rhs"])


def measure_period(
    s: RealSystem,
    r0: float,
    tol: float = DEFAULT_TOL,
    time_budget: float = 10.0 * TWO_PI,
) -> float:
    """First return time to the section {v = 0, u > 0} from (r0, 0).

    Integrates with `isocenter.dop853`, imported on the first call, whose
    step loop (`first_return`) tests each accepted step for the crossing
    and stops at the first return.  The rhs at (r0, 0) is evaluated once,
    for the overflow check, the direction and the first step.  A crossing
    counts in the direction the orbit leaves (r0, 0), the sign of v' there
    (up for ξ = +i).  The start point lies on the section, so the first
    step must cross it at t = 0; the second crossing, the first return, is
    found on its step's 7th-order interpolant by Brent's method, and
    integration stops there: the time budget bounds only orbits that never
    return.  The relative tolerance is max(tol, 1e-13) and the absolute one
    max(tol, 1e-13) * r0 * 1e-3; raises InputError when the latter
    underflows to 0.  Raises NonPeriodicError when the rhs overflows at the
    start point, when the integration fails (step-size underflow or a
    non-finite state), when the start crossing is missing, when the return
    crosses at u <= 0, or when no return occurs within the budget.
    """
    if not (math.isfinite(r0) and r0 > 0):
        raise InputError(f"initial radius must be positive and finite, got {r0}")
    if not (math.isfinite(tol) and tol > 0):
        raise InputError(f"tolerance must be positive and finite, got {tol}")
    if not (math.isfinite(time_budget) and time_budget > 0):
        raise InputError(f"time budget must be positive and finite, got {time_budget}")
    # imported here so that the exact commands never load the tables
    from .dop853 import StepFailure, brentq, first_return, interpolant

    rtol = max(tol, 1e-13)
    atol = rtol * r0 * 1e-3
    if atol == 0:
        raise InputError(f"initial radius {r0} is too small: its absolute tolerance underflows to 0")
    z0 = complex(r0, 0.0)
    f0 = s.rhs(z0)
    if not cmath.isfinite(f0):
        raise NonPeriodicError(f"integration overflowed from r0={r0}")
    direction = math.copysign(1.0, f0.imag)
    try:
        step = first_return(s.rhs, z0, f0, direction, time_budget, rtol, atol)
    except StepFailure as exc:
        raise NonPeriodicError(f"integration failed from r0={r0}: {exc}") from exc
    if step is None:
        raise NonPeriodicError(f"no return to the section from r0={r0} within budget")
    t_old, t, z_old, z, k = step
    if t_old == 0.0:
        # the first step leaves the start point without crossing the section
        raise NonPeriodicError(f"no start crossing of the section at t = 0 from r0={r0}")
    y = interpolant(s.rhs, t_old, t, z_old, z, k)
    t_return = brentq(lambda x: y(x).imag, t_old, t)
    u_return = y(t_return).real
    if u_return <= 0:
        raise NonPeriodicError(
            f"first return from r0={r0} crosses the section at u = {u_return:.3g} <= 0"
        )
    return t_return


@dataclass(frozen=True)
class PeriodScan:
    radii: tuple[float, ...]
    periods: tuple[float, ...]
    max_rel_spread: float
    reference: ClassVar[float] = TWO_PI

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
