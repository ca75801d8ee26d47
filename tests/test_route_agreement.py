"""Three routes on one field: coefficient conditions, the Lie verdict and the period oracle.

Seeded exact members of the isochronous families (the quadratic Q_i-Q_iv,
the homogeneous uniform fields with the odd middle coefficient zero, and
the Cauchy-Riemann fields), each in both orientations of ξ, must have
return times within SPREAD_BOUND of 2π at small radii, and so must every
field whose alphabet is ``LinearisableStructural``.  Conversely a generic
random field whose spread is far above that bound must be in no family
and get ``Unknown``.  ``check_uniform``'s "UI" is not a family here: it
does not imply a centre (an odd-degree UI field can be a focus whose
period spread is about 1e-11).
"""

import random
from fractions import Fraction

from isocenter.conditions import check_cauchy_riemann, classify_quadratic, homogeneous_uniform_verdict
from isocenter.lie_analysis import LINEARISABLE_STRUCTURAL, UNKNOWN, structural_linearisability
from isocenter.numverify import DEFAULT_TOL, isochrony_scan
from isocenter.prepared import PlanarField, decompose
from isocenter.samples import (
    quadratic,
    random_cr_field,
    random_field,
    random_nonzero_scalar,
    random_ui_homogeneous,
)

# small enough that a perturbation with coefficients up to 9 + 9i stays
# within the centre's basin, large enough that a generic quadratic part
# moves the period by far more than the integrator's error
RADII = (0.002, 0.005, 0.01)
SPREAD_BOUND = 10 * DEFAULT_TOL
FAR_ABOVE = 1e-6


def quadratic_member(rng, family):
    """A random member of one quadratic family, from classify_quadratic's relations."""
    p11 = random_nonzero_scalar(rng)
    if family == "Q_i":
        return quadratic(random_nonzero_scalar(rng), 0, 0)
    if family == "Q_ii":
        return quadratic(p11.conj(), p11, 0)
    half_cube = p11 * p11 * p11 * (1 / (2 * p11.norm_sq().re))  # p11^2 / (2 conj p11)
    if family == "Q_iii":
        return quadratic(p11.conj() * Fraction(5, 2), p11, half_cube * -3)
    return quadratic(p11.conj() * Fraction(7, 6), p11, half_cube)


def families(f):
    """The isochronous families f is a member of."""
    out = set(classify_quadratic(f)) if f.degree == 2 else set()
    if f.is_homogeneous() and homogeneous_uniform_verdict(f).holds:
        out.add("HOM_UNIFORM")
    if check_cauchy_riemann(f).holds:
        out.add("CR")
    return out


def both_orientations(f):
    return [PlanarField(f.degree, f.coefficients, sign) for sign in "+-"]


def routes(f):
    """(families, structural verdict, period spread) of one field."""
    verdict = structural_linearisability(decompose(f), 6)
    return families(f), verdict, isochrony_scan(f, RADII).max_rel_spread


def test_members_and_structural_fields_are_isochronous():
    rng = random.Random(61)
    members = []
    for family in ("Q_i", "Q_ii", "Q_iii", "Q_iv"):
        members += [(family, quadratic_member(rng, family)) for _ in range(6)]
    for d in range(2, 6):
        members += [("HOM_UNIFORM", random_ui_homogeneous(rng, d, force_middle_zero=True)) for _ in range(4)]
        members += [("CR", random_cr_field(rng, d)) for _ in range(4)]
    structural = 0
    for family, f in members:
        for g in both_orientations(f):
            found, verdict, spread = routes(g)
            assert family in found, (family, g)
            assert spread <= SPREAD_BOUND, (family, g, spread)
            structural += verdict == LINEARISABLE_STRUCTURAL
    # Q_i, Q_ii, HOM_UNIFORM and CR are structural; Q_iii and Q_iv are not
    assert structural == 2 * (12 + 32)


def test_far_spread_means_no_family_and_unknown():
    rng = random.Random(67)
    far = 0
    for d in (2, 3, 4):
        for _ in range(20):
            for g in both_orientations(random_field(rng, d)):
                found, verdict, spread = routes(g)
                if verdict == LINEARISABLE_STRUCTURAL:
                    assert spread <= SPREAD_BOUND, (g, spread)
                if spread > FAR_ABOVE:
                    far += 1
                    assert not found and verdict == UNKNOWN, (g, found, verdict)
    assert far >= 100
