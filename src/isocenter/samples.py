"""Seeded generators of random fields, scalars and operators for the lemma suites and tests."""

from __future__ import annotations

import random

from .algebra import GaussianRational, _reduced
from .operators import Derivation
from .prepared import PlanarField


def random_scalar(rng: random.Random) -> GaussianRational:
    """p/q + (r/s) i from the draws p, q, r, s in this order: p, r in -9..9 and q, s in 1..9."""
    p, q = rng.randint(-9, 9), rng.randint(1, 9)
    r, s = rng.randint(-9, 9), rng.randint(1, 9)
    return _reduced(p * s, r * q, q * s)


def random_nonzero_scalar(rng: random.Random) -> GaussianRational:
    while True:
        z = random_scalar(rng)
        if z:
            return z


def random_field(rng: random.Random, d: int, density: float = 0.8) -> PlanarField:
    """Generic field of degree d with sparse random coefficients."""
    coeffs = {}
    for n in range(2, d + 1):
        for i in range(0, n + 1):
            if rng.random() < density:
                coeffs[(i, n - i)] = random_scalar(rng)
    return PlanarField(degree=d, coefficients=coeffs)


def random_ui_homogeneous(
    rng: random.Random, d: int, force_middle_zero: bool = False
) -> PlanarField:
    """Homogeneous degree-d field satisfying the uniform relations.

    Writes c_i = p_{i,d-i}; the relations are c_0 = 0 and
    c_{d-i+1} = conj(c_i) for i = 1..d, which pair index i with d-i+1.
    For odd d the middle coefficient c_{m+1} must be real; with
    ``force_middle_zero`` it is set to zero (the extra isochronicity
    relation for odd degree).
    """
    c: dict[int, GaussianRational] = {}
    for i in range(1, d + 1):
        partner = d - i + 1
        if i < partner:
            c[i] = random_scalar(rng)
            c[partner] = c[i].conj()
        elif i == partner:
            if force_middle_zero:
                c[i] = GaussianRational(0)
            else:
                c[i] = _reduced(rng.randint(-9, 9), 0, rng.randint(1, 9))
    coeffs = {(i, d - i): v for i, v in c.items() if v}
    return PlanarField(degree=d, coefficients=coeffs)


def random_cr_field(rng: random.Random, d: int) -> PlanarField:
    """Field with only x-powers: p_{n,0} random for n = 2..d."""
    coeffs = {}
    for n in range(2, d + 1):
        coeffs[(n, 0)] = random_nonzero_scalar(rng)
    return PlanarField(degree=d, coefficients=coeffs)


def random_hom_op(rng: random.Random, max_deg: int = 4) -> Derivation:
    """Random homogeneous operator B_{(i-1,k-i)} of the alphabet's family, built as a
    letter map: an inner letter 1 <= i <= k, or an end i = 0 or k+1 with one nonzero part."""
    k = rng.randint(2, max_deg)
    kind = rng.random()
    if kind < 0.7:
        i = rng.randint(1, k)
        return Derivation.from_terms({(i - 1, k - i): (random_scalar(rng), random_scalar(rng))})
    if kind < 0.85:
        return Derivation.from_terms({(-1, k): (random_nonzero_scalar(rng), 0)})
    return Derivation.from_terms({(k, -1): (0, random_nonzero_scalar(rng))})


def quadratic(p20, p11, p02) -> PlanarField:
    """Convenience quadratic field from three scalars."""
    return PlanarField(degree=2, coefficients={(2, 0): p20, (1, 1): p11, (0, 2): p02})
