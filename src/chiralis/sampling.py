"""Seeded random generators for exact test data.

Every randomized identity check in the package draws its data from these
helpers with an explicit ``random.Random`` instance, so runs are fully
replayable from a seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .exactnum import GaussRational, Poly, RatFunc
from .states import SymState, monomial_state, vacuum

__all__ = [
    "rand_fraction",
    "rand_scalar",
    "rand_distinct_scalars",
    "rand_poly",
    "rand_ratfunc",
    "rand_pole_state",
]


def rand_fraction(rng: random.Random, span: int = 4) -> Fraction:
    num = rng.randint(-span, span)
    den = rng.randint(1, 3)
    return Fraction(num, den)


def rand_scalar(rng: random.Random, span: int = 4) -> GaussRational:
    re = rand_fraction(rng, span)
    im = rand_fraction(rng, span) if rng.random() < 0.4 else Fraction(0)
    return GaussRational(re, im)


def rand_distinct_scalars(rng: random.Random, count: int, span: int = 6) -> list:
    out: list = []
    while len(out) < count:
        s = rand_scalar(rng, span)
        if s not in out:
            out.append(s)
    return out


def rand_poly(rng: random.Random, max_degree: int = 3) -> Poly:
    degree = rng.randint(0, max_degree)
    coeffs = [rand_scalar(rng) for _ in range(degree + 1)]
    if not coeffs[-1]:
        coeffs[-1] = GaussRational(1)
    return Poly(coeffs)


def rand_ratfunc(rng: random.Random, max_poles: int = 3) -> RatFunc:
    """Random rational function with denominator split into linear factors."""
    num = rand_poly(rng, max_degree=max_poles)
    poles = rand_distinct_scalars(rng, rng.randint(0, max_poles), span=4)
    den = Poly([GaussRational(1)])
    for c in poles:
        for _ in range(rng.randint(1, 2)):
            den = den * Poly([-c, GaussRational(1)])
    return RatFunc(num, den)


def rand_pole_state(rng: random.Random, points, max_degree: int):
    """One or two monomials of up to ``max_degree`` pole atoms at the points,
    of orders 2 and 3; the vacuum if they cancel."""
    out = SymState()
    for _ in range(rng.randint(1, 2)):
        atoms = [("pole", rng.choice(points), rng.randint(2, 3))
                 for _ in range(rng.randint(0, max_degree))]
        out = out + monomial_state(atoms, rand_scalar(rng))
    return out if out else vacuum()
