"""Seeded random draws of points, tangents, fields and sections for checks.

A polynomial coefficient is ``-1 + 2u`` for u = ``rng.random()``, rounded
to three decimals.  That is the formula numpy's ``Generator.uniform(low,
high)`` computes, ``low + (high - low) * u`` from one double of the stream,
so the coefficients, the trees and the generator's state after a draw are
those of ``rng.uniform(-1, 1)``, at a quarter to a third of the cost per
scalar (``uniform`` parses and broadcasts its arguments on every call).
"""

from __future__ import annotations

import numpy as np

from . import expr as ex
from .connection import HorBasicField, SectionAlongPi
from .geom import BundleSpace, FiberPoint, OutOfDomainError, PullbackPoint, TangentE

BOX = 1.5  # coordinates are drawn from [-BOX, BOX]
MAX_TRIES = 1000


def sample_in_domain(space: BundleSpace, rng: np.random.Generator) -> FiberPoint:
    for _ in range(MAX_TRIES):
        x = rng.uniform(-BOX, BOX, space.n)
        y = rng.uniform(-BOX, BOX, space.k)
        if space.in_domain(x, y):
            return FiberPoint(x, y)
    raise OutOfDomainError("no in-domain sample found")


def sample_pullback(space: BundleSpace, rng: np.random.Generator) -> PullbackPoint:
    a = sample_in_domain(space, rng)
    z = rng.uniform(-BOX, BOX, space.k)
    return PullbackPoint(a.x, a.y, z)


def sample_tangent(rng: np.random.Generator, at: FiberPoint) -> TangentE:
    return TangentE(
        at, rng.uniform(-BOX, BOX, len(at.x)), rng.uniform(-BOX, BOX, len(at.y))
    )


def _coefficient(rng: np.random.Generator) -> float:
    return round(-1.0 + 2.0 * rng.random(), 3)


def random_polynomial(rng: np.random.Generator, names) -> ex.Expr:
    """Random polynomial of degree <= 2 with small rounded coefficients."""
    leaves = [ex.var(name) for name in names]
    terms = [ex.lit(_coefficient(rng))]
    for leaf in leaves:
        c = _coefficient(rng)
        if c != 0.0:
            terms.append(ex.mul(ex.lit(c), leaf))
    for _ in range(2):
        # two draws of one index in one call; numpy draws nothing for a
        # one-value range
        i, j = rng.integers(len(leaves), size=2).tolist() if len(leaves) != 1 else (0, 0)
        v1, v2 = leaves[i], leaves[j]
        c = _coefficient(rng)
        if c != 0.0:
            terms.append(ex.mul(ex.lit(c), ex.mul(v1, v2)))
    out = terms[0]
    for t in terms[1:]:
        out = ex.add(out, t)
    return out


def random_hor_basic(rng: np.random.Generator, space: BundleSpace) -> HorBasicField:
    xn = space.x_names
    return HorBasicField._over_x(
        tuple(random_polynomial(rng, xn) for _ in range(space.n)),
        tuple(random_polynomial(rng, xn) for _ in range(space.k)),
    )


def random_section(rng: np.random.Generator, space: BundleSpace) -> SectionAlongPi:
    names = space.x_names + space.y_names
    return SectionAlongPi(tuple(random_polynomial(rng, names) for _ in range(space.k)))


def random_field(rng: np.random.Generator, space: BundleSpace, projectable=False):
    """Random polynomial vector field on the total space."""
    from .connection import FieldOnE

    base_names = space.x_names if projectable else space.x_names + space.y_names
    all_names = space.x_names + space.y_names
    return FieldOnE(
        tuple(random_polynomial(rng, base_names) for _ in range(space.n)),
        tuple(random_polynomial(rng, all_names) for _ in range(space.k)),
    )
