"""Coordinate representations of the bundle, its tangent spaces and lifts.

Everything lives in one global chart: a point of the total space is (x, y)
with x in R^n and y in R^k, a tangent vector is (dx, dy) at such a point,
and a point of the second tangent space carries the eight slots
(x, y, dx, dy, delta_x, delta_y, delta_dx, delta_dy).  The second tangent
representation exists so that the structural identities (vertical lifts and
projections for both bundle structures, the two additions, the canonical
involution) can be asserted as tests; production code never builds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import expr as ex

BASE_TOL = 1e-12  # tolerance for base-point compatibility of separately computed values


class NotVerticalError(ValueError):
    """A projection demanded a vertical vector and got a non-vertical one."""


class NotTpiVerticalError(ValueError):
    """Second tangent is not vertical over the tangent of the base."""


class OutOfDomainError(ValueError):
    """Point violates the connection's domain predicate."""


@lru_cache(maxsize=256)
def _names(prefix: str, count: int) -> tuple[str, ...]:
    """Coordinate names prefix1..prefix<count>, built once per (prefix, count)."""
    return tuple(f"{prefix}{i+1}" for i in range(count))


def _vec(v, length: int, what: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.shape != (length,):
        raise ValueError(f"{what}: expected length {length}, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class BundleSpace:
    """Chart data: base dimension n, fiber rank k, optional domain predicate.

    The domain predicate must cut out a fiberwise open set (not checkable
    numerically; documented contract) and may reference x and y only.
    """

    n: int
    k: int
    domain: ex.BoolExpr | None = None

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise ValueError("need n >= 1 and k >= 1")
        if self.domain is not None:
            bad = ex.bool_variables(self.domain) - set(self.x_names + self.y_names)
            if bad:
                raise ValueError(
                    f"domain may reference x/y only, found {sorted(bad)}"
                )

    @property
    def x_names(self) -> tuple[str, ...]:
        return _names("x", self.n)

    @property
    def y_names(self) -> tuple[str, ...]:
        return _names("y", self.k)

    def point_env(self, x, y) -> dict:
        env = dict(zip(_names("x", self.n), map(float, x)))
        env.update(zip(_names("y", self.k), map(float, y)))
        return env

    def in_domain(self, x, y) -> bool:
        """Whether the point (x, y) satisfies the domain predicate."""
        if self.domain is None:
            return True
        return ex.evaluate_bool(self.domain, self.point_env(x, y))

    @cached_property
    def compiled_domain(self):
        """The domain predicate compiled over x1..xn, y1..yk; None without one.

        ``compiled_domain(*x, *y)`` is ``in_domain(x, y)`` for one point,
        with the and/or short circuit of ``evaluate_bool``.  Flows and
        holonomy legs test it at every stage, and the transport knot table
        at every knot (see ``left_domain``); single points keep ``in_domain``.
        """
        if self.domain is None:
            return None
        from .codegen import compile_bool

        return compile_bool(self.domain, self.x_names + self.y_names)

    def left_domain(self, what: str, t, xy: list) -> OutOfDomainError:
        """The error for an RK4 stage point or a curve knot xy, the floats
        x1..xn, y1..yk, that ``compiled_domain`` rejects: it names the t of
        the stage or knot and the point.

        Integrators test the compiled predicate inline and call this only to
        raise, which keeps a stage free of one more call.
        """
        return OutOfDomainError(f"{what} left the domain at t = {t!r}, at ({xy[: self.n]}, {xy[self.n :]})")

    def require_in_domain(self, x, y, what: str = "point"):
        if not self.in_domain(x, y):
            raise OutOfDomainError(f"{what} ({list(map(float, x))}, {list(map(float, y))}) is outside the domain")


@dataclass(frozen=True)
class FiberPoint:
    """A point of the total space: base coordinates x, fiber coordinates y."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))


@dataclass(frozen=True)
class PullbackPoint:
    """Two fiber vectors over one base point, stored as (x, y, z)."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        object.__setattr__(self, "z", np.asarray(self.z, dtype=float))
        if self.y.shape != self.z.shape:
            raise ValueError("both legs need the same fiber rank")

    @property
    def a(self) -> FiberPoint:
        return FiberPoint(self.x, self.y)

    @property
    def b(self) -> FiberPoint:
        return FiberPoint(self.x, self.z)


@dataclass(frozen=True)
class TangentE:
    """Tangent vector at a point of the total space, components (dx, dy)."""

    at: FiberPoint
    dx: np.ndarray
    dy: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dx", _vec(self.dx, len(self.at.x), "dx"))
        object.__setattr__(self, "dy", _vec(self.dy, len(self.at.y), "dy"))

    def is_vertical(self) -> bool:
        return bool(np.all(self.dx == 0.0))


@dataclass(frozen=True)
class TangentPullback:
    """Tangent vector to the pullback space: a pair sharing the base velocity."""

    at: PullbackPoint
    w: TangentE
    w2: TangentE

    def __post_init__(self):
        if np.max(np.abs(self.w.dx - self.w2.dx)) > BASE_TOL:
            raise ValueError("legs must share the base velocity dx")


@dataclass(frozen=True)
class SecondTangent:
    """A point of the double tangent space in its eight coordinate slots."""

    x: np.ndarray
    y: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    delta_x: np.ndarray
    delta_y: np.ndarray
    delta_dx: np.ndarray
    delta_dy: np.ndarray

    def __post_init__(self):
        for name in ("x", "y", "dx", "dy", "delta_x", "delta_y", "delta_dx", "delta_dy"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))

    def base_tangent(self) -> TangentE:
        """Foot point in the tangent space (the standard bundle projection)."""
        return TangentE(FiberPoint(self.x, self.y), self.dx, self.dy)

    def is_tpi_vertical(self) -> bool:
        return bool(np.all(self.delta_x == 0.0) and np.all(self.delta_dx == 0.0))


# ---------------------------------------------------------------------------
# Vertical lift and projection for the bundle itself


def vertical_lift(a: FiberPoint, b) -> TangentE:
    """Tangent at a pointing along the fiber with velocity b."""
    b = _vec(b, len(a.y), "fiber vector")
    return TangentE(a, np.zeros(len(a.x)), b)


def vertical_project(w: TangentE) -> np.ndarray:
    """Fiber vector b with vertical_lift(at, b) == w; exact verticality required."""
    if not w.is_vertical():
        raise NotVerticalError(f"dx = {w.dx.tolist()} is not exactly zero")
    return w.dy.copy()


# ---------------------------------------------------------------------------
# The two additions and scalings


def _check_close(u, v, what: str):
    if np.max(np.abs(np.asarray(u) - np.asarray(v)), initial=0.0) > BASE_TOL:
        raise ValueError(f"{what} differ beyond {BASE_TOL}")


def tangent_add(u, v):
    """Standard tangent-space addition (fixed foot point, add velocities)."""
    if isinstance(u, SecondTangent):
        for slot in ("x", "y", "dx", "dy"):
            _check_close(getattr(u, slot), getattr(v, slot), f"{slot} slots")
        return SecondTangent(
            u.x, u.y, u.dx, u.dy,
            u.delta_x + v.delta_x, u.delta_y + v.delta_y,
            u.delta_dx + v.delta_dx, u.delta_dy + v.delta_dy,
        )
    _check_close(u.at.x, v.at.x, "base points")
    _check_close(u.at.y, v.at.y, "base points")
    return TangentE(u.at, u.dx + v.dx, u.dy + v.dy)


def tangent_scale(lam: float, u):
    if isinstance(u, SecondTangent):
        return SecondTangent(
            u.x, u.y, u.dx, u.dy,
            lam * u.delta_x, lam * u.delta_y, lam * u.delta_dx, lam * u.delta_dy,
        )
    return TangentE(u.at, lam * u.dx, lam * u.dy)


def tau_add(u, v):
    """Addition over the tangent of the base: feet add fiberwise, dx is shared."""
    if isinstance(u, SecondTangent):
        _check_close(u.x, v.x, "x slots")
        _check_close(u.dx, v.dx, "dx slots")
        return SecondTangent(
            u.x, u.y + v.y, u.dx, u.dy + v.dy,
            u.delta_x + v.delta_x, u.delta_y + v.delta_y,
            u.delta_dx + v.delta_dx, u.delta_dy + v.delta_dy,
        )
    _check_close(u.at.x, v.at.x, "base points")
    _check_close(u.dx, v.dx, "base velocities")
    return TangentE(FiberPoint(u.at.x, u.at.y + v.at.y), u.dx, u.dy + v.dy)


def tau_scale(lam: float, u):
    """Scaling over the tangent of the base.

    On a tangent vector this scales (y, dy); on a second tangent it scales
    (dx, dy, delta_dx, delta_dy), the velocity slots of the differentiated
    fiberwise scaling, which is the variant under which the vertical
    projection over the tangent of the base is homogeneous.
    """
    if isinstance(u, SecondTangent):
        return SecondTangent(
            u.x, u.y, lam * u.dx, lam * u.dy,
            u.delta_x, u.delta_y, lam * u.delta_dx, lam * u.delta_dy,
        )
    return TangentE(FiberPoint(u.at.x, lam * u.at.y), u.dx, lam * u.dy)


def tau_zero(u) -> "SecondTangent | TangentE":
    """Neutral element for tau_add over the same image in the tangent base."""
    if isinstance(u, SecondTangent):
        zk = np.zeros_like(u.y)
        zn = np.zeros_like(u.x)
        return SecondTangent(u.x, zk, u.dx, zk, zn, zk, zn, zk)
    zk = np.zeros_like(u.at.y)
    return TangentE(FiberPoint(u.at.x, zk), u.dx, zk)


def tpi_image(u):
    """Image (x, dx) in the tangent of the base, for either tangent level."""
    if isinstance(u, SecondTangent):
        return u.x.copy(), u.dx.copy()
    return u.at.x.copy(), u.dx.copy()


# ---------------------------------------------------------------------------
# Vertical lifts/projections of the two bundle structures on TE


def tpi_vertical_lift(v: TangentE, w: TangentE) -> SecondTangent:
    """Velocity at s=0 of s -> v +_tau s *_tau w (shared image over the base)."""
    _check_close(v.at.x, w.at.x, "base points")
    _check_close(v.dx, w.dx, "base velocities")
    zn = np.zeros_like(v.at.x)
    return SecondTangent(v.at.x, v.at.y, v.dx, v.dy, zn, w.at.y, zn, w.dy)


def tpi_vertical_project(V: SecondTangent) -> TangentE:
    """The unique w with tpi_vertical_lift(v, w) == V."""
    if not V.is_tpi_vertical():
        raise NotTpiVerticalError(
            f"delta_x = {V.delta_x.tolist()}, delta_dx = {V.delta_dx.tolist()}"
        )
    return TangentE(FiberPoint(V.x, V.delta_y), V.dx, V.delta_dy)


def taue_vertical_lift(v: TangentE, w: TangentE) -> SecondTangent:
    """Velocity at s=0 of s -> v + s*w (both tangent at the same point)."""
    _check_close(v.at.x, w.at.x, "base points")
    _check_close(v.at.y, w.at.y, "base points")
    zn = np.zeros_like(v.at.x)
    zk = np.zeros_like(v.at.y)
    return SecondTangent(v.at.x, v.at.y, v.dx, v.dy, zn, zk, w.dx, w.dy)


def taue_vertical_project(V: SecondTangent) -> TangentE:
    if np.any(V.delta_x != 0.0) or np.any(V.delta_y != 0.0):
        raise NotVerticalError("second tangent is not vertical over the tangent space")
    return TangentE(FiberPoint(V.x, V.y), V.delta_dx, V.delta_dy)


def canonical_involution(V: SecondTangent) -> SecondTangent:
    """Swap the two tangent-bundle structures: (dx, dy) <-> (delta_x, delta_y)."""
    return SecondTangent(
        V.x, V.y, V.delta_x, V.delta_y, V.dx, V.dy, V.delta_dx, V.delta_dy
    )


def tangent_of_projection(V: SecondTangent) -> TangentE:
    """Tangent map of the foot projection applied to V."""
    return TangentE(FiberPoint(V.x, V.y), V.delta_x, V.delta_y)


def tangent_of_vertical_project(V: SecondTangent) -> TangentE:
    """Tangent map of the fiber-vector extraction, on tangents to verticals."""
    if np.any(V.dx != 0.0) or np.any(V.delta_dx != 0.0):
        raise NotVerticalError("second tangent is not tangent to the vertical bundle")
    return TangentE(FiberPoint(V.x, V.dy), V.delta_x, V.delta_dy)


def tangent_of_vertical_lift(t: TangentPullback) -> SecondTangent:
    """Tangent map of the vertical lifting applied to a pullback tangent."""
    zn = np.zeros_like(t.at.x)
    zk = np.zeros_like(t.at.y)
    return SecondTangent(
        t.at.x, t.at.y, zn, t.at.z, t.w.dx, t.w.dy, zn, t.w2.dy
    )
