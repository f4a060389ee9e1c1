"""Parallel transport along curves, flows of hor-basic fields, and the
fiber derivative of a flow computed through the variational equation.

All integrations use the one fixed-step classical RK4 of ``rk4``:
deterministic, and its fourth-order convergence is itself an acceptance
check.  The domain predicate is enforced at every stage point; the first
violation aborts with the offending parameter value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ad
from . import expr as ex
from .connection import HorBasicField, NonlinearConnection
from .geom import FiberPoint, OutOfDomainError, PullbackPoint
from .linearize import LambdaFamilyMember, LinearizedConnection


@dataclass(frozen=True)
class CurveInE:
    """Curve in the total space: component expressions in t on [t0, t1]."""

    comp_x: tuple
    comp_y: tuple
    t0: float
    t1: float

    def __post_init__(self):
        object.__setattr__(self, "comp_x", tuple(self.comp_x))
        object.__setattr__(self, "comp_y", tuple(self.comp_y))
        for e in self.comp_x + self.comp_y:
            bad = ex.variables(e) - {"t"}
            if bad:
                raise ValueError(f"curve components may reference t only, found {sorted(bad)}")

    def state(self, t: float):
        """Positions and velocities (x, y, xdot, ydot) at parameter t."""
        env = {"t": ad.Dual1(t, (1.0,))}
        xs = [ex.evaluate(e, env) for e in self.comp_x]
        ys = [ex.evaluate(e, env) for e in self.comp_y]
        x = np.array([ad.real_part(v) for v in xs])
        y = np.array([ad.real_part(v) for v in ys])
        xd = np.array([ad.dual_part(v) for v in xs])
        yd = np.array([ad.dual_part(v) for v in ys])
        return x, y, xd, yd


@dataclass(frozen=True)
class TransportResult:
    z_final: np.ndarray
    trajectory: tuple | None
    steps: int
    method: str = "RK4"


def _as_linearization(lin_or_fam):
    if isinstance(lin_or_fam, LambdaFamilyMember):
        return LinearizedConnection(lin_or_fam.conn), float(lin_or_fam.lam)
    if isinstance(lin_or_fam, LinearizedConnection):
        return lin_or_fam, 0.0
    if isinstance(lin_or_fam, NonlinearConnection):
        return LinearizedConnection(lin_or_fam), 0.0
    raise TypeError(f"cannot transport with {type(lin_or_fam).__name__}")


def rk4(f, t0: float, t1: float, state, steps: int):
    """Classical fixed-step RK4 for state' = f(t, state) on [t0, t1].

    Yields (t, state) after each of the ``steps`` steps; step j starts at
    t0 + j*h.  An overflow inside f or a non-finite state raises
    OverflowError naming t.
    """
    h = (t1 - t0) / steps
    for step in range(steps):
        t = t0 + step * h
        try:
            k1 = f(t, state)
            k2 = f(t + 0.5 * h, state + 0.5 * h * k1)
            k3 = f(t + 0.5 * h, state + 0.5 * h * k2)
            k4 = f(t + h, state + h * k3)
        except OverflowError as err:
            raise OverflowError(f"{err} in the step from t = {t!r}") from err
        state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t = t0 + (step + 1) * h
        if not np.isfinite(state).all():
            raise OverflowError(f"non-finite state at t = {t!r}")
        yield t, state


def transport_ode(
    lin_or_fam,
    curve: CurveInE,
    z0,
    steps: int,
    record: int = 0,
) -> TransportResult:
    """Integrate the parallel-transport equation along the curve.

    The transported vector obeys
        zdot^A = -d_gamma^A_iB(x(t), y(t)) z^B xdot^i
                 + lam * (ydot^A + gamma^A_i(x(t), y(t)) xdot^i),
    which is exactly the condition that the curve t -> (x, y, z) be
    horizontal for the family member (the lam term vanishes for the plain
    linearization).  ``record`` > 0 samples about that many trajectory knots.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    lin, lam = _as_linearization(lin_or_fam)
    sp = lin.space
    z = np.asarray(z0, dtype=float).copy()
    if z.shape != (sp.k,):
        raise ValueError(f"z0 must have length {sp.k}")
    # The last tableau (M, c) by its exact t: k2 and k3 share the midpoint,
    # and a step's end is usually bitwise the next step's start.
    last = {}

    def rhs(t: float, z):
        if t not in last:
            x, y, xd, yd = curve.state(t)
            if not sp.in_domain(x, y):
                raise OutOfDomainError(f"curve leaves the domain at t = {t!r}")
            env = sp.point_env(x, y)
            J = np.array(lin.fiber_jacobian_env(env), dtype=float)
            M = -np.einsum("aib,i->ab", J, xd)
            c = np.zeros(sp.k)
            if lam != 0.0:
                c = lam * (yd + lin.conn.gamma_matrix(env) @ xd)
            last.clear()
            last[t] = M, c
        M, c = last[t]
        return M @ z + c

    stride = max(1, steps // record) if record else 0
    trajectory = []

    def note(t, z):
        x, y, _, _ = curve.state(t)
        trajectory.append((t, x, y, z))

    if record:
        note(curve.t0, z)
    for step, (t, z) in enumerate(rk4(rhs, curve.t0, curve.t1, z, steps), 1):
        if record and (step % stride == 0 or step == steps):
            note(t, z)
    return TransportResult(z, tuple(trajectory) if record else None, steps)


def flow(
    conn: NonlinearConnection,
    y_field: HorBasicField,
    a: FiberPoint,
    s: float,
    steps: int,
) -> FiberPoint:
    """Flow of the hor-basic field for time s from a, by RK4."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    sp = conn.space

    def f(t, state):
        x, y = state[: sp.n], state[sp.n :]
        if not sp.in_domain(x, y):
            raise OutOfDomainError("flow left the domain")
        return np.concatenate(y_field.velocity(conn, sp.point_env(x, y)))

    state = np.concatenate([a.x, a.y])
    for _, state in rk4(f, 0.0, s, state, steps):
        pass
    if not sp.in_domain(state[: sp.n], state[sp.n :]):
        raise OutOfDomainError("flow left the domain")
    return FiberPoint(state[: sp.n], state[sp.n :])


def fiber_derivative_flow(
    conn: NonlinearConnection,
    y_field: HorBasicField,
    p: PullbackPoint,
    s: float,
    steps: int,
):
    """Flow plus its fiber-direction variational equation.

    Integrates the flow ODE together with the sensitivity of the fiber
    coordinates to a fiber-direction initial variation z (the base variation
    stays identically zero because the base velocity is fiber-independent):
        delta_ydot^A = -d_gamma^A_iB(x, y) delta_y^B X^i(x).
    Returns the flow endpoint and the transported variation; for the
    linearized connection this is the parallel transport of (a, z) along the
    flow line.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    sp = conn.space
    lin = LinearizedConnection(conn)

    def f(t, state):
        x, y, dz = state[: sp.n], state[sp.n : sp.n + sp.k], state[sp.n + sp.k :]
        if not sp.in_domain(x, y):
            raise OutOfDomainError("flow left the domain")
        env = sp.point_env(x, y)
        xd, yd = y_field.velocity(conn, env)
        J = np.array(lin.fiber_jacobian_env(env), dtype=float)
        dzdot = -np.einsum("aib,b,i->a", J, dz, xd)
        return np.concatenate([xd, yd, dzdot])

    state = np.concatenate([p.x, p.y, p.z])
    for _, state in rk4(f, 0.0, s, state, steps):
        pass
    end = FiberPoint(state[: sp.n], state[sp.n : sp.n + sp.k])
    sp.require_in_domain(end.x, end.y, "flow endpoint")
    return end, state[sp.n + sp.k :]
