"""Parallel transport along curves, flows of hor-basic fields, and the
fiber derivative of a flow computed through the variational equation.

All integrations use the one fixed-step classical RK4 of ``rk4``:
deterministic, and its fourth-order convergence is itself an acceptance
check.  The domain predicate is enforced at every stage point; the first
violation aborts with the offending parameter value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import ad
from . import expr as ex
from .connection import HorBasicField, NonlinearConnection
from .geom import FiberPoint, PullbackPoint
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

    @cached_property
    def compiled_state(self):
        """``state`` compiled as one function of the float t.

        ``compiled_state(t)`` is the tuple x, y, xdot, ydot of ``state(t)``
        as n + k + n + k floats, bitwise, and raises what ``state`` raises.
        The transport checks' curve screen and reference loop call it.
        """
        from .codegen import compile_gradients

        return compile_gradients(self.comp_x + self.comp_y, ("t",), ("t",))


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
    raise TypeError(f"cannot transport with {type(lin_or_fam).__name__}")


BLOCK_STEPS = 256  # RK4 steps whose knots transport_ode tabulates in one pass


def knot_time(t0: float, t1: float, steps: int, j):
    """Time t0 + j*h/2 of half-step knot j (an int or an int array), h = (t1 - t0)/steps.

    Step s of ``rk4`` starts at knot 2s, so its start is bitwise t0 + s*h.
    """
    return t0 + j * (0.5 * ((t1 - t0) / steps))


def rk4(f, t0: float, t1: float, state, steps: int, by_knot: bool = False):
    """Classical fixed-step RK4 for state' = f(t, state) on [t0, t1].

    The stages of step s sit at the half-step knots 2s, 2s + 1 (twice) and
    2s + 2 (see ``knot_time``); with ``by_knot`` f gets the knot index in
    place of its time, for a right-hand side tabulated at the knots.
    Yields (t, state) after each of the ``steps`` steps.  An overflow inside
    f or a non-finite state raises OverflowError naming t.  The steps run
    inside one ``np.errstate`` that silences numpy's overflow and invalid
    warnings, since the finite-state test reports them; it stays entered
    while the caller holds a step.
    """
    h = (t1 - t0) / steps
    half = 0.5 * h  # knot j sits at t0 + j*half, as in knot_time
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps):
            j = 2 * step
            if by_knot:
                start, mid, end = j, j + 1, j + 2
            else:
                start, mid, end = t0 + j * half, t0 + (j + 1) * half, t0 + (j + 2) * half
            try:
                k1 = f(start, state)
                k2 = f(mid, state + 0.5 * h * k1)
                k3 = f(mid, state + 0.5 * h * k2)
                k4 = f(end, state + h * k3)
            except OverflowError as err:
                t = t0 + j * half
                raise OverflowError(f"{err} in the step from t = {t!r}") from err
            state = state + (h / 6.0) * (k1 + (k2 + k2) + (k3 + k3) + k4)
            t = t0 + (j + 2) * half
            if not all(map(math.isfinite, state.tolist())):
                raise OverflowError(f"non-finite state at t = {t!r}")
            yield t, state


class KnotTable:
    """Curve points and transport coefficients at consecutive knots.

    ``x`` (n, N) and ``y`` (k, N) hold the curve points, lanes last; ``M``
    (N, k, k) and ``c`` (N, k) the coefficients of zdot = M z + c.  A knot
    that fails ends the table: ``error`` is what the knot-by-knot
    computation raises there, and ``point`` and the transport right-hand
    side raise it for that knot on, as that computation would.
    """

    __slots__ = ("x", "y", "M", "c", "error")

    def __init__(self, x, y, M, c, error: Exception | None = None):
        self.x, self.y, self.M, self.c, self.error = x, y, M, c, error

    def point(self, j: int):
        if j < self.x.shape[1]:
            return self.x[:, j].copy(), self.y[:, j].copy()
        raise self.error


def _curve_points(curve: CurveInE, ts):
    """x, y, xdot, ydot at the times ts (lanes last), t seeded in one pass."""
    t = ad.DualBatch(ts, np.ones((1, len(ts))))
    env = {"t": t}
    xs = [ad.lanes(ex.evaluate(e, env), t) for e in curve.comp_x]
    ys = [ad.lanes(ex.evaluate(e, env), t) for e in curve.comp_y]
    return (
        np.array([v.re for v in xs]),
        np.array([v.re for v in ys]),
        np.array([v.eps[0] for v in xs]),
        np.array([v.eps[0] for v in ys]),
    )


def _coefficients(lin, lam, ts, x, y, xd, yd):
    """M and c at the points (x, y) with velocities (xd, yd), y seeded in one pass.

    The same sums as at a single point: -d_gamma xdot by einsum, gamma xdot
    by a stacked matmul, so each lane is bitwise the per-point value.
    """
    sp = lin.space
    inside = sp.compiled_domain
    if inside is not None and not all(map(inside, *x.tolist(), *y.tolist())):
        # names the first knot: a failed batch is redone knot by knot
        raise sp.left_domain("curve", float(ts[0]), [*x[:, 0].tolist(), *y[:, 0].tolist()])
    count = len(ts)
    env = {name: ad.DualBatch(row, np.zeros((sp.k, count))) for name, row in zip(sp.x_names, x)}
    seeds = np.repeat(np.eye(sp.k)[:, :, None], count, axis=2)
    env.update({name: ad.DualBatch(row, seeds[A]) for A, (name, row) in enumerate(zip(sp.y_names, y))})
    gamma = [[ad.lanes(ex.evaluate(g, env), env[sp.y_names[0]]) for g in row] for row in lin.conn.gamma]
    J = np.array([[g.eps for g in row] for row in gamma]).transpose(3, 0, 1, 2)
    xd_lanes = np.ascontiguousarray(xd.T)
    M = -np.einsum("naib,ni->nab", np.ascontiguousarray(J), xd_lanes)
    c = np.zeros((count, sp.k))
    if lam != 0.0:
        G = np.array([[g.re for g in row] for row in gamma]).transpose(2, 0, 1)
        c = lam * (yd.T + (np.ascontiguousarray(G) @ xd_lanes[:, :, None])[:, :, 0])
    return M, c


def transport_coefficients(lin_or_fam, curve: CurveInE, ts) -> KnotTable:
    """Curve points and transport coefficients at the times ts, in one batched pass.

    The curve is evaluated with t seeded, then gamma with y seeded, so the
    values give gamma for the lambda term and the derivatives d_gamma.
    Overflow to inf is as silent as it is for floats; the guards raise what
    the scalar evaluation raises.
    """
    lin, lam = _as_linearization(lin_or_fam)
    ts = np.asarray(ts, dtype=float)
    with np.errstate(all="ignore"):
        try:
            x, y, xd, yd = _curve_points(curve, ts)
            return KnotTable(x, y, *_coefficients(lin, lam, ts, x, y, xd, yd))
        except (ArithmeticError, ValueError):  # domain, overflow and math errors
            pass
        # some knot fails: redo knot by knot up to the first failure, which
        # then carries that knot's own error
        sp = lin.space
        error = None
        xs, ys = [np.zeros((sp.n, 0))], [np.zeros((sp.k, 0))]
        Ms, cs = [np.zeros((0, sp.k, sp.k))], [np.zeros((0, sp.k))]
        for j in range(len(ts)):
            one = ts[j : j + 1]
            try:
                x, y, xd, yd = _curve_points(curve, one)
                xs.append(x)
                ys.append(y)
                M, c = _coefficients(lin, lam, one, x, y, xd, yd)
            except (ArithmeticError, ValueError) as err:
                error = err
                break
            Ms.append(M)
            cs.append(c)
        return KnotTable(
            np.concatenate(xs, axis=1),
            np.concatenate(ys, axis=1),
            np.concatenate(Ms),
            np.concatenate(cs),
            error,
        )


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
    linearization).  The coefficients depend on t only through the curve, so
    they are tabulated at the RK4 knots, BLOCK_STEPS steps per batched pass,
    and each stage is a k x k matvec.  ``record`` > 0 samples about that
    many trajectory knots.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    sp = _as_linearization(lin_or_fam)[0].space
    z = np.asarray(z0, dtype=float).copy()
    if z.shape != (sp.k,):
        raise ValueError(f"z0 must have length {sp.k}")
    tab, lo = None, 0  # the knot table of the current block and its first knot

    def rhs(j, z):
        i = j - lo
        if i >= len(tab.M):
            raise tab.error  # the table ends at a failing knot
        return tab.M[i].dot(z) + tab.c[i]

    stride = max(1, steps // record) if record else 0
    trajectory = []
    stepper = rk4(rhs, curve.t0, curve.t1, z, steps, by_knot=True)
    done = 0
    while done < steps:
        count = min(BLOCK_STEPS, steps - done)
        lo = 2 * done
        ts = knot_time(curve.t0, curve.t1, steps, np.arange(lo, lo + 2 * count + 1))
        tab = transport_coefficients(lin_or_fam, curve, ts)
        if record and not done:
            trajectory.append((curve.t0, *tab.point(0), z))
        for t, z in itertools.islice(stepper, count):
            done += 1
            if record and (done % stride == 0 or done == steps):
                trajectory.append((t, *tab.point(2 * done - lo), z))
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
    n, k = sp.n, sp.k
    inside, field, gamma = sp.compiled_domain, y_field.compiled_components, conn.compiled_gamma

    def f(t, state):
        xy = state.tolist()
        if inside is not None and not inside(*xy):
            raise sp.left_domain("flow", t, xy)
        comps = field(*xy[:n])
        dx = np.array(comps[:n], dtype=float)
        G = np.array(gamma(*xy), dtype=float).reshape(k, n)
        return np.concatenate([dx, -G @ dx + np.array(comps[n:], dtype=float)])

    state = np.concatenate([a.x, a.y])
    for _, state in rk4(f, 0.0, s, state, steps):
        pass
    sp.require_in_domain(state[:n], state[n:], "flow endpoint")
    return FiberPoint(state[:n], state[n:])


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
    n, k = sp.n, sp.k
    inside, field = sp.compiled_domain, y_field.compiled_components
    gamma, kn = conn.compiled_gamma_gradients, sp.k * sp.n

    def f(t, state):
        # the velocity and the Jacobian from one pass over gamma seeded in y
        values = state.tolist()
        xy = values[: n + k]
        if inside is not None and not inside(*xy):
            raise sp.left_domain("flow", t, xy)
        comps = field(*values[:n])
        dx = np.array(comps[:n], dtype=float)
        out = gamma(*xy)
        G = np.array(out[:kn], dtype=float).reshape(k, n)
        J = np.array(out[kn:], dtype=float).reshape(k, n, k)
        dzdot = LinearizedConnection.fiber_velocity(J, state[n + k :], dx)
        return np.concatenate([dx, -G @ dx + np.array(comps[n:], dtype=float), dzdot])

    state = np.concatenate([p.x, p.y, p.z])
    for _, state in rk4(f, 0.0, s, state, steps):
        pass
    end = FiberPoint(state[: sp.n], state[sp.n : sp.n + sp.k])
    sp.require_in_domain(end.x, end.y, "flow endpoint")
    return end, state[sp.n + sp.k :]
