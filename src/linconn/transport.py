"""Parallel transport along curves, flows of hor-basic fields, and the
fiber derivative of a flow computed through the variational equation.

All integrations use the one fixed-step classical RK4 of ``rk4``:
deterministic, and its fourth-order convergence is itself an acceptance
check.  It steps a list of Python floats, and every right-hand side
returns one, with each sum written out in a stated order (``rk4``,
``connection.horizontal_velocity``, ``LinearizedConnection.fiber_velocity``,
``codegen.affine_map``), so no numpy kernel decides a bit of a stage and no
numpy warning can be raised there.  Its step is printed once per state
width (``codegen.rk4_step``), and a flow's stage once per field, connection
and kind (``codegen.flow_stage``): both are straight-line code.  The domain
predicate is enforced at every stage point; the first violation aborts with
the offending parameter value.  Transport along a curve tabulates its
coefficients at the RK4 knots, by one call of the compiled lanes of the
curve and of gamma (``codegen.compile_lanes``), or knot by knot through the
compiled scalar functions.
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

    @cached_property
    def compiled_state(self):
        """``state`` compiled as one function of the float t.

        ``compiled_state(t)`` is the tuple x, y, xdot, ydot of ``state(t)``
        as n + k + n + k floats, bitwise, and raises what ``state`` raises.
        The knot scan of ``transport_coefficients`` and the transport
        checks' curve screen and reference loop call it.
        """
        from .codegen import compile_gradients

        return compile_gradients(self.comp_x + self.comp_y, ("t",), ("t",))

    @cached_property
    def compiled_lanes(self):
        """``compiled_state`` over lanes, compiled on first use.

        ``compiled_lanes(ts)`` is the (2(n + k), N) array x, y, xdot, ydot
        whose column j is ``compiled_state(ts[j])`` (numpy's sin, cos, exp
        and log may differ in the last bit), and raises when any time does
        (``codegen.compile_lanes``).  The batched pass of
        ``transport_coefficients`` and the transport checks' curve screen
        call it.
        """
        from .codegen import compile_lanes

        return compile_lanes(self.comp_x + self.comp_y, ("t",), ("t",))


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

    The state is a list of Python floats (a sequence of floats on entry),
    and f returns one.  Each component takes the stage sums
    ``s + (0.5*h)*k1``, ``s + (0.5*h)*k2``, ``s + h*k3`` and then
    ``s + (h/6)*(k1 + (k2 + k2) + (k3 + k3) + k4)``, in that order, so the
    bits depend on no BLAS kernel.  A step is one call of
    ``codegen.rk4_step``: the four calls of f and these sums, printed once
    per state width with no loop over the components.  The stages of step
    s sit at the half-step knots 2s, 2s + 1 (twice) and 2s + 2 (see
    ``knot_time``); with ``by_knot`` f gets the knot index in place of its
    time, for a right-hand side tabulated at the knots.  Yields (t, state)
    after each of the ``steps`` steps.  An OverflowError inside f is re-raised naming t.
    Float + and * neither warn nor raise, so a state that overflows to inf
    or NaN shows in the finite-state test, which raises OverflowError
    naming t.
    """
    from .codegen import rk4_step

    h = (t1 - t0) / steps
    half = 0.5 * h  # knot j sits at t0 + j*half, as in knot_time
    sixth = h / 6.0
    state = [float(v) for v in state]
    step = rk4_step(len(state))
    for s in range(steps):
        j = 2 * s
        if by_knot:
            start, mid, end = j, j + 1, j + 2
        else:
            start, mid, end = t0 + j * half, t0 + (j + 1) * half, t0 + (j + 2) * half
        try:
            state = step(f, start, mid, end, state, half, h, sixth)
        except OverflowError as err:
            t = t0 + j * half
            raise OverflowError(f"{err} in the step from t = {t!r}") from err
        t = t0 + (j + 2) * half
        if not all(map(math.isfinite, state)):
            raise OverflowError(f"non-finite state at t = {t!r}")
        yield t, state


class KnotTable:
    """Curve points and transport coefficients at consecutive knots.

    ``x`` (n, N) and ``y`` (k, N) hold the curve points, lanes last; ``M``
    (N, k, k) and ``c`` (N, k) the coefficients of zdot = M z + c.  A knot
    that fails ends the table: ``error`` is what the scan of the knots
    raises there, and ``point`` and the transport right-hand side raise it
    for that knot on, as a point-by-point evaluation would.
    """

    __slots__ = ("x", "y", "M", "c", "error")

    def __init__(self, x, y, M, c, error: Exception | None = None):
        self.x, self.y, self.M, self.c, self.error = x, y, M, c, error

    def point(self, j: int):
        if j < self.x.shape[1]:
            return self.x[:, j].copy(), self.y[:, j].copy()
        raise self.error


def _batched_knots(lin, curve: CurveInE, ts):
    """x, y, xdot, ydot (lanes last), gamma and d_gamma (lanes first) at
    the times ts, from one call of the curve's compiled lanes and one of
    gamma's.  A failing knot raises, unnamed."""
    sp = lin.space
    n, k, count = sp.n, sp.k, len(ts)
    P = curve.compiled_lanes(ts)
    inside = sp.compiled_domain
    if inside is not None and not all(map(inside, *P[: n + k].tolist())):
        raise OutOfDomainError("a knot left the domain")
    R = lin.conn.compiled_gamma_lanes(*P[: n + k])
    G = R[: k * n].reshape(k, n, count).transpose(2, 0, 1)
    J = R[k * n :].reshape(k, n, k, count).transpose(3, 0, 1, 2)
    return P[:n], P[n : n + k], P[n + k : 2 * n + k], P[2 * n + k :], G, J


def _scanned_knots(lin, curve: CurveInE, ts):
    """The arrays of ``_batched_knots`` knot by knot, from the compiled curve,
    domain predicate and gamma gradients, up to the first failing knot, and
    that knot's error or None.  It keeps its curve point when it has one."""
    sp = lin.space
    n, k = sp.n, sp.k
    state, inside, gamma = curve.compiled_state, sp.compiled_domain, lin.conn.compiled_gamma_gradients
    points, rows, error = [], [], None
    try:
        for t in ts.tolist():
            points.append(state(t))
            xy = points[-1][: n + k]
            if inside is not None and not inside(*xy):
                raise sp.left_domain("curve", t, list(xy))
            rows.append(gamma(*xy))
    except (ArithmeticError, ValueError) as err:  # domain, overflow and math errors
        error = err
    P = np.array(points, dtype=float).reshape(len(points), 2 * (n + k)).T
    R = np.array(rows, dtype=float).reshape(len(rows), k * n * (1 + k))
    used = len(rows)
    G, J = R[:, : k * n].reshape(used, k, n), R[:, k * n :].reshape(used, k, n, k)
    return (P[:n], P[n : n + k], P[n + k : 2 * n + k, :used], P[2 * n + k :, :used], G, J), error


def transport_coefficients(lin_or_fam, curve: CurveInE, ts) -> KnotTable:
    """Curve points and transport coefficients at the times ts.

    One batched pass over the compiled lanes of the curve and of gamma
    fills the table.  When it fails, or when a tree has an
    exponent whose rule depends on its value (``expr._walk_decides``), the
    knots are scanned one by one instead.  One formula turns the arrays of
    either into M and c: -d_gamma xdot by einsum, gamma xdot by a stacked
    matmul, so each lane is bitwise the per-point value.  Overflow to inf is
    as silent as it is for floats.
    """
    lin, lam = _as_linearization(lin_or_fam)
    ts = np.asarray(ts, dtype=float)
    trees = [*curve.comp_x, *curve.comp_y, *(g for row in lin.conn.gamma for g in row)]
    with np.errstate(all="ignore"):
        knots, error = None, None
        if not any(map(ex._walk_decides, trees)):
            try:
                knots = _batched_knots(lin, curve, ts)
            except (ArithmeticError, ValueError):  # some knot fails: the scan names it
                pass
        if knots is None:
            knots, error = _scanned_knots(lin, curve, ts)
        x, y, xd, yd, G, J = knots
        xd_lanes = np.ascontiguousarray(xd.T)
        M = -np.einsum("naib,ni->nab", np.ascontiguousarray(J), xd_lanes)
        c = np.zeros((len(M), lin.space.k))
        if lam != 0.0:
            c = lam * (yd.T + (np.ascontiguousarray(G) @ xd_lanes[:, :, None])[:, :, 0])
    return KnotTable(x, y, M, c, error)


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
    they are tabulated at the RK4 knots, BLOCK_STEPS steps per table; each
    block turns its table into lists once, and each stage is the printed
    k x k matvec plus c of ``codegen.affine_map`` on floats.  ``record`` > 0
    samples about that many trajectory knots.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    from .codegen import affine_map

    sp = _as_linearization(lin_or_fam)[0].space
    z0 = np.asarray(z0, dtype=float)
    if z0.shape != (sp.k,):
        raise ValueError(f"z0 must have length {sp.k}")
    z = z0.tolist()
    matvec = affine_map(sp.k)
    tab, M, c, lo = None, [], [], 0  # a block's table, its M and c as lists, its first knot

    def rhs(j, z):
        i = j - lo
        if i >= len(M):
            raise tab.error  # the table ends at a failing knot
        return matvec(M[i], z, c[i])

    stride = max(1, steps // record) if record else 0
    trajectory = []
    stepper = rk4(rhs, curve.t0, curve.t1, z, steps, by_knot=True)
    done = 0
    while done < steps:
        count = min(BLOCK_STEPS, steps - done)
        lo = 2 * done
        ts = knot_time(curve.t0, curve.t1, steps, np.arange(lo, lo + 2 * count + 1))
        tab = transport_coefficients(lin_or_fam, curve, ts)
        M, c = tab.M.tolist(), tab.c.tolist()
        if record and not done:
            trajectory.append((curve.t0, *tab.point(0), np.array(z)))
        for t, z in itertools.islice(stepper, count):
            done += 1
            if record and (done % stride == 0 or done == steps):
                trajectory.append((t, *tab.point(2 * done - lo), np.array(z)))
    return TransportResult(np.array(z), tuple(trajectory) if record else None, steps)


def flow(
    conn: NonlinearConnection,
    y_field: HorBasicField,
    a: FiberPoint,
    s: float,
    steps: int,
) -> FiberPoint:
    """Flow of the hor-basic field for time s from a, by RK4.

    Each stage is one call of the field's printed stage
    (``HorBasicField.flow_stage``, ``codegen.flow_stage``): the domain test,
    which raises naming t and the point, the field's X and eta, gamma as
    floats, and ``-gamma X + eta`` in ``horizontal_velocity``'s order.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    sp = conn.space
    n = sp.n
    state = [*a.x.tolist(), *a.y.tolist()]
    for _, state in rk4(y_field.flow_stage(conn), 0.0, s, state, steps):
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
    flow line.  Each stage is one call of the field's printed variational
    stage (``HorBasicField.flow_stage``, ``codegen.flow_stage``): the domain
    test, the field, one forward-mode pass over gamma seeded in y, then
    ``-gamma X + eta`` and ``-d_gamma z X`` in the stated orders of
    ``horizontal_velocity`` and ``LinearizedConnection.fiber_velocity``.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    sp = conn.space
    n, width = sp.n, sp.n + sp.k
    state = [*p.x.tolist(), *p.y.tolist(), *p.z.tolist()]
    for _, state in rk4(y_field.flow_stage(conn, variational=True), 0.0, s, state, steps):
        pass
    sp.require_in_domain(state[:n], state[n:width], "flow endpoint")
    return FiberPoint(state[:n], state[n:width]), np.array(state[width:])
