"""Parallel transport along curves, flows of hor-basic fields, and the
fiber derivative of a flow computed through the variational equation.

Every integration takes the steps of the one fixed-step classical RK4 of
``rk4``: deterministic, and its fourth-order convergence is itself an
acceptance check.  It steps a list of Python floats, and every right-hand
side returns one, with each sum written out in a stated order (``rk4``,
``connection.horizontal_velocity``, ``LinearizedConnection.fiber_velocity``,
``codegen.curve_coefficients``), so no numpy kernel decides a bit of a
stage and no numpy warning can be raised there.  Its step is printed once
per state width (``codegen.rk4_step``) and a flow's stage once per field,
connection and kind (``codegen.flow_stage``).  Transport along a curve is
a linear ODE whose coefficients depend on t only, so it runs rk4's steps,
bitwise, in one printed loop (``codegen.linear_rk4``, once per fiber
dimension and kind) over a table of the curve's printed coefficients
(``codegen.curve_coefficients``, once per curve, connection and lambda),
one entry per knot: a block of knots is tabulated by one numpy pass of the
coefficients' lanes form, whose entries are bitwise the float function's,
and a block where that pass raises calls the float function knot by knot.
rk4's step sums are printed by one helper for both.  All are straight-line
code.  The domain predicate is enforced at every stage point; the first
violation aborts with the offending parameter value.
"""

from __future__ import annotations

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
        The trajectory samples of ``transport_ode`` and the transport
        checks' curve screens and reference loop call it.
        """
        from .codegen import compile_gradients

        return compile_gradients(self.comp_x + self.comp_y, ("t",), ("t",))

    @cached_property
    def _coefficients(self) -> dict:
        return {}

    def _printed(self, lin, lam: float, lanes: bool):
        # cached here, keyed by the connection, lam and the form, so a curve
        # that is dropped drops its functions (a cache in the module would
        # keep every drawn curve alive)
        key = (lin.conn, lam, lanes)
        if key not in self._coefficients:
            from .codegen import curve_coefficients

            self._coefficients[key] = curve_coefficients(lin, self, lam, lanes)
        return self._coefficients[key]

    def transport_coefficients(self, lin, lam: float):
        """The printed coefficients ``g(t)`` of ``transport_ode`` along this
        curve under the linearization lin and lambda lam
        (``codegen.curve_coefficients``); printed on first use.
        """
        return self._printed(lin, lam, False)

    def coefficient_table(self, lin, lam: float, times: np.ndarray):
        """The coefficients at the float array of times from one pass of
        their lanes form (``codegen.curve_coefficients`` with lanes),
        printed on first use: the array [entry, time] whose column j is
        bitwise ``transport_coefficients(lin, lam)(times[j])``.

        None when the pass raises (a time where g raises, or a guard of an
        and/or term that g's short circuit skips) or when the trees have no
        lanes form; the caller then calls g at each time.  numpy's warnings
        are off inside the pass: what g would raise is raised there.
        """
        lanes = self._printed(lin, lam, True)
        if lanes is None:
            return None
        try:
            with np.errstate(all="ignore"):
                return lanes(times)
        except (ArithmeticError, ValueError):
            return None


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


def rk4(f, t0: float, t1: float, state, steps: int):
    """Classical fixed-step RK4 for state' = f(t, state) on [t0, t1].

    The state is a list of Python floats (a sequence of floats on entry),
    and f returns one.  Each component takes the stage sums
    ``s + (0.5*h)*k1``, ``s + (0.5*h)*k2``, ``s + h*k3`` and then
    ``s + (h/6)*(k1 + (k2 + k2) + (k3 + k3) + k4)``, in that order, so the
    bits depend on no BLAS kernel.  A step is one call of
    ``codegen.rk4_step``: the four calls of f and these sums, printed once
    per state width with no loop over the components.  The stages of step
    s sit at the times t0 + j*(h/2) for j = 2s, 2s + 1 (twice) and 2s + 2,
    so a step starts bitwise at t0 + s*h.  Yields (t, state) after each of
    the ``steps`` steps.  An OverflowError inside f is re-raised naming t.
    Float + and * neither warn nor raise, so a state that overflows to inf
    or NaN shows in the finite-state test, which raises OverflowError
    naming t.  Flows and the holonomy lanes step here; ``transport_ode``
    takes the same steps in ``codegen.linear_rk4``.
    """
    from .codegen import rk4_step

    h = (t1 - t0) / steps
    half = 0.5 * h
    sixth = h / 6.0
    state = [float(v) for v in state]
    step = rk4_step(len(state))
    for s in range(steps):
        j = 2 * s
        start, mid, end = t0 + j * half, t0 + (j + 1) * half, t0 + (j + 2) * half
        try:
            state = step(f, start, mid, end, state, half, h, sixth)
        except OverflowError as err:
            raise OverflowError(f"{err} in the step from t = {start!r}") from err
        if not all(map(math.isfinite, state)):
            raise OverflowError(f"non-finite state at t = {end!r}")
        yield end, state


# steps per lanes pass of the coefficients: a table holds at most 1025 knots
_BLOCK_STEPS = 512


class _Knots(dict):
    """A block's coefficients by knot, ``self[i]`` at ``t0 + (jb + i)*half``,
    each from one call of g when the loop first reads it, so g raises at
    the first knot where it fails: the table of a block whose lanes pass
    raised.  start, when given, is knot 0's.

    The loop of ``codegen.linear_rk4`` reads knot i first in the step that
    starts at knot i - 1 for odd i (its midpoint), at i - 2 for even i >= 2
    (its end) and at 0 for knot 0, so an OverflowError of g is re-raised
    naming that step's start, with rk4's message."""

    def __init__(self, g, t0: float, half: float, jb: int, start):
        super().__init__({} if start is None else {0: start})
        self.g, self.t0, self.half, self.jb = g, t0, half, jb

    def __missing__(self, i):
        try:
            value = self[i] = self.g(self.t0 + (self.jb + i) * self.half)
        except OverflowError as err:
            step = i - 1 if i % 2 else max(i - 2, 0)
            raise OverflowError(f"{err} in the step from t = {self.t0 + (self.jb + step) * self.half!r}") from err
        return value


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
    linearization).  The ODE is linear, zdot = M(t) z + c(t), with
    coefficients that depend on t only: the curve's printed coefficients
    (``CurveInE.transport_coefficients``, ``codegen.curve_coefficients``)
    compute the curve, the domain test, which raises naming t and the
    point, gamma and its y-gradient, and M and c in their stated orders.
    The steps are those of ``rk4``, bitwise, run by one printed loop
    (``codegen.linear_rk4``) that reads the coefficients once per knot: at
    each step's midpoint and end, the end serving the next step's start.
    The knots come in blocks of ``_BLOCK_STEPS`` steps, each tabulated by
    one lanes pass (``CurveInE.coefficient_table``) at the times ``t0 +
    j*half`` that the loop names; the next block starts from the last
    knot's coefficients, so every knot is computed once.  A block whose
    pass raises is stepped calling the coefficients at each knot as the
    loop reads it (``_Knots``, which names the step that reads a knot
    where g overflows), so the run raises g's error at g's t, or the
    state's first.  ``record`` > 0 samples t0 and about that many steps,
    with x and y from ``compiled_state``; the loop runs in chunks between
    the samples, and the t0 sample is taken once the first step has
    returned, so a curve that fails at t0 raises the step's error.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    lin, lam = _as_linearization(lin_or_fam)
    n, k = lin.space.n, lin.space.k
    z0 = np.asarray(z0, dtype=float)
    if z0.shape != (k,):
        raise ValueError(f"z0 must have length {k}")
    from .codegen import linear_rk4

    run = linear_rk4(k, lam != 0.0)
    t0 = curve.t0
    h = (curve.t1 - t0) / steps
    half, sixth = 0.5 * h, h / 6.0

    def block(base: int, start):
        """The coefficients of the knots from 2*base to the block's end;
        start is knot 2*base's when an earlier block computed it."""
        last = min(base + _BLOCK_STEPS, steps)
        j0 = 2 * base + (start is not None)
        table = curve.coefficient_table(lin, lam, t0 + np.arange(j0, 2 * last + 1) * half)
        if table is None:
            return _Knots(curve.transport_coefficients(lin, lam), t0, half, 2 * base, start)
        knots = table.T.tolist()
        return knots if start is None else [start, *knots]

    def sample(t, z):
        values = curve.compiled_state(t)
        return t, np.array(values[:n]), np.array(values[n : n + k]), np.array(z)

    ends = {*range(_BLOCK_STEPS, steps, _BLOCK_STEPS), steps}
    if record:
        stride = max(1, steps // record)
        ends |= {1, *range(stride, steps, stride)}
    z = z0.tolist()
    trajectory = []
    done = base = 0
    knots = None
    for end in sorted(ends):
        if done % _BLOCK_STEPS == 0:
            knots = block(done, None if knots is None else knots[2 * (done - base)])
            base = done
        z = run(knots, base, t0, half, h, sixth, done, end, z)
        if record and done == 0:
            # after the first step, which has evaluated the curve at t0 and
            # raised naming the step if it fails there
            trajectory.append(sample(t0, z0))
        done = end
        if record and (done % stride == 0 or done == steps):
            trajectory.append(sample(t0 + (2 * done) * half, z))
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
