"""The runnable invariant suite behind the ``check`` command.

Every check draws seeded random data, evaluates one family of identities,
and reports its worst absolute error against a fixed tolerance.  Exact slot
identities are held to 1e-12, cross-formula identities to the command
tolerance (default 1e-7), and integrator or oracle comparisons to the
looser bounds their error analysis supports.

Most checks are written as one draw, ``draw(spec, rng) -> error``, and
``_each_draw`` makes each into a check; ``_worst_draw`` is the one loop
that takes the worst of their draws and owns the drop policy.  Two checks
aggregate across draws themselves: ``transport.order`` (a median) and
``linearize.flatness`` (one report).  ``transport.linearity`` reuses one
curve for every draw and ``linearize.lambda_family`` adds a property of
all draws together; both call ``_worst_draw`` directly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import ad
from . import expr as ex
from .connection import HorBasicField, SectionAlongPi, bracket_env, kappa_section
from .geom import (
    FiberPoint,
    OutOfDomainError,
    PullbackPoint,
    SecondTangent,
    TangentE,
    TangentPullback,
    canonical_involution,
    tangent_add,
    tangent_of_projection,
    tangent_of_vertical_lift,
    tangent_of_vertical_project,
    tangent_scale,
    tau_add,
    tau_scale,
    tau_zero,
    tpi_image,
    tpi_vertical_lift,
    tpi_vertical_project,
    taue_vertical_lift,
    vertical_lift,
    vertical_project,
)
from .linearize import (
    BASIC_VERDICT_TOL,
    LambdaFamilyMember,
    LinearizedConnection,
    _mx,
    fiber_derivative_of_field,
)
from .sampling import (
    BOX,
    random_field,
    random_hor_basic,
    random_polynomial,
    random_section,
    sample_in_domain,
    sample_pullback,
    sample_tangent,
)
from .specfile import SpecFile
from .transport import (
    CurveInE,
    fiber_derivative_flow,
    flow,
    rk4,
    transport_ode,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # pass | fail | skip
    max_error: float
    samples: int
    seed: int
    tolerance: float


@dataclass(frozen=True)
class Report:
    checks: tuple
    seed: int
    samples: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)


class _Skip(Exception):
    pass


# what an integration along a draw raises when it leaves the domain or diverges
_DIVERGED = (OutOfDomainError, ex.DomainError, OverflowError)


def _worst_draw(samples, measure, drop=_DIVERGED):
    """The worst error of ``samples`` calls of measure(), one draw each, and
    the draws used.  A draw that raises one of ``drop`` is dropped (by
    default one whose integration leaves the domain or diverges); any other
    error ends the check and the suite.  With no draw used the check
    skips."""
    worst = 0.0
    used = 0
    for _ in range(samples):
        try:
            err = measure()
        except drop:
            continue
        used += 1
        worst = max(worst, err)
    if used == 0:
        raise _Skip
    return worst, used


def _each_draw(drop=_DIVERGED):
    """Decorator: ``draw(spec, rng) -> error`` becomes the check
    ``check(spec, rng, samples) -> (worst, used)`` over ``samples`` draws,
    through ``_worst_draw`` with its drop policy.  A pointwise check passes
    ``drop=()``, so its domain or numeric error ends the suite."""

    def wrap(draw):
        @functools.wraps(draw)
        def check(spec, rng, samples):
            return _worst_draw(samples, lambda: draw(spec, rng), drop)

        return check

    return wrap


@dataclass(frozen=True)
class _Shown:
    """What a verdict-carrying check reports in place of its status error."""

    label: str
    max_error: float
    tolerance: float


def _rel(err: float, scale: float) -> float:
    """err / (1 + scale), or inf if either part is not finite.

    inf/inf would be nan, and max(worst, nan) keeps worst: a silent pass.
    """
    if not (math.isfinite(err) and math.isfinite(scale)):
        return math.inf
    return err / (1.0 + scale)


ORACLE_TOLERANCE = 1e-5  # curvature against the holonomy oracle


def _st(rng, n, k) -> SecondTangent:
    """A second tangent with uniform slots in the box: one draw of 4(n + k)
    values cut into the eight slots, the random stream of eight draws of
    n or k values in slot order."""
    flat = rng.uniform(-BOX, BOX, 4 * (n + k))
    slots, at = [], 0
    for size in (n, k) * 4:
        slots.append(flat[at : at + size])
        at += size
    return SecondTangent(*slots)


def _mx_diff(*pairs) -> float:
    """``_mx(a - b, ...)`` over the equal-length vector pairs (a, b),
    subtracting Python floats slot by slot; a float64 subtraction gives the
    same bits as numpy's."""
    worst = 0.0
    for a, b in pairs:
        for p, q in zip(a.tolist(), b.tolist(), strict=True):
            d = abs(p - q)
            if not math.isfinite(d):
                return math.inf
            if d > worst:
                worst = d
    return worst


def _teq(u: TangentE, v: TangentE) -> float:
    return _mx_diff((u.at.x, v.at.x), (u.at.y, v.at.y), (u.dx, v.dx), (u.dy, v.dy))


def _steq(u: SecondTangent, v: SecondTangent) -> float:
    return _mx_diff(
        (u.x, v.x), (u.y, v.y), (u.dx, v.dx), (u.dy, v.dy),
        (u.delta_x, v.delta_x), (u.delta_y, v.delta_y),
        (u.delta_dx, v.delta_dx), (u.delta_dy, v.delta_dy),
    )


def _share_base(v: SecondTangent, like: SecondTangent) -> SecondTangent:
    """v with its foot slots replaced by those of ``like``."""
    return SecondTangent(
        like.x, like.y, like.dx, like.dy,
        v.delta_x, v.delta_y, v.delta_dx, v.delta_dy,
    )


def _share_tau(v: SecondTangent, like: SecondTangent) -> SecondTangent:
    """v with its (x, dx) slots replaced by those of ``like``."""
    return SecondTangent(
        like.x, v.y, like.dx, v.dy,
        v.delta_x, v.delta_y, v.delta_dx, v.delta_dy,
    )


def _well_inside(sp, xy: list) -> bool:
    """Point plus its bumps by 0.3 along each coordinate satisfy the domain
    predicate.

    xy holds the floats x1..xn, y1..yk.  Keeps sampled curves away from the
    domain boundary, where connection coefficients may stop being smooth and
    integrator error constants blow up.
    """
    inside = sp.compiled_domain
    if inside is None:
        return True
    if not inside(*xy):
        return False
    # the fiber coordinates first, then the base
    for j in [*range(sp.n, sp.n + sp.k), *range(sp.n)]:
        for sign in (1.0, -1.0):
            bump = xy.copy()
            bump[j] += sign * 0.3
            if not inside(*bump):
                return False
    return True


def _segment(p, q) -> tuple:
    return tuple(
        ex.add(ex.lit(pa), ex.mul(ex.lit(qa - pa), ex.var("t"))) for pa, qa in zip(p, q)
    )


def _line_curve(spec: SpecFile, rng, vertical: bool = False) -> CurveInE:
    """A straight-line curve staying well inside the domain at 65 knots.

    A vertical curve keeps the base point of its first endpoint fixed.  The
    knots come from the curve's compiled state.
    """
    sp = spec.space
    width = sp.n + sp.k
    for _ in range(64):
        a = sample_in_domain(sp, rng)
        b = sample_in_domain(sp, rng)
        xs = tuple(ex.lit(xa) for xa in a.x) if vertical else _segment(a.x, b.x)
        curve = CurveInE(xs, _segment(a.y, b.y), 0.0, 1.0)
        if sp.domain is None:
            return curve
        state = curve.compiled_state
        if all(_well_inside(sp, list(state(t)[:width])) for t in np.linspace(0.0, 1.0, 65).tolist()):
            return curve
    raise _Skip


def _in_domain_flow(spec, rng, measure):
    """measure(y, p, s) for a hor-basic field, pullback start point and time.

    A draw whose measurement fails because its own flows leave the domain
    or overflow is replaced by a new one, 64 draws in all; the last draw's
    error then propagates, and ``_worst_draw`` drops the sample.
    """
    for _ in range(64):
        p = sample_pullback(spec.space, rng)
        y = random_hor_basic(rng, spec.space)
        s = float(rng.uniform(0.2, 0.5))
        try:
            return measure(y, p, s)
        except _DIVERGED as err:
            error = err
    raise error


# ---------------------------------------------------------------------------
# Structure suite (exact slot identities)


@_each_draw(drop=())
def _check_interchange(spec, rng):
    n, k = spec.space.n, spec.space.k
    x = rng.uniform(-BOX, BOX, n)
    dxs = rng.uniform(-BOX, BOX, (2, n))
    ys = rng.uniform(-BOX, BOX, (2, k))
    w = {
        (r, c): TangentE(FiberPoint(x, ys[r]), dxs[c], rng.uniform(-BOX, BOX, k))
        for r in range(2)
        for c in range(2)
    }
    lhs = tau_add(tangent_add(w[0, 0], w[0, 1]), tangent_add(w[1, 0], w[1, 1]))
    rhs = tangent_add(tau_add(w[0, 0], w[1, 0]), tau_add(w[0, 1], w[1, 1]))
    # the same law on second tangents with the slotwise operations
    s1 = _st(rng, n, k)
    s2 = _share_base(_st(rng, n, k), s1)
    s3 = _share_tau(_st(rng, n, k), s1)
    s4 = _share_base(_st(rng, n, k), s3)
    lhs2 = tau_add(tangent_add(s1, s2), tangent_add(s3, s4))
    rhs2 = tangent_add(tau_add(s1, s3), tau_add(s2, s4))
    return max(_teq(lhs, rhs), _steq(lhs2, rhs2))


@_each_draw(drop=())
def _check_tau_ops(spec, rng):
    n, k = spec.space.n, spec.space.k
    v = _st(rng, n, k)
    w = _share_tau(_st(rng, n, k), v)
    sx, sdx = tpi_image(tau_add(v, w))
    # vertical projection over the tangent base: homogeneity both ways
    x = rng.uniform(-BOX, BOX, n)
    dx = rng.uniform(-BOX, BOX, n)
    u1 = TangentE(FiberPoint(x, rng.uniform(-BOX, BOX, k)), dx, rng.uniform(-BOX, BOX, k))
    u2 = TangentE(FiberPoint(x, rng.uniform(-BOX, BOX, k)), dx, rng.uniform(-BOX, BOX, k))
    big = tpi_vertical_lift(u1, u2)
    lam = float(rng.uniform(-2, 2))
    return max(
        _steq(tau_add(v, tau_zero(v)), v),
        _mx(sx - v.x, sdx - v.dx),
        _teq(tpi_vertical_project(tau_scale(lam, big)), tangent_scale(lam, tpi_vertical_project(big))),
        _teq(tpi_vertical_project(tangent_scale(lam, big)), tau_scale(lam, tpi_vertical_project(big))),
    )


@_each_draw(drop=())
def _check_involution(spec, rng):
    n, k = spec.space.n, spec.space.k
    v = _st(rng, n, k)
    # exchanges verticality over the two structures
    zn = np.zeros(n)
    img = canonical_involution(SecondTangent(v.x, v.y, v.dx, v.dy, zn, v.delta_y, zn, v.delta_dy))
    return max(
        _steq(canonical_involution(canonical_involution(v)), v),
        _teq(canonical_involution(v).base_tangent(), tangent_of_projection(v)),
        _mx(img.dx, img.delta_dx),
    )


@_each_draw(drop=())
def _check_vertical_roundtrip(spec, rng):
    n, k = spec.space.n, spec.space.k
    a = FiberPoint(rng.uniform(-BOX, BOX, n), rng.uniform(-BOX, BOX, k))
    b = rng.uniform(-BOX, BOX, k)
    c = rng.uniform(-BOX, BOX, k)
    al, be = rng.uniform(-2, 2, 2)
    combo = vertical_project(
        tangent_add(
            tangent_scale(al, vertical_lift(a, b)),
            tangent_scale(be, vertical_lift(a, c)),
        )
    )
    # round trips of the lifted structures
    x = rng.uniform(-BOX, BOX, n)
    dx = rng.uniform(-BOX, BOX, n)
    u = TangentE(FiberPoint(x, rng.uniform(-BOX, BOX, k)), dx, rng.uniform(-BOX, BOX, k))
    w = TangentE(FiberPoint(x, rng.uniform(-BOX, BOX, k)), dx, rng.uniform(-BOX, BOX, k))
    return max(
        _mx(vertical_project(vertical_lift(a, b)) - b),
        _mx(combo - (al * b + be * c)),
        _teq(tpi_vertical_project(tpi_vertical_lift(u, w)), w),
    )


@_each_draw(drop=())
def _check_projection_tangents(spec, rng):
    n, k = spec.space.n, spec.space.k
    x = rng.uniform(-BOX, BOX, n)
    dx = rng.uniform(-BOX, BOX, n)
    v = TangentE(FiberPoint(x, rng.uniform(-BOX, BOX, k)), dx, rng.uniform(-BOX, BOX, k))
    w = TangentE(FiberPoint(x, rng.uniform(-BOX, BOX, k)), dx, rng.uniform(-BOX, BOX, k))
    big = tpi_vertical_lift(v, w)
    # (1) foot of the vertical projection = vertical projection of the foot map tangent
    lhs = tpi_vertical_project(big).at
    rhs_t = tangent_of_projection(big)
    rhs_y = vertical_project(rhs_t)
    # (3) tangent of the vertical projection on pairs of verticals
    a = FiberPoint(x, rng.uniform(-BOX, BOX, k))
    vv = vertical_lift(a, rng.uniform(-BOX, BOX, k))
    ww = vertical_lift(a, rng.uniform(-BOX, BOX, k))
    lhs3 = tangent_of_vertical_project(taue_vertical_lift(vv, ww))
    rhs3 = vertical_lift(FiberPoint(a.x, vv.dy), ww.dy)
    return max(
        _mx(lhs.x - rhs_t.at.x, lhs.y - rhs_y),
        # (2) foot-map tangent of the lift is the vertical lift of the feet
        _teq(tangent_of_projection(big), vertical_lift(v.at, w.at.y)),
        _teq(lhs3, rhs3),
    )


@_each_draw(drop=())
def _check_involution_vs_lifts(spec, rng):
    n, k = spec.space.n, spec.space.k
    x = rng.uniform(-BOX, BOX, n)
    y, z = rng.uniform(-BOX, BOX, (2, k))
    p = PullbackPoint(x, y, z)
    dx = rng.uniform(-BOX, BOX, n)
    w1 = TangentE(p.a, dx, rng.uniform(-BOX, BOX, k))
    w2 = TangentE(p.b, dx, rng.uniform(-BOX, BOX, k))
    t = TangentPullback(p, w1, w2)
    big = tpi_vertical_lift(w1, w2)
    img = canonical_involution(big)
    return max(
        # (1) lift over the tangent base = involution of the tangent of the lift
        _steq(canonical_involution(tangent_of_vertical_lift(t)), big),
        # (2) projection factors through the involution
        _teq(tangent_of_vertical_project(img), tpi_vertical_project(big)),
        # (3) the involution maps one vertical bundle onto the other
        _mx(img.dx, img.delta_dx),
    )


# ---------------------------------------------------------------------------
# Connection


@_each_draw(drop=())
def _check_splitting(spec, rng):
    conn = spec.conn
    a = sample_in_domain(spec.space, rng)
    v = rng.uniform(-BOX, BOX, spec.space.n)
    h = conn.horizontal_lift(a, v)
    w = sample_tangent(rng, a)
    ph = conn.project_h(w)
    pv = conn.project_v(w)
    return max(
        _mx(h.dx - v, conn.connector(h)),
        _teq(tangent_add(ph, pv), w),
        _teq(conn.project_h(ph), ph),
        _teq(pv, vertical_lift(a, conn.connector(w))),
        _mx(conn.connector(vertical_lift(a, w.dy)) - w.dy),
    )


@_each_draw(drop=())
def _check_curvature_algebra(spec, rng):
    conn = spec.conn
    sp = spec.space
    a = sample_in_domain(sp, rng)
    v1 = rng.uniform(-BOX, BOX, sp.n)
    v2 = rng.uniform(-BOX, BOX, sp.n)
    # r11 and antisym read exactly 0 for finite gamma: connection.curvature_sum
    # sums over i < j with weights that exchanging v1 and v2 negates exactly;
    # the bilinearity term is what measures rounding here
    r11 = conn.curvature(a, v1, v1)
    r12 = conn.curvature(a, v1, v2)
    antisym = _mx(r12 + conn.curvature(a, v2, v1))
    al, be = rng.uniform(-2, 2, 2)
    lhs = conn.curvature(a, al * v1 + be * v2, v2)
    rhs = al * r12 + be * conn.curvature(a, v2, v2)
    return max(_mx(r11), antisym, _rel(_mx(lhs - rhs), _mx(rhs)))


@_each_draw()
def _check_curvature_oracle(spec, rng):
    conn = spec.conn
    sp = spec.space
    if sp.n < 2:
        raise _Skip  # no two-forms on a one-dimensional base
    # unit coordinate rectangles around a point away from the boundary
    a = sample_in_domain(sp, rng)
    i, j = rng.choice(sp.n, size=2, replace=False)
    v1 = np.zeros(sp.n)
    v2 = np.zeros(sp.n)
    v1[i] = 1.0
    v2[j] = 1.0
    ref = conn.holonomy_curvature(a, v1, v2)
    return _rel(_mx(conn.curvature(a, v1, v2) - ref), _mx(ref))


# ---------------------------------------------------------------------------
# Linearization


@_each_draw(drop=())
def _check_definition_equivalence(spec, rng):
    lin = LinearizedConnection(spec.conn)
    p = sample_pullback(spec.space, rng)
    w = sample_tangent(rng, p.a)
    got = lin.apply(p, w)
    ref = lin.apply_by_limit(p, w)
    return _rel(_teq(got, ref), _mx(ref.dy))


@_each_draw(drop=())
def _check_linearity(spec, rng):
    lin = LinearizedConnection(spec.conn)
    sp = spec.space
    p = sample_pullback(sp, rng)
    w1 = sample_tangent(rng, p.a)
    w2 = sample_tangent(rng, p.a)
    al, be = rng.uniform(-2, 2, 2)
    combo = lin.apply(p, tangent_add(tangent_scale(al, w1), tangent_scale(be, w2)))
    split = tangent_add(tangent_scale(al, lin.apply(p, w1)), tangent_scale(be, lin.apply(p, w2)))
    # vanishing on verticals is exact
    out = lin.apply(p, vertical_lift(p.a, rng.uniform(-BOX, BOX, sp.k)))
    # additivity and homogeneity in the second leg, in the tau structure
    z2 = rng.uniform(-BOX, BOX, sp.k)
    lhs = lin.apply(PullbackPoint(p.x, p.y, p.z + z2), w1)
    rhs = tau_add(lin.apply(p, w1), lin.apply(PullbackPoint(p.x, p.y, z2), w1))
    lam = float(rng.uniform(-2, 2))
    scaled = lin.apply(PullbackPoint(p.x, p.y, lam * p.z), w1)
    return max(
        _rel(_teq(combo, split), _mx(split.dy)),
        _mx(out.dx, out.dy),
        _rel(_teq(lhs, rhs), _mx(lhs.dy)),
        _rel(_teq(scaled, tau_scale(lam, lin.apply(p, w1))), _mx(lhs.dy)),
    )


@_each_draw(drop=())
def _check_basis_pfaff(spec, rng):
    lin = LinearizedConnection(spec.conn)
    sp = spec.space
    p = sample_pullback(sp, rng)
    J = lin.fiber_jacobian(p.a)
    # the lifts of the vertical basis vanish; the Pfaff form kills every lift
    vert = [lin.lift(p, vertical_lift(p.a, e)).w2 for e in np.eye(sp.k)]
    t = lin.lift(p, sample_tangent(rng, p.a))
    pfaff = t.w2.dy + np.einsum("aib,b,i->a", J, p.z, t.w.dx)
    return _mx(*(s for u in vert for s in (u.dx, u.dy)), pfaff)


def _check_lambda_family(spec, rng, samples):
    lin = LinearizedConnection(spec.conn)
    sp = spec.space
    fam0, fam1 = LambdaFamilyMember(spec.conn, 0.0), LambdaFamilyMember(spec.conn, 1.0)
    nonzero_seen = 0.0

    def draw():
        nonlocal nonzero_seen
        p = sample_pullback(sp, rng)
        w = sample_tangent(rng, p.a)
        err = _teq(fam0.apply(p, w), lin.apply(p, w))
        fam = LambdaFamilyMember(spec.conn, float(rng.uniform(-2, 2)))
        z2 = rng.uniform(-BOX, BOX, sp.k)
        lhs = fam.apply(PullbackPoint(p.x, p.y, p.z + z2), w)
        rhs = tau_add(fam.apply(p, w), lin.apply(PullbackPoint(p.x, p.y, z2), w))
        # only the lam = 0 member kills verticals
        out = fam1.apply(p, vertical_lift(p.a, rng.uniform(-BOX, BOX, sp.k)))
        nonzero_seen = max(nonzero_seen, _mx(out.dy))
        return max(err, _rel(_teq(lhs, rhs), _mx(lhs.dy)))

    worst, used = _worst_draw(samples, draw, drop=())
    if nonzero_seen == 0.0:
        worst = max(worst, 1.0)
    return worst, used


@_each_draw(drop=())
def _check_pullback_connector(spec, rng):
    lin = LinearizedConnection(spec.conn)
    sp = spec.space
    p = sample_pullback(sp, rng)
    w = sample_tangent(rng, p.a)
    c = rng.uniform(-BOX, BOX, sp.k)
    t = TangentPullback(p, TangentE(p.a, np.zeros(sp.n), np.zeros(sp.k)), vertical_lift(p.b, c))
    return max(_mx(lin.connector(lin.lift(p, w))), _mx(lin.connector(t) - c))


@_each_draw(drop=())
def _check_covariant_cross(spec, rng):
    lin = LinearizedConnection(spec.conn)
    sp = spec.space
    a = sample_in_domain(sp, rng)
    sigma = random_section(rng, sp)
    w_field = random_field(rng, sp)
    direct = lin.covariant_derivative(sigma, w_field.at(sp, a))
    return _mx(direct - lin.covariant_derivative_bracket(sigma, w_field, a))


@_each_draw(drop=())
def _check_lie_vs_covariant(spec, rng):
    lin = LinearizedConnection(spec.conn)
    sp = spec.space
    a = sample_in_domain(sp, rng)
    sigma = random_section(rng, sp)
    y_field = random_field(rng, sp, projectable=True)
    lie = lin.lie_derivation(y_field, sigma, a)
    dy_sigma = lin.covariant_derivative(sigma, y_field.at(sp, a))
    correction = lin.covariant_derivative(
        kappa_section(spec.conn, y_field), vertical_lift(a, sigma.at(sp, a))
    )
    return _mx(lie - (dy_sigma - correction))


def _derivation_env(sp, y_field, sigma_comps, env):
    """Flow-derivation components of a section along a projectable field."""
    names = sp.x_names + sp.y_names
    m = sp.n + sp.k
    yv = [ex.evaluate(y_field.component(b), env) for b in range(m)]
    out = []
    for A in range(sp.k):
        grads = ad.partials_in(sigma_comps[A], env, names)
        s = 0.0
        for b in range(m):
            s = s + yv[b] * grads[b]
        for B in range(sp.k):
            d_y = ad.partial_in(y_field.comp_y[A], env, {sp.y_names[B]: 1.0})
            s = s - ex.evaluate(sigma_comps[B], env) * d_y
        out.append(s)
    return out


def _derivation_of_numeric(sp, y_field, tau_fn, a):
    """Outer flow-derivation of a numeric section function at a point."""
    env0 = sp.point_env(a.x, a.y)
    w = y_field.at(sp, a)
    names = sp.x_names + sp.y_names
    direction = dict(zip(names, np.concatenate([w.dx, w.dy])))
    lifted = ad.lift_env(env0, direction)
    tau_l = tau_fn(lifted)
    tau_0 = [ad.real_part(t) for t in tau_l]
    out = np.empty(sp.k)
    for A in range(sp.k):
        s = ad.dual_part(tau_l[A])
        for B in range(sp.k):
            d_y = ad.partial_in(y_field.comp_y[A], env0, {sp.y_names[B]: 1.0})
            s -= tau_0[B] * d_y
        out[A] = s
    return out



@_each_draw(drop=())
def _check_lie_commutator(spec, rng):
    lin = LinearizedConnection(spec.conn)
    sp = spec.space
    names = sp.x_names + sp.y_names
    a = sample_in_domain(sp, rng)
    y1 = random_field(rng, sp, projectable=True)
    y2 = random_field(rng, sp, projectable=True)
    sigma = random_section(rng, sp)
    env0 = sp.point_env(a.x, a.y)
    # sanity: the env form matches the bracket form of the derivation
    plain = np.array([ad.real_part(v) for v in _derivation_env(sp, y1, sigma.comp, env0)])
    sanity = _mx(plain - lin.lie_derivation(y1, sigma, a))
    # commutator of derivations
    lhs = _derivation_of_numeric(
        sp, y1, lambda env: _derivation_env(sp, y2, sigma.comp, env), a
    ) - _derivation_of_numeric(
        sp, y2, lambda env: _derivation_env(sp, y1, sigma.comp, env), a
    )
    # derivation along the bracket field
    comps0 = [ad.real_part(v) for v in bracket_env(sp, y1, y2, env0)]
    lifted = ad.lift_env(env0, dict(zip(names, comps0)))
    sig_l = [ex.evaluate(c, lifted) for c in sigma.comp]
    sig_0 = sigma.at(sp, a)
    # fiber components of the bracket over env0 lifted along each y^B
    br_y = [
        bracket_env(sp, y1, y2, ad.lift_env(env0, {yname: 1.0}))[sp.n :] for yname in sp.y_names
    ]
    rhs = np.empty(sp.k)
    for A in range(sp.k):
        s = ad.dual_part(sig_l[A])
        for B in range(sp.k):
            s -= sig_0[B] * ad.dual_part(br_y[B][A])
        rhs[A] = s
    return max(sanity, _mx(lhs - rhs))


@_each_draw(drop=())
def _check_curvature_cross(spec, rng):
    lin = LinearizedConnection(spec.conn)
    sp = spec.space
    a = sample_in_domain(sp, rng)
    y1 = random_hor_basic(rng, sp)
    y2 = random_hor_basic(rng, sp)
    sigma = random_section(rng, sp)
    closed = lin.curvature(y1, y2, sigma, a)
    comm = lin.curvature_commutator(y1, y2, sigma, a)
    return max(_mx(closed - comm), _mx(comm + lin.curvature_commutator(y2, y1, sigma, a)))


@_each_draw(drop=())
def _check_curvature_special(spec, rng):
    lin = LinearizedConnection(spec.conn)
    sp = spec.space
    zero_x = tuple(ex.lit(0.0) for _ in range(sp.n))
    zero_y = tuple(ex.lit(0.0) for _ in range(sp.k))
    a = sample_in_domain(sp, rng)
    sigma = random_section(rng, sp)
    eta1 = tuple(random_polynomial(rng, sp.x_names) for _ in range(sp.k))
    eta2 = tuple(random_polynomial(rng, sp.x_names) for _ in range(sp.k))
    vv = lin.curvature(HorBasicField(zero_x, eta1), HorBasicField(zero_x, eta2), sigma, a)
    v1 = rng.uniform(-BOX, BOX, sp.n)
    v2 = rng.uniform(-BOX, BOX, sp.n)
    y1 = HorBasicField(tuple(ex.lit(c) for c in v1), zero_y)
    y2 = HorBasicField(tuple(ex.lit(c) for c in v2), zero_y)
    return max(
        _mx(vv),
        _mx(lin.riemann(v1, v2, sigma, a) - lin.curvature(y1, y2, sigma, a)),
        _mx(lin.berwald(eta1, y2, sigma, a) - lin.curvature(HorBasicField(zero_x, eta1), y2, sigma, a)),
    )


@_each_draw(drop=())
def _check_curvature_tensorial(spec, rng):
    lin = LinearizedConnection(spec.conn)
    sp = spec.space
    a = sample_in_domain(sp, rng)
    y1 = random_hor_basic(rng, sp)
    y2 = random_hor_basic(rng, sp)
    sigma = random_section(rng, sp)
    f = random_polynomial(rng, sp.x_names + sp.y_names)
    scaled = SectionAlongPi(tuple(ex.mul(f, c) for c in sigma.comp))
    f_a = ad.real_part(ex.evaluate(f, sp.point_env(a.x, a.y)))
    lhs = lin.curvature(y1, y2, scaled, a)
    rhs = f_a * lin.curvature(y1, y2, sigma, a)
    return _rel(_mx(lhs - rhs), _mx(rhs))


@_each_draw(drop=())
def _check_field_fiber_derivative(spec, rng):
    lin = LinearizedConnection(spec.conn)
    p = sample_pullback(spec.space, rng)
    y = random_hor_basic(rng, spec.space)
    got = fiber_derivative_of_field(spec.conn, y, p)
    ref = lin.lift(p, y.at(spec.conn, p.a)).w2
    return _rel(_teq(got, ref), _mx(ref.dy))


def _check_flatness(spec, rng, samples):
    lin = LinearizedConnection(spec.conn)
    report = lin.flatness_report(samples=samples, seed=int(rng.integers(2**31)))
    # the status reflects the consistency of the two flatness criteria; the
    # row shows the verdict and the sampled curvature behind it
    err = 0.0 if report.equivalence_consistent else 1.0
    return err, report.samples, _Shown(report.verdict, report.max_curvature, BASIC_VERDICT_TOL)


# ---------------------------------------------------------------------------
# Transport


def _check_transport_linearity(spec, rng, samples):
    lin = LinearizedConnection(spec.conn)
    sp = spec.space
    curve = _line_curve(spec, rng)

    def measure():
        z1 = rng.uniform(-BOX, BOX, sp.k)
        z2 = rng.uniform(-BOX, BOX, sp.k)
        al, be = rng.uniform(-2, 2, 2)
        t1 = transport_ode(lin, curve, z1, 200).z_final
        t2 = transport_ode(lin, curve, z2, 200).z_final
        t12 = transport_ode(lin, curve, al * z1 + be * z2, 200).z_final
        return _rel(_mx(t12 - (al * t1 + be * t2)), _mx(t12))

    return _worst_draw(samples, measure)


@_each_draw()
def _check_transport_reversibility(spec, rng):
    lin = LinearizedConnection(spec.conn)
    curve = _line_curve(spec, rng)
    back = CurveInE(curve.comp_x, curve.comp_y, curve.t1, curve.t0)
    z0 = rng.uniform(-BOX, BOX, spec.space.k)
    fwd = transport_ode(lin, curve, z0, 1000).z_final
    return _mx(transport_ode(lin, back, fwd, 1000).z_final - z0)


@_each_draw()
def _check_transport_vertical(spec, rng):
    lin = LinearizedConnection(spec.conn)
    curve = _line_curve(spec, rng, vertical=True)
    z0 = rng.uniform(-BOX, BOX, spec.space.k)
    return _mx(transport_ode(lin, curve, z0, 64).z_final - z0)


def _transport_matrices(lin, curve, knots: int):
    """The transport matrices M at ``knots`` evenly spaced t, as an array
    [t, A, B], read from the curve's printed coefficients: ``g(t)`` is M
    row by row.  One lanes pass (``CurveInE.coefficient_table``) computes
    them all; where it raises, g is called at each t and raises what g
    raises."""
    k, times = lin.space.k, np.linspace(curve.t0, curve.t1, knots)
    table = curve.coefficient_table(lin, 0.0, times)
    if table is not None:
        return table.T.reshape(knots, k, k)
    g = curve.transport_coefficients(lin, 0.0)
    return np.array([g(t) for t in times.tolist()]).reshape(knots, k, k)


def _order_measurable(lin, curve) -> bool:
    """A-priori screen for the fourth-order convergence measurement.

    The observed error ratio approaches 16 only once the coarse step
    resolves the transport matrix, so the measurement is restricted to
    curves whose matrix is moderate in size (amp) and in scaled fourth
    difference (wiggle; rules out curves passing near points where the
    coefficients lose smoothness, e.g. the puncture of a slit domain).
    The screen uses only the right-hand side, never the convergence outcome;
    a curve on which it fails (off the domain, an overflow or a math error)
    is not measurable.
    """
    knots, amp, wiggle = 257, 8.0, 1e4
    try:
        mats = _transport_matrices(lin, curve, knots)
    except (ArithmeticError, ValueError):
        return False
    h = (curve.t1 - curve.t0) / (knots - 1)
    peak = np.abs(mats).max(initial=0.0)
    d4 = np.abs(np.diff(mats, n=4, axis=0)).max(initial=0.0) / h**4
    return peak <= amp and d4 / (1.0 + peak) <= wiggle


def _check_transport_order(spec, rng, samples):
    """Median convergence ratio under step halving lies in the order-4 band.

    Per-draw ratios can exceed the band when the leading error coefficient
    happens to be small for that curve (the next order then dominates), so
    the verdict aggregates over draws; a wrong-order integrator shifts every
    draw and therefore the median.
    """
    lin = LinearizedConnection(spec.conn)
    sp = spec.space
    ratios = []
    for _ in range(samples):
        curve = _line_curve(spec, rng)
        if not _order_measurable(lin, curve):
            continue
        z0 = rng.uniform(-BOX, BOX, sp.k)
        ref = transport_ode(lin, curve, z0, 4096).z_final
        e1 = _mx(transport_ode(lin, curve, z0, 64).z_final - ref)
        e2 = _mx(transport_ode(lin, curve, z0, 128).z_final - ref)
        if e2 < 1e-13:
            continue  # exactly integrable draw, no truncation error to measure
        ratios.append(e1 / e2)
    if not ratios:
        raise _Skip
    median = float(np.median(ratios))
    worst = 0.0 if 12.0 <= median <= 20.0 else abs(median - 16.0)
    return worst, len(ratios)


@_each_draw()
def _check_flow_composition(spec, rng):
    conn = spec.conn

    def composition_error(y, p, s):
        whole = flow(conn, y, p.a, s, 256)
        half = flow(conn, y, flow(conn, y, p.a, 0.5 * s, 128), 0.5 * s, 128)
        return _mx(whole.x - half.x, whole.y - half.y)

    return _in_domain_flow(spec, rng, composition_error)


@_each_draw()
def _check_variational(spec, rng):
    conn = spec.conn
    eps = 1e-6

    def bump_error(y, p, s):
        _, dz = fiber_derivative_flow(conn, y, p, s, 400)
        up = flow(conn, y, FiberPoint(p.x, p.y + eps * p.z), s, 400)
        dn = flow(conn, y, FiberPoint(p.x, p.y - eps * p.z), s, 400)
        bump = (up.y - dn.y) / (2 * eps)
        return _rel(_mx(dz - bump), _mx(bump))

    return _in_domain_flow(spec, rng, bump_error)


@_each_draw()
def _check_lambda_transport(spec, rng):
    """The family transport integrates the family's own horizontality.

    The reference loop steps the generic ``rk4`` on the family's
    plain-float formula over the compiled curve state, domain predicate and
    gamma with its y-gradient, evaluated at every stage; ``transport_ode``
    runs the printed linear loop on the curve's printed coefficients,
    evaluated once per knot.  The two share no integration code.
    """
    sp = spec.space
    n, k = sp.n, sp.k
    width, kn = n + k, n * k
    inside, gamma = sp.compiled_domain, spec.conn.compiled_gamma_gradients
    curve = _line_curve(spec, rng)
    lam = float(rng.uniform(-1.5, 1.5))
    fam = LambdaFamilyMember(spec.conn, lam)
    z0 = rng.uniform(-BOX, BOX, k)
    state = curve.compiled_state

    def rhs(t, z):
        values = state(t)
        xy = values[:width]
        if inside is not None and not inside(*xy):
            raise sp.left_domain("curve", t, list(xy))
        out = gamma(*xy)
        return fam.fiber_velocity(out[kn:], out[:kn], z, values[width : width + n], values[width + n :])

    got = transport_ode(fam, curve, z0, 256).z_final
    for _, z in rk4(rhs, curve.t0, curve.t1, z0, 256):
        pass
    return _rel(_mx(got - np.array(z)), _mx(z))


# ---------------------------------------------------------------------------
# Registry and runner

# (name, function, tolerance or None for the command tolerance, cost divisor)
CHECKS = (
    ("structure.interchange", _check_interchange, 1e-12, 1),
    ("structure.tau_ops", _check_tau_ops, 1e-12, 1),
    ("structure.involution", _check_involution, 1e-12, 1),
    ("structure.vertical_roundtrip", _check_vertical_roundtrip, 1e-12, 1),
    ("structure.projection_tangents", _check_projection_tangents, 1e-12, 1),
    ("structure.involution_vs_lifts", _check_involution_vs_lifts, 1e-12, 1),
    ("connection.splitting", _check_splitting, 1e-12, 4),
    ("connection.curvature_algebra", _check_curvature_algebra, 1e-9, 8),
    ("connection.curvature_oracle", _check_curvature_oracle, ORACLE_TOLERANCE, 64),
    ("linearize.definition_equivalence", _check_definition_equivalence, 1e-9, 2),
    ("linearize.linearity", _check_linearity, 1e-12, 4),
    ("linearize.basis_pfaff", _check_basis_pfaff, 1e-12, 4),
    ("linearize.lambda_family", _check_lambda_family, 1e-12, 4),
    ("linearize.pullback_connector", _check_pullback_connector, 1e-12, 4),
    ("linearize.covariant_cross", _check_covariant_cross, None, 8),
    ("linearize.lie_vs_covariant", _check_lie_vs_covariant, None, 8),
    ("linearize.lie_commutator", _check_lie_commutator, 1e-6, 16),
    ("linearize.curvature_cross", _check_curvature_cross, 1e-5, 16),
    ("linearize.curvature_special", _check_curvature_special, 1e-6, 16),
    ("linearize.curvature_tensorial", _check_curvature_tensorial, 1e-6, 16),
    ("linearize.field_fiber_derivative", _check_field_fiber_derivative, 1e-9, 4),
    ("linearize.flatness", _check_flatness, 0.5, 8),
    ("transport.linearity", _check_transport_linearity, 1e-9, 32),
    ("transport.reversibility", _check_transport_reversibility, 1e-7, 64),
    ("transport.vertical_identity", _check_transport_vertical, 0.0, 32),
    ("transport.order", _check_transport_order, 0.0, 64),
    ("transport.flow_composition", _check_flow_composition, 1e-7, 32),
    ("transport.variational_bump", _check_variational, 1e-5, 32),
    ("transport.lambda_horizontality", _check_lambda_transport, 1e-9, 32),
)


def run_suite(spec: SpecFile, samples: int = 256, seed: int = 0, tol: float = 1e-7) -> Report:
    """Run every check against the loaded connection description."""
    results = []
    for index, (name, fn, base_tol, divisor) in enumerate(CHECKS):
        rng = np.random.default_rng([seed, index])
        tolerance = tol if base_tol is None else base_tol
        count = max(1, samples // divisor)
        try:
            err, used, *shown = fn(spec, rng, count)
        except _Skip:
            results.append(CheckResult(name, "skip", 0.0, 0, seed, tolerance))
            continue
        status = "pass" if err <= tolerance else "fail"
        if shown:
            (s,) = shown
            name, err, tolerance = f"{name}[{s.label}]", s.max_error, s.tolerance
        results.append(CheckResult(name, status, float(err), used, seed, tolerance))
    return Report(tuple(results), seed, samples, tol)
