"""Nonlinear connections: coefficient evaluation, lifts, projectors, curvature.

Sign convention used throughout the package: the horizontal lift of a base
vector v at a point with coordinates (x, y) has fiber components
-gamma^A_i(x, y) v^i, hence the connector is kappa(w)^A = dy^A +
gamma^A_i dx^i and vanishes exactly on horizontal vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial, reduce

import numpy as np

from . import ad
from . import expr as ex
from .geom import BundleSpace, FiberPoint, TangentE

PROJECTABLE_SAMPLES = 32
PROJECTABLE_TOL = 1e-9
HOLONOMY_STEP = 1e-2  # side h of the largest loop of holonomy_curvature
HOLONOMY_SUBSTEPS = 32  # RK4 steps per leg of a holonomy loop


class NotProjectableError(ValueError):
    """Operation needs a projectable field and the certificate failed."""


def horizontal_velocity(G, X, eta=None) -> list:
    """Fiber velocity -gamma^A_i X^i + eta^A, the one sum of a gamma row
    against a base vector.

    G holds the k*n entries gamma^A_i row by row (the layout of
    ``NonlinearConnection.entries``), X the n base components and eta
    the k fiber components, or None for the plain horizontal lift.  The
    entries may be floats or lifted ``ad.Dual1`` scalars, mixed freely.
    The order is stated, so the bits do not depend on a BLAS kernel: for
    each A, the terms ``(-G[A][i]) * X[i]`` summed left to right over i
    ascending, then ``+ eta[A]``.  Python float arithmetic neither warns
    nor raises: an infinite gamma gives an infinite or NaN component.
    ``HorBasicField.at``, ``horizontal_lift``, ``connector``,
    ``horizontal_direction_env``, ``connector_env`` and the J term of
    ``LinearizedConnection._cov_env`` call it; its printed twin,
    ``codegen._horizontal_rows``, prints the same sums into each flow
    stage and each lane of the holonomy legs.
    """
    entries = iter(G)
    out = []
    for _ in range(len(G) // len(X)):
        s = -next(entries) * X[0]
        for x in X[1:]:
            s = s + -next(entries) * x
        out.append(s)
    return out if eta is None else [s + e for s, e in zip(out, eta)]


def curvature_sum(G, dG, Gv, dGv, v1, v2) -> tuple[list, list]:
    """R^A(v1, v2) and its derivative along an outer direction, in floats.

    R^A(v1, v2) = sum_ij v1^i v2^j (d_j gamma^A_i - d_i gamma^A_j
    + gamma^B_i d_B gamma^A_j - gamma^B_j d_B gamma^A_i), summed over i < j.
    G holds the k*n entries gamma^A_i row by row and dG their partials
    [A, i, beta] flat, beta over x1..xn then y1..yk; Gv and dGv hold their
    derivatives along the outer direction in the same layouts (the slots of
    ``compiled_gamma_second``); v1 and v2 are the n base components.  The
    order is stated: for each A, over the pairs i < j (i outer, j inner,
    ascending), the coefficient ``c = dG[A, i, x_j] - dG[A, j, x_i]`` gets
    ``+ (G[B, i] * dG[A, j, y_B] - G[B, j] * dG[A, i, y_B])`` for B
    ascending, its derivative ``dc`` the same terms differentiated by the
    product rule, ``(Gv * dG + G * dGv)`` for each product, and
    ``(v1[i] * v2[j] - v1[j] * v2[i])`` times each is summed onto 0.0.
    Exchanging v1 and v2 negates each weight exactly, so R(v2, v1) =
    -R(v1, v2) and R(v, v) = 0 hold bitwise for finite entries: the
    antisymmetry is structural.
    """
    n = len(v1)
    k = len(G) // n
    m = n + k
    R, dR = [], []
    for A in range(k):
        s = ds = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                di, dj = (A * n + i) * m, (A * n + j) * m
                c = dG[di + j] - dG[dj + i]
                dc = dGv[di + j] - dGv[dj + i]
                for B in range(k):
                    bi, bj, yi, yj = B * n + i, B * n + j, di + n + B, dj + n + B
                    c = c + (G[bi] * dG[yj] - G[bj] * dG[yi])
                    dc = dc + ((Gv[bi] * dG[yj] + G[bi] * dGv[yj]) - (Gv[bj] * dG[yi] + G[bj] * dGv[yi]))
                w = v1[i] * v2[j] - v1[j] * v2[i]
                s = s + w * c
                ds = ds + w * dc
        R.append(s)
        dR.append(ds)
    return R, dR


def _check_arity(exprs, allowed: set[str], what: str):
    for e in exprs:
        bad = ex.variables(e) - allowed
        if bad:
            raise ValueError(f"{what} may reference {ex.name_ranges(allowed)} only, found {ex.name_ranges(bad)}")


@dataclass(frozen=True)
class NonlinearConnection:
    """Connection coefficients gamma^A_i(x, y) as a k x n matrix of expressions."""

    space: BundleSpace
    gamma: tuple

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.gamma)
        object.__setattr__(self, "gamma", rows)
        if len(rows) != self.space.k or any(len(r) != self.space.n for r in rows):
            raise ValueError(
                f"gamma must be {self.space.k} x {self.space.n}"
            )
        allowed = set(self.space.x_names) | set(self.space.y_names)
        for row in rows:
            _check_arity(row, allowed, "gamma entries")
        # the dataclass's hash, taken once: a lookup keyed by the connection
        # (a curve's coefficients, a field's flow stages) would walk every
        # gamma tree
        object.__setattr__(self, "_hash", hash((self.space, rows)))

    def __hash__(self):
        return self._hash

    @cached_property
    def entries(self) -> tuple:
        """The k*n entries gamma^A_i row by row: the layout of every
        compiled pass of gamma, of ``gamma_env`` and ``horizontal_velocity``."""
        return tuple(g for row in self.gamma for g in row)

    # -- evaluation -----------------------------------------------------

    @cached_property
    def compiled_gamma(self):
        """The entries row by row as floats, one function of x1..xn, y1..yk."""
        from .codegen import compile_exprs

        sp = self.space
        return compile_exprs(self.entries, sp.x_names + sp.y_names)

    @cached_property
    def compiled_gamma_gradients(self):
        """The k*n entries row by row, then their y-partials [A, i, B].

        One function of the floats x1..xn, y1..yk, bitwise ``ad.gradients``
        of the entries with respect to y (``codegen.compile_gradients``).
        """
        from .codegen import compile_gradients

        sp = self.space
        return compile_gradients(self.entries, sp.x_names + sp.y_names, sp.y_names)

    @cached_property
    def compiled_gamma_second(self):
        """The second-order pass of the entries (``second_order.compile_second``),
        seeded in every name.

        One function of the floats x1..xn, y1..yk and an outer direction
        v1..v(n+k): the k*n entries row by row, their partials [A, i, beta]
        with beta over x1..xn, y1..yk, their derivatives along v, and the
        derivatives of the partials along v [A, i, beta]; bitwise the Dual2
        walks seeded with u = e_beta and v.  Printed on first use and cached
        here, like ``compiled_gamma``.
        """
        from .second_order import compile_second

        names = self.space.x_names + self.space.y_names
        return compile_second(self.entries, names, names)

    def gamma_second(self, values, direction) -> tuple:
        """(G, dG, Gv, dGv): one call of ``compiled_gamma_second`` at the
        floats x1..xn, y1..yk along the outer direction (n + k floats),
        sliced into the entries, their partials [A, i, beta], their
        derivatives along the direction and those of their partials."""
        out = self.compiled_gamma_second(*values, *direction)
        T = self.space.k * self.space.n
        m = len(values)
        return out[:T], out[T : T + T * m], out[T + T * m : 2 * T + T * m], out[2 * T + T * m :]

    def gamma_at(self, a: FiberPoint) -> np.ndarray:
        """Entrywise value of the coefficient matrix at an in-domain point."""
        return np.array(self._gamma_values(a), dtype=float).reshape(self.space.k, self.space.n)

    def gamma_env(self, env) -> list:
        """The k*n entries gamma^A_i row by row over a plain or lifted env,
        the layout of ``compiled_gamma``."""
        return [ex.evaluate(g, env) for g in self.entries]

    def horizontal_direction_env(self, comp_x, env, eta=None):
        """Components (X, -gamma X + eta) of a lifted base field over env,
        the fiber part by ``horizontal_velocity``.

        ``comp_x`` and ``eta`` are expression tuples; eta None is the zero
        section, i.e. the plain horizontal lift of X.
        """
        dir_x = [ex.evaluate(e, env) for e in comp_x]
        eta = None if eta is None else [ex.evaluate(e, env) for e in eta]
        return dir_x, horizontal_velocity(self.gamma_env(env), dir_x, eta)

    def _gamma_values(self, a: FiberPoint) -> tuple:
        self.space.require_in_domain(a.x, a.y)
        return self.compiled_gamma(*a.x.tolist(), *a.y.tolist())

    def horizontal_lift(self, a: FiberPoint, v) -> TangentE:
        """Tangent with base velocity v and fiber velocity -gamma(a) v, the
        float sum of ``horizontal_velocity``."""
        v = np.asarray(v, dtype=float)
        return TangentE(a, v, np.array(horizontal_velocity(self._gamma_values(a), v.tolist())))

    def connector(self, w: TangentE) -> np.ndarray:
        """Fiber vector kappa(w) = dy + gamma(at) dx; zero iff w is horizontal.

        Computed as dy minus ``horizontal_velocity(gamma, dx)``, in floats.
        """
        hv = horizontal_velocity(self._gamma_values(w.at), w.dx.tolist())
        return np.array([d - v for d, v in zip(w.dy.tolist(), hv)])

    def project_h(self, w: TangentE) -> TangentE:
        return self.horizontal_lift(w.at, w.dx)

    def project_v(self, w: TangentE) -> TangentE:
        h = self.project_h(w)
        return TangentE(w.at, w.dx - h.dx, w.dy - h.dy)

    # -- derived fields ---------------------------------------------------

    def horizontal_field_of(self, comp_x) -> "FieldOnE":
        """Horizontal lift of a base field given by expressions comp_x.

        comp_x may depend on y (the P_h part of a general field).
        """
        comp_y = tuple(
            ex.neg(reduce(ex.add, (ex.mul(row[i], comp_x[i]) for i in range(self.space.n))))
            for row in self.gamma
        )
        return FieldOnE(comp_x, comp_y)

    def curvature(self, a: FiberPoint, v1, v2) -> np.ndarray:
        """Connector of the bracket of the two constant horizontal lifts.

        Antisymmetric and bilinear in (v1, v2); identically zero when the
        horizontal distribution is involutive.  Computed by the coordinate
        formula of ``curvature_env``.
        """
        v1, v2 = self.space.base_pair(v1, v2)
        self.space.require_in_domain(a.x, a.y)
        env = self.space.point_env(a.x, a.y)
        return np.array(self.curvature_env(env, v1, v2), dtype=float)

    def curvature_env(self, env, v1, v2) -> list:
        """R(v1, v2) over a plain env of floats, for float base vectors v1, v2.

        R is the connector of the bracket of the two constant horizontal
        lifts, in coordinates ``curvature_sum`` of one call of the
        second-order pass (``gamma_second``) along a zero outer direction.
        """
        values = [env[name] for name in self.space.x_names + self.space.y_names]
        slots = self.gamma_second(values, [0.0] * len(values))
        return curvature_sum(*slots, list(map(float, v1)), list(map(float, v2)))[0]

    @cached_property
    def holonomy_stage(self):
        """The printed stage ``f(dirs, t, state)`` of the four loops of
        ``holonomy_curvature`` (``codegen.holonomy_stage``).

        Printed on first use and cached here, like ``compiled_gamma``, so a
        connection that is dropped drops its stage.
        """
        from .codegen import holonomy_stage

        return holonomy_stage(self)

    def holonomy_curvature(self, a: FiberPoint, v1, v2) -> np.ndarray:
        """Independent curvature estimate from small horizontal loops.

        Lifts the base rectangles spanned by s*v1, s*v2 for s = h, -h, h/2,
        -h/2 horizontally (h = ``HOLONOMY_STEP``), measures the fiber defect
        of each closed loop, and removes the odd and next even error terms
        by symmetrization and Richardson extrapolation.  The four loops run
        as four lanes of one flat list of floats stepped by ``rk4``, one leg
        at a time (``HOLONOMY_SUBSTEPS`` steps per leg); each stage is one
        call of ``holonomy_stage``, which tests the domain, evaluates gamma
        and sums the horizontal lift lane by lane, so each lane is bitwise
        the loop integrated on its own.  A stage point outside the domain
        raises OutOfDomainError naming its t within the leg; a diverged
        lane raises OverflowError naming t.  Not used on any production
        path; it exists as a cross-check for ``curvature``.
        """
        from .transport import rk4

        v1, v2 = self.space.base_pair(v1, v2)
        n, width = self.space.n, self.space.n + self.space.k
        h = HOLONOMY_STEP
        steps = (h, -h, h / 2.0, -h / 2.0)
        sides = [(s * v1, s * v2, -s * v1, -s * v2) for s in steps]  # per lane
        state = [*a.x.tolist(), *a.y.tolist()] * len(steps)
        for dirs in zip(*sides):
            # one leg: the horizontal lift of t -> x + t*dir over [0, 1] in
            # every lane, x' = dir and y' = -gamma(x, y) dir
            leg = partial(self.holonomy_stage, [c for d in dirs for c in d.tolist()])
            for _, state in rk4(leg, 0.0, 1.0, state, HOLONOMY_SUBSTEPS):
                pass
        y = np.array(state).reshape(len(steps), width)[:, n:]
        defect = [(y[j] - a.y) / s**2 for j, s in enumerate(steps)]
        g1 = 0.5 * (defect[0] + defect[1])  # symmetrized over s = h, -h
        g2 = 0.5 * (defect[2] + defect[3])  # and over s = h/2, -h/2
        return (4.0 * g2 - g1) / 3.0


@dataclass(frozen=True)
class FieldOnE:
    """Vector field on the total space with expression components (W^i, W^A)."""

    comp_x: tuple
    comp_y: tuple
    _cert: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "comp_x", tuple(self.comp_x))
        object.__setattr__(self, "comp_y", tuple(self.comp_y))

    def component(self, alpha: int):
        n = len(self.comp_x)
        return self.comp_x[alpha] if alpha < n else self.comp_y[alpha - n]

    def at(self, space: BundleSpace, p: FiberPoint) -> TangentE:
        env = space.point_env(p.x, p.y)
        dx = [ad.real_part(ex.evaluate(e, env)) for e in self.comp_x]
        dy = [ad.real_part(ex.evaluate(e, env)) for e in self.comp_y]
        return TangentE(p, np.array(dx), np.array(dy))

    def is_projectable(self, space: BundleSpace) -> bool:
        """Certificate: base components do not respond to fiber directions.

        Expressions are opaque, so the flag comes from probing directional
        derivatives in y at PROJECTABLE_SAMPLES random in-domain points drawn
        with seed 0; the result is cached per space dimensions and domain.
        """
        syntactic = all(
            not (ex.variables(e) & set(space.y_names)) for e in self.comp_x
        )
        if syntactic:
            return True
        key = (space.n, space.k, space.domain)
        cached = self._cert.get(key)
        if cached is not None:
            return cached
        from .sampling import sample_in_domain

        rng = np.random.default_rng(0)
        ok = True
        for _ in range(PROJECTABLE_SAMPLES):
            a = sample_in_domain(space, rng)
            point = space.point_env(a.x, a.y)
            for e in self.comp_x:
                for yname in space.y_names:
                    _, d = ad.directional(e, point, {yname: 1.0})
                    if abs(d) > PROJECTABLE_TOL:
                        ok = False
        self._cert[key] = ok
        return ok


@dataclass(frozen=True)
class SectionAlongPi:
    """Section along the projection: k expression components sigma^A(x, y)."""

    comp: tuple

    def __post_init__(self):
        object.__setattr__(self, "comp", tuple(self.comp))

    def at(self, space: BundleSpace, p: FiberPoint) -> np.ndarray:
        env = space.point_env(p.x, p.y)
        return np.array([ad.real_part(ex.evaluate(e, env)) for e in self.comp])

    def vertical_field(self, n: int) -> FieldOnE:
        """The vertical lift of the section as an expression field."""
        return FieldOnE(tuple(ex.lit(0.0) for _ in range(n)), self.comp)


@dataclass(frozen=True)
class HorBasicField:
    """Y = X^h + eta^v for a base vector field X(x) and a basic section eta(x).

    Both component lists may reference x variables only; this is checked at
    construction, so hor-basic fields never need a sampling certificate.
    """

    X: tuple
    eta: tuple

    def __post_init__(self):
        object.__setattr__(self, "X", tuple(self.X))
        object.__setattr__(self, "eta", tuple(self.eta))
        allowed = {f"x{i+1}" for i in range(len(self.X))}
        _check_arity(self.X + self.eta, allowed, "hor-basic components")

    @classmethod
    def _over_x(cls, X: tuple, eta: tuple) -> "HorBasicField":
        """The field of component tuples built from the x names alone, as
        ``sampling.random_hor_basic`` draws them: no ``_check_arity`` walk."""
        field = object.__new__(cls)
        object.__setattr__(field, "X", X)
        object.__setattr__(field, "eta", eta)
        return field

    def as_field(self, conn: NonlinearConnection) -> FieldOnE:
        """Expression field with components (X^i, -gamma^A_i X^i + eta^A)."""
        drift = conn.horizontal_field_of(self.X).comp_y
        return FieldOnE(self.X, tuple(ex.add(d, e) for d, e in zip(drift, self.eta)))

    @cached_property
    def _stages(self) -> dict:
        return {}

    def flow_stage(self, conn: NonlinearConnection, variational: bool = False):
        """The printed right-hand side ``f(t, state)`` of this field's flow
        under conn (``codegen.flow_stage``), with variational that of
        ``transport.fiber_derivative_flow``; printed on first use.

        The stages are cached here, keyed by the connection, so a field
        that is dropped drops its stages (a cache in the module would keep
        every drawn field alive).
        """
        key = (conn, variational)
        stage = self._stages.get(key)
        if stage is None:
            from .codegen import flow_stage

            stage = self._stages[key] = flow_stage(conn, self, variational)
        return stage

    def at(self, conn: NonlinearConnection, a: FiberPoint) -> TangentE:
        """Float components (X, -gamma X + eta) at a, by the walk.

        The fiber part is ``horizontal_velocity``: an infinite or huge gamma
        gives infinite or NaN fiber components without a numpy warning.
        """
        conn.space.require_in_domain(a.x, a.y)
        env = conn.space.point_env(a.x, a.y)
        dx = [ad.real_part(ex.evaluate(e, env)) for e in self.X]
        eta = [ad.real_part(ex.evaluate(e, env)) for e in self.eta]
        return TangentE(a, np.array(dx), np.array(horizontal_velocity(conn.gamma_env(env), dx, eta)))


# ---------------------------------------------------------------------------
# Brackets and the connector over generic environments


def bracket_env(space: BundleSpace, w1: FieldOnE, w2: FieldOnE, env) -> list:
    """Components [w1, w2]^α = D_{w1} w2^α - D_{w2} w1^α over a generic env.

    Each term is one ``ad.partial_in`` walk along the other field's values
    at env, which on a lifted env are lifted scalars themselves.  Only w1's
    components are evaluated on their own: the walks of w2^α along w1
    return w2^α's values too (``ad.value_and_partial_in``), so a lifted env
    costs n + k Dual1 walks and 2(n + k) Dual2 walks.
    """
    names = space.x_names + space.y_names
    c1 = {name: ex.evaluate(w1.component(i), env) for i, name in enumerate(names)}
    walks = [ad.value_and_partial_in(w2.component(alpha), env, c1) for alpha in range(len(names))]
    c2 = {name: value for name, (value, _) in zip(names, walks)}
    return [d2 - ad.partial_in(w1.component(alpha), env, c2) for alpha, (_, d2) in enumerate(walks)]


def bracket(space: BundleSpace, w1: FieldOnE, w2: FieldOnE, p: FiberPoint) -> TangentE:
    """Lie bracket of two expression fields, evaluated at a point.

    All partial derivatives come from dual-number evaluation over the n + k
    chart coordinates.
    """
    env = space.point_env(p.x, p.y)
    comps = bracket_env(space, w1, w2, env)
    return TangentE(p, np.array(comps[: space.n]), np.array(comps[space.n :]))


def connector_env(conn: NonlinearConnection, env, wx, wy) -> list:
    """kappa of a tangent with components (wx, wy) over a generic env: wy
    minus ``horizontal_velocity(gamma, wx)``, the formula of ``connector``."""
    return [d - v for d, v in zip(wy, horizontal_velocity(conn.gamma_env(env), wx))]


def kappa_section(conn: NonlinearConnection, w: FieldOnE) -> SectionAlongPi:
    """kappa(W) as an expression section: components W^A + gamma^A_i W^i.

    Built by expression composition so its fiber derivatives stay available
    to dual-number evaluation.
    """
    comps = []
    for row, s in zip(conn.gamma, w.comp_y):
        for g, wx in zip(row, w.comp_x):
            s = ex.add(s, ex.mul(g, wx))
        comps.append(s)
    return SectionAlongPi(tuple(comps))
