"""Linearization of a nonlinear connection on the pullback bundle.

The linearized horizontal action sends a tangent vector w at the first leg
(x, y) to a tangent vector at the second leg (x, z) with the same base
velocity and fiber velocity -d_gamma^A_iB(x, y) z^B w^i, where d_gamma is
the fiber Jacobian of the connection coefficients.  Two independent
computations of this map are provided: the coordinate formula (``apply``)
and the limit definition as the fiber-direction derivative of the
horizontal lift (``apply_by_limit``); they must agree to rounding and the
test suite holds them to that.

Covariant derivatives, the one-parameter affine family of prolongations,
and the curvature of the linearization (with its mixed and base-base
components) are computed here as well.  Every derivative on a production
path comes from dual-number evaluation, never from differencing of
derivative output.  The curvature components are fiber derivatives of the
nonlinear curvature, second order in gamma: they read gamma's printed
second-order pass (``NonlinearConnection.compiled_gamma_second``, the
arithmetic of Dual2 scalars) along the vertical direction (0, sigma(a)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ad
from . import expr as ex
from .connection import (
    FieldOnE,
    HorBasicField,
    NonlinearConnection,
    NotProjectableError,
    SectionAlongPi,
    bracket,
    bracket_env,
    connector_env,
    curvature_sum,
    horizontal_velocity,
)
from .geom import (
    FiberPoint,
    OutOfDomainError,
    PullbackPoint,
    TangentE,
    TangentPullback,
    _check_close,
)

BASIC_VERDICT_TOL = 1e-8  # threshold on sampled magnitudes for basic/flat verdicts


def _mx(*values) -> float:
    """Largest absolute entry; inf if any entry is not finite.

    ``max(worst, nan)`` keeps worst, so without this rule a NaN sample
    would read as a pass.  Each value is ravelled and scanned as Python
    floats; abs and max are exact, so this is the value numpy's reduction
    gives, at a fraction of its cost on short vectors.
    """
    worst = 0.0
    for v in values:
        for e in np.asarray(v).ravel().tolist():
            e = abs(e)
            if not math.isfinite(e):
                return math.inf
            if e > worst:
                worst = e
    return float(worst)


def _check_leg(p: PullbackPoint, w: TangentE):
    try:
        _check_close(w.at.x, p.x, "x")
        _check_close(w.at.y, p.y, "y")
    except ValueError as err:
        raise ValueError("tangent vector is not attached at the first leg") from err


@dataclass(frozen=True)
class LinearizedConnection:
    """The linear connection on the pullback bundle induced by ``conn``."""

    conn: NonlinearConnection

    @property
    def space(self):
        return self.conn.space

    # -- coefficients ------------------------------------------------------

    def fiber_jacobian(self, a: FiberPoint) -> np.ndarray:
        """Array [A, i, B] of fiber derivatives of the coefficients at a."""
        sp = self.space
        sp.require_in_domain(a.x, a.y)
        J = self.fiber_jacobian_env(sp.point_env(a.x, a.y))
        return np.array(J, dtype=float).reshape(sp.k, sp.n, sp.k)

    def fiber_jacobian_env(self, env) -> tuple:
        """The k*n*k entries d_gamma^A_i/dy^B at a plain env, flat [A, i, B]
        row by row: the tail of ``compiled_gamma_gradients``, bitwise
        ``ad.gradients``.  The layout ``fiber_velocity`` reads."""
        sp = self.space
        out = self.conn.compiled_gamma_gradients(*(float(env[name]) for name in sp.x_names + sp.y_names))
        return out[sp.k * sp.n :]

    # -- the linearized horizontal action ---------------------------------

    def apply(self, p: PullbackPoint, w: TangentE) -> TangentE:
        """Coordinate formula: dy^A = -d_gamma^A_iB(x, y) z^B w^i at leg b."""
        self.space.require_in_domain(p.x, p.y)
        _check_leg(p, w)
        J = self.fiber_jacobian_env(self.space.point_env(p.x, p.y))
        dy = self.fiber_velocity(J, p.z.tolist(), w.dx.tolist())
        return TangentE(p.b, w.dx.copy(), np.array(dy))

    @staticmethod
    def fiber_velocity(J, z, dx) -> list:
        """The formula of ``apply`` in plain floats: -J[A, i, B] z^B dx^i.

        J holds the entries [A, i, B] flat, row by row, as
        ``fiber_jacobian_env`` returns them; z and dx are sequences of
        floats.  For each A the terms ``J[A, i, B] * z[B] * dx[i]`` are
        summed onto 0.0, i outer and B inner, and the sum is negated:
        bitwise numpy's ``-einsum("aib,b,i->a", J, z, dx)``.  The family's
        ``fiber_velocity`` and the float J term of ``_cov_of_cov`` call it
        too, ``curvature`` and ``berwald`` call it on H (the outer
        derivative of J, in its layout), and ``codegen.flow_stage`` prints
        the same sum into the variational stage of
        ``transport.fiber_derivative_flow``.
        """
        entries = iter(J)
        out = []
        for _ in range(len(J) // (len(z) * len(dx))):
            s = 0.0
            for xi in dx:
                for zB in z:
                    s = s + next(entries) * zB * xi
            out.append(-s)
        return out

    def apply_by_limit(self, p: PullbackPoint, w: TangentE) -> TangentE:
        """Limit definition: derivative of the horizontal lift along the fiber.

        Evaluates the fiber velocity of s -> lift(a + s*b, base velocity of w)
        with a dual seed in s and projects out the vertical part.  Domain
        membership is checked at s = 0 only; fiberwise openness guarantees a
        neighborhood.
        """
        self.space.require_in_domain(p.x, p.y)
        _check_leg(p, w)
        env = self.space.point_env(p.x, p.y)
        seeded = {
            name: ad.Dual1(env[name], (dz,))
            for name, dz in zip(self.space.y_names, p.z)
        }
        env_s = {**env, **seeded}
        dy = np.empty(self.space.k)
        for A, row in enumerate(self.conn.gamma):
            s = 0.0
            for i, g in enumerate(row):
                if w.dx[i] != 0.0:
                    s = s + ex.evaluate(g, env_s) * w.dx[i]
            dy[A] = -ad.dual_part(s)
        return TangentE(p.b, w.dx.copy(), dy)

    def lift(self, p: PullbackPoint, w: TangentE) -> TangentPullback:
        """Horizontal lift on the pullback bundle: the pair (w, apply(p, w))."""
        return TangentPullback(p, w, self.apply(p, w))

    def connector(self, t: TangentPullback) -> np.ndarray:
        """Fiber vector measuring how far t is from its own horizontal lift."""
        b = self.apply(t.at, t.w)
        return t.w2.dy - b.dy

    # -- covariant derivative ----------------------------------------------

    def covariant_derivative(self, sigma: SectionAlongPi, w: TangentE) -> np.ndarray:
        """Derivative of the section in the direction w.

        Components: sum_i d_x^i(sigma^A) w^i + sum_B d_y^B(sigma^A) w^B
        + sum_{i,B} d_gamma^A_iB sigma^B w^i, all partials by dual numbers.
        """
        self.space.require_in_domain(w.at.x, w.at.y)
        env = self.space.point_env(w.at.x, w.at.y)
        out = self._cov_env(sigma.comp, w.dx.tolist(), w.dy.tolist(), env)
        return np.array([ad.real_part(v) for v in out])

    def _cov_env(self, comps, dir_x, dir_y, env) -> list:
        """Covariant derivative components over a plain or lifted env.

        Contract, then differentiate: the term dσ^A(w) is one
        ``ad.partial_in`` along (dir_x, dir_y), and the J term is
        ``horizontal_velocity(D, dir_x)`` subtracted, where D^A_i is one
        ``ad.partial_in`` of gamma^A_i along the section's values σ^B, the
        contraction d_gamma^A_iB σ^B.  Every direction may be lifted scalars
        over a lifted env.
        """
        sp = self.space
        direction = dict(zip(sp.x_names + sp.y_names, [*dir_x, *dir_y]))
        sigma = dict(zip(sp.y_names, [ex.evaluate(c, env) for c in comps]))
        D = [ad.partial_in(g, env, sigma) for g in self.conn.entries]
        return [
            ad.partial_in(c, env, direction) - v
            for c, v in zip(comps, horizontal_velocity(D, dir_x))
        ]

    def covariant_derivative_bracket(
        self, sigma: SectionAlongPi, w_field: FieldOnE, a: FiberPoint
    ) -> np.ndarray:
        """Bracket form of the covariant derivative in the direction w_field(a).

        Computes kappa([P_h(W), sigma^v](a)) plus the vertical-projection
        image of the tangent of sigma on P_v(W)(a).  Exists as the
        independent cross-check of ``covariant_derivative``; the two agree
        to rounding for every field and section.
        """
        sp = self.space
        sp.require_in_domain(a.x, a.y)
        conn = self.conn
        # P_h(W) as an expression field, composed through gamma
        ph_w = conn.horizontal_field_of(w_field.comp_x)
        sig_v = sigma.vertical_field(sp.n)
        br = bracket(sp, ph_w, sig_v, a)
        first = conn.connector(br)
        # tangent of sigma on the vertical part of W(a)
        pv = conn.project_v(w_field.at(sp, a))
        env = sp.point_env(a.x, a.y)
        along = dict(zip(sp.y_names, pv.dy.tolist()))
        second = np.array([ad.partial_in(c, env, along) for c in sigma.comp], dtype=float)
        return first + second

    # -- Lie derivations -----------------------------------------------------

    def lie_derivation(
        self, y_field: FieldOnE, sigma: SectionAlongPi, a: FiberPoint
    ) -> np.ndarray:
        """Derivation induced by the flow of a projectable field.

        The vertical projection of [Y, sigma^v](a); defined only for
        projectable Y, certified by sampling.
        """
        sp = self.space
        if not y_field.is_projectable(sp):
            raise NotProjectableError("field failed the projectability certificate")
        sp.require_in_domain(a.x, a.y)
        env = sp.point_env(a.x, a.y)
        comps = bracket_env(sp, y_field, sigma.vertical_field(sp.n), env)
        defect = max((abs(ad.real_part(c)) for c in comps[: sp.n]), default=0.0)
        if defect > 1e-9:
            raise NotProjectableError(
                f"bracket with the vertical lift has base defect {defect:.3e}"
            )
        return np.array([ad.real_part(c) for c in comps[sp.n :]])

    # -- curvature of the linearization --------------------------------------

    def _vertical_pass(self, sigma: SectionAlongPi, a: FiberPoint) -> tuple:
        """(env, slots, H) at a along the vertical direction v = (0, sigma(a)).

        slots are ``NonlinearConnection.gamma_second`` along v; H^A_iB =
        d_sigma d_{y^B} gamma^A_i, the y-columns of its last slot, is flat
        [A, i, B], the layout ``fiber_velocity`` reads.  sigma(a) is
        evaluated as floats.
        """
        sp = self.space
        sp.require_in_domain(a.x, a.y)
        env = sp.point_env(a.x, a.y)
        sig_a = [ex.evaluate(c, env) for c in sigma.comp]
        slots = self.conn.gamma_second([env[name] for name in sp.x_names + sp.y_names], [0.0] * sp.n + sig_a)
        m = sp.n + sp.k
        dGv = slots[3]
        H = [h for r in range(0, len(dGv), m) for h in dGv[r + sp.n : r + m]]
        return env, slots, H

    def _field_values(self, env, *comps) -> list:
        """The base components X (n of them), then the fiber components eta
        (k), of hor-basic fields as floats at env; other lengths are a
        ValueError, as the pass's layout has no room for them."""
        sp = self.space
        out = []
        for j, c in enumerate(comps):
            want = sp.n if j < len(comps) // 2 else sp.k
            if len(c) != want:
                raise ValueError(f"curvature needs fields with {sp.n} base and {sp.k} fiber components")
            out.append([ex.evaluate(e, env) for e in c])
        return out

    def curvature(
        self,
        y1: HorBasicField,
        y2: HorBasicField,
        sigma: SectionAlongPi,
        a: FiberPoint,
    ) -> np.ndarray:
        """Closed-form curvature on a pair of hor-basic fields.

        Minus the vertical derivative, in the direction sigma(a), of the
        section R(X1, X2) + D_{X1 lift} eta2 - D_{X2 lift} eta1 with the base
        fields frozen at a:
        -[d_sigma R(X1, X2) + H(sigma)^A_iB (eta2^B X1^i - eta1^B X2^i)],
        with H^A_iB = d_sigma d_{y^B} gamma^A_i.  Both come from one call of
        the second-order pass (``_vertical_pass``); X1, X2, eta1 and eta2 are
        evaluated at a as floats.  The order is stated: with
        ``p = fiber_velocity(H, eta2, X1)``, ``q = fiber_velocity(H, eta1,
        X2)`` and r the derivative part of ``curvature_sum`` at (X1, X2),
        each component is ``(p - q) - r``.
        """
        env, slots, H = self._vertical_pass(sigma, a)
        X1, X2, eta1, eta2 = self._field_values(env, y1.X, y2.X, y1.eta, y2.eta)
        _, r = curvature_sum(*slots, X1, X2)
        p, q = self.fiber_velocity(H, eta2, X1), self.fiber_velocity(H, eta1, X2)
        return np.array([(pA - qA) - rA for pA, qA, rA in zip(p, q, r)])

    def curvature_commutator(
        self,
        y1: HorBasicField,
        y2: HorBasicField,
        sigma: SectionAlongPi,
        a: FiberPoint,
    ) -> np.ndarray:
        """Commutator-of-derivatives curvature, the oracle for ``curvature``.

        D_{Y1} D_{Y2} sigma - D_{Y2} D_{Y1} sigma - D_{[Y1, Y2]} sigma, with
        the outer derivatives taken through Dual2 and the bracket taken on
        the induced expression fields.
        """
        sp = self.space
        sp.require_in_domain(a.x, a.y)
        conn = self.conn
        term1 = self._cov_of_cov(sigma, y1, y2, a)
        term2 = self._cov_of_cov(sigma, y2, y1, a)
        w12 = bracket(sp, y1.as_field(conn), y2.as_field(conn), a)
        term3 = self.covariant_derivative(sigma, w12)
        return term1 - term2 - term3

    def _cov_of_cov(
        self, sigma: SectionAlongPi, outer: HorBasicField, inner: HorBasicField,
        a: FiberPoint,
    ) -> np.ndarray:
        """D_{outer(a)} of the section p -> (D_{inner} sigma)(p)."""
        sp = self.space
        env = sp.point_env(a.x, a.y)
        w_out = outer.at(self.conn, a)
        direction = dict(zip(sp.x_names + sp.y_names, np.concatenate([w_out.dx, w_out.dy])))
        lifted = ad.lift_env(env, direction)
        din_x, din_y = self.conn.horizontal_direction_env(inner.X, lifted, inner.eta)
        tau = self._cov_env(sigma.comp, din_x, din_y, lifted)
        # float products: numpy scalars would warn where they overflow
        J0 = self.fiber_jacobian_env(env)
        fv = self.fiber_velocity(J0, [ad.real_part(t) for t in tau], w_out.dx.tolist())
        return np.array([ad.dual_part(t) - v for t, v in zip(tau, fv)])

    def berwald(
        self, eta, y: HorBasicField, sigma: SectionAlongPi, a: FiberPoint
    ) -> np.ndarray:
        """Mixed vertical-horizontal curvature component.

        The vertical derivative, in the direction sigma(a), of the section
        p -> (D_{X lift} eta)(p), for a basic section eta (x-only component
        expressions) and the horizontal part X of y: H(sigma)^A_iB eta^B X^i,
        which is ``-fiber_velocity(H, eta, X)`` (``_vertical_pass``).
        Vanishing of this component at all sampled points is what flags a
        linearization as basic.
        """
        env, _, H = self._vertical_pass(sigma, a)
        X, eta = self._field_values(env, y.X, tuple(eta))
        return -np.array(self.fiber_velocity(H, eta, X))

    def riemann(self, v1, v2, sigma: SectionAlongPi, a: FiberPoint) -> np.ndarray:
        """Base-base curvature component: minus the vertical derivative of R,
        -d_sigma R(v1, v2), the derivative part of ``curvature_sum`` over the
        second-order pass (``_vertical_pass``)."""
        v1, v2 = self.space.base_pair(v1, v2)
        _, slots, _ = self._vertical_pass(sigma, a)
        return -np.array(curvature_sum(*slots, v1.tolist(), v2.tolist())[1])

    # -- flatness -------------------------------------------------------------

    def flatness_report(self, samples: int = 32, seed: int = 0) -> "FlatnessReport":
        """Sampled verdicts on flatness and basicness of the linearization.

        Draws in-domain points, random hor-basic pairs and sections, and
        records the largest curvature component.  Alongside it checks the
        equivalent formulation (the connector of the bracket of two
        hor-basic fields must be a basic section exactly when the curvature
        vanishes; the bracket here is the literal expression-field bracket,
        a different code path from ``curvature``) and tracks the largest
        mixed vertical-horizontal component, whose vanishing flags the
        linearization as basic.  Sampling cannot prove a universal: the
        verdicts carry their sample count, seed and threshold.  A sample
        that is not finite counts as inf (``_mx``), so it reads as non-flat
        and non-basic, never as flat.  A sample count below 1 is a
        ValueError; OutOfDomainError means that every drawn point missed
        the domain.
        """
        from .sampling import random_hor_basic, random_polynomial, random_section, sample_in_domain

        if samples < 1:
            raise ValueError(f"flatness_report needs at least 1 sample, got {samples}")
        sp = self.space
        rng = np.random.default_rng(seed)
        max_curv = 0.0
        max_nonbasic = 0.0
        max_mixed = 0.0
        used = 0
        for _ in range(samples):
            try:
                a = sample_in_domain(sp, rng)
            except OutOfDomainError:
                continue
            y1 = random_hor_basic(rng, sp)
            y2 = random_hor_basic(rng, sp)
            sigma = random_section(rng, sp)
            max_curv = max(max_curv, _mx(self.curvature(y1, y2, sigma, a)))
            eta = tuple(random_polynomial(rng, sp.x_names) for _ in range(sp.k))
            max_mixed = max(max_mixed, _mx(self.berwald(eta, y2, sigma, a)))
            f1 = y1.as_field(self.conn)
            f2 = y2.as_field(self.conn)
            env = sp.point_env(a.x, a.y)
            for yname in sp.y_names:
                lifted = ad.lift_env(env, {yname: 1.0})
                comps = bracket_env(sp, f1, f2, lifted)
                kap = connector_env(self.conn, lifted, comps[: sp.n], comps[sp.n :])
                max_nonbasic = max(max_nonbasic, _mx([ad.dual_part(kv) for kv in kap]))
            used += 1
        if used == 0:
            raise OutOfDomainError("no in-domain sample points found")
        flat = max_curv <= BASIC_VERDICT_TOL
        basic_bracket = max_nonbasic <= BASIC_VERDICT_TOL
        return FlatnessReport(
            max_curvature=max_curv,
            max_nonbasic_defect=max_nonbasic,
            max_mixed_component=max_mixed,
            flat=flat,
            basic=max_mixed <= BASIC_VERDICT_TOL,
            equivalence_consistent=(flat == basic_bracket),
            samples=used,
            seed=seed,
            threshold=BASIC_VERDICT_TOL,
        )


@dataclass(frozen=True)
class FlatnessReport:
    max_curvature: float
    max_nonbasic_defect: float
    max_mixed_component: float
    flat: bool
    basic: bool
    equivalence_consistent: bool
    samples: int
    seed: int
    threshold: float

    @property
    def verdict(self) -> str:
        return "flat" if self.flat else "non-flat"

    @property
    def basic_verdict(self) -> str:
        return "basic" if self.basic else "non-basic"


@dataclass(frozen=True)
class LambdaFamilyMember:
    """Member of the one-parameter affine family of natural prolongations.

    Adds lam times the vertical lift of the connector to the linearized
    action; lam = 0 recovers the linearization exactly and is the only
    linear (equivalently, the only semibasic) member.
    """

    conn: NonlinearConnection
    lam: float

    @property
    def linearization(self) -> LinearizedConnection:
        return LinearizedConnection(self.conn)

    def apply(self, p: PullbackPoint, w: TangentE) -> TangentE:
        lin = self.linearization
        lin.space.require_in_domain(p.x, p.y)
        _check_leg(p, w)
        J = lin.fiber_jacobian_env(lin.space.point_env(p.x, p.y))
        G = None if self.lam == 0.0 else self.conn.gamma_at(w.at).ravel().tolist()
        dy = self.fiber_velocity(J, G, p.z.tolist(), w.dx.tolist(), w.dy.tolist())
        return TangentE(p.b, w.dx.copy(), np.array(dy))

    def fiber_velocity(self, J, G, z, dx, dy) -> list:
        """The formula of ``apply`` in plain floats: the linearization's
        fiber velocity plus lam times the connector dy + G dx.

        J [A, i, B] and G [A, i] are d_gamma and gamma at the first leg,
        flat as the compiled gamma gradients return them; G is not read when
        lam = 0.  The connector is dy minus ``horizontal_velocity(G, dx)``,
        which is dy[A] + (G[A][0] dx[0] + ...) summed left to right.  The
        transport check's reference loop calls this on compiled values, so a
        defect here fails that check.
        """
        base = LinearizedConnection.fiber_velocity(J, z, dx)
        if self.lam == 0.0:
            return base  # not base + 0 * kappa, which is NaN where kappa is infinite
        lam = self.lam
        return [b + lam * (d - v) for b, d, v in zip(base, dy, horizontal_velocity(G, dx))]

    def lift(self, p: PullbackPoint, w: TangentE) -> TangentPullback:
        return TangentPullback(p, w, self.apply(p, w))


def fiber_derivative_of_field(
    conn: NonlinearConnection, y: HorBasicField, p: PullbackPoint
) -> TangentE:
    """Fiber derivative of a hor-basic field at (a, b).

    The derivative of s -> Y(a + s*b) is vertical over the tangent of the
    base because the base components of Y do not depend on the fiber; its
    vertical projection is returned.  For hor-basic fields this equals the
    second component of the linearized horizontal lift of Y(a).
    """
    sp = conn.space
    sp.require_in_domain(p.x, p.y)
    env = sp.point_env(p.x, p.y)
    seeded = {
        name: ad.Dual1(env[name], (dz,)) for name, dz in zip(sp.y_names, p.z)
    }
    env_s = {**env, **seeded}
    field = y.as_field(conn)
    dx = np.array([ad.real_part(ex.evaluate(e, env_s)) for e in field.comp_x])
    dy = np.array([ad.dual_part(ex.evaluate(e, env_s)) for e in field.comp_y])
    return TangentE(p.b, dx, dy)
