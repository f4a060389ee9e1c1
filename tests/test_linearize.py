import numpy as np
import pytest

from linconn import ad
from linconn import expr as ex
from linconn.connection import HorBasicField, SectionAlongPi, bracket, bracket_env
from linconn.geom import (
    FiberPoint,
    OutOfDomainError,
    PullbackPoint,
    TangentE,
    TangentPullback,
    tau_add,
    tau_scale,
    vertical_lift,
)
from linconn.linearize import (
    LambdaFamilyMember,
    LinearizedConnection,
    fiber_derivative_of_field,
)
from linconn.sampling import (
    random_field,
    random_hor_basic,
    random_polynomial,
    random_section,
    sample_in_domain,
    sample_pullback,
    sample_tangent,
)
from linconn.specfile import loads

P0 = PullbackPoint([0.0], [1.0], [3.0])
A0 = P0.a


def lin_of(spec):
    return LinearizedConnection(spec.conn)


# ---------------------------------------------------------------------------
# fiber jacobian


def test_fiber_jacobian_examples(c0, c1, c3):
    assert lin_of(c1).fiber_jacobian(A0)[0, 0, 0] == pytest.approx(2.0)
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = sample_in_domain(c3.space, rng)
        J = lin_of(c3).fiber_jacobian(a)
        assert np.allclose(J[:, 0, :], np.diag([1.0, 2.0]))
    a0 = sample_in_domain(c0.space, rng)
    assert np.all(lin_of(c0).fiber_jacobian(a0) == 0.0)


@pytest.mark.parametrize("name", ["c0", "c1", "c2", "c3", "c4", "c5"])
def test_fiber_jacobian_on_a_plain_env_is_the_walk(all_specs, name):
    # the compiled gamma gradients, bitwise what ad.gradients walks
    spec = all_specs[name]
    sp = spec.space
    rng = np.random.default_rng(1)
    flat = [g for row in spec.conn.gamma for g in row]
    for _ in range(20):
        a = sample_in_domain(sp, rng)
        env = sp.point_env(a.x, a.y)
        grads = [grad for _, grad in ad.gradients(flat, env, sp.y_names)]
        want = np.array([grads[A * sp.n : (A + 1) * sp.n] for A in range(sp.k)])
        assert np.array(lin_of(spec).fiber_jacobian_env(env)).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the linearized action


def test_apply_worked_example(c1):
    lin = lin_of(c1)
    w = TangentE(A0, [1.0], [5.0])
    out = lin.apply(P0, w)
    assert np.array_equal(out.at.y, [3.0])
    assert out.dx == pytest.approx([1.0])
    assert out.dy == pytest.approx([-6.0])


def test_apply_kills_verticals_exactly(c1, c2, c4):
    rng = np.random.default_rng(2)
    for spec in (c1, c2, c4):
        lin = lin_of(spec)
        for _ in range(50):
            p = sample_pullback(spec.space, rng)
            vert = vertical_lift(p.a, rng.uniform(-1.5, 1.5, spec.space.k))
            out = lin.apply(p, vert)
            assert np.all(out.dx == 0.0) and np.all(out.dy == 0.0)


def test_apply_linear_conn_is_pullback(c3):
    lin = lin_of(c3)
    conn = c3.conn
    rng = np.random.default_rng(3)
    for _ in range(100):
        p = sample_pullback(c3.space, rng)
        w = sample_tangent(rng, p.a)
        out = lin.apply(p, w)
        ref = conn.horizontal_lift(p.b, w.dx)
        assert np.max(np.abs(out.dy - ref.dy)) <= 1e-12


def test_apply_by_limit_agrees(all_specs):
    rng = np.random.default_rng(4)
    for spec in all_specs.values():
        lin = lin_of(spec)
        for _ in range(100):
            p = sample_pullback(spec.space, rng)
            w = sample_tangent(rng, p.a)
            got = lin.apply(p, w)
            ref = lin.apply_by_limit(p, w)
            scale = 1.0 + np.max(np.abs(ref.dy))
            assert np.max(np.abs(got.dy - ref.dy)) <= 1e-9 * scale


def test_apply_requires_leg_and_domain(c4):
    lin = lin_of(c4)
    p = PullbackPoint([0.0], [0.0, 0.0], [1.0, 0.0])
    w = TangentE(p.a, [1.0], [0.0, 0.0])
    with pytest.raises(OutOfDomainError):
        lin.apply(p, w)
    good = PullbackPoint([0.0], [1.0, 0.0], [1.0, 0.0])
    stray = TangentE(FiberPoint([0.5], [1.0, 0.0]), [1.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        lin.apply(good, stray)


@pytest.mark.parametrize("method", ["apply", "apply_by_limit", "lambda_apply"])
@pytest.mark.parametrize(
    "wx", [[np.nan, 0.2], [0.1]], ids=["nan-foot", "other-base-dimension"]
)
def test_apply_rejects_a_tangent_not_at_the_first_leg(c2, method, wx):
    # a NaN foot passed the old leg test, and a length-1 foot broadcast
    # against x = (0.1, 0.1)
    p = PullbackPoint([0.1, 0.1], [1.0], [0.5])
    w = TangentE(FiberPoint(wx, [1.0]), np.ones(len(wx)), [0.0])
    lin = lin_of(c2)
    call = {
        "apply": lin.apply,
        "apply_by_limit": lin.apply_by_limit,
        "lambda_apply": LambdaFamilyMember(c2.conn, 0.5).apply,
    }[method]
    with pytest.raises(ValueError, match="tangent vector is not attached at the first leg"):
        call(p, w)


def test_slit_domain_additivity(c4):
    # the second leg is unconstrained: additivity holds on the slit domain
    lin = lin_of(c4)
    rng = np.random.default_rng(5)
    for _ in range(100):
        a = sample_in_domain(c4.space, rng)
        z1 = rng.uniform(-1.5, 1.5, 2)
        z2 = rng.uniform(-1.5, 1.5, 2)
        w = sample_tangent(rng, a)
        lhs = lin.apply(PullbackPoint(a.x, a.y, z1 + z2), w)
        rhs = tau_add(
            lin.apply(PullbackPoint(a.x, a.y, z1), w),
            lin.apply(PullbackPoint(a.x, a.y, z2), w),
        )
        assert np.max(np.abs(lhs.dy - rhs.dy)) <= 1e-12 * (1 + np.max(np.abs(lhs.dy)))
        lam = float(rng.uniform(-2, 2))
        hom = lin.apply(PullbackPoint(a.x, a.y, lam * z1), w)
        ref = tau_scale(lam, lin.apply(PullbackPoint(a.x, a.y, z1), w))
        assert np.max(np.abs(hom.dy - ref.dy)) <= 1e-12 * (1 + np.max(np.abs(ref.dy)))


def test_lift_basis_vectors(c1):
    lin = lin_of(c1)
    h1 = lin.lift(P0, TangentE(A0, [1.0], [0.0]))
    assert h1.w.dx == pytest.approx([1.0])
    assert h1.w2.dy == pytest.approx([-6.0])
    ha = lin.lift(P0, TangentE(A0, [0.0], [1.0]))
    assert np.all(ha.w2.dx == 0.0) and np.all(ha.w2.dy == 0.0)
    zero = lin.lift(P0, TangentE(A0, [0.0], [0.0]))
    assert np.all(zero.w.dy == 0.0) and np.all(zero.w2.dy == 0.0)


# ---------------------------------------------------------------------------
# lambda family


def test_lambda_examples(c1):
    lin = lin_of(c1)
    w = TangentE(A0, [1.0], [5.0])
    fam0 = LambdaFamilyMember(c1.conn, 0.0)
    out0 = fam0.apply(P0, w)
    ref = lin.apply(P0, w)
    assert np.array_equal(out0.dy, ref.dy) and np.array_equal(out0.dx, ref.dx)
    fam1 = LambdaFamilyMember(c1.conn, 1.0)
    assert fam1.apply(P0, w).dy == pytest.approx([0.0])


@pytest.mark.filterwarnings("error")
def test_lambda_zero_is_the_linearization_where_the_connector_is_infinite(c2):
    # gamma_1_1 = y1^2 is inf at y1 = 1e200, so kappa(w) is inf and
    # 0 * kappa(w) would be NaN
    p = PullbackPoint([0.0, 0.0], [1e200], [1.0])
    w = TangentE(p.a, [1.0, 0.0], [0.0])
    out = LambdaFamilyMember(c2.conn, 0.0).apply(p, w)
    assert out.dy.tolist() == LinearizedConnection(c2.conn).apply(p, w).dy.tolist() == [-2e200]


def test_lambda_affine_structure(c1, c2):
    rng = np.random.default_rng(6)
    for spec in (c1, c2):
        lin = lin_of(spec)
        for _ in range(100):
            lam = float(rng.uniform(-2, 2))
            fam = LambdaFamilyMember(spec.conn, lam)
            p = sample_pullback(spec.space, rng)
            z2 = rng.uniform(-1.5, 1.5, spec.space.k)
            w = sample_tangent(rng, p.a)
            lhs = fam.apply(PullbackPoint(p.x, p.y, p.z + z2), w)
            rhs = tau_add(fam.apply(p, w), lin.apply(PullbackPoint(p.x, p.y, z2), w))
            assert np.max(np.abs(lhs.dy - rhs.dy)) <= 1e-12 * (
                1 + np.max(np.abs(lhs.dy))
            )


def test_lambda_vertical_not_semibasic(c1):
    fam = LambdaFamilyMember(c1.conn, 1.0)
    vert = vertical_lift(A0, [2.0])
    out = fam.apply(P0, vert)
    assert np.max(np.abs(out.dy)) > 0.1  # lam*kappa(w) = lam*dy


# ---------------------------------------------------------------------------
# pullback connector


def test_pullback_connector_examples(c1):
    lin = lin_of(c1)
    w = TangentE(A0, [1.0], [5.0])
    t = lin.lift(P0, w)
    assert lin.connector(t) == pytest.approx([0.0])
    w2 = TangentE(P0.b, [1.0], [0.0])
    pair = TangentPullback(P0, w, w2)
    assert lin.connector(pair) == pytest.approx([6.0])
    c = np.array([0.25])
    vert_pair = TangentPullback(
        P0, TangentE(A0, [0.0], [0.0]), vertical_lift(P0.b, c)
    )
    assert lin.connector(vert_pair) == pytest.approx(c)


# ---------------------------------------------------------------------------
# covariant derivative


def test_covariant_derivative_examples(c0, c1):
    lin = lin_of(c1)
    sigma = SectionAlongPi((ex.parse("y1"),))
    w = TangentE(A0, [1.0], [0.0])
    assert lin.covariant_derivative(sigma, w) == pytest.approx([2.0])
    # basic sigma, vertical direction: zero
    basic = SectionAlongPi((ex.parse("x1"),))
    vert = vertical_lift(A0, [1.0])
    assert lin.covariant_derivative(basic, vert) == pytest.approx([0.0])
    # flat connection, constant basic section: zero for any direction
    lin0 = lin_of(c0)
    const = SectionAlongPi((ex.lit(2.0), ex.lit(-1.0)))
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = sample_in_domain(c0.space, rng)
        w = sample_tangent(rng, a)
        assert np.all(lin0.covariant_derivative(const, w) == 0.0)


def test_basic_iff_vertical_flat(all_specs):
    rng = np.random.default_rng(8)
    for spec in all_specs.values():
        lin = lin_of(spec)
        sp = spec.space
        basic = SectionAlongPi(tuple(random_polynomial(rng, sp.x_names) for _ in range(sp.k)))
        general = SectionAlongPi(
            tuple(ex.add(c, ex.parse("y1")) for c in basic.comp)
        )
        saw_nonzero = 0.0
        for _ in range(30):
            a = sample_in_domain(sp, rng)
            vert = vertical_lift(a, rng.uniform(-1.5, 1.5, sp.k))
            assert np.max(np.abs(lin.covariant_derivative(basic, vert))) <= 1e-12
            saw_nonzero = max(
                saw_nonzero, np.max(np.abs(lin.covariant_derivative(general, vert)))
            )
        assert saw_nonzero > 1e-3


def test_covariant_bracket_cross_formula(c0, c1, c2, c3):
    rng = np.random.default_rng(9)
    for spec in (c0, c1, c2, c3):
        lin = lin_of(spec)
        sp = spec.space
        for _ in range(50):
            a = sample_in_domain(sp, rng)
            sigma = random_section(rng, sp)
            w_field = random_field(rng, sp)
            direct = lin.covariant_derivative(sigma, w_field.at(sp, a))
            form = lin.covariant_derivative_bracket(sigma, w_field, a)
            assert np.max(np.abs(direct - form)) <= 1e-7


def test_covariant_bracket_vertical_direction_basic_section(c2):
    # a vertical direction field applied to a basic section gives zero
    lin = lin_of(c2)
    sp = c2.space
    rng = np.random.default_rng(30)
    sigma = SectionAlongPi((ex.parse("x1*x2"),))
    from linconn.connection import FieldOnE

    w_field = FieldOnE(
        (ex.lit(0.0), ex.lit(0.0)), (ex.parse("x1 + y1"),)
    )
    for _ in range(20):
        a = sample_in_domain(sp, rng)
        assert np.max(np.abs(lin.covariant_derivative_bracket(sigma, w_field, a))) <= 1e-12
        assert np.max(np.abs(lin.covariant_derivative(sigma, w_field.at(sp, a)))) <= 1e-12


def test_covariant_bracket_horizontal_case(c1):
    # for basic X and basic sigma the bracket term alone gives the derivative
    lin = lin_of(c1)
    sp = c1.space
    rng = np.random.default_rng(10)
    x_field = HorBasicField((ex.parse("x1"),), (ex.lit(0.0),))
    sigma = SectionAlongPi((ex.parse("x1*x1"),))
    sig_v = sigma.vertical_field(sp.n)
    for _ in range(20):
        a = sample_in_domain(sp, rng)
        xh = x_field.as_field(c1.conn)
        br = bracket(sp, xh, sig_v, a)
        lhs = c1.conn.connector(br)
        rhs = lin.covariant_derivative(sigma, x_field.at(c1.conn, a))
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


# ---------------------------------------------------------------------------
# Lie derivations


def test_lie_derivation_hor_basic_matches_covariant(c1, c2):
    rng = np.random.default_rng(11)
    for spec in (c1, c2):
        lin = lin_of(spec)
        sp = spec.space
        for _ in range(30):
            y = random_hor_basic(rng, sp)
            sigma = random_section(rng, sp)
            a = sample_in_domain(sp, rng)
            lie = lin.lie_derivation(y.as_field(spec.conn), sigma, a)
            cov = lin.covariant_derivative(sigma, y.at(spec.conn, a))
            assert np.max(np.abs(lie - cov)) <= 1e-7


def test_lie_derivation_basic_verticals_commute(c1):
    lin = lin_of(c1)
    sp = c1.space
    eta_v = SectionAlongPi((ex.parse("x1"),)).vertical_field(sp.n)
    sigma = SectionAlongPi((ex.lit(3.0),))
    a = FiberPoint([0.4], [0.8])
    assert lin.lie_derivation(eta_v, sigma, a) == pytest.approx([0.0])


def test_lie_derivation_rejects_nonprojectable(c1):
    from linconn.connection import FieldOnE, NotProjectableError

    lin = lin_of(c1)
    bad = FieldOnE((ex.parse("y1"),), (ex.lit(0.0),))
    with pytest.raises(NotProjectableError):
        lin.lie_derivation(bad, SectionAlongPi((ex.parse("y1"),)), A0)


def test_flow_derivation_difference_identity(c0, c1, c2, c3):
    from linconn.connection import kappa_section

    rng = np.random.default_rng(12)
    for spec in (c0, c1, c2, c3):
        lin = lin_of(spec)
        sp = spec.space
        for _ in range(50):
            a = sample_in_domain(sp, rng)
            sigma = random_section(rng, sp)
            y_field = random_field(rng, sp, projectable=True)
            lie = lin.lie_derivation(y_field, sigma, a)
            dy_sigma = lin.covariant_derivative(sigma, y_field.at(sp, a))
            corr = lin.covariant_derivative(
                kappa_section(spec.conn, y_field), vertical_lift(a, sigma.at(sp, a))
            )
            assert np.max(np.abs(lie - (dy_sigma - corr))) <= 1e-7


# ---------------------------------------------------------------------------
# curvature of the linearization


def test_vertical_vertical_curvature_zero(c1, c2, c4):
    rng = np.random.default_rng(13)
    for spec in (c1, c2, c4):
        lin = lin_of(spec)
        sp = spec.space
        zero_x = tuple(ex.lit(0.0) for _ in range(sp.n))
        for _ in range(20):
            a = sample_in_domain(sp, rng)
            eta1 = tuple(random_polynomial(rng, sp.x_names) for _ in range(sp.k))
            eta2 = tuple(random_polynomial(rng, sp.x_names) for _ in range(sp.k))
            sigma = random_section(rng, sp)
            out = lin.curvature(
                HorBasicField(zero_x, eta1), HorBasicField(zero_x, eta2), sigma, a
            )
            assert np.all(out == 0.0)


def test_berwald_hand_value(c1):
    lin = lin_of(c1)
    eta = (ex.lit(1.0),)
    y = HorBasicField((ex.lit(1.0),), (ex.lit(0.0),))
    sigma = SectionAlongPi((ex.parse("y1"),))
    theta = lin.berwald(eta, y, sigma, A0)
    assert abs(theta[0] - 2.0) <= 1e-9
    # defining equality with the general curvature
    eta_v = HorBasicField((ex.lit(0.0),), eta)
    ref = lin.curvature(eta_v, y, sigma, A0)
    assert np.max(np.abs(theta - ref)) <= 1e-6


def test_berwald_vanishes_for_linear(c3):
    lin = lin_of(c3)
    rng = np.random.default_rng(14)
    y = HorBasicField((ex.lit(1.0),), (ex.lit(0.0), ex.lit(0.0)))
    for _ in range(30):
        a = sample_in_domain(c3.space, rng)
        eta = tuple(random_polynomial(rng, c3.space.x_names) for _ in range(2))
        sigma = random_section(rng, c3.space)
        assert np.max(np.abs(lin.berwald(eta, y, sigma, a))) <= 1e-12


def test_riemann_component(c1, c2, c3):
    rng = np.random.default_rng(15)
    # trivial on a one-dimensional base and for the flat linear example
    for spec in (c1, c3):
        lin = lin_of(spec)
        for _ in range(10):
            a = sample_in_domain(spec.space, rng)
            sigma = random_section(rng, spec.space)
            out = lin.riemann([1.0], [1.0], sigma, a)
            assert np.max(np.abs(out)) <= 1e-12
    lin2 = lin_of(c2)
    zero_y = (ex.lit(0.0),)
    for _ in range(100):
        a = sample_in_domain(c2.space, rng)
        sigma = random_section(rng, c2.space)
        v1 = rng.uniform(-1.5, 1.5, 2)
        v2 = rng.uniform(-1.5, 1.5, 2)
        y1 = HorBasicField(tuple(ex.lit(c) for c in v1), zero_y)
        y2 = HorBasicField(tuple(ex.lit(c) for c in v2), zero_y)
        got = lin2.riemann(v1, v2, sigma, a)
        ref = lin2.curvature(y1, y2, sigma, a)
        assert np.max(np.abs(got - ref)) <= 1e-6


def test_curvature_vs_commutator(c1, c2, c4):
    rng = np.random.default_rng(16)
    for spec in (c1, c2, c4):
        lin = lin_of(spec)
        sp = spec.space
        for _ in range(40):
            a = sample_in_domain(sp, rng)
            y1 = random_hor_basic(rng, sp)
            y2 = random_hor_basic(rng, sp)
            sigma = random_section(rng, sp)
            closed = lin.curvature(y1, y2, sigma, a)
            comm = lin.curvature_commutator(y1, y2, sigma, a)
            assert np.max(np.abs(closed - comm)) <= 1e-5
            swapped = lin.curvature_commutator(y2, y1, sigma, a)
            assert np.max(np.abs(comm + swapped)) <= 1e-12 * (
                1 + np.max(np.abs(comm))
            )


def test_curvature_function_linear_in_sigma(c1, c2):
    rng = np.random.default_rng(17)
    for spec in (c1, c2):
        lin = lin_of(spec)
        sp = spec.space
        for _ in range(30):
            a = sample_in_domain(sp, rng)
            y1 = random_hor_basic(rng, sp)
            y2 = random_hor_basic(rng, sp)
            sigma = random_section(rng, sp)
            f = random_polynomial(rng, sp.x_names + sp.y_names)
            scaled = SectionAlongPi(tuple(ex.mul(f, c) for c in sigma.comp))
            f_a = ex.evaluate(f, sp.point_env(a.x, a.y))
            lhs = lin.curvature(y1, y2, scaled, a)
            rhs = f_a * lin.curvature(y1, y2, sigma, a)
            assert np.max(np.abs(lhs - rhs)) <= 1e-6 * (1 + np.max(np.abs(rhs)))


# ---------------------------------------------------------------------------
# flatness and the fiber derivative of fields


def test_flatness_reports(c0, c1, c3):
    assert lin_of(c0).flatness_report(16, seed=0).flat
    assert lin_of(c3).flatness_report(16, seed=0).flat
    r1 = lin_of(c1).flatness_report(16, seed=0)
    assert not r1.flat
    assert r1.equivalence_consistent
    assert r1.verdict == "non-flat"
    assert lin_of(c0).flatness_report(16, seed=0).max_curvature <= 1e-9
    assert lin_of(c3).flatness_report(16, seed=0).max_curvature <= 1e-9


# flatness_report(16, seed) for seeds 0..7: (max_curvature,
# max_nonbasic_defect, max_mixed_component, flat, basic,
# equivalence_consistent).  Every value is bitwise; a change that moves one
# lists the old and new value in CHANGES.md.
FLATNESS_PINS = {
    "c0": [(0.0, 0.0, 0.0, True, True, True)] * 8,
    "c1": [
        (4.497564497087718, 11.185229648575548, 3.933974816452859, False, False, True),
        (23.50081782529645, 8.4716662387025, 3.876556115205291, False, False, True),
        (14.152254779985805, 7.3227309526383895, 17.930264129532283, False, False, True),
        (9.638381460847391, 6.043912986407877, 2.592731648789534, False, False, True),
        (16.556261618863836, 22.275653628781882, 13.365317166762877, False, False, True),
        (28.503945287473574, 10.6549627439358, 14.118400158222846, False, False, True),
        (12.28023489828408, 7.927583749667411, 6.372411042290173, False, False, True),
        (4.307131896093339, 5.72104788100649, 13.000913610538788, False, False, True),
    ],
    "c2": [
        (25.35590141693917, 30.110211348057042, 9.844671191207178, False, False, True),
        (26.184920723809174, 8.127856068453383, 14.359192249718243, False, False, True),
        (6.413109949518745, 4.877049588981405, 7.374795124468706, False, False, True),
        (50.485275703122745, 42.040914424082054, 7.78493579641682, False, False, True),
        (36.11230881819975, 14.791877875471283, 9.014111754924167, False, False, True),
        (21.805057130402623, 15.836829885039378, 21.02808161333065, False, False, True),
        (20.327767732817087, 10.653832824506727, 6.015707515008027, False, False, True),
        (11.84785511440134, 14.076333814936788, 5.628094173678479, False, False, True),
    ],
    "c3": [
        (0.0, 8.881784197001252e-16, 0.0, True, True, True),
        (0.0, 8.881784197001252e-16, 0.0, True, True, True),
        (0.0, 4.440892098500626e-16, 0.0, True, True, True),
        (0.0, 1.7763568394002505e-15, 0.0, True, True, True),
        (0.0, 8.881784197001252e-16, 0.0, True, True, True),
        (0.0, 8.881784197001252e-16, 0.0, True, True, True),
        (0.0, 3.552713678800501e-15, 0.0, True, True, True),
        (0.0, 8.881784197001252e-16, 0.0, True, True, True),
    ],
    "c4": [
        (6.099482922633499, 3.6983465007583014, 3.5086364163109667, False, False, True),
        (11.674692566479463, 3.806414318393869, 1.9463893279139888, False, False, True),
        (7.29207249781606, 6.645527246527938, 1.8969155799959965, False, False, True),
        (7.237234999259676, 3.308156176012649, 3.640730922236937, False, False, True),
        (3.5700716917802353, 2.8035031686362792, 5.861446442294927, False, False, True),
        (10.078020875082492, 5.470250602388516, 2.159300337842386, False, False, True),
        (2.5691796448032767, 3.2296371814090596, 4.727972350489597, False, False, True),
        (13.914963799534267, 7.591340551598261, 3.3257622837734706, False, False, True),
    ],
    "c5": [
        (22.303592832348397, 15.895807026834813, 5.6630327187849545, False, False, True),
        (5.635822851484197, 8.062625958915469, 7.420729495846108, False, False, True),
        (155.02071754214865, 39.93002074905285, 30.27631750875122, False, False, True),
        (10.589141038352203, 6.936909089098663, 2.7392317524290712, False, False, True),
        (36.85386775226182, 27.6544084483357, 11.558815785763658, False, False, True),
        (14.952588523659678, 15.39144739646536, 13.802678037541968, False, False, True),
        (20.30762671401626, 30.589380412088914, 5.763884095382782, False, False, True),
        (21.891383051458583, 7.401193249143748, 37.752986618153315, False, False, True),
    ],
}


@pytest.mark.parametrize("name", sorted(FLATNESS_PINS))
def test_flatness_reports_are_pinned(all_specs, name):
    lin = lin_of(all_specs[name])
    got = []
    for seed in range(8):
        r = lin.flatness_report(16, seed)
        got.append(
            (r.max_curvature, r.max_nonbasic_defect, r.max_mixed_component,
             r.flat, r.basic, r.equivalence_consistent)
        )
    assert got == FLATNESS_PINS[name]


def test_a_non_finite_curvature_sample_reads_as_non_flat():
    # the curvature at the first draw is [nan]; max(0.0, nan) kept 0.0, so
    # the report used to read flat with max_curvature 0.0
    spec = loads(
        '[space]\nbase_dim = 2\nfiber_dim = 1\n[connection]\n'
        'gamma_1_1 = "1e200*y1^2*x2"\ngamma_1_2 = "1e200*y1*x1"\n'
    )
    report = lin_of(spec).flatness_report(samples=8)
    assert report.max_curvature == np.inf and report.max_nonbasic_defect == np.inf
    assert (report.flat, report.verdict, report.equivalence_consistent) == (False, "non-flat", True)


@pytest.mark.parametrize("samples", [0, -1, -16])
def test_flatness_report_needs_at_least_one_sample(c1, samples):
    # a bad count is the caller's error, not a domain error
    with pytest.raises(ValueError, match="at least 1 sample") as err:
        lin_of(c1).flatness_report(samples, seed=0)
    assert not isinstance(err.value, OutOfDomainError)


def test_fiber_derivative_of_field_matches_lift(all_specs):
    rng = np.random.default_rng(18)
    for spec in all_specs.values():
        lin = lin_of(spec)
        for _ in range(30):
            p = sample_pullback(spec.space, rng)
            y = random_hor_basic(rng, spec.space)
            got = fiber_derivative_of_field(spec.conn, y, p)
            ref = lin.lift(p, y.at(spec.conn, p.a)).w2
            scale = 1.0 + np.max(np.abs(ref.dy))
            assert np.max(np.abs(got.dy - ref.dy)) <= 1e-9 * scale
            assert np.max(np.abs(got.dx - ref.dx)) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# analytic oracles, derived by hand for the shipped examples


def test_curvature_analytic_oracle_quadratic(c1):
    # gamma = y^2 on a line bundle: R = 0 and the curvature on hor-basic
    # pairs reduces to -2*sigma*(X1*eta2 - X2*eta1)
    lin = lin_of(c1)
    sp = c1.space
    rng = np.random.default_rng(20)
    for _ in range(50):
        a = sample_in_domain(sp, rng)
        y1 = random_hor_basic(rng, sp)
        y2 = random_hor_basic(rng, sp)
        sigma = random_section(rng, sp)
        env = sp.point_env(a.x, a.y)
        x1v = ex.evaluate(y1.X[0], env)
        x2v = ex.evaluate(y2.X[0], env)
        e1v = ex.evaluate(y1.eta[0], env)
        e2v = ex.evaluate(y2.eta[0], env)
        sig = ex.evaluate(sigma.comp[0], env)
        expected = -2.0 * sig * (x1v * e2v - x2v * e1v)
        got = lin.curvature(y1, y2, sigma, a)
        assert abs(got[0] - expected) <= 1e-9 * (1.0 + abs(expected))


def test_riemann_analytic_oracle_c2(c2):
    # gamma = (y^2, x1*y): R(e1, e2) = -y - x1*y^2, so the base-base
    # curvature component is sigma*(1 + 2*x1*y)
    lin = lin_of(c2)
    sp = c2.space
    rng = np.random.default_rng(21)
    for _ in range(50):
        a = sample_in_domain(sp, rng)
        sigma = random_section(rng, sp)
        env = sp.point_env(a.x, a.y)
        sig = ex.evaluate(sigma.comp[0], env)
        x1v, yv = a.x[0], a.y[0]
        r = c2.conn.curvature(a, [1.0, 0.0], [0.0, 1.0])
        assert abs(r[0] - (-yv - x1v * yv**2)) <= 1e-9 * (1.0 + abs(r[0]))
        rie = lin.riemann([1.0, 0.0], [0.0, 1.0], sigma, a)
        expected = sig * (1.0 + 2.0 * x1v * yv)
        assert abs(rie[0] - expected) <= 1e-9 * (1.0 + abs(expected))


def test_berwald_analytic_oracle_slit_norm(c4):
    # gamma = (|y|, 0): the mixed component against X = d/dx1 is
    # theta^1 = (sigma . eta)/|y| - (y . eta)(y . sigma)/|y|^3, theta^2 = 0
    lin = lin_of(c4)
    sp = c4.space
    rng = np.random.default_rng(22)
    x_field = HorBasicField((ex.lit(1.0),), (ex.lit(0.0), ex.lit(0.0)))
    for _ in range(50):
        a = sample_in_domain(sp, rng)
        eta = tuple(random_polynomial(rng, sp.x_names) for _ in range(2))
        sigma = random_section(rng, sp)
        env = sp.point_env(a.x, a.y)
        eta_v = np.array([ex.evaluate(e, env) for e in eta])
        sig_v = np.array([ex.evaluate(c, env) for c in sigma.comp])
        norm = float(np.linalg.norm(a.y))
        expected1 = float(
            np.dot(sig_v, eta_v) / norm
            - np.dot(a.y, eta_v) * np.dot(a.y, sig_v) / norm**3
        )
        got = lin.berwald(eta, x_field, sigma, a)
        assert abs(got[0] - expected1) <= 1e-8 * (1.0 + abs(expected1))
        assert got[1] == pytest.approx(0.0, abs=1e-12)


# A curved linear connection, gamma^A_i = Gamma^A_iB(x) y^B: its
# linearization is the pullback connection, whose curvature is the classical
# R^A_Bij = d_i Gamma^A_jB - d_j Gamma^A_iB + Gamma^A_iC Gamma^C_jB - Gamma^A_jC Gamma^C_iB.
CURVED_LINEAR = """
[space]
base_dim = 2
fiber_dim = 2
[connection]
gamma_1_1 = "x2*y1 + y2"
gamma_1_2 = "x1*y2"
gamma_2_1 = "-y1 + x1*y2"
gamma_2_2 = "x2*y1"
"""


def _christoffel(x):
    """Gamma[A][i][B] of CURVED_LINEAR and its x-derivatives dGamma[j][A][i][B]."""
    x1, x2 = x
    gamma = np.array([[[x2, 1.0], [0.0, x1]], [[-1.0, x1], [x2, 0.0]]])
    d = np.zeros((2, 2, 2, 2))
    d[1, 0, 0, 0] = 1.0  # d/dx2 of Gamma^1_11 = x2
    d[0, 0, 1, 1] = 1.0  # d/dx1 of Gamma^1_22 = x1
    d[0, 1, 0, 1] = 1.0  # d/dx1 of Gamma^2_12 = x1
    d[1, 1, 1, 0] = 1.0  # d/dx2 of Gamma^2_21 = x2
    return gamma, d


def _classical_riemann(x, v1, v2) -> np.ndarray:
    """The matrix R(v1, v2)^A_B = R^A_Bij v1^i v2^j, by hand."""
    g, d = _christoffel(x)
    r = np.einsum("iajb->abij", d) - np.einsum("jaib->abij", d)
    r += np.einsum("aic,cjb->abij", g, g) - np.einsum("ajc,cib->abij", g, g)
    return np.einsum("abij,i,j->ab", r, v1, v2)


def _rel_err(got, want) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def test_a_curved_linear_connection_has_the_classical_curvature():
    spec = loads(CURVED_LINEAR)
    sp, conn = spec.space, spec.conn
    lin = LinearizedConnection(conn)
    rng = np.random.default_rng(0)
    worst = {"riemann": 0.0, "connection": 0.0, "hor-basic": 0.0}
    for _ in range(50):
        a = sample_in_domain(sp, rng)
        v1, v2 = rng.uniform(-1.5, 1.5, 2), rng.uniform(-1.5, 1.5, 2)
        sigma = random_section(rng, sp)
        y1, y2 = random_hor_basic(rng, sp), random_hor_basic(rng, sp)
        env = sp.point_env(a.x, a.y)
        sig = np.array([ex.evaluate(c, env) for c in sigma.comp])
        r = _classical_riemann(a.x, v1, v2)
        worst["riemann"] = max(worst["riemann"], _rel_err(lin.riemann(v1, v2, sigma, a), r @ sig))
        worst["connection"] = max(worst["connection"], _rel_err(conn.curvature(a, v1, v2), -(r @ a.y)))
        # eta drops out on hor-basic pairs, as the pullback connection predicts
        X1 = np.array([ex.evaluate(e, env) for e in y1.X])
        X2 = np.array([ex.evaluate(e, env) for e in y2.X])
        got = lin.curvature(y1, y2, sigma, a)
        worst["hor-basic"] = max(worst["hor-basic"], _rel_err(got, _classical_riemann(a.x, X1, X2) @ sig))
    assert max(worst.values()) <= 1e-13, worst


def test_basic_verdicts(c0, c1, c3, c4):
    assert lin_of(c0).flatness_report(16, seed=0).basic
    assert lin_of(c3).flatness_report(16, seed=0).basic
    r1 = lin_of(c1).flatness_report(16, seed=0)
    assert not r1.basic and r1.basic_verdict == "non-basic"
    assert not lin_of(c4).flatness_report(16, seed=0).basic


@pytest.mark.filterwarnings("error")
def test_covariant_sums_overflow_without_a_numpy_warning():
    # gamma's fiber Jacobian 2e200*y1 overflows the float products of the
    # covariant-derivative sums; they give inf or nan and print nothing
    spec = loads('[space]\nbase_dim = 2\nfiber_dim = 1\n[connection]\ngamma_1_1 = "1e200*y1^2"\ngamma_1_2 = "0"\n')
    lin = LinearizedConnection(spec.conn)
    sigma = SectionAlongPi((ex.parse("y1"),))
    a = FiberPoint([0.0, 0.0], [1e100])
    assert np.isnan(lin.covariant_derivative(sigma, TangentE(a, [0.0, 1.0], [1.0]))).all()
    y1 = HorBasicField((ex.lit(1.0), ex.lit(0.0)), (ex.lit(0.0),))
    y2 = HorBasicField((ex.lit(0.0), ex.lit(1.0)), (ex.lit(0.0),))
    for y in (1.0, 1e50, 1e100):
        comm = lin.curvature_commutator(y1, y2, sigma, FiberPoint([0.0, 0.0], [y]))
        assert not np.isfinite(comm).all()


# ---------------------------------------------------------------------------
# contracted derivatives against gradient-then-contract references

SPEC_NAMES = ["c0", "c1", "c2", "c3", "c4", "c5"]
ULPS = 8  # allowed difference, in units of eps times the largest summand


def _parts(v):
    return ad.real_part(v), ad.dual_part(v)


class _GradientThenContract:
    """``bracket_env``, ``LinearizedConnection._cov_env`` and the vertical
    curvature components written as full gradients (``ad.partials_in``)
    contracted term by term.

    ``largest`` is the largest magnitude, value or outer part, of any
    summand or partial sum formed: the scale of the rounding that a
    different summation order may move.
    """

    def __init__(self):
        self.largest = 1.0

    def _add(self, s, term):
        s = s + term
        self.largest = max(self.largest, *map(abs, _parts(term)), *map(abs, _parts(s)))
        return s

    def bracket_env(self, space, w1, w2, env):
        names = space.x_names + space.y_names
        m = len(names)
        c1 = [ex.evaluate(w1.component(i), env) for i in range(m)]
        c2 = [ex.evaluate(w2.component(i), env) for i in range(m)]
        out = []
        for alpha in range(m):
            g2 = ad.partials_in(w2.component(alpha), env, names)
            g1 = ad.partials_in(w1.component(alpha), env, names)
            s = 0.0
            for beta in range(m):
                s = self._add(s, c1[beta] * g2[beta])
                s = self._add(s, -(c2[beta] * g1[beta]))
            out.append(s)
        return out

    def cov_env(self, lin, comps, dir_x, dir_y, env):
        sp = lin.space
        J = [[ad.partials_in(g, env, sp.y_names) for g in row] for row in lin.conn.gamma]
        vals = [ex.evaluate(c, env) for c in comps]
        out = []
        for A in range(sp.k):
            grads = ad.partials_in(comps[A], env, sp.x_names + sp.y_names)
            s = 0.0
            for d, g in zip([*dir_x, *dir_y], grads):
                s = self._add(s, g * d)
            for i in range(sp.n):
                for B in range(sp.k):
                    s = self._add(s, J[A][i][B] * vals[B] * dir_x[i])
            out.append(s)
        return out

    def vertical_curvatures(self, lin, v1, v2, eta1, eta2, sigma, a):
        """-d_sigma R(v1, v2) - H(sigma)(eta2 v1 - eta1 v2) and H(sigma) eta2 v1
        from gamma and its full gradient walked over the env lifted along
        (0, sigma(a)), summed over every (i, j) and every (i, B)."""
        sp = lin.space
        n, k = sp.n, sp.k
        env = sp.point_env(a.x, a.y)
        sig = [ex.evaluate(c, env) for c in sigma.comp]
        lifted = ad.lift_env(env, dict(zip(sp.y_names, sig)))
        G = [[ex.evaluate(g, lifted) for g in row] for row in lin.conn.gamma]
        dG = [[ad.partials_in(g, lifted, sp.x_names + sp.y_names) for g in row] for row in lin.conn.gamma]
        curv, berwald = [], []
        for A in range(k):
            s = 0.0
            for i in range(n):
                for j in range(n):
                    s = self._add(s, v1[i] * v2[j] * dG[A][i][j])
                    s = self._add(s, -(v1[i] * v2[j] * dG[A][j][i]))
                    for B in range(k):
                        s = self._add(s, v1[i] * v2[j] * G[B][i] * dG[A][j][n + B])
                        s = self._add(s, -(v1[i] * v2[j] * G[B][j] * dG[A][i][n + B]))
            h, t = 0.0, ad.dual_part(s)
            for i in range(n):
                for B in range(k):
                    H = ad.dual_part(dG[A][i][n + B])
                    h = self._add(h, H * eta2[B] * v1[i])
                    t = self._add(t, H * eta2[B] * v1[i])
                    t = self._add(t, -(H * eta1[B] * v2[i]))
            curv.append(-t)
            berwald.append(h)
        return curv, berwald


def _assert_within_ulps(got, want, scale):
    bound = ULPS * np.finfo(float).eps * scale
    for g, w in zip(got, want, strict=True):
        for gp, wp in zip(_parts(g), _parts(w)):
            assert abs(gp - wp) <= bound, (got, want, scale)


def _moving_env(rng, sp, a):
    """The env at a lifted along a random direction in every coordinate."""
    names = sp.x_names + sp.y_names
    direction = dict(zip(names, rng.uniform(-1.5, 1.5, len(names)).tolist()))
    return ad.lift_env(sp.point_env(a.x, a.y), direction)


@pytest.mark.parametrize("name", SPEC_NAMES)
def test_bracket_env_is_the_contracted_gradient(all_specs, name):
    sp = all_specs[name].space
    rng = np.random.default_rng(31)
    seed_moves = False
    for _ in range(40):
        a = sample_in_domain(sp, rng)
        w1, w2 = random_field(rng, sp), random_field(rng, sp)
        lifted = _moving_env(rng, sp, a)
        for env in (sp.point_env(a.x, a.y), lifted):
            ref = _GradientThenContract()
            want = ref.bracket_env(sp, w1, w2, env)
            _assert_within_ulps(bracket_env(sp, w1, w2, env), want, ref.largest)
        # on the lifted env the contracting vector w1 has an outer derivative
        seed_moves |= any(ad.dual_part(ex.evaluate(c, lifted)) != 0.0 for c in w1.comp_x + w1.comp_y)
    assert seed_moves


@pytest.mark.parametrize("name", SPEC_NAMES)
def test_covariant_derivative_is_the_contracted_gradient(all_specs, name):
    sp = all_specs[name].space
    lin = lin_of(all_specs[name])
    rng = np.random.default_rng(32)
    for _ in range(40):
        a = sample_in_domain(sp, rng)
        sigma = random_section(rng, sp)
        w = sample_tangent(rng, a)
        ref = _GradientThenContract()
        env = sp.point_env(a.x, a.y)
        want = ref.cov_env(lin, sigma.comp, w.dx.tolist(), w.dy.tolist(), env)
        _assert_within_ulps(lin.covariant_derivative(sigma, w), want, ref.largest)
        # a lifted direction whose components move along the lifted env
        lifted = _moving_env(rng, sp, a)
        names = sp.x_names + sp.y_names
        direction = [ex.evaluate(random_polynomial(rng, names), lifted) for _ in names]
        assert any(ad.dual_part(d) != 0.0 for d in direction)
        ref = _GradientThenContract()
        want = ref.cov_env(lin, sigma.comp, direction[: sp.n], direction[sp.n :], lifted)
        got = lin._cov_env(sigma.comp, direction[: sp.n], direction[sp.n :], lifted)
        _assert_within_ulps(got, want, ref.largest)


@pytest.mark.parametrize("name", SPEC_NAMES)
def test_curvature_and_berwald_are_the_contracted_gradients(all_specs, name):
    # the second-order pass contracted by curvature_sum and fiber_velocity,
    # against gamma's gradient walked with Dual2 and summed term by term
    sp = all_specs[name].space
    lin = lin_of(all_specs[name])
    rng = np.random.default_rng(33)
    for _ in range(20):
        a = sample_in_domain(sp, rng)
        y1, y2 = random_hor_basic(rng, sp), random_hor_basic(rng, sp)
        sigma = random_section(rng, sp)
        eta = tuple(random_polynomial(rng, sp.x_names) for _ in range(sp.k))
        env = sp.point_env(a.x, a.y)
        X1, X2, eta1, eta2, eta_v = (
            [ex.evaluate(e, env) for e in comps] for comps in (y1.X, y2.X, y1.eta, y2.eta, eta)
        )
        ref = _GradientThenContract()
        curv, _ = ref.vertical_curvatures(lin, X1, X2, eta1, eta2, sigma, a)
        _assert_within_ulps(lin.curvature(y1, y2, sigma, a), curv, ref.largest)
        ref = _GradientThenContract()
        _, berwald = ref.vertical_curvatures(lin, X1, X2, eta1, eta_v, sigma, a)
        _assert_within_ulps(lin.berwald(eta, y1, sigma, a), berwald, ref.largest)
        ref = _GradientThenContract()
        zero = [0.0] * sp.k
        riemann, _ = ref.vertical_curvatures(lin, X1, X2, zero, zero, sigma, a)
        _assert_within_ulps(lin.riemann(X1, X2, sigma, a), riemann, ref.largest)


def test_curvature_rejects_fields_of_another_dimension(c5):
    # the second-order pass is laid out for n = 2 base and k = 2 fiber
    # components; a field of other lengths has no place in it
    lin = lin_of(c5)
    a = FiberPoint([0.1, 0.2], [1.0, 0.5])
    sigma = SectionAlongPi((ex.parse("y1"), ex.parse("y2")))
    good = HorBasicField((ex.lit(1.0), ex.lit(0.0)), (ex.lit(0.0), ex.lit(1.0)))
    wide = HorBasicField((ex.lit(1.0),) * 3, (ex.lit(0.0), ex.lit(1.0)))
    narrow = HorBasicField((ex.lit(1.0), ex.lit(0.0)), (ex.lit(0.0),))
    for bad in (wide, narrow):
        with pytest.raises(ValueError, match="2 base and 2 fiber components"):
            lin.curvature(good, bad, sigma, a)
        with pytest.raises(ValueError, match="2 base and 2 fiber components"):
            lin.berwald(bad.eta, bad, sigma, a)
