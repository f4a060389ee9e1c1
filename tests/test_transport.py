import math

import numpy as np
import pytest

from linconn import expr as ex
from linconn.connection import HorBasicField
from linconn.geom import FiberPoint, OutOfDomainError, PullbackPoint
from linconn.linearize import LambdaFamilyMember, LinearizedConnection
from linconn.specfile import loads
from linconn.transport import (
    BLOCK_STEPS,
    CurveInE,
    fiber_derivative_flow,
    flow,
    knot_time,
    rk4,
    transport_coefficients,
    transport_ode,
)

E_MINUS_2 = math.exp(-2.0)


def test_curve_state():
    curve = CurveInE((ex.parse("t^2"),), (ex.parse("sin(t)"),), 0.0, 1.0)
    x, y, xd, yd = curve.state(0.5)
    assert x == pytest.approx([0.25]) and xd == pytest.approx([1.0])
    assert y == pytest.approx([math.sin(0.5)]) and yd == pytest.approx([math.cos(0.5)])
    with pytest.raises(ValueError):
        CurveInE((ex.parse("x1"),), (ex.lit(0.0),), 0.0, 1.0)


def test_closed_form_exponential(c1):
    lin = LinearizedConnection(c1.conn)
    res = transport_ode(lin, c1.curves["line"], [1.0], 1000)
    assert abs(res.z_final[0] - E_MINUS_2) <= 1e-9
    assert res.method == "RK4" and res.steps == 1000


def test_rk4_order_ratio(c1):
    lin = LinearizedConnection(c1.conn)
    curve = c1.curves["line"]
    e16 = abs(transport_ode(lin, curve, [1.0], 16).z_final[0] - E_MINUS_2)
    e32 = abs(transport_ode(lin, curve, [1.0], 32).z_final[0] - E_MINUS_2)
    assert 12.0 <= e16 / e32 <= 20.0


def test_flat_transport_constant(c0):
    lin = LinearizedConnection(c0.conn)
    res = transport_ode(lin, c0.curves["diagonal"], [0.3, -0.7], 100)
    assert np.array_equal(res.z_final, [0.3, -0.7])


def test_vertical_curve_identity_exact(c1):
    lin = LinearizedConnection(c1.conn)
    res = transport_ode(lin, c1.curves["vertical"], [0.7], 250)
    assert res.z_final[0] == 0.7


def test_vertical_curve_lambda_not_identity(c1):
    fam = LambdaFamilyMember(c1.conn, 1.0)
    res = transport_ode(fam, c1.curves["vertical"], [0.7], 250)
    # dz = lam * (y(1) - y(0)) = 1
    assert res.z_final[0] == pytest.approx(1.7, abs=1e-9)
    assert res.z_final[0] != 0.7


def test_transport_linear_in_initial_vector(c2):
    lin = LinearizedConnection(c2.conn)
    curve = c2.curves["sweep"]
    rng = np.random.default_rng(1)
    for _ in range(20):
        z1 = rng.uniform(-1.5, 1.5, 1)
        z2 = rng.uniform(-1.5, 1.5, 1)
        al, be = rng.uniform(-2, 2, 2)
        t1 = transport_ode(lin, curve, z1, 200).z_final
        t2 = transport_ode(lin, curve, z2, 200).z_final
        t12 = transport_ode(lin, curve, al * z1 + be * z2, 200).z_final
        assert np.max(np.abs(t12 - (al * t1 + be * t2))) <= 1e-9 * (
            1 + np.max(np.abs(t12))
        )


def test_transport_reversible(c1, c2, c4):
    rng = np.random.default_rng(2)
    for spec in (c1, c2, c4):
        lin = LinearizedConnection(spec.conn)
        for name, curve in spec.curves.items():
            back = CurveInE(curve.comp_x, curve.comp_y, curve.t1, curve.t0)
            z0 = rng.uniform(-1.5, 1.5, spec.space.k)
            fwd = transport_ode(lin, curve, z0, 1000).z_final
            rtn = transport_ode(lin, back, fwd, 1000).z_final
            assert np.max(np.abs(rtn - z0)) <= 1e-7


def test_transport_records_trajectory(c1):
    lin = LinearizedConnection(c1.conn)
    res = transport_ode(lin, c1.curves["line"], [1.0], 64, record=8)
    assert res.trajectory is not None
    t0, x0, y0, z0 = res.trajectory[0]
    tn, xn, yn, zn = res.trajectory[-1]
    assert t0 == 0.0 and z0[0] == 1.0
    assert tn == pytest.approx(1.0) and zn[0] == res.z_final[0]


def test_transport_domain_abort_names_parameter(c4):
    lin = LinearizedConnection(c4.conn)
    # y passes through the puncture at t = 0.5
    curve = CurveInE(
        (ex.parse("t"),), (ex.parse("1 - 2*t"), ex.lit(0.0)), 0.0, 1.0
    )
    with pytest.raises(OutOfDomainError) as err:
        transport_ode(lin, curve, [1.0, 0.0], 10)
    assert "t = " in str(err.value)


def test_flow_of_vertical_field_is_translation(c1, c2):
    rng = np.random.default_rng(3)
    for spec in (c1, c2):
        sp = spec.space
        eta = tuple(ex.lit(float(rng.uniform(-1, 1))) for _ in range(sp.k))
        y = HorBasicField(tuple(ex.lit(0.0) for _ in range(sp.n)), eta)
        a = FiberPoint(rng.uniform(-1, 1, sp.n), rng.uniform(-1, 1, sp.k))
        s = 0.8
        end = flow(spec.conn, y, a, s, 50)
        eta_v = np.array([e.value for e in eta])
        assert np.max(np.abs(end.x - a.x)) <= 1e-12
        assert np.max(np.abs(end.y - (a.y + s * eta_v))) <= 1e-12


def test_flow_zero_field_fixes_points(c1):
    y = HorBasicField((ex.lit(0.0),), (ex.lit(0.0),))
    a = FiberPoint([0.3], [0.9])
    end = flow(c1.conn, y, a, 1.0, 20)
    assert np.array_equal(end.x, a.x) and np.array_equal(end.y, a.y)


def test_flow_flat_decoupled(c0):
    # constant base field over a flat connection: x advances, y drifts by eta
    y = HorBasicField(
        (ex.lit(1.0), ex.lit(0.0)), (ex.parse("x1"), ex.lit(0.0))
    )
    a = FiberPoint([0.0, 0.0], [1.0, 2.0])
    end = flow(c0.conn, y, a, 1.0, 400)
    assert end.x == pytest.approx([1.0, 0.0])
    # ydot_1 = x1(t) = t so y_1(1) = 1 + 1/2
    assert end.y == pytest.approx([1.5, 2.0], abs=1e-10)


def test_flow_composition(c1, c2):
    rng = np.random.default_rng(4)
    for spec in (c1, c2):
        sp = spec.space
        y = HorBasicField(
            tuple(ex.lit(1.0) for _ in range(sp.n)),
            tuple(ex.lit(0.25) for _ in range(sp.k)),
        )
        a = FiberPoint(rng.uniform(-0.5, 0.5, sp.n), rng.uniform(-0.5, 0.5, sp.k))
        whole = flow(spec.conn, y, a, 0.8, 256)
        half = flow(spec.conn, y, flow(spec.conn, y, a, 0.4, 128), 0.4, 128)
        assert np.max(np.abs(whole.x - half.x)) <= 1e-7
        assert np.max(np.abs(whole.y - half.y)) <= 1e-7


def test_fiber_derivative_flow_vertical_field(c1):
    # vertical basic field: the flow translates the fiber, transport is identity
    y = HorBasicField((ex.lit(0.0),), (ex.lit(0.5),))
    p = PullbackPoint([0.2], [1.0], [0.6])
    end, dz = fiber_derivative_flow(c1.conn, y, p, 1.0, 50)
    assert np.max(np.abs(end.y - 1.5)) <= 1e-12
    assert np.array_equal(dz, [0.6])


def test_fiber_derivative_flow_constant_for_flat(c0):
    y = HorBasicField((ex.lit(1.0), ex.lit(-1.0)), (ex.lit(0.0), ex.lit(0.0)))
    p = PullbackPoint([0.0, 0.0], [1.0, 1.0], [0.3, -0.2])
    _, dz = fiber_derivative_flow(c0.conn, y, p, 1.0, 50)
    assert np.array_equal(dz, [0.3, -0.2])


def test_fiber_derivative_flow_matches_transport_on_flow_line(c1):
    # flow of the unit horizontal field from (0,1): x = t, y = 1/(1+t)
    y = c1.fields["unit"]
    p = PullbackPoint([0.0], [1.0], [1.0])
    end, dz = fiber_derivative_flow(c1.conn, y, p, 1.0, 2000)
    assert end.x == pytest.approx([1.0], abs=1e-10)
    assert end.y == pytest.approx([0.5], abs=1e-10)
    lin = LinearizedConnection(c1.conn)
    along = transport_ode(lin, c1.curves["flowline"], [1.0], 2000)
    assert abs(dz[0] - along.z_final[0]) <= 1e-6
    # closed form: z(s) = z0/(1+s)^2
    assert abs(dz[0] - 0.25) <= 1e-9


def test_fiber_derivative_flow_bump_oracle(c2):
    rng = np.random.default_rng(5)
    conn = c2.conn
    eps = 1e-6
    for _ in range(5):
        y = HorBasicField(
            (ex.lit(1.0), ex.parse("x1")), (ex.parse("x2"),)
        )
        p = PullbackPoint(rng.uniform(-0.5, 0.5, 2), rng.uniform(-0.5, 0.5, 1),
                          rng.uniform(-1, 1, 1))
        end, dz = fiber_derivative_flow(conn, y, p, 0.7, 300)
        up = flow(conn, y, FiberPoint(p.x, p.y + eps * p.z), 0.7, 300)
        dn = flow(conn, y, FiberPoint(p.x, p.y - eps * p.z), 0.7, 300)
        bump = (up.y - dn.y) / (2 * eps)
        assert np.max(np.abs(dz - bump)) <= 1e-5 * (1 + np.max(np.abs(bump)))


def test_transport_rejects_bad_args(c1):
    lin = LinearizedConnection(c1.conn)
    with pytest.raises(ValueError):
        transport_ode(lin, c1.curves["line"], [1.0], 0)
    with pytest.raises(ValueError):
        transport_ode(lin, c1.curves["line"], [1.0, 2.0], 10)


def _final(gen):
    for t, state in gen:
        pass
    return t, state


@pytest.mark.parametrize("steps", [1, 2, 3, 7, 10])
def test_rk4_exact_on_quartic(steps):
    # Simpson's rule is exact for cubics, so RK4 on z' = 4t^3 is exact
    t, z = _final(rk4(lambda t, z: np.array([4.0 * t**3]), 0.0, 1.0, np.array([0.0]), steps))
    assert t == 1.0
    assert abs(z[0] - 1.0) <= 1e-15


def test_rk4_fourth_order_on_exponential():
    def err(steps):
        _, z = _final(rk4(lambda t, z: z, 0.0, 1.0, np.array([1.0]), steps))
        return abs(z[0] - math.e)

    assert 15.0 <= err(8) / err(16) <= 17.0


def test_rk4_yields_every_step():
    knots = [t for t, _ in rk4(lambda t, z: z, 0.0, 2.0, np.array([1.0]), 4)]
    assert knots == [0.5, 1.0, 1.5, 2.0]


@pytest.mark.filterwarnings("error")
def test_rk4_blow_up_names_t():
    # z' = z^2, z(0) = 10 blows up at t = 0.1; rk4 itself keeps numpy quiet
    with pytest.raises(OverflowError, match=r"t = "):
        _final(rk4(lambda t, z: z * z, 0.0, 1.0, np.array([10.0]), 100))


def _line_bundle(gamma, domain=None):
    text = f'[space]\nbase_dim = 1\nfiber_dim = 1\n[connection]\ngamma_1_1 = "{gamma}"\n'
    return loads(text + (f'domain = "{domain}"\n' if domain else ""))


def _curve(x, *ys, t1=1.0):
    return CurveInE((ex.parse(x),), tuple(ex.parse(y) for y in ys), 0.0, t1)


def test_rk4_stage_times_are_the_knots():
    seen = []
    _final(rk4(lambda t, z: seen.append(t) or z, 0.0, 1.0, np.array([1.0]), 3))
    knots = [knot_time(0.0, 1.0, 3, j) for j in (0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6)]
    assert seen == knots
    assert knot_time(0.0, 1.0, 3, np.arange(7)).tolist() == [knot_time(0.0, 1.0, 3, j) for j in range(7)]


@pytest.mark.parametrize("spec_name, curve_name, lam", [
    ("c2", "sweep", 0.0), ("c2", "sweep", 0.7), ("c1", "flowline", 0.5), ("c4", "circle", 0.0),
])
def test_tabulated_transport_equals_per_point_coefficients(all_specs, spec_name, curve_name, lam):
    # the batched tables give bitwise the coefficients of a point-by-point
    # right-hand side at the same knots, across block boundaries
    spec = all_specs[spec_name]
    lin = LinearizedConnection(spec.conn)
    curve = spec.curves[curve_name]
    sp = spec.space
    steps = 2 * BLOCK_STEPS + 37

    def rhs(t, z):
        x, y, xd, yd = curve.state(t)
        env = sp.point_env(x, y)
        M = -np.einsum("aib,i->ab", np.array(lin.fiber_jacobian_env(env)), xd)
        return M @ z + lam * (yd + np.array(spec.conn.gamma_env(env), dtype=float) @ xd)

    z0 = np.linspace(1.0, 2.0, sp.k)
    _, want = _final(rk4(rhs, curve.t0, curve.t1, z0, steps))
    carrier = LambdaFamilyMember(spec.conn, lam) if lam else lin
    got = transport_ode(carrier, curve, z0, steps).z_final
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("steps", [10, 1000, 1001])
def test_puncture_abort_names_t_half(c4, steps):
    lin = LinearizedConnection(c4.conn)
    curve = _curve("t", "1 - 2*t", "0")
    where = r"curve left the domain at t = 0\.5, at \(\[0\.5\], \[0\.0, 0\.0\]\)$"
    with pytest.raises(OutOfDomainError, match=where):
        transport_ode(lin, curve, [1.0, 0.0], steps)


def test_knot_table_ends_at_the_first_failing_knot(c4):
    curve = _curve("t", "1 - 2*t", "0")
    table = transport_coefficients(LinearizedConnection(c4.conn), curve, np.linspace(0.0, 1.0, 11))
    assert isinstance(table.error, OutOfDomainError)
    assert str(table.error) == "curve left the domain at t = 0.5, at ([0.5], [0.0, 0.0])"
    assert len(table.M) == 5 and table.x.shape == (1, 6)
    assert table.point(5)[1].tolist() == [0.0, 0.0]


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_state_overflow_before_a_later_domain_exit(lam):
    # z' = 800 z overflows near t = 0.89; the curve leaves the domain at
    # t = 1, in the same tabulated block
    spec = _line_bundle("-400*y1^2", "x1 < 1")
    carrier = LambdaFamilyMember(spec.conn, lam)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(OverflowError, match=r"non-finite state at t = 0\.892$"):
            transport_ode(carrier, _curve("t", "1", t1=2.0), [1.0], 1000)
    with pytest.raises(OutOfDomainError, match=r"curve left the domain at t = 1\.0, at \(\[1\.0\], \[1\.0\]\)$"):
        transport_ode(carrier, _curve("t", "1", t1=2.0), [1.0], 100)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("record", [0, 16])
def test_coefficient_overflow_names_t_without_numpy_warnings(record):
    lin = LinearizedConnection(_line_bundle("exp(y1)").conn)
    with pytest.raises(OverflowError, match=r"in the step from t = 0\.0$"):
        transport_ode(lin, _curve("t", "800 + t"), [1.0], 1000, record=record)


@pytest.mark.filterwarnings("error")
def test_state_overflow_names_t_without_numpy_warnings():
    # z' = exp(40 + t) z overflows in the matvec before the finite-state check
    lin = LinearizedConnection(_line_bundle("exp(y1)").conn)
    with pytest.raises(OverflowError, match=r"non-finite state at t = 0\.006$"):
        transport_ode(lin, _curve("t", "40 + t"), [1.0], 1000)


def test_curve_overflow_at_a_later_knot_names_its_step(c0):
    curve = CurveInE((ex.parse("t"), ex.parse("t")), (ex.parse("exp(1000*t)"), ex.lit(1.0)), 0.0, 1.0)
    with pytest.raises(OverflowError, match=r"in the step from t = 0\.709$"):
        transport_ode(LinearizedConnection(c0.conn), curve, [1.0, 2.0], 1000, record=16)
