import inspect
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linconn import checks as ck
from linconn import codegen, transport
from linconn import expr as ex
from linconn.cli import main
from linconn.connection import HorBasicField
from linconn.geom import FiberPoint, OutOfDomainError, PullbackPoint
from linconn.linearize import LambdaFamilyMember, LinearizedConnection
from linconn.specfile import builtin_spec_path, load_builtin, loads
from linconn.transport import (
    CurveInE,
    fiber_derivative_flow,
    flow,
    rk4,
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
    # z' = z^2, z(0) = 10 blows up at t = 0.1; float arithmetic does not warn
    with pytest.raises(OverflowError, match=r"t = "):
        _final(rk4(lambda t, z: [z[0] * z[0]], 0.0, 1.0, [10.0], 100))


def _line_bundle(gamma, domain=None):
    text = f'[space]\nbase_dim = 1\nfiber_dim = 1\n[connection]\ngamma_1_1 = "{gamma}"\n'
    return loads(text + (f'domain = "{domain}"\n' if domain else ""))


def _curve(x, *ys, t1=1.0):
    return CurveInE((ex.parse(x),), tuple(ex.parse(y) for y in ys), 0.0, t1)


def test_rk4_stage_times_are_the_knots():
    # step s has its stages at t0 + j*(h/2) for j = 2s, 2s + 1 (twice), 2s + 2
    seen = []
    _final(rk4(lambda t, z: seen.append(t) or z, 0.0, 1.0, np.array([1.0]), 3))
    half = 0.5 * (1.0 / 3)
    assert seen == [0.0 + j * half for j in (0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6)]


# -- the printed RK4 step ---------------------------------------------------

STAGE_VALUES = st.one_of(
    st.floats(-4.0, 4.0),
    st.sampled_from((0.0, -0.0, 1e308, -1e308, 5e-324, math.inf, -math.inf, math.nan)),
)


def _by_hand(f, start, mid, end, s, half, h, sixth):
    """One step of rk4 with its stage sums written out component by component."""
    k1 = f(start, s)
    k2 = f(mid, [s[j] + half * k1[j] for j in range(len(s))])
    k3 = f(mid, [s[j] + half * k2[j] for j in range(len(s))])
    k4 = f(end, [s[j] + h * k3[j] for j in range(len(s))])
    return [s[j] + sixth * (k1[j] + (k2[j] + k2[j]) + (k3[j] + k3[j]) + k4[j]) for j in range(len(s))]


def _float_bits(values):
    # every NaN counts as one value (see tests/test_compile.py::_bits)
    return [b"nan" if v != v else struct.pack("<d", v) for v in values]


def _replaying(stages, seen):
    """A right-hand side that returns the given stage values in turn and
    records each time and the bits of each state it is called on."""
    values = iter(stages)

    def f(t, s):
        seen.append((t, _float_bits(s)))
        return next(values)

    return f


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 24).flatmap(lambda w: st.lists(st.lists(STAGE_VALUES, min_size=w, max_size=w), min_size=5, max_size=5)),
    st.sampled_from((0.1, -0.25, 1e-3, 3.0)),
)
def test_printed_step_equals_the_stage_sums_by_hand(rows, h):
    # signed zeros, infinities and NaN in the state and the stage values
    state, stages = rows[0], rows[1:]
    times = (0.25, 0.25 + 0.5 * h, 0.25 + h)
    got_seen, want_seen = [], []
    step = codegen.rk4_step(len(state))
    got = step(_replaying(stages, got_seen), *times, state, 0.5 * h, h, h / 6.0)
    want = _by_hand(_replaying(stages, want_seen), *times, state, 0.5 * h, h, h / 6.0)
    assert _float_bits(got) == _float_bits(want)
    assert got_seen == want_seen and [t for t, _ in got_seen] == [times[0], times[1], times[1], times[2]]
    assert codegen.rk4_step(len(state)) is step  # printed once per width


@pytest.mark.parametrize("width", [1, 2, 7, 24])
def test_rk4_equals_a_loop_of_steps_by_hand(width):
    # a linear right-hand side whose coefficients change with the time,
    # with signed zeros in the state and the coefficients
    rng = np.random.default_rng(width)
    table = rng.uniform(-2.0, 2.0, (7, width))
    table[:, ::3] = -0.0
    state = [(-0.0 if j % 2 else 0.0) if j % 3 == 0 else float(v) for j, v in enumerate(rng.uniform(-1, 1, width))]

    def f(t, s):
        row = table[int(round(4 * t)) % 7]
        return [a * x + 0.0 * a for a, x in zip(row.tolist(), s)]

    got = [(t, list(s)) for t, s in rk4(f, 0.0, 0.75, state, 3)]
    want, s, h = [], list(state), 0.25
    for step in range(3):
        j = 2 * step
        s = _by_hand(f, *(0.0 + i * (0.5 * h) for i in (j, j + 1, j + 2)), s, 0.5 * h, h, h / 6.0)
        want.append((0.0 + (j + 2) * (0.5 * h), s))
    assert [(t, _float_bits(s)) for t, s in got] == [(t, _float_bits(s)) for t, s in want]


@pytest.mark.parametrize("steps", [10, 1000, 1001])
def test_puncture_abort_names_t_half(c4, steps):
    lin = LinearizedConnection(c4.conn)
    curve = _curve("t", "1 - 2*t", "0")
    where = r"curve left the domain at t = 0\.5, at \(\[0\.5\], \[0\.0, 0\.0\]\)$"
    with pytest.raises(OutOfDomainError, match=where):
        transport_ode(lin, curve, [1.0, 0.0], steps)


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_a_midpoint_exit_names_t_half(c4, lam):
    # one step: its second and third stages sit at the midpoint t = 0.5,
    # where the curve meets the puncture
    carrier = LambdaFamilyMember(c4.conn, lam)
    where = r"^curve left the domain at t = 0\.5, at \(\[0\.5\], \[0\.0, 0\.0\]\)$"
    with pytest.raises(OutOfDomainError, match=where):
        transport_ode(carrier, _curve("t", "1 - 2*t", "0"), [1.0, 0.0], 1)


def test_a_late_domain_exit_names_t(c4):
    where = r"^curve left the domain at t = 0\.99, at \(\[0\.99\], \[0\.0, 0\.0\]\)$"
    with pytest.raises(OutOfDomainError, match=where):
        transport_ode(LinearizedConnection(c4.conn), _curve("t", "0.99 - t", "0"), [1.0, 0.0], 1000)


def test_an_integer_power_decided_at_each_point_equals_the_plain_float_loop():
    # y1^x1 is an integer power where x1 is an integer: only the walk at a
    # point decides its rule, and at t = 2 the coefficient M is -2*3 exactly
    spec = _line_bundle("y1^x1")
    lin, curve = LinearizedConnection(spec.conn), _curve("t", "3", t1=2.0)
    assert curve.transport_coefficients(lin, 0.0)(2.0) == (-6.0,)
    for lam in (0.0, 0.5):
        carrier = LambdaFamilyMember(spec.conn, lam)
        want = _plain_rk4(_plain_rhs(spec, curve, lam), curve.t0, curve.t1, [1.0], 1000)
        assert transport_ode(carrier, curve, [1.0], 1000).z_final.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_state_overflow_before_a_later_domain_exit(lam):
    # z' = 800 z overflows near t = 0.89, before the curve leaves the
    # domain at t = 1
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


@pytest.mark.parametrize("record", [0, 16])
def test_a_curve_failing_at_t0_names_the_step(c1, record):
    # the t0 sample is taken after the first step, which evaluates the
    # curve at t0 first; it used to raise the bare "math range error"
    curve = _curve("t", "exp(1000 - 1000*t)")
    with pytest.raises(OverflowError, match=r"^math range error in the step from t = 0\.0$"):
        transport_ode(LinearizedConnection(c1.conn), curve, [1.0], 100, record=record)


def test_curve_overflow_at_a_later_knot_names_its_step(c0):
    curve = CurveInE((ex.parse("t"), ex.parse("t")), (ex.parse("exp(1000*t)"), ex.lit(1.0)), 0.0, 1.0)
    with pytest.raises(OverflowError, match=r"in the step from t = 0\.709$"):
        transport_ode(LinearizedConnection(c0.conn), curve, [1.0, 2.0], 1000, record=16)


@pytest.mark.parametrize("record", [0, 16])
def test_curve_overflow_at_a_midpoint_knot_names_its_step(c0, record):
    # at 999 steps the first knot past exp's range, j = 1419, is the
    # midpoint of the step from j = 1418, in the second block of knots
    curve = CurveInE((ex.parse("t"), ex.parse("t")), (ex.parse("exp(1000*t)"), ex.lit(1.0)), 0.0, 1.0)
    with pytest.raises(OverflowError, match=r"^math range error in the step from t = 0\.7097097097097097$"):
        transport_ode(LinearizedConnection(c0.conn), curve, [1.0, 2.0], 999, record=record)


def _plain_rk4(f, t0, t1, state, steps):
    """RK4 written out on a list of floats, in rk4's stated order of sums."""
    h = (t1 - t0) / steps
    half, sixth = 0.5 * h, h / 6.0
    for step in range(steps):
        j = 2 * step
        k1 = f(t0 + j * half, state)
        k2 = f(t0 + (j + 1) * half, [s + half * a for s, a in zip(state, k1)])
        k3 = f(t0 + (j + 1) * half, [s + half * a for s, a in zip(state, k2)])
        k4 = f(t0 + (j + 2) * half, [s + h * a for s, a in zip(state, k3)])
        state = [s + sixth * (a + (b + b) + (c + c) + d) for s, a, b, c, d in zip(state, k1, k2, k3, k4)]
    return state


def _plain_rhs(spec, curve, lam):
    """The transport's right-hand side as a plain float loop over the
    compiled curve state and gamma gradients: M z + c with each row summed
    left to right, then + c, where M[A][B] = -(0.0 + J[A][0][B] xdot[0] +
    J[A][1][B] xdot[1] + ...) and c[A] = lam (ydot[A] + (G[A][0] xdot[0] +
    G[A][1] xdot[1] + ...)); no BLAS kernel decides a bit."""
    sp = spec.space
    n, k = sp.n, sp.k
    gamma = spec.conn.compiled_gamma_gradients

    def rhs(t, z):
        values = curve.compiled_state(t)
        out = gamma(*values[: n + k])
        G, J = out[: k * n], out[k * n :]
        xd, yd = values[n + k : 2 * n + k], values[2 * n + k :]
        zdot = []
        for A in range(k):
            s = None
            for B in range(k):
                m = 0.0
                for i in range(n):
                    m = m + J[(A * n + i) * k + B] * xd[i]
                s = -m * z[B] if s is None else s + -m * z[B]
            g = G[A * n] * xd[0]
            for i in range(1, n):
                g = g + G[A * n + i] * xd[i]
            zdot.append(s + lam * (yd[A] + g))
        return zdot

    return rhs


NAMED_CURVES = [
    ("c1", "line"), ("c1", "flowline"), ("c1", "vertical"), ("c2", "sweep"),
    ("c3", "line"), ("c4", "circle"), ("c5", "arc"),
]


@pytest.mark.parametrize("spec_name, curve_name", NAMED_CURVES)
@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_transport_equals_a_plain_float_loop(all_specs, spec_name, curve_name, lam):
    spec = all_specs[spec_name]
    curve = spec.curves[curve_name]
    z0 = np.linspace(1.0, 2.0, spec.space.k).tolist()
    want = _plain_rk4(_plain_rhs(spec, curve, lam), curve.t0, curve.t1, z0, 1000)
    carrier = LambdaFamilyMember(spec.conn, lam) if lam else LinearizedConnection(spec.conn)
    got = transport_ode(carrier, curve, z0, 1000).z_final
    assert got.tolist() == want and got.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("spec_name, curve_name, lam", [
    ("c2", "sweep", 0.0), ("c2", "sweep", 0.7), ("c1", "flowline", 0.5), ("c4", "circle", 0.0),
])
def test_tabulated_transport_equals_per_point_coefficients(all_specs, spec_name, curve_name, lam):
    # the printed linear loop, which computes its coefficients once per
    # knot, gives bitwise what rk4 gives on a point-by-point
    # right-hand side, over an odd number of steps
    spec = all_specs[spec_name]
    curve = spec.curves[curve_name]
    z0 = np.linspace(1.0, 2.0, spec.space.k).tolist()
    _, want = _final(rk4(_plain_rhs(spec, curve, lam), curve.t0, curve.t1, z0, 549))
    carrier = LambdaFamilyMember(spec.conn, lam) if lam else LinearizedConnection(spec.conn)
    got = transport_ode(carrier, curve, z0, 549).z_final
    assert got.tobytes() == np.array(want).tobytes()


def test_transport_lambda_term_equals_the_plain_float_loop_on_c2(c2):
    # G xdot summed left to right: a stacked numpy matmul differs from this
    # order in the last bit on this curve
    curve = CurveInE(
        (ex.parse("0.55 + 0.337*t"), ex.parse("-0.08 - 1.105*t")), (ex.parse("-0.137 - 0.583*t"),), 0.0, 1.0
    )
    want = _plain_rk4(_plain_rhs(c2, curve, 0.7), curve.t0, curve.t1, [1.0], 1000)
    got = transport_ode(LambdaFamilyMember(c2.conn, 0.7), curve, [1.0], 1000).z_final
    assert got.tobytes() == np.array(want).tobytes()


# -- the printed linear RK4 loop ----------------------------------------------


def _knot_loop_cases(spec):
    """The spec's named curves and two drawn straight lines."""
    rng = np.random.default_rng(11)
    return [*spec.curves.values(), ck._line_curve(spec, rng), ck._line_curve(spec, rng)]


def _reference(spec, curve, lam, z0, steps, record):
    """z_final and the trajectory of a transport by the generic rk4 over a
    plain-float right-hand side, sampled where transport_ode samples."""
    n, k = spec.space.n, spec.space.k
    stride = max(1, steps // record) if record else 0
    samples = []

    def sample(t, z):
        values = curve.compiled_state(t)
        samples.append((t, *(np.array(v).tobytes() for v in (values[:n], values[n : n + k], z))))

    z = z0
    for done, (t, z) in enumerate(rk4(_plain_rhs(spec, curve, lam), curve.t0, curve.t1, z0, steps), 1):
        if record and done == 1:
            sample(curve.t0, z0)
        if record and (done % stride == 0 or done == steps):
            sample(t, z)
    return np.array(z).tobytes(), samples


@pytest.mark.parametrize("spec_name", ["c0", "c1", "c2", "c3", "c4", "c5"])
@pytest.mark.parametrize("lam", [0.0, 0.7])
def test_the_knot_loop_is_bitwise_the_generic_rk4(all_specs, spec_name, lam):
    # the printed loop evaluates the coefficients once per knot; rk4 calls
    # its right-hand side at every stage, and the two share no code
    spec = all_specs[spec_name]
    carrier = LambdaFamilyMember(spec.conn, lam) if lam else LinearizedConnection(spec.conn)
    z0 = np.linspace(1.0, 2.0, spec.space.k).tolist()
    for curve in _knot_loop_cases(spec):
        for steps in (1, 2, 7, 64, 1000):
            for record in (0, 1, 3, 16):
                want_z, want_samples = _reference(spec, curve, lam, z0, steps, record)
                got = transport_ode(carrier, curve, z0, steps, record=record)
                assert got.z_final.tobytes() == want_z
                got_samples = [
                    (t, *(np.asarray(v).tobytes() for v in (x, y, z))) for t, x, y, z in got.trajectory or ()
                ]
                assert got_samples == want_samples


@pytest.mark.parametrize("lam", [0.0, 0.7])
@pytest.mark.parametrize("steps", [1, 2, 7, 64, 1000])
def test_a_run_evaluates_the_coefficients_once_per_knot(c5, monkeypatch, lam, steps):
    # the lanes passes are handed 2 * steps + 1 times in all, t0 + j*(h/2)
    # for j = 0, 1, ..., 2 * steps, each once and in order, with record
    # chunks and over blocks of 3 steps too; g itself is never called
    curve = CurveInE(c5.curves["arc"].comp_x, c5.curves["arc"].comp_y, 0.0, 1.0)
    half = 0.5 * ((curve.t1 - curve.t0) / steps)
    handed = []
    real = CurveInE.coefficient_table

    def recording(self, lin, lam, times):
        handed.extend(times.tolist())
        return real(self, lin, lam, times)

    monkeypatch.setattr(CurveInE, "coefficient_table", recording)
    monkeypatch.setattr(CurveInE, "transport_coefficients", lambda *args: pytest.fail("g was called"))
    for block in (transport._BLOCK_STEPS, 3):
        monkeypatch.setattr(transport, "_BLOCK_STEPS", block)
        for record in (0, 16):
            handed.clear()
            transport_ode(LambdaFamilyMember(c5.conn, lam), curve, [1.0, 2.0], steps, record=record)
            assert handed == [curve.t0 + j * half for j in range(2 * steps + 1)]


def _knots(curve, steps):
    half = 0.5 * ((curve.t1 - curve.t0) / steps)
    return np.array([curve.t0 + j * half for j in range(2 * steps + 1)])


def _assert_lanes_equal_g(lin, curve, lam, times):
    g = curve.transport_coefficients(lin, lam)
    table = curve.coefficient_table(lin, lam, times)
    assert table is not None
    for j, t in enumerate(times.tolist()):
        assert table[:, j].tobytes() == np.array(g(t)).tobytes(), t


@pytest.mark.parametrize("spec_name", ["c0", "c1", "c2", "c3", "c4", "c5"])
@pytest.mark.parametrize("lam", [0.0, 0.7])
def test_the_lanes_coefficients_are_bitwise_g_at_every_knot(all_specs, spec_name, lam):
    spec = all_specs[spec_name]
    lin = LinearizedConnection(spec.conn)
    for curve in _knot_loop_cases(spec):
        _assert_lanes_equal_g(lin, curve, lam, _knots(curve, 1000))


@pytest.mark.parametrize("lam", [0.0, 0.7])
def test_the_lanes_coefficients_of_exp_log_a_division_and_a_power(lam):
    # math's exp and log entry by entry, numpy's / and the squarings, and
    # _pow for the non-integer powers, in the curve and in gamma; the domain
    # holds along both curves, its and/or joined entry by entry
    spec = loads(
        "[space]\nbase_dim = 1\nfiber_dim = 2\n[connection]\n"
        'gamma_1_1 = "log(1 + y1^2) + exp(0.3*y2) / (2 + x1)"\n'
        'gamma_2_1 = "(1 + y1^2)^1.5 - y2^-3 + abs(y1)"\n'
        'domain = "y2 > 1 and y1 > -5 or x1 < -100"\n'
    )
    lin = LinearizedConnection(spec.conn)
    for x, y1, y2 in [
        ("exp(t)", "log(2 + t)", "2 + 1/(2 - t)"),
        ("(1 + t)^0.5", "(1 + t)^2.5 - 0.8", "3 - exp(-t)"),
    ]:
        curve = _curve(x, y1, y2)
        _assert_lanes_equal_g(lin, curve, lam, _knots(curve, 1000))


def test_a_tree_the_walk_decides_has_no_lanes_form():
    # x1^y1 is an integer power only where y1 is an integer: the transport
    # calls g at each knot, bitwise the per-knot loop
    spec = _line_bundle("0.5 + 0.1 * x1^y1")
    lin, curve = LinearizedConnection(spec.conn), _curve("1 + t", "2 + t")
    assert curve.coefficient_table(lin, 0.0, _knots(curve, 4)) is None
    want = _plain_rk4(_plain_rhs(spec, curve, 0.0), curve.t0, curve.t1, [1.0], 100)
    assert transport_ode(lin, curve, [1.0], 100).z_final.tolist() == want


def _outcome_of(run):
    try:
        return "value", run().z_final.tobytes()
    except Exception as err:
        return "raise", type(err), str(err)


FALLBACK_CASES = {
    # the line meets c4's puncture y = 0 at knot 1000 of the first block
    "puncture": (load_builtin("c4"), _curve("t", "t - 0.5", "0"), "curve left the domain at t = 0.5"),
    # a division by zero at knot 1000
    "division": (load_builtin("c1"), _curve("t", "1/(0.5 - t)"), "division by zero"),
    # (10t)^400 overflows to inf past t = 0.59, where sin raises; at lambda
    # 0 ydot is not used, so the state stays finite
    "sin_of_inf": (load_builtin("c1"), _curve("t", "sin((10*t)^400)"), "math domain error"),
    # the second term divides by zero at x1 = 0.25 only, where the first
    # holds: the lanes raise, g does not, and the run completes
    "domain_or": (_line_bundle("y1^2", "x1 < 0.5 or 1/(x1 - 0.25) > 0"), _curve("t", "1 + t"), None),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(FALLBACK_CASES))
def test_a_block_whose_lanes_pass_raises_steps_knot_by_knot(monkeypatch, case):
    # the run equals the per-knot loop, result or error text with its t,
    # with numpy's warnings turned into errors around it
    spec, curve, message = FALLBACK_CASES[case]
    lin, z0 = LinearizedConnection(spec.conn), [1.0] * spec.space.k
    assert curve.coefficient_table(lin, 0.0, _knots(curve, 1000)) is None
    with np.errstate(all="raise"):
        got = _outcome_of(lambda: transport_ode(lin, curve, z0, 1000))
        monkeypatch.setattr(CurveInE, "coefficient_table", lambda *args: None)
        want = _outcome_of(lambda: transport_ode(lin, curve, z0, 1000))
    assert got == want
    if message is None:
        assert got[0] == "value"
        ref = _plain_rk4(_plain_rhs(spec, curve, 0.0), curve.t0, curve.t1, z0, 1000)
        assert got[1] == np.array(ref).tobytes()
    else:
        assert got[0] == "raise" and message in got[2]


@pytest.mark.parametrize(
    "spec_name, curve, message",
    [
        # the knot t = 11/14 is the first outside the disc y1^2 + y2^2 < 9
        ("c5", "t,0;4*t,0;0;1",
         "domain error: curve left the domain at t = 0.7857142857142857, "
         "at ([0.7857142857142857, 0.0], [3.142857142857143, 0.0])\n"),
        # the midpoint of the fourth step is t = 0.5
        ("c1", "t;1/(0.5-t);0;1", "domain error: division by zero\n"),
    ],
)
def test_the_knot_loop_raises_the_stage_errors(capsys, spec_name, curve, message):
    z0 = ",".join(["1"] * load_builtin(spec_name).space.k)
    argv = ["transport", builtin_spec_path(spec_name), "--curve", curve, "--steps", "7", "--z0", z0]
    assert main(argv) == 3
    assert capsys.readouterr() == ("", message)


# read once, at import, so that an edit to codegen.py while the suite runs
# cannot hand the mutants a source text other than the module's
LINEAR_RK4_SOURCE = inspect.getsource(codegen.linear_rk4)


def _defective_linear_rk4(old, new):
    """``codegen.linear_rk4`` printed from its source with old replaced by new."""
    assert LINEAR_RK4_SOURCE.count(old) == 1
    namespace = dict(vars(codegen))
    exec(LINEAR_RK4_SOURCE.replace(old, new), namespace)
    return namespace["linear_rk4"]


KNOT_DEFECTS = {
    # stages 2 and 3 read the coefficients of the step's start
    "start_for_mid": (
        "((mid, half, ks[0], ks[1]), (mid, half, ks[1], ks[2])",
        "((start, half, ks[0], ks[1]), (start, half, ks[1], ks[2])",
    ),
    # stage 4 reads the coefficients of the midpoint
    "mid_for_end": ("(end, h, ks[2], ks[3])", "(mid, h, ks[2], ks[3])"),
}
KNOT_CAUGHT = {"transport.lambda_horizontality", "transport.reversibility", "transport.order"}


def _shift_the_table(monkeypatch):
    """Every lanes pass tabulates each knot's successor in its place."""
    real = CurveInE.coefficient_table
    monkeypatch.setattr(
        CurveInE, "coefficient_table", lambda self, lin, lam, times: real(self, lin, lam, times + (times[1] - times[0]))
    )


@pytest.mark.parametrize("defect", sorted([*KNOT_DEFECTS, "shifted_table"]))
@pytest.mark.parametrize("name", ["c1", "c2", "c3", "c4", "c5"])
def test_the_checks_catch_a_broken_knot_loop(monkeypatch, defect, name):
    # lambda_horizontality's reference loop steps the generic rk4, so it
    # fails on every spec whose coefficients vary along a line; on c3 only
    # c varies (gamma is linear in y, so M is constant along a straight
    # line), which reversibility and order, at lambda = 0, do not see
    if defect == "shifted_table":
        _shift_the_table(monkeypatch)
    else:
        monkeypatch.setattr(codegen, "linear_rk4", _defective_linear_rk4(*KNOT_DEFECTS[defect]))
    rows = ck.run_suite(load_builtin(name), samples=32, seed=0).checks
    failed = {r.name for r in rows if r.status == "fail"}
    assert failed <= KNOT_CAUGHT, rows
    assert "transport.lambda_horizontality" in failed
    assert name == "c3" or failed == KNOT_CAUGHT


def test_recorded_points_are_the_compiled_curve_state(all_specs):
    for spec_name, curve_name in NAMED_CURVES:
        spec = all_specs[spec_name]
        n, k = spec.space.n, spec.space.k
        curve = spec.curves[curve_name]
        res = transport_ode(LinearizedConnection(spec.conn), curve, np.ones(k), 100, record=7)
        for t, x, y, _ in res.trajectory:
            values = curve.compiled_state(t)
            assert x.tobytes() == np.array(values[:n]).tobytes()
            assert y.tobytes() == np.array(values[n : n + k]).tobytes()


def test_fiber_derivative_flow_equals_a_plain_float_loop(c5):
    # -gamma X + eta sums (-G[A][i]) X[i] left to right, then adds eta[A];
    # -dgamma z X sums J[A][i][B] z[B] X[i] onto 0.0, i outer and B inner
    sp, conn, field = c5.space, c5.conn, c5.fields["drift"]
    n, k = sp.n, sp.k

    def f(t, state):
        xy = state[: n + k]
        env = sp.point_env(xy[:n], xy[n:])
        comps = [ex.evaluate(e, env) for e in field.X + field.eta]
        out = conn.compiled_gamma_gradients(*xy)
        X, dz = comps[:n], state[n + k :]
        dy, dzdot = [], []
        for A in range(k):
            s = -out[A * n] * X[0]
            for i in range(1, n):
                s = s + -out[A * n + i] * X[i]
            dy.append(s + comps[n + A])
            acc = 0.0
            for i in range(n):
                for B in range(k):
                    acc = acc + out[k * n + (A * n + i) * k + B] * dz[B] * X[i]
            dzdot.append(-acc)
        return [*X, *dy, *dzdot]

    p = PullbackPoint([0.1, -0.2], [0.5, 1.0], [1.0, -0.5])
    want = _plain_rk4(f, 0.0, 0.7, [*p.x.tolist(), *p.y.tolist(), *p.z.tolist()], 1000)
    end, dz = fiber_derivative_flow(conn, field, p, 0.7, 1000)
    assert [*end.x.tolist(), *end.y.tolist(), *dz.tolist()] == want


def test_no_integration_warns_or_needs_errstate():
    # float + and * neither warn nor raise: each integration reports its
    # overflow as an OverflowError naming t, also where numpy would raise
    growth = _line_bundle("y1^8")
    drift = HorBasicField((ex.lit(0.0),), (ex.lit(1e39),))
    square = loads('[space]\nbase_dim = 2\nfiber_dim = 1\n[connection]\ngamma_1_1 = "y1^8"\ngamma_1_2 = "0"\n')
    runs = [
        lambda: transport_ode(LinearizedConnection(_line_bundle("exp(y1)").conn), _curve("t", "40 + t"), [1.0], 1000),
        lambda: flow(growth.conn, drift, FiberPoint([0.0], [0.0]), 1.0, 10),
        lambda: fiber_derivative_flow(growth.conn, drift, PullbackPoint([0.0], [0.0], [1.0]), 1.0, 10),
        lambda: square.conn.holonomy_curvature(FiberPoint([0.0, 0.0], [1e39]), [1.0, 0.0], [0.0, 1.0]),
    ]
    for run in runs:
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=r"at t = \d"):
                run()
