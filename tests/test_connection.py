import gc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linconn import connection
from linconn import expr as ex
from linconn.connection import (
    FieldOnE,
    HorBasicField,
    NonlinearConnection,
    bracket,
    kappa_section,
)
from linconn.geom import BundleSpace, FiberPoint, OutOfDomainError, TangentE, vertical_lift
from linconn.sampling import random_field, random_hor_basic, sample_in_domain
from linconn.specfile import load_builtin, loads
from linconn.transport import rk4

RNG = np.random.default_rng(0)


def conn_of(spec):
    return spec.conn


def test_gamma_at_examples(c1, c4):
    a = FiberPoint([0.0], [3.0])
    assert np.allclose(conn_of(c1).gamma_at(a), [[9.0]])
    zero = NonlinearConnection(BundleSpace(2, 1), ((ex.lit(0.0), ex.lit(0.0)),))
    assert np.all(zero.gamma_at(FiberPoint([1.0, 2.0], [3.0])) == 0.0)
    a4 = FiberPoint([0.0], [3.0, 4.0])
    assert np.allclose(conn_of(c4).gamma_at(a4), [[5.0], [0.0]])


def test_gamma_out_of_domain(c4):
    with pytest.raises(OutOfDomainError):
        c4.conn.gamma_at(FiberPoint([0.0], [0.0, 0.0]))


def test_gamma_arity_validation():
    sp = BundleSpace(1, 1)
    with pytest.raises(ValueError):
        NonlinearConnection(sp, ((ex.parse("z1"),),))
    with pytest.raises(ValueError):
        NonlinearConnection(sp, ((ex.parse("y1"), ex.parse("y1")),))


def test_horizontal_lift_examples(c1):
    conn = c1.conn
    a = FiberPoint([0.0], [1.0])
    h = conn.horizontal_lift(a, [1.0])
    assert h.dx == pytest.approx([1.0]) and h.dy == pytest.approx([-1.0])
    z = conn.horizontal_lift(a, [0.0])
    assert np.all(z.dx == 0.0) and np.all(z.dy == 0.0)


def test_connector_examples(c1):
    conn = c1.conn
    a = FiberPoint([0.0], [1.0])
    w = TangentE(a, [1.0], [5.0])
    assert conn.connector(w) == pytest.approx([6.0])
    # the connector inverts the vertical lift and kills horizontal lifts
    for _ in range(50):
        b = RNG.uniform(-1.5, 1.5, 1)
        assert conn.connector(vertical_lift(a, b)) == pytest.approx(b)
        v = RNG.uniform(-1.5, 1.5, 1)
        assert np.max(np.abs(conn.connector(conn.horizontal_lift(a, v)))) <= 1e-15


def test_projectors(c1):
    conn = c1.conn
    a = FiberPoint([0.0], [1.0])
    w = TangentE(a, [1.0], [5.0])
    ph = conn.project_h(w)
    pv = conn.project_v(w)
    assert ph.dx == pytest.approx([1.0]) and ph.dy == pytest.approx([-1.0])
    assert pv.dx == pytest.approx([0.0]) and pv.dy == pytest.approx([6.0])
    vert = vertical_lift(a, [2.0])
    assert np.all(conn.project_h(vert).dy == 0.0)
    for _ in range(50):
        w = TangentE(a, RNG.uniform(-1, 1, 1), RNG.uniform(-1, 1, 1))
        pv = conn.project_v(w)
        lift = vertical_lift(a, conn.connector(w))
        assert np.max(np.abs(pv.dy - lift.dy)) <= 1e-15
        assert np.max(np.abs(pv.dx)) == 0.0


def _stated_sum(G, v, n):
    """For each A, the terms G[A][i] * v[i] summed left to right over i
    ascending."""
    out = []
    for A in range(len(G) // n):
        s = G[A * n] * v[0]
        for i in range(1, n):
            s = s + G[A * n + i] * v[i]
        out.append(s)
    return out


SIGNED = st.one_of(st.floats(-3.0, 3.0), st.sampled_from((0.0, -0.0)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(("c0", "c1", "c2", "c3", "c4", "c5")), st.integers(0, 2**32 - 1), st.lists(SIGNED, min_size=5, max_size=5))
def test_lift_and_connector_are_stated_order_float_sums(all_specs, name, seed, values):
    # no BLAS kernel decides a bit: the lift's fiber part is
    # (-G[A][0]) v[0] + (-G[A][1]) v[1] + ..., and the connector dy minus it
    spec = all_specs[name]
    sp, conn = spec.space, spec.conn
    n, k = sp.n, sp.k
    a = sample_in_domain(sp, np.random.default_rng(seed))
    v, dy = values[:n], values[n : n + k]
    env = sp.point_env(a.x, a.y)
    hv = _stated_sum([-ex.evaluate(g, env) for row in conn.gamma for g in row], v, n)
    lift = conn.horizontal_lift(a, v)
    assert lift.dx.tobytes() == np.array(v).tobytes() and lift.dy.tobytes() == np.array(hv).tobytes()
    kappa = conn.connector(TangentE(a, v, dy))
    assert kappa.tobytes() == np.array([d - h for d, h in zip(dy, hv)]).tobytes()


def test_bracket_antisymmetry_and_example(c0):
    sp = c0.space
    f = random_field(RNG, sp)
    p = sample_in_domain(sp, RNG)
    self_bracket = bracket(sp, f, f, p)
    assert np.max(np.abs(self_bracket.dx)) <= 1e-12
    assert np.max(np.abs(self_bracket.dy)) <= 1e-12
    # [d/dx1, x1 d/dy1] = d/dy1
    w1 = FieldOnE(
        (ex.lit(1.0), ex.lit(0.0)), (ex.lit(0.0), ex.lit(0.0))
    )
    w2 = FieldOnE(
        (ex.lit(0.0), ex.lit(0.0)), (ex.parse("x1"), ex.lit(0.0))
    )
    out = bracket(sp, w1, w2, p)
    assert out.dx == pytest.approx([0.0, 0.0])
    assert out.dy == pytest.approx([1.0, 0.0])


def _fd_bracket(sp, f_num, g_num, p, h=1e-5):
    """Finite-difference bracket of numeric fields, the independent oracle."""
    m = sp.n + sp.k
    state = np.concatenate([p.x, p.y])

    def jac(fn):
        J = np.empty((m, m))
        for j in range(m):
            up = state.copy()
            dn = state.copy()
            up[j] += h
            dn[j] -= h
            J[:, j] = (fn(up) - fn(dn)) / (2 * h)
        return J

    fv = f_num(state)
    gv = g_num(state)
    return jac(g_num) @ fv - jac(f_num) @ gv


def test_jacobi_identity_second_derivative_oracle(c0):
    sp = c0.space
    rng = np.random.default_rng(5)
    m = sp.n + sp.k

    def numeric(field):
        def fn(state):
            env = sp.point_env(state[: sp.n], state[sp.n :])
            return np.array(
                [
                    float(ex.evaluate(field.component(j), env))
                    for j in range(m)
                ]
            )

        return fn

    for _ in range(10):
        fields = [random_field(rng, sp) for _ in range(3)]
        p = sample_in_domain(sp, rng)
        nums = [numeric(f) for f in fields]

        def bracket_fn(i, j):
            def fn(state):
                pt = FiberPoint(state[: sp.n], state[sp.n :])
                out = bracket(sp, fields[i], fields[j], pt)
                return np.concatenate([out.dx, out.dy])

            return fn

        total = np.zeros(m)
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            total += _fd_bracket(sp, nums[k], bracket_fn(i, j), p)
        assert np.max(np.abs(total)) <= 1e-7


def test_curvature_trivial_cases(c1, c3):
    # one-dimensional base: no two-forms
    a = FiberPoint([0.3], [0.7])
    assert c1.conn.curvature(a, [1.0], [1.0]) == pytest.approx([0.0])
    # constant coefficients: flat horizontal distribution
    sp = BundleSpace(2, 1)
    const = NonlinearConnection(sp, ((ex.lit(0.5), ex.lit(-1.0)),))
    p = FiberPoint([0.1, 0.2], [0.9])
    assert np.max(np.abs(const.curvature(p, [1.0, 0.0], [0.0, 1.0]))) <= 1e-15


def test_curvature_c2_value_and_holonomy(c2):
    conn = c2.conn
    a = FiberPoint([0.0, 0.0], [1.0])
    r = conn.curvature(a, [1.0, 0.0], [0.0, 1.0])
    assert r == pytest.approx([-1.0], abs=1e-12)
    ref = conn.holonomy_curvature(a, [1.0, 0.0], [0.0, 1.0])
    assert np.max(np.abs(r - ref)) <= 1e-5
    rng = np.random.default_rng(9)
    for _ in range(10):
        a = sample_in_domain(c2.space, rng)
        got = conn.curvature(a, [1.0, 0.0], [0.0, 1.0])
        ref = conn.holonomy_curvature(a, [1.0, 0.0], [0.0, 1.0])
        assert np.max(np.abs(got - ref)) <= 1e-5 * (1.0 + np.max(np.abs(ref)))


def test_curvature_antisymmetric_bilinear(c2):
    conn = c2.conn
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = sample_in_domain(c2.space, rng)
        v1 = rng.uniform(-1.5, 1.5, 2)
        v2 = rng.uniform(-1.5, 1.5, 2)
        assert np.max(np.abs(conn.curvature(a, v1, v1))) <= 1e-12
        r = conn.curvature(a, v1, v2)
        assert np.max(np.abs(r + conn.curvature(a, v2, v1))) <= 1e-12
        al, be = rng.uniform(-2, 2, 2)
        lhs = conn.curvature(a, al * v1 + be * v2, v2)
        rhs = al * r + be * conn.curvature(a, v2, v2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * (1.0 + np.max(np.abs(rhs)))


def test_linear_connection_matches_christoffel_action(c3):
    # basic section sigma = (x1, 1); coefficients g = diag(1, 2) acting on it
    conn = c3.conn
    sigma = c3.sections["basic"]
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.uniform(-1.5, 1.5, 1)
        sig_x = np.array([x[0], 1.0])
        dsig = np.array([1.0, 0.0])
        v = float(rng.uniform(-2, 2))
        w = TangentE(FiberPoint(x, sig_x), [v], v * dsig)
        got = conn.connector(w)
        classical = v * (dsig + np.array([1.0 * sig_x[0], 2.0 * sig_x[1]]))
        assert np.max(np.abs(got - classical)) <= 1e-12


def test_projectability_certificate(c0):
    sp = c0.space
    proj = FieldOnE((ex.parse("x1"), ex.parse("x2*x1")), (ex.parse("y1*y2"), ex.lit(1.0)))
    assert proj.is_projectable(sp)
    nonproj = FieldOnE((ex.parse("y1"), ex.lit(0.0)), (ex.lit(0.0), ex.lit(0.0)))
    assert not nonproj.is_projectable(sp)


def test_hor_basic_field(c1):
    conn = c1.conn
    y = HorBasicField((ex.parse("x1"),), (ex.lit(2.0),))
    a = FiberPoint([0.5], [1.0])
    w = y.at(conn, a)
    assert w.dx == pytest.approx([0.5])
    assert w.dy == pytest.approx([-0.5 + 2.0])  # -gamma*X + eta = -1*0.5 + 2
    field = y.as_field(conn)
    w2 = field.at(conn.space, a)
    assert np.max(np.abs(w.dy - w2.dy)) <= 1e-15
    with pytest.raises(ValueError):
        HorBasicField((ex.parse("y1"),), (ex.lit(0.0),))


@pytest.mark.filterwarnings("error")
def test_hor_basic_field_at_a_huge_gamma_prints_no_warning():
    spec = loads('[space]\nbase_dim = 2\nfiber_dim = 1\n[connection]\ngamma_1_1 = "1e200*y1^2"\ngamma_1_2 = "0"\n')
    for X, y1 in (((0.0, 1.0), 1e100), ((1e10, 0.0), 1e50), ((1.0, 2.0), 3.0)):
        # -inf*0 is NaN, 1e300*1e10 overflows; the same bits as the bare product
        a = FiberPoint([0.0, 0.0], [y1])
        w = HorBasicField(tuple(map(ex.lit, X)), (ex.lit(0.5),)).at(spec.conn, a)
        with np.errstate(all="ignore"):
            want = -spec.conn.gamma_at(a) @ np.array(X) + 0.5
        assert w.dx.tolist() == list(X) and w.dy.tobytes() == want.tobytes()


def test_kappa_section(c1):
    conn = c1.conn
    w = FieldOnE((ex.lit(1.0),), (ex.parse("y1"),))
    ks = kappa_section(conn, w)
    a = FiberPoint([0.0], [2.0])
    # kappa(W) = W^y + gamma*W^x = y1 + y1^2
    assert ks.at(conn.space, a) == pytest.approx([6.0])


def _rank_one_over_plane(domain):
    from linconn.specfile import loads

    return loads(
        '[space]\nbase_dim = 2\nfiber_dim = 1\n[connection]\n'
        f'gamma_1_1 = "y1"\ngamma_1_2 = "0"\ndomain = "{domain}"\n'
    ).conn


def test_holonomy_loop_leaving_the_domain_is_an_error():
    # the loop around a = (0, 0; 1) reaches y1 = 0.99, outside y1 > 0.9995
    conn = _rank_one_over_plane("y1 > 0.9995")
    a = FiberPoint(np.zeros(2), np.ones(1))
    with pytest.raises(OutOfDomainError) as err:
        conn.holonomy_curvature(a, [1.0, 0.0], [0.0, 1.0])
    # the t within the leg and the stage point of the lane that left
    assert str(err.value) == (
        "holonomy leg left the domain at t = 0.0625, at ([0.000625, 0.0], [0.9993751952692735])"
    )
    inside = _rank_one_over_plane("y1 > 0.5")
    ref = inside.holonomy_curvature(a, [1.0, 0.0], [0.0, 1.0])
    assert np.max(np.abs(ref - inside.curvature(a, [1.0, 0.0], [0.0, 1.0]))) <= 1e-6


@pytest.mark.parametrize("wrong", [[1.0, 0.0, 0.5], [1.0]])
@pytest.mark.parametrize("which", ["v1", "v2"])
def test_base_vectors_of_the_wrong_length_are_rejected(c5, wrong, which):
    # a length-3 v1 on c5 (n = 2) used to return numbers, a length-1 v1 to
    # end in an IndexError or a failed unpacking
    from linconn.linearize import LinearizedConnection

    a = FiberPoint([0.1, -0.2], [0.5, 1.0])
    v = {"v1": [1.0, 0.0], "v2": [0.0, 1.0], which: wrong}
    queries = {
        "curvature": lambda: c5.conn.curvature(a, v["v1"], v["v2"]),
        "holonomy": lambda: c5.conn.holonomy_curvature(a, v["v1"], v["v2"]),
        "riemann": lambda: LinearizedConnection(c5.conn).riemann(v["v1"], v["v2"], c5.sections["identity"], a),
    }
    for query in queries.values():
        with pytest.raises(ValueError) as err:
            query()
        assert str(err.value) == f"{which}: expected length 2, got shape ({len(wrong)},)"


def test_a_dropped_connection_frees_its_lane_stage():
    # the holonomy lanes live on the connection, like compiled_gamma: a cache
    # in the module would keep every connection it printed for alive
    conn = _rank_one_over_plane("y1 > 0.5")
    a = FiberPoint(np.zeros(2), np.ones(1))
    conn.holonomy_curvature(a, [1.0, 0.0], [0.0, 1.0])
    stage = weakref.ref(conn.holonomy_stage)
    assert conn.holonomy_stage is stage()  # printed once
    dropped = weakref.ref(conn)
    del conn
    gc.collect()
    assert dropped() is None and stage() is None


def test_projectability_certificate_is_per_domain():
    # d/dy1 of |y1| - y1 vanishes for y1 > 0 only
    field = FieldOnE((ex.parse("abs(y1) - y1"),), (ex.lit(0.0),))
    positive = BundleSpace(1, 1, ex.parse_bool("y1 > 0"))
    assert field.is_projectable(positive)
    assert not field.is_projectable(BundleSpace(1, 1))
    assert field.is_projectable(positive)


def _holonomy_one_loop_at_a_time(conn, a, v1, v2, h=1e-2, substeps=32):
    """The holonomy estimate with each loop and leg integrated on its own."""
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    sp = conn.space
    n = sp.n

    def leg(x, y, dirv):
        # x' = dir, and y'^A = sum_i (-G[A][i]) dir[i], i ascending
        d = dirv.tolist()

        def f(t, state):
            if not sp.in_domain(state[:n], state[n:]):
                raise OutOfDomainError("holonomy leg left the domain")
            fiber = []
            G = conn.gamma_env(sp.point_env(state[:n], state[n:]))
            for row in (G[A * n : (A + 1) * n] for A in range(sp.k)):
                s = -row[0] * d[0]
                for i in range(1, n):
                    s = s + -row[i] * d[i]
                fiber.append(s)
            return d + fiber

        state = [*x.tolist(), *y.tolist()]
        for _, state in rk4(f, 0.0, 1.0, state, substeps):
            pass
        return np.array(state[:n]), np.array(state[n:])

    def loop_defect(step):
        x, y = a.x.copy(), a.y.copy()
        for v in (step * v1, step * v2, -step * v1, -step * v2):
            x, y = leg(x, y, v)
        return (y - a.y) / step**2

    def symmetric(step):
        return 0.5 * (loop_defect(step) + loop_defect(-step))

    g1 = symmetric(h)
    g2 = symmetric(h / 2.0)
    return (4.0 * g2 - g1) / 3.0


def _conn3(rows, domain=None):
    """A connection on base dimension 3 and fiber rank 2 from gamma strings."""
    space = BundleSpace(3, 2, domain and ex.parse_bool(domain))
    return NonlinearConnection(space, tuple(tuple(map(ex.parse, row)) for row in rows))


# the shipped specs have base dimension 1 or 2; POLY3 has 3, so that the
# stacked -G dir product sums three terms per row
CONNS = {name: load_builtin(name).conn for name in ("c0", "c1", "c2", "c3", "c4", "c5")}
CONNS["poly3"] = _conn3((
    ("x1*y1 + y2^2", "y1*y2 - x3", "x2*y2 + 0.3*y1^3"),
    ("y1 - x2*y2", "x1*x3*y1", "y2^2*y1 + x1"),
))
TRANSCENDENTAL3 = _conn3(
    (
        ("sin(x1*y1) + exp(0.1*y2)", "cos(y1*y2) - x3", "x2*exp(-y2^2)"),
        ("log(3 + y1) - x2*y2", "sin(x3)*y1", "cos(y2)*y1 + x1"),
    ),
    domain="y1 > -2",
)
COMPONENTS = st.lists(st.floats(-1.5, 1.5), min_size=3, max_size=3)


def _both_estimates(conn, seed, u1, u2, h, substeps):
    """(lanes, loop by loop): each an estimate or the class it raised.

    The lanes run at loop side h and substeps steps per leg in place of
    the module's constants."""
    a = sample_in_domain(conn.space, np.random.default_rng(seed))
    v1, v2 = u1[: conn.space.n], u2[: conn.space.n]
    outcomes = []
    for estimate in (
        lambda: conn.holonomy_curvature(a, v1, v2),
        lambda: _holonomy_one_loop_at_a_time(conn, a, v1, v2, h, substeps),
    ):
        try:
            with (
                mock.patch.multiple(connection, HOLONOMY_STEP=h, HOLONOMY_SUBSTEPS=substeps),
                np.errstate(over="ignore", invalid="ignore"),
            ):
                outcomes.append(estimate())
        except (OutOfDomainError, ex.DomainError, OverflowError) as err:
            outcomes.append(type(err))
    return a, outcomes


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(sorted(CONNS)),
    st.integers(0, 2**32 - 1),
    COMPONENTS,
    COMPONENTS,
    st.sampled_from([1e-2, 0.3, 1.0]),
    st.sampled_from([8, 32]),
)
def test_holonomy_lanes_equal_one_loop_at_a_time(name, seed, u1, u2, h, substeps):
    _, (got, want) = _both_estimates(CONNS[name], seed, u1, u2, h, substeps)
    if isinstance(want, type):
        assert got is want
    else:
        assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    COMPONENTS,
    COMPONENTS,
    st.sampled_from([1e-2, 0.3]),
    st.sampled_from([8, 32]),
)
def test_holonomy_lanes_equal_one_loop_at_a_time_on_transcendental_gamma(seed, u1, u2, h, substeps):
    # each lane calls gamma through math's sin, cos, exp and log, as the
    # loop-by-loop walk does
    _, (got, want) = _both_estimates(TRANSCENDENTAL3, seed, u1, u2, h, substeps)
    if isinstance(want, type):
        assert got is want
    else:
        assert got.tobytes() == want.tobytes()


def test_a_component_with_another_variable_names_it_and_the_allowed_ranges():
    wide = BundleSpace(200, 1)
    row = (ex.parse("z1 + y2"), *(ex.lit(0.0) for _ in range(199)))
    with pytest.raises(ValueError, match=r"^gamma entries may reference x1\.\.x200, y1 only, found y2, z1$"):
        NonlinearConnection(wide, (row,))
    with pytest.raises(ValueError, match=r"^hor-basic components may reference x1, x2 only, found x3$"):
        HorBasicField((ex.lit(1.0), ex.parse("x3")), (ex.lit(0.0),))


def test_a_drawn_hor_basic_field_is_the_checked_field(all_specs):
    # random_hor_basic skips the arity walk: its fields read x names only, so
    # the checked constructor accepts them and builds an equal field
    for spec in all_specs.values():
        rng = np.random.default_rng(7)
        for _ in range(5):
            drawn = random_hor_basic(rng, spec.space)
            checked = HorBasicField(drawn.X, drawn.eta)
            assert (type(drawn.X), type(drawn.eta)) == (tuple, tuple)
            assert drawn == checked and hash(drawn) == hash(checked)
    # a field built by hand is still checked
    with pytest.raises(ValueError, match=r"^hor-basic components may reference x1 only, found y1$"):
        HorBasicField((ex.parse("y1"),), (ex.lit(0.0),))


def test_a_connection_hashes_its_trees_once():
    # a curve's coefficients and a field's flow stages are looked up by
    # their connection: only the first hash walks gamma's trees
    c5 = load_builtin("c5").conn
    calls = []
    real = ex.Bin.__hash__

    def counting(self):
        calls.append(self)
        return real(self)

    with mock.patch.object(ex.Bin, "__hash__", counting):
        hash((c5.space, c5.gamma))
        once = len(calls)
        calls.clear()
        conn = NonlinearConnection(c5.space, c5.gamma)
        first = hash(conn)
        assert hash(conn) == first
    assert once > 0 and len(calls) == once
    assert first == hash((conn.space, conn.gamma)) == hash(c5)
