"""The printed flow stage (codegen.flow_stage) of flow and
fiber_derivative_flow: one function tests the domain, computes the field and
gamma (seeded in y for the variational stage) and the two velocities, bitwise
as HorBasicField.at, fiber_jacobian_env and the walk, and a failing stage
fails as the separate computations do, at the same stage."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linconn import ad, transport
from linconn import expr as ex
from linconn.connection import HorBasicField, horizontal_velocity
from linconn.geom import FiberPoint, OutOfDomainError, PullbackPoint
from linconn.linearize import LinearizedConnection
from linconn.sampling import random_hor_basic, sample_in_domain, sample_pullback
from linconn.specfile import loads
from linconn.transport import fiber_derivative_flow, rk4

SPEC_NAMES = ("c0", "c1", "c2", "c3", "c4", "c5")
SEEDS = st.integers(0, 2**32 - 1)


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SPEC_NAMES), SEEDS)
def test_fused_stage_equals_velocity_and_jacobian(all_specs, name, seed):
    spec = all_specs[name]
    sp = spec.space
    n, k = sp.n, sp.k
    rng = np.random.default_rng(seed)
    a = sample_in_domain(sp, rng)
    field = random_hor_basic(rng, sp)
    z = rng.uniform(-2.0, 2.0, k).tolist()
    env = sp.point_env(a.x, a.y)
    got = field.flow_stage(spec.conn, variational=True)(0.0, [*a.x.tolist(), *a.y.tolist(), *z])
    out = spec.conn.compiled_gamma_gradients(*a.x.tolist(), *a.y.tolist())
    dx, dy = np.array(got[:n]), np.array(got[n : n + k])
    J = np.array(out[k * n :]).reshape(k, n, k)
    want = field.at(spec.conn, a)
    assert _bits(dx) == _bits(want.dx) and _bits(dy) == _bits(want.dy)
    assert _bits(got[n + k :]) == _bits(LinearizedConnection.fiber_velocity(out[k * n :], z, got[:n]))
    assert _bits(J) == _bits(LinearizedConnection(spec.conn).fiber_jacobian_env(env))
    # and as one ad.gradient per entry, the computation before gradients
    per_entry = [[ad.gradient(g, env, sp.y_names)[1] for g in row] for row in spec.conn.gamma]
    assert J.shape == (sp.k, sp.n, sp.k) and _bits(J) == _bits(per_entry)


def _walked_stage(conn, field, variational):
    """The stage of the flow (with variational, of fiber_derivative_flow) by
    the walk: the domain by ``in_domain``, X and eta by ``evaluate``, gamma
    by ``evaluate`` or, with variational, gamma and its y-partials by
    ``ad.gradients``; then ``horizontal_velocity`` and ``fiber_velocity``
    on those floats."""
    sp = conn.space
    n, k = sp.n, sp.k
    entries = [g for row in conn.gamma for g in row]

    def f(t, state):
        xy = state[: n + k]
        if not sp.in_domain(xy[:n], xy[n:]):
            raise sp.left_domain("flow", t, xy)
        env = sp.point_env(xy[:n], xy[n:])
        X = [ex.evaluate(e, env) for e in field.X]
        eta = [ex.evaluate(e, env) for e in field.eta]
        if not variational:
            return [*X, *horizontal_velocity([ex.evaluate(g, env) for g in entries], X, eta)]
        pairs = ad.gradients(entries, env, sp.y_names)
        G, J = [v for v, _ in pairs], [d for _, grad in pairs for d in grad]
        return [*X, *horizontal_velocity(G, X, eta), *LinearizedConnection.fiber_velocity(J, state[n + k :], X)]

    return f


def _run(f, t0, t1, state, steps, seen):
    """The end state of rk4 over f as bits, or the error it raised; seen
    records the time of every stage."""

    def recording(t, state):
        seen.append(t)
        return f(t, state)

    try:
        for _, state in rk4(recording, t0, t1, state, steps):
            pass
    except (ArithmeticError, ValueError) as err:
        return "raise", type(err), str(err)
    return "value", _bits(state)


# Mutation check: printing fiber_velocity's sum with B outer and i inner in
# codegen.flow_stage fails this test, and so does adding eta before the
# gamma terms.
@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SPEC_NAMES), SEEDS, st.booleans(), st.floats(-3.0, 3.0), st.integers(1, 6))
def test_printed_stage_equals_the_walk(all_specs, name, seed, variational, s, steps):
    spec = all_specs[name]
    sp = spec.space
    rng = np.random.default_rng(seed)
    p = sample_pullback(sp, rng)
    field = random_hor_basic(rng, sp)
    state = [*p.x.tolist(), *p.y.tolist(), *(p.z.tolist() if variational else [])]
    printed, walked = field.flow_stage(spec.conn, variational), _walked_stage(spec.conn, field, variational)
    # one stage at the drawn point, bitwise
    assert _bits(printed(0.0, state)) == _bits(walked(0.0, state))
    # and a short flow: the same numbers, or the same error at the same stage
    got_seen, want_seen = [], []
    got = _run(printed, 0.0, s, state, steps, got_seen)
    assert got == _run(walked, 0.0, s, state, steps, want_seen)
    assert got_seen == want_seen


def _outcome(f, state):
    try:
        return "value", _bits(f(0.0, state))
    except (ArithmeticError, ValueError) as err:
        return "raise", type(err), str(err)


@pytest.mark.parametrize(
    "gamma, domain, x, error, message",
    [
        ("sqrt(y1)", "y1 > -1", 1.0, ex.DomainError, "sqrt"),  # gamma fails
        ("sqrt(y1)", "y1 > -1", 0.0, ex.DomainError, "division by zero"),  # the field, 1/x1, first
        ("y1", "y1 > 0", 0.0, OutOfDomainError, "flow left the domain at t = 0.0"),  # the domain first
    ],
)
@pytest.mark.parametrize("variational", [False, True])
def test_printed_stage_raises_what_the_walk_raises(gamma, domain, x, error, message, variational):
    spec = _line_bundle(gamma, domain)
    field = HorBasicField((ex.parse("1/x1"),), (ex.lit(0.0),))
    state = [x, -0.5, *([1.0] if variational else [])]
    got = _outcome(field.flow_stage(spec.conn, variational), state)
    assert got == _outcome(_walked_stage(spec.conn, field, variational), state)
    assert got[1] is error and message in got[2]


def test_a_dropped_field_frees_its_stages(c5):
    # the stages live on the field: a cache in the module kept every drawn
    # field of a run alive, and the peak RSS of a flow benchmark grew by 30%
    field = random_hor_basic(np.random.default_rng(1), c5.space)
    p = PullbackPoint([0.1, -0.2], [0.5, 1.0], [1.0, -0.5])
    fiber_derivative_flow(c5.conn, field, p, 0.1, 4)
    transport.flow(c5.conn, field, p.a, 0.1, 4)
    stages = [weakref.ref(field.flow_stage(c5.conn, kind)) for kind in (False, True)]
    assert field.flow_stage(c5.conn) is stages[0]()  # printed once per kind
    dropped = weakref.ref(field)
    del field
    gc.collect()
    assert dropped() is None and [ref() for ref in stages] == [None, None]


def _unfused(conn, field, p, s, steps, seen):
    """fiber_derivative_flow with velocity and fiber_jacobian_env computed
    apart, in plain floats: the variational term sums J[A][i][B] z[B] X[i]
    onto 0.0, i outer and B inner, and negates."""
    sp = conn.space
    n, k = sp.n, sp.k
    lin = LinearizedConnection(conn)

    def f(t, state):
        seen.append(t)
        x, y, dz = state[:n], state[n : n + k], state[n + k :]
        if not sp.in_domain(x, y):
            raise OutOfDomainError("flow left the domain")
        v = field.at(conn, FiberPoint(x, y))
        J = lin.fiber_jacobian_env(sp.point_env(x, y))
        X = v.dx.tolist()
        dzdot = []
        for A in range(k):
            acc = 0.0
            for i in range(n):
                for B in range(k):
                    acc = acc + J[A][i][B] * dz[B] * X[i]
            dzdot.append(-acc)
        return X + v.dy.tolist() + dzdot

    state = [*p.x.tolist(), *p.y.tolist(), *p.z.tolist()]
    for _, state in rk4(f, 0.0, s, state, steps):
        pass
    if not sp.in_domain(state[:n], state[n : n + k]):
        raise OutOfDomainError("flow endpoint outside the domain")
    return np.array(state)


def _fused(monkeypatch, conn, field, p, s, steps, seen):
    def recording_rk4(f, t0, t1, state, steps):
        def g(t, state):
            seen.append(t)
            return f(t, state)

        return rk4(g, t0, t1, state, steps)

    monkeypatch.setattr(transport, "rk4", recording_rk4)
    end, dz = fiber_derivative_flow(conn, field, p, s, steps)
    return np.concatenate([end.x, end.y, dz])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SPEC_NAMES), SEEDS, st.floats(-0.6, 0.6), st.integers(1, 40))
def test_fused_flow_equals_unfused_flow(all_specs, name, seed, s, steps):
    spec = all_specs[name]
    rng = np.random.default_rng(seed)
    p = sample_pullback(spec.space, rng)
    field = random_hor_basic(rng, spec.space)
    try:
        want = _unfused(spec.conn, field, p, s, steps, [])
    except (ArithmeticError, ValueError) as err:
        with pytest.raises(type(err)):
            fiber_derivative_flow(spec.conn, field, p, s, steps)
        return
    end, dz = fiber_derivative_flow(spec.conn, field, p, s, steps)
    assert _bits(np.concatenate([end.x, end.y, dz])) == _bits(want)


def _line_bundle(gamma, domain=None, k=1):
    ys = "\n".join(f'gamma_{A}_1 = "{gamma if A == 1 else 0}"' for A in range(1, k + 1))
    text = f"[space]\nbase_dim = 1\nfiber_dim = {k}\n[connection]\n{ys}\n"
    return loads(text + (f'domain = "{domain}"\n' if domain else ""))


def _drift(*eta):
    """Field with X = 0 and a constant fiber velocity eta: y(t) = y0 + t*eta."""
    return HorBasicField((ex.lit(0.0),), tuple(ex.lit(v) for v in eta))


C4_NORM = "sqrt(y1^2 + y2^2)"


@pytest.mark.parametrize(
    "spec, field, y0, s, steps, error, fused_message",
    [
        # c4 reaches its puncture at t = 1: the domain check comes first
        (_line_bundle(C4_NORM, "y1^2 + y2^2 > 0", k=2), _drift(-1.0, 0.0), [1.0, 0.0], 2.0, 4,
         OutOfDomainError, "flow left the domain"),
        # the same norm without the domain: sqrt(0) fails only when differentiated
        (_line_bundle(C4_NORM, k=2), _drift(-1.0, 0.0), [1.0, 0.0], 2.0, 4,
         ex.DomainError, "sqrt needs a positive value when differentiating"),
        (_line_bundle("1/y1"), _drift(-1.0), [0.5], 1.0, 2, ex.DomainError, "division by zero"),
        # sqrt of a negative value: the float guard named it "sqrt of negative
        # value"; the fused stage meets the Dual1 guard first
        (_line_bundle("sqrt(y1)"), _drift(-1.0), [0.3], 1.0, 2,
         ex.DomainError, "sqrt needs a positive value when differentiating"),
    ],
)
def test_failing_stage_fails_as_unfused(monkeypatch, spec, field, y0, s, steps, error, fused_message):
    p = PullbackPoint([0.0], y0, np.ones(len(y0)))
    want_seen, got_seen = [], []
    with pytest.raises(error) as want:
        _unfused(spec.conn, field, p, s, steps, want_seen)
    with pytest.raises(error, match=fused_message) as got:
        _fused(monkeypatch, spec.conn, field, p, s, steps, got_seen)
    assert type(got.value) is type(want.value)
    assert got_seen == want_seen and got_seen[-1] > 0.0  # the same stage, not the first


def test_flow_domain_error_names_t_and_the_point():
    # y = (1 - t, 0) reaches the puncture of c4 at the last stage of step 2
    spec = _line_bundle(C4_NORM, "y1^2 + y2^2 > 0", k=2)
    p = PullbackPoint([0.0], [1.0, 0.0], [1.0, 1.0])
    where = r"flow left the domain at t = 1\.0, at \(\[0\.0\], \[0\.0, 0\.0\]\)$"
    with pytest.raises(OutOfDomainError, match=where):
        fiber_derivative_flow(spec.conn, _drift(-1.0, 0.0), p, 2.0, 4)
    with pytest.raises(OutOfDomainError, match=where):
        transport.flow(spec.conn, _drift(-1.0, 0.0), p.a, 2.0, 4)


@pytest.mark.filterwarnings("error")
def test_blow_up_is_an_overflow_naming_t_without_numpy_warnings():
    # y = 1e39 t: gamma = y^8 overflows to inf past t = 0.34, and inf * (X = 0)
    # makes the velocity NaN
    spec = _line_bundle("y1^8")
    p = PullbackPoint([0.0], [0.0], [1.0])
    with pytest.raises(OverflowError, match=r"non-finite state at t = 0\.4$"):
        fiber_derivative_flow(spec.conn, _drift(1e39), p, 1.0, 10)
    with pytest.raises(OverflowError, match=r"non-finite state at t = 0\.4$"):
        transport.flow(spec.conn, _drift(1e39), p.a, 1.0, 10)


def test_a_field_of_other_dimensions_is_refused():
    # the stage prints one velocity per fiber component from n base terms;
    # eta of length 1 on a rank-2 bundle was cut short without a word
    spec = _line_bundle(C4_NORM, "y1^2 + y2^2 > 0", k=2)
    p = PullbackPoint([0.0], [1.0, 0.0], [1.0, 1.0])
    for field in (_drift(-1.0), HorBasicField((ex.lit(1.0), ex.lit(0.0)), (ex.lit(0.0), ex.lit(0.0)))):
        with pytest.raises(ValueError, match="1 base and 2 fiber components"):
            fiber_derivative_flow(spec.conn, field, p, 1.0, 4)
        with pytest.raises(ValueError, match="1 base and 2 fiber components"):
            transport.flow(spec.conn, field, p.a, 1.0, 4)
