"""The fused flow stage of fiber_derivative_flow: one compiled pass over gamma
seeded in y gives the hor-basic velocity and the fiber Jacobian, bitwise as
HorBasicField.at and fiber_jacobian_env, and a failing stage fails as the two
separate computations do."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linconn import ad, transport
from linconn import expr as ex
from linconn.connection import HorBasicField
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
    rng = np.random.default_rng(seed)
    a = sample_in_domain(sp, rng)
    field = random_hor_basic(rng, sp)
    env = sp.point_env(a.x, a.y)
    kn = sp.k * sp.n
    comps = field.compiled_components(*a.x.tolist())
    out = spec.conn.compiled_gamma_gradients(*a.x.tolist(), *a.y.tolist())
    dx = np.array(comps[: sp.n])
    dy = -np.array(out[:kn]).reshape(sp.k, sp.n) @ dx + np.array(comps[sp.n :])
    J = np.array(out[kn:]).reshape(sp.k, sp.n, sp.k)
    want = field.at(spec.conn, a)
    assert _bits(dx) == _bits(want.dx) and _bits(dy) == _bits(want.dy)
    assert _bits(J) == _bits(LinearizedConnection(spec.conn).fiber_jacobian_env(env))
    # and as one ad.gradient per entry, the computation before gradients
    per_entry = [[ad.gradient(g, env, sp.y_names)[1] for g in row] for row in spec.conn.gamma]
    assert J.shape == (sp.k, sp.n, sp.k) and _bits(J) == _bits(per_entry)


def _unfused(conn, field, p, s, steps, seen):
    """fiber_derivative_flow with velocity and fiber_jacobian_env computed apart."""
    sp = conn.space
    lin = LinearizedConnection(conn)

    def f(t, state):
        seen.append(t)
        x, y, dz = state[: sp.n], state[sp.n : sp.n + sp.k], state[sp.n + sp.k :]
        if not sp.in_domain(x, y):
            raise OutOfDomainError("flow left the domain")
        v = field.at(conn, FiberPoint(x, y))
        J = np.array(lin.fiber_jacobian_env(sp.point_env(x, y)), dtype=float)
        return np.concatenate([v.dx, v.dy, -np.einsum("aib,b,i->a", J, dz, v.dx)])

    state = np.concatenate([p.x, p.y, p.z])
    with np.errstate(over="ignore", invalid="ignore"):
        for _, state in rk4(f, 0.0, s, state, steps):
            pass
    return state


def _fused(monkeypatch, conn, field, p, s, steps, seen):
    def recording_rk4(f, t0, t1, state, steps, by_knot=False):
        def g(t, state):
            seen.append(t)
            return f(t, state)

        return rk4(g, t0, t1, state, steps, by_knot)

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
