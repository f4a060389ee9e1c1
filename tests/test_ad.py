import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linconn import expr as ex
from linconn.ad import (
    Dual1,
    Dual2,
    directional,
    dual_part,
    gradient,
    gradients,
    lift_env,
    mixed_second,
    partial_in,
    partials_in,
    real_part,
    value_in,
)

EXPRS = [
    "y1^2",
    "x1*y1",
    "x1 + y1",
    "sin(x1)*cos(y1)",
    "exp(x1/3) + log(y1 + 3)",
    "sqrt(x1^2 + y1^2 + 1)",
    "x1^3 - 2*x1*y1^2 + y1",
    "(x1 + y1)/(2 + x1^2)",
    "x1^0.5 + 1",
]


NAMES = ("x1", "x2", "y1", "y2")
TREES = st.recursive(
    st.one_of(st.sampled_from(NAMES).map(ex.Var), st.floats(-3.0, 3.0).map(ex.Lit)),
    lambda sub: st.one_of(
        st.builds(ex.Neg, sub),
        st.builds(ex.Bin, st.sampled_from(("+", "-", "*", "/", "^")), sub, sub),
        st.builds(ex.Fun, st.sampled_from(ex.FUNCTIONS), sub),
    ),
    max_leaves=8,
)


def test_directional_examples():
    assert directional(ex.parse("y1^2"), {"y1": 3.0}, {"y1": 1.0}) == (9.0, 6.0)
    assert directional(ex.parse("x1"), {"x1": 2.0}, {"y1": 1.0}) == (2.0, 0.0)
    v, d = directional(
        ex.parse("x1*y1"), {"x1": 2.0, "y1": 5.0}, {"x1": 1.0, "y1": 1.0}
    )
    assert (v, d) == (10.0, 7.0)


def test_mixed_second_examples():
    assert mixed_second(ex.parse("y1^2"), {"y1": 3.0}, {"y1": 1.0}, {"y1": 1.0}) == 2.0
    assert (
        mixed_second(
            ex.parse("x1*y1"), {"x1": 2.0, "y1": 5.0}, {"x1": 1.0}, {"y1": 1.0}
        )
        == 1.0
    )
    assert (
        mixed_second(
            ex.parse("x1+y1"), {"x1": 1.0, "y1": 1.0}, {"x1": 2.0}, {"y1": 3.0}
        )
        == 0.0
    )


def test_directional_vs_central_difference():
    rng = np.random.default_rng(3)
    h = 1e-5
    for text in EXPRS:
        e = ex.parse(text)
        for _ in range(25):
            point = {"x1": float(rng.uniform(0.2, 2)), "y1": float(rng.uniform(0.2, 2))}
            seed = {"x1": float(rng.uniform(-1, 1)), "y1": float(rng.uniform(-1, 1))}
            value, deriv = directional(e, point, seed)
            up = ex.evaluate(e, {m: v + h * seed.get(m, 0.0) for m, v in point.items()})
            dn = ex.evaluate(e, {m: v - h * seed.get(m, 0.0) for m, v in point.items()})
            fd = (up - dn) / (2 * h)
            assert abs(deriv - fd) <= 1e-6 * (1.0 + abs(value))


def test_mixed_second_symmetric_exactly():
    rng = np.random.default_rng(4)
    for text in EXPRS:
        e = ex.parse(text)
        for _ in range(25):
            point = {"x1": float(rng.uniform(0.2, 2)), "y1": float(rng.uniform(0.2, 2))}
            u = {"x1": float(rng.uniform(-1, 1)), "y1": float(rng.uniform(-1, 1))}
            v = {"x1": float(rng.uniform(-1, 1)), "y1": float(rng.uniform(-1, 1))}
            assert mixed_second(e, point, u, v) == mixed_second(e, point, v, u)


def test_mixed_second_vs_finite_difference():
    rng = np.random.default_rng(5)
    h = 1e-4
    for text in EXPRS:
        e = ex.parse(text)
        point = {"x1": float(rng.uniform(0.5, 1.5)), "y1": float(rng.uniform(0.5, 1.5))}
        u = {"x1": 1.0}
        v = {"y1": 1.0}
        got = mixed_second(e, point, u, v)

        def at(su, sv):
            return ex.evaluate(
                e,
                {
                    "x1": point["x1"] + su * h,
                    "y1": point["y1"] + sv * h,
                },
            )

        fd = (at(1, 1) - at(1, -1) - at(-1, 1) + at(-1, -1)) / (4 * h * h)
        assert abs(got - fd) <= 1e-5 * (1.0 + abs(got))


def test_directional_linearity_in_seed():
    rng = np.random.default_rng(6)
    for text in EXPRS:
        e = ex.parse(text)
        point = {"x1": float(rng.uniform(0.5, 1.5)), "y1": float(rng.uniform(0.5, 1.5))}
        u = {"x1": float(rng.uniform(-1, 1)), "y1": float(rng.uniform(-1, 1))}
        v = {"x1": float(rng.uniform(-1, 1)), "y1": float(rng.uniform(-1, 1))}
        al, be = rng.uniform(-2, 2, 2)
        combo = {m: al * u[m] + be * v[m] for m in u}
        _, dc = directional(e, point, combo)
        _, du = directional(e, point, u)
        _, dv = directional(e, point, v)
        assert abs(dc - (al * du + be * dv)) <= 1e-12 * (1.0 + abs(dc))


def test_multi_seed_gradient():
    e = ex.parse("x1*y1^2")
    value, grad = gradient(e, {"x1": 2.0, "y1": 3.0}, ["x1", "y1"])
    assert value == 18.0
    assert grad == [9.0, 12.0]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(TREES, min_size=1, max_size=4),
    st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
    st.lists(st.sampled_from(NAMES), unique=True, max_size=4),
)
def test_gradients_equal_one_gradient_per_expression(exprs, values, names):
    point = dict(zip(NAMES, values))
    want = []
    for e in exprs:
        try:
            want.append(gradient(e, point, names))
        except (ArithmeticError, ValueError) as err:
            with pytest.raises(type(err)):
                gradients(exprs, point, names)
            return
    a = np.array([[v, *g] for v, g in gradients(exprs, point, names)])
    b = np.array([[v, *g] for v, g in want])
    # equal bits, one NaN standing for every NaN
    assert np.where(np.isnan(a), np.nan, a).tobytes() == np.where(np.isnan(b), np.nan, b).tobytes()


def test_gradients_keep_unseeded_names_dual():
    # -x1 over a zero-eps Dual1 x1 has derivative -0.0 in y1; a float x1
    # would make it a constant with derivative +0.0
    ((value, grad),) = gradients([ex.parse("-x1")], {"x1": 1.0, "y1": 2.0}, ["y1"])
    assert value == -1.0 and math.copysign(1.0, grad[0]) == -1.0


def test_dual1_leibniz():
    a = Dual1(2.0, (1.0, 0.0))
    b = Dual1(5.0, (0.0, 1.0))
    p = a * b
    assert p.re == 10.0
    assert p.eps == (5.0, 2.0)


def test_dual2_polynomial_exact():
    # f(u, v) = (3 + u)^2 * (1 + v): d2f/dudv at 0 = 2*(3 + u) -> 6
    f = (Dual2(3.0, 1.0, 0.0, 0.0) * Dual2(3.0, 1.0, 0.0, 0.0)) * Dual2(
        1.0, 0.0, 1.0, 0.0
    )
    assert f.f == 9.0
    assert f.fu == 6.0
    assert f.fv == 9.0
    assert f.fuv == 6.0


def test_dual_division_and_functions():
    x = Dual1(2.0, (1.0,))
    q = 1.0 / x
    assert q.re == 0.5
    assert abs(q.eps[0] + 0.25) < 1e-15
    s = x.sqrt()
    assert abs(s.eps[0] - 0.5 / math.sqrt(2.0)) < 1e-15
    with pytest.raises(ex.DomainError):
        Dual1(0.0, (1.0,)).sqrt()
    with pytest.raises(ex.DomainError):
        Dual2(0.0, 1.0, 1.0, 0.0).log()


def test_lifted_env_partials():
    # partial_in on a lifted env returns the derivative and its outer rate
    e = ex.parse("x1*y1^2")
    env = lift_env({"x1": 2.0, "y1": 3.0}, {"y1": 1.0})
    d_x = partial_in(e, env, {"x1": 1.0})
    # d/dx1 = y1^2 = 9, moving y1 at unit rate gives rate 2*y1 = 6
    assert real_part(d_x) == 9.0
    assert dual_part(d_x) == 6.0
    vals = partials_in(e, env, ["x1", "y1"])
    assert real_part(vals[1]) == 12.0  # 2*x1*y1
    assert dual_part(vals[1]) == 4.0  # 2*x1
    assert real_part(value_in(e, env)) == 18.0
