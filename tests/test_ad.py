import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linconn import ad
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
    assert real_part(ex.evaluate(e, env)) == 18.0


def test_a_lifted_seed_adds_the_derivative_along_its_outer_rate():
    # e = x1*y1^2 at (2, 3), the env moving along y1 at unit rate; the walk
    # is e(x + s*u + t*v + st*u'), so the outer part is D2e(u, v) + De.u'
    e = ex.parse("x1*y1^2")
    env = lift_env({"x1": 2.0, "y1": 3.0}, {"y1": 1.0})
    along_x = partial_in(e, env, {"x1": Dual1(1.0, (2.0,))})
    assert (real_part(along_x), dual_part(along_x)) == (9.0, 24.0)  # u'*y1^2 + u*2*y1
    along_y = partial_in(e, env, {"y1": Dual1(0.5, (4.0,))})
    assert (real_part(along_y), dual_part(along_y)) == (6.0, 50.0)  # 2*x1*u + 2*x1*y1*u'
    both = partial_in(e, env, {"x1": Dual1(1.0, (2.0,)), "y1": Dual1(0.5, (4.0,))})
    assert (real_part(both), dual_part(both)) == (15.0, 74.0)


def test_value_and_partial_in_reads_the_value_from_the_same_walk():
    e = ex.parse("x1*y1^2 + sin(y1)")
    seed = {"x1": Dual1(1.0, (2.0,)), "y1": Dual1(0.5, (4.0,))}
    plain = {"x1": 2.0, "y1": 3.0}
    value, d = ad.value_and_partial_in(e, plain, {"x1": 1.0, "y1": 0.5})
    assert (value, d) == directional(e, plain, {"x1": 1.0, "y1": 0.5})
    assert value == ex.evaluate(e, plain)
    lifted = lift_env(plain, {"y1": 1.0})
    value, d = ad.value_and_partial_in(e, lifted, seed)
    want = ex.evaluate(e, lifted)
    # no division in e: the Dual2 value and outer slots are the Dual1 walk's
    assert (value.re, value.eps) == (want.re, want.eps)
    got = partial_in(e, lifted, seed)
    assert (d.re, d.eps) == (got.re, got.eps)
    assert ad.value_and_partial_in(ex.parse("2*3"), lifted, seed) == (6.0, 0.0)


# ---------------------------------------------------------------------------
# The operators against today's formulas written with the public constructors


def _ref_pairs(a, b):
    if len(a.eps) != len(b.eps):
        raise ValueError("seed vectors of different lengths")
    return zip(a.eps, b.eps)


def _ref_guard(divisor):
    if divisor == 0.0:
        raise ex.DomainError("division by zero")


def _ref1_binary(op, a, b):
    """a op b for a Dual1 a and a Dual1 or number b; op 'r-' is b - a."""
    if isinstance(b, Dual1):
        if op == "+":
            return Dual1(a.re + b.re, (x + y for x, y in _ref_pairs(a, b)))
        if op == "-":
            return Dual1(a.re - b.re, (x - y for x, y in _ref_pairs(a, b)))
        if op == "*":
            return Dual1(a.re * b.re, (a.re * y + x * b.re for x, y in _ref_pairs(a, b)))
        _ref_guard(b.re)
        q = a.re / b.re
        return Dual1(q, ((x - q * y) / b.re for x, y in _ref_pairs(a, b)))
    if op == "+":
        return Dual1(a.re + b, a.eps)
    if op == "-":
        return Dual1(a.re - b, a.eps)
    if op == "*":
        return Dual1(a.re * b, (x * b for x in a.eps))
    if op == "/":
        _ref_guard(b)
        return Dual1(a.re / b, (x / b for x in a.eps))
    if op == "r-":
        return Dual1(b - a.re, (-x for x in a.eps))
    _ref_guard(a.re)  # r/
    q = b / a.re
    return Dual1(q, (-q * x / a.re for x in a.eps))


def _ref1_unary(name, a):
    re = a.re
    if name == "neg":
        return Dual1(-re, (-x for x in a.eps))
    if name == "abs":
        if re == 0.0:
            raise ex.DomainError("abs is not differentiable at zero")
        return a if re > 0.0 else _ref1_unary("neg", a)
    if name in ("log", "sqrt") and re <= 0.0:
        raise ex.DomainError(name)
    v = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "log": math.log, "sqrt": math.sqrt}[name](re)
    d = {"sin": lambda: math.cos(re), "cos": lambda: -math.sin(re), "exp": lambda: v,
         "log": lambda: 1.0 / re, "sqrt": lambda: 0.5 / v}[name]()
    return Dual1(v, (d * x for x in a.eps))


def _ref2_chain(a, f0, f1, f2):
    return Dual2(f0, f1 * a.fu, f1 * a.fv, f1 * a.fuv + f2 * (a.fu * a.fv))


def _ref2_inverse(a):
    _ref_guard(a.f)
    return _ref2_chain(a, 1.0 / a.f, ad._second(-1.0, a.f, 2), ad._second(2.0, a.f, 3))


def _ref2_binary(op, a, b):
    """a op b for a Dual2 a and a Dual2 or number b; op 'r-' is b - a."""
    if isinstance(b, Dual2):
        if op == "+":
            return Dual2(a.f + b.f, a.fu + b.fu, a.fv + b.fv, a.fuv + b.fuv)
        if op == "-":
            return Dual2(a.f - b.f, a.fu - b.fu, a.fv - b.fv, a.fuv - b.fuv)
        if op == "*":
            return Dual2(
                a.f * b.f,
                a.f * b.fu + a.fu * b.f,
                a.f * b.fv + a.fv * b.f,
                (a.f * b.fuv + a.fuv * b.f) + (a.fu * b.fv + a.fv * b.fu),
            )
        return _ref2_binary("*", a, _ref2_inverse(b))
    if op == "+":
        return Dual2(a.f + b, a.fu, a.fv, a.fuv)
    if op == "-":
        return Dual2(a.f - b, a.fu, a.fv, a.fuv)
    if op == "*":
        return Dual2(a.f * b, a.fu * b, a.fv * b, a.fuv * b)
    if op == "/":
        _ref_guard(b)
        return _ref2_binary("*", a, 1.0 / b)
    if op == "r-":
        return Dual2(b - a.f, -a.fu, -a.fv, -a.fuv)
    return _ref2_binary("*", _ref2_inverse(a), b)  # r/


def _ref2_unary(name, a):
    f = a.f
    if name == "neg":
        return Dual2(-f, -a.fu, -a.fv, -a.fuv)
    if name == "abs":
        if f == 0.0:
            raise ex.DomainError("abs is not differentiable at zero")
        return a if f > 0.0 else _ref2_unary("neg", a)
    if name == "sin":
        return _ref2_chain(a, math.sin(f), math.cos(f), -math.sin(f))
    if name == "cos":
        return _ref2_chain(a, math.cos(f), -math.sin(f), -math.cos(f))
    if name == "exp":
        v = math.exp(f)
        return _ref2_chain(a, v, v, v)
    if f <= 0.0:
        raise ex.DomainError(name)
    if name == "log":
        return _ref2_chain(a, math.log(f), 1.0 / f, ad._second(-1.0, f, 2))
    v = math.sqrt(f)
    return _ref2_chain(a, v, 0.5 / v, ad._second(-0.25, v * f, 1))


_BINARY = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b,
           "/": lambda a, b: a / b, "r+": lambda a, b: b + a, "r-": lambda a, b: b - a,
           "r*": lambda a, b: b * a, "r/": lambda a, b: b / a}
_UNARY = ("neg", "sin", "cos", "exp", "log", "sqrt", "abs")
SLOTS = st.floats()  # every float, inf and nan included
NUMBERS = st.one_of(SLOTS, st.integers(-3, 3), st.booleans(), SLOTS.map(np.float64))
DUAL1S = st.builds(Dual1, SLOTS, st.lists(SLOTS, min_size=1, max_size=3))
DUAL2S = st.builds(Dual2, SLOTS, SLOTS, SLOTS, SLOTS)


def _slots(d):
    return (d.re, *d.eps) if isinstance(d, Dual1) else (d.f, d.fu, d.fv, d.fuv)


def _run(fn, *args):
    try:
        with np.errstate(all="ignore"):  # numpy scalar operands warn on overflow
            return fn(*args)
    except (ArithmeticError, ValueError) as err:
        return type(err)


def _assert_same(got, want):
    if isinstance(want, type) or isinstance(got, type):
        assert got == want
        return
    assert got.__class__ is want.__class__
    assert all(s.__class__ is float for s in _slots(got))
    if isinstance(got, Dual1):
        assert got.eps.__class__ is tuple
    a, b = np.array(_slots(got)), np.array(_slots(want))
    assert a.tobytes() == b.tobytes() or (
        np.array_equal(a, b, equal_nan=True) and np.isnan(a).tolist() == np.isnan(b).tolist()
    )


@settings(max_examples=600, deadline=None)
@given(DUAL1S, st.one_of(DUAL1S, NUMBERS), st.sampled_from(sorted(_BINARY)))
def test_dual1_binary_operators_match_the_public_constructor(a, b, op):
    if op.startswith("r") and isinstance(b, Dual1):
        return  # two duals meet in the forward operator
    want = _run(_ref1_binary, op if op in ("r-", "r/") else op.lstrip("r"), a, b)
    _assert_same(_run(_BINARY[op], a, b), want)


@settings(max_examples=600, deadline=None)
@given(DUAL2S, st.one_of(DUAL2S, NUMBERS), st.sampled_from(sorted(_BINARY)))
def test_dual2_binary_operators_match_the_public_constructor(a, b, op):
    if op.startswith("r") and isinstance(b, Dual2):
        return
    want = _run(_ref2_binary, op if op in ("r-", "r/") else op.lstrip("r"), a, b)
    _assert_same(_run(_BINARY[op], a, b), want)


@settings(max_examples=400, deadline=None)
@given(DUAL1S, DUAL2S, st.sampled_from(_UNARY))
def test_dual_functions_match_the_public_constructor(a, b, name):
    method = (lambda d: -d) if name == "neg" else (lambda d: getattr(d, name)())
    _assert_same(_run(method, a), _run(_ref1_unary, name, a))
    _assert_same(_run(method, b), _run(_ref2_unary, name, b))


def test_dual1_seed_lengths_must_agree():
    for op in ("+", "-", "*", "/"):
        with pytest.raises(ValueError, match="different lengths"):
            _BINARY[op](Dual1(1.0, (1.0,)), Dual1(2.0, (1.0, 0.0)))


def test_dual2_second_order_coefficients_underflow_instead_of_overflowing():
    # f**2 overflows past ~1.3e154 and f**3 past ~5.6e102, but -1/f^2 and
    # 2/f^3 only underflow: they are then divided out one f at a time
    mid = Dual2(1.5e154, 1.0, 1.0).log()
    assert mid.fuv == -1.0 / 1.5e154 / 1.5e154 < 0.0  # a subnormal, not 0
    assert Dual2(1e200, 1.0, 1.0).log().fuv == 0.0
    assert math.copysign(1.0, ad._second(-1.0, 1e200, 2)) == -1.0  # -1e-400 as -0.0
    assert (1.0 / Dual2(1e104, 1.0, 1.0)).fuv == 2.0 / 1e104 / 1e104 / 1e104 > 0.0
    assert (1.0 / Dual2(-1e110, 1.0, 1.0)).fuv == 0.0
    # unchanged where ** does not overflow; an underflowed f**2 still raises
    rng = np.random.default_rng(12)
    for f in 10.0 ** rng.uniform(-100, 100, 200):
        assert Dual2(f, 1.0, 1.0).log().fuv == -1.0 / f**2
        assert (1.0 / Dual2(f, 1.0, 1.0)).fuv == 2.0 / f**3
        v = math.sqrt(f)
        assert Dual2(f, 1.0, 1.0).sqrt().fuv == -0.25 / (v * f)
    with pytest.raises(OverflowError):
        Dual2(1e-200, 1.0, 1.0).log()


def _partial_in_with_float_seeds(e, env, seed):
    """partial_in as written before a seed entry could be a lifted scalar."""
    if not ad.is_lifted(env):
        return directional(e, env, seed)[1]
    env2 = {}
    for name, v in env.items():
        outer = v.eps[0] if isinstance(v, Dual1) else 0.0
        env2[name] = Dual2(real_part(v), seed.get(name, 0.0), outer)
    r = ex.evaluate(e, env2)
    if isinstance(r, Dual2):
        return Dual1(r.fu, (r.fuv,))
    return 0.0


COORDS = st.floats(-3.0, 3.0)


@settings(max_examples=400, deadline=None)
@given(
    TREES,
    st.tuples(*[COORDS] * len(NAMES)),
    st.tuples(*[COORDS] * len(NAMES)),
    st.one_of(st.none(), st.tuples(*[COORDS] * len(NAMES))),
)
def test_partial_in_with_float_seeds_is_bitwise_unchanged(e, point, seed, outer):
    env = dict(zip(NAMES, point))
    if outer is not None:
        env = lift_env(env, dict(zip(NAMES, outer)))
    seed = dict(zip(NAMES, seed))
    got = _run(partial_in, e, env, seed)
    want = _run(_partial_in_with_float_seeds, e, env, seed)
    if isinstance(want, float):
        assert got.__class__ is float
        same_bits = np.array(got).tobytes() == np.array(want).tobytes()
        assert same_bits or (math.isnan(got) and math.isnan(want))
    else:
        _assert_same(got, want)
