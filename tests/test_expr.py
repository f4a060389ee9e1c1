import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linconn import expr as ex
from linconn.ad import Dual1, Dual2


def test_single_operator():
    assert ex.parse("y1^2") == ex.Bin("^", ex.Var("y1"), ex.Lit(2.0))


def test_precedence():
    got = ex.parse("x1*y1 + sin(x2)")
    want = ex.Bin(
        "+", ex.Bin("*", ex.Var("x1"), ex.Var("y1")), ex.Fun("sin", ex.Var("x2"))
    )
    assert got == want


def test_unbalanced_paren_offset():
    with pytest.raises(ex.ParseError) as err:
        ex.parse("-(y1")
    assert err.value.offset == 5


def test_unknown_function_offset():
    with pytest.raises(ex.ParseError) as err:
        ex.parse("1 + tan(x1)")
    assert err.value.offset == 5


def test_a_number_that_overflows_a_float_is_a_parse_error():
    for text, offset in (("1e999*y1", 1), ("y1 + 2.5e308", 6)):
        with pytest.raises(ex.ParseError, match="does not fit in a float") as err:
            ex.parse(text)
        assert err.value.offset == offset
    assert ex.parse("1.7e308") == ex.Lit(1.7e308)


def test_trailing_tokens():
    with pytest.raises(ex.ParseError):
        ex.parse("x1 )")


def test_bad_variable_names():
    for text in ("x0", "y01", "w1", "foo"):
        with pytest.raises(ex.ParseError):
            ex.parse(text)


def test_power_binds_tighter_than_unary_minus():
    assert ex.evaluate(ex.parse("-x1^2"), {"x1": 3.0}) == -9.0
    assert ex.evaluate(ex.parse("(-x1)^2"), {"x1": 3.0}) == 9.0


def test_power_right_associative():
    assert ex.evaluate(ex.parse("2^3^2"), {}) == 512.0


def test_left_associativity():
    assert ex.evaluate(ex.parse("8 - 4 - 2"), {}) == 2.0
    assert ex.evaluate(ex.parse("8 / 4 / 2"), {}) == 1.0


def test_eval_examples():
    assert ex.evaluate(ex.parse("y1^2"), {"y1": 3.0}) == 9.0
    assert ex.evaluate(ex.parse("x1*y1"), {"x1": 2.0, "y1": 5.0}) == 10.0


def test_eval_dual_derivative():
    out = ex.evaluate(ex.parse("y1^2"), {"y1": Dual1(3.0, (1.0,))})
    assert out.re == 9.0
    assert out.eps == (6.0,)
    # cross-check with a central finite difference
    h = 1e-6
    fd = (ex.evaluate(ex.parse("y1^2"), {"y1": 3.0 + h}) -
          ex.evaluate(ex.parse("y1^2"), {"y1": 3.0 - h})) / (2 * h)
    assert abs(out.eps[0] - fd) < 1e-8


def test_unbound_variable():
    with pytest.raises(ex.UnboundVariableError):
        ex.evaluate(ex.parse("y1 + y2"), {"y1": 1.0})


def test_domain_errors():
    with pytest.raises(ex.DomainError):
        ex.evaluate(ex.parse("log(x1)"), {"x1": -1.0})
    with pytest.raises(ex.DomainError):
        ex.evaluate(ex.parse("sqrt(x1)"), {"x1": -1.0})
    with pytest.raises(ex.DomainError):
        ex.evaluate(ex.parse("1/x1"), {"x1": 0.0})
    with pytest.raises(ex.DomainError):
        ex.evaluate(ex.parse("x1^0.5"), {"x1": -2.0})
    # integer exponents accept negative bases
    assert ex.evaluate(ex.parse("x1^3"), {"x1": -2.0}) == -8.0
    assert ex.evaluate(ex.parse("x1^(-2)"), {"x1": 2.0}) == 0.25


def test_negative_power_underflow_is_a_domain_error():
    # 1e-200^2 underflows to 0.0; the float path must not divide by it
    with pytest.raises(ex.DomainError, match="too close to zero"):
        ex.evaluate(ex.parse("x1^-2"), {"x1": 1e-200})
    with pytest.raises(ex.DomainError):
        ex.evaluate(ex.parse("x1^-2"), {"x1": Dual1(1e-200, (1.0,))})
    assert ex.evaluate(ex.parse("x1^-2"), {"x1": 1e-150}) == 1.0 / (1e-150 * 1e-150)


def test_abs_dual_at_zero_rejected():
    assert ex.evaluate(ex.parse("abs(x1)"), {"x1": 0.0}) == 0.0
    with pytest.raises(ex.DomainError):
        ex.evaluate(ex.parse("abs(x1)"), {"x1": Dual1(0.0, (1.0,))})
    out = ex.evaluate(ex.parse("abs(x1)"), {"x1": Dual1(-2.0, (1.0,))})
    assert (out.re, out.eps) == (2.0, (-1.0,))


def test_zero_seed_dual_matches_real():
    rng = np.random.default_rng(7)
    exprs = ["x1*y1 + sin(x2)", "exp(y1/2) - x2^2", "sqrt(x1^2 + 1)*cos(y1)"]
    for text in exprs:
        e = ex.parse(text)
        for _ in range(20):
            point = {name: float(rng.uniform(-2, 2)) for name in ("x1", "x2", "y1")}
            real = ex.evaluate(e, point)
            dual = ex.evaluate(e, {m: Dual1(v, (0.0,)) for m, v in point.items()})
            assert dual.re == real
            assert dual.eps[0] == 0.0


NAMES = ("x1", "x2", "y1", "t")
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _trees(literals, names=NAMES, ops=("+", "-", "*", "/", "^"), functions=ex.FUNCTIONS):
    leaves = st.one_of(st.sampled_from(names).map(ex.Var), literals.map(ex.Lit))

    def grow(sub):
        return st.one_of(
            st.builds(ex.Neg, sub),
            st.builds(ex.Bin, st.sampled_from(ops), sub, sub),
            st.builds(ex.Fun, st.sampled_from(functions), sub),
        )

    return st.recursive(leaves, grow, max_leaves=10)


def _same_bits(a, b) -> bool:
    if isinstance(a, type) or isinstance(b, type):
        return a == b
    return np.float64(a).tobytes() == np.float64(b).tobytes() or (math.isnan(a) and math.isnan(b))


@settings(max_examples=500, deadline=None)
@given(_trees(FINITE), st.tuples(*[FINITE] * len(NAMES)))
def test_print_parse_round_trip(tree, values):
    # the text reads back as a tree that evaluates bitwise as the printed
    # one (a negative literal may come back as a Neg, which is exact), and
    # parse(to_str(parse(s))) == parse(s)
    text = ex.to_str(tree)
    once = ex.parse(text)
    env = dict(zip(NAMES, values))
    assert _same_bits(_outcome(once, env), _outcome(tree, env))
    assert ex.parse(ex.to_str(once)) == once
    assert ex.to_str(once) == text


def test_print_keeps_a_right_nested_sum_and_product():
    x = ex.Var("x1")
    for op in "+*":
        right = ex.Bin(op, x, ex.Bin(op, x, x))
        assert ex.to_str(right) == f"x1 {op} (x1 {op} x1)".replace(" * ", "*")
        assert ex.parse(ex.to_str(right)) == right
    # 0.1 + (0.2 + 0.3) and (0.1 + 0.2) + 0.3 differ in the last bit
    tree = ex.Bin("+", ex.Lit(0.1), ex.Bin("+", ex.Lit(0.2), ex.Lit(0.3)))
    assert ex.evaluate(ex.parse(ex.to_str(tree)), {}) == 0.1 + (0.2 + 0.3) != (0.1 + 0.2) + 0.3


# Division-free trees: Dual2 divides as a*(1/b) and Dual1 as a/b, so with
# division the two agree only to rounding.
RING_TREES = _trees(
    st.floats(-3.0, 3.0),
    names=("x1", "y1"),
    ops=("+", "-", "*"),
    functions=("sin", "cos", "exp", "log", "sqrt", "abs"),
).flatmap(
    lambda e: st.one_of(
        st.just(e),
        st.builds(lambda p: ex.Bin("^", e, ex.Lit(float(p))), st.integers(0, 4)),
        st.builds(lambda p: ex.Bin("^", e, ex.Lit(p)), st.floats(0.25, 2.5)),
    )
)
SLOT = st.floats(-2.0, 2.0)


def _outcome(e, env):
    try:
        return ex.evaluate(e, env)
    except (ArithmeticError, ValueError) as err:
        if isinstance(err, OverflowError) and str(err) != "math range error":
            # not math.exp: a second-order coefficient of Dual2 (-1/f^2,
            # 2/f^3, -1/(4 f^1.5)) overflows, with no first-order counterpart
            return "second order"
        return type(err)


@settings(max_examples=300, deadline=None)
@given(RING_TREES, SLOT, SLOT, SLOT, SLOT, SLOT, SLOT)
def test_dual1_matches_dual2_first_slot(e, x1, y1, ux, uy, vx, vy):
    one = _outcome(e, {"x1": Dual1(x1, (ux,)), "y1": Dual1(y1, (uy,))})
    two = _outcome(e, {"x1": Dual2(x1, ux, vx), "y1": Dual2(y1, uy, vy)})
    if two == "second order":
        return
    if isinstance(one, type) or isinstance(two, type):
        assert one == two
        return
    re1, d1 = (one.re, one.eps[0]) if isinstance(one, Dual1) else (one, 0.0)
    re2, d2 = (two.f, two.fu) if isinstance(two, Dual2) else (two, 0.0)
    # equal bits, one NaN standing for every NaN
    assert np.array([re1, d1]).tobytes() == np.array([re2, d2]).tobytes() or (
        np.isnan([re1, d1]).tolist() == np.isnan([re2, d2]).tolist()
        and np.array_equal([re1, d1], [re2, d2], equal_nan=True)
    )


def test_variables():
    assert ex.variables(ex.parse("x1*y2 + sin(t)")) == {"x1", "y2", "t"}


def test_bool_parse_eval():
    b = ex.parse_bool("y1^2 + y2^2 > 0")
    assert ex.evaluate_bool(b, {"y1": 0.1, "y2": 0.0})
    assert not ex.evaluate_bool(b, {"y1": 0.0, "y2": 0.0})
    b2 = ex.parse_bool("x1 > 0 and x1 < 1 or y1 >= 2")
    assert ex.evaluate_bool(b2, {"x1": 0.5, "y1": 0.0})
    assert ex.evaluate_bool(b2, {"x1": 5.0, "y1": 2.0})
    assert not ex.evaluate_bool(b2, {"x1": 5.0, "y1": 0.0})
    assert ex.bool_variables(b2) == {"x1", "y1"}


def test_bool_parse_errors():
    with pytest.raises(ex.ParseError):
        ex.parse_bool("x1 + 1")
    with pytest.raises(ex.ParseError):
        ex.parse_bool("x1 > 0 foo")
