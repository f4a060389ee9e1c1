"""Compiled lanes against ``ad.gradients`` lane by lane.

``codegen.compile_lanes`` prints forward-mode code over numpy arrays of lane
values.  Column j of its output must be what ``ad.gradients`` gives at the
values of lane j: bitwise for + - * /, integer powers, sqrt and abs, within
a few ulp where numpy's sin, cos, exp and log stand for the math module's.
When some lane raises, the lanes raise an exception of a class that a lane
raised.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linconn import ad, codegen
from linconn import expr as ex

NAMES = ("x1", "x2")
VALUES = st.floats(-3.0, 3.0)
EXACT_OPS = ("+", "-", "*", "/")


def _trees(leaves):
    def grow(sub):
        return st.one_of(
            st.builds(ex.Neg, sub),
            st.builds(ex.Bin, st.sampled_from(EXACT_OPS), sub, sub),
            st.builds(ex.Bin, st.just("^"), sub, st.integers(-3, 4).map(ex.lit)),
            st.builds(ex.Fun, st.sampled_from(("abs", "sqrt")), sub),
        )

    return st.recursive(leaves, grow, max_leaves=8)


EXACT_TREES = _trees(
    st.one_of(st.sampled_from(NAMES).map(ex.Var), VALUES.map(ex.lit))
)


@st.composite
def batches(draw):
    """Lane values of x1, x2 and the seeded names."""
    n_lanes = draw(st.integers(1, 5))
    point = {name: draw(st.lists(VALUES, min_size=n_lanes, max_size=n_lanes)) for name in NAMES}
    seeded = draw(st.sampled_from((("x1",), ("x2",), NAMES, NAMES[::-1])))
    return n_lanes, point, seeded


def _scalar(trees, n_lanes, point, seeded):
    """Per-lane ``ad.gradients`` output as a flat list, or the class it raised."""
    out = []
    for j in range(n_lanes):
        try:
            pairs = ad.gradients(trees, {n: point[n][j] for n in NAMES}, seeded)
        except (ArithmeticError, ValueError) as err:
            out.append(type(err))
            continue
        out.append([v for v, _ in pairs] + [d for _, grad in pairs for d in grad])
    return out


def _lanes(trees, point, seeded):
    f = codegen.compile_lanes(trees, NAMES, seeded)
    with np.errstate(all="ignore"):  # floats overflow silently too
        return f(*(np.array(point[n]) for n in NAMES))


def _compare(trees, batch, compare_lanes):
    n_lanes, point, seeded = batch
    scalar = _scalar(trees, n_lanes, point, seeded)
    raised = {r for r in scalar if isinstance(r, type)}
    if raised:
        with pytest.raises((ArithmeticError, ValueError)) as err:
            _lanes(trees, point, seeded)
        assert type(err.value) in raised
        return
    got = _lanes(trees, point, seeded)
    assert got.shape == (len(trees) * (1 + len(seeded)), n_lanes)
    compare_lanes(got, np.array(scalar, dtype=float).T)


def _bitwise(a, b):
    # equal bits, one NaN standing for every NaN
    assert np.where(np.isnan(a), np.nan, a).tobytes() == np.where(np.isnan(b), np.nan, b).tobytes()


def _few_ulp(a, b):
    finite = np.isfinite(b)
    assert (np.isfinite(a) == finite).all()
    np.testing.assert_array_max_ulp(a[finite], b[finite], maxulp=4)


@settings(max_examples=300, deadline=None)
@given(st.lists(EXACT_TREES, min_size=1, max_size=3), batches())
def test_batched_matches_scalar_bitwise(trees, batch):
    _compare(trees, batch, _bitwise)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(("sin", "cos", "exp", "log")), EXACT_TREES, batches())
def test_batched_functions_within_few_ulp(name, arg, batch):
    _compare([ex.Fun(name, arg)], batch, _few_ulp)


@settings(max_examples=100, deadline=None)
@given(EXACT_TREES, st.sampled_from((0.5, -1.5, 2.5)), batches())
def test_batched_fractional_powers_within_few_ulp(base, p, batch):
    _compare([ex.Bin("^", base, ex.lit(p))], batch, _few_ulp)


OFFENDING = (
    ("1/x1", ex.DomainError, "division by zero"),
    ("x1^-2", ex.DomainError, "zero base with negative integer exponent"),
    ("log(x1)", ex.DomainError, "log of non-positive value"),
    ("sqrt(x1)", ex.DomainError, "differentiating"),
    ("abs(x1)", ex.DomainError, "not differentiable"),
    ("(x1 - 1)^0.5", ex.DomainError, "non-integer"),
    ("exp(800 - 400*x1)", OverflowError, "math range error"),
    ("sin(1/(x1 + 1e-320))", ValueError, "math domain error"),  # sin(inf)
)


def test_offending_lane_raises_the_scalar_error():
    # the lane x1 = 0 offends, and the scalar walk raises there too
    for text, error, match in OFFENDING:
        f = codegen.compile_lanes([ex.parse(text)], ("x1",), ("x1",))
        with pytest.raises(error, match=match):
            ad.gradients([ex.parse(text)], {"x1": 0.0}, ("x1",))
        with np.errstate(all="ignore"), pytest.raises(error, match=match):
            f(np.array([1.0, 0.0, 2.0]))
        assert f(np.array([2.0])).shape == (2, 1)


def test_exp_of_infinity_is_not_an_overflow():
    out = codegen.compile_lanes([ex.parse("exp(x1)")], ("x1",), ("x1",))(np.array([np.inf, 0.0]))
    assert out.tolist() == [[np.inf, 1.0], [np.inf, 1.0]]


def test_constant_trees_broadcast_to_the_lanes():
    # x2 is not seeded: its partials are the float 0.0 * 3.0
    trees = [ex.parse("2 + sin(1)"), ex.parse("x2 * 3"), ex.parse("-0.0")]
    out = codegen.compile_lanes(trees, NAMES, ("x1",))(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]))
    want = [[2.0 + math.sin(1.0)] * 3, [12.0, 15.0, 18.0], [-0.0] * 3, [0.0] * 3, [0.0] * 3, [0.0] * 3]
    assert out.tobytes() == np.array(want).tobytes()


def test_a_tree_only_the_walk_decides_has_no_lanes():
    with pytest.raises(ValueError):
        codegen.compile_lanes([ex.parse("x1^x2")], NAMES, NAMES)


@pytest.mark.filterwarnings("error")
def test_integer_power_squares_only_as_far_as_it_needs():
    # y^2 at 1e100 is 1e200; a further, unused squaring would overflow and warn
    out = codegen.compile_lanes([ex.parse("y1^2")], ("y1",), ("y1",))(np.full(2, 1e100))
    assert out[0].tolist() == [1e200, 1e200]
