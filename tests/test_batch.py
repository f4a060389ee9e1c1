"""Batched dual evaluation against per-lane scalar evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linconn import expr as ex
from linconn.ad import Dual1, DualBatch, lanes

NAMES = ("x1", "x2")
VALUES = st.floats(-3.0, 3.0)
EXACT_OPS = ("+", "-", "*", "/")


def _trees(leaves):
    def grow(sub):
        return st.one_of(
            st.builds(ex.Neg, sub),
            st.builds(ex.Bin, st.sampled_from(EXACT_OPS), sub, sub),
            st.builds(ex.Bin, st.just("^"), sub, st.integers(-3, 4).map(ex.lit)),
            st.builds(ex.Fun, st.just("abs"), sub),
        )

    return st.recursive(leaves, grow, max_leaves=8)


EXACT_TREES = _trees(
    st.one_of(st.sampled_from(NAMES).map(ex.Var), VALUES.map(ex.lit))
)


@st.composite
def batches(draw):
    """Lane values of x1, x2 and a seed count m."""
    n_lanes = draw(st.integers(1, 5))
    m = draw(st.integers(1, 2))
    point = {name: draw(st.lists(VALUES, min_size=n_lanes, max_size=n_lanes)) for name in NAMES}
    seeds = {
        name: draw(st.lists(st.lists(VALUES, min_size=n_lanes, max_size=n_lanes), min_size=m, max_size=m))
        for name in NAMES
    }
    return n_lanes, m, point, seeds


def _scalar(e, n_lanes, m, point, seeds):
    """Per-lane Dual1 results as (re, eps) or an exception class."""
    out = []
    for j in range(n_lanes):
        env = {n: Dual1(point[n][j], [row[j] for row in seeds[n]]) for n in NAMES}
        try:
            r = ex.evaluate(e, env)
        except (ArithmeticError, ValueError) as err:
            out.append(type(err))
            continue
        out.append((r.re, r.eps) if isinstance(r, Dual1) else (float(r), (0.0,) * m))
    return out


def _batched(e, n_lanes, m, point, seeds):
    env = {
        n: DualBatch(np.array(point[n]), np.array(seeds[n]).reshape(m, n_lanes))
        for n in NAMES
    }
    with np.errstate(all="ignore"):  # floats overflow silently too
        return lanes(ex.evaluate(e, env), env["x1"])


def _compare(e, batch, compare_lanes):
    n_lanes, m, point, seeds = batch
    scalar = _scalar(e, n_lanes, m, point, seeds)
    raised = {r for r in scalar if isinstance(r, type)}
    if raised:
        with pytest.raises((ArithmeticError, ValueError)) as err:
            _batched(e, *batch)
        assert type(err.value) in raised
        return
    got = _batched(e, *batch)
    want_re = np.array([r[0] for r in scalar])
    want_eps = np.array([r[1] for r in scalar]).T.reshape(m, n_lanes)
    compare_lanes(got.re, want_re)
    compare_lanes(got.eps, want_eps)


def _bitwise(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    assert a.shape == b.shape
    # equal bits, one NaN standing for every NaN
    assert np.where(np.isnan(a), np.nan, a).tobytes() == np.where(np.isnan(b), np.nan, b).tobytes()


def _few_ulp(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    finite = np.isfinite(b)
    assert (np.isfinite(a) == finite).all()
    np.testing.assert_array_max_ulp(a[finite], b[finite], maxulp=4)


@settings(max_examples=300, deadline=None)
@given(EXACT_TREES, batches())
def test_batched_matches_scalar_bitwise(e, batch):
    _compare(e, batch, _bitwise)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(("sin", "cos", "exp", "log", "sqrt")), EXACT_TREES, batches())
def test_batched_functions_within_few_ulp(name, arg, batch):
    _compare(ex.Fun(name, arg), batch, _few_ulp)


def test_offending_lane_raises_the_scalar_error():
    x = DualBatch(np.array([1.0, 0.0, 2.0]), np.ones((1, 3)))
    with pytest.raises(ex.DomainError, match="division by zero"):
        ex.evaluate(ex.parse("1/x1"), {"x1": x})
    with pytest.raises(ex.DomainError, match="log"):
        ex.evaluate(ex.parse("log(x1)"), {"x1": x})
    with pytest.raises(ex.DomainError, match="differentiating"):
        ex.evaluate(ex.parse("sqrt(x1)"), {"x1": x})
    with pytest.raises(ex.DomainError, match="non-integer"):
        ex.evaluate(ex.parse("(x1 - 1)^0.5"), {"x1": x})
    with pytest.raises(OverflowError):
        ex.evaluate(ex.parse("exp(x1 + 800)"), {"x1": x})


@pytest.mark.filterwarnings("error")
def test_integer_power_squares_only_as_far_as_it_needs():
    # y^2 at 1e100 is 1e200; a further, unused squaring would overflow and warn
    y = DualBatch(np.full(2, 1e100), np.ones((1, 2)))
    assert ex.evaluate(ex.parse("y1^2"), {"y1": y}).re.tolist() == [1e200, 1e200]
    assert ex.evaluate(ex.parse("y1^3"), {"y1": Dual1(1e100, (1.0,))}).re == 1e300
