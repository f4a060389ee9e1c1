import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from linconn.geom import (
    BASE_TOL,
    BundleSpace,
    FiberPoint,
    NotTpiVerticalError,
    NotVerticalError,
    PullbackPoint,
    SecondTangent,
    TangentE,
    TangentPullback,
    canonical_involution,
    tangent_add,
    tangent_of_projection,
    tangent_of_vertical_lift,
    tangent_of_vertical_project,
    tangent_scale,
    tau_add,
    tau_scale,
    tau_zero,
    tpi_image,
    tpi_vertical_lift,
    tpi_vertical_project,
    taue_vertical_lift,
    taue_vertical_project,
    vertical_lift,
    vertical_project,
    _check_close,
    _zero,
)
from linconn import expr as ex

RNG = np.random.default_rng(42)
N, K = 2, 3


def rand_vec(m):
    return RNG.uniform(-1.5, 1.5, m)


def rand_tangent(at=None, dx=None):
    at = at if at is not None else FiberPoint(rand_vec(N), rand_vec(K))
    return TangentE(at, dx if dx is not None else rand_vec(N), rand_vec(K))


def rand_st():
    return SecondTangent(*(rand_vec(N if j % 2 == 0 else K) for j in range(8)))


def test_vertical_lift_basic():
    a = FiberPoint([0.0], [1.0])
    w = vertical_lift(a, [5.0])
    assert np.all(w.dx == 0.0) and np.all(w.dy == [5.0])
    z = vertical_lift(a, [0.0])
    assert np.all(z.dy == 0.0)


def test_vertical_roundtrip_random():
    for _ in range(100):
        a = FiberPoint(rand_vec(N), rand_vec(K))
        b = rand_vec(K)
        assert np.array_equal(vertical_project(vertical_lift(a, b)), b)


def test_vertical_project_requires_exact_verticality():
    w = TangentE(FiberPoint([0.0], [0.0]), [1.0], [0.0])
    with pytest.raises(NotVerticalError):
        vertical_project(w)
    ok = TangentE(FiberPoint([0.0, 0.0], [1.0, -1.0]), [0.0, 0.0], [3.0, -1.0])
    assert np.array_equal(vertical_project(ok), [3.0, -1.0])


def test_vertical_project_linear():
    for _ in range(100):
        a = FiberPoint(rand_vec(N), rand_vec(K))
        u = vertical_lift(a, rand_vec(K))
        v = vertical_lift(a, rand_vec(K))
        al, be = RNG.uniform(-2, 2, 2)
        lhs = vertical_project(tangent_add(tangent_scale(al, u), tangent_scale(be, v)))
        rhs = al * vertical_project(u) + be * vertical_project(v)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_tau_add_tangent_level():
    x = rand_vec(N)
    dx = rand_vec(N)
    w1 = rand_tangent(FiberPoint(x, rand_vec(K)), dx)
    w2 = rand_tangent(FiberPoint(x, rand_vec(K)), dx)
    s = tau_add(w1, w2)
    assert np.array_equal(s.at.y, w1.at.y + w2.at.y)
    assert np.array_equal(s.dy, w1.dy + w2.dy)
    assert np.array_equal(s.dx, dx)
    with pytest.raises(ValueError):
        tau_add(w1, rand_tangent())


def test_tau_zero_neutral():
    for _ in range(50):
        v = rand_st()
        s = tau_add(v, tau_zero(v))
        assert np.array_equal(s.y, v.y) and np.array_equal(s.delta_dy, v.delta_dy)
        w = rand_tangent()
        s2 = tau_add(w, tau_zero(w))
        assert np.array_equal(s2.at.y, w.at.y) and np.array_equal(s2.dy, w.dy)


def test_tau_add_second_tangent_keeps_base_image():
    v = rand_st()
    w = rand_st()
    w = SecondTangent(v.x, w.y, v.dx, w.dy, w.delta_x, w.delta_y, w.delta_dx, w.delta_dy)
    s = tau_add(v, w)
    ix, idx = tpi_image(s)
    assert np.array_equal(ix, v.x) and np.array_equal(idx, v.dx)
    assert np.array_equal(s.delta_y, v.delta_y + w.delta_y)


def test_interchange_law_tangent_level():
    for _ in range(100):
        x = rand_vec(N)
        dxa, dxb = rand_vec(N), rand_vec(N)
        ya, yb = rand_vec(K), rand_vec(K)
        w = {
            (0, 0): rand_tangent(FiberPoint(x, ya), dxa),
            (0, 1): rand_tangent(FiberPoint(x, ya), dxb),
            (1, 0): rand_tangent(FiberPoint(x, yb), dxa),
            (1, 1): rand_tangent(FiberPoint(x, yb), dxb),
        }
        lhs = tau_add(tangent_add(w[0, 0], w[0, 1]), tangent_add(w[1, 0], w[1, 1]))
        rhs = tangent_add(tau_add(w[0, 0], w[1, 0]), tau_add(w[0, 1], w[1, 1]))
        assert np.max(np.abs(lhs.dy - rhs.dy)) <= 1e-12
        assert np.max(np.abs(lhs.at.y - rhs.at.y)) == 0.0


def test_involution_is_involutive_and_swaps_projections():
    for _ in range(100):
        v = rand_st()
        back = canonical_involution(canonical_involution(v))
        for slot in ("x", "y", "dx", "dy", "delta_x", "delta_y", "delta_dx", "delta_dy"):
            assert np.array_equal(getattr(back, slot), getattr(v, slot))
        flipped = canonical_involution(v)
        base = flipped.base_tangent()
        tproj = tangent_of_projection(v)
        assert np.array_equal(base.dx, tproj.dx) and np.array_equal(base.dy, tproj.dy)


def test_involution_exchanges_vertical_bundles():
    zn = np.zeros(N)
    v = rand_st()
    vert = SecondTangent(v.x, v.y, v.dx, v.dy, zn, v.delta_y, zn, v.delta_dy)
    img = canonical_involution(vert)
    assert np.all(img.dx == 0.0) and np.all(img.delta_dx == 0.0)


def test_tpi_vertical_roundtrip_and_errors():
    x, dx = rand_vec(N), rand_vec(N)
    v = rand_tangent(FiberPoint(x, rand_vec(K)), dx)
    w = rand_tangent(FiberPoint(x, rand_vec(K)), dx)
    big = tpi_vertical_lift(v, w)
    back = tpi_vertical_project(big)
    assert np.array_equal(back.at.y, w.at.y) and np.array_equal(back.dy, w.dy)
    with pytest.raises(NotTpiVerticalError):
        tpi_vertical_project(rand_st())


def test_tpi_project_homogeneities():
    for _ in range(100):
        x, dx = rand_vec(N), rand_vec(N)
        v = rand_tangent(FiberPoint(x, rand_vec(K)), dx)
        w = rand_tangent(FiberPoint(x, rand_vec(K)), dx)
        big = tpi_vertical_lift(v, w)
        lam = float(RNG.uniform(-2, 2))
        a = tpi_vertical_project(tau_scale(lam, big))
        b = tangent_scale(lam, tpi_vertical_project(big))
        assert np.max(np.abs(a.dy - b.dy)) <= 1e-12
        assert np.array_equal(a.at.y, b.at.y)
        c = tpi_vertical_project(tangent_scale(lam, big))
        d = tau_scale(lam, tpi_vertical_project(big))
        assert np.max(np.abs(c.at.y - d.at.y)) <= 1e-12
        assert np.max(np.abs(c.dy - d.dy)) <= 1e-12


def test_projection_tangent_identities():
    for _ in range(100):
        x, dx = rand_vec(N), rand_vec(N)
        v = rand_tangent(FiberPoint(x, rand_vec(K)), dx)
        w = rand_tangent(FiberPoint(x, rand_vec(K)), dx)
        big = tpi_vertical_lift(v, w)
        # (1): foot of the projection = vertical projection of the foot tangent
        foot = tpi_vertical_project(big).at
        tproj = tangent_of_projection(big)
        assert np.array_equal(foot.x, tproj.at.x)
        assert np.array_equal(foot.y, vertical_project(tproj))
        # (2): the foot tangent of the lift is the vertical lift of the feet
        lifted = vertical_lift(v.at, w.at.y)
        assert np.array_equal(tproj.dx, lifted.dx) and np.array_equal(
            tproj.dy, lifted.dy
        )
        # (3): tangent of the vertical projection on vertical pairs
        a = FiberPoint(x, rand_vec(K))
        vv = vertical_lift(a, rand_vec(K))
        ww = vertical_lift(a, rand_vec(K))
        lhs = tangent_of_vertical_project(taue_vertical_lift(vv, ww))
        rhs = vertical_lift(FiberPoint(a.x, vv.dy), ww.dy)
        assert np.array_equal(lhs.at.y, rhs.at.y) and np.array_equal(lhs.dy, rhs.dy)


def test_involution_lift_identities():
    for _ in range(100):
        x = rand_vec(N)
        p = PullbackPoint(x, rand_vec(K), rand_vec(K))
        dx = rand_vec(N)
        w1 = TangentE(p.a, dx, rand_vec(K))
        w2 = TangentE(p.b, dx, rand_vec(K))
        t = TangentPullback(p, w1, w2)
        lhs = canonical_involution(tangent_of_vertical_lift(t))
        rhs = tpi_vertical_lift(w1, w2)
        for slot in ("x", "y", "dx", "dy", "delta_x", "delta_y", "delta_dx", "delta_dy"):
            assert np.array_equal(getattr(lhs, slot), getattr(rhs, slot))
        big = tpi_vertical_lift(w1, w2)
        got = tangent_of_vertical_project(canonical_involution(big))
        ref = tpi_vertical_project(big)
        assert np.array_equal(got.at.y, ref.at.y) and np.array_equal(got.dy, ref.dy)


def test_taue_roundtrip():
    a = FiberPoint(rand_vec(N), rand_vec(K))
    v = rand_tangent(a)
    w = rand_tangent(a)
    back = taue_vertical_project(taue_vertical_lift(v, w))
    assert np.array_equal(back.at.x, a.x) and np.array_equal(back.at.y, a.y)
    assert np.array_equal(back.dx, w.dx) and np.array_equal(back.dy, w.dy)


def test_bundle_space_domain():
    dom = ex.parse_bool("y1^2 + y2^2 > 0")
    sp = BundleSpace(1, 2, dom)
    assert sp.in_domain([0.0], [1.0, 0.0])
    assert not sp.in_domain([0.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        BundleSpace(1, 1, ex.parse_bool("z1 > 0"))
    with pytest.raises(ValueError):
        BundleSpace(0, 1)


def test_domain_predicate_keeps_the_short_circuit():
    # the log term is never evaluated where x1 > 0 already fails
    sp = BundleSpace(1, 1, ex.parse_bool("x1 > 0 and log(x1) < 1"))
    assert not sp.in_domain([-1.0], [0.0])
    assert sp.in_domain([2.0], [0.0])
    sp = BundleSpace(1, 1, ex.parse_bool("x1 < 0 or log(x1) < 1"))
    assert sp.in_domain([-1.0], [0.0])
    with pytest.raises(ex.DomainError):
        sp.in_domain([0.0], [0.0])
    assert ex.evaluate_bool(sp.domain, {"x1": -1.0, "y1": 0.0}) is True


def test_pullback_point_legs():
    p = PullbackPoint([1.0], [2.0], [3.0])
    assert np.array_equal(p.a.y, [2.0]) and np.array_equal(p.b.y, [3.0])
    assert np.array_equal(p.a.x, p.b.x)
    with pytest.raises(ValueError):
        PullbackPoint([1.0], [2.0], [3.0, 4.0])


def test_tangent_pullback_requires_shared_dx():
    p = PullbackPoint([1.0], [2.0], [3.0])
    w1 = TangentE(p.a, [1.0], [0.0])
    w2 = TangentE(p.b, [2.0], [0.0])
    with pytest.raises(ValueError):
        TangentPullback(p, w1, w2)


# exact zeros, entries within and beyond BASE_TOL of each other, and the
# float64 classes numpy and Python floats must agree on
ENTRIES = st.one_of(
    st.sampled_from((0.0, -0.0, 5e-324, BASE_TOL, 2 * BASE_TOL, math.inf, -math.inf, math.nan)),
    st.floats(),
)
ARRAYS = hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3), elements=ENTRIES)


@settings(max_examples=200, deadline=None)
@given(ARRAYS, ARRAYS)
def test_zero_is_numpy_all_equal_zero(a, b):
    assert _zero(a) is bool(np.all(a == 0.0))
    assert _zero(a, b) is bool(np.all(a == 0.0) and np.all(b == 0.0))


OFFSETS = st.sampled_from((0.0, -0.0, BASE_TOL / 2, -BASE_TOL, 2 * BASE_TOL, math.nan))


@settings(max_examples=200, deadline=None)
@given(ARRAYS, st.data())
def test_check_close_wants_one_shape_and_every_entry_within_tol(a, data):
    # numpy's test on one shape, which a NaN entry fails; a shape mismatch
    # never broadcasts
    with np.errstate(invalid="ignore", over="ignore"):
        near = a + data.draw(hnp.arrays(np.float64, a.shape, elements=OFFSETS))
        b = data.draw(st.one_of(st.just(near), ARRAYS))
        close = a.shape == b.shape and bool(np.all(np.abs(a - b) <= BASE_TOL))
    try:
        _check_close(a, b, "slots")
    except ValueError:
        assert not close
    else:
        assert close


@pytest.mark.parametrize("first", [0, 1])
def test_tangent_add_rejects_a_nan_foot_point_in_either_order(first):
    # nan > tol is False, so the sum used to keep whichever foot came first
    pair = [
        TangentE(FiberPoint([np.nan, 1.0], [0.5]), [1.0, 0.0], [2.0]),
        TangentE(FiberPoint([0.0, 1.0], [0.5]), [0.0, 1.0], [3.0]),
    ]
    with pytest.raises(ValueError, match="base points differ beyond"):
        tangent_add(pair[first], pair[1 - first])


def test_tangent_add_rejects_a_tangent_over_another_base_dimension():
    # the length-1 slots used to broadcast against the length-2 ones
    u = TangentE(FiberPoint([1.0, 1.0], [0.0]), [2.0, 1.0], [0.0])
    v = TangentE(FiberPoint([1.0], [0.0]), [4.0], [0.0])
    for pair in ((u, v), (v, u)):
        with pytest.raises(ValueError, match=r"base points differ in shape: \(\d,\) and \(\d,\)"):
            tangent_add(*pair)


@pytest.mark.parametrize("other_x", [[np.nan], [0.0]])
def test_tau_add_rejects_second_tangents_at_a_nan_x(other_x):
    def at(x):
        return SecondTangent(x, [1.0], [0.5], [0.0], [0.0], [1.0], [0.0], [2.0])

    with pytest.raises(ValueError, match="x slots differ beyond"):
        tau_add(at([np.nan]), at(other_x))


@pytest.mark.parametrize(
    "dx1, x2, dx2",
    [([np.nan], [1.0], [1.0]), ([1.0], [1.0, 1.0], [1.0, 1.0])],
    ids=["nan", "other-base-dimension"],
)
def test_tangent_pullback_rejects_legs_without_one_base_velocity(dx1, x2, dx2):
    # nan - 1 = nan passed the old test, and [1] - [1, 1] broadcast to zeros
    p = PullbackPoint([1.0], [2.0], [3.0])
    w1 = TangentE(p.a, dx1, [0.0])
    w2 = TangentE(FiberPoint(x2, [3.0]), dx2, [0.0])
    with pytest.raises(ValueError, match="the legs' base velocities dx differ"):
        TangentPullback(p, w1, w2)


def test_dimension_mismatch():
    a = FiberPoint([0.0], [1.0])
    with pytest.raises(ValueError):
        vertical_lift(a, [1.0, 2.0])
    with pytest.raises(ValueError):
        TangentE(a, [1.0, 2.0], [0.0])


def test_second_tangent_slots_share_one_base_and_fiber_dimension():
    # delta_x = [1, 2] over n = 1 used to broadcast in tangent_add and
    # tau_add: the sum of delta_x = [1] and [1, 2] read [2, 3]
    u = SecondTangent([0.0], [0.0], [0.0], [0.0], [1.0], [0.0], [0.0], [0.0])
    with pytest.raises(ValueError, match=r"need one \(n, k\): .*delta_x \(2,\)"):
        SecondTangent([0.0], [0.0], [0.0], [0.0], [1.0, 2.0], [0.0], [0.0], [0.0])
    for j in range(8):
        slots = [[0.0]] * 8
        slots[j] = [0.0, 1.0] if j >= 2 else 0.0
        with pytest.raises(ValueError, match=r"need one \(n, k\)"):
            SecondTangent(*slots)
    assert tangent_add(u, u).delta_x.tolist() == tau_add(u, u).delta_x.tolist() == [2.0]
    # tau_add adds the fiber slots: they must agree in shape, not broadcast
    wide = SecondTangent([0.0], [0.0, 1.0], [0.0], [0.0, 0.0], [1.0], [0.0, 0.0], [0.0], [0.0, 0.0])
    for pair in ((u, wide), (wide, u)):
        with pytest.raises(ValueError, match="fiber slots differ in shape"):
            tau_add(*pair)
    narrow, broad = TangentE(FiberPoint([0.0], [0.0]), [1.0], [0.0]), TangentE(FiberPoint([0.0], [0.0, 1.0]), [1.0], [0.0, 0.0])
    with pytest.raises(ValueError, match="fiber points differ in shape"):
        tau_add(narrow, broad)


def test_tangent_pullback_legs_sit_at_its_two_points():
    # both legs used to be accepted anywhere: here at (5, 7) and (9, 9)
    p = PullbackPoint([0.0], [1.0], [2.0])
    cases = [
        (FiberPoint([5.0], [7.0]), FiberPoint([9.0], [9.0]), "w's base point and x"),
        (FiberPoint([0.0], [7.0]), p.b, "w's fiber point and y"),
        (p.a, FiberPoint([9.0], [2.0]), "w2's base point and x"),
        (p.a, FiberPoint([0.0], [1.0]), "w2's fiber point and z"),
        (FiberPoint([0.0, 0.0], [1.0]), FiberPoint([0.0, 0.0], [2.0]), r"w's base point and x differ in shape"),
    ]
    for foot, foot2, message in cases:
        dx = [1.0] * len(foot.x)
        with pytest.raises(ValueError, match=message):
            TangentPullback(p, TangentE(foot, dx, [0.0]), TangentE(foot2, dx, [0.0]))
    # within BASE_TOL of the points is at them
    t = TangentPullback(p, TangentE(FiberPoint([1e-13], [1.0]), [1.0], [0.0]), TangentE(p.b, [1.0], [0.0]))
    assert tangent_of_vertical_lift(t).x.tolist() == [0.0]
