import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from linconn import checks as ck
from linconn import cli
from linconn import expr as ex
from linconn.connection import horizontal_velocity
from linconn.geom import FiberPoint, OutOfDomainError, SecondTangent, TangentE
from linconn.linearize import LambdaFamilyMember, LinearizedConnection
from linconn.sampling import BOX
from linconn.specfile import load_builtin, loads
from linconn.transport import CurveInE


def _only(entry_name, fn):
    entry = next(e for e in ck.CHECKS if e[0] == entry_name)
    return ((entry[0], fn) + tuple(entry[2:]),)


def test_mx_non_finite_is_inf():
    assert ck._mx(np.array([1.0]), np.array([np.nan])) == math.inf
    assert ck._mx([-np.inf]) == math.inf
    assert ck._mx(np.array([1.0, -3.0]), [2.0]) == 3.0
    assert ck._mx() == 0.0


# every float64 class the float loops must treat as numpy does
ENTRIES = st.one_of(
    st.floats(),
    st.sampled_from((0.0, -0.0, 5e-324, -2.2e-308, 1.7976931348623157e308, math.inf, -math.inf, math.nan)),
)
SLOTS = ("x", "y", "dx", "dy", "delta_x", "delta_y", "delta_dx", "delta_dy")


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


def _numpy_mx(*values) -> float:
    """The numpy reduction that ``_mx`` replaced, kept as its reference."""
    worst = 0.0
    for v in values:
        a = np.abs(np.asarray(v))
        if not np.all(np.isfinite(a)):
            return math.inf
        worst = max(worst, float(np.max(a, initial=0.0)))
    return worst


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4),
            elements=ENTRIES,
        ),
        max_size=4,
    )
)
def test_mx_is_the_numpy_reduction(values):
    # the largest absolute entry, inf if any entry is not finite, 0.0 with
    # no entries; 2-D input is ravelled
    got = ck._mx(*values)
    assert type(got) is float and _bits(got) == _bits(_numpy_mx(*values))


@st.composite
def _two_slot_lists(draw):
    """The eight slots of two second tangents over one (n, k)."""
    n, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return [[draw(hnp.arrays(np.float64, m, elements=ENTRIES)) for m in (n, k) * 4] for _ in range(2)]


@settings(max_examples=150, deadline=None)
@given(_two_slot_lists())
def test_slot_errors_are_the_numpy_slot_subtraction(pair):
    a, b = pair
    with np.errstate(invalid="ignore", over="ignore"):
        want_t = _numpy_mx(*(p - q for p, q in zip(a[:4], b[:4])))
        want_s = _numpy_mx(*(p - q for p, q in zip(a, b)))
    got_t = ck._teq(TangentE(FiberPoint(a[0], a[1]), a[2], a[3]), TangentE(FiberPoint(b[0], b[1]), b[2], b[3]))
    assert _bits(got_t) == _bits(want_t)
    assert _bits(ck._steq(SecondTangent(*a), SecondTangent(*b))) == _bits(want_s)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1))
@example(1, 1, 0)
@example(2, 1, 0)
@example(1, 2, 0)
@example(2, 2, 0)
@example(3, 4, 0)
def test_one_second_tangent_draw_is_eight_slot_draws(n, k, seed):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = ck._st(rng, n, k)
    for slot, m in zip(SLOTS, (n, k) * 4):
        assert getattr(got, slot).tobytes() == ref.uniform(-BOX, BOX, m).tobytes()
    # and the stream goes on from the same place
    assert rng.random() == ref.random()


def test_nan_error_fails_its_check(monkeypatch, c1):
    def nan_check(spec, rng, samples):
        return max(0.0, ck._mx(np.array([np.nan]))), samples

    monkeypatch.setattr(ck, "CHECKS", _only("linearize.linearity", nan_check))
    (row,) = ck.run_suite(c1, samples=16).checks
    assert row.status == "fail" and row.max_error == math.inf


def test_every_sampled_row_takes_its_draws_through_one_loop(monkeypatch, c2):
    # ck._draws is the only loop over a check's draws: each row but the
    # one flatness report enters it exactly once
    calls, row = {}, [None]
    real = ck._draws

    def counted(*args, **kw):
        calls[row[0]] = calls.get(row[0], 0) + 1
        return real(*args, **kw)

    def tagged(name, fn):
        def check(*args):
            row[0] = name
            return fn(*args)

        return check

    monkeypatch.setattr(ck, "_draws", counted)
    monkeypatch.setattr(ck, "CHECKS", tuple((e[0], tagged(e[0], e[1])) + e[2:] for e in ck.CHECKS))
    ck.run_suite(c2, samples=32, seed=0)
    names = [e[0] for e in ck.CHECKS]
    assert calls == {name: 1 for name in names if name != "linearize.flatness"}
    # a draw the order screen rejects is unmeasured, not a failure: with
    # every curve rejected the row keeps no draw and skips
    monkeypatch.setattr(ck, "_order_measurable", lambda lin, curve: False)
    monkeypatch.setattr(ck, "CHECKS", _only("transport.order", ck._check_transport_order))
    (order,) = ck.run_suite(c2, samples=32, seed=0).checks
    assert (order.status, order.samples) == ("skip", 0)


def test_flatness_row_carries_its_own_verdict(monkeypatch, c0, c1):
    # another spec's flatness check running between c1's check and its row
    # must not leak its verdict into c1's row
    def interleaved(spec, rng, samples):
        out = ck._check_flatness(spec, rng, samples)
        ck._check_flatness(c0, np.random.default_rng(0), samples)
        return out

    monkeypatch.setattr(ck, "CHECKS", _only("linearize.flatness", interleaved))
    (row,) = ck.run_suite(c1, samples=64, seed=0).checks
    assert row.name == "linearize.flatness[non-flat]"
    assert row.status == "pass"
    assert row.max_error > row.tolerance


def test_curvature_oracle_skips_a_diverged_loop():
    spec = loads(
        '[space]\nbase_dim = 2\nfiber_dim = 1\n'
        '[connection]\ngamma_1_1 = "1e200*y1^2"\ngamma_1_2 = "0"\n'
    )
    a = FiberPoint(np.zeros(2), np.ones(1))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(OverflowError, match=r"t = "):
            spec.conn.holonomy_curvature(a, [1.0, 0.0], [0.0, 1.0])
        # no draw was used, so the check skips instead of passing on 0 draws
        with pytest.raises(ck._Skip):
            ck._check_curvature_oracle(spec, np.random.default_rng(0), 2)


def test_relative_error_of_two_infinite_sides_fails(monkeypatch, c1):
    a = FiberPoint([0.0], [1.0])
    got = TangentE(a, [1.0], [math.inf])
    ref = TangentE(a, [1.0], [math.inf])

    def inf_check(spec, rng, samples):
        # inf/(1 + inf) would be nan, which max(0.0, nan) drops
        return max(0.0, ck._rel(ck._teq(got, ref), ck._mx(ref.dy))), samples

    monkeypatch.setattr(ck, "CHECKS", _only("linearize.definition_equivalence", inf_check))
    with np.errstate(invalid="ignore"):
        (row,) = ck.run_suite(c1, samples=16).checks
    assert row.status == "fail" and row.max_error == math.inf
    assert ck._rel(1.0, math.inf) == math.inf and ck._rel(1.0, 1.0) == 0.5


def test_flow_checks_redraw_when_their_own_flows_fail(c2):
    # this seed's first flow_composition draw on c2 overflows in the check's
    # own 256-step flow (its 64-step flow ends at y = -1.7e12); the check
    # draws again instead of skipping
    for name in ("transport.flow_composition", "transport.variational_bump"):
        index, entry = next((i, e) for i, e in enumerate(ck.CHECKS) if e[0] == name)
        rng = np.random.default_rng([132662940, index])
        err, used = entry[1](c2, rng, 1)
        assert used == 1 and err <= entry[2]
    rows = ck.run_suite(c2, samples=32, seed=132662940).checks
    (row,) = [r for r in rows if r.name == "transport.flow_composition"]
    assert (row.status, row.samples) == ("pass", 1)


EXP400 = '[space]\nbase_dim = 1\nfiber_dim = 1\n[connection]\ngamma_1_1 = "exp(400*y1)"\n'


def test_transport_checks_drop_a_diverged_draw():
    # the transport of (some) draws overflows; the row counts the others
    spec = loads(EXP400)
    assert ck._check_transport_reversibility(spec, np.random.default_rng(0), 4) == (0.0, 2)
    assert ck._check_lambda_transport(spec, np.random.default_rng(1), 4)[1] == 2
    with pytest.raises(ck._Skip):
        ck._check_transport_linearity(spec, np.random.default_rng(1), 4)


def test_vertical_transport_drops_a_diverged_draw():
    # exp(1000*y1) overflows in the first step along one of the four
    # vertical curves; the row counts the other three instead of ending
    # the suite
    spec = loads('[space]\nbase_dim = 1\nfiber_dim = 1\n[connection]\ngamma_1_1 = "exp(1000*y1)"\n')
    assert ck._check_transport_vertical(spec, np.random.default_rng(0), 4) == (0.0, 3)


LOG_NO_DOMAIN = '[space]\nbase_dim = 1\nfiber_dim = 1\n[connection]\ngamma_1_1 = "log(y1)"\n'


def test_a_pointwise_check_error_ends_the_suite(capsys, tmp_path):
    # a pointwise check drops no draw: log(y1) at a drawn y1 <= 0 ends the
    # check, and the command with a domain error, instead of being skipped
    with pytest.raises(ex.DomainError, match="log of non-positive value"):
        ck._check_definition_equivalence(loads(LOG_NO_DOMAIN), np.random.default_rng(0), 8)
    spec = tmp_path / "log.ini"
    spec.write_text(LOG_NO_DOMAIN)
    assert cli.main(["check", str(spec)]) == 3
    assert capsys.readouterr().err == "domain error: log of non-positive value\n"


def test_order_screen_reads_the_matrix_of_the_printed_stage(c5):
    # M[A][B] = -(0.0 + J[A][0][B] xdot[0] + J[A][1][B] xdot[1]), built by
    # hand from the compiled gamma gradients along a drawn c5 line
    n, k = c5.space.n, c5.space.k

    def entry(J, xd, A, B):
        m = 0.0
        for i in range(n):
            m = m + J[(A * n + i) * k + B] * xd[i]
        return -m

    curve = ck._line_curve(c5, np.random.default_rng(7))
    want = []
    for t in np.linspace(curve.t0, curve.t1, 33).tolist():
        values = curve.compiled_state(t)
        J = c5.conn.compiled_gamma_gradients(*values[: n + k])[k * n :]
        xd = values[n + k : 2 * n + k]
        want.append([[entry(J, xd, A, B) for B in range(k)] for A in range(k)])
    lin = LinearizedConnection(c5.conn)
    np.testing.assert_array_equal(ck._transport_matrices(lin, curve, 33), want)
    assert ck._order_measurable(lin, curve)


def test_order_screen_rejects_a_curve_leaving_the_domain(c4):
    # the line meets c4's puncture y = 0 at the middle knot, t = 0.5
    lin = LinearizedConnection(c4.conn)
    curve = CurveInE((ex.parse("t"),), (ex.parse("t - 0.5"), ex.lit(0.0)), 0.0, 1.0)
    with pytest.raises(OutOfDomainError, match="at t = 0.5"):
        ck._transport_matrices(lin, curve, 257)
    assert not ck._order_measurable(lin, curve)


def test_lambda_horizontality_measures_a_relative_error():
    # both integrations reach 2.1e48 and differ by 5.9e34, 2.8e-14 relative
    err, used = ck._check_lambda_transport(loads(EXP400), np.random.default_rng(4), 1)
    assert used == 1 and 1e-14 < err < 1e-13


@pytest.mark.filterwarnings("error")
def test_a_diverging_transport_leaves_every_row():
    rows = {r.name: r for r in ck.run_suite(loads(EXP400), samples=16, seed=0).checks}
    assert len(rows) == len(ck.CHECKS) == 29
    for name in ("transport.linearity", "transport.reversibility", "transport.lambda_horizontality"):
        assert (rows[name].status, rows[name].samples) == ("skip", 0)


@pytest.mark.parametrize("name", ["c0", "c1", "c2", "c3", "c4", "c5"])
def test_lambda_horizontality_fails_a_flipped_lambda_term(monkeypatch, name):
    # apply and the check's reference loop share the family's formula;
    # transport_ode integrates its own printed coefficients
    def flipped(self, J, G, z, dx, dy):
        base = LinearizedConnection.fiber_velocity(J, z, dx)
        if self.lam == 0.0:
            return base
        return [b - self.lam * (d - v) for b, d, v in zip(base, dy, horizontal_velocity(G, dx))]

    monkeypatch.setattr(LambdaFamilyMember, "fiber_velocity", flipped)
    monkeypatch.setattr(ck, "CHECKS", _only("transport.lambda_horizontality", ck._check_lambda_transport))
    (row,) = ck.run_suite(load_builtin(name), samples=32, seed=0).checks
    assert (row.status, row.samples) == ("fail", 1), row


def _dropped_eta(G, X, eta=None):
    return horizontal_velocity(G, X)


def _reversed_row(G, X, eta=None):
    # gamma^A_i meets X^(n-1-i): a no-op where n = 1
    return horizontal_velocity(G, X[::-1], eta)


CURVATURE_CROSS = {"linearize.curvature_cross"}
BASE_ORDER = {
    "linearize.covariant_cross",
    "linearize.lie_vs_covariant",
    "linearize.curvature_cross",
    "transport.lambda_horizontality",
}


@pytest.mark.parametrize(
    "defect, name, caught",
    [(_dropped_eta, name, CURVATURE_CROSS) for name in ("c0", "c1", "c2", "c3", "c4", "c5")]
    + [(_reversed_row, name, BASE_ORDER) for name in ("c2", "c5")],
)
def test_a_defect_in_the_one_gamma_contraction_fails_a_check(monkeypatch, defect, name, caught):
    # horizontal_velocity is the only code that sums a gamma row against a
    # base vector, over floats and lifted scalars alike
    monkeypatch.setattr("linconn.connection.horizontal_velocity", defect)
    monkeypatch.setattr("linconn.linearize.horizontal_velocity", defect)
    rows = ck.run_suite(load_builtin(name), samples=32, seed=0).checks
    assert caught <= {r.name for r in rows if r.status == "fail"}, rows


CHECK_ROW_PINS = {
    "c0": "0bc8c9d02565ea28e432bd9fb001cdaab0c31b63a2f462bc0821eb3ff0120e53",
    "c1": "e81bb75a144fb641d02087d8c475535308bd658bcb1e9e3d5fd06a9ac5200724",
    "c2": "ae6303b2da67582ae34e2cd3344918ea2a8a249b54e217cd21dff29c1a48af48",
    "c3": "47d5786a765be74b6d59fd524405e6d5afcdc93daf758197c048ea0f8a5b2a05",
    "c4": "94807b7a9b179f74d928073764342732332d89873f463b6923dc262fc7265c4a",
    "c5": "e56f1a0ef3ed7f861a747e0e503903563d18e514113eac17c5ddd390511463f4",
}


@pytest.mark.parametrize("name", sorted(CHECK_ROW_PINS))
def test_check_rows_are_pinned(name):
    """sha256 of the check rows of run_suite(samples=32, seed=0), printed as
    `linconn --json check` prints them.

    A change that moves any number or status moves a pin.  Update a pin only
    together with a CHANGES.md entry that lists the old and the new rows.
    """
    rows = cli.to_json(cli._check_dicts(ck.run_suite(load_builtin(name), samples=32, seed=0).checks))
    assert hashlib.sha256(rows.encode()).hexdigest() == CHECK_ROW_PINS[name], rows


DEFAULT_SAMPLE_PINS = {
    "c0": "e7c352a089a13a7ed9e5bbd538c38c68eba9696bda79fe29f7ca0d95a13b1612",
    "c1": "cca5ac0f13643bcd250fde45d9c882e595b8c3aaa1992a072d14350087aacd21",
    "c2": "05d7608042ad59f3b21752c61883f3c2235aa2f7c49ccf51a1058ef53cb23b70",
    "c3": "5733e769bafc186dd276e453720168287c7d9db6ecaaaaa6f4c420eade477d8f",
    "c4": "9f0a422a0d9f2f590a9917d8df4410fae3af546b311d979a9b1927ce4d1fff08",
    "c5": "7a2b31cdd53294689f5b6514ddb374fe05e5f5eeeb6c9581f23bfb87eaf5bbd5",
}


@pytest.mark.parametrize("name", sorted(DEFAULT_SAMPLE_PINS))
def test_default_sample_rows_are_pinned(name):
    """sha256 of the check rows of run_suite(samples=256, seed=0), what
    ``linconn check`` runs by default, printed as `linconn --json check`
    prints them.  The same rule as ``CHECK_ROW_PINS``."""
    rows = cli.to_json(cli._check_dicts(ck.run_suite(load_builtin(name), samples=256, seed=0).checks))
    assert hashlib.sha256(rows.encode()).hexdigest() == DEFAULT_SAMPLE_PINS[name], rows
