import hashlib
import math

import numpy as np
import pytest

from linconn import checks as ck
from linconn import cli
from linconn import expr as ex
from linconn.connection import horizontal_velocity
from linconn.geom import FiberPoint, OutOfDomainError, TangentE
from linconn.linearize import LambdaFamilyMember, LinearizedConnection
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


def test_nan_error_fails_its_check(monkeypatch, c1):
    def nan_check(spec, rng, samples):
        return max(0.0, ck._mx(np.array([np.nan]))), samples

    monkeypatch.setattr(ck, "CHECKS", _only("linearize.linearity", nan_check))
    (row,) = ck.run_suite(c1, samples=16).checks
    assert row.status == "fail" and row.max_error == math.inf


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
    # transport_ode integrates its own printed stage
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
    "c1": "7735f3c2ee113c8a0206917726318dc55eb307dd58a7f2e21b126f9ffdc7f551",
    "c2": "c9dfae871f50dd0c659a4191e4ae11e18b96fded866717abb38972f15bf17a53",
    "c3": "f2eb9710e8bdc40931d9eec0d4c4e418491be03ed5de9ef2ee08580eafd2a537",
    "c4": "2fa714da8606a86f002621f2693e1e226bd087b8672281a72050bf95c9a86132",
    "c5": "18c8cd0a35c10e2f367ea941d4e1d3e7245ffbd82e9c2542bfe3f41b3f8884fc",
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
