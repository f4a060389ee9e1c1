import hashlib
import math

import numpy as np
import pytest

from linconn import checks as ck
from linconn import cli
from linconn.geom import FiberPoint, TangentE
from linconn.linearize import LambdaFamilyMember, LinearizedConnection
from linconn.specfile import load_builtin, loads


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
    # transport_ode integrates its own tabulated coefficients
    def flipped(self, J, G, z, dx, dy):
        base = LinearizedConnection.fiber_velocity(J, z, dx)
        return base if self.lam == 0.0 else base - self.lam * (dy + G @ dx)

    monkeypatch.setattr(LambdaFamilyMember, "fiber_velocity", flipped)
    monkeypatch.setattr(ck, "CHECKS", _only("transport.lambda_horizontality", ck._check_lambda_transport))
    (row,) = ck.run_suite(load_builtin(name), samples=32, seed=0).checks
    assert (row.status, row.samples) == ("fail", 1), row


CHECK_ROW_PINS = {
    "c0": "d8fc4baf255d9a82f4df17a9cae56faf7b71de9d6b89e920725657a8ee54512d",
    "c1": "419b7c2f444666ce9d00554a8e122490a11fc46f001573784e5d030f30c6355f",
    "c2": "ca7643f4a4856e1f4e6e6ccaa722d70fc55a7a01fe43a8b950e5ffe00670d09a",
    "c3": "87d9a0788725a99a0368886bf3ed9438ebe704c19fe766b98490b6dfae013fab",
    "c4": "072d4f27489cdadaa3c435c27a590ba19fd62f476245ad1a3ca74e3eaec3557a",
    "c5": "56b933c6e9df492c80f620789a54059763d96f0dc9ad5d3d73186388957605e5",
}


@pytest.mark.parametrize("name", sorted(CHECK_ROW_PINS))
def test_check_rows_are_pinned(name):
    """sha256 of the check rows of run_suite(samples=32, seed=0), printed as
    `linconn --json check` prints them.

    A change that moves any number or status moves a pin.  Update a pin only
    together with a CHANGES.md entry that lists the old and the new rows.
    """
    rows = cli.to_json(cli._check_dicts(ck.run_suite(load_builtin(name), samples=32, seed=0)))
    assert hashlib.sha256(rows.encode()).hexdigest() == CHECK_ROW_PINS[name], rows
