import math

import numpy as np
import pytest

from linconn import checks as ck
from linconn.geom import FiberPoint
from linconn.specfile import loads


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
        assert ck._check_curvature_oracle(spec, np.random.default_rng(0), 2) == (0.0, 2)
