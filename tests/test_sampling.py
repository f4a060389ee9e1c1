import numpy as np
import pytest

from linconn import expr as ex
from linconn.sampling import random_polynomial

NAMES = ("x1", "x2", "y1", "y2")


def _reference_polynomial(rng, names):
    """random_polynomial as first written, one ``rng.uniform(-1, 1)`` per
    coefficient and a new Var node per use."""
    terms = [ex.lit(round(float(rng.uniform(-1, 1)), 3))]
    for name in names:
        c = round(float(rng.uniform(-1, 1)), 3)
        if c != 0.0:
            terms.append(ex.mul(ex.lit(c), ex.var(name)))
    for _ in range(2):
        n1 = names[rng.integers(len(names))]
        n2 = names[rng.integers(len(names))]
        c = round(float(rng.uniform(-1, 1)), 3)
        if c != 0.0:
            terms.append(ex.mul(ex.lit(c), ex.mul(ex.var(n1), ex.var(n2))))
    out = terms[0]
    for t in terms[1:]:
        out = ex.add(out, t)
    return out


@pytest.mark.parametrize("count", [1, 2, 3, 4])
def test_random_polynomial_draws_what_uniform_draws(count):
    names = NAMES[:count]
    for seed in range(200):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            # repr tells a -0.0 coefficient from 0.0, which == does not
            assert repr(random_polynomial(rng, names)) == repr(_reference_polynomial(ref, names))
        assert rng.bit_generator.state == ref.bit_generator.state


def test_random_polynomial_validates_every_name():
    with pytest.raises(ValueError, match="bad variable name"):
        random_polynomial(np.random.default_rng(0), ("x1", "q"))


@pytest.mark.parametrize("count", [1, 2, 3, 4])
def test_one_call_for_two_indices_draws_what_two_calls_draw(count):
    # random_polynomial draws a product's two indices with one
    # rng.integers(L, size=2), and none for L == 1; the reference draws
    # them one call each
    names = NAMES[:count]
    for seed in range(2000):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            assert ex.to_str(random_polynomial(rng, names)) == ex.to_str(_reference_polynomial(ref, names))
        assert rng.bit_generator.state == ref.bit_generator.state
