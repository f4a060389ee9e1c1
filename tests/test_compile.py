"""Compiled trees against the walk.

``codegen.compile_exprs``, ``compile_bool`` and ``compile_gradients`` take
float values and must return bitwise what ``evaluate``, ``evaluate_bool``
and ``ad.gradients`` return on them (signed zeros compared by their bits,
NaN where they give NaN), or raise the same exception class with the same
message.  The owners that cache compiled functions compile once per object,
and single-point queries compile nothing.
"""

import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linconn import ad, codegen, transport
from linconn import checks as ck
from linconn import expr as ex
from linconn.connection import HorBasicField
from linconn.geom import FiberPoint, PullbackPoint
from linconn.linearize import LinearizedConnection
from linconn.sampling import random_hor_basic, random_section, sample_in_domain
from linconn.specfile import loads

NAMES = ("x1", "x2", "y1", "y2")
SPECIAL = (0.0, -0.0, 1.0, -1.0, 2.0, 0.5, -0.5, 3.0, 1e-200, 1e200, -1e200, 709.0, 710.0)
NUMBERS = st.one_of(st.floats(-4.0, 4.0), st.sampled_from(SPECIAL))
VALUES = st.one_of(NUMBERS, st.sampled_from((math.inf, -math.inf, math.nan)))
# integer, negative, non-integer and non-finite literal exponents
EXPONENTS = st.sampled_from((0.0, 1.0, 2.0, 3.0, 5.0, -1.0, -2.0, -3.0, 0.5, -1.5, 2.5, 1e10, math.inf, math.nan))


def _trees(names, unbound=("z1",)):
    # z1 is not among the compiled names: a tree reading it is unbound
    leaves = st.one_of(
        st.sampled_from(names + unbound).map(ex.Var),
        NUMBERS.map(ex.Lit),
    )

    def grow(sub):
        return st.one_of(
            st.builds(ex.Neg, sub),
            st.builds(ex.Bin, st.sampled_from(("+", "-", "*", "/", "^")), sub, sub),
            st.builds(ex.Bin, st.just("^"), sub, EXPONENTS.map(ex.Lit)),
            # the parser reads y1^-2 as y1^(-(2))
            st.builds(ex.Bin, st.just("^"), sub, EXPONENTS.map(lambda v: ex.Neg(ex.Lit(v)))),
            st.builds(ex.Bin, st.just("/"), sub, st.sampled_from((0.0, -0.0, 2.0)).map(ex.Lit)),
            st.builds(ex.Fun, st.sampled_from(ex.FUNCTIONS), sub),
        )

    return st.recursive(leaves, grow, max_leaves=8)


TREES = _trees(NAMES)
CURVE_TREES = _trees(("t",), unbound=())  # a curve component reads t only


def _bits(v):
    """A result as comparable bits: floats by struct.

    Every NaN counts as one value: the sign of a NaN made from two NaNs of
    different signs depends on how the interpreter has specialized the
    float operation, for the walk run twice alike.
    """
    if isinstance(v, float):
        return b"nan" if v != v else struct.pack("<d", v)
    if isinstance(v, (tuple, list)):
        return tuple(_bits(x) for x in v)
    return (type(v), v)


def _outcome(fn):
    try:
        return "value", _bits(fn())
    except Exception as err:  # the class and the message must agree
        return "raise", type(err), str(err)


def _walk_and_compiled(trees, env):
    walked = _outcome(lambda: [ex.evaluate(e, env) for e in trees])
    compiled = _outcome(lambda: codegen.compile_exprs(trees, tuple(env))(*env.values()))
    return walked, compiled


@settings(max_examples=700, deadline=None)
@given(st.lists(TREES, min_size=1, max_size=3), st.tuples(*[VALUES] * len(NAMES)))
def test_generic_compile_equals_the_walk(trees, values):
    walked, compiled = _walk_and_compiled(trees, dict(zip(NAMES, values)))
    assert compiled == walked


@settings(max_examples=700, deadline=None)
@given(
    st.lists(TREES, min_size=1, max_size=3),
    st.tuples(*[VALUES] * len(NAMES)),
    st.lists(st.sampled_from(NAMES + ("y3",)), max_size=3),
)
def test_forward_compile_equals_gradients(trees, values, seeded):
    # x names outside seeded stay zero-eps Dual1s; y3 is seeded but absent
    point = dict(zip(NAMES, values))
    m = len(seeded)

    def walked():
        pairs = ad.gradients(trees, point, seeded)
        return [v for v, _ in pairs] + [d for _, grad in pairs for d in grad]

    def compiled():
        out = codegen.compile_gradients(trees, NAMES, seeded)(*values)
        assert len(out) == len(trees) * (m + 1)
        return list(out)

    assert _outcome(compiled) == _outcome(walked)


@settings(max_examples=400, deadline=None)
@given(st.lists(CURVE_TREES, min_size=1, max_size=2), st.lists(CURVE_TREES, min_size=1, max_size=2), VALUES)
def test_compiled_curve_state_equals_state(comp_x, comp_y, t):
    curve = transport.CurveInE(comp_x, comp_y, 0.0, 1.0)
    walked = _outcome(lambda: [v for part in curve.state(t) for v in part.tolist()])
    assert _outcome(lambda: curve.compiled_state(t)) == walked


def test_forward_compile_covers_every_guard():
    cases = [
        ("1/y1", 0.0), ("1/y1", -0.0), ("x1/y1", 0.0), ("y1/0", 1.0), ("y1/(x1 - x1)", 1.0),
        ("log(y1)", 0.0), ("log(y1)", -1.0), ("sqrt(y1)", 0.0), ("sqrt(y1)", -1.0),
        ("abs(y1)", 0.0), ("abs(y1)", -0.0), ("exp(y1)", 710.0), ("sin(y1)", math.inf),
        ("y1^-2", 0.0), ("y1^-2", 1e-200), ("y1^0.5", 0.0), ("y1^0.5", -1.0), ("y1^x1", -1.0),
        ("y1^x1", 0.0), ("(x1 - x1)^y1", 2.0), ("exp(y1)^2.5", 300.0), ("z1 + y1", 1.0),
        ("log(x1)", -1.0), ("sqrt(x1)", 0.0), ("abs(x1)", 0.0), ("x1^-1", 0.0),
    ]
    y1 = ex.Var("y1")
    unparsable = [  # evaluate hands an unknown operator to _pow
        ex.Bin("%", y1, ex.Lit(2.0)), ex.Bin("%", y1, ex.Var("x1")), ex.Fun("tan", y1),
        ex.Fun("tan", ex.Lit(1.0)),
    ]
    for tree, y in [(ex.parse(text), y) for text, y in cases] + [(t, 1.5) for t in unparsable]:
        trees = [tree]
        text = repr(tree)
        point = {"x1": 0.0, "y1": y}
        want = _outcome(lambda: ad.gradients(trees, point, ["y1"]))
        got = _outcome(lambda: codegen.compile_gradients(trees, ("x1", "y1"), ["y1"])(0.0, y))
        if want[0] == "value":
            (value, grad), = want[1]
            want = ("value", (value, *grad))
        assert got == want, text
        assert _walk_and_compiled(trees, point)[1] == _walk_and_compiled(trees, point)[0], text


def test_a_negated_literal_exponent_is_printed(monkeypatch):
    trees = [ex.parse("x1*y1^-2 + y2"), ex.parse("y1^-0.5")]
    assert trees[0].left.right == ex.Bin("^", ex.Var("y1"), ex.Neg(ex.Lit(2.0)))
    point = {"x1": 0.3, "y1": 1.7, "y2": -2.0}
    pairs = ad.gradients(trees, point, ["y1", "y2"])
    want = [v for v, _ in pairs] + [d for _, grad in pairs for d in grad]

    def walked(*args):
        raise AssertionError("the tree was handed to ad.gradient")

    monkeypatch.setattr(codegen, "gradient", walked)
    got = codegen.compile_gradients(trees, ("x1", "y1", "y2"), ["y1", "y2"])(*point.values())
    assert _bits(got) == _bits(want)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.lists(st.tuples(TREES, st.sampled_from(("<", "<=", ">", ">=")), TREES), min_size=1, max_size=3),
        min_size=1, max_size=3,
    ),
    st.tuples(*[VALUES] * len(NAMES)),
)
def test_compiled_predicate_equals_evaluate_bool(disjuncts, values):
    def conj(terms):
        cmps = [ex.Comparison(op, a, b) for a, op, b in terms]
        return cmps[0] if len(cmps) == 1 else ex.BoolAnd(tuple(cmps))

    b = conj(disjuncts[0]) if len(disjuncts) == 1 else ex.BoolOr(tuple(map(conj, disjuncts)))
    env = dict(zip(NAMES, values))
    assert _outcome(lambda: codegen.compile_bool(b, NAMES)(*values)) == _outcome(lambda: ex.evaluate_bool(b, env))


def test_compiled_predicate_keeps_the_short_circuit():
    # log(x1) would raise at x1 <= 0, and or stops at a true term
    for text, x1 in (("x1 > 0 and log(x1) > -1", -1.0), ("x1 <= 0 or log(x1) > -1", -1.0)):
        b = ex.parse_bool(text)
        want = ex.evaluate_bool(b, {"x1": x1})
        assert codegen.compile_bool(b, ("x1",))(x1) is want
    with pytest.raises(ex.DomainError, match="log of non-positive value"):
        codegen.compile_bool(ex.parse_bool("x1 < 0 and log(x1) > -1"), ("x1",))(-1.0)


def test_every_helper_is_printed(monkeypatch):
    # tests/test_names.py cannot see a helper that no printed source calls:
    # the keys of HELPERS are strings, and expr uses the helpers itself
    printed = []
    real = codegen.define

    def capture(source, result):
        printed.append("\n".join(source.lines) + f"\nreturn {result}")
        return real(source, result)

    monkeypatch.setattr(codegen, "define", capture)
    y1 = ex.Var("y1")
    corpus = [
        ex.parse(text)
        for text in ("-x1 + y1*x1 - x2", "x1/y1 + x2/2", "y1/0", "z1", "y1^3 + y1^-2 + y1^0.5 + y1^x1")
    ] + [ex.Fun(name, y1) for name in ex.FUNCTIONS + ("tan",)]
    corpus.append(ex.Bin("^", y1, ex.Lit(-2.0)))  # parse reads y1^-2 as y1^(-(2))
    codegen.compile_exprs(corpus, NAMES)
    codegen.compile_gradients(corpus, NAMES, ["y1"])
    codegen.compile_bool(ex.parse_bool("x1 < 1/y1 and y1 >= 0 or x1 > 2 or x2 <= 0"), NAMES)
    text = "\n".join(printed)
    unprinted = [name for name in (*codegen.HELPERS, "_math", "_gradient") if not re.search(rf"\b{name}\b", text)]
    assert not unprinted, text
    assert "isinstance" not in text  # float code: no type dispatch


# -- compile once, and never on a single-point path --------------------------


@pytest.fixture
def compiles(monkeypatch):
    """Count the functions made by codegen.define."""
    made = []
    real = codegen.define

    def counting(source, result):
        made.append(result)
        return real(source, result)

    monkeypatch.setattr(codegen, "define", counting)
    return made


def _fresh_c4():
    # a spec of its own: the session fixtures may have compiled already
    return loads(
        "[space]\nbase_dim = 1\nfiber_dim = 2\n[connection]\n"
        'gamma_1_1 = "sqrt(y1^2 + y2^2)"\ngamma_2_1 = "x1*y1"\ndomain = "y1^2 + y2^2 > 0"\n'
    )


def test_a_flow_compiles_its_trees_once(compiles):
    spec = _fresh_c4()
    field = HorBasicField((ex.parse("1 + x1/4"),), (ex.parse("x1"), ex.lit(0.0)))
    p = PullbackPoint([0.1], [1.0, 0.5], [1.0, -1.0])
    transport.fiber_derivative_flow(spec.conn, field, p, 0.5, 1000)
    # gamma with its y-gradient, the field, the domain predicate
    assert len(compiles) == 3
    transport.fiber_derivative_flow(spec.conn, field, p, 0.5, 1000)
    assert len(compiles) == 3
    transport.flow(spec.conn, field, p.a, 0.5, 100)
    assert len(compiles) == 4  # gamma as floats
    transport.flow(spec.conn, field, p.a, -0.5, 100)
    assert len(compiles) == 4


def test_single_point_queries_compile_nothing(compiles):
    spec = _fresh_c4()
    sp = spec.space
    lin = LinearizedConnection(spec.conn)
    rng = np.random.default_rng(3)
    a = sample_in_domain(sp, rng)
    y1, y2 = random_hor_basic(rng, sp), random_hor_basic(rng, sp)
    y1.at(spec.conn, a)
    lin.curvature(y1, y2, random_section(rng, sp), a)
    lin.flatness_report(samples=4, seed=1)
    assert compiles == []


def test_gamma_at_compiles_once_per_connection(compiles):
    spec = _fresh_c4()
    a = FiberPoint([0.3], [1.0, 2.0])
    want = np.array(spec.conn.gamma_env(spec.space.point_env(a.x, a.y)), dtype=float)
    for _ in range(3):
        assert spec.conn.gamma_at(a).tobytes() == want.tobytes()
    assert len(compiles) == 1


def test_holonomy_compiles_gamma_and_the_domain_once(compiles):
    spec = _fresh_c4()
    a = FiberPoint([0.3], [1.0, 2.0])
    first = spec.conn.holonomy_curvature(a, [1.0], [0.5])
    assert len(compiles) == 2  # gamma as floats, the domain predicate
    assert spec.conn.holonomy_curvature(a, [1.0], [0.5]).tobytes() == first.tobytes()
    assert len(compiles) == 2


def test_lambda_check_compiles_each_curve_once(compiles, monkeypatch):
    spec = _fresh_c4()  # its domain keeps the first curve of every draw
    curves = []
    real = ck._line_curve

    def recording(*args, **kwargs):
        curves.append(real(*args, **kwargs))
        return curves[-1]

    monkeypatch.setattr(ck, "_line_curve", recording)
    for seed in (0, 1):
        assert ck._check_lambda_transport(spec, np.random.default_rng(seed), 1)[1] == 1
        # the curve of each draw, and per connection the domain predicate
        # and gamma with its y-gradient
        assert len(compiles) == len(curves) + 2
    assert len(curves) == 2
