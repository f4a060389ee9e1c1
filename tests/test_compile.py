"""Compiled trees against the walk.

``codegen.compile_exprs``, ``compile_bool`` and ``compile_gradients`` take
float values and must return bitwise what ``evaluate``, ``evaluate_bool``
and ``ad.gradients`` return on them (signed zeros compared by their bits,
NaN where they give NaN), or raise the same exception class with the same
message; ``compile_second`` returns and raises what its ``Dual2`` walks do.
The owners that cache compiled functions compile once per object, and
drawn fields and sections are never compiled.
"""

import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linconn import ad, codegen, second_order, transport
from linconn import checks as ck
from linconn import expr as ex
from linconn.connection import HorBasicField, NonlinearConnection
from linconn.geom import BundleSpace, FiberPoint, PullbackPoint
from linconn.linearize import LinearizedConnection
from linconn.sampling import random_hor_basic, random_section, sample_in_domain
from linconn.specfile import load_builtin, loads

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


def _second_walks(trees, point, direction, seeded):
    """m Dual2 walks of each tree, walk j seeded with u = e_j and the outer
    direction, in the layout of ``compile_second``: every f slot, then the
    u slots, the v slots and the mixed slots, tree by tree."""
    f, fu, fv, fuv = [], [], [], []
    for e in trees:
        walks = []
        for name in seeded or (None,):
            env = {c: ad.Dual2(v, 1.0 if c == name else 0.0, direction[c]) for c, v in point.items()}
            r = ex.evaluate(e, env)
            walks.append((r.f, r.fu, r.fv, r.fuv) if isinstance(r, ad.Dual2) else (float(r), 0.0, 0.0, 0.0))
        # the value and v slots do not depend on the seed
        assert len({_bits([w[0], w[2]]) for w in walks}) == 1
        f.append(walks[0][0])
        fu += [w[1] for w in walks[: len(seeded)]]
        fv.append(walks[0][2])
        fuv += [w[3] for w in walks[: len(seeded)]]
    return f + fu + fv + fuv


@settings(max_examples=700, deadline=None)
@given(
    st.lists(TREES, min_size=1, max_size=3),
    st.tuples(*[VALUES] * len(NAMES)),
    st.tuples(*[VALUES] * len(NAMES)),
    st.lists(st.sampled_from(NAMES + ("y3",)), max_size=4),
)
def test_second_order_compile_equals_dual2_walks(trees, values, direction, seeded):
    # walk j seeds the u slot with e_j and the v slot with the direction;
    # y3 is seeded but absent, and a name outside seeded has u = 0
    point, outer = dict(zip(NAMES, values)), dict(zip(NAMES, direction))
    m = len(seeded)

    def compiled():
        out = second_order.compile_second(trees, NAMES, seeded)(*values, *direction)
        assert len(out) == len(trees) * (2 * m + 2)
        return list(out)

    def walked_at_run_time():
        # what a tree that expr._walk_decides flags calls
        slots = [ad.second_partials(e, point, outer, seeded) for e in trees]
        return [s[0] for s in slots] + [d for s in slots for d in s[1]] + [s[2] for s in slots] + [
            d for s in slots for d in s[3]
        ]

    want = _outcome(lambda: _second_walks(trees, point, outer, seeded))
    assert _outcome(compiled) == want
    assert _outcome(walked_at_run_time) == want


@settings(max_examples=400, deadline=None)
@given(st.lists(CURVE_TREES, min_size=1, max_size=2), st.lists(CURVE_TREES, min_size=1, max_size=2), VALUES)
def test_compiled_curve_state_equals_state(comp_x, comp_y, t):
    curve = transport.CurveInE(comp_x, comp_y, 0.0, 1.0)
    walked = _outcome(lambda: [v for part in curve.state(t) for v in part.tolist()])
    assert _outcome(lambda: curve.compiled_state(t)) == walked


XY_TREES = _trees(("x1", "y1", "y2"), unbound=())  # gamma on a rank-2 bundle over a line
COMPARISONS = st.builds(ex.Comparison, st.sampled_from(("<", "<=", ">", ">=")), XY_TREES, XY_TREES)
DOMAINS = st.one_of(
    st.none(),
    COMPARISONS,
    st.builds(lambda a, b: ex.BoolAnd((a, b)), COMPARISONS, COMPARISONS),
    st.builds(lambda a, b, c: ex.BoolOr((a, ex.BoolAnd((b, c)))), COMPARISONS, COMPARISONS, COMPARISONS),
)


@settings(max_examples=400, deadline=None)
@given(
    st.lists(XY_TREES, min_size=2, max_size=2),
    st.lists(CURVE_TREES, min_size=3, max_size=3),
    DOMAINS,
    st.lists(NUMBERS, min_size=1, max_size=3),
    st.sampled_from((0.0, 0.7)),
)
def test_lanes_coefficients_are_g_or_raise(gamma, comps, domain, times, lam):
    # where the lanes form returns, g returns the same bits at every time;
    # where g raises at some time, the lanes form raises (and it may raise
    # where g does not: its and/or compute every term)
    lin = LinearizedConnection(NonlinearConnection(BundleSpace(1, 2, domain), ((gamma[0],), (gamma[1],))))
    curve = transport.CurveInE(comps[:1], comps[1:], 0.0, 1.0)
    lanes = codegen.curve_coefficients(lin, curve, lam, lanes=True)
    if lanes is None:
        assert any(map(ex._walk_decides, gamma + comps))
        return
    g = codegen.curve_coefficients(lin, curve, lam)
    scalar = [_outcome(lambda: g(t)) for t in times]
    try:
        with np.errstate(all="ignore"):
            table = lanes(np.array(times))
    except (ArithmeticError, ValueError):
        return
    assert scalar == [("value", _bits(column)) for column in table.T.tolist()]


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


def test_second_order_compile_covers_every_guard():
    # the guards of test_forward_compile_covers_every_guard, and second
    # derivatives that overflow (ad._second): 1/y1 cubes y1, log(y1) squares
    # it, and sqrt(y1) multiplies y1 by its root
    cases = [
        ("1/y1", 0.0), ("1/y1", -0.0), ("x1/y1", 0.0), ("y1/0", 1.0), ("y1/(x1 - x1)", 1.0),
        ("log(y1)", 0.0), ("log(y1)", -1.0), ("sqrt(y1)", 0.0), ("sqrt(y1)", -1.0),
        ("abs(y1)", 0.0), ("abs(y1)", -0.0), ("abs(y1)", -2.0), ("exp(y1)", 710.0), ("sin(y1)", math.inf),
        ("y1^-2", 0.0), ("y1^-2", 1e-200), ("y1^0.5", 0.0), ("y1^0.5", -1.0), ("y1^x1", -1.0),
        ("y1^x1", 0.0), ("(x1 - x1)^y1", 2.0), ("exp(y1)^2.5", 300.0), ("z1 + y1", 1.0),
        ("1/y1", 1e-120), ("1/y1", 1e200), ("x1/y1", 1e-110), ("log(y1)", 1e-170), ("sqrt(y1)", 1e-300),
        ("y1^-1", 1e-110), ("y1^0.5", 1e-300), ("1/y1 + log(y1)", 1e-160),
    ]
    y1 = ex.Var("y1")
    unparsable = [ex.Bin("%", y1, ex.Lit(2.0)), ex.Bin("%", y1, ex.Var("x1")), ex.Fun("tan", y1)]
    for tree, y in [(ex.parse(text), y) for text, y in cases] + [(t, 1.5) for t in unparsable]:
        point, outer = {"x1": 0.5, "y1": y}, {"x1": -1.0, "y1": 0.75}
        want = _outcome(lambda: _second_walks([tree], point, outer, ["y1", "x1"]))
        got = _outcome(lambda: second_order.compile_second([tree], ("x1", "y1"), ["y1", "x1"])(0.5, y, -1.0, 0.75))
        assert got == want, repr(tree)
    with pytest.raises(OverflowError, match="second derivative overflows"):
        second_order.compile_second([ex.parse("1/y1")], ("y1",), ["y1"])(1e-120, 0.0)


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
    second_order.compile_second(corpus + [ex.parse("1/y1 + log(y1)")], NAMES, ["y1"])
    codegen.compile_bool(ex.parse_bool("x1 < 1/y1 and y1 >= 0 or x1 > 2 or x2 <= 0"), NAMES)
    text = "\n".join(printed)
    unprinted = [name for name in (*codegen.HELPERS, "_gradient", "_second", "_second_partials") if not re.search(rf"\b{name}\b", text)]
    assert not unprinted, text
    assert "isinstance" not in text  # float code: no type dispatch
    assert "_apply_real" not in text  # nor a dispatch on the function's name


def test_an_unknown_function_raises_the_walks_error_at_run_time():
    tree = ex.Fun("tan", ex.Var("x1"))
    f = codegen.compile_exprs([tree], ("x1",))  # printing it does not raise
    assert _outcome(lambda: f(0.5)) == _outcome(lambda: ex.evaluate(tree, {"x1": 0.5}))
    assert _outcome(lambda: f(0.5))[1:] == (ValueError, "unknown function 'tan'")


# -- compile once per owner, and never for a drawn tree ----------------------


@pytest.fixture
def compiles(monkeypatch):
    """Count the functions made by codegen.define, with no RK4 step or
    linear RK4 loop printed yet."""
    made = []
    real = codegen.define
    codegen.rk4_step.cache_clear()
    codegen.linear_rk4.cache_clear()

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
    # one stage (the domain predicate, the field, gamma with its y-gradient)
    # and the RK4 step of width n + 2k = 5
    assert len(compiles) == 2
    transport.fiber_derivative_flow(spec.conn, field, p, 0.5, 1000)
    assert len(compiles) == 2
    transport.flow(spec.conn, field, p.a, 0.5, 100)
    assert len(compiles) == 4  # the stage with gamma as floats, the step of width 3
    transport.flow(spec.conn, field, p.a, -0.5, 100)
    assert len(compiles) == 4


def test_curvature_compiles_the_second_order_pass_once_per_connection(compiles):
    spec = _fresh_c4()
    sp = spec.space
    lin = LinearizedConnection(spec.conn)
    rng = np.random.default_rng(3)
    a = sample_in_domain(sp, rng)
    y1, y2 = random_hor_basic(rng, sp), random_hor_basic(rng, sp)
    sigma = random_section(rng, sp)
    y1.at(spec.conn, a)  # a drawn field is walked, never compiled
    assert compiles == []
    first = lin.curvature(y1, y2, sigma, a)
    assert len(compiles) == 1  # gamma's second-order pass
    # a repeated query, the other curvature queries and drawn fields, sections
    # and points read the same pass
    assert lin.curvature(y1, y2, sigma, a).tobytes() == first.tobytes()
    spec.conn.curvature(a, [1.0], [0.5])
    lin.riemann([1.0], [0.5], sigma, a)
    lin.berwald(y2.eta, y1, sigma, a)
    lin.flatness_report(samples=4, seed=1)
    assert len(compiles) == 1
    # the pass is cached on its connection: another one prints its own
    LinearizedConnection(_fresh_c4().conn).curvature(y1, y2, sigma, a)
    assert len(compiles) == 2


def test_loading_specs_and_a_transport_import_no_codegen(compiles):
    # a fresh interpreter: this session has imported linconn.codegen already
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    script = (
        "import sys\n"
        "from linconn.specfile import load_builtin\n"
        "specs = [load_builtin(f'c{j}') for j in range(6)]\n"
        "print('linconn.codegen' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr
    # c1 has no domain: a transport prints the curve's coefficients, and the
    # process its linear RK4 loop of width 1, once
    c1 = load_builtin("c1")
    transport.transport_ode(LinearizedConnection(c1.conn), c1.curves["line"], [1.0], 1000)
    assert len(compiles) == 2
    transport.transport_ode(LinearizedConnection(c1.conn), c1.curves["line"], [1.0], 1000)
    assert len(compiles) == 2


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
    # the lane stage, which prints gamma and the domain predicate into each
    # of its four lanes, and the RK4 step of four lanes of width 3
    assert len(compiles) == 2
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
        # the state and the transport coefficients of each draw's curve, per
        # connection the domain predicate and gamma with its y-gradient (the
        # reference loop's), and once the RK4 step of width 2 (the reference
        # loop's) and the affine linear RK4 loop of width 2 (the transport's)
        assert len(compiles) == 2 * len(curves) + 4
    assert len(curves) == 2


def test_a_transcendental_of_one_argument_is_printed_once():
    # cos(t) and sin(t) each serve a value and the other's derivative
    printed = []
    real = codegen.define

    def recording(source, result):
        printed.append("\n".join(source.lines))
        return real(source, result)

    circle = load_builtin("c4").curves["circle"]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codegen, "define", recording)
        circle.compiled_state
    (text,) = printed
    assert text.count("_math.sin(") == 1 and text.count("_math.cos(") == 1
