"""Printed code nests call-free arithmetic (``codegen.Source``).

A call-free value is printed as parenthesized text inside the one
expression that reads it, and bound to a local only when it is read more
than once or its parentheses would nest past the bound.  Every printer
must compile the deepest trees an expression holds and return the walk's
numbers bitwise; a value read in many places is printed once; and where
several guards fail, the walk's first error is raised.
"""

import functools
import re
import struct

import numpy as np
import pytest

from linconn import ad, codegen, second_order
from linconn import expr as ex
from linconn.connection import HorBasicField, NonlinearConnection, horizontal_velocity
from linconn.geom import BundleSpace
from linconn.linearize import LinearizedConnection
from linconn.sampling import random_polynomial
from linconn.transport import CurveInE

VALUES = (0.5, 1.5, -1.0, 0.0)  # -1.0 and 0.0 make some of the chains divide by zero


def _chain(op, term, count):
    """``term op term op ... op term``, count terms, grouped left to right
    as the parser groups them."""
    return functools.reduce(lambda acc, _: ex.Bin(op, acc, term), range(count - 1), term)


def _deep(name):
    """Trees about as deep as ``expr.MAX_DEPTH`` lets an expression be."""
    v = ex.Var(name)
    sines = v
    for _ in range(99):
        sines = ex.Fun("sin", sines)
    return {
        "quotients": _chain("/", v, 100),
        "sum": _chain("+", v, 99),
        "sines": sines,
        "shifted quotients": _chain("/", ex.Bin("+", v, ex.Lit(1.0)), 100),
    }


def _bits(v):
    """A result as comparable bits, every NaN as one value."""
    if isinstance(v, float):
        return b"nan" if v != v else struct.pack("<d", v)
    if isinstance(v, (tuple, list)):
        return tuple(_bits(x) for x in v)
    return (type(v), v)


def _outcome(fn):
    try:
        return "value", _bits(list(fn()))
    except Exception as err:  # the class and the message must agree
        return "raise", type(err), str(err)


@pytest.fixture
def printed(monkeypatch):
    """The text of every function that codegen.define makes."""
    texts = []
    real = codegen.define

    def capture(source, result):
        texts.append("\n".join(source.lines) + f"\n    return {result}")
        return real(source, result)

    monkeypatch.setattr(codegen, "define", capture)
    return texts


def _deepest(text):
    depth = deepest = 0
    for ch in text:
        if ch in "([{":
            depth += 1
            deepest = max(deepest, depth)
        elif ch in ")]}":
            depth -= 1
    return deepest


# -- the walks the printers are compared with ---------------------------------


def _gradients_by_walk(trees, point, seeded):
    pairs = ad.gradients(trees, point, seeded)
    return [v for v, _ in pairs] + [d for _, grad in pairs for d in grad]


def _second_by_walk(tree, point, direction, seeded):
    f, fu, fv, fuv = ad.second_partials(tree, point, direction, seeded)
    return [f, *fu, fv, *fuv]


def _stage_by_walk(conn, field, variational, state):
    """A flow stage from the walk: ``evaluate`` or ``ad.gradients``, then
    the two velocities (the space has no domain)."""
    sp = conn.space
    n, k = sp.n, sp.k
    env = dict(zip(sp.x_names + sp.y_names, state[: n + k]))
    X = [ex.evaluate(e, env) for e in field.X]
    eta = [ex.evaluate(e, env) for e in field.eta]
    entries = [g for row in conn.gamma for g in row]
    if not variational:
        return [*X, *horizontal_velocity([ex.evaluate(g, env) for g in entries], X, eta)]
    pairs = ad.gradients(entries, env, sp.y_names)
    G, J = [v for v, _ in pairs], [d for _, grad in pairs for d in grad]
    return [*X, *horizontal_velocity(G, X, eta), *LinearizedConnection.fiber_velocity(J, state[n + k :], X)]


def _coefficients_by_walk(lin, curve, lam, t):
    """M and c of ``curve_coefficients`` from ``CurveInE.state`` and
    ``ad.gradients``, in their stated orders (the space has no domain)."""
    sp = lin.space
    n, k = sp.n, sp.k
    x, y, xd, yd = (a.tolist() for a in curve.state(t))
    pairs = ad.gradients([g for row in lin.conn.gamma for g in row], dict(zip(sp.x_names + sp.y_names, x + y)), sp.y_names)
    G, J = [v for v, _ in pairs], [d for _, grad in pairs for d in grad]
    M = []
    for A in range(k):
        for B in range(k):
            s = 0.0
            for i in range(n):
                s = s + J[(A * n + i) * k + B] * xd[i]
            M.append(-s)
    c = []
    if lam != 0.0:
        for A in range(k):
            g = G[A * n] * xd[0]
            for i in range(1, n):
                g = g + G[A * n + i] * xd[i]
            c.append(lam * (yd[A] + g))
    return M + c


def _holonomy_by_walk(conn, dirs, state):
    """Four lanes of (x1, y1), each its direction and its horizontal lift."""
    out = []
    for j in range(4):
        env = {"x1": state[2 * j], "y1": state[2 * j + 1]}
        d = dirs[j : j + 1]
        out += [*d, *horizontal_velocity([ex.evaluate(conn.gamma[0][0], env)], d)]
    return out


def _line_conn(gamma):
    return NonlinearConnection(BundleSpace(1, 1), ((gamma,),))


# -- (a) every printer at the depth bound -------------------------------------

PRINTERS = (
    "compile_exprs",
    "compile_gradients",
    "compile_second",
    "flow_stage gamma",
    "flow_stage field",
    "curve_coefficients gamma",
    "curve_coefficients curve",
    "holonomy_stage",
)


def _cases(printer, shape):
    """(call, walk) pairs of one value each: the printer fed the deep tree
    of that shape where it reads one (over x1, y1 or t), and the walk."""
    x, y, t = (_deep(name)[shape] for name in ("x1", "y1", "t"))
    if printer == "compile_exprs":
        f = codegen.compile_exprs([y], ("y1",))
        return [(f, lambda v: [ex.evaluate(y, {"y1": v})])]
    if printer == "compile_gradients":
        f = codegen.compile_gradients([y], ("x1", "y1"), ("y1",))
        return [(lambda v: f(0.25, v), lambda v: _gradients_by_walk([y], {"x1": 0.25, "y1": v}, ("y1",)))]
    if printer == "compile_second":
        f = second_order.compile_second([y], ("y1",), ("y1",))
        return [(lambda v: f(v, 0.75), lambda v: _second_by_walk(y, {"y1": v}, {"y1": 0.75}, ("y1",)))]
    if printer == "holonomy_stage":
        conn = _line_conn(y)
        f = codegen.holonomy_stage(conn)
        dirs = [1.0, -0.5, 0.25, 2.0]

        def lanes(v):  # (x1, y1) of four lanes, the second at y1 = v
            return [0.5, 1.25, 0.25, v, -0.5, 0.5, 1.0, 1.5]

        return [(lambda v: f(dirs, 0.0, lanes(v)), lambda v: _holonomy_by_walk(conn, dirs, lanes(v)))]
    product = ex.parse("x1 * y1 + y1")
    if printer.startswith("flow_stage"):
        if printer.endswith("gamma"):
            conn, field = _line_conn(y), HorBasicField((ex.lit(0.5),), (ex.lit(0.25),))
            point = lambda v: [1.25, v]  # noqa: E731
        else:
            conn, field = _line_conn(product), HorBasicField((x,), (x,))
            point = lambda v: [v, 0.5]  # noqa: E731
        cases = []
        for z in ([], [-0.75]):  # the flow, and the variational flow
            stage = codegen.flow_stage(conn, field, bool(z))
            cases.append(
                (
                    lambda v, stage=stage, z=z: stage(0.0, point(v) + z),
                    lambda v, z=z: _stage_by_walk(conn, field, bool(z), point(v) + z),
                )
            )
        return cases
    if printer.endswith("gamma"):
        lin, curve = LinearizedConnection(_line_conn(y)), CurveInE((ex.parse("t"),), (ex.parse("t"),), 0.0, 1.0)
    else:
        lin, curve = LinearizedConnection(_line_conn(product)), CurveInE((ex.parse("t"),), (t,), 0.0, 1.0)
    cases = []
    for lam in (0.0, 0.7):
        walk = functools.partial(_coefficients_by_walk, lin, curve, lam)
        lanes = codegen.curve_coefficients(lin, curve, lam, lanes=True)

        def column(v, lanes=lanes):  # the lanes form at v, beside a time where it returns
            with np.errstate(all="ignore"):
                return lanes(np.array([v, 0.5]))[:, 0].tolist()

        cases += [(codegen.curve_coefficients(lin, curve, lam), walk), (column, walk)]
    return cases


@pytest.mark.parametrize("printer", PRINTERS)
@pytest.mark.parametrize("shape", ["quotients", "sum", "sines", "shifted quotients"])
def test_every_printer_at_the_depth_bound_equals_the_walk(printed, printer, shape):
    for call, walk in _cases(printer, shape):
        for v in VALUES:
            assert _outcome(lambda: call(v)) == _outcome(lambda: walk(v)), v
    # a printed line nests its parentheses far below CPython's 200 levels
    assert printed and max(map(_deepest, printed)) <= codegen._NEST_DEPTH + 8


def test_the_bound_splits_a_chain_into_locals(printed, monkeypatch):
    # the forward slot of the quotients nests two levels per division
    tree = _deep("y1")["quotients"]
    bound = codegen._NEST_DEPTH
    codegen.compile_gradients([tree], ("y1",), ("y1",))
    monkeypatch.setattr(codegen, "_NEST_DEPTH", 1000)
    codegen.compile_gradients([tree], ("y1",), ("y1",))
    bounded, unbounded = map(_deepest, printed)
    assert bounded <= bound + 2 < 190 < unbounded < 200, (bounded, unbounded)


# -- (b) a value is printed once however often it is read ---------------------


def test_a_polynomial_is_one_expression_and_a_flow_reads_each_x_from_a_local(printed):
    poly = ex.parse("0.5 + 1.5*x1 - 2*x2 + x1*x2 + 0.25*y1*y1 - y2*x1 + 3*y2 - 0.75*x1^2 + y1*y2/4 + 2.5*y1^3")
    names = ("x1", "x2", "y1", "y2")
    f = codegen.compile_exprs([poly], names)
    (text,) = printed
    assert not re.search(r"\b_t\d+\b", text), text
    values = (0.3, -1.25, 0.7, 2.0)
    assert _bits(list(f(*values))) == _bits([ex.evaluate(poly, dict(zip(names, values)))])

    sp = BundleSpace(2, 2)
    rng = np.random.default_rng(5)
    gamma = [[random_polynomial(rng, sp.x_names + sp.y_names) for _ in range(2)] for _ in range(2)]
    conn = NonlinearConnection(sp, gamma)
    X = [ex.parse("0.5 + 1.5*x1 - 2*x2 + x1*x2"), ex.parse("x2*x2 - 0.25*x1 + 1")]
    field = HorBasicField(X, (ex.parse("x1"), ex.lit(0.0)))
    for variational in (False, True):
        printed.clear()
        X_texts = []
        for e in X:
            codegen.compile_exprs([e], sp.x_names)
            X_texts.append(re.fullmatch(r"\s*return \(\((.*)\), \)", printed.pop()).group(1))
        codegen.flow_stage(conn, field, variational)
        (text,) = printed
        for x in X_texts:
            assert text.count(x) == 1, (x, text)
        state = [0.3, -0.6, 1.1, 0.4, 0.5, -2.0][: 6 if variational else 4]
        want = _stage_by_walk(conn, field, variational, state)
        assert _bits(codegen.flow_stage(conn, field, variational)(0.0, state)) == _bits(want)


def _curve_coefficients(text):
    """The coefficients of a curve with x1 given by text, under a gamma that
    reads x1 on a rank-2 bundle: M has four entries."""
    conn = NonlinearConnection(BundleSpace(1, 2), ((ex.parse("x1 * y1"),), (ex.parse("y2 - y1"),)))
    curve = CurveInE((ex.parse(text),), (ex.parse("t"), ex.lit(1.0)), 0.0, 1.0)
    codegen.curve_coefficients(LinearizedConnection(conn), curve, 0.7)


@pytest.mark.parametrize(
    "compile_, text, read",
    [
        # the float emitter: a divisor before its guard, the argument of a
        # guarded log or sqrt, a square of an integer power
        ("exprs", "x1 / (y1 + 1)", "_a2 + 1.0"),
        ("exprs", "log(y1 + 2)", "_a2 + 2.0"),
        ("exprs", "sqrt(y1 + 3)", "_a2 + 3.0"),
        ("exprs", "(y1 + 4)^4", "_a2 + 4.0"),
        ("exprs", "(y1 + 5)^7", "_t1 * _t1"),
        # the forward emitter seeded in x1 and y1 (the other names are duals
        # with zero slots, so a float is variable-free): a float factor meets
        # every slot, abs copies each slot into both branches, and the
        # cosine's factor scales every slot
        ("gradients", "(1 + 2) * y1", "1.0 + 2.0"),
        ("gradients", "y1 * (3 - 5)", "3.0 - 5.0"),
        ("gradients", "abs(x1 * y1 + 3)", "_a0 * 0.0 + 1.0 * _a2"),
        ("gradients", "cos(x1 + y1)", "-_t"),
        # the second-order emitter's float factor (every name has an outer
        # slot, so a float is variable-free), read by every slot
        ("second", "(1 + 2) * y1", "1.0 + 2.0"),
        ("second", "y1 * (3 - 5)", "3.0 - 5.0"),
        # the curve's xdot, read by every entry of M and of c
        ("curve", "t * t + t", "_a0 * 1.0 + 1.0 * _a0"),
    ],
)
def test_a_value_read_more_than_once_is_printed_once(printed, compile_, text, read):
    names = ("x1", "x2", "y1", "y2")
    if compile_ == "exprs":
        codegen.compile_exprs([ex.parse(text)], names)
    elif compile_ == "gradients":
        codegen.compile_gradients([ex.parse(text)], names, ("x1", "y1"))
    elif compile_ == "second":
        second_order.compile_second([ex.parse(text)], names, ("x1", "y1"))
    else:
        _curve_coefficients(text)
    (out,) = printed
    assert out.count(read) == 1, out


# -- (c) the first failing guard raises ---------------------------------------


@pytest.mark.parametrize(
    "text, message",
    [
        ("(y1 - 1) * 2 / (y1 - 1) + log(y1 - 2)", "division by zero"),
        ("log(y1 - 2) + (y1 - 1) * 2 / (y1 - 1)", "log of non-positive value"),
    ],
)
def test_of_two_failing_guards_the_walks_first_raises(text, message):
    tree = ex.parse(text)
    point = {"x1": 0.0, "y1": 1.0}
    with pytest.raises(ex.DomainError, match=f"^{message}$"):
        ex.evaluate(tree, point)
    want = _outcome(lambda: [ex.evaluate(tree, point)])
    assert _outcome(lambda: codegen.compile_exprs([tree], ("x1", "y1"))(0.0, 1.0)) == want
    assert _outcome(lambda: codegen.compile_gradients([tree], ("x1", "y1"), ("y1",))(0.0, 1.0)) == want
    assert _outcome(lambda: second_order.compile_second([tree], ("x1", "y1"), ("y1",))(0.0, 1.0, 1.0, 0.5)) == want
    # gamma at y1 = t = 1, and a curve component of t at t = 1, scalar and lanes
    on_t = ex.parse(text.replace("y1", "t"))
    line = CurveInE((ex.parse("t"),), (ex.parse("t"),), 0.0, 1.0)
    for lin, curve in (
        (LinearizedConnection(_line_conn(tree)), line),
        (LinearizedConnection(_line_conn(ex.parse("y1"))), CurveInE((ex.parse("t"),), (on_t,), 0.0, 1.0)),
    ):
        g = codegen.curve_coefficients(lin, curve, 0.7)
        lanes = codegen.curve_coefficients(lin, curve, 0.7, lanes=True)
        assert _outcome(lambda: g(1.0)) == want
        assert _outcome(lambda: lanes(np.array([1.0, 1.0]))) == want
