"""Expression trees compiled once into straight-line Python functions.

``expr.evaluate`` is the definition.  A tree that an owner evaluates many
times (a connection's gamma, a flow's field, a domain predicate) is printed
once as Python source and executed into a function of positional values,
the idea behind SymPy's ``lambdify``.  The printed code performs the walk's
operations in the walk's order through the same guards, so it returns the
same numbers bitwise and raises the same errors:

* ``compile_exprs`` and ``compile_bool`` (the float emitter) print float
  arithmetic, each function of the math module called directly behind the
  walk's guard; their functions take Python floats, which is what every
  owner passes (the ``tolist()`` of a state);
* ``compile_gradients`` (the forward-mode emitter) prints Dual1 arithmetic
  slot by slot in float locals and returns what ``ad.gradients`` returns.
  A tree whose derivative the printed code cannot decide (an exponent that
  is not a literal or a negated literal, an unknown function) is walked by
  ``ad.gradient`` at run time;
* ``second_order.compile_second`` (the second-order emitter, a module of
  its own) prints Dual2 arithmetic the same way, one walk per seeded name
  along one outer direction;
* ``flow_stage`` prints a whole stage of a flow of a hor-basic field (of
  ``transport.flow`` or ``fiber_derivative_flow``): the domain test, the
  field and gamma through the emitters above, and the stage velocities in
  the stated orders of ``connection.horizontal_velocity`` and
  ``LinearizedConnection.fiber_velocity``, as one function of the state;
* ``curve_coefficients`` prints the coefficients of
  ``transport.transport_ode``'s linear ODE ``zdot = M(t) z + c(t)``: the
  curve seeded in t, the domain test, gamma seeded in y, and M and c in
  their stated orders, as one function of the time, or in lanes mode (see
  ``Source``) of an array of times, which tabulates a block of knots in one
  pass;
* ``linear_rk4`` prints the whole RK4 loop of a linear ODE on k floats, its
  ``M z + c`` rows and rk4's stage sums, reading the coefficients once per
  knot (at each step's midpoint and end) from a table of knots;
  ``transport.transport_ode`` runs on it;
* ``holonomy_stage`` prints a whole stage of the four loops of
  ``NonlinearConnection.holonomy_curvature`` side by side (``lane_stage``,
  one lane per loop): per lane, the domain test, gamma through the float
  emitter, and the lane's direction with its horizontal lift in the stated
  order of ``connection.horizontal_velocity``, as one function of the
  directions, the time and the four lanes' state;
* ``rk4_step`` prints one step of ``transport.rk4`` for a state width: its
  four stage sums written out component by component.  It and
  ``linear_rk4`` print rk4's step sums through one helper, ``_rk4_sums``.

Dual values take the walk, ``evaluate``; ``in_domain`` walks
``evaluate_bool`` at one point.  The float and forward emitters have a
lanes mode, a flag on ``Source``: the same walk printed over numpy arrays,
one entry per lane, bitwise the float code at every lane where it returns.

Owners import this module on first use: a process that only loads a spec
neither compiles a tree nor imports this module (which, without a bytecode
cache, costs about 10 ms to byte-compile).
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Mapping

import numpy as np

from .ad import gradient
from .expr import (
    FUNCTIONS,
    Bin,
    BoolAnd,
    BoolExpr,
    Comparison,
    DomainError,
    Expr,
    Fun,
    Lit,
    Neg,
    UnboundVariableError,
    Var,
    _as_const_int,
    _ipow,
    _literal,
    _pow,
    _walk_decides,
)


class Source:
    """Body of a function of the values of names under construction, and
    the globals it runs in.

    ``tokens`` maps each name to its positional parameter.  Every value
    gets its own local, so the statements keep the walk's order of
    operations.  ``indent`` nests statements under an emitted ``if``.

    With ``lanes`` the emitters print the same walk over numpy arrays of
    floats, one entry per lane, a float standing for a value shared by
    every lane: + - * /, sqrt, abs and the comparisons as numpy's, which
    round exactly as float arithmetic does, and every other function of
    floats (sin, cos, exp, log, ``_pow``, ``_ipow``) called entry by entry
    through ``_each``, so each lane's numbers are bitwise those of the
    float code at that lane.  A guard raises when any lane fails it, and
    and/or evaluate every term on every lane, so the lanes raise wherever
    the float code would raise at one of them, and may raise where its
    short circuit would skip a term.
    """

    def __init__(self, names, helpers: Mapping[str, object], lanes: bool = False):
        self.params = [f"_a{i}" for i in range(len(names))]
        self.tokens = dict(zip(names, self.params))
        self.lines: list[str] = []
        self.indent = 1
        self.namespace = {**helpers, **LANE_HELPERS} if lanes else dict(helpers)
        self.lanes = lanes
        self._count = 0

    def line(self, text: str):
        self.lines.append("    " * self.indent + text)

    def local(self) -> str:
        self._count += 1
        return f"_t{self._count}"

    def assign(self, text: str) -> str:
        name = self.local()
        self.line(f"{name} = {text}")
        return name

    def const(self, value) -> str:
        """Source token for a literal: its repr, or a global for inf and nan."""
        if value.__class__ is float and math.isfinite(value):
            return repr(value) if math.copysign(1.0, value) > 0 else f"({value!r})"
        name = f"_c{len(self.namespace)}"
        self.namespace[name] = value
        return name

    def call(self, fn: str, *args: str) -> str:
        """Text of a call of the function of floats fn: direct, or with
        lanes entry by entry (sqrt by numpy)."""
        if not self.lanes:
            return f"{fn}({', '.join(args)})"
        if fn == "_math.sqrt":
            return f"_np.sqrt({args[0]})"
        return f"_each({', '.join((fn, *args))})"

    def raise_if(self, test: str, message: str):
        """``if test: raise DomainError(message)``; with lanes, if any lane's
        test holds."""
        self.line(f"if _any({test}):" if self.lanes else f"if {test}:")
        self.line(f"    raise _DomainError({message!r})")


def define(source: Source, result: str) -> Callable:
    """Execute ``def f(*params): <body>; return <result>`` once and return f.

    Every compiled function is made here.
    """
    body = "\n".join(source.lines) or "    pass"
    text = f"def _compiled({', '.join(source.params)}):\n{body}\n    return {result}\n"
    exec(text, source.namespace)
    return source.namespace["_compiled"]


def tuple_of(tokens) -> str:
    return "(" + "".join(f"{t}, " for t in tokens) + ")"


HELPERS = {
    "_DomainError": DomainError,
    "_Unbound": UnboundVariableError,
    "_pow": _pow,
    "_ipow": _ipow,
    "_math": math,
}


def _each(f, *args):
    """f called on the floats of each lane in turn, a float argument shared
    by every lane: an array of f's values, or f's first error; a float
    when every argument is one."""
    shape = np.broadcast_shapes(*map(np.shape, args))
    columns = [np.broadcast_to(a, shape).tolist() for a in args]
    return np.fromiter(map(f, *columns), float, shape[0]) if shape else f(*columns)


def _rows(values, times) -> np.ndarray:
    """The lanes' values as an array [value, lane], one lane per time; a
    float fills its row."""
    out = np.empty((len(values), len(times)))
    for row, value in zip(out, values):
        row[...] = value
    return out


LANE_HELPERS = {"_np": np, "_any": np.any, "_all": np.all, "_each": _each, "_rows": _rows}


class Emitter:
    """Prints the operations ``evaluate`` performs on a tree of floats, in
    its order.

    A variable reads the parameter that ``source.tokens`` gives it; one
    without a parameter raises UnboundVariableError where the walk would.
    ``emit`` walks the tree and hands each node to one method per
    operation; a subclass can print other arithmetic for the same walk.
    """

    def __init__(self, source: Source):
        self.src = source

    def emit(self, e: Expr):
        """Statements computing e; returns the token that holds its value."""
        cls = e.__class__
        if cls is Lit:
            return self.literal(e.value)
        if cls is Var:
            token = self.src.tokens.get(e.name)
            if token is None:
                self.src.line(f"raise _Unbound({e.name!r})")
                return self.literal(None)
            return self.variable(e.name, token)
        if cls is Neg:
            value = _literal(e)
            return self.neg(self.emit(e.arg)) if value is None else self.literal(value)
        if cls is Fun:
            return self.fun(e.name, self.emit(e.arg))
        left = self.emit(e.left)
        if e.op in ("+", "-", "*"):
            return self.arith(e.op, left, self.emit(e.right))
        if e.op == "/":
            right = self.emit(e.right)
            if not self.divisor_guard(right, e.right):
                return self.literal(None)
            return self.div(left, right)
        # ^, and any other operator, is _pow
        value = _literal(e.right)
        if value is not None:
            n = _as_const_int(value)
            if n is not None:
                return self.ipow(left, n)
        return self.pow(left, self.emit(e.right))

    def literal(self, value):
        return self.src.const(value)

    def variable(self, name: str, token: str):
        return token

    def neg(self, a):
        return self.src.assign(f"-{a}")

    def arith(self, op: str, a, b):
        return self.src.assign(f"{a} {op} {b}")

    def divisor_guard(self, right, divisor: Expr) -> bool:
        """``evaluate``'s check of a float divisor; False when it always raises."""
        if divisor.__class__ is Lit:
            if divisor.value == 0.0:
                self.src.line('raise _DomainError("division by zero")')
                return False
            return True
        self.src.raise_if(f"{right} == 0.0", "division by zero")
        return True

    def div(self, a, b):
        return self.src.assign(f"{a} / {b}")

    def pow(self, a, b):
        return self.src.assign(self.src.call("_pow", a, b))

    def ipow(self, base, n: int):
        """``_ipow(base, n)`` for a literal n, its squarings printed."""
        if n == 0:
            return self.literal(1.0)
        if n < 0:
            return self.src.assign(self.src.call("_ipow", base, str(n)))
        acc = None
        sq = base
        while True:
            if n & 1:
                acc = sq if acc is None else self.arith("*", acc, sq)
            n >>= 1
            if not n:
                return acc
            sq = self.arith("*", sq, sq)

    def fun(self, name: str, a):
        """``expr._apply_real(name, a)``: its guard printed inline and the
        math function called directly; an unknown name raises its ValueError."""
        if name == "abs":
            return self.src.assign(f"abs({a})")
        if name not in FUNCTIONS:
            self.src.line(f"raise ValueError({f'unknown function {name!r}'!r})")
            return self.literal(None)
        if name == "log":
            self.src.raise_if(f"{a} <= 0.0", "log of non-positive value")
        elif name == "sqrt":
            self.src.raise_if(f"{a} < 0.0", "sqrt of negative value")
        return self.src.assign(self.src.call(f"_math.{name}", a))

    def emit_bool(self, b: BoolExpr) -> str:
        """Statements computing ``evaluate_bool(b)``, and/or short circuit
        kept; with lanes every term is computed and the terms are joined
        with & or |."""
        src = self.src
        if b.__class__ is Comparison:
            left, right = self.emit(b.left), self.emit(b.right)
            op = b.op if b.op in ("<", "<=", ">") else ">="
            return src.assign(f"{left} {op} {right}")
        conj = b.__class__ is BoolAnd
        if src.lanes:
            return src.assign((" & " if conj else " | ").join([self.emit_bool(term) for term in b.terms]))
        out = src.local()
        depth = src.indent
        for j, term in enumerate(b.terms):
            if j:
                # later terms run only while the result is unsettled
                src.line(f"if {out}:" if conj else f"if not {out}:")
                src.indent += 1
            src.line(f"{out} = {self.emit_bool(term)}")
        src.indent = depth
        return out


def compile_exprs(exprs, names) -> Callable:
    """One function of the float values of names that evaluates every tree.

    ``compile_exprs(exprs, names)(*values)`` is the tuple of
    ``evaluate(e, dict(zip(names, values)))`` over exprs, bitwise, and
    raises what the first failing evaluation raises.
    """
    src = Source(names, HELPERS)
    emitter = Emitter(src)
    return define(src, tuple_of([emitter.emit(e) for e in exprs]))


def compile_bool(b: BoolExpr, names) -> Callable:
    """``evaluate_bool(b, dict(zip(names, values)))`` as a function of float
    values: a bool, with the walk's and/or short circuit."""
    src = Source(names, HELPERS)
    return define(src, Emitter(src).emit_bool(b))


class _Slots(Emitter):
    """Base of the emitters that print a dual number's slots as float locals.

    A value is a tuple whose first entry is the token of the value and
    whose second is None for a float.  Floats (trees without variables)
    print as ``Emitter`` prints them, through ``plain``, and carry
    ``blank``, the Nones of the other slots.  A call of a math function or
    a guard already printed for the same argument token is not printed
    again: every token is assigned once, so it reads the same value.
    The guards and integer powers of the two dual types are alike, so they
    are written once here.
    """

    blank: tuple = ()

    def __init__(self, source):
        super().__init__(source)
        self.plain = Emitter(source)  # for operations on floats
        self.calls = {}  # the text of each pure call printed -> its token
        self.guards = set()  # the guards printed

    def _raise_if(self, test: str, message: str):
        # a guard already printed has passed: its test reads the same tokens
        if (test, message) not in self.guards:
            self.guards.add((test, message))
            self.src.raise_if(test, message)

    def _call(self, text: str) -> str:
        """The token of a pure call, printed once per text: sin and cos of
        one argument token, say, serve both a value and a derivative."""
        if text not in self.calls:
            self.calls[text] = self.src.assign(text)
        return self.calls[text]

    def literal(self, value):
        return self.plain.literal(value), *self.blank

    def divisor_guard(self, right, divisor):
        if right[1] is None:
            return self.plain.divisor_guard(right[0], divisor)
        self._raise_if(f"{right[0]} == 0.0", "division by zero")
        return True

    def ipow(self, base, n):
        if base[1] is None:
            return self.plain.ipow(base[0], n), *self.blank
        if n == 0:
            return self.literal(1.0)
        if n > 0:
            return super().ipow(base, n)
        self._raise_if(f"{base[0]} == 0.0", "zero base with negative integer exponent")
        power = self.ipow(base, -n)
        self._raise_if(f"{power[0]} == 0.0", "division by zero")
        return self.div(self.literal(1.0), power)

    def pow(self, a, b):
        # reached with a literal exponent only (see expr._walk_decides)
        if a[1] is None:
            return self.plain.pow(a[0], b[0]), *self.blank
        self._raise_if(f"{a[0]} <= 0.0", "power with non-integer exponent needs a positive base")
        return self.fun("exp", self.arith("*", self.fun("log", a), b))


class _Forward(_Slots):
    """Prints Dual1 arithmetic slot by slot: every Dual1 becomes float locals.

    A value is a pair (re, eps): the token of a float and None, or the
    tokens of a Dual1's value and of its m derivative slots.  Each slot is
    computed with the formula of the Dual1 operation the walk would call,
    guards included, so the numbers are bitwise those of ``ad.gradients``.
    ``emit`` and the squarings of ``ipow`` are inherited.  ``walked`` hands
    a whole tree to ``ad.gradient`` instead.
    """

    blank = (None,)

    def __init__(self, source, seeded):
        super().__init__(source)
        index = {name: j for j, name in enumerate(seeded)}
        self.seeded, self.m = seeded, len(seeded)
        self.seeds = {
            name: tuple("1.0" if index.get(name) == j else "0.0" for j in range(self.m))
            for name in source.tokens
        }

    def _scaled(self, f1, eps):
        return tuple(self.src.assign(f"{f1} * {x}") for x in eps)

    def variable(self, name, token):
        return token, self.seeds[name]

    def neg(self, a):
        re, eps = a
        if eps is None:
            return self.plain.neg(re), None
        return self.src.assign(f"-{re}"), tuple(self.src.assign(f"-{x}") for x in eps)

    def arith(self, op, a, b):
        (are, aeps), (bre, beps) = a, b
        if aeps is None and beps is None:
            return self.plain.arith(op, are, bre), None
        put = self.src.assign
        if op == "+":
            if beps is None:
                return put(f"{are} + {bre}"), aeps
            if aeps is None:  # float + Dual1 is Dual1.__radd__
                return put(f"{bre} + {are}"), beps
            return put(f"{are} + {bre}"), tuple(put(f"{x} + {y}") for x, y in zip(aeps, beps))
        if op == "-":
            if beps is None:
                return put(f"{are} - {bre}"), aeps
            if aeps is None:
                return put(f"{are} - {bre}"), tuple(put(f"-{y}") for y in beps)
            return put(f"{are} - {bre}"), tuple(put(f"{x} - {y}") for x, y in zip(aeps, beps))
        if beps is None:
            return put(f"{are} * {bre}"), tuple(put(f"{x} * {bre}") for x in aeps)
        if aeps is None:  # float * Dual1 is Dual1.__rmul__
            return put(f"{bre} * {are}"), tuple(put(f"{y} * {are}") for y in beps)
        return put(f"{are} * {bre}"), tuple(
            put(f"{are} * {y} + {x} * {bre}") for x, y in zip(aeps, beps)
        )

    def div(self, a, b):
        (are, aeps), (bre, beps) = a, b
        put = self.src.assign
        if beps is None:
            if aeps is None:
                return self.plain.div(are, bre), None
            return put(f"{are} / {bre}"), tuple(put(f"{x} / {bre}") for x in aeps)
        q = put(f"{are} / {bre}")
        if aeps is None:  # Dual1.__rtruediv__
            return q, tuple(put(f"-{q} * {y} / {bre}") for y in beps)
        return q, tuple(put(f"({x} - {q} * {y}) / {bre}") for x, y in zip(aeps, beps))

    def fun(self, name, a):
        re, eps = a
        if eps is None:
            return self.plain.fun(name, re), None
        put = self.src.assign

        def call(fn):
            return self._call(self.src.call(f"_math.{fn}", re))

        if name == "sin":
            return call("sin"), self._scaled(call("cos"), eps)
        if name == "cos":
            return call("cos"), self._scaled(put(f"-{call('sin')}"), eps)
        if name == "exp":
            v = call("exp")
            return v, self._scaled(v, eps)
        if name == "log":
            self._raise_if(f"{re} <= 0.0", "log of non-positive value")
            return call("log"), self._scaled(put(f"1.0 / {re}"), eps)
        if name == "sqrt":
            self._raise_if(f"{re} <= 0.0", "sqrt needs a positive value when differentiating")
            v = call("sqrt")
            return v, self._scaled(put(f"0.5 / {v}"), eps)
        # abs
        self._raise_if(f"{re} == 0.0", "abs is not differentiable at zero")
        if self.src.lanes:
            up = put(f"{re} > 0.0")
            re, *eps = [put(f"_np.where({up}, {x}, -{x})") for x in (re, *eps)]
            return re, tuple(eps)
        out = [self.src.local() for _ in range(self.m + 1)]
        self.src.line(f"if {re} > 0.0:")
        for target, x in zip(out, (re, *eps)):
            self.src.line(f"    {target} = {x}")
        self.src.line("else:")
        for target, x in zip(out, (re, *eps)):
            self.src.line(f"    {target} = -{x}")
        return out[0], tuple(out[1:])

    def walked(self, e):
        """The tree walked over Dual1 objects by ``ad.gradient`` at run time."""
        point = "{" + "".join(f"{name!r}: {token}, " for name, token in self.src.tokens.items()) + "}"
        r = self.src.assign(f"_gradient({self.src.const(e)}, {point}, {self.src.const(self.seeded)})")
        return f"{r}[0]", tuple(f"{r}[1][{j}]" for j in range(self.m))


def _forward_outputs(forward: _Forward, exprs) -> list:
    """Tokens of the T values of exprs, then of their T*m partials, tree by
    tree; a float's partials are zeros."""
    values, partials = [], []
    for e in exprs:
        re, eps = forward.walked(e) if _walk_decides(e) else forward.emit(e)
        if eps is None:
            re, eps = f"float({re})", ("0.0",) * forward.m
        values.append(re)
        partials += eps
    return values + partials


def compile_gradients(exprs, names, seeded) -> Callable:
    """``ad.gradients`` as one straight-line function of the values of names.

    ``f(*values)`` returns the T values of exprs followed by their T*m
    partials with respect to the m names in seeded, tree by tree: the
    numbers ``ad.gradients(exprs, dict(zip(names, values)), seeded)`` gives,
    bitwise (signed zeros included, NaN where it gives NaN), for float
    values.  It raises what that call raises.  A tree that
    ``expr._walk_decides`` flags is handed to ``ad.gradient`` at run time
    instead of being printed.
    """
    src = Source(names, {**HELPERS, "_gradient": gradient})
    return define(src, tuple_of(_forward_outputs(_Forward(src, tuple(seeded)), exprs)))


def _rk4_sums(xs, k1, k2, k3, k4, sixth) -> list:
    """rk4's step sums ``s[j] + sixth*(k1[j] + (k2[j] + k2[j]) + (k3[j] +
    k3[j]) + k4[j])``, one expression per component, in rk4's order: the
    one place a printed step writes them."""
    return [f"{x} + {sixth} * ({a} + ({b} + {b}) + ({c} + {c}) + {d})" for x, a, b, c, d in zip(xs, k1, k2, k3, k4)]


@functools.cache
def rk4_step(width: int) -> Callable:
    """``step(f, start, mid, end, s, half, h, sixth)``: one step of
    ``transport.rk4`` on a list s of width floats, printed once per width.

    It calls ``f(start, s)``, then f at mid on ``s[j] + half*k1[j]`` and on
    ``s[j] + half*k2[j]``, then at end on ``s[j] + h*k3[j]``, and returns
    the list ``s[j] + sixth*(k1[j] + (k2[j] + k2[j]) + (k3[j] + k3[j]) +
    k4[j])``: rk4's stage sums written out component by component, in
    rk4's order.
    """
    src = Source(("f", "start", "mid", "end", "s", "half", "h", "sixth"), {})
    f, start, mid, end, s, half, h, sixth = src.params
    xs = [f"_x{j}" for j in range(width)]
    k1, k2, k3, k4 = ([f"_k{i}_{j}" for j in range(width)] for i in range(1, 5))

    def at(t, scale, k):
        return f"{f}({t}, [{', '.join(f'{x} + {scale} * {a}' for x, a in zip(xs, k))}])"

    src.line(f"{tuple_of(xs)} = {s}")
    src.line(f"{tuple_of(k1)} = {f}({start}, {s})")
    src.line(f"{tuple_of(k2)} = {at(mid, half, k1)}")
    src.line(f"{tuple_of(k3)} = {at(mid, half, k2)}")
    src.line(f"{tuple_of(k4)} = {at(end, h, k3)}")
    return define(src, "[" + ", ".join(_rk4_sums(xs, k1, k2, k3, k4, sixth)) + "]")


@functools.cache
def linear_rk4(k: int, affine: bool) -> Callable:
    """``run(tab, base, t0, half, h, sixth, first, last, z)``: steps
    first..last-1 of ``transport.rk4`` for ``zdot = M(t) z + c(t)`` on a
    list z of k floats, printed once per k and kind, and returns the final
    state as a list.

    ``tab[i]`` holds the coefficients at the knot ``t0 + (2*base + i)*half``:
    the k*k entries of M row by row and, when affine, the k entries of c
    (``curve_coefficients``).  It is a block's table of knots, or a mapping
    that calls the coefficients at a knot when first read.  Step s is rk4's
    step s, with the stage times ``t0 + j*half`` for j = 2s, 2s + 1 (twice)
    and 2s + 2, but each knot is read once: the first step's start before
    the loop, then per step the midpoint, which serves stages 2 and 3, and
    the end, which is bitwise the next step's start.  Each stage's ``M z +
    c`` row is ``M[A][0]*z[0] + M[A][1]*z[1] + ...`` summed left to right,
    then ``+ c[A]``, on the stage state rk4 builds; the step sums are rk4's
    (``_rk4_sums``).  A step whose reading raises OverflowError re-raises it
    naming the step's start, and a non-finite state raises OverflowError
    naming the step's end, with rk4's messages.
    """
    src = Source((), {"_isfinite": math.isfinite})
    src.params = ["_tab", "_base", "_t0", "_half", "_h", "_sixth", "_first", "_last", "_state"]
    tab, base, t0, half, h, sixth, first, last, state = src.params
    zs, ys = [f"_z{A}" for A in range(k)], [f"_y{A}" for A in range(k)]
    ks = [[f"_k{i}_{A}" for A in range(k)] for i in range(1, 5)]

    def reads_naming_the_step(reads):
        # the knot index of the step's start is 2*base + _i
        src.line("try:")
        for target, index in reads:
            src.line(f"    {target} = {tab}[{index}]")
        src.line("except OverflowError as _err:")
        src.line(f'    raise OverflowError(f"{{_err}} in the step from t = {{{t0} + (2 * {base} + _i) * {half}!r}}") from _err')

    def unpack(tag, packed):
        """Locals for the M and c of one knot; the rows of M, and c."""
        M = [[f"_m{tag}{A}_{B}" for B in range(k)] for A in range(k)]
        c = [f"_c{tag}{A}" for A in range(k)] if affine else []
        src.line(f"{tuple_of([m for row in M for m in row] + c)} = {packed}")
        return M, c

    def rows(coefficients, z):
        """``M z + c``: row A summed left to right, then c[A]."""
        M, c = coefficients
        return [" + ".join([*(f"{m} * {x}" for m, x in zip(M[A], z)), *c[A : A + 1]]) for A in range(k)]

    src.line(f"{tuple_of(zs)} = {state}")
    src.line(f"_i = 2 * ({first} - {base})")
    reads_naming_the_step([("_gs", "_i")])
    src.line(f"for _i in range(_i, 2 * ({last} - {base}), 2):")
    src.indent += 1
    reads_naming_the_step([("_gm", "_i + 1"), ("_ge", "_i + 2")])
    start, mid, end = unpack("s", "_gs"), unpack("m", "_gm"), unpack("e", "_ge")
    src.line(f"{tuple_of(ks[0])} = {tuple_of(rows(start, zs))}")
    for coefficients, scale, prev, out in ((mid, half, ks[0], ks[1]), (mid, half, ks[1], ks[2]), (end, h, ks[2], ks[3])):
        src.line(f"{tuple_of(ys)} = {tuple_of([f'{z} + {scale} * {a}' for z, a in zip(zs, prev)])}")
        src.line(f"{tuple_of(out)} = {tuple_of(rows(coefficients, ys))}")
    src.line(f"{tuple_of(zs)} = {tuple_of(_rk4_sums(zs, *ks, sixth))}")
    src.line(f"if not ({' and '.join(f'_isfinite({z})' for z in zs)}):")
    src.line(f'    raise OverflowError(f"non-finite state at t = {{{t0} + (2 * {base} + _i + 2) * {half}!r}}")')
    src.line("_gs = _ge")
    src.indent -= 1
    return define(src, "[" + ", ".join(zs) + "]")


def flow_stage(conn, field, variational: bool) -> Callable:
    """``f(t, state)``: one RK4 stage of a flow of the hor-basic field under
    the connection, as one printed function of floats.

    The state is x1..xn, y1..yk, and with variational also z1..zk.  f tests
    the domain predicate and raises ``space.left_domain("flow", t, xy)`` off
    it, computes the field's X and eta (the float emitter) and gamma (the
    float emitter, or with variational the forward emitter seeded in y), in
    that order, so it raises what the compiled predicate, field and gamma
    raise, one after the other.  It returns the list of X, then
    ``connection.horizontal_velocity(G, X, eta)``, then with variational
    ``LinearizedConnection.fiber_velocity(J, z, X)``, printed in their
    stated orders (for each A: the terms ``-G[A][i] * X[i]`` summed left to
    right, then ``+ eta[A]``; and ``J[A][i][B] * z[B] * X[i]`` summed onto
    0.0 with i outer and B inner, negated), so its numbers are bitwise those
    of the three compiled functions and the two formulas.
    """
    sp = conn.space
    n, k = sp.n, sp.k
    if (len(field.X), len(field.eta)) != (n, k):
        raise ValueError(f"a flow needs a field with {n} base and {k} fiber components")
    helpers = {**HELPERS, "_gradient": gradient, "_left": sp.left_domain}
    src = Source(sp.x_names + sp.y_names, helpers)
    xy = src.params
    zs = [f"_z{B}" for B in range(k)] if variational else []
    src.params = ["_time", "_state"]  # the values of the names come from the state
    src.line(f"{tuple_of(xy + zs)} = _state")
    plain = Emitter(src)
    if sp.domain is not None:
        src.line(f"if not {plain.emit_bool(sp.domain)}:")
        src.line(f"    raise _left('flow', _time, [{', '.join(xy)}])")
    comps = [plain.emit(e) for e in field.X + field.eta]
    X, eta = comps[:n], comps[n:]
    entries = [g for row in conn.gamma for g in row]
    if variational:
        out = _forward_outputs(_Forward(src, sp.y_names), entries)
        G, J = out[: k * n], out[k * n :]
    else:
        G = [plain.emit(g) for g in entries]
    outputs = list(X)
    for A in range(k):
        terms = [f"-{g} * {x}" for g, x in zip(G[A * n : (A + 1) * n], X)]
        outputs.append(" + ".join([*terms, eta[A]]))
    if variational:
        for A in range(k):
            rows = J[A * n * k : (A + 1) * n * k]
            terms = [f"{rows[i * k + B]} * {zs[B]} * {X[i]}" for i in range(n) for B in range(k)]
            outputs.append(f"-({' + '.join(['0.0', *terms])})")
    return define(src, "[" + ", ".join(outputs) + "]")


def curve_coefficients(lin, curve, lam: float, lanes: bool = False) -> Callable | None:
    """``g(t)``: the coefficients of ``transport.transport_ode``'s linear ODE
    ``zdot = M(t) z + c(t)`` along the curve under the linearization lin
    (with lam != 0 the family member), as one printed function of the
    float t.

    g computes the curve's x, y, xdot and ydot (the forward emitter seeded
    in t, as ``CurveInE.compiled_state``), tests the domain predicate at
    (x, y) and raises ``space.left_domain("curve", t, xy)`` off it, then
    computes gamma and d_gamma (the forward emitter seeded in y over the
    curve's values, as ``compiled_gamma_gradients``), in that order, so it
    raises what those compiled functions raise, one after the other.  It
    returns the tuple of the k*k entries ``M[A][B] = -(0.0 + J[A][0][B] *
    xdot[0] + J[A][1][B] * xdot[1] + ...)`` row by row, then, with lam !=
    0, the k entries ``c[A] = lam * (ydot[A] + (G[A][0] * xdot[0] +
    G[A][1] * xdot[1] + ...))``; ``linear_rk4`` steps with them.

    With lanes, g is printed over lanes (``Source``): ``g(times)`` takes a
    float array of times and returns the array [entry, time] whose column j
    is bitwise g(times[j]).  It raises where g raises at some time, and
    may raise where g does not; a point off the domain raises DomainError.
    A tree that the walk decides (``expr._walk_decides``) has no lanes
    form: the lanes g is then None.
    """
    sp = lin.space
    n, k = sp.n, sp.k
    entries = [g for row in lin.conn.gamma for g in row]
    if lanes and any(map(_walk_decides, (*curve.comp_x, *curve.comp_y, *entries))):
        return None
    src = Source(("t",), {**HELPERS, "_gradient": gradient, "_left": sp.left_domain}, lanes)
    time = src.params[0]
    out = _forward_outputs(_Forward(src, ("t",)), curve.comp_x + curve.comp_y)
    xy = [src.assign(v) for v in out[: n + k]]
    xd, yd = out[n + k : 2 * n + k], out[2 * n + k :]
    src.tokens = dict(zip(sp.x_names + sp.y_names, xy))  # gamma reads the curve's point
    if sp.domain is not None:
        inside = Emitter(src).emit_bool(sp.domain)
        if lanes:
            src.line(f"if not _all({inside}):")
            src.line('    raise _DomainError("curve left the domain")')
        else:
            src.line(f"if not {inside}:")
            src.line(f"    raise _left('curve', {time}, [{', '.join(xy)}])")
    out = _forward_outputs(_Forward(src, sp.y_names), entries)
    G, J = out[: k * n], out[k * n :]
    M = [
        src.assign(f"-({' + '.join(['0.0', *(f'{J[(A * n + i) * k + B]} * {xd[i]}' for i in range(n))])})")
        for A in range(k)
        for B in range(k)
    ]
    c = []
    if lam != 0.0:
        for A in range(k):
            g = " + ".join(f"{G[A * n + i]} * {xd[i]}" for i in range(n))
            c.append(src.assign(f"{src.const(float(lam))} * ({yd[A]} + ({g}))"))
    return define(src, f"_rows({tuple_of(M + c)}, {time})" if lanes else tuple_of(M + c))


def lane_stage(sp, lanes: int, width: int, what: str, lane) -> Callable:
    """``f(dirs, t, state)``: one RK4 stage of lanes integrations side by
    side, each along its own base direction, as one printed function of
    floats.

    Lane j reads its n directions from ``dirs[j*n : (j+1)*n]`` and its
    width floats, x1..xn, y1..yk and any more, from ``state[j*width :
    (j+1)*width]``.  Lane by lane, in order, f tests the domain predicate at
    the lane's (x, y) and raises ``space.left_domain(what, t, xy)`` off it,
    then runs the statements that ``lane(src, state, d)`` prints, with the
    tokens of the lane's state and directions and ``src.tokens`` naming its
    x and y.  That call returns the lane's output expressions; f returns
    every lane's outputs in one list, lane after lane.
    """
    n = sp.n
    names = sp.x_names + sp.y_names
    src = Source(names, {**HELPERS, "_left": sp.left_domain})
    src.params = ["_dirs", "_time", "_state"]
    dirs = [[f"_d{j}_{i}" for i in range(n)] for j in range(lanes)]
    states = [[f"_s{j}_{c}" for c in range(width)] for j in range(lanes)]
    src.line(f"{tuple_of([d for lane_dirs in dirs for d in lane_dirs])} = _dirs")
    src.line(f"{tuple_of([s for lane_state in states for s in lane_state])} = _state")
    outputs = []
    for d, state in zip(dirs, states):
        xy = state[: len(names)]
        src.tokens = dict(zip(names, xy))
        if sp.domain is not None:
            src.line(f"if not {Emitter(src).emit_bool(sp.domain)}:")
            src.line(f"    raise _left({what!r}, _time, [{', '.join(xy)}])")
        outputs += lane(src, state, d)
    return define(src, "[" + ", ".join(outputs) + "]")


def holonomy_stage(conn) -> Callable:
    """``f(dirs, t, state)``: one RK4 stage of the four loops of
    ``NonlinearConnection.holonomy_curvature`` (``lane_stage`` over four
    lanes of x1..xn, y1..yk), as one printed function of floats.

    Lane j's velocity is its direction d and then the horizontal lift of d,
    ``connection.horizontal_velocity(G, d)`` in its stated order (for each
    A, the terms ``-G[A][i] * d[i]`` summed left to right), with gamma from
    the float emitter at the lane's point.  Each lane raises what the
    compiled domain predicate and gamma raise there, in that order, so f is
    bitwise the four loops stepped one at a time.
    """
    n, k = conn.space.n, conn.space.k
    entries = [g for row in conn.gamma for g in row]

    def lane(src, state, d):
        emitter = Emitter(src)
        G = [emitter.emit(g) for g in entries]
        return [*d, *(" + ".join(f"-{g} * {x}" for g, x in zip(G[A * n : (A + 1) * n], d)) for A in range(k))]

    return lane_stage(conn.space, 4, n + k, "holonomy leg", lane)
