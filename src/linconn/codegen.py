"""Expression trees compiled once into straight-line Python functions.

``expr.evaluate`` is the definition.  A tree that an owner evaluates many
times (a connection's gamma, a flow's field, a domain predicate) is printed
once as Python source and executed into a function of positional values,
the idea behind SymPy's ``lambdify``.  The printed code performs the walk's
operations in the walk's order through the same guards, so it returns the
same numbers bitwise and raises the same errors:

* ``compile_exprs`` and ``compile_bool`` (the float emitter) print float
  arithmetic; their functions take Python floats, which is what every
  owner passes (the ``tolist()`` of a state);
* ``compile_gradients`` (the forward-mode emitter) prints Dual1 arithmetic
  slot by slot in float locals and returns what ``ad.gradients`` returns.
  A tree whose derivative the printed code cannot decide (an exponent that
  is not a literal or a negated literal, an unknown function) is walked by
  ``ad.gradient`` at run time.

Dual and batched values take the walk, ``evaluate``; ``in_domain`` walks
``evaluate_bool`` at one point.

Owners import this module on first use: a process that only loads a spec
neither compiles a tree nor imports this module (which, without a bytecode
cache, costs about 10 ms to byte-compile).
"""

from __future__ import annotations

import math
from typing import Callable, Mapping

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
    _apply_real,
    _as_const_int,
    _ipow,
    _pow,
)


class Source:
    """Body of a function of the values of names under construction, and
    the globals it runs in.

    ``tokens`` maps each name to its positional parameter.  Every value
    gets its own local, so the statements keep the walk's order of
    operations.  ``indent`` nests statements under an emitted ``if``.
    """

    def __init__(self, names, helpers: Mapping[str, object]):
        self.params = [f"_a{i}" for i in range(len(names))]
        self.tokens = dict(zip(names, self.params))
        self.lines: list[str] = []
        self.indent = 1
        self.namespace = dict(helpers)
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


def define(source: Source, result: str) -> Callable:
    """Execute ``def f(*params): <body>; return <result>`` once and return f.

    Every compiled function is made here.
    """
    body = "\n".join(source.lines) or "    pass"
    text = f"def _compiled({', '.join(source.params)}):\n{body}\n    return {result}\n"
    exec(text, source.namespace)
    return source.namespace["_compiled"]


def _literal(e):
    """The value of a literal or of a negated literal, else None.

    The parser reads ``y1^-2`` as ``y1^(-(2))``; the walk negates the
    literal exactly, so the negation can be done once when printing.
    """
    if e.__class__ is Lit:
        return e.value
    if e.__class__ is Neg and e.arg.__class__ is Lit:
        return -e.arg.value
    return None


def tuple_of(tokens) -> str:
    return "(" + "".join(f"{t}, " for t in tokens) + ")"


HELPERS = {
    "_DomainError": DomainError,
    "_Unbound": UnboundVariableError,
    "_pow": _pow,
    "_ipow": _ipow,
    "_apply_real": _apply_real,
}


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
        self.src.line(f"if {right} == 0.0:")
        self.src.line('    raise _DomainError("division by zero")')
        return True

    def div(self, a, b):
        return self.src.assign(f"{a} / {b}")

    def pow(self, a, b):
        return self.src.assign(f"_pow({a}, {b})")

    def ipow(self, base, n: int):
        """``_ipow(base, n)`` for a literal n, its squarings printed."""
        if n == 0:
            return self.literal(1.0)
        if n < 0:
            return self.src.assign(f"_ipow({base}, {n})")
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
        return self.src.assign(f"_apply_real({name!r}, {a})")

    def emit_bool(self, b: BoolExpr) -> str:
        """Statements computing ``evaluate_bool(b)``, and/or short circuit kept."""
        src = self.src
        if b.__class__ is Comparison:
            left, right = self.emit(b.left), self.emit(b.right)
            op = b.op if b.op in ("<", "<=", ">") else ">="
            return src.assign(f"{left} {op} {right}")
        conj = b.__class__ is BoolAnd
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


class _Forward(Emitter):
    """Prints Dual1 arithmetic slot by slot: every Dual1 becomes float locals.

    A value is a pair (re, eps): the token of a float and None, or the
    tokens of a Dual1's value and of its m derivative slots.  Each slot is
    computed with the formula of the Dual1 operation the walk would call,
    guards included, so the numbers are bitwise those of ``ad.gradients``.
    Floats (trees without variables) print as ``Emitter`` prints them;
    ``emit`` and the squarings of ``ipow`` are inherited.  ``walked`` hands
    a whole tree to ``ad.gradient`` instead.
    """

    def __init__(self, source, seeded):
        super().__init__(source)
        self.plain = Emitter(source)  # for operations on floats
        index = {name: j for j, name in enumerate(seeded)}
        self.seeded, self.m = seeded, len(seeded)
        self.seeds = {
            name: tuple("1.0" if index.get(name) == j else "0.0" for j in range(self.m))
            for name in source.tokens
        }

    def _raise_if(self, test: str, message: str):
        self.src.line(f"if {test}:")
        self.src.line(f"    raise _DomainError({message!r})")

    def _scaled(self, f1, eps):
        return tuple(self.src.assign(f"{f1} * {x}") for x in eps)

    def literal(self, value):
        return self.plain.literal(value), None

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

    def divisor_guard(self, right, divisor):
        if right[1] is None:
            return self.plain.divisor_guard(right[0], divisor)
        self._raise_if(f"{right[0]} == 0.0", "division by zero")
        return True

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

    def ipow(self, base, n):
        re, eps = base
        if eps is None:
            return self.plain.ipow(re, n), None
        if n == 0:
            return self.literal(1.0)
        if n > 0:
            return super().ipow(base, n)
        self._raise_if(f"{re} == 0.0", "zero base with negative integer exponent")
        power = self.ipow(base, -n)
        self._raise_if(f"{power[0]} == 0.0", "division by zero")
        return self.div(self.literal(1.0), power)

    def pow(self, a, b):
        # reached with a literal exponent only (see _needs_objects)
        re, eps = a
        if eps is None:
            return self.plain.pow(re, b[0]), None
        put = self.src.assign
        self._raise_if(f"{re} <= 0.0", "power with non-integer exponent needs a positive base")
        log = put(f"_math.log({re})"), self._scaled(put(f"1.0 / {re}"), eps)
        arg = self.arith("*", log, b)
        v = put(f"_math.exp({arg[0]})")
        return v, self._scaled(v, arg[1])

    def fun(self, name, a):
        re, eps = a
        if eps is None:
            return self.plain.fun(name, re), None
        put = self.src.assign
        if name == "sin":
            s = put(f"_math.sin({re})")
            return s, self._scaled(put(f"_math.cos({re})"), eps)
        if name == "cos":
            c = put(f"_math.cos({re})")
            return c, self._scaled(put(f"-_math.sin({re})"), eps)
        if name == "exp":
            v = put(f"_math.exp({re})")
            return v, self._scaled(v, eps)
        if name == "log":
            self._raise_if(f"{re} <= 0.0", "log of non-positive value")
            v = put(f"_math.log({re})")
            return v, self._scaled(put(f"1.0 / {re}"), eps)
        if name == "sqrt":
            self._raise_if(f"{re} <= 0.0", "sqrt needs a positive value when differentiating")
            v = put(f"_math.sqrt({re})")
            return v, self._scaled(put(f"0.5 / {v}"), eps)
        # abs
        self._raise_if(f"{re} == 0.0", "abs is not differentiable at zero")
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


def _needs_objects(e) -> bool:
    """An exponent that is not a (negated) literal, or an unknown function:
    the walk decides.

    Whether ``x^p`` takes the integer-power rule depends on the value of p,
    and an unknown function raises what its Dual1 method lookup raises.
    """
    stack = [e]
    while stack:
        node = stack.pop()
        cls = node.__class__
        if cls is Bin:
            if node.op not in ("+", "-", "*", "/") and _literal(node.right) is None:
                return True
            stack += (node.left, node.right)
        elif cls is Fun:
            if node.name not in FUNCTIONS:
                return True
            stack.append(node.arg)
        elif cls is Neg:
            stack.append(node.arg)
    return False


def compile_gradients(exprs, names, seeded) -> Callable:
    """``ad.gradients`` as one straight-line function of the values of names.

    ``f(*values)`` returns the T values of exprs followed by their T*m
    partials with respect to the m names in seeded, tree by tree: the
    numbers ``ad.gradients(exprs, dict(zip(names, values)), seeded)`` gives,
    bitwise (signed zeros included, NaN where it gives NaN), for float
    values.  It raises what that call raises.  A tree that ``_needs_objects``
    flags is handed to ``ad.gradient`` at run time instead of being printed.
    """
    src = Source(names, {**HELPERS, "_math": math, "_gradient": gradient})
    forward = _Forward(src, tuple(seeded))
    values, partials = [], []
    for e in exprs:
        re, eps = forward.walked(e) if _needs_objects(e) else forward.emit(e)
        if eps is None:
            re, eps = f"float({re})", ("0.0",) * forward.m
        values.append(re)
        partials += eps
    return define(src, tuple_of(values + partials))
