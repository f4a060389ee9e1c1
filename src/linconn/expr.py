"""Arithmetic expression trees over chart coordinates.

Expressions are written in a small infix language over the positional
variables x1..xn (base), y1..yk (fiber), z1..zk (second fiber leg) and t
(curve parameter).  The same tree evaluates over plain floats or over the
dual-number scalars from :mod:`linconn.ad`; evaluation dispatches on the
scalar type, so derivative information propagates through the identical
traversal that produces plain values.

``parse`` reads at most ``MAX_DEPTH`` levels of nesting; a deeper text is a
``ParseError`` at the operator or bracket that passes the bound.

``evaluate`` is the definition; :mod:`linconn.codegen` compiles a tree that
is evaluated many times into a function of floats that returns and raises
what the walk does.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Mapping

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "abs")

_VAR_RE = re.compile(r"t|[xyz][1-9][0-9]*")
_NUM_RE = re.compile(r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")

# The deepest expression the parser reads: a number or variable has depth 1,
# an operator, function call or pair of parentheses one more than the
# deepest operand it encloses.  The parser recurses up to six frames per
# parenthesis and every walk of a tree (evaluating, printing, compiling) one
# per level, so the bound keeps them well inside Python's default limit of 1000.
MAX_DEPTH = 100


class ParseError(ValueError):
    """Malformed expression text; ``offset`` is 1-based into the input."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnboundVariableError(KeyError):
    def __init__(self, name: str):
        super().__init__(name)
        self.name = name

    def __str__(self):
        return f"unbound variable {self.name!r}"


class DomainError(ArithmeticError):
    """Evaluation left the domain where the operation is defined."""


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Lit:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Fun:
    name: str  # member of FUNCTIONS
    arg: "Expr"


Expr = Lit | Var | Neg | Bin | Fun


def lit(value: float) -> Lit:
    return Lit(float(value))


def var(name: str) -> Var:
    if not _VAR_RE.fullmatch(name):
        raise ValueError(f"bad variable name {name!r}")
    return Var(name)


def add(a: Expr, b: Expr) -> Bin:
    return Bin("+", a, b)


def mul(a: Expr, b: Expr) -> Bin:
    return Bin("*", a, b)


def neg(a: Expr) -> Neg:
    return Neg(a)


def variables(e: Expr) -> frozenset[str]:
    """All variable names referenced by the tree."""
    out: set[str] = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out.add(node.name)
        elif isinstance(node, Neg):
            stack.append(node.arg)
        elif isinstance(node, Bin):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, Fun):
            stack.append(node.arg)
    return frozenset(out)


def _name_key(name: str):
    head = name.rstrip("0123456789")
    return head, int(name[len(head) :]) if len(head) < len(name) else -1


def name_ranges(names) -> str:
    """The names as one short list, by letter and then index: a run of three
    or more consecutive indices of one letter reads as its ends, so
    x1..x200 and y1 give ``x1..x200, y1``."""
    runs = []  # [head, first index, last index]; -1 for a name without one
    for head, index in sorted(map(_name_key, names)):
        if runs and runs[-1][0] == head and index >= 0 and runs[-1][2] == index - 1:
            runs[-1][2] = index
        else:
            runs.append([head, index, index])
    parts = []
    for head, first, last in runs:
        if first < 0:
            parts.append(head)
        elif last - first >= 2:
            parts.append(f"{head}{first}..{head}{last}")
        else:
            parts += [f"{head}{i}" for i in range(first, last + 1)]
    return ", ".join(parts)


# ---------------------------------------------------------------------------
# Tokenizer

_TWO_CHAR = ("<=", ">=")
_ONE_CHAR = "+-*/^()<>"


def _tokenize(text: str):
    """Yield (kind, value, offset) with 1-based offsets; kinds: num ident op end."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        m = _NUM_RE.match(text, i)
        if m:
            tokens.append(("num", m.group(), i + 1))
            i = m.end()
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i + 1))
            i = j
            continue
        if text[i : i + 2] in _TWO_CHAR:
            tokens.append(("op", text[i : i + 2], i + 1))
            i += 2
            continue
        if c in _ONE_CHAR:
            tokens.append(("op", c, i + 1))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i + 1)
    tokens.append(("end", "", n + 1))
    return tokens


class _Parser:
    """Recursive descent over the tokens; each rule returns its node and the
    node's depth (``MAX_DEPTH``)."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.open = 0  # levels the rules being parsed have opened

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value, offset = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", offset)
        return self.advance()

    def level(self, depth: int, offset: int) -> int:
        """depth, or a ParseError at offset when it passes ``MAX_DEPTH``."""
        if depth > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", offset)
        return depth

    def nested(self, rule, offset: int):
        """rule() one level below the operator or bracket at offset; the rules
        recurse once per level, so the bound is tested on the way down too."""
        self.open += 1
        self.level(self.open + 1, offset)
        out = rule()
        self.open -= 1
        return out

    # expr := term (('+'|'-') term)*
    def expr(self):
        node, depth = self.term()
        while True:
            kind, value, offset = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                right, rdepth = self.term()
                node, depth = Bin(value, node, right), self.level(max(depth, rdepth) + 1, offset)
            else:
                return node, depth

    # term := unary (('*'|'/') unary)*
    def term(self):
        node, depth = self.unary()
        while True:
            kind, value, offset = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                right, rdepth = self.unary()
                node, depth = Bin(value, node, right), self.level(max(depth, rdepth) + 1, offset)
            else:
                return node, depth

    # unary := '-' unary | power        (so -x^2 means -(x^2))
    def unary(self):
        kind, value, offset = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            arg, depth = self.nested(self.unary, offset)
            return Neg(arg), self.level(depth + 1, offset)
        return self.power()

    # power := atom ('^' unary)?        (right associative)
    def power(self):
        node, depth = self.atom()
        kind, value, offset = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            right, rdepth = self.nested(self.unary, offset)
            return Bin("^", node, right), self.level(max(depth, rdepth) + 1, offset)
        return node, depth

    # atom := number | variable | function '(' expr ')' | '(' expr ')'
    def atom(self):
        kind, value, offset = self.advance()
        if kind == "num":
            number = float(value)
            if not math.isfinite(number):
                raise ParseError(f"number {value!r} does not fit in a float", offset)
            return Lit(number), 1
        if kind == "ident":
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "(":
                if value not in FUNCTIONS:
                    raise ParseError(f"unknown function {value!r}", offset)
                self.advance()
                arg, depth = self.nested(self.expr, offset)
                self.expect_op(")")
                return Fun(value, arg), self.level(depth + 1, offset)
            if not _VAR_RE.fullmatch(value):
                raise ParseError(f"bad variable name {value!r}", offset)
            return Var(value), 1
        if kind == "op" and value == "(":
            node, depth = self.nested(self.expr, offset)
            self.expect_op(")")
            return node, self.level(depth + 1, offset)
        raise ParseError("expected a value", offset)


def parse(text: str) -> Expr:
    p = _Parser(text)
    node, _ = p.expr()
    kind, value, offset = p.peek()
    if kind != "end":
        raise ParseError(f"trailing input {value!r}", offset)
    return node


# ---------------------------------------------------------------------------
# Evaluation

Env = Mapping[str, object]


def _real(v):
    """Underlying float value of a scalar (value part for duals)."""
    if isinstance(v, (int, float)):
        return float(v)
    return v.real_part()


def _as_const_int(v):
    """Return the exponent as an int when it is an exact constant integer."""
    if isinstance(v, (int, float)):
        f = float(v)
    elif getattr(v, "is_constant", lambda: False)():
        f = v.real_part()
    else:
        return None
    if math.isfinite(f) and f == int(f) and abs(f) <= 2**31:
        return int(f)
    return None


def _ipow(base, n: int):
    """base**n for integer n by squaring; exact Leibniz products for duals."""
    if n == 0:
        return 1.0
    if n < 0:
        if _real(base) == 0.0:
            raise DomainError("zero base with negative integer exponent")
        power = _ipow(base, -n)
        # a float power can underflow to 0; dual powers guard the division
        if isinstance(power, (int, float)) and power == 0.0:
            raise DomainError("negative integer power of a base too close to zero")
        return 1.0 / power
    acc = None
    sq = base
    while True:
        if n & 1:
            acc = sq if acc is None else acc * sq
        n >>= 1
        if not n:
            return acc
        sq = sq * sq  # only while a higher bit needs it


def _pow(b, p):
    n = _as_const_int(p)
    if n is not None:
        return _ipow(b, n)
    if _real(b) <= 0.0:
        raise DomainError("power with non-integer exponent needs a positive base")
    return _exp(p * _log(b))


def _literal(e):
    """The value of a literal or of a negated literal, else None.

    The parser reads ``y1^-2`` as ``y1^(-(2))``; the walk negates the
    literal exactly, so compiled code can print the negation as a literal.
    """
    if e.__class__ is Lit:
        return e.value
    if e.__class__ is Neg and e.arg.__class__ is Lit:
        return -e.arg.value
    return None


def _walk_decides(e) -> bool:
    """An exponent that is not a (negated) literal, or an unknown function:
    whether ``x^p`` is an integer power depends on p's value, and an unknown
    function raises what the scalar's method lookup raises, so only the walk
    at a point decides (compiled code defers to it).
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


def _apply_real(name: str, x: float) -> float:
    if name == "sin":
        return math.sin(x)
    if name == "cos":
        return math.cos(x)
    if name == "exp":
        return math.exp(x)
    if name == "log":
        if x <= 0.0:
            raise DomainError("log of non-positive value")
        return math.log(x)
    if name == "sqrt":
        if x < 0.0:
            raise DomainError("sqrt of negative value")
        return math.sqrt(x)
    if name == "abs":
        return abs(x)
    raise ValueError(f"unknown function {name!r}")


def _exp(v):
    if isinstance(v, (int, float)):
        return math.exp(float(v))
    return v.exp()


def _log(v):
    if isinstance(v, (int, float)):
        return _apply_real("log", float(v))
    return v.log()


def evaluate(e: Expr, env: Env):
    """Evaluate the tree in env; the scalar type of env entries carries through.

    Nodes are told apart by exact class, most frequent first.
    """
    cls = e.__class__
    if cls is Bin:
        left = evaluate(e.left, env)
        right = evaluate(e.right, env)
        op = e.op
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            # dual divisors guard themselves
            if isinstance(right, (int, float)) and right == 0.0:
                raise DomainError("division by zero")
            return left / right
        return _pow(left, right)
    if cls is Var:
        try:
            return env[e.name]
        except KeyError:
            raise UnboundVariableError(e.name) from None
    if cls is Lit:
        return e.value
    if cls is Neg:
        return -evaluate(e.arg, env)
    v = evaluate(e.arg, env)  # Fun
    if isinstance(v, (int, float)):
        return _apply_real(e.name, float(v))
    return getattr(v, e.name)()


# ---------------------------------------------------------------------------
# Printing (round trip: parse(to_str(parse(s))) == parse(s), and parse(to_str(e))
# evaluates bitwise as e)

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def _node_prec(e: Expr) -> int:
    if isinstance(e, Bin):
        return _PREC[e.op]
    if isinstance(e, Neg):
        return 3
    if isinstance(e, Lit) and math.copysign(1.0, e.value) < 0:
        return 3  # printed with a leading minus, read back as Neg, -0.0 too
    return 5


def to_str(e: Expr) -> str:
    if isinstance(e, Lit):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        inner = to_str(e.arg)
        if _node_prec(e.arg) < 3:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, Fun):
        return f"{e.name}({to_str(e.arg)})"
    lp, rp = _node_prec(e.left), _node_prec(e.right)
    mine = _PREC[e.op]
    ls, rs = to_str(e.left), to_str(e.right)
    if e.op == "^":
        # left operand of ^ must be atomic; right side binds like a unary
        if lp < 5:
            ls = f"({ls})"
        if rp < 3:
            rs = f"({rs})"
    else:
        if lp < mine:
            ls = f"({ls})"
        # parse nests equal precedence to the left: parenthesize a right
        # side of equal precedence, so that + and * are not reassociated
        if rp <= mine:
            rs = f"({rs})"
    return f"{ls} {e.op} {rs}" if e.op in "+-" else f"{ls}{e.op}{rs}"


# ---------------------------------------------------------------------------
# Boolean domain predicates: comparisons of expressions joined by and/or


@dataclass(frozen=True)
class Comparison:
    op: str  # < <= > >=
    left: Expr
    right: Expr


@dataclass(frozen=True)
class BoolAnd:
    terms: tuple


@dataclass(frozen=True)
class BoolOr:
    terms: tuple


BoolExpr = Comparison | BoolAnd | BoolOr

_CMP_OPS = ("<", "<=", ">", ">=")


def parse_bool(text: str) -> BoolExpr:
    """Parse ``cmp (and cmp)* (or ...)*`` with and binding tighter than or."""
    p = _Parser(text)

    def comparison() -> Comparison:
        left, _ = p.expr()
        kind, value, offset = p.advance()
        if kind != "op" or value not in _CMP_OPS:
            raise ParseError("expected a comparison operator", offset)
        right, _ = p.expr()
        return Comparison(value, left, right)

    def conjunction() -> BoolExpr:
        terms = [comparison()]
        while p.peek()[:2] == ("ident", "and"):
            p.advance()
            terms.append(comparison())
        return terms[0] if len(terms) == 1 else BoolAnd(tuple(terms))

    terms = [conjunction()]
    while p.peek()[:2] == ("ident", "or"):
        p.advance()
        terms.append(conjunction())
    node = terms[0] if len(terms) == 1 else BoolOr(tuple(terms))
    kind, value, offset = p.peek()
    if kind != "end":
        raise ParseError(f"trailing input {value!r}", offset)
    return node


def evaluate_bool(b: BoolExpr, env: Env) -> bool:
    """Truth of the predicate at the point env; and/or stop at the first
    term that settles the result, so a later term may be undefined there."""
    if isinstance(b, Comparison):
        left = _real(evaluate(b.left, env))
        right = _real(evaluate(b.right, env))
        if b.op == "<":
            return left < right
        if b.op == "<=":
            return left <= right
        if b.op == ">":
            return left > right
        return left >= right
    if isinstance(b, BoolAnd):
        return all(evaluate_bool(t, env) for t in b.terms)
    return any(evaluate_bool(t, env) for t in b.terms)


def bool_variables(b: BoolExpr) -> frozenset[str]:
    if isinstance(b, Comparison):
        return variables(b.left) | variables(b.right)
    out: frozenset[str] = frozenset()
    for t in b.terms:
        out |= bool_variables(t)
    return out

