"""The second-order forward emitter: m ``Dual2`` walks of a tree printed
as one straight-line function of floats.

``compile_second`` extends ``codegen`` (its ``Source``, ``define`` and the
``_Slots`` base of the dual emitters) with the arithmetic of ``ad.Dual2``,
slot by slot.  A connection prints its gamma through it once
(``NonlinearConnection.compiled_gamma_second``); the curvature family
reads that pass.  It is a module of its own so that a process that never
asks for a curvature never byte-compiles it: without a bytecode cache,
compiling a module's source is the largest transient allocation of an
import.
"""

from __future__ import annotations

from typing import Callable

from .ad import _second, second_partials
from . import codegen


class _Second(codegen._Slots):
    """Prints Dual2 arithmetic slot by slot for m walks at once.

    Walk j seeds the u slot of the names with e_j (the j-th name of seeded)
    and the v slot with the outer direction, whose values are parameters.
    A value is (f, fu, fv, fuv): the token of a float and three Nones, or
    the tokens of the value, of its m u slots, of its v slot and of its m
    mixed slots.  f and fv do not depend on u, so the m walks share them
    and their guards.  Each slot is computed with the formula of the Dual2
    operation the walk would call, ``ad._second`` included, so the numbers
    are bitwise those of the m walks.  ``emit``, the guards, the powers,
    abs's slot copies and the outputs are inherited (``codegen._Slots``);
    ``walked`` hands a whole tree to ``ad.second_partials`` instead.
    """

    blank = (None, None, None)

    def __init__(self, source, seeded, outer):
        super().__init__(source)
        self.seeded, self.m, self.outer = seeded, len(seeded), outer
        self.seeds = {name: tuple("1.0" if s == name else "0.0" for s in seeded) for name in source.tokens}
        self.zeros = ("0.0",) * self.m
        self.zero = (self.zeros, "0.0", self.zeros)

    def _each(self, form: str, *slots) -> tuple:
        """One local per slot: form filled with the j-th entry of each slot."""
        return tuple(self.src.assign(form.format(*row)) for row in zip(*slots))

    def variable(self, name, token):
        return token, self.seeds[name], self.outer[name], self.zeros

    def neg(self, a):
        f, fu, fv, fuv = a
        if fu is None:
            return self.plain.neg(f), *self.blank
        put = self.src.assign
        return put(f"-{f}"), self._each("-{}", fu), put(f"-{fv}"), self._each("-{}", fuv)

    def _scale(self, a, c):
        """Dual2 times the float c: every slot times c."""
        f, fu, fv, fuv = a
        c = self.src.bind(c)  # a float from the nesting float emitter
        put = self.src.assign
        return put(f"{f} * {c}"), self._each(f"{{}} * {c}", fu), put(f"{fv} * {c}"), self._each(f"{{}} * {c}", fuv)

    def arith(self, op, a, b):
        (f, fu, fv, fuv), (g, gu, gv, guv) = a, b
        if fu is None and gu is None:
            return self.plain.arith(op, f, g), *self.blank
        put = self.src.assign
        if op == "*":
            if gu is None:
                return self._scale(a, g)
            if fu is None:  # float * Dual2 is Dual2.__rmul__
                return self._scale(b, f)
            return (
                put(f"{f} * {g}"),
                self._each(f"{f} * {{}} + {{}} * {g}", gu, fu),
                put(f"{f} * {gv} + {fv} * {g}"),
                self._each(f"({f} * {{}} + {{}} * {g}) + ({{}} * {gv} + {fv} * {{}})", guv, fuv, fu, gu),
            )
        if gu is None:  # Dual2 -+ float: the float meets the value slot
            return put(f"{f} {op} {g}"), fu, fv, fuv
        if fu is None:
            if op == "+":  # float + Dual2 is Dual2.__radd__
                return put(f"{g} + {f}"), gu, gv, guv
            return put(f"{f} - {g}"), self._each("-{}", gu), put(f"-{gv}"), self._each("-{}", guv)
        form = f"{{}} {op} {{}}"
        return put(f"{f} {op} {g}"), self._each(form, fu, gu), put(f"{fv} {op} {gv}"), self._each(form, fuv, guv)

    def _chain(self, a, f0, f1, f2):
        """``Dual2._chain``: slots (f0, f1*fu, f1*fv, f1*fuv + f2*(fu*fv))."""
        _, fu, fv, fuv = a
        return (
            f0,
            self._each(f"{f1} * {{}}", fu),
            self.src.assign(f"{f1} * {fv}"),
            self._each(f"{f1} * {{}} + {f2} * ({{}} * {fv})", fuv, fu),
        )

    def _inverse(self, b):
        """``Dual2._inverse`` of b, whose guard is already printed."""
        f = b[0]
        put = self.src.assign
        return self._chain(b, put(f"1.0 / {f}"), put(f"_second(-1.0, {f}, 2)"), put(f"_second(2.0, {f}, 3)"))

    def div(self, a, b):
        if b[1] is None:
            if a[1] is None:
                return self.plain.div(a[0], b[0]), *self.blank
            # Dual2 / float multiplies by the reciprocal
            return self._scale(a, self.src.assign(f"1.0 / {b[0]}"))
        inv = self._inverse(b)
        if a[1] is None:  # Dual2.__rtruediv__: the inverse times the float
            return self._scale(inv, a[0])
        return self.arith("*", a, inv)

    def fun(self, name, a):
        f = a[0]
        if a[1] is None:
            return self.plain.fun(name, f), *self.blank
        put, call = self.src.assign, self._call
        if name in ("sin", "cos"):
            s, c = call(f"_math.sin({f})"), call(f"_math.cos({f})")
            if name == "sin":
                return self._chain(a, s, c, put(f"-{s}"))
            return self._chain(a, c, put(f"-{s}"), put(f"-{c}"))
        if name == "exp":
            v = call(f"_math.exp({f})")
            return self._chain(a, v, v, v)
        if name == "log":
            self._raise_if(f"{f} <= 0.0", "log of non-positive value")
            return self._chain(a, call(f"_math.log({f})"), put(f"1.0 / {f}"), put(f"_second(-1.0, {f}, 2)"))
        if name == "sqrt":
            self._raise_if(f"{f} <= 0.0", "sqrt needs a positive value when differentiating")
            v = call(f"_math.sqrt({f})")
            return self._chain(a, v, put(f"0.5 / {v}"), put(f"_second(-0.25, {v} * {f}, 1)"))
        out = self._signed(f, (*a[1], a[2], *a[3]))
        m = self.m
        return out[0], tuple(out[1 : m + 1]), out[m + 1], tuple(out[m + 2 :])

    def walked(self, e):
        """The tree walked over Dual2 objects by ``ad.second_partials``."""
        tokens = self.src.tokens
        point, outer = self._env(tokens), self._env({name: self.outer[name] for name in tokens})
        r = self.src.assign(f"_second_partials({self.src.const(e)}, {point}, {outer}, {self.src.const(self.seeded)})")
        m = range(self.m)
        return f"{r}[0]", tuple(f"{r}[1][{j}]" for j in m), f"{r}[2]", tuple(f"{r}[3][{j}]" for j in m)


def compile_second(exprs, names, seeded) -> Callable:
    """m ``Dual2`` walks of every tree as one straight-line function: the
    second-order forward pass.

    ``f(*values, *direction)`` takes the float values of names and an outer
    direction v, one float per name.  Walk j evaluates each tree over the
    env ``{name: Dual2(value, u_j[name], v[name], 0.0)}``, where u_j is 1.0
    at the j-th of the m names in seeded and 0.0 elsewhere.  f returns the
    T values (the f slots) of exprs, then their T*m u slots (the partials),
    then their T v slots (the derivatives along v), then their T*m mixed
    slots (the derivatives along v of the partials), tree by tree, bitwise
    what the walks give (signed zeros included, NaN where they give NaN);
    a float result has zero slots (``codegen._Slots.output``).  It raises
    what the first walk raises.  A tree that ``expr._walk_decides`` flags
    is handed to ``ad.second_partials`` at run time instead of being
    printed.
    """
    src = codegen.Source(names, {**codegen.HELPERS, "_second": _second, "_second_partials": second_partials})
    outer = [f"_v{i}" for i in range(len(names))]
    src.params += outer
    emitter = _Second(src, tuple(seeded), dict(zip(names, outer)))
    f, fu, fv, fuv = [], [], [], []
    for e in exprs:
        value = emitter.output(e)
        f.append(value[0])
        fu += value[1]
        fv.append(value[2])
        fuv += value[3]
    return codegen.define(src, codegen.tuple_of(f + fu + fv + fuv))
