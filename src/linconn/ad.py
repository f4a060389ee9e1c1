"""Forward-mode automatic differentiation scalars.

Dual1 carries a value plus an m-vector of directional derivatives and gives
exact first derivatives in up to m directions per evaluation.  Dual2 carries
a value, two first directional derivatives and the mixed second derivative,
which is what the curvature formulas need: an outer derivative of quantities
that already contain one derivative of the connection coefficients.
DualBatch holds N lanes of Dual1 as arrays, so that one evaluation of a tree
serves N points (the curve and the transport coefficients at every RK4 knot,
each lane seeded in at least one direction).

Dual1 and Dual2 arithmetic builds its results with the private constructors
``_dual1`` and ``_dual2``, which store their arguments without ``float()``.
A real operand (int, bool, float or a numpy float scalar) is converted with
``float()`` first, which rounds it as the arithmetic would, so every slot is
a Python float.

The env helpers at the bottom make geometric formulas generic over "plain
point" and "point moving in one outer direction": an env whose values are
floats yields floats, an env lifted with :func:`lift_env` yields Dual1
scalars whose eps slot is the outer derivative.  Derivatives requested
through :func:`partial_in` on a lifted env are computed with Dual2, never by
differencing derivative output.
"""

from __future__ import annotations

import math

import numpy as np

from . import expr
from .expr import DomainError


_new = object.__new__


class Dual1:
    """re + sum_j eps[j]*e_j with e_i*e_j = 0; exact Leibniz arithmetic."""

    __slots__ = ("re", "eps")

    def __init__(self, re: float, eps=()):
        self.re = float(re)
        self.eps = tuple(float(e) for e in eps)

    def __repr__(self):
        return f"Dual1({self.re!r}, {self.eps!r})"

    def real_part(self) -> float:
        return self.re

    def is_constant(self) -> bool:
        return all(e == 0.0 for e in self.eps)

    def _zip(self, other: "Dual1"):
        if len(self.eps) != len(other.eps):
            raise ValueError("seed vectors of different lengths")
        return zip(self.eps, other.eps)

    def __add__(self, other):
        if isinstance(other, Dual1):
            return _dual1(self.re + other.re, tuple([a + b for a, b in self._zip(other)]))
        if isinstance(other, (int, float)):
            return _dual1(self.re + float(other), self.eps)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual1):
            return _dual1(self.re - other.re, tuple([a - b for a, b in self._zip(other)]))
        if isinstance(other, (int, float)):
            return _dual1(self.re - float(other), self.eps)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, float)):
            return _dual1(float(other) - self.re, tuple([-a for a in self.eps]))
        return NotImplemented

    def __neg__(self):
        return _dual1(-self.re, tuple([-a for a in self.eps]))

    def __mul__(self, other):
        if isinstance(other, Dual1):
            re, ore = self.re, other.re
            return _dual1(re * ore, tuple([re * b + a * ore for a, b in self._zip(other)]))
        if isinstance(other, (int, float)):
            other = float(other)
            return _dual1(self.re * other, tuple([a * other for a in self.eps]))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual1):
            ore = other.re
            if ore == 0.0:
                raise DomainError("division by zero")
            q = self.re / ore
            return _dual1(q, tuple([(a - q * b) / ore for a, b in self._zip(other)]))
        if isinstance(other, (int, float)):
            other = float(other)
            if other == 0.0:
                raise DomainError("division by zero")
            return _dual1(self.re / other, tuple([a / other for a in self.eps]))
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, float)):
            re = self.re
            if re == 0.0:
                raise DomainError("division by zero")
            q = float(other) / re
            return _dual1(q, tuple([-q * a / re for a in self.eps]))
        return NotImplemented

    def _chain(self, f0: float, f1: float) -> "Dual1":
        # every caller passes floats
        return _dual1(f0, tuple([f1 * a for a in self.eps]))

    def sin(self):
        return self._chain(math.sin(self.re), math.cos(self.re))

    def cos(self):
        return self._chain(math.cos(self.re), -math.sin(self.re))

    def exp(self):
        v = math.exp(self.re)
        return self._chain(v, v)

    def log(self):
        if self.re <= 0.0:
            raise DomainError("log of non-positive value")
        return self._chain(math.log(self.re), 1.0 / self.re)

    def sqrt(self):
        if self.re <= 0.0:
            raise DomainError("sqrt needs a positive value when differentiating")
        v = math.sqrt(self.re)
        return self._chain(v, 0.5 / v)

    def abs(self):
        if self.re == 0.0:
            raise DomainError("abs is not differentiable at zero")
        return self if self.re > 0.0 else -self


def _dual1(re: float, eps: tuple) -> Dual1:
    """Dual1 from a float and a tuple of floats, stored without conversion."""
    d = _new(Dual1)
    d.re = re
    d.eps = eps
    return d


_EXP_MAX = 709.782712893384  # largest x whose math.exp(x) is finite


class DualBatch:
    """N lanes of Dual1 at once: ``re`` of shape (N,), ``eps`` of shape (m, N).

    Lane j follows ``Dual1(re[j], eps[:, j])`` operation for operation, so
    + - * / and integer powers agree with it bitwise, and a guard raises the
    scalar's exception when any lane offends.  The transport knot table is
    its one user, with m >= 1 seed directions.  The vectorized forward mode
    of Revels, Lubin and Papamarkou (arXiv:1607.07892).
    """

    __slots__ = ("re", "eps")
    __array_ufunc__ = None  # numpy hands mixed arithmetic back to these methods

    def __init__(self, re, eps):
        self.re = re
        self.eps = eps

    def __repr__(self):
        return f"DualBatch({self.re!r}, {self.eps!r})"

    def real_part(self):
        return self.re

    def is_constant(self) -> bool:
        """No derivative and one value in every lane (a constant exponent)."""
        return not self.eps.any() and bool((self.re == self.re[0]).all())

    def __add__(self, other):
        if isinstance(other, DualBatch):
            return DualBatch(self.re + other.re, self.eps + other.eps)
        if isinstance(other, (int, float)):
            return DualBatch(self.re + other, self.eps)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, DualBatch):
            return DualBatch(self.re - other.re, self.eps - other.eps)
        if isinstance(other, (int, float)):
            return DualBatch(self.re - other, self.eps)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, float)):
            return DualBatch(other - self.re, -self.eps)
        return NotImplemented

    def __neg__(self):
        return DualBatch(-self.re, -self.eps)

    def __mul__(self, other):
        if isinstance(other, DualBatch):
            return DualBatch(
                self.re * other.re, self.re * other.eps + self.eps * other.re
            )
        if isinstance(other, (int, float)):
            return DualBatch(self.re * other, self.eps * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, DualBatch):
            if (other.re == 0.0).any():
                raise DomainError("division by zero")
            q = self.re / other.re
            return DualBatch(q, (self.eps - q * other.eps) / other.re)
        if isinstance(other, (int, float)):
            if other == 0.0:
                raise DomainError("division by zero")
            return DualBatch(self.re / other, self.eps / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, float)):
            if (self.re == 0.0).any():
                raise DomainError("division by zero")
            q = other / self.re
            return DualBatch(q, -q * self.eps / self.re)
        return NotImplemented

    def _chain(self, f0, f1) -> "DualBatch":
        return DualBatch(f0, f1 * self.eps)

    def _reject_inf(self):
        if np.isinf(self.re).any():
            raise ValueError("math domain error")  # as math.sin(inf)

    def sin(self):
        self._reject_inf()
        return self._chain(np.sin(self.re), np.cos(self.re))

    def cos(self):
        self._reject_inf()
        return self._chain(np.cos(self.re), -np.sin(self.re))

    def exp(self):
        big = self.re > _EXP_MAX
        if big.any() and (big & (self.re < math.inf)).any():
            raise OverflowError("math range error")  # as math.exp
        v = np.exp(self.re)
        return self._chain(v, v)

    def log(self):
        if (self.re <= 0.0).any():
            raise DomainError("log of non-positive value")
        return self._chain(np.log(self.re), 1.0 / self.re)

    def sqrt(self):
        if (self.re <= 0.0).any():
            raise DomainError("sqrt needs a positive value when differentiating")
        v = np.sqrt(self.re)
        return self._chain(v, 0.5 / v)

    def abs(self):
        if (self.re == 0.0).any():
            raise DomainError("abs is not differentiable at zero")
        up = self.re > 0.0
        return DualBatch(np.where(up, self.re, -self.re), np.where(up, self.eps, -self.eps))


def lanes(v, like: DualBatch) -> DualBatch:
    """An evaluation result as a batch shaped like ``like`` (constants broadcast)."""
    if isinstance(v, DualBatch):
        return v
    return DualBatch(np.full(like.re.shape, float(v)), np.zeros(like.eps.shape))


def _second(num: float, f: float, power: int) -> float:
    """num / f**power for a second-derivative coefficient of Dual2.

    When f**power overflows, the coefficient only underflows toward 0 and
    is num divided by f, power times.  When f**power underflows to 0, the
    coefficient overflows: raise OverflowError.
    """
    try:
        den = f**power
    except OverflowError:
        for _ in range(power):
            num = num / f
        return num
    if den == 0.0:
        raise OverflowError("second derivative overflows")
    return num / den


class Dual2:
    """Value, two first directional derivatives, one mixed second derivative.

    Algebra of f + fu*e1 + fv*e2 + fuv*e1*e2 with e1^2 = e2^2 = 0; on
    polynomials fuv equals the analytic mixed partial exactly up to rounding.
    """

    __slots__ = ("f", "fu", "fv", "fuv")

    def __init__(self, f, fu=0.0, fv=0.0, fuv=0.0):
        self.f = float(f)
        self.fu = float(fu)
        self.fv = float(fv)
        self.fuv = float(fuv)

    def __repr__(self):
        return f"Dual2({self.f!r}, {self.fu!r}, {self.fv!r}, {self.fuv!r})"

    def real_part(self) -> float:
        return self.f

    def is_constant(self) -> bool:
        return self.fu == 0.0 and self.fv == 0.0 and self.fuv == 0.0

    def __add__(self, other):
        if isinstance(other, Dual2):
            return _dual2(
                self.f + other.f,
                self.fu + other.fu,
                self.fv + other.fv,
                self.fuv + other.fuv,
            )
        if isinstance(other, (int, float)):
            return _dual2(self.f + float(other), self.fu, self.fv, self.fuv)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual2):
            return _dual2(
                self.f - other.f,
                self.fu - other.fu,
                self.fv - other.fv,
                self.fuv - other.fuv,
            )
        if isinstance(other, (int, float)):
            return _dual2(self.f - float(other), self.fu, self.fv, self.fuv)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, float)):
            return _dual2(float(other) - self.f, -self.fu, -self.fv, -self.fuv)
        return NotImplemented

    def __neg__(self):
        return _dual2(-self.f, -self.fu, -self.fv, -self.fuv)

    def __mul__(self, other):
        if isinstance(other, Dual2):
            f, fu, fv, fuv = self.f, self.fu, self.fv, self.fuv
            g, gu, gv, guv = other.f, other.fu, other.fv, other.fuv
            # grouped so that swapping the u and v slots is bitwise symmetric
            return _dual2(
                f * g,
                f * gu + fu * g,
                f * gv + fv * g,
                (f * guv + fuv * g) + (fu * gv + fv * gu),
            )
        if isinstance(other, (int, float)):
            other = float(other)
            return _dual2(self.f * other, self.fu * other, self.fv * other, self.fuv * other)
        return NotImplemented

    __rmul__ = __mul__

    def _inverse(self) -> "Dual2":
        if self.f == 0.0:
            raise DomainError("division by zero")
        return self._chain(1.0 / self.f, _second(-1.0, self.f, 2), _second(2.0, self.f, 3))

    def __truediv__(self, other):
        if isinstance(other, Dual2):
            return self * other._inverse()
        if isinstance(other, (int, float)):
            if other == 0.0:
                raise DomainError("division by zero")
            return self * (1.0 / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, float)):
            return self._inverse() * other
        return NotImplemented

    def _chain(self, f0: float, f1: float, f2: float) -> "Dual2":
        """Lift a smooth univariate map with derivatives f1, f2 at the value.

        Every caller passes floats.  The second-order term multiplies fu*fv
        first so that exchanging the two seed slots is bitwise symmetric.
        """
        fu, fv = self.fu, self.fv
        return _dual2(f0, f1 * fu, f1 * fv, f1 * self.fuv + f2 * (fu * fv))

    def sin(self):
        s, c = math.sin(self.f), math.cos(self.f)
        return self._chain(s, c, -s)

    def cos(self):
        s, c = math.sin(self.f), math.cos(self.f)
        return self._chain(c, -s, -c)

    def exp(self):
        v = math.exp(self.f)
        return self._chain(v, v, v)

    def log(self):
        if self.f <= 0.0:
            raise DomainError("log of non-positive value")
        return self._chain(math.log(self.f), 1.0 / self.f, _second(-1.0, self.f, 2))

    def sqrt(self):
        if self.f <= 0.0:
            raise DomainError("sqrt needs a positive value when differentiating")
        v = math.sqrt(self.f)
        return self._chain(v, 0.5 / v, _second(-0.25, v * self.f, 1))

    def abs(self):
        if self.f == 0.0:
            raise DomainError("abs is not differentiable at zero")
        return self if self.f > 0.0 else -self


def _dual2(f: float, fu: float, fv: float, fuv: float) -> Dual2:
    """Dual2 from four floats, stored without conversion."""
    d = _new(Dual2)
    d.f = f
    d.fu = fu
    d.fv = fv
    d.fuv = fuv
    return d


# ---------------------------------------------------------------------------
# Derivatives of expressions at a point


def directional(e, point, seeds):
    """Value and derivative of e at point in the direction given by seeds."""
    r = expr.evaluate(e, lift_env(point, seeds))
    if isinstance(r, Dual1):
        return r.re, r.eps[0]
    return float(r), 0.0


def mixed_second(e, point, seed_u, seed_v) -> float:
    """d^2/ds dt of e at point + s*seed_u + t*seed_v, at s = t = 0."""
    env = {
        name: Dual2(v, seed_u.get(name, 0.0), seed_v.get(name, 0.0))
        for name, v in point.items()
    }
    r = expr.evaluate(e, env)
    return r.fuv if isinstance(r, Dual2) else 0.0


def gradients(exprs, point, names):
    """Value of each expression and its partials with respect to names.

    The env is seeded once and serves every expression.  Coordinates not in
    names are zero-eps Dual1s, not floats: a float there can flip the sign
    of a zero derivative.  Returns one (value, partials) pair per expression.
    """
    m = len(names)
    index = {name: j for j, name in enumerate(names)}
    unseeded = (0.0,) * m
    env = {}
    for name, v in point.items():
        j = index.get(name)
        if j is None:
            env[name] = Dual1(v, unseeded)
        else:
            eps = [0.0] * m
            eps[j] = 1.0
            env[name] = Dual1(v, eps)
    out = []
    for e in exprs:
        r = expr.evaluate(e, env)
        if isinstance(r, Dual1):
            out.append((r.re, list(r.eps)))
        else:
            out.append((float(r), [0.0] * m))
    return out


def gradient(e, point, names):
    """Value of e and its partials with respect to names, in one pass."""
    return gradients((e,), point, names)[0]


# ---------------------------------------------------------------------------
# Generic point-or-lifted-point calculus


def real_part(s) -> float:
    if isinstance(s, (int, float)):
        return float(s)
    return s.real_part()


def dual_part(s) -> float:
    """Outer-direction derivative slot of a lifted scalar (0 for constants)."""
    if isinstance(s, Dual1):
        return s.eps[0]
    if isinstance(s, (int, float)):
        return 0.0
    raise TypeError(f"not a lifted scalar: {s!r}")


def lift_env(point, direction):
    """Env whose scalars move with unit speed in the given direction."""
    return {
        name: Dual1(v, (direction.get(name, 0.0),)) for name, v in point.items()
    }


def is_lifted(env) -> bool:
    return any(isinstance(v, Dual1) for v in env.values())


def partial_in(e, env, seed):
    """Directional derivative of e at env for a float direction ``seed``.

    On a plain env the result is a float.  On a lifted env the result is a
    Dual1 carrying the derivative and its outer-direction derivative, via a
    single Dual2 evaluation (inner seed u, outer direction v).
    """
    if not is_lifted(env):
        return directional(e, env, seed)[1]
    env2 = {}
    for name, v in env.items():
        outer = v.eps[0] if isinstance(v, Dual1) else 0.0
        env2[name] = Dual2(real_part(v), seed.get(name, 0.0), outer)
    r = expr.evaluate(e, env2)
    if isinstance(r, Dual2):
        return Dual1(r.fu, (r.fuv,))
    return 0.0


def partials_in(e, env, names):
    """Partial derivatives of e with respect to each coordinate in names."""
    if not is_lifted(env):
        point = {name: real_part(v) for name, v in env.items()}
        _, grad = gradient(e, point, names)
        return grad
    return [partial_in(e, env, {name: 1.0}) for name in names]
