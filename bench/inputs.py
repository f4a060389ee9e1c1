"""Seeded inputs owned by the benchmark.

Every point, curve, field, section and per-operation seed comes from here,
drawn with numpy's Generator from the run's ``--seed`` and formatted as
linconn expression text, which the workloads parse before any timing
starts.  linconn's own sampling module and the private helpers in
``linconn.checks`` are deliberately not used, so a change to what they
draw cannot change the benchmark's inputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from models import Model

BOX = 1.5  # coordinates of points and vectors are drawn from [-BOX, BOX]


def round_rng(workload: str, seed: int, round_index: int) -> np.random.Generator:
    """Independent stream for one round of one workload."""
    digest = hashlib.sha256(f"{workload}:{seed}:{round_index}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def num(c: float) -> str:
    """Three-decimal literal, as every generated coefficient is rounded."""
    return repr(round(float(c), 3))


@dataclass(frozen=True)
class Poly:
    """Polynomial as (coefficient, variable names) terms; text and value."""

    terms: tuple

    def text(self) -> str:
        out = []
        for coef, names in self.terms:
            mag = num(abs(coef))
            body = "*".join((mag,) + names) if names else mag
            if not out:
                out.append(("-" if coef < 0 else "") + body)
            else:
                out.append(("- " if coef < 0 else "+ ") + body)
        return " ".join(out) if out else "0.0"

    def __call__(self, env: dict) -> float:
        total = 0.0
        for coef, names in self.terms:
            term = coef
            for name in names:
                term *= env[name]
            total += term
        return total


def poly(rng, names, scale: float = 1.0, quadratic: int = 2) -> Poly:
    """Constant + linear terms + ``quadratic`` random products, 3-digit coefficients."""
    def coef():
        return round(float(rng.uniform(-scale, scale)), 3)

    terms = [(coef(), ())]
    terms += [(coef(), (name,)) for name in names]
    for _ in range(quadratic):
        pair = tuple(sorted((names[rng.integers(len(names))], names[rng.integers(len(names))])))
        terms.append((coef(), pair))
    return Poly(tuple((c, n) for c, n in terms if c != 0.0))


def names_of(model: Model):
    xs = tuple(f"x{i + 1}" for i in range(model.n))
    ys = tuple(f"y{a + 1}" for a in range(model.k))
    return xs, ys


def vector(rng, size: int, box: float = BOX) -> list:
    return [round(float(v), 3) for v in rng.uniform(-box, box, size)]


def point(rng, model: Model, box: float = BOX, margin: float = 0.0):
    """Base and fiber coordinates, well inside the spec's domain."""
    while True:
        x = vector(rng, model.n, box)
        y = vector(rng, model.k, box)
        if model.in_domain(x, y, margin):
            return x, y


# ---------------------------------------------------------------------------
# Curves


@dataclass(frozen=True)
class Curve:
    """A curve as expression text plus its exact position and velocity.

    ``path(t)`` returns (x, y, xdot, ydot), each a list of arrays over t,
    and is what the transport oracle integrates along.
    """

    x_text: tuple
    y_text: tuple
    t0: float
    t1: float
    start: tuple  # (x, y) at t0 for straight lines, else None
    slope: tuple  # (dx, dy) for straight lines, else None
    path_fn: object = None

    def path(self, t):
        t = np.asarray(t, dtype=float)
        if self.path_fn is not None:
            x, y, xd, yd = self.path_fn(t)
        else:
            (x0, y0), (dx, dy) = self.start, self.slope
            x = [a + d * t for a, d in zip(x0, dx)]
            y = [a + d * t for a, d in zip(y0, dy)]
            xd, yd = list(dx), list(dy)
        full = lambda vs: [np.broadcast_to(np.asarray(v, float), t.shape) for v in vs]  # noqa: E731
        return full(x), full(y), full(xd), full(yd)

    def key(self) -> str:
        return f"{';'.join(self.x_text)}|{';'.join(self.y_text)}|{self.t0!r}|{self.t1!r}"


def line_curve(rng, model: Model, box: float = 1.2, margin: float = 0.25) -> Curve:
    """Straight line on [0, 1] between two points, every knot well inside."""
    knots = np.linspace(0.0, 1.0, 65)
    while True:
        xa, ya = point(rng, model, box, margin)
        xb, yb = point(rng, model, box, margin)
        dx = [round(b - a, 3) for a, b in zip(xa, xb)]
        dy = [round(b - a, 3) for a, b in zip(ya, yb)]
        if all(model.in_domain(xa, [a + d * t for a, d in zip(ya, dy)], margin) for t in knots):
            break

    def text(a, d):
        return f"{num(a)} + {num(d)}*t" if d >= 0 else f"{num(a)} - {num(-d)}*t"

    return Curve(
        tuple(text(a, d) for a, d in zip(xa, dx)),
        tuple(text(a, d) for a, d in zip(ya, dy)),
        0.0, 1.0, (tuple(xa), tuple(ya)), (tuple(dx), tuple(dy)),
    )


def _named(x, y, t0=0.0, t1=1.0, fn=None) -> Curve:
    return Curve(tuple(x), tuple(y), t0, t1, None, None, fn)


# The curves of the shipped spec files with their exact paths, written out
# by hand; ``smoke.py`` checks them against the spec files.
NAMED_CURVES = {
    ("c0", "diagonal"): _named(
        ("t", "t"), ("1", "1 - t"),
        fn=lambda t: ([t, t], [1.0, 1.0 - t], [1.0, 1.0], [0.0, -1.0])),
    ("c1", "line"): _named(("t",), ("1",), fn=lambda t: ([t], [1.0], [1.0], [0.0])),
    ("c1", "flowline"): _named(
        ("t",), ("1/(1+t)",),
        fn=lambda t: ([t], [1.0 / (1.0 + t)], [1.0], [-1.0 / (1.0 + t) ** 2])),
    ("c1", "vertical"): _named(("0.5",), ("1 + t",), fn=lambda t: ([0.5], [1.0 + t], [0.0], [1.0])),
    ("c2", "sweep"): _named(
        ("t", "t^2"), ("1 + t/2",),
        fn=lambda t: ([t, t * t], [1.0 + 0.5 * t], [1.0, 2.0 * t], [0.5])),
    ("c3", "line"): _named(("t",), ("1", "-1"), fn=lambda t: ([t], [1.0, -1.0], [1.0], [0.0, 0.0])),
    ("c4", "circle"): _named(
        ("t",), ("cos(t)", "sin(t)"),
        fn=lambda t: ([t], [np.cos(t), np.sin(t)], [1.0], [-np.sin(t), np.cos(t)])),
}


# ---------------------------------------------------------------------------
# Hor-basic fields


@dataclass(frozen=True)
class Field:
    """Hor-basic field Y = X^h + eta^v with polynomial X(x) and eta(x)."""

    X: tuple
    eta: tuple

    def x_fn(self, names):
        return lambda x: [p(dict(zip(names, x))) for p in self.X]

    def eta_fn(self, names):
        return lambda x: [p(dict(zip(names, x))) for p in self.eta]

    def key(self) -> str:
        return ",".join(p.text() for p in self.X) + "|" + ",".join(p.text() for p in self.eta)


def hor_basic(rng, model: Model, scale: float = 1.0) -> Field:
    xs, _ = names_of(model)
    return Field(
        tuple(poly(rng, xs, scale) for _ in range(model.n)),
        tuple(poly(rng, xs, scale) for _ in range(model.k)),
    )


# The named fields of the shipped specs, for the flow prescreen.
NAMED_FIELDS = {
    ("c0", "drift"): Field(
        (Poly(((1.0, ()),)), Poly(())), (Poly(((1.0, ("x1",)),)), Poly(()))),
    ("c1", "unit"): Field((Poly(((1.0, ()),)),), (Poly(()),)),
}


class InputLog:
    """Running sha256 over the text of every generated input."""

    def __init__(self):
        self._hash = hashlib.sha256()
        self.first_round = None

    def add(self, text: str):
        self._hash.update(text.encode())
        self._hash.update(b"\n")

    def end_round(self):
        if self.first_round is None:
            self.first_round = self._hash.hexdigest()

    def hexdigest(self) -> str:
        return self._hash.hexdigest()
