"""Hand-written geometry of the shipped specs c0..c4, for the output oracles.

Nothing here calls linconn: the coefficients gamma^A_i(x, y), their base and
fiber derivatives and the domains are transcribed by hand from
``src/linconn/specs/c*.ini``, so the oracles check linconn against an
independent route.  Arrays are indexed [A, i] for gamma, [A, i, j] for the
base derivative and [A, i, B] for the fiber derivative, and every function
accepts scalars or equally shaped arrays for each coordinate (so a whole
time grid is evaluated in one call).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Model:
    name: str
    n: int
    k: int
    gamma: Callable  # (x, y) -> nested lists [A][i]
    dgamma_dx: Callable  # (x, y) -> [A][i][j]
    dgamma_dy: Callable  # (x, y) -> [A][i][B]
    min_radius: float = 0.0  # fiber points need |y| > min_radius (slit domain of c4)
    flat: bool = False  # flatness verdict of the linearization

    def in_domain(self, x, y, margin: float = 0.0) -> bool:
        if self.min_radius == 0.0:
            return True
        return math.hypot(*y) > self.min_radius + margin

    def gamma_np(self, x, y) -> np.ndarray:
        return _stack(self.gamma(x, y))

    def jac_np(self, x, y) -> np.ndarray:
        return _stack(self.dgamma_dy(x, y))

    def curvature(self, x, y, v1, v2) -> np.ndarray:
        """Connector of the bracket of the horizontal lifts of v1 and v2.

        R^A = (v2^j v1^i - v1^j v2^i) d_j gamma^A_i
              + (v1^j v2^i - v2^j v1^i) gamma^B_j d_B gamma^A_i
        """
        g = self.gamma_np(x, y)
        gx = _stack(self.dgamma_dx(x, y))
        gy = self.jac_np(x, y)
        v1 = np.asarray(v1, float)
        v2 = np.asarray(v2, float)
        anti = np.outer(v2, v1) - np.outer(v1, v2)  # [j, i]
        base = np.einsum("aij,ji->a", gx, anti)
        fiber = np.einsum("bj,aib,ji->a", g, gy, -anti)
        return base + fiber


def _stack(nested) -> np.ndarray:
    """Nested lists of scalars or equal-shape arrays -> float array."""
    leaves = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in _flatten(nested)))
    return np.array(leaves).reshape(_shape(nested) + leaves[0].shape)


def _flatten(nested):
    if isinstance(nested, (list, tuple)):
        out = []
        for item in nested:
            out.extend(_flatten(item))
        return out
    return [nested]


def _shape(nested):
    if isinstance(nested, (list, tuple)):
        return (len(nested),) + _shape(nested[0])
    return ()


def _zero_like(v):
    return 0.0 * np.asarray(v, dtype=float)


def _c0_gamma(x, y):
    z = _zero_like(x[0])
    return [[z, z], [z, z]]


def _c0_d(x, y):
    z = _zero_like(x[0])
    return [[[z, z], [z, z]], [[z, z], [z, z]]]


MODELS = {
    # gamma = 0 on a rank-2 bundle over a plane
    "c0": Model("c0", 2, 2, _c0_gamma, _c0_d, _c0_d, flat=True),
    # gamma_1_1 = y1^2
    "c1": Model(
        "c1", 1, 1,
        lambda x, y: [[y[0] ** 2]],
        lambda x, y: [[[_zero_like(y[0])]]],
        lambda x, y: [[[2.0 * y[0]]]],
    ),
    # gamma_1_1 = y1^2, gamma_1_2 = x1*y1
    "c2": Model(
        "c2", 2, 1,
        lambda x, y: [[y[0] ** 2, x[0] * y[0]]],
        lambda x, y: [[[_zero_like(y[0]), _zero_like(y[0])], [y[0], _zero_like(y[0])]]],
        lambda x, y: [[[2.0 * y[0]], [x[0] + _zero_like(y[0])]]],
    ),
    # gamma_1_1 = y1, gamma_2_1 = 2*y2
    "c3": Model(
        "c3", 1, 2,
        lambda x, y: [[y[0]], [2.0 * y[1]]],
        lambda x, y: [[[_zero_like(y[0])]], [[_zero_like(y[0])]]],
        lambda x, y: [
            [[1.0 + _zero_like(y[0]), _zero_like(y[0])]],
            [[_zero_like(y[0]), 2.0 + _zero_like(y[0])]],
        ],
        flat=True,
    ),
    # gamma_1_1 = sqrt(y1^2 + y2^2), gamma_2_1 = 0, domain y1^2 + y2^2 > 0
    "c4": Model(
        "c4", 1, 2,
        lambda x, y: [[np.hypot(y[0], y[1])], [_zero_like(y[0])]],
        lambda x, y: [[[_zero_like(y[0])]], [[_zero_like(y[0])]]],
        lambda x, y: [
            [[y[0] / np.hypot(y[0], y[1]), y[1] / np.hypot(y[0], y[1])]],
            [[_zero_like(y[0]), _zero_like(y[0])]],
        ],
        min_radius=0.25,
    ),
}

SPEC_NAMES = tuple(MODELS)


# ---------------------------------------------------------------------------
# Transport oracle: the linear ODE z' = M(t) z + c(t) solved on a fine grid


def _cumint(f: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral from the first knot, fourth order.

    Trapezoid rule with the Euler-Maclaurin end correction -h^2/12 (f'(t) -
    f'(t0)), the derivative taken by second-order differences.
    """
    trap = np.concatenate([[0.0], np.cumsum(0.5 * h * (f[1:] + f[:-1]))])
    df = np.gradient(f, h, edge_order=2)
    return trap - (h * h / 12.0) * (df - df[0])


def _solve_scalar(m: np.ndarray, f: np.ndarray, z0: float, h: float) -> np.ndarray:
    """z' = m z + f on the grid, by the integrating factor exp(int m)."""
    e = np.exp(_cumint(m, h))
    return e * (z0 + _cumint(f / e, h))


def transport_reference(model: Model, curve, z0, lam: float, knots: int = 20001) -> np.ndarray:
    """End value of the lambda-family transport along ``curve``.

    ``curve.path(t)`` returns (x, y, xdot, ydot) as lists of arrays over t.
    The transport matrix M = -J xdot of every shipped spec is upper
    triangular, so the components are solved from the last one up, each as
    a scalar linear ODE with the already solved components as forcing.  For
    a spec with gamma = 0 the solution is the closed form z0 + lam * dy.
    """
    t = np.linspace(curve.t0, curve.t1, knots)
    h = t[1] - t[0]
    x, y, xd, yd = curve.path(t)
    z0 = np.asarray(z0, float)
    if model.name == "c0":
        return z0 + lam * np.array([y[a][-1] - y[a][0] for a in range(model.k)])
    J = model.jac_np(x, y)  # [A, i, B, t]
    G = model.gamma_np(x, y)  # [A, i, t]
    xd = np.array([np.broadcast_to(v, t.shape) for v in xd])
    yd = np.array([np.broadcast_to(v, t.shape) for v in yd])
    M = -np.einsum("aibt,it->abt", J, xd)
    c = lam * (yd + np.einsum("ait,it->at", G, xd))
    if np.any(np.tril(np.abs(M).max(axis=2), -1) != 0.0):
        raise ValueError(f"{model.name}: transport matrix is not upper triangular")
    zs = [None] * model.k
    for a in reversed(range(model.k)):
        forcing = c[a] + sum(M[a, b] * zs[b] for b in range(a + 1, model.k))
        zs[a] = _solve_scalar(M[a, a], forcing, z0[a], h)
    return np.array([zs[a][-1] for a in range(model.k)])


# ---------------------------------------------------------------------------
# Flow prescreen: is the flow of a hor-basic field tame from this start?


def flow_is_tame(model: Model, X, eta, x0, y0, s: float, steps: int = 100,
                 bound: float = 3.0, margin: float = 0.2) -> bool:
    """Pure-Python RK4 of x' = X(x), y' = -gamma X + eta with hand-written gamma.

    Accepts the start when every stage stays within |coordinate| <= bound
    and, on a slit domain, ``margin`` away from the slit.  X and eta are
    callables of the base point returning lists.
    """
    n = model.n

    def rhs(state):
        x, y = state[:n], state[n:]
        if max(abs(v) for v in state) > bound or not model.in_domain(x, y, margin):
            raise OverflowError
        xd = X(x)
        g = model.gamma(x, y)
        e = eta(x)
        return xd + [e[a] - sum(g[a][i] * xd[i] for i in range(n)) for a in range(model.k)]

    state = list(x0) + list(y0)
    h = s / steps
    try:
        for _ in range(steps):
            k1 = rhs(state)
            k2 = rhs([u + 0.5 * h * d for u, d in zip(state, k1)])
            k3 = rhs([u + 0.5 * h * d for u, d in zip(state, k2)])
            k4 = rhs([u + h * d for u, d in zip(state, k3)])
            state = [
                u + (h / 6.0) * (a + 2 * b + 2 * c + d)
                for u, a, b, c, d in zip(state, k1, k2, k3, k4)
            ]
        rhs(state)
    except OverflowError:
        return False
    return True
