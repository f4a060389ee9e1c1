"""Host-speed reference, so that times measure linconn and not the host.

The machine this benchmark was defined on is a shared 2-core VM whose speed
drifts: the same pointwise run went from 92 to 162 operations per second
within an hour, and flow-transport by 50% within five minutes, with nothing
else running in the VM.  Raw wall times cannot tell that drift from a change
in linconn.  ``burst()`` times a fixed amount of pure-Python dual-number
arithmetic (the kind of work linconn does, in code of its own that no
linconn change touches), and ``factor()`` turns it into the host's current
slowness: 1.0 at the reference speed, 1.3 when the host runs 30% slower.
The workloads divide every timed interval by the factor measured around it.
"""

from __future__ import annotations

from time import perf_counter

ITERATIONS = 3000
REFERENCE_S = 0.0205  # median burst() on the defining machine, 2026-10-17


class _Dual:
    __slots__ = ("re", "eps")

    def __init__(self, re, eps):
        self.re = float(re)
        self.eps = tuple(float(e) for e in eps)

    def __add__(self, other):
        return _Dual(self.re + other.re, (a + b for a, b in zip(self.eps, other.eps)))

    def __mul__(self, other):
        return _Dual(self.re * other.re,
                     (self.re * b + a * other.re for a, b in zip(self.eps, other.eps)))


def burst() -> float:
    """Seconds taken by the fixed reference work (about 20 ms)."""
    x = _Dual(0.3, (1.0, 0.0))
    y = _Dual(0.7, (0.0, 1.0))
    acc = _Dual(0.0, (0.0, 0.0))
    start = perf_counter()
    for _ in range(ITERATIONS):
        acc = acc + x * y * x + y
        acc = _Dual(acc.re * 0.5, acc.eps)
    return perf_counter() - start


def factor() -> float:
    return burst() / REFERENCE_S
