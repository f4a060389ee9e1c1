"""Threads that race the first-use caches get the serial run's results.

The README promises that all values are safe to use concurrently, and that
two threads that race to make a cached compiled function make equal
functions.  Each attempt loads fresh specs, so every cache on their objects
is empty, clears the process-wide caches, and starts all threads at once on
the shared objects, with the interpreter switching threads every
microsecond.  The caches that race:

- ``NonlinearConnection.compiled_gamma`` and ``compiled_gamma_gradients``
  (the check suite's lifts, its order screen and reference loops);
- ``BundleSpace.compiled_domain`` (c5's disc, in the curve screens);
- ``CurveInE.compiled_state`` (the recorded samples) and
  ``CurveInE._coefficients`` (the printed g and its lanes form);
- ``HorBasicField._stages`` (the flow stages of c1's and c5's fields);
- ``FieldOnE._cert`` (a projectability certificate that probes);
- the ``functools.cache`` of ``codegen.linear_rk4`` and
  ``codegen.rk4_step``;
- ``cli._parser``.
"""

import sys
from concurrent.futures import ThreadPoolExecutor
from threading import Barrier

import numpy as np

from linconn import cli, codegen
from linconn import expr as ex
from linconn.checks import run_suite
from linconn.connection import FieldOnE
from linconn.geom import FiberPoint, PullbackPoint
from linconn.linearize import LambdaFamilyMember, LinearizedConnection
from linconn.specfile import load_builtin
from linconn.transport import fiber_derivative_flow, transport_ode

TRANSPORT_THREADS, SUITE_THREADS, ATTEMPTS = 6, 3, 2
# two knot blocks of transport._BLOCK_STEPS = 512 steps, and part of a third
STEPS = 1100
# a start point and flow time per spec with a named field; each flow stays
# inside the spec's domain
FLOWS = {"c1": ("unit", [0.0], [1.0], [1.0], 1.0), "c5": ("drift", [0.3, -0.2], [1.0, 0.5], [1.0, -1.0], 0.5)}


def _fresh():
    """c1, c2 and c5 loaded anew, with a probed field on c2: no object of
    theirs has a cached function yet."""
    specs = {name: load_builtin(name) for name in ("c1", "c2", "c5")}
    # x1 + 0*y1 names y1, so the certificate probes; it is projectable
    probed = FieldOnE((ex.parse("x1 + 0*y1"), ex.parse("x2")), (ex.parse("y1"),))
    return specs, probed


def _transports(specs, probed) -> list:
    """z_final of every named curve at lambda 0 and 0.5, with samples
    recorded, the variational z of every named field's flow, and a Lie
    derivation along the probed field, as bytes."""
    out = []
    for name, spec in specs.items():
        lin = LinearizedConnection(spec.conn)
        z0 = np.ones(spec.space.k)
        for curve in spec.curves.values():
            for member in (lin, LambdaFamilyMember(spec.conn, 0.5)):
                out.append(transport_ode(member, curve, z0, STEPS, record=8).z_final.tobytes())
        if name in FLOWS:
            field, x, y, z, s = FLOWS[name]
            _, dz = fiber_derivative_flow(spec.conn, spec.fields[field], PullbackPoint(x, y, z), s, STEPS)
            out.append(dz.tobytes())
    c2 = specs["c2"]
    a = FiberPoint([0.2, -0.1], [0.7])
    out.append(LinearizedConnection(c2.conn).lie_derivation(probed, c2.sections["identity"], a).tobytes())
    return out


def _suites(specs, probed) -> list:
    """The --json rows of ``check --samples 16 --seed 1`` on c2 and c5,
    parsed by ``cli._parser`` and run on the shared specs."""
    out = []
    for name in ("c2", "c5"):
        spec = specs[name]
        args = cli._parser().parse_args(["--json", "check", spec.path, "--samples", "16", "--seed", "1"])
        report = run_suite(spec, samples=args.samples, seed=args.seed, tol=args.tol)
        out.append(cli.to_json(cli._check_dicts(report.checks)))
    return out


def test_threads_racing_the_first_use_caches_get_the_serial_results():
    serial = {work: work(*_fresh()) for work in (_transports, _suites)}
    works = [_transports] * TRANSPORT_THREADS + [_suites] * SUITE_THREADS
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(ATTEMPTS):
            shared = _fresh()
            for cache in (codegen.linear_rk4, codegen.rk4_step, cli._parser):
                cache.cache_clear()
            start = Barrier(len(works), timeout=60)

            def run(work):
                start.wait()
                return work(*shared)

            with ThreadPoolExecutor(len(works)) as pool:
                got = list(pool.map(run, works))
            for work, result in zip(works, got):
                assert result == serial[work], work.__name__
    finally:
        sys.setswitchinterval(interval)
