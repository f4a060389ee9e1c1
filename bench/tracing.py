"""Per-layer tracing of linconn from outside the package.

A :class:`Tracer` replaces the public entry points of each linconn module
with wrappers that record one span per call (name, start, end, parent) and
per-name call counts.  Functions are patched wherever they are bound:
module-level functions in every ``linconn.*`` namespace that imported them
by name, methods on their class, and the check functions through the
``checks.CHECKS`` registry.  Nothing under ``src/`` is modified; the
original objects are restored when the tracer is removed.

``expr.evaluate`` and ``expr.evaluate_bool`` recurse through their module
global, so their wrappers carry a re-entrancy guard: only top-level calls
make spans, and ``evaluate`` spans are split by the scalar type of the env.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from array import array
from time import perf_counter

MODULES = ("expr", "ad", "geom", "connection", "linearize", "transport", "specfile", "checks", "cli")

# (span name, "module" or "module:Class", attribute, kind).  Kinds: plain,
# evaluate, guarded (re-entrancy guard only), in_domain (counts accepts),
# steps:N (reads the RK4 step count from positional argument N), state.
# Spans without a metric of their own (connection.curvature, riemann, ...)
# still move their time out of the caller's self time and into their module.
TARGETS = (
    ("expr.evaluate", "expr", "evaluate", "evaluate"),
    ("expr.evaluate_bool", "expr", "evaluate_bool", "guarded"),
    ("ad.gradient", "ad", "gradient", "plain"),
    ("ad.partials_in", "ad", "partials_in", "plain"),
    ("ad.partial_in", "ad", "partial_in", "plain"),
    ("geom.in_domain", "geom:BundleSpace", "in_domain", "in_domain"),
    ("connection.gamma_env", "connection:NonlinearConnection", "gamma_env", "plain"),
    ("connection.curvature_env", "connection:NonlinearConnection", "curvature_env", "plain"),
    ("connection.bracket_env", "connection", "bracket_env", "plain"),
    ("connection.holonomy_curvature", "connection:NonlinearConnection", "holonomy_curvature", "plain"),
    ("connection.curvature", "connection:NonlinearConnection", "curvature", "plain"),
    ("linearize.fiber_jacobian_env", "linearize:LinearizedConnection", "fiber_jacobian_env", "plain"),
    ("linearize.apply", "linearize:LinearizedConnection", "apply", "plain"),
    ("linearize.apply_by_limit", "linearize:LinearizedConnection", "apply_by_limit", "plain"),
    ("linearize.covariant_derivative", "linearize:LinearizedConnection", "covariant_derivative", "plain"),
    ("linearize.covariant_derivative_bracket", "linearize:LinearizedConnection", "covariant_derivative_bracket", "plain"),
    ("linearize.curvature", "linearize:LinearizedConnection", "curvature", "plain"),
    ("linearize.curvature_commutator", "linearize:LinearizedConnection", "curvature_commutator", "plain"),
    ("linearize.riemann", "linearize:LinearizedConnection", "riemann", "plain"),
    ("linearize.berwald", "linearize:LinearizedConnection", "berwald", "plain"),
    ("linearize.flatness_report", "linearize:LinearizedConnection", "flatness_report", "plain"),
    ("linearize.family_apply", "linearize:LambdaFamilyMember", "apply", "plain"),
    ("transport.transport_ode", "transport", "transport_ode", "steps:3"),
    ("transport.flow", "transport", "flow", "steps:4"),
    ("transport.fiber_derivative_flow", "transport", "fiber_derivative_flow", "steps:4"),
    ("transport.curve_state", "transport:CurveInE", "state", "state"),
    ("specfile.load_spec", "specfile", "load_spec", "plain"),
    ("checks.run_suite", "checks", "run_suite", "plain"),
    ("cli.main", "cli", "main", "plain"),
)

EVAL_KINDS = ("expr.evaluate.float", "expr.evaluate.dual1", "expr.evaluate.dual2")
OP_SPAN = "bench.op"

# Spans reported as calls and mean time per call: (span name, time unit).
TIMED = (
    ("expr.evaluate.float", "us"), ("expr.evaluate.dual1", "us"), ("expr.evaluate.dual2", "us"),
    ("ad.gradient", "us"), ("ad.partials_in", "us"), ("ad.partial_in", "us"),
    ("connection.gamma_env", "us"), ("connection.curvature_env", "us"),
    ("connection.bracket_env", "us"), ("connection.holonomy_curvature", "us"),
    ("linearize.fiber_jacobian_env", "us"), ("linearize.apply", "us"),
    ("linearize.apply_by_limit", "us"), ("linearize.covariant_derivative", "us"),
    ("linearize.covariant_derivative_bracket", "us"), ("linearize.curvature", "us"),
    ("linearize.curvature_commutator", "us"), ("linearize.flatness_report", "us"),
    ("specfile.load_spec", "ms"), ("cli.main", "ms"),
)
STEPPED = ("transport.transport_ode", "transport.flow", "transport.fiber_derivative_flow")


def check_names():
    from linconn import checks

    return tuple(entry[0] for entry in checks.CHECKS)


def metric_specs():
    """(name, unit, better) for every per-layer metric, in report order."""
    out = []
    for name, unit in TIMED:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.{unit}_per_call", unit, "lower"))
    out.append(("expr.evaluate_bool.calls", "count", "lower"))
    out.append(("geom.in_domain.calls", "count", "lower"))
    out.append(("geom.in_domain.accept_ratio", "ratio", "higher"))
    for name in STEPPED:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.us_per_step", "us", "lower"))
    out.append(("transport.curve_state.calls", "count", "lower"))
    out.append(("transport.state_calls_per_step", "calls/step", "lower"))
    for name in check_names():
        out.append((f"checks.{name}.s", "s", "lower"))
    for module in MODULES:
        out.append((f"{module}.self_s", "s", "lower"))
    out.append(("trace.untraced_ops_per_s", "1/s", "higher"))
    out.append(("trace.traced_ops_per_s", "1/s", "higher"))
    out.append(("trace.overhead_ratio", "ratio", "lower"))
    return out


class Tracer:
    """Span recorder plus the patches that feed it.

    Use ``install()`` / ``remove()`` around traced work; spans accumulate
    across installs.  Spans are kept in flat arrays (id, name, parent,
    start, end) and written by :meth:`write`.
    """

    def __init__(self):
        from linconn import checks

        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span id, name id, start, child time]
        self._next_id = 0
        self.steps = {name: 0 for name in STEPPED}
        self.domain_accepts = 0
        self.state_in_transport = 0
        self._transport_depth = 0
        self._patches: list[tuple] = []
        self._checks = checks
        for name in EVAL_KINDS + (OP_SPAN,):
            self._nid(name)

    # -- spans --------------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self.name_ids[name] = nid
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return nid

    def begin(self, nid: int):
        sid = self._next_id
        self._next_id += 1
        self._stack.append([sid, nid, perf_counter(), 0.0])

    def end(self):
        stop = perf_counter()
        sid, nid, start, child = self._stack.pop()
        dur = stop - start
        self.calls[nid] += 1
        self.total[nid] += dur
        self.self_time[nid] += dur - child
        parent = -1
        if self._stack:
            top = self._stack[-1]
            top[3] += dur
            parent = top[0]
        self.span_id.append(sid)
        self.span_name.append(nid)
        self.span_parent.append(parent)
        self.span_start.append(start)
        self.span_end.append(stop)

    def op(self, fn):
        """Run one benchmark operation as a root span."""
        self.begin(self.name_ids[OP_SPAN])
        try:
            return fn()
        finally:
            self.end()

    # -- patching -------------------------------------------------------------

    def _wrap(self, span: str, orig, kind: str):
        nid = self._nid(span)
        begin, end = self.begin, self.end

        if kind == "plain":
            def wrapper(*args, **kw):
                begin(nid)
                try:
                    return orig(*args, **kw)
                finally:
                    end()
        elif kind == "evaluate":
            from linconn.ad import Dual1, Dual2

            ids = [self._nid(k) for k in EVAL_KINDS]
            inside = [False]

            def wrapper(e, env):
                if inside[0]:
                    return orig(e, env)
                kind_id = ids[0]
                for v in env.values():
                    t = type(v)
                    if t is Dual2:
                        kind_id = ids[2]
                        break
                    if t is Dual1:
                        kind_id = ids[1]
                inside[0] = True
                begin(kind_id)
                try:
                    return orig(e, env)
                finally:
                    end()
                    inside[0] = False
        elif kind == "guarded":
            inside = [False]

            def wrapper(*args, **kw):
                if inside[0]:
                    return orig(*args, **kw)
                inside[0] = True
                begin(nid)
                try:
                    return orig(*args, **kw)
                finally:
                    end()
                    inside[0] = False
        elif kind == "in_domain":
            def wrapper(*args, **kw):
                begin(nid)
                try:
                    ok = orig(*args, **kw)
                finally:
                    end()
                self.domain_accepts += bool(ok)
                return ok
        elif kind.startswith("steps:"):
            index = int(kind.split(":")[1])
            is_transport = span == "transport.transport_ode"

            def wrapper(*args, **kw):
                self.steps[span] += int(kw["steps"] if "steps" in kw else args[index])
                self._transport_depth += is_transport
                begin(nid)
                try:
                    return orig(*args, **kw)
                finally:
                    end()
                    self._transport_depth -= is_transport
        elif kind == "state":
            def wrapper(*args, **kw):
                self.state_in_transport += self._transport_depth > 0
                begin(nid)
                try:
                    return orig(*args, **kw)
                finally:
                    end()
        else:
            raise ValueError(f"unknown span kind {kind!r}")
        wrapper.__wrapped__ = orig
        return wrapper

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [m for name, m in sys.modules.items() if name == "linconn" or name.startswith("linconn.")]
        for span, where, attr, kind in TARGETS:
            module_name, _, cls_name = where.partition(":")
            module = importlib.import_module(f"linconn.{module_name}")
            if cls_name:
                cls = getattr(module, cls_name)
                self._set(cls, attr, self._wrap(span, cls.__dict__[attr], kind))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(span, orig, kind)
            for ns in namespaces:
                if ns.__dict__.get(attr) is orig:
                    self._set(ns, attr, wrapper)
        wrapped = []
        for entry in self._checks.CHECKS:
            name, fn = entry[0], entry[1]
            wrapped.append((name, self._wrap(f"checks.{name}", fn, "plain")) + tuple(entry[2:]))
        self._set(self._checks, "CHECKS", tuple(wrapped))

    def remove(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- results --------------------------------------------------------------

    def _get(self, name: str):
        nid = self.name_ids.get(name)
        return (0, 0.0, 0.0) if nid is None else (self.calls[nid], self.total[nid], self.self_time[nid])

    def metrics(self) -> dict:
        """Per-layer metrics (all but the trace.* overhead figures)."""
        out = {}
        scale = {"us": 1e6, "ms": 1e3}
        for name, unit in TIMED:
            calls, total, _ = self._get(name)
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.{unit}_per_call"] = (total / calls * scale[unit] if calls else 0.0, unit)
        out["expr.evaluate_bool.calls"] = (self._get("expr.evaluate_bool")[0], "count")
        domain_calls = self._get("geom.in_domain")[0]
        out["geom.in_domain.calls"] = (domain_calls, "count")
        out["geom.in_domain.accept_ratio"] = (
            self.domain_accepts / domain_calls if domain_calls else 0.0, "ratio")
        for name in STEPPED:
            calls, total, _ = self._get(name)
            steps = self.steps[name]
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.us_per_step"] = (total / steps * 1e6 if steps else 0.0, "us")
        out["transport.curve_state.calls"] = (self._get("transport.curve_state")[0], "count")
        steps = self.steps["transport.transport_ode"]
        out["transport.state_calls_per_step"] = (
            self.state_in_transport / steps if steps else 0.0, "calls/step")
        for name in check_names():
            out[f"checks.{name}.s"] = (self._get(f"checks.{name}")[1], "s")
        module_self = {m: 0.0 for m in MODULES}
        for nid, name in enumerate(self.names):
            module = name.split(".")[0]
            if module in module_self:
                module_self[module] += self.self_time[nid]
        for module in MODULES:
            out[f"{module}.self_s"] = (module_self[module], "s")
        return out

    def attributed_share(self) -> float:
        """Share of operation time spent inside some traced linconn span."""
        op_total = self._get(OP_SPAN)[1]
        return 1.0 - self._get(OP_SPAN)[2] / op_total if op_total else 0.0

    def write(self, path: str, header: dict):
        """Write the spans as a numpy .npz: parallel arrays id, name (index
        into ``names``), parent (-1 for a root), start_s and end_s (seconds
        from the first span), plus ``header`` as a JSON string."""
        import numpy as np

        os.makedirs(os.path.dirname(path), exist_ok=True)
        start = np.frombuffer(self.span_start, dtype=np.float64)
        t0 = start.min() if start.size else 0.0
        np.savez(
            path,
            header=np.array(json.dumps(header)),
            names=np.array(self.names),
            id=np.frombuffer(self.span_id, dtype=np.int64),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start_s=start - t0,
            end_s=np.frombuffer(self.span_end, dtype=np.float64) - t0,
        )
