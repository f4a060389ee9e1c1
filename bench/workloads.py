"""The four workloads: how each round of operations is generated and checked.

A round is the workload's fixed operation mix, generated from the run seed
and the round number.  Every operation is a closure over already parsed
inputs (``call``) plus an oracle (``check``) that runs after the round,
outside the timed interval, and returns None or the reason it rejects the
output.  The oracles never reuse the code path they judge: they use the
hand-written geometry in ``models``, linconn's independent-route partner of
the timed function, or a closed form.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs as gen
import linconn
from linconn import checks, cli
from models import MODELS, SPEC_NAMES, flow_is_tame, transport_reference

STEPS = 1000  # the CLI default step count
SUITE_SAMPLES = 32
FLOW_EPS = 1e-6  # the variational pair's bump, as in transport.variational_bump
TRANSPORT_TOL = 1e-9  # RK4 at 1000 steps against the fine-grid reference, relative
FLOW_TOL = 1e-6  # dz against the central difference of two flows, relative
ENDPOINT_TOL = 1e-9  # flow endpoint against the mean of the two bumped flows

# Skips implied by the spec itself: no two-forms on a one-dimensional base,
# and no truncation error to measure where gamma = 0 makes transport exact.
# transport.order draws one curve at SUITE_SAMPLES; when its a-priori screen
# rejects that curve the check skips, which is a sampling outcome, so it is
# counted and reported but does not fail the operation.
SAMPLING_SKIPS = ("transport.order",)
# Checks whose verdict at one draw is a sampling statistic: the median of one
# convergence ratio, and a finite difference along one random flow.  Their
# FAIL verdicts are counted and reported, not failed operations.
STATISTICAL_CHECKS = ("transport.order", "transport.variational_bump")


@dataclass
class Op:
    label: str
    call: Callable
    check: Callable  # output -> None | reason


class Context:
    """Loaded specs and their objects, shared by every round of a run."""

    def __init__(self, root: Path):
        self.root = root
        self.paths = {name: str(root / "src" / "linconn" / "specs" / f"{name}.ini") for name in SPEC_NAMES}
        self.specs = {name: linconn.load_spec(path) for name, path in self.paths.items()}
        self.lins = {name: linconn.LinearizedConnection(s.conn) for name, s in self.specs.items()}
        self.tol = {
            entry[0]: (entry[2] if entry[2] is not None else 1e-7) for entry in checks.CHECKS
        }
        self.notes = {"sampling_skips": 0, "statistical_fails": 0}


def _rel(got, ref) -> float:
    got = np.asarray(got, float)
    ref = np.asarray(ref, float)
    return float(np.max(np.abs(got - ref), initial=0.0) / (1.0 + np.max(np.abs(ref), initial=0.0)))


def _abs(got, ref) -> float:
    return float(np.max(np.abs(np.asarray(got, float) - np.asarray(ref, float)), initial=0.0))


def _within(what: str, err: float, tol: float):
    if not np.isfinite(err) or err > tol:
        return f"{what}: error {err:.3e} > {tol:.1e}"
    return None


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _cli_document(output):
    code, text = output
    if code != 0:
        return None, f"exit code {code}"
    return json.loads(text), None


# ---------------------------------------------------------------------------
# check-suite


class CheckSuite:
    name = "check-suite"
    trace_rounds = 1
    # A round takes about as long as the default run, so a one-round minimum
    # would flip runs between 5 and 10 operations; two rounds keep every run
    # at the same mix size until the suite gets twice as fast.
    min_rounds = 2

    def make_round(self, ctx: Context, rng, log: gen.InputLog):
        ops = []
        for spec_name in SPEC_NAMES:
            spec = ctx.specs[spec_name]
            seed = int(rng.integers(2**31 - 1))
            log.add(f"suite {spec_name} samples={SUITE_SAMPLES} seed={seed}")
            ops.append(Op(
                f"run_suite[{spec_name}]",
                lambda spec=spec, seed=seed: checks.run_suite(spec, samples=SUITE_SAMPLES, seed=seed),
                lambda report, spec_name=spec_name: self.check(ctx, spec_name, report),
            ))
        return ops

    @staticmethod
    def expected_skips(spec_name: str) -> set:
        model = MODELS[spec_name]
        out = set()
        if model.n < 2:
            out.add("connection.curvature_oracle")
        if spec_name == "c0":
            out.add("transport.order")
        return out

    def check(self, ctx: Context, spec_name: str, report):
        names = [c.name.split("[")[0] for c in report.checks]
        if names != [entry[0] for entry in checks.CHECKS]:
            return "report does not list every registry entry in order"
        expected = self.expected_skips(spec_name)
        for c, name in zip(report.checks, names):
            if name in expected:
                if c.status != "skip":
                    return f"{name} should skip on {spec_name}, got {c.status}"
            elif c.status == "skip":
                if name not in SAMPLING_SKIPS:
                    return f"unexpected skip of {name} on {spec_name}"
                ctx.notes["sampling_skips"] += 1
            elif c.status == "fail":
                if name not in STATISTICAL_CHECKS:
                    return f"{name} failed on {spec_name}: {c.max_error:.3e} > {c.tolerance:.1e}"
                ctx.notes["statistical_fails"] += 1
            elif c.status != "pass":
                return f"{name}: unknown status {c.status!r}"
        return None


# ---------------------------------------------------------------------------
# curve-transport


class CurveTransport:
    name = "curve-transport"
    trace_rounds = 1
    min_rounds = 1

    def make_round(self, ctx: Context, rng, log: gen.InputLog):
        jobs = []  # (spec name, Curve, linconn CurveInE)
        for spec_name in SPEC_NAMES:
            spec = ctx.specs[spec_name]
            for (owner, curve_name), curve in gen.NAMED_CURVES.items():
                if owner == spec_name:
                    jobs.append((spec_name, curve, spec.curves[curve_name]))
            for _ in range(2):
                curve = gen.line_curve(rng, MODELS[spec_name])
                parsed = linconn.CurveInE(
                    tuple(map(linconn.parse, curve.x_text)),
                    tuple(map(linconn.parse, curve.y_text)),
                    curve.t0, curve.t1,
                )
                jobs.append((spec_name, curve, parsed))
        ops = []
        for j, (spec_name, curve, parsed) in enumerate(jobs):
            model = MODELS[spec_name]
            lam = 0.0 if j % 2 == 0 else round(float(rng.choice([-1, 1]) * rng.uniform(0.25, 1.5)), 3)
            z0 = np.array(gen.vector(rng, model.k))
            log.add(f"transport {spec_name} {curve.key()} lam={lam!r} z0={z0.tolist()} steps={STEPS}")
            conn = ctx.specs[spec_name].conn
            ops.append(Op(
                f"transport_ode[{spec_name}]",
                lambda conn=conn, lam=lam, parsed=parsed, z0=z0: linconn.transport_ode(
                    linconn.LambdaFamilyMember(conn, lam) if lam != 0.0 else linconn.LinearizedConnection(conn),
                    parsed, z0, STEPS,
                ).z_final,
                lambda z, model=model, curve=curve, z0=z0, lam=lam: _within(
                    "z_final", _rel(z, transport_reference(model, curve, z0, lam)), TRANSPORT_TOL),
            ))
        # the README transport examples, through the command line front end
        for curve_arg, lam, curve in (
            ("line", 0.0, gen.NAMED_CURVES["c1", "line"]),
            ("t;1/(1+t);0;1", 0.5, gen.NAMED_CURVES["c1", "flowline"]),
        ):
            argv = ["transport", ctx.paths["c1"], "--curve", curve_arg, "--z0", "1", "--json"]
            if lam:
                argv += ["--lambda", repr(lam)]
            log.add("cli " + " ".join(argv[2:]))
            ops.append(Op(
                "cli.transport[c1]",
                lambda argv=argv: _run_cli(argv),
                lambda out, curve=curve, lam=lam: self.check_cli(out, curve, lam),
            ))
        return ops

    @staticmethod
    def check_cli(output, curve, lam):
        doc, err = _cli_document(output)
        if err:
            return err
        z = doc["outputs"]["z_final"]
        return _within("cli z_final", _rel(z, transport_reference(MODELS["c1"], curve, [1.0], lam)), TRANSPORT_TOL)


# ---------------------------------------------------------------------------
# flow-transport


class FlowTransport:
    name = "flow-transport"
    trace_rounds = 1
    min_rounds = 1

    def _start(self, rng, model, field):
        """Start point, variation and time whose flow stays tame."""
        xs, _ = gen.names_of(model)
        while True:
            x, y = gen.point(rng, model, 1.2, margin=0.25)
            s = round(float(rng.uniform(0.25, 0.75)), 3)
            if flow_is_tame(model, field.x_fn(xs), field.eta_fn(xs), x, y, s):
                return x, y, gen.vector(rng, model.k), s

    def make_round(self, ctx: Context, rng, log: gen.InputLog):
        jobs = []  # (spec name, field label, Field, linconn HorBasicField)
        for (spec_name, field_name), field in gen.NAMED_FIELDS.items():
            jobs.append((spec_name, field_name, field, ctx.specs[spec_name].fields[field_name]))
        for spec_name in SPEC_NAMES:
            model = MODELS[spec_name]
            for _ in range(2):
                while True:
                    field = gen.hor_basic(rng, model, scale=0.8)
                    if any(abs(p({f"x{i + 1}": 0.0 for i in range(model.n)})) > 0.1 for p in field.X):
                        break  # keep the base velocity away from zero
                parsed = linconn.HorBasicField(
                    tuple(linconn.parse(p.text()) for p in field.X),
                    tuple(linconn.parse(p.text()) for p in field.eta),
                )
                jobs.append((spec_name, "generated", field, parsed))
        ops = []
        for spec_name, label, field, parsed in jobs:
            model = MODELS[spec_name]
            conn = ctx.specs[spec_name].conn
            x, y, z, s = self._start(rng, model, field)
            log.add(f"flow {spec_name} {label} {field.key()} x={x} y={y} z={z} s={s!r} steps={STEPS}")
            p = linconn.PullbackPoint(x, y, z)
            ops.append(Op(
                f"fiber_derivative_flow[{spec_name}]",
                lambda conn=conn, parsed=parsed, p=p, s=s: linconn.fiber_derivative_flow(conn, parsed, p, s, STEPS),
                lambda out, conn=conn, parsed=parsed, p=p, s=s: self.check(conn, parsed, p, s, out),
            ))
        # the README flow-transport example, through the command line front end
        argv = ["flow-transport", ctx.paths["c1"], "--field", "unit", "--point", "0;1",
                "--z", "1", "--s", "1", "--steps", "2000", "--json"]
        log.add("cli " + " ".join(argv[2:]))
        ops.append(Op("cli.flow-transport[c1]", lambda: _run_cli(argv), self.check_cli))
        return ops

    @staticmethod
    def check(conn, field, p, s, output):
        """The variational pair: dz against a central difference of flows."""
        end, dz = output
        up = linconn.flow(conn, field, linconn.FiberPoint(p.x, p.y + FLOW_EPS * p.z), s, STEPS)
        dn = linconn.flow(conn, field, linconn.FiberPoint(p.x, p.y - FLOW_EPS * p.z), s, STEPS)
        bump = (up.y - dn.y) / (2 * FLOW_EPS)
        mid = np.concatenate([(up.x + dn.x) / 2, (up.y + dn.y) / 2])
        return (
            _within("endpoint", _rel(np.concatenate([end.x, end.y]), mid), ENDPOINT_TOL)
            or _within("z_transported", _rel(dz, bump), FLOW_TOL)
        )

    @staticmethod
    def check_cli(output):
        """Closed form for c1's unit field from (0, 1): y = 1/(1+s), dz = 1/(1+s)^2."""
        doc, err = _cli_document(output)
        if err:
            return err
        out = doc["outputs"]
        got = out["end_x"] + out["end_y"] + out["z_transported"]
        return _within("cli flow-transport", _rel(got, [1.0, 0.5, 0.25]), ENDPOINT_TOL)


# ---------------------------------------------------------------------------
# pointwise


class Pointwise:
    name = "pointwise"
    trace_rounds = 8
    min_rounds = 1
    FLATNESS_SAMPLES = 16  # what `linconn curvature` uses at the default budget

    def make_round(self, ctx: Context, rng, log: gen.InputLog):
        ops = []
        for spec_name in SPEC_NAMES:
            ops += self._spec_ops(ctx, rng, log, spec_name)
        return ops

    def _spec_ops(self, ctx: Context, rng, log, spec_name):
        model = MODELS[spec_name]
        spec = ctx.specs[spec_name]
        conn, lin, sp = spec.conn, ctx.lins[spec_name], spec.space
        xs, ys = gen.names_of(model)
        parse = linconn.parse

        x, y = gen.point(rng, model, margin=0.25)
        z = gen.vector(rng, model.k)
        dx, dy = gen.vector(rng, model.n), gen.vector(rng, model.k)
        lam = round(float(rng.uniform(-2.0, 2.0)), 3)
        v1, v2 = gen.vector(rng, model.n), gen.vector(rng, model.n)
        sigma_p = [gen.poly(rng, xs + ys) for _ in range(model.k)]
        field_p = [gen.poly(rng, xs + ys) for _ in range(model.n + model.k)]
        y1_p = [gen.poly(rng, xs) for _ in range(model.n + model.k)]
        y2_p = [gen.poly(rng, xs) for _ in range(model.n + model.k)]
        eta_p = [gen.poly(rng, xs) for _ in range(model.k)]
        flat_seed = int(rng.integers(2**31 - 1))
        text = lambda ps: ",".join(p.text() for p in ps)  # noqa: E731
        log.add(
            f"point {spec_name} x={x} y={y} z={z} w={dx};{dy} lam={lam!r} v1={v1} v2={v2} "
            f"sigma={text(sigma_p)} W={text(field_p)} Y1={text(y1_p)} Y2={text(y2_p)} "
            f"eta={text(eta_p)} flat_seed={flat_seed}"
        )

        exprs = lambda ps: tuple(parse(p.text()) for p in ps)  # noqa: E731
        consts = lambda vs: tuple(parse(gen.num(v)) for v in vs)  # noqa: E731
        p = linconn.PullbackPoint(x, y, z)
        a = p.a
        w = linconn.TangentE(a, dx, dy)
        sigma = linconn.SectionAlongPi(exprs(sigma_p))
        w_field = linconn.FieldOnE(exprs(field_p[: model.n]), exprs(field_p[model.n:]))
        w_at = w_field.at(sp, a)
        y1 = linconn.HorBasicField(exprs(y1_p[: model.n]), exprs(y1_p[model.n:]))
        y2 = linconn.HorBasicField(exprs(y2_p[: model.n]), exprs(y2_p[model.n:]))
        eta = exprs(eta_p)
        zeros_x, zeros_y = consts([0.0] * model.n), consts([0.0] * model.k)
        h1 = linconn.HorBasicField(consts(v1), zeros_y)
        h2 = linconn.HorBasicField(consts(v2), zeros_y)
        vert_eta = linconn.HorBasicField(zeros_x, eta)
        tol = ctx.tol

        def tangent_err(got, ref):
            return max(_abs(got.dx, ref.dx), _abs(got.at.x, ref.at.x), _abs(got.at.y, ref.at.y),
                       _abs(got.dy, ref.dy)) / (1.0 + np.max(np.abs(ref.dy), initial=0.0))

        def family_ref():
            G = model.gamma_np(x, y)
            J = model.jac_np(x, y)
            return -np.einsum("aib,b,i->a", J, z, dx) + lam * (np.array(dy) + G @ np.array(dx))

        def nonlinear_check(out):
            r, hol = out
            return (
                _within("R vs closed form", _rel(r, model.curvature(x, y, v1, v2)), 1e-9)
                or _within("R vs holonomy", _rel(r, hol), tol["connection.curvature_oracle"])
            )

        def flatness_check(rep):
            if rep.flat != model.flat or not rep.equivalence_consistent:
                return f"verdict {rep.verdict}, consistent={rep.equivalence_consistent} on {spec_name}"
            if rep.samples != self.FLATNESS_SAMPLES:
                return f"used {rep.samples} samples"
            return None

        def_tol = tol["linearize.definition_equivalence"]
        cov_tol = tol["linearize.covariant_cross"]
        curv_tol = tol["linearize.curvature_cross"]
        special_tol = tol["linearize.curvature_special"]
        table = [
            ("apply", lambda: lin.apply(p, w),
             lambda o: _within("apply", tangent_err(o, lin.apply_by_limit(p, w)), def_tol)),
            ("apply_by_limit", lambda: lin.apply_by_limit(p, w),
             lambda o: _within("apply_by_limit", tangent_err(o, lin.apply(p, w)), def_tol)),
            ("family_apply", lambda: linconn.LambdaFamilyMember(conn, lam).apply(p, w),
             lambda o: _within("family apply", _rel(o.dy, family_ref()), def_tol)),
            ("covariant_derivative", lambda: lin.covariant_derivative(sigma, w_at),
             lambda o: _within("covariant", _abs(o, lin.covariant_derivative_bracket(sigma, w_field, a)), cov_tol)),
            ("covariant_derivative_bracket", lambda: lin.covariant_derivative_bracket(sigma, w_field, a),
             lambda o: _within("covariant bracket", _abs(o, lin.covariant_derivative(sigma, w_at)), cov_tol)),
            ("curvature", lambda: lin.curvature(y1, y2, sigma, a),
             lambda o: _within("curvature", _abs(o, lin.curvature_commutator(y1, y2, sigma, a)), curv_tol)),
            ("curvature_commutator", lambda: lin.curvature_commutator(y1, y2, sigma, a),
             lambda o: _within("commutator", _abs(o, lin.curvature(y1, y2, sigma, a)), curv_tol)),
            ("riemann", lambda: lin.riemann(v1, v2, sigma, a),
             lambda o: _within("riemann", _abs(o, lin.curvature(h1, h2, sigma, a)), special_tol)),
            ("berwald", lambda: lin.berwald(eta, y2, sigma, a),
             lambda o: _within("berwald", _abs(o, lin.curvature(vert_eta, y2, sigma, a)), special_tol)),
            ("nonlinear_curvature",
             lambda: (conn.curvature(a, v1, v2), conn.holonomy_curvature(a, v1, v2)),
             nonlinear_check),
            ("flatness", lambda: lin.flatness_report(samples=self.FLATNESS_SAMPLES, seed=flat_seed),
             flatness_check),
        ]
        return [Op(f"{label}[{spec_name}]", call, check) for label, call, check in table]


WORKLOADS = {w.name: w for w in (CheckSuite(), CurveTransport(), FlowTransport(), Pointwise())}
