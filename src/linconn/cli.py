"""Command line front end.

Subcommands: check | linearize | curvature | transport | flow-transport.
Vectors are comma separated; base and fiber blocks are separated by ';'
(e.g. ``--point "0,0;1,2"`` for x = (0,0), y = (1,2)).

Every command takes one path, ``_run``: it loads the spec, the command
returns its inputs, outputs, text lines and check rows, and ``_run`` prints
them.  With --json the output is one deterministic JSON document with five
keys: ``command``, ``spec`` (path, base_dim, fiber_dim, has_domain),
``inputs``, ``outputs`` and ``checks`` (the rows, empty but for ``check``
and ``curvature --oracle``).  Reals print to 17 significant digits and
strings are escaped as JSON escapes them.

Exit codes: 0 pass, 1 iff a check row failed, 2 usage or parse error, 3
domain or numeric error (an integration that overflows or leaves the finite
range, or a result that is NaN or infinite; nothing then goes to stdout).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import re
import sys
from json.encoder import encode_basestring

import numpy as np

from . import expr as ex
from .checks import ORACLE_TOLERANCE, CheckResult, _mx, _rel, run_suite
from .connection import HorBasicField, SectionAlongPi
from .geom import FiberPoint, OutOfDomainError, PullbackPoint, TangentE
from .linearize import LambdaFamilyMember, LinearizedConnection
from .specfile import SpecError, SpecFile, load_spec, parse_expr
from .transport import CurveInE, fiber_derivative_flow, transport_ode


# ---------------------------------------------------------------------------
# Deterministic JSON with fixed float formatting


def _format_float(x: float) -> str:
    """%.17g; JSON has no number for inf and nan, so they print as strings."""
    if not math.isfinite(x):
        return f'"{x}"'  # "inf", "-inf" or "nan"
    return f"{x:.17g}"


def _dump_json(obj, out: list):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(encode_basestring(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_format_float(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for j, key in enumerate(sorted(obj)):
            if j:
                out.append(", ")
            out.append(encode_basestring(str(key)))
            out.append(": ")
            _dump_json(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for j, item in enumerate(obj):
            if j:
                out.append(", ")
            _dump_json(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def to_json(obj) -> str:
    out: list = []
    _dump_json(obj, out)
    return "".join(out)


def _listify(v):
    return [float(x) for x in np.asarray(v).ravel()]


# ---------------------------------------------------------------------------
# Argument parsing helpers


class UsageError(ValueError):
    pass


def _finite(text: str) -> float:
    """A finite real: every real-valued option and vector component of a
    command passes here, so a NaN or infinite one is a usage error, not a
    run that ends in a numeric error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite real, got {text!r}")
    return value


def _parse_vector(text: str, length: int, what: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != length:
        raise UsageError(f"{what}: expected {length} components, got {len(parts)}")
    try:
        return np.array([_finite(p) for p in parts])
    except argparse.ArgumentTypeError as err:
        raise UsageError(f"{what}: {err}") from None


def _parse_blocks(text: str, lengths, what: str):
    parts = text.split(";")
    if len(parts) != len(lengths):
        raise UsageError(
            f"{what}: expected {len(lengths)} ';'-separated blocks, got {len(parts)}"
        )
    return [
        _parse_vector(part, length, f"{what} block {j+1}")
        for j, (part, length) in enumerate(zip(parts, lengths))
    ]


def _parse_exprs(text: str, count: int, allowed: set, what: str):
    parts = text.split(",")
    if len(parts) != count:
        raise UsageError(f"{what}: expected {count} expressions, got {len(parts)}")
    return tuple(parse_expr(p, allowed, what) for p in parts)


def _sigma_for(spec: SpecFile, args) -> SectionAlongPi:
    sp = spec.space
    if args.sigma is not None:
        if args.sigma in spec.sections:
            return spec.sections[args.sigma]
        names = set(sp.x_names) | set(sp.y_names)
        return SectionAlongPi(_parse_exprs(args.sigma, sp.k, names, "--sigma"))
    if args.z is not None:
        zv = _parse_vector(args.z, sp.k, "--z")
        return SectionAlongPi(tuple(ex.lit(c) for c in zv))
    raise UsageError("need --sigma (name or expressions) or --z")


def _curve_for(spec: SpecFile, text: str) -> CurveInE:
    if text in spec.curves:
        return spec.curves[text]
    parts = text.split(";")
    sp = spec.space
    if len(parts) != 4:
        raise UsageError("--curve: expected a curve name or 'x exprs;y exprs;t0;t1'")
    xs = _parse_exprs(parts[0], sp.n, {"t"}, "--curve x")
    ys = _parse_exprs(parts[1], sp.k, {"t"}, "--curve y")
    try:
        t0, t1 = _finite(parts[2]), _finite(parts[3])
    except argparse.ArgumentTypeError as err:
        raise UsageError(f"--curve: {err}") from None
    return CurveInE(xs, ys, t0, t1)


def _check_dicts(checks):
    return [dataclasses.asdict(c) for c in checks]


def _non_finite(obj) -> bool:
    if isinstance(obj, dict):
        return any(map(_non_finite, obj.values()))
    if isinstance(obj, list):
        return any(map(_non_finite, obj))
    return isinstance(obj, float) and not np.isfinite(obj)


def _run(args) -> int:
    """Load the spec, run the command, print its document or its lines and
    pick the exit code: 1 iff a check row failed."""
    spec = load_spec(args.specfile)
    inputs, outputs, lines, checks = args.fn(args, spec)
    # a NaN or infinite result is a numeric error, in text and JSON alike
    bad = sorted(key for key, value in outputs.items() if _non_finite(value))
    if bad:
        raise OverflowError(f"non-finite output: {', '.join(bad)}")
    if args.json:
        document = {
            "command": args.command,
            "spec": {
                "path": spec.path,
                "base_dim": spec.space.n,
                "fiber_dim": spec.space.k,
                "has_domain": spec.space.domain is not None,
            },
            "inputs": inputs,
            "outputs": outputs,
            "checks": _check_dicts(checks),
        }
        lines = [to_json(document)]
    sys.stdout.write("".join(line + "\n" for line in lines))
    return 1 if any(c.status == "fail" for c in checks) else 0


# ---------------------------------------------------------------------------
# Commands: each returns (inputs, outputs, text lines, check rows)


def cmd_check(args, spec: SpecFile):
    report = run_suite(spec, samples=args.samples, seed=args.seed, tol=args.tol)
    lines = [
        f"{c.status.upper():4s} {c.name:38s} max_error={c.max_error:.3e} "
        f"tol={c.tolerance:.1e} samples={c.samples}"
        for c in report.checks
    ]
    lines.append(f"overall: {'pass' if report.passed else 'FAIL'}")
    inputs = {"samples": args.samples, "seed": args.seed, "tol": args.tol}
    return inputs, {"passed": report.passed}, lines, report.checks


def cmd_linearize(args, spec: SpecFile):
    sp = spec.space
    x, y = _parse_blocks(args.point, (sp.n, sp.k), "--point")
    z = _parse_vector(args.z, sp.k, "--z")
    wdx, wdy = _parse_blocks(args.w, (sp.n, sp.k), "--w")
    p = PullbackPoint(x, y, z)
    w = TangentE(p.a, wdx, wdy)
    lin = LinearizedConnection(spec.conn)
    fam = LambdaFamilyMember(spec.conn, args.lam)
    gamma = spec.conn.gamma_at(p.a)
    jac = lin.fiber_jacobian(p.a)
    b = lin.apply(p, w)
    bl = fam.apply(p, w)
    inputs = {
        "x": _listify(x), "y": _listify(y), "z": _listify(z),
        "w_dx": _listify(wdx), "w_dy": _listify(wdy), "lambda": args.lam,
    }
    outputs = {
        "gamma": [_listify(row) for row in gamma],
        "gamma_fiber_jacobian": [
            [_listify(jac[A, i]) for i in range(sp.n)] for A in range(sp.k)
        ],
        "B": {"dx": _listify(b.dx), "dy": _listify(b.dy)},
        "B_lambda": {"dx": _listify(bl.dx), "dy": _listify(bl.dy)},
    }
    lines = [
        f"gamma(a) = {gamma.tolist()}",
        f"fiber jacobian(a) = {jac.tolist()}",
        f"B(a,b)w: dx = {b.dx.tolist()} dy = {b.dy.tolist()}",
        f"B_lambda(a,b)w (lambda={args.lam}): dx = {bl.dx.tolist()} dy = {bl.dy.tolist()}",
    ]
    return inputs, outputs, lines, []


def cmd_curvature(args, spec: SpecFile):
    sp = spec.space
    x, y = _parse_blocks(args.point, (sp.n, sp.k), "--point")
    v1 = _parse_vector(args.v1, sp.n, "--v1")
    v2 = _parse_vector(args.v2, sp.n, "--v2")
    sigma = _sigma_for(spec, args)
    a = FiberPoint(x, y)
    lin = LinearizedConnection(spec.conn)
    r = spec.conn.curvature(a, v1, v2)
    rie = lin.riemann(v1, v2, sigma, a)
    eta = tuple(ex.lit(1.0) for _ in range(sp.k))
    y_h = HorBasicField(
        tuple(ex.lit(c) for c in v1), tuple(ex.lit(0.0) for _ in range(sp.k))
    )
    theta = lin.berwald(eta, y_h, sigma, a)
    try:
        flat = lin.flatness_report(samples=max(8, args.samples // 16), seed=args.seed)
    except (OutOfDomainError, ex.DomainError) as err:
        # the verdict draws points the user never gave: say so
        raise type(err)(
            f"{err}, in the sampled flatness verdict, which draws points across the "
            "whole domain (a 'domain' line in the spec can exclude where the "
            "connection is undefined)"
        ) from err
    checks = []
    oracle_lines = []
    if args.oracle:
        ref = spec.conn.holonomy_curvature(a, v1, v2)
        err = _rel(_mx(r - ref), _mx(ref))
        status = "pass" if err <= ORACLE_TOLERANCE else "fail"
        checks.append(
            CheckResult("curvature_vs_holonomy_oracle", status, err, 1, args.seed, ORACLE_TOLERANCE)
        )
        oracle_lines = [
            f"holonomy oracle R(v1,v2) = {ref.tolist()} (|diff| rel = {err:.3e})"
        ]
    inputs = {
        "x": _listify(x), "y": _listify(y),
        "v1": _listify(v1), "v2": _listify(v2),
    }
    outputs = {
        "R": _listify(r),
        "riemann_component": _listify(rie),
        "berwald_sample": _listify(theta),
        "flat_verdict": flat.verdict,
        "basic_verdict": flat.basic_verdict,
        "max_curvature_sampled": flat.max_curvature,
        "max_nonbasic_defect_sampled": flat.max_nonbasic_defect,
        "equivalence_consistent": flat.equivalence_consistent,
    }
    lines = [
        f"R(v1,v2) at a = {r.tolist()}",
        *oracle_lines,
        f"riemann component = {rie.tolist()}",
        f"berwald sample (eta=1, X=v1) = {theta.tolist()}",
        f"flatness verdict: {flat.verdict} (max |Curv| = {flat.max_curvature:.3e}, "
        f"max bracket defect = {flat.max_nonbasic_defect:.3e}, equivalence "
        f"{'consistent' if flat.equivalence_consistent else 'inconsistent'}, "
        f"over {flat.samples} samples, seed {flat.seed})",
        f"basicness verdict: {flat.basic_verdict} (max mixed component = "
        f"{flat.max_mixed_component:.3e}, threshold {flat.threshold:.1e})",
    ]
    return inputs, outputs, lines, checks


def cmd_transport(args, spec: SpecFile):
    curve = _curve_for(spec, args.curve)
    z0 = _parse_vector(args.z0, spec.space.k, "--z0")
    # transport_ode reads lambda 0 as the linearization itself
    carrier = LambdaFamilyMember(spec.conn, args.lam)
    result = transport_ode(carrier, curve, z0, args.steps, record=16)
    inputs = {
        "z0": _listify(z0), "steps": args.steps, "lambda": args.lam,
        "t0": curve.t0, "t1": curve.t1,
    }
    outputs = {
        "z_final": _listify(result.z_final),
        "method": result.method,
        "trajectory": [
            {"t": t, "x": _listify(xv), "y": _listify(yv), "z": _listify(zv)}
            for t, xv, yv, zv in (result.trajectory or ())
        ],
    }
    lines = [
        f"transport over [{curve.t0}, {curve.t1}] in {args.steps} RK4 steps "
        f"(lambda={args.lam})",
        f"z_final = {result.z_final.tolist()}",
    ]
    return inputs, outputs, lines, []


def cmd_flow_transport(args, spec: SpecFile):
    sp = spec.space
    if args.field not in spec.fields:
        raise UsageError(f"unknown field {args.field!r} (have {sorted(spec.fields)})")
    y_field = spec.fields[args.field]
    x, y = _parse_blocks(args.point, (sp.n, sp.k), "--point")
    z = _parse_vector(args.z, sp.k, "--z")
    p = PullbackPoint(x, y, z)
    end, dz = fiber_derivative_flow(spec.conn, y_field, p, args.s, args.steps)
    inputs = {
        "field": args.field, "x": _listify(x), "y": _listify(y),
        "z": _listify(z), "s": args.s, "steps": args.steps,
    }
    outputs = {
        "end_x": _listify(end.x),
        "end_y": _listify(end.y),
        "z_transported": _listify(dz),
    }
    lines = [
        f"flow endpoint: x = {end.x.tolist()} y = {end.y.tolist()}",
        f"transported fiber vector = {list(map(float, dz))}",
    ]
    return inputs, outputs, lines, []


# ---------------------------------------------------------------------------


def _at_least(low: int):
    """An argparse type: an integer of at least ``low`` (1 for --samples and
    --steps, 0 for --seed, as numpy rejects a negative seed)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    return parse


def _tolerance(text: str) -> float:
    """--tol: a finite real above 0."""
    value = _finite(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"expected a finite real > 0, got {text!r}")
    return value


def _add_common(parser, suppress: bool):
    default = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
    parser.add_argument(
        "--json", action="store_true", default=default(False),
        help="emit one JSON document",
    )
    parser.add_argument(
        "--seed", type=_at_least(0), default=default(0), help="seed for sampled checks"
    )
    parser.add_argument(
        "--samples", type=_at_least(1), default=default(256), help="sample budget"
    )
    parser.add_argument(
        "--tol", type=_tolerance, default=default(1e-7), help="cross-check tolerance"
    )


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads every argument starting with one '-' as
    a value unless it is an option string (only ``-h`` is): a vector, an
    expression or an inline curve may start with a minus sign
    (``--point "-0.5;1"``, ``--sigma -y1``), where argparse reads only a
    negative number as a value.  Every option of linconn is long, so no
    such value hides an option."""

    def __init__(self, **kw):
        super().__init__(**kw)
        # set after __init__ has added -h, so -h does not count as an
        # option that looks like a value
        self._negative_number_matcher = re.compile(r"^-[^-]")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="linconn",
        description="Linearize nonlinear connections and check the identities they satisfy.",
        allow_abbrev=False,
    )
    _add_common(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common, suppress=True)
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        parser_class=lambda **kw: _Parser(parents=[common], allow_abbrev=False, **kw),
    )

    p = sub.add_parser("check", help="run the invariant suite against a spec file")
    p.add_argument("specfile")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("linearize", help="evaluate the linearized action at a point")
    p.add_argument("specfile")
    p.add_argument("--point", required=True, help="'x1,..;y1,..'")
    p.add_argument("--z", required=True, help="second-leg fiber vector")
    p.add_argument("--w", required=True, help="tangent components 'dx1,..;dy1,..'")
    p.add_argument("--lambda", dest="lam", type=_finite, default=0.0)
    p.set_defaults(fn=cmd_linearize)

    p = sub.add_parser("curvature", help="curvature of the connection and its linearization")
    p.add_argument("specfile")
    p.add_argument("--point", required=True, help="'x1,..;y1,..'")
    p.add_argument("--v1", required=True)
    p.add_argument("--v2", required=True)
    p.add_argument("--z", help="fiber slot; used as a constant section when --sigma is absent")
    p.add_argument("--sigma", help="section name from the spec file, or expressions")
    p.add_argument("--oracle", action="store_true", help="print the holonomy oracle next to R")
    p.set_defaults(fn=cmd_curvature)

    p = sub.add_parser("transport", help="parallel transport along a curve")
    p.add_argument("specfile")
    p.add_argument("--curve", required=True, help="curve name or 'x exprs;y exprs;t0;t1'")
    p.add_argument("--z0", required=True)
    p.add_argument("--steps", type=_at_least(1), default=1000)
    p.add_argument("--lambda", dest="lam", type=_finite, default=0.0)
    p.set_defaults(fn=cmd_transport)

    p = sub.add_parser("flow-transport", help="transport via the fiber derivative of a flow")
    p.add_argument("specfile")
    p.add_argument("--field", required=True, help="hor-basic field name from the spec file")
    p.add_argument("--point", required=True, help="'x1,..;y1,..'")
    p.add_argument("--z", required=True)
    p.add_argument("--s", type=_finite, default=1.0)
    p.add_argument("--steps", type=_at_least(1), default=1000)
    p.set_defaults(fn=cmd_flow_transport)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process: parsing leaves the
    parser as it was, and building it takes about 2 ms, a third of a
    README ``transport`` run in-process."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    try:
        return _run(args)
    except (OutOfDomainError, ex.DomainError) as err:
        sys.stderr.write(f"domain error: {err}\n")
        return 3
    except OverflowError as err:
        sys.stderr.write(f"numeric error: {err}\n")
        return 3
    except (UsageError, SpecError, ex.ParseError, ValueError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
