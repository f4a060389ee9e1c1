"""Smoke test of the benchmark itself (not part of the repository's tests).

Run from the repository root:  python3 bench/smoke.py

1. The hand-written geometry in ``models`` and ``inputs`` matches the
   shipped spec files, so the oracles judge linconn against the right
   connection.
2. Every oracle accepts linconn's real output and rejects a deliberately
   perturbed one (a transported z off by 1e-6 relative, and so on).
3. Each workload runs end to end at its smallest size (its minimum rounds), with
   every metric named in BENCHMARK.json present, and two traced runs of
   the same seed report identical per-layer call counts.
4. Without the linconn sources the command fails without printing a result.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import linconn  # noqa: E402
import inputs as gen  # noqa: E402
import workloads as wl  # noqa: E402
from models import MODELS, SPEC_NAMES  # noqa: E402


def check_models(ctx):
    rng = np.random.default_rng(0)
    for name in SPEC_NAMES:
        model, spec, lin = MODELS[name], ctx.specs[name], ctx.lins[name]
        for _ in range(20):
            x, y = gen.point(rng, model, margin=0.25)
            a = linconn.FiberPoint(x, y)
            v1, v2 = rng.uniform(-1, 1, model.n), rng.uniform(-1, 1, model.n)
            assert np.allclose(spec.conn.gamma_at(a), model.gamma_np(x, y), rtol=1e-13, atol=1e-13), name
            assert np.allclose(lin.fiber_jacobian(a), model.jac_np(x, y), rtol=1e-13, atol=1e-13), name
            assert np.allclose(spec.conn.curvature(a, v1, v2), model.curvature(x, y, v1, v2),
                               rtol=1e-12, atol=1e-12), name
    for (spec_name, curve_name), curve in gen.NAMED_CURVES.items():
        parsed = ctx.specs[spec_name].curves[curve_name]
        assert tuple(map(linconn.parse, curve.x_text)) == parsed.comp_x, curve_name
        assert tuple(map(linconn.parse, curve.y_text)) == parsed.comp_y, curve_name
        for t in (0.0, 0.37, 1.0):
            x, y, xd, yd = parsed.state(t)
            px, py, pxd, pyd = curve.path(np.array([t]))
            assert np.allclose(np.concatenate([x, y, xd, yd]),
                               np.array([v[0] for v in px + py + pxd + pyd]), atol=1e-14), curve_name
    for (spec_name, field_name), field in gen.NAMED_FIELDS.items():
        parsed = ctx.specs[spec_name].fields[field_name]
        model = MODELS[spec_name]
        xs, _ = gen.names_of(model)
        for x in rng.uniform(-1, 1, (5, model.n)):
            env = dict(zip(xs, x))
            got = [linconn.expr.evaluate(e, env) for e in parsed.X + parsed.eta]
            assert np.allclose(got, field.x_fn(xs)(x) + field.eta_fn(xs)(x), atol=1e-15), field_name
    print("ok: models, named curves and named fields match the spec files")


def perturb(out, rel):
    """The output with its numbers moved by about ``rel`` relative."""
    if isinstance(out, np.ndarray):
        return out * (1.0 + rel) + rel
    if isinstance(out, linconn.TangentE):
        return dataclasses.replace(out, dy=perturb(out.dy, rel))
    if isinstance(out, linconn.FlatnessReport):
        return dataclasses.replace(out, flat=not out.flat)
    if isinstance(out, tuple) and isinstance(out[0], linconn.FiberPoint):
        return out[0], perturb(out[1], rel)
    if isinstance(out, tuple) and isinstance(out[1], str):
        doc = json.loads(out[1])
        for key in ("z_final", "z_transported"):
            if key in doc["outputs"]:
                doc["outputs"][key] = [v * (1.0 + rel) + rel for v in doc["outputs"][key]]
        return out[0], json.dumps(doc)
    if isinstance(out, tuple):
        return (perturb(out[0], rel),) + out[1:]
    raise TypeError(type(out))


def check_oracles(ctx):
    cases = (
        ("curve-transport", 1e-6, None),
        ("flow-transport", 1e-5, (0, 1, 2, -1)),
        ("pointwise", 1e-4, None),
    )
    for name, rel, pick in cases:
        ops = wl.WORKLOADS[name].make_round(ctx, gen.round_rng(name, 0, 0), gen.InputLog())
        if pick is not None:
            ops = [ops[i] for i in pick]
        for op in ops:
            out = op.call()
            assert op.check(out) is None, (op.label, op.check(out))
            assert op.check(perturb(out, rel)) is not None, f"{op.label} accepted a perturbed output"
        print(f"ok: {name} oracles accept {len(ops)} real outputs and reject them moved by {rel:g}")
    # the flow endpoint is checked on its own
    op = wl.WORKLOADS["flow-transport"].make_round(ctx, gen.round_rng("flow-transport", 0, 0), gen.InputLog())[2]
    end, dz = op.call()
    moved = linconn.FiberPoint(end.x, end.y * (1 + 1e-8) + 1e-8)
    assert op.check((moved, dz)) is not None, "flow oracle accepted a moved endpoint"
    print("ok: flow-transport oracle rejects an endpoint moved by 1e-8")

    suite = wl.WORKLOADS["check-suite"]
    ops = suite.make_round(ctx, gen.round_rng("check-suite", 0, 0), gen.InputLog())
    op = ops[1]  # c1: one-dimensional base, so curvature_oracle must skip
    report = op.call()
    assert op.check(report) is None, op.check(report)

    def with_status(check_name, status):
        checks = tuple(
            dataclasses.replace(c, status=status) if c.name.startswith(check_name) else c
            for c in report.checks
        )
        return dataclasses.replace(report, checks=checks)

    assert op.check(with_status("linearize.definition_equivalence", "fail")) is not None
    assert op.check(with_status("linearize.linearity", "skip")) is not None
    assert op.check(with_status("connection.curvature_oracle", "pass")) is not None
    print("ok: check-suite oracle rejects a failed check, an unexpected skip and a missing skip")


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def check_runs():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in bench["end_to_end"]}
    layers = {m["name"] for m in bench["per_layer"]}
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)
    for name in wl.WORKLOADS:
        proc = run(["--workload", name, "--seed", "5", "--seconds", "0.01", "--trace", "0"])
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, proc.stderr
        assert set(result["metrics"]) == e2e, set(result["metrics"]) ^ e2e
        assert all(m["value"] > 0 for m in result["metrics"].values()), result["metrics"]
        print(f"ok: {name} runs at its smallest size: {result['attempted']} operations, none failed")
    counts = []
    for _ in range(2):
        proc = run(["--workload", "pointwise", "--seed", "5", "--seconds", "0.01", "--trace", "1"])
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        assert set(metrics) == layers, set(metrics) ^ layers
        counts.append({k: v["value"] for k, v in metrics.items() if k.endswith(".calls")})
    assert counts[0] == counts[1], "per-layer call counts differ between traced runs"
    print("ok: traced pointwise runs report every per-layer metric, with identical call counts")


def check_bare():
    bare = ROOT / "bench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(["--workload", "pointwise", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout
    print("ok: without the linconn sources the command exits", proc.returncode, "and prints no result")


def main():
    ctx = wl.Context(ROOT)
    check_models(ctx)
    check_oracles(ctx)
    check_runs()
    check_bare()
    print("smoke test passed")


if __name__ == "__main__":
    main()
