"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
tolerance is fixed here; nothing is calibrated at run time.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from linconn import expr as ex
from linconn import checks as ck
from linconn.connection import HorBasicField, SectionAlongPi, kappa_section
from linconn.geom import PullbackPoint, TangentE, tau_add, vertical_lift
from linconn.linearize import LambdaFamilyMember, LinearizedConnection
from linconn.sampling import (
    random_field,
    random_hor_basic,
    random_polynomial,
    random_section,
    sample_in_domain,
    sample_pullback,
    sample_tangent,
)
from linconn.specfile import builtin_spec_path, load_builtin
from linconn.transport import fiber_derivative_flow, transport_ode

SPECS = {name: load_builtin(name) for name in ("c0", "c1", "c2", "c3", "c4", "c5")}


def _criterion(num: int, ok: bool, description: str, detail: str = ""):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {description}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def _rel(delta, reference) -> float:
    return float(np.max(np.abs(delta)) / (1.0 + np.max(np.abs(reference))))


def test_criterion_1_definition_vs_coordinate_formula():
    rng = np.random.default_rng(101)
    names = list(SPECS)
    worst = 0.0
    for _ in range(1000):
        spec = SPECS[names[rng.integers(len(names))]]
        lin = LinearizedConnection(spec.conn)
        p = sample_pullback(spec.space, rng)
        w = sample_tangent(rng, p.a)
        got = lin.apply(p, w)
        ref = lin.apply_by_limit(p, w)
        worst = max(worst, _rel(got.dy - ref.dy, ref.dy))
    _criterion(
        1, worst <= 1e-9,
        "limit definition agrees with the coordinate formula on 1000 draws",
        f"max rel err {worst:.3e} <= 1e-9",
    )


def test_criterion_2_linearity_suite():
    rng = np.random.default_rng(102)
    worst_w = 0.0
    worst_b = 0.0
    semibasic_exact = True
    for spec in SPECS.values():
        lin = LinearizedConnection(spec.conn)
        sp = spec.space
        for _ in range(100):
            p = sample_pullback(sp, rng)
            w1 = sample_tangent(rng, p.a)
            w2 = sample_tangent(rng, p.a)
            al, be = rng.uniform(-2, 2, 2)
            combo = lin.apply(
                p, TangentE(p.a, al * w1.dx + be * w2.dx, al * w1.dy + be * w2.dy)
            )
            split_dy = al * lin.apply(p, w1).dy + be * lin.apply(p, w2).dy
            worst_w = max(worst_w, _rel(combo.dy - split_dy, split_dy))
            vert = vertical_lift(p.a, rng.uniform(-1.5, 1.5, sp.k))
            out = lin.apply(p, vert)
            semibasic_exact &= bool(np.all(out.dx == 0.0) and np.all(out.dy == 0.0))
    # additivity in the second leg on the slit-domain example
    c4 = SPECS["c4"]
    lin4 = LinearizedConnection(c4.conn)
    for _ in range(200):
        a = sample_in_domain(c4.space, rng)
        z1 = rng.uniform(-1.5, 1.5, 2)
        z2 = rng.uniform(-1.5, 1.5, 2)
        w = sample_tangent(rng, a)
        lhs = lin4.apply(PullbackPoint(a.x, a.y, z1 + z2), w)
        rhs = tau_add(
            lin4.apply(PullbackPoint(a.x, a.y, z1), w),
            lin4.apply(PullbackPoint(a.x, a.y, z2), w),
        )
        worst_b = max(worst_b, _rel(lhs.dy - rhs.dy, lhs.dy))
    # linear connection: the linearization is the pullback of the connection
    c3 = SPECS["c3"]
    lin3 = LinearizedConnection(c3.conn)
    worst_pullback = 0.0
    for _ in range(200):
        p = sample_pullback(c3.space, rng)
        w = sample_tangent(rng, p.a)
        ref = c3.conn.horizontal_lift(p.b, w.dx)
        worst_pullback = max(worst_pullback, _rel(lin3.apply(p, w).dy - ref.dy, ref.dy))
    ok = (
        worst_w <= 1e-12
        and worst_b <= 1e-12
        and semibasic_exact
        and worst_pullback <= 1e-12
    )
    _criterion(
        2, ok,
        "linear in the tangent and the second leg; semibasic exactly; pullback for linear",
        f"w {worst_w:.2e}, b {worst_b:.2e}, pullback {worst_pullback:.2e}, "
        f"semibasic exact {semibasic_exact}",
    )


def test_criterion_3_lambda_family():
    rng = np.random.default_rng(103)
    zero_exact = True
    worst_affine = 0.0
    for spec in SPECS.values():
        lin = LinearizedConnection(spec.conn)
        fam0 = LambdaFamilyMember(spec.conn, 0.0)
        sp = spec.space
        for _ in range(100):
            p = sample_pullback(sp, rng)
            w = sample_tangent(rng, p.a)
            b0 = fam0.apply(p, w)
            b = lin.apply(p, w)
            zero_exact &= bool(
                np.array_equal(b0.dx, b.dx) and np.array_equal(b0.dy, b.dy)
            )
            lam = float(rng.uniform(-2, 2))
            fam = LambdaFamilyMember(spec.conn, lam)
            z2 = rng.uniform(-1.5, 1.5, sp.k)
            lhs = fam.apply(PullbackPoint(p.x, p.y, p.z + z2), w)
            rhs = tau_add(fam.apply(p, w), lin.apply(PullbackPoint(p.x, p.y, z2), w))
            worst_affine = max(worst_affine, _rel(lhs.dy - rhs.dy, lhs.dy))
    # nonzero output on a vertical vector for lam != 0 (semibasic only at 0)
    c1 = SPECS["c1"]
    fam1 = LambdaFamilyMember(c1.conn, 1.0)
    p = PullbackPoint([0.0], [1.0], [3.0])
    vert = vertical_lift(p.a, [2.0])
    nonzero = float(np.max(np.abs(fam1.apply(p, vert).dy)))
    ok = zero_exact and worst_affine <= 1e-12 and nonzero > 1e-3
    _criterion(
        3, ok,
        "family member 0 is the linearization exactly; affine identity; "
        "nonzero on verticals otherwise",
        f"affine {worst_affine:.2e} <= 1e-12, vertical output {nonzero:.2f}",
    )


def test_criterion_4_covariant_derivative_cross_checks():
    rng = np.random.default_rng(104)
    pool = [SPECS[name] for name in ("c0", "c1", "c2", "c3")]
    worst_bracket = 0.0
    for _ in range(500):
        spec = pool[rng.integers(len(pool))]
        lin = LinearizedConnection(spec.conn)
        sp = spec.space
        a = sample_in_domain(sp, rng)
        sigma = random_section(rng, sp)
        w_field = random_field(rng, sp)
        direct = lin.covariant_derivative(sigma, w_field.at(sp, a))
        form = lin.covariant_derivative_bracket(sigma, w_field, a)
        worst_bracket = max(worst_bracket, float(np.max(np.abs(direct - form))))
    worst_derivation = 0.0
    for _ in range(500):
        spec = pool[rng.integers(len(pool))]
        lin = LinearizedConnection(spec.conn)
        sp = spec.space
        a = sample_in_domain(sp, rng)
        sigma = random_section(rng, sp)
        y_field = random_field(rng, sp, projectable=True)
        lie = lin.lie_derivation(y_field, sigma, a)
        dy_sigma = lin.covariant_derivative(sigma, y_field.at(sp, a))
        corr = lin.covariant_derivative(
            kappa_section(spec.conn, y_field), vertical_lift(a, sigma.at(sp, a))
        )
        worst_derivation = max(worst_derivation, float(np.max(np.abs(lie - (dy_sigma - corr)))))
    # basic sections are exactly those with vanishing vertical derivative
    basic_flat = True
    nonbasic_seen = 0.0
    for spec in pool:
        lin = LinearizedConnection(spec.conn)
        sp = spec.space
        basic = random_section(rng, sp, basic=True)
        bent = SectionAlongPi(tuple(ex.add(c, ex.parse("y1")) for c in basic.comp))
        for _ in range(50):
            a = sample_in_domain(sp, rng)
            vert = vertical_lift(a, rng.uniform(-1.5, 1.5, sp.k))
            basic_flat &= bool(
                np.max(np.abs(lin.covariant_derivative(basic, vert))) <= 1e-12
            )
            nonbasic_seen = max(
                nonbasic_seen, float(np.max(np.abs(lin.covariant_derivative(bent, vert))))
            )
    ok = worst_bracket <= 1e-7 and worst_derivation <= 1e-7 and basic_flat and nonbasic_seen > 1e-3
    _criterion(
        4, ok,
        "direct covariant derivative vs bracket form and flow-derivation identity; "
        "basic iff vertically flat",
        f"bracket {worst_bracket:.2e} <= 1e-7, derivation {worst_derivation:.2e} <= 1e-7",
    )


def test_criterion_5_curvature():
    rng = np.random.default_rng(105)
    pool = [SPECS[name] for name in ("c1", "c2", "c4")]
    worst_cross = 0.0
    for _ in range(200):
        spec = pool[rng.integers(len(pool))]
        lin = LinearizedConnection(spec.conn)
        sp = spec.space
        a = sample_in_domain(sp, rng)
        y1 = random_hor_basic(rng, sp)
        y2 = random_hor_basic(rng, sp)
        sigma = random_section(rng, sp)
        closed = lin.curvature(y1, y2, sigma, a)
        comm = lin.curvature_commutator(y1, y2, sigma, a)
        worst_cross = max(worst_cross, float(np.max(np.abs(closed - comm))))
    # special cases
    vv_exact = True
    worst_riemann = 0.0
    for spec in pool:
        lin = LinearizedConnection(spec.conn)
        sp = spec.space
        zero_x = tuple(ex.lit(0.0) for _ in range(sp.n))
        zero_y = tuple(ex.lit(0.0) for _ in range(sp.k))
        for _ in range(30):
            a = sample_in_domain(sp, rng)
            sigma = random_section(rng, sp)
            eta1 = tuple(random_polynomial(rng, sp.x_names) for _ in range(sp.k))
            eta2 = tuple(random_polynomial(rng, sp.x_names) for _ in range(sp.k))
            out = lin.curvature(
                HorBasicField(zero_x, eta1), HorBasicField(zero_x, eta2), sigma, a
            )
            vv_exact &= bool(np.all(out == 0.0))
            v1 = rng.uniform(-1.5, 1.5, sp.n)
            v2 = rng.uniform(-1.5, 1.5, sp.n)
            hb1 = HorBasicField(tuple(ex.lit(c) for c in v1), zero_y)
            hb2 = HorBasicField(tuple(ex.lit(c) for c in v2), zero_y)
            worst_riemann = max(
                worst_riemann,
                float(
                    np.max(
                        np.abs(
                            lin.riemann(v1, v2, sigma, a)
                            - lin.curvature(hb1, hb2, sigma, a)
                        )
                    )
                ),
            )
    c1 = SPECS["c1"]
    lin1 = LinearizedConnection(c1.conn)
    theta = lin1.berwald(
        (ex.lit(1.0),),
        HorBasicField((ex.lit(1.0),), (ex.lit(0.0),)),
        SectionAlongPi((ex.parse("y1"),)),
        PullbackPoint([0.0], [1.0], [1.0]).a,
    )
    berwald_err = abs(float(theta[0]) - 2.0)
    flat0 = LinearizedConnection(SPECS["c0"].conn).flatness_report(32, seed=0)
    flat3 = LinearizedConnection(SPECS["c3"].conn).flatness_report(32, seed=0)
    ok = (
        worst_cross <= 1e-5
        and vv_exact
        and worst_riemann <= 1e-6
        and berwald_err <= 1e-9
        and flat0.max_curvature <= 1e-9
        and flat3.max_curvature <= 1e-9
        and flat0.flat
        and flat3.flat
    )
    _criterion(
        5, ok,
        "closed-form curvature vs commutator oracle; special components; flat examples flat",
        f"cross {worst_cross:.2e} <= 1e-5, riemann {worst_riemann:.2e}, "
        f"berwald err {berwald_err:.1e}, flat max {max(flat0.max_curvature, flat3.max_curvature):.1e}",
    )


def test_criterion_6_transport():
    c1 = SPECS["c1"]
    lin = LinearizedConnection(c1.conn)
    res = transport_ode(lin, c1.curves["line"], [1.0], 1000)
    err_exp = abs(float(res.z_final[0]) - math.exp(-2.0))
    e16 = abs(float(transport_ode(lin, c1.curves["line"], [1.0], 16).z_final[0]) - math.exp(-2.0))
    e32 = abs(float(transport_ode(lin, c1.curves["line"], [1.0], 32).z_final[0]) - math.exp(-2.0))
    ratio = e16 / e32
    p = PullbackPoint([0.0], [1.0], [1.0])
    _, dz = fiber_derivative_flow(c1.conn, c1.fields["unit"], p, 1.0, 2000)
    along = transport_ode(lin, c1.curves["flowline"], [1.0], 2000)
    err_flow_vs_ode = abs(float(dz[0]) - float(along.z_final[0]))
    vert = transport_ode(lin, c1.curves["vertical"], [0.7], 128)
    vertical_exact = float(vert.z_final[0]) == 0.7
    ok = (
        err_exp <= 1e-9
        and 12.0 <= ratio <= 20.0
        and err_flow_vs_ode <= 1e-6
        and vertical_exact
    )
    _criterion(
        6, ok,
        "closed-form transport; integrator order; flow fiber-derivative equals "
        "transport; vertical identity",
        f"exp err {err_exp:.1e} <= 1e-9, ratio {ratio:.1f} in [12,20], "
        f"flow-vs-ode {err_flow_vs_ode:.1e} <= 1e-6, vertical exact {vertical_exact}",
    )


def test_criterion_7_structure_suite():
    worst = 0.0
    per_spec = 200  # five chart shapes at 200 draws each: 1000 slot draws
    for index, spec in enumerate(SPECS.values()):
        rng = np.random.default_rng([107, index])
        for fn in (
            ck._check_interchange,
            ck._check_tau_ops,
            ck._check_involution,
            ck._check_vertical_roundtrip,
            ck._check_projection_tangents,
            ck._check_involution_vs_lifts,
        ):
            err, _ = fn(spec, rng, per_spec)
            worst = max(worst, err)
    _criterion(
        7, worst <= 1e-12,
        "interchange law, vertical-lift propositions, involution properties",
        f"max err {worst:.3e} <= 1e-12",
    )


def test_criterion_8_cli_deterministic():
    # the CLI subprocess finds the package through PYTHONPATH, not pytest's pythonpath
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    ok = True
    detail = []
    for name in ("c0", "c1", "c2", "c3", "c4", "c5"):
        outs = []
        for _ in range(2):
            proc = subprocess.run(
                [
                    sys.executable, "-m", "linconn.cli", "--json",
                    "check", builtin_spec_path(name),
                    "--samples", "32", "--seed", "11",
                ],
                capture_output=True,
                env=env,
            )
            ok &= proc.returncode == 0
            outs.append(proc.stdout)
        ok &= outs[0] == outs[1] and len(outs[0]) > 0
        detail.append(f"{name}:exit0,stable")
    _criterion(
        8, ok,
        "check exits 0 on all shipped descriptions with byte-stable JSON",
        " ".join(detail),
    )
