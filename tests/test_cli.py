import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from linconn.cli import main, to_json
from linconn.expr import MAX_DEPTH
from linconn.specfile import SpecError, builtin_spec_path, load_builtin, loads

MINIMAL = """
[space]
base_dim = 1
fiber_dim = 1
[connection]
gamma_1_1 = "y1^2"
"""


def test_load_minimal():
    spec = loads(MINIMAL)
    assert spec.space.n == 1 and spec.space.k == 1
    assert not spec.fields and not spec.curves


def test_missing_gamma_entry():
    text = """
[space]
base_dim = 2
fiber_dim = 1
[connection]
gamma_1_1 = "y1"
"""
    with pytest.raises(SpecError, match="missing gamma_1_2"):
        loads(text)


def test_domain_rejects_z():
    text = MINIMAL + 'domain = "z1 > 0"\n'
    with pytest.raises(SpecError, match="z not allowed in domain"):
        loads(text)


def test_parse_error_carries_line_number():
    text = "[space]\nbase_dim = 1\nfiber_dim = 1\n[connection]\ngamma_1_1 = \"y1 +\"\n"
    with pytest.raises(SpecError) as err:
        loads(text)
    assert err.value.line == 5


def test_semicolon_separated_pairs():
    text = """
[space]
base_dim = 1
fiber_dim = 1
[connection]
gamma_1_1 = "0"
[curve c]
x_1 = "t" ; y_1 = "1" ; t0 = 0 ; t1 = 2
"""
    spec = loads(text)
    assert spec.curves["c"].t1 == 2.0


def test_unknown_key_rejected():
    with pytest.raises(SpecError, match="out of range"):
        loads(MINIMAL + 'gamma_2_1 = "0"\n')
    with pytest.raises(SpecError, match="unknown key"):
        loads(MINIMAL + 'extra = "0"\n')


def test_field_requires_x_only():
    text = MINIMAL + '[field f]\nX_1 = "y1"\neta_1 = "0"\n'
    with pytest.raises(SpecError):
        loads(text)


def test_dimension_bounds_checked():
    with pytest.raises(SpecError, match="out of range"):
        loads(MINIMAL.replace('gamma_1_1 = "y1^2"', 'gamma_1_1 = "y1^2"\ngamma_1_2 = "0"'))


@pytest.mark.parametrize(
    "extra, line, message",
    [
        ('[field f]\nX_1 = "1"\nX_1 = "2"\neta_1 = "0"\n', 9, "duplicate key 'X_1'"),
        ('[section s]\nsigma_1 = "y1" ; sigma_1 = "3"\n', 8, "duplicate key 'sigma_1'"),
        ('[curve c]\nx_1 = "t" ; y_1 = "1" ; t0 = 0 ; t1 = 1 ; t1 = 2\n', 8, "duplicate key 't1'"),
        ('[field f]\nX_1 = "1" ; eta_1 = "0"\n[field f]\nX_1 = "2" ; eta_1 = "0"\n', 9, r"duplicate \[field f\]"),
        ('[section s]\nsigma_1 = "y1"\n[section s]\nsigma_1 = "3"\n', 9, r"duplicate \[section s\]"),
        ('[curve c]\nx_1 = "t" ; y_1 = "1" ; t0 = 0 ; t1 = 1\n[curve c]\nx_1 = "0" ; y_1 = "t" ; t0 = 0 ; t1 = 1\n', 9, r"duplicate \[curve c\]"),
    ],
)
def test_a_duplicate_key_or_named_section_is_rejected(extra, line, message):
    with pytest.raises(SpecError, match=rf"^line {line}: {message}") as err:
        loads(MINIMAL + extra)
    assert err.value.line == line


def test_builtin_specs_load():
    for name in ("c0", "c1", "c2", "c3", "c4", "c5"):
        spec = load_builtin(name)
        assert spec.space.n >= 1 and spec.space.k >= 1
    assert load_builtin("c4").space.domain is not None


# ---------------------------------------------------------------------------
# command line


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_check_exits_zero_on_shipped_specs(capsys):
    for name in ("c0", "c1", "c2", "c3", "c4", "c5"):
        code, out = run_cli(
            capsys, "check", builtin_spec_path(name), "--samples", "16"
        )
        assert code == 0, out
        assert "overall: pass" in out


def test_check_json_byte_stable(capsys):
    path = builtin_spec_path("c1")
    outs = []
    for _ in range(2):
        code, out = run_cli(
            capsys, "--json", "check", path, "--samples", "16", "--seed", "7"
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    doc = json.loads(outs[0])
    assert doc["command"] == "check"
    assert doc["outputs"]["passed"] is True
    assert all(c["status"] != "fail" for c in doc["checks"])


def test_check_seed_changes_draws(capsys):
    path = builtin_spec_path("c1")
    _, out1 = run_cli(capsys, "--json", "check", path, "--samples", "16", "--seed", "1")
    _, out2 = run_cli(capsys, "--json", "check", path, "--samples", "16", "--seed", "2")
    assert json.loads(out1)["inputs"]["seed"] != json.loads(out2)["inputs"]["seed"]


def test_linearize_command(capsys):
    code, out = run_cli(
        capsys,
        "--json",
        "linearize",
        builtin_spec_path("c1"),
        "--point", "0;1", "--z", "3", "--w", "1;5", "--lambda", "1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["outputs"]["B"]["dy"] == [-6.0]
    assert doc["outputs"]["B_lambda"]["dy"] == [0.0]
    assert doc["outputs"]["gamma"] == [[1.0]]
    assert doc["outputs"]["gamma_fiber_jacobian"] == [[[2.0]]]


def test_linearize_vertical_w(capsys):
    code, out = run_cli(
        capsys,
        "--json",
        "linearize",
        builtin_spec_path("c1"),
        "--point", "0;1", "--z", "3", "--w", "0;2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["outputs"]["B"]["dy"] == [0.0]
    assert doc["outputs"]["B"]["dx"] == [0.0]


def test_curvature_command_with_oracle(capsys):
    code, out = run_cli(
        capsys,
        "--json",
        "curvature",
        builtin_spec_path("c2"),
        "--point", "0,0;1", "--v1", "1,0", "--v2", "0,1", "--z", "1", "--oracle",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["outputs"]["R"] == pytest.approx([-1.0])
    assert doc["checks"][0]["status"] == "pass"
    assert doc["outputs"]["flat_verdict"] == "non-flat"
    # the bracket half of the verdict: flatness_report(16, seed 0) on c2
    assert doc["outputs"]["max_nonbasic_defect_sampled"] == 30.110211348057042
    assert doc["outputs"]["equivalence_consistent"] is True


def test_curvature_flat_verdict(capsys):
    code, out = run_cli(
        capsys,
        "--json",
        "curvature",
        builtin_spec_path("c3"),
        "--point", "0;1,1", "--v1", "1", "--v2", "1", "--z", "1,0",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["outputs"]["R"] == [0.0, 0.0]
    assert doc["outputs"]["flat_verdict"] == "flat"
    assert doc["outputs"]["max_nonbasic_defect_sampled"] <= 1e-8
    assert doc["outputs"]["equivalence_consistent"] is True


def test_curvature_text_names_both_halves_of_the_flatness_verdict(capsys):
    code, out = run_cli(
        capsys, "curvature", builtin_spec_path("c2"),
        "--point", "0,0;1", "--v1", "1,0", "--v2", "0,1", "--z", "1",
    )
    assert code == 0
    assert (
        "flatness verdict: non-flat (max |Curv| = 2.536e+01, max bracket defect = "
        "3.011e+01, equivalence consistent, over 16 samples, seed 0)"
    ) in out


def test_transport_command(capsys):
    code, out = run_cli(
        capsys,
        "--json",
        "transport",
        builtin_spec_path("c1"),
        "--curve", "line", "--z0", "1", "--steps", "1000",
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["outputs"]["z_final"][0] - np.exp(-2)) <= 1e-9
    traj = doc["outputs"]["trajectory"]
    assert traj[0]["t"] == 0.0 and traj[-1]["t"] == 1.0


def test_transport_inline_curve_and_vertical_identity(capsys):
    code, out = run_cli(
        capsys,
        "--json",
        "transport",
        builtin_spec_path("c1"),
        "--curve", "0.5;1+t;0;1", "--z0", "0.7", "--steps", "100",
    )
    assert code == 0
    assert json.loads(out)["outputs"]["z_final"] == [0.7]


def test_flow_transport_command(capsys):
    code, out = run_cli(
        capsys,
        "--json",
        "flow-transport",
        builtin_spec_path("c1"),
        "--field", "unit", "--point", "0;1", "--z", "1", "--s", "1",
        "--steps", "2000",
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["outputs"]["z_transported"][0] - 0.25) <= 1e-6
    assert abs(doc["outputs"]["end_y"][0] - 0.5) <= 1e-6


@pytest.mark.parametrize(
    "argv, option, value",
    [
        (["linearize", "c1", "--z", "1", "--w", "1;0"], "--point", "-0.5;1"),
        (["transport", "c5", "--curve", "arc", "--steps", "16"], "--z0", "-1,2"),
        (["transport", "c1", "--z0", "1", "--steps", "16"], "--curve", "-t;1;0;1"),
        (["curvature", "c1", "--point", "0;1", "--v1", "1", "--v2", "1", "--samples", "16"], "--sigma", "-y1"),
    ],
)
def test_a_value_may_start_with_a_minus_sign(capsys, argv, option, value):
    # each exited 2 with "expected one argument": argparse read the value
    # as an option unless it was a negative number
    argv = [builtin_spec_path(a) if a in ("c1", "c5") else a for a in argv]
    assert main([*argv, option, value]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert main([*argv, f"{option}={value}"]) == 0  # the spelling that always worked
    assert capsys.readouterr() == (out, "")


def test_an_unknown_single_dash_argument_is_still_a_usage_error(capsys):
    assert main(["check", builtin_spec_path("c1"), "-x"]) == 2
    assert "unrecognized arguments: -x" in capsys.readouterr().err
    assert main(["check", "-h"]) == 0
    assert capsys.readouterr().out.startswith("usage: linconn check")


@pytest.mark.parametrize("spec_name, curve, z0", [
    ("c0", "diagonal", "1,,2"), ("c0", "diagonal", "1,2,"), ("c1", "line", "1,"),
])
def test_an_empty_vector_component_is_a_usage_error(capsys, spec_name, curve, z0):
    assert main(["transport", builtin_spec_path(spec_name), "--curve", curve, "--z0", z0]) == 2
    assert "--z0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["transport", "c1", "--curve", "line", "--z0", "nan"], "--z0"),
        (["transport", "c1", "--curve", "line", "--z0", "1", "--lambda", "inf"], "--lambda"),
        (["transport", "c1", "--curve", "t;1;nan;1", "--z0", "1"], "--curve"),
        (["transport", "c1", "--curve", "t;1;0;-inf", "--z0", "1"], "--curve"),
        (["flow-transport", "c1", "--field", "unit", "--point", "nan;1", "--z", "1"], "--point"),
        (["flow-transport", "c1", "--field", "unit", "--point", "0;1", "--z", "inf"], "--z"),
        (["flow-transport", "c1", "--field", "unit", "--point", "0;1", "--z", "1", "--s", "nan"], "--s"),
        (["flow-transport", "c1", "--field", "unit", "--point", "0;1", "--z", "1", "--s", "inf"], "--s"),
        (["linearize", "c1", "--point", "0;1", "--z", "3", "--w", "1;5", "--lambda", "nan"], "--lambda"),
        (["linearize", "c1", "--point", "0;1", "--z", "3", "--w", "inf;5"], "--w"),
        (["curvature", "c2", "--point", "0,0;1", "--v1", "nan,0", "--v2", "0,1", "--z", "1"], "--v1"),
    ],
)
def test_a_non_finite_numeric_input_is_a_usage_error(capsys, argv, flag):
    # rejected before any integration runs, as --tol nan is
    argv = [builtin_spec_path(a) if a in ("c1", "c2") else a for a in argv]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and flag in err and "expected a finite real" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "c1", "--samples", "-5"],
        ["check", "c1", "--samples", "0"],
        ["--samples", "0", "check", "c1"],
        ["curvature", "c2", "--point", "0,0;1", "--v1", "1,0", "--v2", "0,1", "--z", "1", "--samples", "0"],
        ["check", "c1", "--tol", "nan"],
        ["check", "c1", "--tol", "inf"],
        ["check", "c1", "--tol", "0"],
        ["check", "c1", "--tol", "-1e-7"],
        ["--tol", "nan", "check", "c1"],
    ],
)
def test_a_sample_count_below_one_or_a_bad_tolerance_is_a_usage_error(capsys, argv):
    argv = [builtin_spec_path(a) if a in ("c1", "c2") else a for a in argv]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and ("--samples" in err or "--tol" in err)


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "c1", "--seed", "-1"],
        ["--seed", "-1", "check", "c1"],
        ["curvature", "c2", "--point", "0,0;1", "--v1", "1,0", "--v2", "0,1", "--z", "1", "--seed", "-1"],
    ],
)
def test_a_negative_seed_is_a_usage_error_naming_the_argument(capsys, argv):
    # numpy used to reject it later, with a bare "expected non-negative integer"
    argv = [builtin_spec_path(a) if a in ("c1", "c2") else a for a in argv]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "argument --seed: expected an integer >= 0, got '-1'" in err


def test_exit_codes(capsys, tmp_path):
    # usage error
    assert main(["transport", builtin_spec_path("c1"), "--z0", "1"]) == 2
    # spec parse error
    bad = tmp_path / "bad.ini"
    bad.write_text("[space]\nbase_dim = 1\n")
    assert main(["check", str(bad)]) == 2
    # domain error
    code = main(
        [
            "linearize",
            builtin_spec_path("c4"),
            "--point", "0;0,0", "--z", "1,0", "--w", "1;0,0",
        ]
    )
    assert code == 3


EXP_SPEC = """
[space]
base_dim = 1
fiber_dim = 1
[connection]
gamma_1_1 = "exp(y1)"
"""


@pytest.mark.parametrize("offset", ["40", "800"])
def test_diverging_transport_is_a_numeric_error(capsys, tmp_path, offset):
    # at y = 40 the RK4 state overflows; at y = 800 exp itself overflows
    spec = tmp_path / "exp.ini"
    spec.write_text(EXP_SPEC)
    for flags in ([], ["--json"]):
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(
                [*flags, "transport", str(spec), "--curve", f"t;{offset}+t;0;1", "--z0", "1"]
            )
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("numeric error:") and "t = " in captured.err
        assert "nan" not in captured.out


@pytest.mark.filterwarnings("error")
def test_numeric_error_leaves_nothing_else_on_stderr(capsys, tmp_path):
    spec = tmp_path / "exp.ini"
    spec.write_text(EXP_SPEC)
    code = main(["transport", str(spec), "--curve", "t;40+t;0;1", "--z0", "1"])
    assert code == 3
    assert capsys.readouterr().err == "numeric error: non-finite state at t = 0.006\n"


def test_transport_domain_error_names_t_and_the_knot(capsys):
    # the curve meets c4's puncture y = 0 at t = 0.5
    code = main(["transport", builtin_spec_path("c4"), "--curve", "t;t-0.5,0;0;1", "--z0", "1,0"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "domain error: curve left the domain at t = 0.5, at ([0.5], [0.0, 0.0])\n"


@pytest.mark.parametrize("bounds", ["t0 = 0 ; t1 = nan", "t0 = -inf ; t1 = 1"])
def test_a_non_finite_curve_bound_in_a_spec_is_a_usage_error(capsys, tmp_path, bounds):
    # a t1 of nan used to load and end `transport` with a numeric error
    text = MINIMAL + f'[curve c]\nx_1 = "t" ; y_1 = "1"\n{bounds}\n'
    with pytest.raises(SpecError, match=r"line 9: t[01] must be a finite real"):
        loads(text)
    spec = tmp_path / "curve.ini"
    spec.write_text(text)
    assert main(["transport", str(spec), "--curve", "c", "--z0", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: line 9: t")


def test_an_overflowing_number_literal_in_a_spec_is_a_usage_error(capsys, tmp_path):
    # 1e999 used to load as inf; `linearize` then ended with a numeric error
    spec = tmp_path / "big.ini"
    spec.write_text(MINIMAL.replace('"y1^2"', '"1e999*y1"'))
    assert main(["linearize", str(spec), "--point", "0;1", "--z", "1", "--w", "1;0"]) == 2
    assert capsys.readouterr().err == (
        "error: line 6: gamma_1_1: number '1e999' does not fit in a float (at offset 1)\n"
    )


@pytest.mark.parametrize("key", ["gamma_01_1", "gamma_1_01", "gamma_001_1"])
def test_a_zero_padded_gamma_key_is_a_usage_error(capsys, tmp_path, key):
    # gamma_01_1 used to load and override gamma_1_1 silently
    spec = tmp_path / "pad.ini"
    spec.write_text(MINIMAL + f'{key} = "2*y1"\n')
    assert main(["linearize", str(spec), "--point", "0;1", "--z", "1", "--w", "1;0"]) == 2
    assert capsys.readouterr().err == f"error: line 7: unknown key '{key}' in [connection]\n"


# one expression of each shape nested d levels deep, and the offset where a
# parse of it stops when d is past MAX_DEPTH
DEEP = {
    "parentheses": (lambda d: "(" * (d - 1) + "y1" + ")" * (d - 1), MAX_DEPTH),
    "unary_minus": (lambda d: "-" * (d - 1) + "y1", MAX_DEPTH),
    "sum": (lambda d: "+".join(["y1"] * d), 3 * MAX_DEPTH),
}


@pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 5000])
@pytest.mark.parametrize("shape", sorted(DEEP))
def test_an_expression_past_the_depth_bound_is_a_usage_error(capsys, tmp_path, shape, depth):
    # a RecursionError used to end these with a traceback and exit 1
    text, offset = DEEP[shape]
    spec = tmp_path / "deep.ini"
    spec.write_text(MINIMAL.replace('"y1^2"', f'"{text(depth)}"'))
    assert main(["linearize", str(spec), "--point", "0;1", "--z", "1", "--w", "1;0"]) == 2
    assert capsys.readouterr().err == (
        f"error: line 6: gamma_1_1: expression nested deeper than {MAX_DEPTH} levels "
        f"(at offset {offset})\n"
    )
    argv = ["curvature", builtin_spec_path("c1"), "--point", "0;1", "--v1", "1", "--v2", "1"]
    assert main([*argv, f"--sigma={text(depth)}"]) == 2
    assert capsys.readouterr().err.startswith("error: --sigma: expression nested deeper than")


@pytest.mark.parametrize("shape", sorted(DEEP))
def test_check_runs_an_expression_at_the_depth_bound(capsys, tmp_path, shape):
    spec = tmp_path / "deep.ini"
    spec.write_text(MINIMAL.replace('"y1^2"', f'"{DEEP[shape][0](MAX_DEPTH)}"'))
    assert main(["check", str(spec), "--samples", "8"]) in (0, 1)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["curvature", "--point", "0;1", "--v1", "1", "--v2", "1", "--sigma", "z1"],
         "--sigma may reference x1, y1 only, found z1"),
        (["transport", "--curve", "x1;1;0;1", "--z0", "1"],
         "--curve x may reference t only, found x1"),
        (["transport", "--curve", "t;1 +;0;1", "--z0", "1"],
         "--curve y: expected a value (at offset 4)"),
    ],
)
def test_an_expression_on_the_command_line_is_read_as_a_spec_reads_it(capsys, argv, message):
    assert main([argv[0], builtin_spec_path("c1"), *argv[1:]]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_underflowing_negative_power_is_a_domain_error(capsys, tmp_path):
    spec = tmp_path / "pow.ini"
    spec.write_text(MINIMAL.replace('"y1^2"', '"y1^-2"'))
    code = main(["linearize", str(spec), "--point", "0;1e-200", "--z", "1", "--w", "1;0"])
    assert code == 3
    assert capsys.readouterr().err.startswith("domain error: negative integer power")


LOG_SPEC = """
[space]
base_dim = 2
fiber_dim = 1
[connection]
gamma_1_1 = "log(y1)"
gamma_1_2 = "0"
domain = "y1 > 0"
"""


def test_curvature_far_out_in_the_fiber_is_finite(capsys, tmp_path):
    # -1/y1^2 of log(y1) underflows toward 0 at y1 = 1e200; float ** on it
    # used to overflow and end the command with a numeric error
    spec = tmp_path / "log.ini"
    spec.write_text(LOG_SPEC)
    code, out = run_cli(
        capsys,
        "--json",
        "curvature",
        str(spec),
        "--point", "0,0;1e200", "--v1", "1,0", "--v2", "0,1", "--z", "1",
    )
    assert code == 0
    assert json.loads(out)["outputs"]["R"] == [0.0]


C2_FAR_OUT = [builtin_spec_path("c2"), "--point", "0,0;1e200", "--z", "1"]


@pytest.mark.parametrize(
    "argv",
    [
        # R is NaN: gamma_1_1 = y1^2 overflows at y1 = 1e200
        ["--json", "curvature", *C2_FAR_OUT, "--v1", "1,0", "--v2", "0,1"],
        ["curvature", *C2_FAR_OUT, "--v1", "1,0", "--v2", "0,1"],
        # gamma and B_lambda are inf
        ["--json", "linearize", *C2_FAR_OUT, "--w", "1,0;0", "--lambda", "0.5"],
    ],
    ids=["curvature-json", "curvature-text", "linearize-json"],
)
def test_non_finite_output_is_a_numeric_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("numeric error: non-finite output") and captured.err.count("\n") == 1


def test_flatness_sampling_error_names_its_source(capsys, tmp_path):
    # no domain line: the verdict samples y1 <= 0, where log is undefined,
    # although the given point is fine
    spec = tmp_path / "log.ini"
    spec.write_text(LOG_SPEC.replace('domain = "y1 > 0"\n', ""))
    code = main(
        ["curvature", str(spec), "--point", "0,0;1", "--v1", "1,0", "--v2", "0,1", "--z", "1"]
    )
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("domain error: log of non-positive value, in the sampled flatness verdict")
    assert "'domain' line" in err and err.count("\n") == 1


FLOW_BLOW_UP_SPEC = """
[space]
base_dim = 1
fiber_dim = 1
[connection]
gamma_1_1 = "y1^8"
[field up]
X_1 = "0"
eta_1 = "1e39"
"""


def test_transport_of_a_curve_failing_at_t0_names_the_step(capsys):
    # the command records a trajectory; its t0 sample used to fail first
    code = main(["transport", builtin_spec_path("c1"), "--curve", "t;exp(1000 - 1000*t);0;1", "--z0", "1"])
    assert code == 3
    assert capsys.readouterr().err == "numeric error: math range error in the step from t = 0.0\n"


@pytest.mark.parametrize(
    "spec_text, argv, message",
    [
        (EXP_SPEC, ["transport", "--curve", "t;40+t;0;1", "--z0", "1"],
         "numeric error: non-finite state at t = 0.006\n"),
        (EXP_SPEC, ["transport", "--curve", "t;800+t;0;1", "--z0", "1"],
         "numeric error: math range error in the step from t = 0.0\n"),
        # gamma = y^8 overflows to inf, and inf * (X = 0) is NaN
        (FLOW_BLOW_UP_SPEC, ["flow-transport", "--field", "up", "--point", "0;0", "--z", "1",
                             "--steps", "10"],
         "numeric error: non-finite state at t = 0.4\n"),
    ],
    ids=["transport-state", "transport-exp", "flow-transport"],
)
def test_overflow_prints_no_runtime_warning(tmp_path, spec_text, argv, message):
    # a fresh interpreter with the default warning filters: nothing but the
    # one error line may reach stderr
    spec = tmp_path / "spec.ini"
    spec.write_text(spec_text)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    env.pop("PYTHONWARNINGS", None)
    command, *rest = argv
    proc = subprocess.run(
        [sys.executable, "-m", "linconn.cli", command, str(spec), *rest],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 3
    assert proc.stderr == message


def test_json_float_formatting():
    text = to_json({"a": 0.1, "b": [1.0, 2.5e-17]})
    assert text == '{"a": 0.10000000000000001, "b": [1, 2.4999999999999999e-17]}'
    assert to_json([math.inf, -math.inf, math.nan]) == '["inf", "-inf", "nan"]'


def test_check_json_with_infinite_errors_parses(capsys, tmp_path):
    # the covariant and curvature checks of this spec overflow to inf
    spec = tmp_path / "spec.ini"
    spec.write_text('[space]\nbase_dim = 2\nfiber_dim = 1\n[connection]\ngamma_1_1 = "1e200*y1^2"\ngamma_1_2 = "0"\n')
    code, out = run_cli(capsys, "--json", "check", str(spec), "--samples", "16")
    assert code == 1
    errors = [row["max_error"] for row in json.loads(out)["checks"]]
    assert "inf" in errors
