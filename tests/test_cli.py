import contextlib
import io
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from selfdual import charts as ch
from selfdual import derham
from selfdual.cli import CHART_DIM, COMMANDS, ConfigError, Int, \
    build_parser, main, parse_complex

ROOT = Path(__file__).resolve().parent.parent
CHART = "demos/charts/quartic1d.cfg"
# cos(2 pi 6 y1): three fibre samples alias it to a constant
ALIASED = json.dumps({"terms": [{"axes": [], "freq": [0, 6], "cos": 1.0}]})
# modes with fibre frequencies, feeding the transform at j = 0 (dy1) and
# j = 1 (dx); over the fibre they integrate to exactly zero
FIBRE_MODES = json.dumps({"terms": [
    {"axes": [1], "freq": [0, 1], "cos": 1.0},
    {"axes": [1], "freq": [1, 0], "cos": 1.0},
    {"axes": [0], "freq": [0, 2], "sin": 1.0},
    {"axes": [0], "freq": [1, 0], "cos": 1.0}]})


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_parse_complex_forms():
    assert parse_complex("0+1i") == 1j
    assert parse_complex("2.5") == 2.5
    assert parse_complex("-i") == -1j
    assert parse_complex("1e-3i") == 0.001j
    assert parse_complex(" 2+3I ") == 2 + 3j
    with pytest.raises(ConfigError):
        parse_complex("bogus")


@pytest.mark.parametrize("text", ["nan+1i", "inf+1i", "1+infi", "-inf",
                                  "1e999i", "nanj"])
def test_parse_complex_rejects_non_finite(text):
    with pytest.raises(ConfigError, match="not finite"):
        parse_complex(text)


def test_verify_pointwise_record_per_trial(capsys):
    code, rep = run_json(capsys, ["verify-pointwise", "--n", "1",
                                  "--trials", "7"])
    assert code == 0
    assert rep["suite"] == "verify-pointwise"
    assert rep["schema_version"] == 1
    assert len(rep["checks"]) == 7
    for c in rep["checks"]:
        assert set(c) == {"id", "anchor", "residual", "threshold", "verdict"}
        assert c["verdict"] == "PASS"
    assert "axis_order" in rep["conventions"]


def test_mirror_square_torus_unit_base(capsys):
    code, rep = run_json(capsys, ["mirror", "--tau", "0+1i", "--t", "0+1i"])
    assert code == 0
    assert rep["data"]["invariants"]["base_length"] == 1.0
    assert rep["data"]["recovered"]["first"]["tau"] == "0+1i"
    thresholds = {c["id"]: c["threshold"] for c in rep["checks"]}
    assert thresholds["mirror-round-trip"] == 1e-12
    assert thresholds["unit-volume"] == 1e-12


def test_byte_determinism_fixed_seed(capsys):
    main(["verify-pointwise", "--n", "2", "--trials", "5", "--seed", "3"])
    first = capsys.readouterr().out
    main(["verify-pointwise", "--n", "2", "--trials", "5", "--seed", "3"])
    second = capsys.readouterr().out
    assert first == second
    main(["verify-pointwise", "--n", "2", "--trials", "5", "--seed", "4"])
    assert capsys.readouterr().out != first


def test_config_errors_exit_two(capsys):
    assert main(["mirror", "--tau", "zzz", "--t", "0+1i"]) == 2
    assert main(["affine-check", "--chart", "/does/not/exist.cfg"]) == 2
    assert main(["verify-pointwise", "--n", "0"]) == 2
    assert main(["fm", "--tau", "0+1i", "--t", "0+1i",
                 "--alpha", "dq"]) == 2
    capsys.readouterr()


FM = ["fm", "--tau", "0+1i", "--t", "0+1i"]
# x**2 - 1.2 x**4 is convex at its one validation point x = -0.2 but not
# at the grid point x = 0.4
NON_CONVEX = {"potential": {"terms": {"2": 1.0, "4": -1.2}},
              "domain": [[-0.2, 1.0]], "validation_points": 1,
              "grid_size": 50}


def chart_file(tmp_path, **entries):
    """A convex chart config with the given entries replaced."""
    path = tmp_path / "chart.cfg"
    path.write_text(json.dumps({"potential": {"terms": {"2": 1.0}},
                                "domain": [[-1.0, 1.0]], **entries}))
    return str(path)


REQUIRED_FLAGS = {"mirror": ["--tau", "0+1i", "--t", "0+1i"],
                  "fm": ["--tau", "0+1i", "--t", "0+1i"],
                  "affine-check": ["--chart", CHART]}


def assert_config_error(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error:")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["mirror", "--tau", "nan+1i", "--t", "0+1i"],
    ["mirror", "--tau", "0+1i", "--t", "inf+1i"],
    ["verify-pointwise", "--trials", "0"],
    ["skaid-check", "--samples", "0"],
    ["affine-check", "--chart", CHART, "--points", "0"],
    FM + ["--j", "1", "--samples", "3", "--alpha", ALIASED],
    FM + ["--samples", "0"],
    FM + ["--alpha", '{"terms": [{"axes": [1], "cos": NaN}]}'],
    FM + ["--alpha", '{"terms": [{"axes": [1], "freq": 2}]}'],
    FM + ["--alpha", '{"terms": [{"axes": [7]}]}'],
    ["skaid-check", "--N", "-1"],
    ["skaid-check", "--N", "0"],
    ["skaid-check", "--N", str(10**19)],
    ["affine-check", "--chart", CHART, "--seed", "100000000000"],
    ["mirror", "--t", "0+1i"],
    ["mirror", "--tau", "0+1i", "--t", "0+1i", "--bogus", "1"],
    ["mirror", "--tau", "0+1i", "--t", "0-1i"],
    ["mirror", "--tau", "1e-300i", "--t", "1e300i"],
    ["mirror", "--tau=-1+1.5e-243i", "--t=-1+1.5e-243i"],
    FM + ["--tau", "0+1e4i"],
    FM + ["--j", "-1"],
    FM + ["--alpha", '{"terms": [{"axes": [1e400]}]}'],
    FM + ["--alpha", '{"terms": [{"axes": [1, 0], "cos": 1.0}]}'],
    FM + ["--alpha", '{"terms": ' + "[" * 100000],
    ["rep-check", "--n", "1", "--out", "/nonexistent/dir/r.json"],
    ["no-such-command"],
    [],
], ids=["mirror-nan", "mirror-inf", "pointwise-trials-0", "skaid-samples-0",
        "affine-points-0", "fm-below-nyquist", "fm-samples-0", "fm-nan-table",
        "fm-freq-not-a-list", "fm-axis-outside", "skaid-N--1", "skaid-N-0",
        "skaid-N-1e19", "affine-seed-1e11",
        "mirror-missing-tau", "unknown-flag", "lower-half-plane",
        "moduli-ratio-overflow", "moduli-underflow",
        "fm-moduli-above-cap", "fm-j--1",
        "fm-axis-overflow", "fm-axes-descending", "fm-deep-json",
        "out-missing-directory", "unknown-command", "no-command"])
def test_rejected_inputs_exit_two(capsys, argv):
    assert_config_error(capsys, argv)


@pytest.mark.parametrize("name", [name for name, command in COMMANDS.items()
                                  if "--seed" in command.flags])
def test_negative_seed_exits_two(capsys, name):
    assert_config_error(capsys, [name, *REQUIRED_FLAGS.get(name, []),
                                 "--seed", "-1"])


@pytest.mark.parametrize("entries", [
    {"seed": -3}, {"seed": 10**11}, {"validation_points": 0},
    {"grid_size": 10**9}, {"grid_size": "many"},
    {"domain": [[-math.inf, 0.2]]}])
def test_chart_config_entries_outside_their_domain_exit_two(
        capsys, tmp_path, entries):
    assert_config_error(capsys, ["affine-check", "--chart",
                                 chart_file(tmp_path, **entries)])


def diagonal_quartic(tmp_path, n):
    """The chart K = sum_i x_i**4 / 12 on [0.5, 2]**n, as a config file."""
    terms = {",".join("4" if i == k else "0" for i in range(n)): 1.0 / 12
             for k in range(n)}
    path = tmp_path / f"quartic{n}.cfg"
    path.write_text(json.dumps({"potential": {"terms": terms},
                                "domain": [[0.5, 2.0]] * n}))
    return str(path)


def test_chart_above_the_dimension_cap_exits_two_before_it_is_built(
        capsys, tmp_path, monkeypatch):
    def unreachable(cfg):
        raise AssertionError("the chart was built")

    monkeypatch.setattr(ch, "chart_from_config", unreachable)
    path = diagonal_quartic(tmp_path, CHART_DIM.cap + 1)
    assert main(["affine-check", "--chart", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"configuration error: chart config {path}: "
                            f"domain dimension must be an integer in "
                            f"1..{CHART_DIM.cap}, got {CHART_DIM.cap + 1}\n")


def test_chart_at_the_dimension_cap_passes(capsys, tmp_path):
    code, rep = run_json(capsys, [
        "affine-check", "--chart", diagonal_quartic(tmp_path, CHART_DIM.cap),
        "--points", "2"])
    assert code == 0
    assert rep["data"]["dimensions"] == CHART_DIM.cap


# flags that a subcommand accepted without its suite reading them, and
# the threshold flags: each check fixes its own threshold
TOL_FLAGS = ["--tol-rank", "--tol-identity", "--tol-field"]
REMOVED_FLAGS = {
    "fm": ["--seed", *TOL_FLAGS],
    "mirror": ["--seed", *TOL_FLAGS],
    "rep-check": ["--seed", *TOL_FLAGS],
    "verify-pointwise": TOL_FLAGS,
    "affine-check": TOL_FLAGS,
    "skaid-check": TOL_FLAGS,
    "all": TOL_FLAGS,
}


@pytest.mark.parametrize("name,flag", [
    (name, flag) for name, flags in REMOVED_FLAGS.items() for flag in flags])
def test_flags_the_suite_does_not_read_exit_two(capsys, name, flag):
    assert flag not in COMMANDS[name].flags
    assert_config_error(capsys, [name, *REQUIRED_FLAGS.get(name, []),
                                 flag, "5"])


def test_each_subcommand_accepts_only_its_declared_flags():
    parser = build_parser()
    subparsers = parser._subparsers._group_actions[0].choices
    settable = 0
    for name, command in COMMANDS.items():
        options = {option for action in subparsers[name]._actions
                   for option in action.option_strings} - {"-h", "--help"}
        assert options == set(command.flags) | {"--out", "--timing"}
        settable += len(options)
    assert settable == 34


def domain_boundaries():
    """lo - 1, lo, cap and cap + 1 for every integer flag."""
    for name, command in COMMANDS.items():
        for flag, spec in command.flags.items():
            if isinstance(spec.type, Int):
                lo, cap = spec.type.lo, spec.type.cap
                for value, inside in ((lo - 1, False), (lo, True),
                                      (cap, True), (cap + 1, False)):
                    yield pytest.param(name, flag, value, inside,
                                       id=f"{name}{flag}={value}")


@pytest.mark.parametrize("name,flag,value,inside", domain_boundaries())
def test_integer_flag_domains(name, flag, value, inside):
    argv = [name, *REQUIRED_FLAGS.get(name, []), flag, str(value)]
    if inside:
        args = build_parser().parse_args(argv)
        assert getattr(args, flag.lstrip("-").replace("-", "_")) == value
    else:
        with pytest.raises(ConfigError, match=f"argument {flag}: "):
            build_parser().parse_args(argv)


@pytest.mark.parametrize("name,flag,lo", [
    (name, flag, spec.type.lo) for name, command in COMMANDS.items()
    for flag, spec in command.flags.items()
    if isinstance(spec.type, Int) and name != "all"])
def test_integer_flags_run_at_their_lower_bound(capsys, name, flag, lo):
    small = {"rep-check": ["--n", "1"],
             "skaid-check": ["--samples", "3"]}.get(name, [])
    code = main([name, *REQUIRED_FLAGS.get(name, []), *small,
                 flag, str(lo)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["pass"]


def test_skaid_check_passes_at_the_frequency_cap(capsys):
    cap = COMMANDS["skaid-check"].flags["--N"].type.cap
    code, rep = run_json(capsys, ["skaid-check", "--n", "2", "--N", str(cap),
                                  "--samples", "5"])
    assert code == 0
    worst = max(c["residual"] for c in rep["checks"])
    assert worst < rep["checks"][0]["threshold"] / 10


def test_non_convex_grid_point_is_a_failed_record(capsys, tmp_path):
    path = tmp_path / "nonconvex.cfg"
    path.write_text(json.dumps(NON_CONVEX))
    code, rep = run_json(capsys, ["affine-check", "--chart", str(path)])
    assert code == 1
    assert not rep["pass"]
    for c in rep["checks"]:
        assert c["verdict"] == "FAIL"
        assert c["residual"] == "inf"
        assert "Hessian not positive definite at [0.4]" in c["anchor"]
    assert rep["data"]["monge_ampere_residual"] == "inf"


# x**2 overflows far out on this domain, where the Hessian turns NaN
OVERFLOWING = {"potential": {"terms": {"2": 1.0}},
               "domain": [[-1.0, 1e300]], "grid_size": 5}


def test_chart_overflowing_on_its_grid_is_a_failed_report(capsys, tmp_path):
    # the one validation point, x = -1, is finite; grid points are not
    path = tmp_path / "overflow.cfg"
    path.write_text(json.dumps(dict(OVERFLOWING, validation_points=1)))
    code = main(["affine-check", "--chart", str(path)])
    rep = json.loads(capsys.readouterr().out)
    assert code == 1
    # every record, the closure of the two pairings included, meets the
    # overflowed point and names it
    assert len(rep["checks"]) == 5
    for c in rep["checks"]:
        assert c["residual"] == "inf"
        assert c["verdict"] == "FAIL"
        assert "Hessian not finite at [5.e+299]" in c["anchor"]


def test_chart_whose_inverse_metric_overflows_is_a_failed_report(capsys,
                                                                 tmp_path):
    # 1e-310 x**2 is convex, but its inverse Hessian 5e309 overflows, so
    # the total-space metric built from it is not finite
    path = chart_file(tmp_path, potential={"terms": {"2": 1e-310}})
    code, rep = run_json(capsys, ["affine-check", "--chart", path])
    assert code == 1
    checks = {c["id"]: c for c in rep["checks"]}
    for name in ("fibre-volume-product", "pointwise-compatibility"):
        assert checks[name]["residual"] == "inf"
        assert checks[name]["verdict"] == "FAIL"
        assert "metric not finite" in checks[name]["anchor"]


def test_chart_overflowing_at_a_validation_point_exits_two(capsys, tmp_path):
    path = tmp_path / "overflow.cfg"
    path.write_text(json.dumps(OVERFLOWING))
    assert main(["affine-check", "--chart", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Hessian not finite at" in captured.err


@pytest.mark.parametrize("c", [1e-305, 1e-12, 1e-7, 1e7, 1e300])
def test_convexity_is_scale_free(capsys, tmp_path, c):
    # c x**2 is convex at every scale c > 0
    path = chart_file(tmp_path, potential={"terms": {"2": c}})
    code, rep = run_json(capsys, ["affine-check", "--chart", path])
    assert code == 0
    assert all(check["verdict"] == "PASS" for check in rep["checks"])


def test_fibre_volumes_of_a_tiny_chart_do_not_overflow(capsys, tmp_path):
    # K = 1e-160 (x^2 + y^2): det g is about 4e-320 and the dual
    # determinant about 2.5e319, which overflows as a separate factor
    path = chart_file(tmp_path,
                      potential={"terms": {"2,0": 1e-160, "0,2": 1e-160}},
                      domain=[[-1.0, 1.0], [-1.0, 1.0]])
    code, rep = run_json(capsys, ["affine-check", "--chart", path])
    assert code == 0
    checks = {c["id"]: c for c in rep["checks"]}
    assert checks["fibre-volume-product"]["residual"] == 0.0
    assert all(c["verdict"] == "PASS" for c in rep["checks"])


@pytest.mark.parametrize("argv", [
    ["mirror", "--tau=1e-3i", "--t=1e3i"],
    ["fm", "--tau=1e-3i", "--t=1e3i"],
    ["mirror", "--tau=1i", "--t=1e-13i"],
    ["fm", "--tau=1i", "--t=1e-13i"],
    ["fm", "--tau=1e-150i", "--t=1e3i", f"--alpha={FIBRE_MODES}", "--j=0"],
    ["fm", "--tau=1e-150i", "--t=1e3i", f"--alpha={FIBRE_MODES}", "--j=1"],
    ["mirror", "--tau=1i", "--t=1e-14i"],
    ["fm", "--tau=1i", "--t=1e-14i"],
    ["mirror", "--tau=1e3i", "--t=1e-150i"],
    ["fm", "--tau=1e3i", "--t=1e-150i"],
    ["fm", "--tau=1e3i", "--t=1e-150i", f"--alpha={FIBRE_MODES}", "--j=0"],
    ["fm", "--tau=1e3i", "--t=1e-150i", f"--alpha={FIBRE_MODES}", "--j=1"],
], ids=["mirror-ratio-1e6", "fm-ratio-1e6", "mirror-ratio-1e-13",
        "fm-ratio-1e-13", "fm-fibre-modes-ratio-1e153-j0",
        "fm-fibre-modes-ratio-1e153-j1", "mirror-ratio-1e-14",
        "fm-ratio-1e-14", "mirror-ratio-1e-153", "fm-ratio-1e-153",
        "fm-fibre-modes-ratio-1e-153-j0", "fm-fibre-modes-ratio-1e-153-j1"])
def test_moduli_far_apart_pass(capsys, argv):
    code, rep = run_json(capsys, argv)
    assert code == 0
    assert all(c["verdict"] == "PASS" for c in rep["checks"])


@pytest.mark.parametrize("spaced,joined", [
    (["mirror", "--tau", "-0.3+0.7i", "--t", "0+1i"],
     ["mirror", "--tau=-0.3+0.7i", "--t=0+1i"]),
    (["fm", "--tau", "0+1i", "--t", "-1+1i"],
     ["fm", "--tau=0+1i", "--t=-1+1i"]),
])
def test_modulus_after_a_space_may_start_with_a_minus_sign(capsys, spaced,
                                                           joined):
    assert main(spaced) == 0
    out = capsys.readouterr().out
    assert main(joined) == 0
    assert capsys.readouterr().out == out


def test_mirror_round_trip_fails_on_a_structure_built_from_a_wrong_im_t(
        capsys, monkeypatch):
    # F built from 1.01 Im t, in its coupling and its metric, while the
    # angles and the round trip's reference keep the true t
    constant = ch.FieldStructure.constant

    def faulty(n, O1, O2, OD, h, periods=None):
        return constant(n, 1.01 * O1, O2, OD,
                        h @ np.diag([1.01, 1.01, 1 / 1.01]), periods=periods)

    monkeypatch.setattr(ch.FieldStructure, "constant", faulty)
    code, rep = run_json(capsys, ["mirror", "--tau=0.3+1.7i", "--t=-0.4+0.9i"])
    assert code == 1
    records = {c["id"]: c for c in rep["checks"]}
    assert records["mirror-round-trip"]["verdict"] == "FAIL"
    assert records["mirror-round-trip"]["residual"] == pytest.approx(9e-3)


def test_mirror_angle_just_below_zero_wraps(capsys):
    code, rep = run_json(capsys, ["mirror", "--tau=-1e-17+1i", "--t", "0+1i"])
    assert code == 0
    assert rep["data"]["invariants"]["monodromy_angle_2"] == 0.0


def test_fm_large_j_is_cheap(capsys):
    start = time.perf_counter()
    code, rep = run_json(capsys, FM + ["--alpha", "dx", "--j", "1000000"])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert rep["data"]["output"] == []


def readme_command_lines():
    text = (ROOT / "README.md").read_text()
    section = text[text.index("## Command line"):]
    block = section[section.index("```\n") + 4:]
    block = block[:block.index("```")]
    return [line.split()[1:] for line in block.splitlines()
            if line.startswith("selfdual ")]


def readme_flag_table():
    """{(subcommand, flag): domain text} from README's flag table."""
    text = (ROOT / "README.md").read_text()
    rows = text[text.index("| subcommand | flag |"):].split("\n\n")[0]
    table, name = {}, None
    for row in rows.splitlines()[2:]:
        cells = [cell.strip().strip("`") for cell in row.strip("|").split("|")]
        name = cells[0] or name
        for flag in cells[1].split("`, `"):
            table[name, flag] = cells[3]
    return table


def test_readme_flag_table_matches_the_declarations():
    table = readme_flag_table()
    declared = {(name, flag): spec for name, command in COMMANDS.items()
                for flag, spec in command.flags.items()}
    assert set(table) == set(declared)
    for key, spec in declared.items():
        if isinstance(spec.type, Int):
            assert table[key] == f"integer {spec.type.lo}..{spec.type.cap}"


@pytest.mark.parametrize("argv", readme_command_lines(),
                         ids=lambda argv: " ".join(argv))
def test_readme_command_lines_pass(capsys, monkeypatch, argv):
    monkeypatch.chdir(ROOT)
    assert main(argv) == 0
    capsys.readouterr()


def test_fm_samples_above_nyquist_accepted(capsys):
    code, rep = run_json(capsys, FM + ["--j", "1", "--samples", "7",
                                       "--alpha", ALIASED])
    assert code == 0
    assert rep["data"]["output"] == []


def test_chart_config_that_fails_validation_exits_two(capsys, tmp_path):
    concave = tmp_path / "concave.cfg"
    concave.write_text(json.dumps({"potential": {"terms": {"2": -1.0}},
                                   "domain": [[-1, 1]]}))
    broken = tmp_path / "broken.cfg"
    broken.write_text(json.dumps({"domain": [[-1, 1]]}))
    empty = tmp_path / "empty.cfg"
    empty.write_text(json.dumps({"potential": {"terms": {}}, "domain": []}))
    for path in (concave, broken, empty):
        assert main(["affine-check", "--chart", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("configuration error: chart config")


def test_nan_residual_is_a_failed_record(capsys, monkeypatch):
    monkeypatch.setattr(derham, "harmonic_action",
                        lambda n, a, b: np.full((1 << 3 * n,) * 2, np.nan))
    code, rep = run_json(capsys, ["skaid-check", "--n", "1", "--N", "2",
                                  "--samples", "3"])
    assert code == 1
    assert not rep["pass"]
    record = {c["id"]: c for c in rep["checks"]}["harmonic-invariance"]
    assert record["residual"] == "nan"
    assert record["verdict"] == "FAIL"


def test_affine_check_quartic_chart(capsys):
    code, rep = run_json(capsys, ["affine-check", "--chart", CHART,
                                  "--points", "30"])
    assert code == 0
    ids = {c["id"]: c for c in rep["checks"]}
    assert ids["dual-form-closed"]["verdict"] == "PASS"
    assert ids["dual-form-closed"]["threshold"] == 1e-8
    assert rep["data"]["grid_points"] == 30
    assert rep["data"]["dimensions"] == 1


def test_affine_check_points_default_from_config(capsys):
    code, rep = run_json(capsys, ["affine-check", "--chart", CHART])
    assert code == 0
    assert rep["data"]["grid_points"] == 200


def test_fm_constant_gives_single_fibre_form(capsys):
    code, rep = run_json(capsys, ["fm", "--tau", "0+1i", "--t", "0+1i",
                                  "--alpha", "1", "--j", "1"])
    assert code == 0
    out = rep["data"]["output"]
    assert out == [{"axes": [1], "freq": [0, 0], "cos": 1.0, "sin": 0.0}]


def test_fm_inline_json_alpha(capsys):
    table = json.dumps({"terms": [{"axes": [1], "freq": [1, 0],
                                   "cos": 1.0}]})
    code, rep = run_json(capsys, ["fm", "--tau", "0+1i", "--t", "0+1i",
                                  "--alpha", table, "--j", "0"])
    assert code == 0
    out = rep["data"]["output"]
    assert out == [{"axes": [], "freq": [1, 0], "cos": 1.0, "sin": 0.0}]


# a table entry that is not an integer is refused, not rounded or split
NOT_INTEGERS = {
    "freq-half": {"axes": [1], "freq": [0.5, 0]},
    "freq-fraction": {"axes": [1], "freq": [1.9, 0]},
    "freq-string": {"axes": [1], "freq": "12"},
    "freq-bool": {"axes": [1], "freq": [True, 0]},
    "axes-string": {"axes": "01"},
}


@pytest.mark.parametrize("term", NOT_INTEGERS.values(),
                         ids=NOT_INTEGERS.keys())
def test_fm_table_entries_must_be_integers(capsys, term):
    assert_config_error(
        capsys, FM + ["--alpha", json.dumps({"terms": [term]})])


def test_fm_table_reads_integral_floats(capsys):
    tables = [json.dumps({"terms": [{"axes": axes, "freq": freq}]})
              for axes, freq in (([1], [1, 0]), ([1.0], [1.0, 0.0]))]
    (code, want), (float_code, got) = [
        run_json(capsys, FM + ["--alpha", table]) for table in tables]
    assert code == float_code == 0
    assert got["data"] == want["data"]


def test_rep_check_dimensions(capsys):
    code, rep = run_json(capsys, ["rep-check", "--n", "1"])
    assert code == 0
    assert rep["data"]["closure_dimension"] == 15
    assert rep["data"]["single_pairing_dimension"] == 3
    families = [c for c in rep["checks"] if c["id"].startswith("bracket-")]
    assert len(families) == 5
    chev = [c for c in rep["checks"] if c["id"].startswith("chevalley-")]
    assert len(chev) == 10


def test_skaid_check_small(capsys):
    code, rep = run_json(capsys, ["skaid-check", "--n", "1", "--N", "2",
                                  "--samples", "8"])
    assert code == 0
    assert len(rep["checks"]) == 5
    assert rep["checks"][0]["threshold"] == 1e-10


def test_out_file_and_timing_routing(capsys, tmp_path):
    target = tmp_path / "report.json"
    code = main(["rep-check", "--n", "1", "--out", str(target), "--timing"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    assert "wall time" in captured.err
    rep = json.loads(target.read_text())
    assert rep["pass"]
    assert "wall time" not in target.read_text()


def test_all_collects_suites_deterministically(capsys):
    code, rep = run_json(capsys, ["all"])
    assert code == 0
    assert [r["suite"] for r in rep["reports"]] == [
        "verify-pointwise", "mirror", "fm", "rep-check", "skaid-check"]
    main(["all"])
    first = capsys.readouterr().out
    main(["all"])
    second = capsys.readouterr().out
    assert first == second


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "selfdual.cli", "mirror",
         "--tau", "0.5+2i", "--t", "0+0.25i"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["pass"]
    assert proc.stderr == ""


# ---------------------------------------------------------------------------
# the command-line contract under arbitrary flag values


# real parts at the wrap of the monodromy angle
WRAP_REALS = [1e-17, -1e-17, -1.0, math.nextafter(1.0, 0.0)]


def flag_text():
    """Arbitrary text, and numbers of every size written as flag values."""
    floats = st.one_of(st.floats(), st.sampled_from(WRAP_REALS))
    return st.one_of(
        st.text(max_size=12), floats.map(repr),
        st.tuples(floats, floats).map(lambda ab: f"{ab[0]!r}{ab[1]:+}i"))


def flag_int(lo, hi):
    return st.one_of(st.integers(lo, hi).map(str), st.text(max_size=4))


def flag_alpha():
    term = st.fixed_dictionaries({
        "axes": st.lists(st.integers(-1, 2), max_size=2),
        "freq": st.lists(st.integers(-3, 3), min_size=2, max_size=2),
        "cos": st.floats(), "sin": st.floats()})
    tables = st.lists(term, max_size=2).map(
        lambda terms: json.dumps({"terms": terms}))
    return st.one_of(st.sampled_from(["1", "dx", "dy1", "dy2", "dx^dy1",
                                      "dx^dy2"]), tables, st.text(max_size=8))


CHEAP_COMMANDS = st.one_of(
    st.tuples(st.just("mirror"), st.fixed_dictionaries({
        "--tau": flag_text(), "--t": flag_text()})),
    st.tuples(st.just("fm"), st.fixed_dictionaries({
        "--tau": flag_text(), "--t": flag_text(), "--alpha": flag_alpha(),
        "--j": flag_int(-2, 4), "--samples": flag_int(-2, 70)})),
    st.tuples(st.just("verify-pointwise"), st.fixed_dictionaries({
        "--n": flag_int(-1, 3), "--s": flag_int(-1, 3),
        "--trials": flag_int(-1, 3), "--seed": flag_int(-3, 10**6)})),
    st.tuples(st.just("skaid-check"), st.fixed_dictionaries({
        "--n": st.just("1"), "--N": flag_int(-2, 3),
        "--samples": flag_int(-1, 4), "--seed": flag_int(-3, 10**6)})),
    st.tuples(st.just("affine-check"), st.fixed_dictionaries({
        "--chart": st.just(CHART), "--points": flag_int(-1, 4),
        "--seed": flag_int(-3, 10**6)})),
    st.tuples(st.just("rep-check"), st.fixed_dictionaries({
        "--n": flag_int(-1, 1)})),
)


@settings(max_examples=200, deadline=None)
@given(CHEAP_COMMANDS)
def test_cli_contract_holds_for_any_flag_values(command):
    name, flags = command
    argv = [name] + [f"{flag}={value}" for flag, value in flags.items()]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code in (0, 1):
        report = json.loads(out.getvalue())
        assert report["pass"] is (code == 0)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("configuration error:")
        assert err.getvalue().count("\n") == 1
    assert "Traceback" not in err.getvalue()


def chart_config():
    """Small chart configs: polynomial or log-sum-exp potentials in one
    or two dimensions, any coefficients, boxes and sizes, scales from
    subnormal to near overflow included; and, about as often, a valid
    config around one scaled quadratic c x^2 or c (x^2 + y^2), which
    only its scale c can break."""
    # decades near underflow and overflow drawn as often as the middle
    decade = st.one_of(st.integers(-320, -290), st.integers(-289, 289),
                       st.integers(290, 308))
    scaled = st.builds(lambda m, e: m * 10.0**e, st.floats(0.5, 2), decade)
    scaled_quadratic = st.builds(
        lambda c, keys, lo, width, size, points, seed: {
            "potential": {"terms": dict.fromkeys(keys, c)},
            "domain": [[lo, lo + width]] * len(keys), "grid_size": size,
            "validation_points": points, "seed": seed},
        scaled, st.sampled_from([["2"], ["2,0", "0,2"]]), st.floats(-3, 3),
        st.floats(1e-3, 3), st.integers(1, 6), st.integers(1, 6),
        st.integers(0, 200))
    number = st.one_of(st.floats(-3, 3), st.floats(), st.integers(-2, 4),
                       scaled)
    polynomial = st.dictionaries(
        st.sampled_from(["0", "1", "2", "3", "4", "2,0", "0,2", "1,1"]),
        number, max_size=3).map(lambda terms: {"terms": terms})
    log_sum_exp = st.lists(number, min_size=1, max_size=2).map(
        lambda w: {"type": "log_sum_exp", "weights": w,
                   "offsets": [[x] for x in w]})
    return st.one_of(st.fixed_dictionaries({
        "potential": st.one_of(polynomial, log_sum_exp),
        "domain": st.lists(st.tuples(number, number), min_size=1,
                           max_size=2),
        "grid_size": st.one_of(st.integers(-1, 6), number),
        "validation_points": st.integers(-1, 6),
        "seed": st.one_of(st.integers(-2, 200), number)}), scaled_quadratic)


# no shrink phase: a failing example is reported as found, in seconds
# rather than minutes
@settings(max_examples=150, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
@given(chart_config())
def test_affine_check_contract_holds_for_any_chart_config(tmp_path_factory,
                                                          cfg):
    path = tmp_path_factory.mktemp("chart") / "fuzz.cfg"
    path.write_text(json.dumps(cfg))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["affine-check", "--chart", str(path)])
    assert code in (0, 1, 2)
    if code in (0, 1):
        assert json.loads(out.getvalue())["pass"] is (code == 0)
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("configuration error:")


@pytest.mark.parametrize("tau_re", WRAP_REALS)
@pytest.mark.parametrize("t_re", WRAP_REALS)
def test_mirror_passes_at_the_angle_wrap(capsys, tau_re, t_re):
    code = main(["mirror", f"--tau={tau_re!r}+1i", f"--t={t_re!r}+2i"])
    capsys.readouterr()
    assert code == 0
