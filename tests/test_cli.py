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
from hypothesis import given, settings, strategies as st

from selfdual import derham
from selfdual.cli import COMMANDS, ConfigError, Int, build_parser, main, \
    parse_complex

ROOT = Path(__file__).resolve().parent.parent
CHART = "demos/charts/quartic1d.cfg"
# cos(2 pi 6 y1): three fibre samples alias it to a constant
ALIASED = json.dumps({"terms": [{"axes": [], "freq": [0, 6], "cos": 1.0}]})


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
    assert rep["config"]["tol"] == 1e-12


def test_byte_determinism_fixed_seed(capsys):
    main(["verify-pointwise", "--n", "2", "--trials", "5", "--seed", "3"])
    first = capsys.readouterr().out
    main(["verify-pointwise", "--n", "2", "--trials", "5", "--seed", "3"])
    second = capsys.readouterr().out
    assert first == second
    main(["verify-pointwise", "--n", "2", "--trials", "5", "--seed", "4"])
    assert capsys.readouterr().out != first


def test_unreachable_threshold_exits_one(capsys):
    code = main(["mirror", "--tau", "0+1i", "--t", "0+0.5i",
                 "--tol-identity", "1e-300"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 1
    assert not rep["pass"]
    verdicts = {c["id"]: c["verdict"] for c in rep["checks"]}
    assert verdicts["mirror-round-trip"] == "FAIL"
    assert verdicts["full-closed_forms"] == "PASS"


def test_config_errors_exit_two(capsys):
    assert main(["mirror", "--tau", "zzz", "--t", "0+1i"]) == 2
    assert main(["affine-check", "--chart", "/does/not/exist.cfg"]) == 2
    assert main(["verify-pointwise", "--n", "0"]) == 2
    assert main(["rep-check", "--n", "1", "--tol-identity", "-1"]) == 2
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
    ["rep-check", "--n", "1", "--tol-identity", "nan"],
    ["rep-check", "--n", "1", "--tol-identity", "inf"],
    ["skaid-check", "--N", "-1"],
    ["skaid-check", "--N", "0"],
    ["skaid-check", "--N", str(10**19)],
    ["affine-check", "--chart", CHART, "--seed", "100000000000"],
    ["mirror", "--t", "0+1i"],
    ["mirror", "--tau", "0+1i", "--t", "0+1i", "--bogus", "1"],
    ["mirror", "--tau", "0+1i", "--t", "0-1i"],
    ["mirror", "--tau", "0+1e-3i", "--t", "0+1e2i"],
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
        "fm-freq-not-a-list", "fm-axis-outside", "tol-nan", "tol-inf",
        "skaid-N--1", "skaid-N-0", "skaid-N-1e19", "affine-seed-1e11",
        "mirror-missing-tau", "unknown-flag", "lower-half-plane",
        "moduli-ratio-1e5", "moduli-ratio-overflow", "moduli-underflow",
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


# flags that a subcommand accepted without its suite reading them
REMOVED_FLAGS = {
    "fm": ["--seed", "--tol-rank", "--tol-identity", "--tol-field"],
    "mirror": ["--seed", "--tol-rank", "--tol-field"],
    "rep-check": ["--seed", "--tol-rank", "--tol-field"],
    "verify-pointwise": ["--tol-identity", "--tol-field"],
    "affine-check": ["--tol-rank", "--tol-identity"],
    "skaid-check": ["--tol-rank", "--tol-field"],
    "all": ["--tol-field"],
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
    assert settable == 41


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


@pytest.mark.parametrize("name,flag", [
    (name, flag) for name, command in COMMANDS.items()
    for flag in command.flags if flag.startswith("--tol-")])
def test_tolerance_flag_domains(name, flag):
    parser = build_parser()
    base = [name, *REQUIRED_FLAGS.get(name, [])]
    for text in ("5e-324", "1e308"):
        args = parser.parse_args(base + [flag, text])
        assert getattr(args, flag[2:].replace("-", "_")) == float(text)
    for text in ("0", "-1e-300", "inf", "nan", "1e999", "tight"):
        with pytest.raises(ConfigError, match=f"argument {flag}: "):
            parser.parse_args(base + [flag, text])


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


# the jets overflow with a numpy warning, which does not reach the report
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_chart_overflowing_on_its_grid_is_a_failed_report(capsys, tmp_path):
    # x**2 overflows far out on the domain, where the Hessian turns NaN
    path = tmp_path / "overflow.cfg"
    path.write_text(json.dumps({"potential": {"terms": {"2": 1.0}},
                                "domain": [[-1.0, 1e300]], "grid_size": 5}))
    code = main(["affine-check", "--chart", str(path)])
    rep = json.loads(capsys.readouterr().out)
    assert code == 1
    record = {c["id"]: c for c in rep["checks"]}["fibre-volume-product"]
    assert record["verdict"] == "FAIL"
    assert "Hessian not finite" in record["anchor"]


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
    for path in (concave, broken):
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


def test_skaid_check_honours_tol_identity(capsys):
    code, rep = run_json(capsys, ["skaid-check", "--n", "1", "--N", "2",
                                  "--samples", "3", "--tol-identity",
                                  "1e-30"])
    assert code == 1
    assert rep["config"]["tol"] == 1e-30
    identities = [c for c in rep["checks"] if c["id"].startswith("identity-")]
    assert all(c["threshold"] == 1e-30 for c in identities)
    assert any(c["verdict"] == "FAIL" for c in identities)


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
        "--tau": flag_text(), "--t": flag_text(),
        "--tol-identity": flag_text()})),
    st.tuples(st.just("fm"), st.fixed_dictionaries({
        "--tau": flag_text(), "--t": flag_text(), "--alpha": flag_alpha(),
        "--j": flag_int(-2, 4), "--samples": flag_int(-2, 70)})),
    st.tuples(st.just("verify-pointwise"), st.fixed_dictionaries({
        "--n": flag_int(-1, 3), "--s": flag_int(-1, 3),
        "--trials": flag_int(-1, 3), "--seed": flag_int(-3, 10**6)})),
    st.tuples(st.just("skaid-check"), st.fixed_dictionaries({
        "--n": st.just("1"), "--N": flag_int(-2, 3),
        "--samples": flag_int(-1, 4), "--seed": flag_int(-3, 10**6),
        "--tol-identity": flag_text()})),
    st.tuples(st.just("affine-check"), st.fixed_dictionaries({
        "--chart": st.just(CHART), "--points": flag_int(-1, 4),
        "--seed": flag_int(-3, 10**6), "--tol-field": flag_text()})),
    st.tuples(st.just("rep-check"), st.fixed_dictionaries({
        "--n": st.just("1"), "--tol-identity": flag_text()})),
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
    or two dimensions, any coefficients, boxes and sizes."""
    number = st.one_of(st.floats(-3, 3), st.floats(), st.integers(-2, 4))
    polynomial = st.dictionaries(
        st.sampled_from(["0", "1", "2", "3", "4", "2,0", "0,2", "1,1"]),
        number, max_size=3).map(lambda terms: {"terms": terms})
    log_sum_exp = st.lists(number, min_size=1, max_size=2).map(
        lambda w: {"type": "log_sum_exp", "weights": w,
                   "offsets": [[x] for x in w]})
    return st.fixed_dictionaries({
        "potential": st.one_of(polynomial, log_sum_exp),
        "domain": st.lists(st.tuples(number, number), min_size=1,
                           max_size=2),
        "grid_size": st.one_of(st.integers(-1, 6), number),
        "validation_points": st.integers(-1, 6),
        "seed": st.one_of(st.integers(-2, 200), number)})


# a chart may overflow the jets, which numpy reports as a warning
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150, deadline=None)
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
