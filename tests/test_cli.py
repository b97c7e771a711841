import contextlib
import io
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selfdual import derham
from selfdual.cli import ConfigError, main, parse_complex

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
], ids=["mirror-nan", "mirror-inf", "pointwise-trials-0", "skaid-samples-0",
        "affine-points-0", "fm-below-nyquist", "fm-samples-0", "fm-nan-table",
        "fm-freq-not-a-list", "fm-axis-outside", "tol-nan", "tol-inf"])
def test_rejected_inputs_exit_two(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error:")


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


def flag_text():
    """Arbitrary text, and numbers of every size written as flag values."""
    floats = st.floats()
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
)


@settings(max_examples=200, deadline=None)
@given(CHEAP_COMMANDS)
def test_cli_contract_holds_for_any_flag_values(command):
    name, flags = command
    argv = [name]
    for flag, value in flags.items():
        argv += [flag, value]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejecting a flag value
            code = exc.code
    assert code in (0, 1, 2)
    if code in (0, 1):
        report = json.loads(out.getvalue())
        assert report["pass"] is (code == 0)
    assert "Traceback" not in err.getvalue()
