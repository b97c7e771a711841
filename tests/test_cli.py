import json
import subprocess
import sys

import pytest

from selfdual.cli import ConfigError, main, parse_complex

CHART = "demos/charts/quartic1d.cfg"


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
