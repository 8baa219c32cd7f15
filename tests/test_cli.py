"""Command-line interface: schemas, exit codes, determinism, env overrides."""

import io
import json

import pytest

from pwlannulus import HalfSystem, Orientation, cli, make_context
from pwlannulus.displacement import scan_grid


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(argv):
    out = io.StringIO()
    cfg = cli.parse_config(argv)
    code = cli.run(cfg, out)
    return code, out.getvalue()


@pytest.fixture
def annulus_file(tmp_path):
    # proportional-W family with k = 4 in canonical-entry form
    return write_json(tmp_path, "annulus.json", {
        "TL": -2.0, "DL": 4.0, "aL": -2.0,
        "TR": 1.0, "DR": 1.0, "aR": 1.0, "b": 0.0})


@pytest.fixture
def raw_file(tmp_path):
    return write_json(tmp_path, "raw.json", {
        "AL": [0, 1, -1, 0], "bL": [0, 0],
        "AR": [1, 2, -1, -1], "bR": [1, 0]})


@pytest.fixture
def no_crossing_file(tmp_path):
    return write_json(tmp_path, "nocross.json", {
        "AL": [0, 1, -1, 0], "bL": [0, 0],
        "AR": [0, -1, 1, 0], "bR": [0, 0]})


def test_classify_annulus_json(annulus_file):
    code, text = run_cli(["--input", annulus_file, "--cmd", "classify"])
    assert code == 0
    payload = json.loads(text)
    assert payload["verdict"] == "crossing-period-annulus"
    names = {r["name"] for r in payload["records"]}
    assert {"H-crossing", "trace-balance", "xi0", "xi-inf", "beta"} <= names
    assert payload["sliding"] is None


def test_classify_raw_schema(raw_file):
    code, text = run_cli(["--input", raw_file, "--cmd", "classify", "--format", "csv"])
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "record,value,status"
    assert lines[1].startswith("verdict,")


def test_verdict_is_success_even_when_negative(no_crossing_file):
    code, text = run_cli(["--input", no_crossing_file, "--cmd", "classify"])
    assert code == 0
    assert json.loads(text)["verdict"] == "no-period-annulus"


def test_halfmap_table(annulus_file):
    code, text = run_cli(["--input", annulus_file, "--cmd", "halfmap",
                          "--grid", "8", "--span", "4.0"])
    assert code == 0
    payload = json.loads(text)
    assert len(payload["rows"]) == 8
    row = payload["rows"][3]
    assert row["yL"] == pytest.approx(row["yRb"], abs=1e-8)


def test_halfmap_precondition_exit(no_crossing_file):
    code, _ = run_cli(["--input", no_crossing_file, "--cmd", "halfmap"])
    assert code == 2


def test_displacement_reports_annulus(annulus_file):
    code, text = run_cli(["--input", annulus_file, "--cmd", "displacement",
                          "--grid", "16", "--span", "5.0"])
    assert code == 0
    payload = json.loads(text)
    assert payload["zeros"] == [{"y0": pytest.approx(payload["zeros"][0]["y0"]),
                                 "kind": "annulus-candidate"}]
    assert all(abs(r["delta"]) < 1e-8 for r in payload["rows"])


@pytest.mark.parametrize("command", ["halfmap", "displacement"])
def test_table_rows_follow_the_scan_grid(annulus_file, command):
    code, text = run_cli(["--input", annulus_file, "--cmd", command,
                          "--grid", "16", "--span", "5.0"])
    assert code == 0
    ctx = make_context(HalfSystem(-2.0, -2.0, 4.0),
                       HalfSystem(1.0, 1.0, 1.0, orientation=Orientation.BACKWARD))
    assert [r["y0"] for r in json.loads(text)["rows"]] == scan_grid(ctx, 16, span=5.0)


def test_half_map_overflow_exit(tmp_path, capsys):
    # the left half-map has a = 0 and a slope exp(pi*T/sqrt(4D - T^2)) beyond
    # the double range
    path = write_json(tmp_path, "overflow.json", {
        "TL": 1, "DL": 0.25000000000025, "aL": 0,
        "TR": -1, "DR": 1, "aR": 1, "b": 0})
    code, text = run_cli(["--input", path, "--cmd", "displacement"])
    assert code == 2
    assert text == ""
    assert "half-map value exceeds the double range" in capsys.readouterr().err


def test_portrait_samples(annulus_file):
    code, text = run_cli(["--input", annulus_file, "--cmd", "portrait",
                          "--grid", "16", "--span", "4.0"])
    assert code == 0
    payload = json.loads(text)
    legs = {(r["orbit"], r["leg"]) for r in payload["rows"]}
    assert len(legs) == 16  # 8 orbits, two legs each
    by_leg = {}
    for r in payload["rows"]:
        by_leg.setdefault((r["orbit"], r["leg"]), []).append(r)
    for rows in by_leg.values():
        assert len(rows) == 16
        assert rows[0]["x"] == 0.0  # every leg starts on the switching line


def test_sweep_deterministic(annulus_file):
    argv = ["--input", annulus_file, "--cmd", "sweep", "--grid", "12",
            "--seed", "7", "--span", "0.05", "--format", "csv"]
    code1, text1 = run_cli(argv)
    code2, text2 = run_cli(argv)
    assert code1 == code2 == 0
    assert text1 == text2
    assert text1.splitlines()[0] == "index,verdict,xi0,xi_inf,beta"
    assert len(text1.splitlines()) == 13


def test_table_commands_rerun_identically(annulus_file):
    for cmd in ("halfmap", "displacement", "portrait"):
        argv = ["--input", annulus_file, "--cmd", cmd, "--grid", "8",
                "--span", "3.0"]
        _, first = run_cli(argv)
        _, second = run_cli(argv)
        assert first == second


def test_sweep_seed_changes_output(annulus_file):
    _, a = run_cli(["--input", annulus_file, "--cmd", "sweep", "--grid", "6",
                    "--seed", "1", "--format", "csv"])
    _, b = run_cli(["--input", annulus_file, "--cmd", "sweep", "--grid", "6",
                    "--seed", "2", "--format", "csv"])
    assert a != b


def test_malformed_unknown_key(tmp_path):
    path = write_json(tmp_path, "bad.json", {
        "AL": [0, 1, -1, 0], "bL": [0, 0], "AR": [1, 2, -1, -1], "bR": [1, 0],
        "extra": 1})
    assert cli.main(["--input", path, "--cmd", "classify"]) == 1


def test_malformed_nonfinite(tmp_path):
    path = write_json(tmp_path, "nan.json", {
        "AL": [0, 1, -1, None], "bL": [0, 0], "AR": [1, 2, -1, -1], "bR": [1, 0]})
    assert cli.main(["--input", path, "--cmd", "classify"]) == 1


def test_malformed_mixed_schema(tmp_path):
    path = write_json(tmp_path, "mixed.json", {
        "AL": [0, 1, -1, 0], "bL": [0, 0], "AR": [1, 2, -1, -1], "bR": [1, 0],
        "TL": 1.0})
    assert cli.main(["--input", path, "--cmd", "classify"]) == 1


def test_missing_input_flag():
    assert cli.main(["--cmd", "classify"]) == 1


def test_unknown_tolerance_name(annulus_file):
    assert cli.main(["--input", annulus_file, "--cmd", "classify",
                     "--tol", "bogus=1e-9"]) == 1


def test_env_overrides(annulus_file, monkeypatch, capsys):
    monkeypatch.setenv("PWLANNULUS_INPUT", annulus_file)
    monkeypatch.setenv("PWLANNULUS_CMD", "classify")
    monkeypatch.setenv("PWLANNULUS_FORMAT", "json")
    assert cli.main([]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "crossing-period-annulus"


def test_flag_beats_env(annulus_file, no_crossing_file, monkeypatch, capsys):
    monkeypatch.setenv("PWLANNULUS_INPUT", no_crossing_file)
    assert cli.main(["--input", annulus_file, "--cmd", "classify"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "crossing-period-annulus"


def test_classify_tolerance_override(tmp_path):
    # beta = 1e-9 off the annulus manifold: strict by default, annulus with a
    # loose tolerance
    path = write_json(tmp_path, "near.json", {
        "TL": -2.0, "DL": 4.0, "aL": -2.0,
        "TR": 1.0, "DR": 1.0, "aR": 1.0, "b": 1e-9})
    code, text = run_cli(["--input", path, "--cmd", "classify"])
    assert json.loads(text)["verdict"] == "no-period-annulus"
    code, text = run_cli(["--input", path, "--cmd", "classify",
                          "--tol", "classify=1e-6"])
    assert json.loads(text)["verdict"] == "crossing-period-annulus"
