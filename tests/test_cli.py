"""Command-line interface: schemas, exit codes, determinism, env overrides."""

import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pwlannulus import (DomainError, HalfSystem, Orientation, cli, from_canonical,
                        halfmap, make_context, to_canonical)
from pwlannulus.displacement import scan, scan_window


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
    lo, hi = scan_window(ctx, span=5.0)   # the rows split the window in 16 equal steps
    assert [r["y0"] for r in json.loads(text)["rows"]] == [lo + i * ((hi - lo) / 16)
                                                          for i in range(16)]


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


@pytest.mark.parametrize("command", ["halfmap", "displacement", "portrait"])
def test_q_overflow_exit(tmp_path, capsys, command):
    # the right map's q = -2*pi*TR/(DR*sqrt(4DR - TR^2)) is about 3.1e308
    path = write_json(tmp_path, "q.json", {
        "TL": 1, "DL": 1, "aL": 1, "TR": -1e-160, "DR": 1e-312, "aR": 1, "b": 0})
    code, text = run_cli(["--input", path, "--cmd", command])
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err == "error: DomainError: q exceeds the double range\n"


@pytest.mark.parametrize("command", ["halfmap", "displacement", "portrait"])
def test_a_span_below_the_resolution_of_lam_exits_2(annulus_file, capsys, command):
    # lam = 12.18...: lam + 1e-300 rounds to lam, so the scan window is
    # empty; displacement reported an annulus candidate at the fold orbit
    code, text = run_cli(["--input", annulus_file, "--cmd", command, "--span", "1e-300"])
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == ("error: PreconditionError: span is below the "
                                       "resolution of lam: the scan window is empty\n")


def test_typed_errors_name_their_class(tmp_path, capsys):
    # the lambda solve of the left map finds no upper bracket: a solver
    # failure, not a precondition
    path = write_json(tmp_path, "noconv.json", {
        "TL": -1, "DL": 0.25000000000025, "aL": -1,
        "TR": -1, "DR": 1, "aR": 1, "b": 0})
    code, text = run_cli(["--input", path, "--cmd", "halfmap"])
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err == (
        "error: ConvergenceError: no upper bracket for the domain endpoint\n")


@pytest.mark.parametrize("command", ["halfmap", "displacement"])
def test_table_commands_evaluate_each_map_once_per_row(annulus_file, command,
                                                       monkeypatch):
    # one solve binds one residual closure, whether a cold evaluate or a
    # scan row warm-started from the row before makes it; the domain's lambda
    # solve binds one per step, and those are not counted
    calls = []
    residual, solve_lambda = halfmap._residual, halfmap._solve_lambda

    def counted(h, y0):
        calls.append(y0)
        return residual(h, y0)

    def uncounted_lambda(h):
        n = len(calls)
        try:
            return solve_lambda(h)
        finally:
            del calls[n:]

    monkeypatch.setattr(halfmap, "_residual", counted)
    monkeypatch.setattr(halfmap, "_solve_lambda", uncounted_lambda)
    code, _ = run_cli(["--input", annulus_file, "--cmd", command, "--grid", "32"])
    assert code == 0
    assert len(calls) == 2 * 32


def test_halfmap_slope_of_the_shifted_right_map(tmp_path):
    entries = {"TL": 0.5, "DL": 1.0, "aL": -1.0, "TR": -0.5, "DR": 1.3, "aR": 2.0,
               "b": 0.3}
    code, text = run_cli(["--input", write_json(tmp_path, "shifted.json", entries),
                          "--cmd", "halfmap", "--grid", "16"])
    assert code == 0
    canon = to_canonical(from_canonical(
        a_left=-1.0, trace_left=0.5, det_left=1.0,
        a_right=2.0, trace_right=-0.5, det_right=1.3, offset=0.3))
    right, b = canon.right, canon.b
    assert b != 0.0
    rows = json.loads(text)["rows"]
    scanned = scan(make_context(canon.left, right, b), 16).rows
    assert len(rows) == len(scanned)
    for row, (y0, _, yr, _) in zip(rows, scanned):
        # the scan's right value, shifted; within 1e-13 of a cold solve
        assert row["y0"] == y0 and row["yRb"] == yr + b
        cold = halfmap.evaluate(right, y0 - b)
        assert abs(yr - cold) <= 1e-13 * abs(cold)
        assert abs(row["yRb"] - (cold + b)) <= 1e-13 * abs(cold)
        try:
            want = halfmap.slope(right, y0 - b, yr)
        except DomainError:
            want = None
        assert row["dyRb"] == want


def test_displacement_on_annulus_with_a_right_focus_and_tr_negative(tmp_path):
    # aR > 0, TR < 0: delta vanishes on the first row y0 = lam = 0 as well,
    # which is no crossing orbit and gets no f_sign
    path = write_json(tmp_path, "fold.json", {
        "TL": 1, "DL": 1, "aL": -1, "TR": -1, "DR": 1, "aR": 1, "b": 0})
    code, text = run_cli(["--input", path, "--cmd", "displacement", "--grid", "16"])
    assert code == 0
    payload = json.loads(text)
    assert [r["f_sign"] for r in payload["rows"]] == [None] + [0] * 15
    assert [z["kind"] for z in payload["zeros"]] == ["annulus-candidate"]


def test_portrait_flow_overflow_exit(tmp_path, capsys):
    path = write_json(tmp_path, "overflow.json", {
        "TL": 1, "DL": 0.25000000000025, "aL": 0,
        "TR": -1, "DR": 1, "aR": 1, "b": 0})
    code, text = run_cli(["--input", path, "--cmd", "portrait"])
    assert code == 2
    assert text == ""
    assert "flow exceeds the double range" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["halfmap", "displacement", "portrait"])
def test_overflowing_invariants_exit(tmp_path, capsys, command):
    # DL = 1e400 + 1e400 is not a finite double
    path = write_json(tmp_path, "huge.json", {
        "AL": [1e200, -1e200, 1e200, 1e200], "bL": [0, 1],
        "AR": [1, -1, 1, 0], "bR": [0, 1]})
    code, text = run_cli(["--input", path, "--cmd", command])
    assert code == 2
    assert text == ""
    assert "DL exceeds the double range" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["halfmap", "displacement"])
def test_tables_with_a_tiny_determinant(tmp_path, command):
    path = write_json(tmp_path, "tiny.json", {
        "TL": 0, "DL": 1e-300, "aL": -1, "TR": 0, "DR": 1, "aR": 1, "b": 0})
    code, text = run_cli(["--input", path, "--cmd", command, "--grid", "8"])
    assert code == 0
    payload = json.loads(text)
    for row in payload["rows"]:
        if command == "halfmap":
            assert row["yL"] == pytest.approx(-row["y0"], rel=1e-14)
        else:
            assert abs(row["delta"]) <= 1e-14 * max(1.0, row["y0"])
    if command == "displacement":
        assert [z["kind"] for z in payload["zeros"]] == ["annulus-candidate"]


def test_sweep_past_the_double_range_exit(tmp_path, capsys):
    # a half-width of 1e308 sends the first perturbed raw entry past the double range
    path = write_json(tmp_path, "huge.json", {
        "TL": 1e308, "DL": 1, "aL": -1, "TR": -1, "DR": 1, "aR": 1, "b": 0})
    code, text = run_cli(["--input", path, "--cmd", "sweep", "--span", "1e308"])
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err == "error: PreconditionError: aL11 must be a finite real\n"


def test_portrait_with_an_infinite_equilibrium_exit(tmp_path, capsys):
    path = write_json(tmp_path, "tiny.json", {
        "TL": 0, "DL": 1e-320, "aL": -1, "TR": 0, "DR": 1, "aR": 1, "b": 0})
    code, text = run_cli(["--input", path, "--cmd", "portrait"])
    assert code == 2
    assert text == ""
    assert "zone equilibrium a/D exceeds the double range" in capsys.readouterr().err


@pytest.mark.parametrize("system, command", [
    *(pytest.param("annulus_file", c, id=c) for c in cli.COMMANDS),
    *(pytest.param("raw_file", c, id=f"raw_file-{c}") for c in cli.COMMANDS)])
def test_csv_cells_are_the_json_values(request, system, command):
    # the csv table is csv.writer's bytes for the json document's rows, so
    # no command writes a cell that the emitter's plain csv would misquote
    argv = ["--input", request.getfixturevalue(system), "--cmd", command, "--grid", "8"]
    code, text = run_cli(argv)
    assert code == 0
    doc = json.loads(text)
    if command == "classify":
        header = ("record", "value", "status")
        rows = [("verdict", doc["verdict"], "")]
        rows += [(r["name"], r["value"], "pass" if r["passed"] else "fail")
                 for r in doc["records"]]
        if doc["sliding"] is not None:
            rows.append(("sliding", *doc["sliding"]))
    else:
        header = [k for k in doc["rows"][0] if k != "params"]
        rows = [[row[k] for k in header] for row in doc["rows"]]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    assert run_cli(argv + ["--format", "csv"]) == (0, out.getvalue())
    if system == "raw_file" and command == "classify":
        assert out.getvalue().splitlines()[-1].startswith("sliding,")   # beta != 0


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


@pytest.mark.parametrize("name, value", [("GRID", "abc"), ("SPAN", "abc"), ("SEED", "x")])
def test_bad_env_value_exits_like_a_bad_flag(annulus_file, monkeypatch, capsys,
                                             name, value):
    monkeypatch.setenv("PWLANNULUS_" + name, value)
    argv = ["--input", annulus_file, "--cmd", "sweep"]
    assert cli.main(argv) == 1
    kind = "float" if name == "SPAN" else "int"
    assert capsys.readouterr().err == (
        f"error: argument --{name.lower()}: invalid {kind} value: '{value}'\n")
    assert cli.main(argv + [f"--{name.lower()}", "3"]) == 0  # the flag wins


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


def test_portrait_leaves_out_a_leg_the_oracle_refuses(tmp_path, capsys):
    # right: a = 0 focus with 4D - T^2 = 4e-4, whose returns land about
    # exp(-157)*y0 below 0, where the crossing is tangential within the
    # oracle's tolerance; left: T = D = 0, a parabola that returns at -y0.
    # Each leg left out is named on stderr, and the exit stays 0
    path = write_json(tmp_path, "tangent.json", {
        "TL": 0.0, "DL": 0.0, "aL": 1.0, "TR": 1.0, "DR": 0.2501, "aR": 0.0, "b": 0.0})
    code, text = run_cli(["--input", path, "--cmd", "portrait", "--grid", "4",
                          "--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(text)))
    assert [(r["orbit"], r["leg"]) for r in rows] == [
        (str(i), "left") for i in range(cli.PORTRAIT_ORBITS) for _ in range(4)]
    assert capsys.readouterr().err.splitlines() == [
        f"warning: orbit {i} right leg left out: TangencyError: non-transversal crossing"
        for i in range(cli.PORTRAIT_ORBITS)]


# -- refusals: each exits 1 with one line on stderr ---------------------------

@pytest.fixture
def no_env(monkeypatch):
    for name in ("INPUT", "CMD", "TOL", "GRID", "SPAN", "SEED", "FORMAT"):
        monkeypatch.delenv(cli.ENV_PREFIX + name, raising=False)
    return monkeypatch


@pytest.mark.parametrize("item, message", [
    ("classify", "--tol expects name=value, got 'classify'"),
    ("classify=abc", "bad tolerance value 'abc'"),
    ("classify=0", "tolerances must be finite and positive"),
    ("annulus=-1e-9", "tolerances must be finite and positive"),
    ("classify=inf", "tolerances must be finite and positive"),
    ("annulus=nan", "tolerances must be finite and positive"),
])
def test_bad_tolerance_item(annulus_file, no_env, capsys, item, message):
    assert cli.main(["--input", annulus_file, "--cmd", "classify", "--tol", item]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    no_env.setenv("PWLANNULUS_TOL", f"annulus=1e-9,{item}")   # the same check on the variable
    assert cli.main(["--input", annulus_file, "--cmd", "classify"]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("flags, env, message", [
    ([], {}, "--cmd is required"),
    ([], {"CMD": "bogus"}, "unknown command 'bogus'"),
    (["--cmd", "sweep"], {"FORMAT": "xml"}, "unknown format 'xml'"),
    (["--cmd", "sweep", "--grid", "1"], {}, "--grid must be at least 2"),
    (["--cmd", "sweep"], {"GRID": "-5"}, "--grid must be at least 2"),
    (["--cmd", "sweep", "--span", "0"], {}, "--span must be finite and positive"),
    (["--cmd", "sweep", "--span", "-1"], {}, "--span must be finite and positive"),
    (["--cmd", "sweep", "--span", "inf"], {}, "--span must be finite and positive"),
    (["--cmd", "sweep"], {"SPAN": "nan"}, "--span must be finite and positive"),
])
def test_bad_setting(annulus_file, no_env, capsys, flags, env, message):
    for name, value in env.items():
        no_env.setenv(cli.ENV_PREFIX + name, value)
    assert cli.main(["--input", annulus_file, *flags]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


ENTRIES = b'"DL": 4.0, "aL": -2.0, "TR": 1.0, "DR": 1.0, "aR": 1.0, "b": 0.0}'


@pytest.mark.parametrize("content, message", [
    (b'{"TL": 1e400, ' + ENTRIES, "TL must be finite"),
    # an int literal beyond the double range reads as 1e400 does
    (b'{"TL": 1' + b"0" * 400 + b", " + ENTRIES, "TL must be finite"),
    # more digits than int() takes, nesting deeper than the parser recurses,
    # and bytes that are not UTF-8
    (b'{"TL": 1' + b"0" * 5000 + b", " + ENTRIES, None),
    (b"[" * 100_000, None),
    (b'\xff\xfe{"TL": 1.0, ' + ENTRIES, None),
], ids=["float-overflow", "int-overflow", "int-digits", "nesting", "not-utf8"])
def test_malformed_input_file(tmp_path, no_env, capsys, content, message):
    path = tmp_path / "in.json"
    path.write_bytes(content)
    assert cli.main(["--input", str(path), "--cmd", "classify"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err == f"error: {message}\n" if message else err.startswith(
        f"error: {path} is not valid JSON: ")


def test_help_exits_0(no_env, capsys):
    assert cli.main(["--help"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: pwlannulus [-h] [--input INPUT]")
    assert err == ""


_CANON = {"TL": -2.0, "DL": 4.0, "aL": -2.0, "TR": 1.0, "DR": 1.0, "aR": 1.0, "b": 0.0}
_RAW = {"AL": [0, 1, -1, 0], "bL": [0, 0], "AR": [1, 2, -1, -1], "bR": [1, 0]}


@pytest.mark.parametrize("text, message", [
    # json reads NaN, Infinity and a literal past the double range
    (json.dumps({**_CANON, "DL": math.nan}), "DL must be finite"),
    (json.dumps({**_CANON, "b": -math.inf}), "b must be finite"),
    (json.dumps(_CANON).replace("4.0", "1e999"), "DL must be finite"),
    (json.dumps({**_RAW, "bR": [1, math.inf]}), "bR[1] must be finite"),
    ("[1, 2]", "the parameter file must hold a JSON object"),
    ('"AL"', "the parameter file must hold a JSON object"),
    (json.dumps({**_RAW, "AL": 5}), "AL must be a list of 4 reals"),
    (json.dumps({**_RAW, "AR": {"0": 1}}), "AR must be a list of 4 reals"),
    (json.dumps({**_RAW, "AR": [1, 2, -1]}), "AR must be a list of 4 reals"),
    (json.dumps({**_RAW, "bL": [0, 0, 0]}), "bL must be a list of 2 reals"),
])
def test_bad_parameter_file(tmp_path, no_env, capsys, text, message):
    path = tmp_path / "params.json"
    path.write_text(text)
    assert cli.main(["--input", str(path), "--cmd", "classify"]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_unreadable_parameter_file(tmp_path, no_env, capsys):
    path = str(tmp_path / "missing.json")
    assert cli.main(["--input", path, "--cmd", "classify"]) == 1
    assert capsys.readouterr() == (
        "", f"error: cannot read {path}: [Errno 2] No such file or directory: {path!r}\n")


def test_parameter_file_that_is_not_json(tmp_path, no_env, capsys):
    path = tmp_path / "params.json"
    path.write_text('{"TL": -2.0,}')
    assert cli.main(["--input", str(path), "--cmd", "classify"]) == 1
    assert capsys.readouterr() == ("", f"error: {path} is not valid JSON: Expecting property "
                                       "name enclosed in double quotes: line 1 column 13 "
                                       "(char 12)\n")


def test_canonical_refusal_names_the_first_bad_key_in_readme_order(tmp_path):
    # every value is bad; the key named must not depend on the string hash seed
    path = write_json(tmp_path, "nulls.json", dict.fromkeys(_CANON))
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    for seed in range(1, 7):
        env = {k: v for k, v in os.environ.items() if not k.startswith(cli.ENV_PREFIX)}
        env.update(PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-m", "pwlannulus.cli", "--input", path,
                               "--cmd", "classify"],
                              env=env, capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (
            1, "", "error: TL must be a number\n"), seed


# -- the table emitter ---------------------------------------------------------

_TEXT = st.text(st.sampled_from(["a", "Z", " ", "%", "s", ",", '"', "\\", "\n", "\r",
                                 "\t", "\x00", "\x1f", "\u00e9", "\u20ac", "\U0001f600"]),
                max_size=5)
_FLOAT = st.one_of(st.floats(),
                   st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7e308]))
_SCALAR = st.one_of(_FLOAT, st.none(), st.integers(), st.booleans(), _TEXT)
_VALUE = st.one_of(_SCALAR, st.lists(_SCALAR, max_size=3),   # a head or tail value
                   st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                            max_size=3),
                   st.lists(st.integers(), min_size=1, max_size=3))
# what the commands write in a cell: None, a number, a name csv.writer does
# not quote, and in json only, sweep's params
_NAME = st.from_regex(r"[a-z][a-z_]*", fullmatch=True)
_CELL = st.one_of(_FLOAT, st.none(), st.integers(),
                  st.from_regex(r"[a-z][a-z-]*", fullmatch=True), st.just(""))
_PARAMS = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=12)


@st.composite
def _tables(draw):
    """A table, its head and tail, and the columns of params (json only)."""
    width = draw(st.integers(2, 6))
    header = draw(st.lists(_NAME, min_size=width, max_size=width, unique=True))
    params = draw(st.sets(st.integers(0, width - 1), max_size=width - 2))
    cells = [st.one_of(_CELL, _PARAMS) if i in params else _CELL for i in range(width)]
    rows = draw(st.lists(st.tuples(*cells), max_size=5))
    keys = _TEXT.filter(lambda k: k != "rows")
    head = draw(st.dictionaries(keys, _VALUE, max_size=2))
    tail = draw(st.dictionaries(keys.filter(lambda k: k not in head), _VALUE, max_size=2))
    return header, rows, head, tail, params


@given(_tables())
@example((("orbit", "leg", "t"), [(0, "left", 0.5), (1, "right", math.nan)],
          {"domain": {"lam": 0.0, "mu": None}}, {"zeros": []}, set()))
@settings(max_examples=200)
def test_table_emitter_writes_the_bytes_of_json_dumps_and_csv_writer(table):
    header, rows, head, tail, params = table
    payload = {**head, "rows": [dict(zip(header, r)) for r in rows], **tail}
    assert cli._json_table(header, rows, head, tail) == json.dumps(payload, indent=2) + "\n"
    kept = [i for i in range(len(header)) if i not in params]   # csv leaves params out
    header, rows = [header[i] for i in kept], [[r[i] for i in kept] for r in rows]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    assert cli._csv_table(header, rows) == out.getvalue()
