"""tools/output_check.py: the float comparison and the diff of two records."""

import importlib.util
import json
import math
import pathlib
import random

import pytest

import pwlannulus
from pwlannulus import domain, evaluate

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "output_check.py"
_SPEC = importlib.util.spec_from_file_location("output_check", _PATH)
output_check = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(output_check)


@pytest.mark.parametrize("a, b, want", [
    ("x=1.0 y=2.5", "x=1.0 y=2.5", (0, 0.0, 0)),
    ("x=1.0", "x=1.0000000000000002", (1, 2.220446049250313e-16, 0)),
    ("t=-3.0, y=inf", "t=-3.0000000000000004, y=inf", (1, 4.440892098500626e-16 / 3.0, 0)),
    # a pair on both sides of 0 is a sign flip, not 8.9e18 ulp
    ("x=1.2e-10 y=5.0", "x=-3.8e-09 y=5.000000000000001", (1, 3.92e-09, 1)),
    ("x=0.0", "x=1e-300", (0, 1e-300, 1)),
    ("x=-0.0", "x=0.0", (0, 0.0, 0)),
    # one sign but more than a factor of 2 apart: a scale change, not 2.2e16 ulp
    ("x=1e-17 y=2.0", "x=1e-13 y=2.0", (0, 1e-13 - 1e-17, 1)),
    ("x=-3.0", "x=-6.000000000000001", (0, 1.0000000000000002, 1)),
    # within a factor of 2 the ulp figure counts every double between
    ("x=1.0", "x=2.0", (2 ** 52, 1.0, 0)),
    ("x=-3.0", "x=-6.0", (2 ** 52, 1.0, 0)),
])
def test_float_change(a, b, want):
    ulps, scaled, flips = output_check._float_change(a, b)
    assert (ulps, flips) == (want[0], want[2])
    assert scaled == pytest.approx(want[1], rel=1e-12)


@pytest.mark.parametrize("a, b", [
    ("x=1.0", "y=1.0"),                       # the text differs
    ("x=1.0", "x=1.0 2.0"),                   # one more float
    ("NoReturnError: orbit never returns", "CrossingEvent(t=1.0, y=-1.0, transversal=True)"),
])
def test_float_change_is_none_when_more_than_floats_differ(a, b):
    assert output_check._float_change(a, b) is None


def _write(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return str(path)


def test_diff_of_identical_records_is_silent(tmp_path, capsys):
    recs = [{"kind": "crossing", "key": "real 0 FORWARD", "crossing": "CrossingEvent(t=1.5)"}]
    assert output_check.diff(_write(tmp_path / "a", recs), _write(tmp_path / "b", recs)) == 0
    assert capsys.readouterr().out == "crossing: 1 records, 0 differ, 0 unmatched\n\n"


def test_diff_reports_floats_flips_counts_and_unmatched_records(tmp_path, capsys):
    a = [{"kind": "crossing", "key": "real 0 FORWARD", "crossing": "CrossingEvent(t=1.0, y=-2.0)"},
         {"kind": "crossing", "key": "real 1 FORWARD", "crossing": "x=1.2e-10"},
         {"kind": "crossing", "key": "real 2 FORWARD", "crossing": "NoReturnError: never"},
         {"kind": "zeros", "key": "s", "y0": ["1.0"], "delta_calls": 3},
         {"kind": "zeros", "key": "gone", "y0": []},
         {"kind": "map", "key": "a 0", "evaluate": "-1.0", "domain_calls": 11,
          "evaluate_calls": 12},
         {"kind": "map", "key": "a 1", "evaluate": "-2.0", "domain_calls": 0,
          "evaluate_calls": 7}]
    b = [{"kind": "crossing", "key": "real 0 FORWARD",
          "crossing": "CrossingEvent(t=1.0000000000000002, y=-2.0)"},
         {"kind": "crossing", "key": "real 1 FORWARD", "crossing": "x=-3.8e-09"},
         {"kind": "crossing", "key": "real 2 FORWARD", "crossing": "TangencyError: graze"},
         {"kind": "zeros", "key": "s", "y0": ["1.0"], "delta_calls": 5},
         {"kind": "map", "key": "a 0", "evaluate": "-1.0", "domain_calls": 11,
          "evaluate_calls": 9},
         {"kind": "map", "key": "a 1", "evaluate": "-2.0000000000000004", "domain_calls": 0,
          "evaluate_calls": 6}]
    assert output_check.diff(_write(tmp_path / "a", a), _write(tmp_path / "b", b)) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "crossing: 3 records, 3 differ, 0 unmatched",
        "  crossing: 3 differ, 2 only in floats (largest 1 ulp, 3.92e-09 scaled; "
        "1 with a sign or scale change)",
        "  real 0 FORWARD: crossing (1 ulp, 2.22e-16)",
        "  real 1 FORWARD: crossing (0 ulp, 3.92e-09, 1 sign or scale changes)",
        "  real 2 FORWARD: crossing",
        # the map counts are ints, summed over the records: 19 -> 15
        "map: 2 records, 2 differ, 0 unmatched",
        "  evaluate: 1 differ, 1 only in floats (largest 1 ulp, 2.22e-16 scaled; "
        "0 with a sign or scale change)",
        "  evaluate_calls: 2 differ, 19 -> 15 in all",
        "  a 0: evaluate_calls (12 -> 9)",
        "  a 1: evaluate (1 ulp, 2.22e-16), evaluate_calls (7 -> 6)",
        "zeros: 2 records, 1 differ, 1 unmatched",
        "  delta_calls: 1 differ, 3 -> 5 in all",
        "  s: delta_calls (3 -> 5)",
        "  unmatched: gone",
    ]


def test_scaled_records_key_each_system_by_scaling_and_exponent():
    recs = list(output_check._scaled_records(pwlannulus))
    names = [name for name, _ in output_check._systems()]
    names += [f"near-annulus-{i}" for i in range(100)]
    assert [r["key"] for r in recs] == [f"{name} {scaling} {j}" for name in names
                                        for scaling in output_check.SCALINGS
                                        for j in output_check.SCALE_EXPONENTS]
    outcomes = {}
    for r in recs:
        outcomes.setdefault(r["key"].rsplit(" ", 2)[0], set()).add(
            (r["verdict"], tuple(r["failing"])))
    # no verdict moves with scale, except where an entry leaves the normal
    # double range: t0-tiny-det's DL = 1e-300 underflows at time scale 2**-60
    assert {name for name, seen in outcomes.items() if len(seen) > 1} == {"t0-tiny-det"}
    assert {r["verdict"] for r in recs if r["key"].startswith("near-annulus")} == {
        "crossing-period-annulus", "no-period-annulus"}


def test_barrier_and_wide_map_points():
    barrier = list(output_check._barrier_points(pwlannulus, random.Random(9)))
    assert [name for name, *_ in barrier] == [
        f"barrier {output_check.NEAR_ROOT_BRANCHES[i % 4]} {i}"
        for i in range(output_check.MAP_POINTS_PER_CATEGORY)]
    # every W has a negative root b, and 211 of the 400 values lie within
    # 1e-9*|b| of it (none at the double root, where the approach is slowest)
    near = 0
    for _, h, _, pick in barrier:
        near += evaluate(h, pick(domain(h))) <= h._barrier * (1.0 - 1e-9)
    assert near == 211
    wide = list(output_check._wide_points(pwlannulus, random.Random(5)))
    assert [name for name, *_ in wide] == [f"wide {i}" for i in range(output_check.WIDE_POINTS)]
    assert all(pick is None and math.isfinite(y0) for _, _, y0, pick in wide)


def test_near_mu_map_points():
    points = list(output_check._near_mu_points(pwlannulus, random.Random(29)))
    assert [name for name, *_ in points] == [
        f"near_mu {output_check.NEAR_MU_BRANCHES[i % 3]} {i}"
        for i in range(output_check.MAP_POINTS_PER_CATEGORY)]
    # each y0 lies within 1e-9*mu of a finite mu, and none is mu itself
    for _, h, _, pick in points:
        mu = domain(h).mu
        assert mu * (1.0 - 1e-9) <= pick(domain(h)) < mu < math.inf


def test_flow_calls_count_each_closed_form_evaluation():
    z = pwlannulus.ZoneFlow(T=0.0, D=1.0, a=1.0)
    orbit = pwlannulus.oracle._Orbit
    with output_check._flow_calls(pwlannulus.oracle) as calls:
        pwlannulus.flow(z, 0.0, 1.0, 0.5)
        assert calls == [1]
        pwlannulus.sample_trajectory(z, 0.0, 1.0, 1.0, 5)
        assert calls == [6]
    assert pwlannulus.oracle._Orbit is orbit


def test_crossing_records_carry_their_flow_calls():
    recs = list(output_check._crossing_records(pwlannulus))
    assert len(recs) == 10 * output_check.CROSSINGS_PER_BRANCH
    assert {tuple(r) for r in recs} == {
        ("kind", "key", "zone", "y0", "crossing", "flow_calls")}
    # every probe of the search is one evaluation; a refused start makes none
    assert sum(r["flow_calls"] for r in recs) == 1768
    assert all(r["flow_calls"] == 0 for r in recs if "does not enter" in r["crossing"])
