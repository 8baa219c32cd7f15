"""Record the package's observable outputs as JSON lines, or compare two records.

    python tools/output_check.py [TREE] > out.jsonl
    python tools/output_check.py --diff A.jsonl B.jsonl

The first form imports pwlannulus from TREE/src (default: the checkout that
holds this file) and writes one JSON object per line, in a fixed order:

- kind "cli": stdout, stderr and exit code of every command, in both output
  formats and both input schemas, with and without --span 3.0, at --grid 24,
  on a fixed list of systems;
- kind "map": repr of domain, evaluate and derivative at seeded half-system
  points, y0 = lam included, or the error each call raised, and how many
  residual evaluations the first domain call and evaluate made, as the ints
  domain_calls and evaluate_calls: calls of the closures halfmap._residual
  returns (counted by wrapping the module attribute from outside, so any
  tree that evaluates its residuals there can be recorded).  The points are
  MAP_POINTS_PER_CATEGORY per category of MAP_CATEGORIES, as many near W's
  largest negative root ("barrier", see _barrier_points) and WIDE_POINTS
  spread over the double range ("wide", see _wide_points);
- kind "near_mu": the same fields at MAP_POINTS_PER_CATEGORY points within
  1e-9*mu of a finite mu (see _near_mu_points);
- kind "zeros": find_crossing_orbits at the default grid on the fixed
  systems above and on seeded random ones, the orbits' kinds and y0 values,
  how many delta calls refining the zeros made (counted by wrapping
  displacement.delta from outside) and how many residual evaluations the
  whole call made, its scan included (counted as for the map records), or
  the error the context raised;
- kind "sign": sign_delta_prime_at_zero on each row of scan(ctx, 64) and
  on the row (displacement._row) of each zero find_crossing_orbits refines,
  in six fixed contexts, keyed by context and row or zero index, so that a
  moved zero is a changed float, not a new record;
- kind "crossing": repr of oracle.next_crossing, or the error it raised, on
  seeded zones of each flow branch (complex pair, real roots, double root,
  D = 0, D = T = 0), b = 0 and b != 0, in both directions, one start in
  five tangential (y0 = b), and how many closed-form flow evaluations it
  made, as the int flow_calls: calls of the at of each orbit oracle._Orbit
  builds (counted by wrapping the class from outside);
- kind "scaled": the classify verdict and failing clause names of the fixed
  systems above (their Liénard lift) and of 100 seeded near-annulus
  systems, each under the four exact conjugacies that scale time, x, y or
  the offsets by 2**j, j in SCALE_EXPONENTS, keyed by system, scaling and j.
  Such a scaling cannot change the answer, so a record that differs between
  two trees is a verdict that one of them moved with scale.

Record the parent and the change and diff the two files: identical files
mean identical outputs, for the map points identical solver paths, and for
the crossings the same number of flow evaluations.
--diff prints, per kind, how many records differ (for the cli records also
per --cmd and per --format) and the largest change
between the floats that the two records print in the same positions, in
units in the last place and as |x - y| / max(1, |x|), and the same two
figures for each record that differs only in floats.  A pair on both sides
of 0, 0 against a nonzero value, or two values of one sign more than a
factor of 2 apart, is counted as a sign or scale change and left out of the
ulp figure, where it would read as the count of every double between the
two (1e-17 against 1e-13 is about 2e16 ulp).  A count field (an int
whose name ends in _calls: domain_calls, evaluate_calls, delta_calls,
residual_calls, flow_calls) that differs is printed as both values, per
record and summed over all records.  It uses only the standard library.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import itertools
import json
import math
import os
import random
import re
import struct
import sys
import tempfile
import warnings

GRID = "24"
SPAN = "3.0"
MAP_POINTS_PER_CATEGORY = 400

README_PAIR = {"TL": -2.0, "DL": 4.0, "aL": -2.0, "TR": 1.0, "DR": 1.0, "aR": 1.0, "b": 0.0}


def _family(aR, TR, DR, k, b=0.0):
    """Canonical entries of annulus_family(aR, TR, DR, k, offset=b)."""
    rk = math.sqrt(k)
    return {"TL": -rk * TR, "DL": k * DR, "aL": -rk * aR,
            "TR": TR, "DR": DR, "aR": aR, "b": b}


def _systems():
    """(name, canonical entries) of the fixed systems, seeded random ones last."""
    fixed = [
        ("readme-pair", README_PAIR),
        ("convergence-failure", {"TL": -1.0, "DL": 0.25000000000025, "aL": -1.0,
                                 "TR": -1.0, "DR": 1.0, "aR": 1.0, "b": 0.0}),
        ("a0-overflow", {"TL": 1.0, "DL": 0.25000000000025, "aL": 0.0,
                         "TR": -1.0, "DR": 1.0, "aR": 1.0, "b": 0.0}),
        ("right-focus-tr-neg", {"TL": 1.0, "DL": 1.0, "aL": -1.0,
                                "TR": -1.0, "DR": 1.0, "aR": 1.0, "b": 0.0}),
        ("t0-centers", {"TL": 0.0, "DL": 1.0, "aL": -1.0,
                        "TR": 0.0, "DR": 2.0, "aR": 1.5, "b": 0.0}),
        ("t0-saddles", {"TL": 0.0, "DL": -1.0, "aL": 1.0,
                        "TR": 0.0, "DR": -2.0, "aR": -0.5, "b": 0.0}),
        ("t0-tiny-det", {"TL": 0.0, "DL": 1e-300, "aL": -1.0,
                         "TR": 0.0, "DR": 1.0, "aR": 1.0, "b": 0.0}),
        ("t0-left-shifted", {"TL": 0.0, "DL": 2.0, "aL": -1.0,
                             "TR": 1.0, "DR": 1.0, "aR": 1.0, "b": 0.3}),
        ("isolated-b0", {"TL": 0.5, "DL": 1.0, "aL": -1.0,
                         "TR": -0.5, "DR": 1.3, "aR": 2.0, "b": 0.0}),
        ("isolated-b03", {"TL": 0.5, "DL": 1.0, "aL": -1.0,
                          "TR": -0.5, "DR": 1.3, "aR": 2.0, "b": 0.3}),
        ("empty-domain", {"TL": 3.0, "DL": 2.0, "aL": 1.0,
                          "TR": 0.0, "DR": 1.0, "aR": 1.0, "b": 10.0}),
        ("non-existent", {"TL": 1.0, "DL": -1.0, "aL": -1.0,
                          "TR": 1.0, "DR": 1.0, "aR": 1.0, "b": 0.0}),
        ("huge-a", {"TL": 0.0, "DL": -1.0, "aL": 1e160,
                    "TR": 1.0, "DR": 1.0, "aR": 1.0, "b": 0.0}),
        ("family-1-1-1-2", _family(1.0, 1.0, 1.0, 2.0)),
        ("family-2-05-1-5", _family(2.0, 0.5, 1.0, 5.0)),
        ("family-15-08-09-25", _family(1.5, -0.8, 0.9, 2.5)),
        ("family-2-13-1-03", _family(2.0, 1.3, 1.0, 0.3)),
        ("family-focus-node", _family(-2.2635, -1.5153, 0.6038, 1.1222)),
        ("family-beta-broken", _family(1.2, 0.7, 1.1, 2.7, b=0.25)),
    ]
    rng = random.Random(8)
    drawn = []
    for i in range(10):
        aL, aR = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
        TL, TR = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
        DL = TL * TL / 4.0 + rng.uniform(-0.5, 2.0)
        DR = TR * TR / 4.0 + rng.uniform(-0.5, 2.0)
        b = 0.0 if i % 2 == 0 else rng.uniform(-0.5, 0.5)
        drawn.append((f"random-{i}", {"TL": TL, "DL": DL, "aL": aL,
                                      "TR": TR, "DR": DR, "aR": aR, "b": b}))
    return fixed + drawn


def _raw(c):
    """The raw-schema file of canonical entries: the Liénard matrices."""
    return {"AL": [c["TL"], -1.0, c["DL"], 0.0], "bL": [0.0, -c["aL"]],
            "AR": [c["TR"], -1.0, c["DR"], 0.0], "bR": [c["b"], -c["aR"]]}


def _outcome(fn, *args):
    """repr of fn(*args), or the name and message of what it raised."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return repr(fn(*args))
    except Exception as exc:  # the record names every outcome, raw ones too
        return f"{type(exc).__name__}: {exc}"


def _cli_records(pw, tmpdir):
    for name, entries in _systems():
        for schema, payload in (("canonical", entries), ("raw", _raw(entries))):
            path = os.path.join(tmpdir, f"{name}-{schema}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            for command in pw.cli.COMMANDS:
                for fmt in pw.cli.FORMATS:
                    for span in ((), ("--span", SPAN)):
                        argv = ["--input", path, "--cmd", command, "--format", fmt,
                                "--grid", GRID, *span]
                        out, err = io.StringIO(), io.StringIO()
                        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                            with warnings.catch_warnings():
                                warnings.simplefilter("ignore")
                                try:
                                    code = pw.cli.main(argv)
                                except Exception as exc:
                                    code = f"raised {type(exc).__name__}: {exc}"
                        key = " ".join([name, schema, *argv[2:]])
                        yield {"kind": "cli", "key": key, "code": code,
                               "stdout": out.getvalue(), "stderr": err.getvalue()}


def _triples(rng, category):
    """(a, T, D) of one forward half-system drawn in the named category."""
    T = rng.uniform(-2.0, 2.0)
    if category == "a_neg_complex":
        return rng.uniform(-3.0, -0.2), T, T * T / 4.0 * (1.0 + rng.uniform(0.2, 3.0)) + 0.1
    if category == "a_neg_lam":
        T = -rng.uniform(0.2, 2.0)
        return rng.uniform(-3.0, -0.2), T, T * T / 4.0 + rng.uniform(0.1, 2.0)
    if category == "a_zero":
        return 0.0, T, T * T / 4.0 + rng.uniform(0.1, 2.0)
    if category == "a_pos_complex":
        return rng.uniform(0.2, 3.0), T, T * T / 4.0 + rng.uniform(0.1, 2.0)
    if category == "a_pos_real":
        T = rng.choice([-1.0, 1.0]) * rng.uniform(1.5, 3.0)
        return rng.uniform(0.2, 3.0), T, rng.uniform(0.05, 0.9) * T * T / 4.0
    if category == "a_pos_det_neg":
        return rng.uniform(0.2, 3.0), T, rng.uniform(-2.0, -0.1)
    if category == "a_pos_double":
        T = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.5)
        return rng.uniform(0.2, 3.0), T, T * T / 4.0
    if category == "a_pos_det_zero":
        return rng.uniform(0.2, 3.0), T, 0.0
    if category == "t_zero":
        D = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300.0, 2.0)
        return rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 3.0), 0.0, D
    if category == "extreme_a":
        a = rng.choice([-1.0, 1.0]) * 10.0 ** rng.choice([rng.uniform(-320.0, -154.0),
                                                            rng.uniform(154.5, 300.0)])
        return a, rng.choice([0.0, T]), T * T / 4.0 + rng.uniform(-1.0, 2.0)
    if category == "tiny_trace":
        T = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-320.0, -26.0)
        D = rng.choice([0.0, rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-320.0, -26.0)])
        return rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-154.0, 5.0), T, D
    raise ValueError(category)


MAP_CATEGORIES = ("a_neg_complex", "a_neg_lam", "a_zero", "a_pos_complex", "a_pos_real",
                  "a_pos_det_neg", "a_pos_double", "a_pos_det_zero", "t_zero", "extreme_a",
                  "tiny_trace")


@contextlib.contextmanager
def _residual_calls(hm):
    """[count] of residual evaluations while the block runs: calls of the
    closures halfmap._residual returns, through which every residual is
    evaluated."""
    calls = [0]
    residual = hm._residual

    def counted_residual(h, y0):
        fd = residual(h, y0)

        def counted_fd(v):
            calls[0] += 1
            return fd(v)
        return counted_fd

    hm._residual = counted_residual
    try:
        yield calls
    finally:
        hm._residual = residual


@contextlib.contextmanager
def _flow_calls(oracle):
    """[count] of closed-form flow evaluations while the block runs: calls of
    the at of each orbit oracle._Orbit builds."""
    calls = [0]
    orbit = oracle._Orbit

    def counted_orbit(*args):
        o = orbit(*args)
        at = o.at

        def counted_at(t):
            calls[0] += 1
            return at(t)
        o.at = counted_at
        return o

    oracle._Orbit = counted_orbit
    try:
        yield calls
    finally:
        oracle._Orbit = orbit


def _map_records(pw):
    with _residual_calls(pw.halfmap) as calls:
        yield from _map_points(pw, calls, "map",
                               itertools.chain(_category_points(pw, random.Random(20261018)),
                                               _barrier_points(pw, random.Random(9)),
                                               _wide_points(pw, random.Random(5))))
        yield from _map_points(pw, calls, "near_mu", _near_mu_points(pw, random.Random(29)))


NEAR_ROOT_BRANCHES = ("real_det_neg", "real_det_pos", "double", "det_zero")
NEAR_MU_BRANCHES = ("real_det_neg", "real_det_pos", "det_zero")
WIDE_POINTS = 2000


def _category_points(pw, rng):
    """(name, h, y0, pick) of MAP_POINTS_PER_CATEGORY half-systems of each
    category: pick(domain) is lam one time in 20, else uniform on
    [lam, min(mu, lam + 10*max(1, lam))]; y0, U(0, 5), serves where domain
    raises."""
    for category in MAP_CATEGORIES:
        for i in range(MAP_POINTS_PER_CATEGORY):
            a, T, D = _triples(rng, category)
            orientation = rng.choice(list(pw.Orientation))
            if orientation is pw.Orientation.BACKWARD:
                a, T = -a, -T
            u, y0 = rng.random(), rng.uniform(0.0, 5.0)

            def pick(d, u=u):
                hi = min(d.mu, d.lam + 10.0 * max(1.0, d.lam))
                return d.lam if u < 0.05 else d.lam + (u - 0.05) / 0.95 * (hi - d.lam)
            yield f"{category} {i}", pw.HalfSystem(a, T, D, orientation), y0, pick


def _root_system(pw, rng, branch, sign):
    """A half-system as tests/conftest._draw_root_system draws it: a > 0
    scaled by 10**U(-3, 3), T of the given sign where W's roots share one
    (D >= 0), so that they share T's sign, on the branch D < 0 (roots of
    both signs), 0 < D < T^2/4, D = T^2/4 or D = 0; the orientation drawn."""
    a = rng.uniform(0.2, 3.0) * 10.0 ** rng.uniform(-3.0, 3.0)
    T = rng.uniform(0.2, 2.5)
    if branch == "real_det_neg":
        T, D = rng.choice([-1.0, 1.0]) * T, -rng.uniform(0.1, 2.0) * T * T
    elif branch == "real_det_pos":
        T, D = sign * T, rng.uniform(0.05, 0.9) * T * T / 4.0
    else:
        T, D = sign * T, (T * T / 4.0 if branch == "double" else 0.0)
    orientation = rng.choice(list(pw.Orientation))
    if orientation is pw.Orientation.BACKWARD:
        a, T = -a, -T
    return pw.HalfSystem(a, T, D, orientation)


def _barrier_points(pw, rng):
    """Near-root points, as tests/conftest.draw_near_root draws them: T < 0
    in _root_system, so that W has a negative root b, on each branch;
    y0 = mu*(1 - 10**U(-9, -3)) where mu is finite, else |b|*10**U(0, 12),
    which puts the value down to the last bits of b."""
    for i in range(MAP_POINTS_PER_CATEGORY):
        branch = NEAR_ROOT_BRANCHES[i % 4]
        h = _root_system(pw, rng, branch, -1.0)
        u = rng.uniform(-9.0, -3.0) if branch == "real_det_neg" else rng.uniform(0.0, 12.0)

        def pick(d, u=u, b=max(r for r in h._roots if r < 0.0)):
            return d.mu * (1.0 - 10.0 ** u) if math.isfinite(d.mu) else -b * 10.0 ** u
        yield f"barrier {branch} {i}", h, 1.0, pick


def _near_mu_points(pw, rng):
    """Points within 1e-9*mu of a finite mu, as tests/conftest.draw_near_mu
    draws them: T > 0 in _root_system on the branches D < 0, 0 < D < T^2/4
    and D = 0, y0 = mu*(1 - 10**U(-15, -9))."""
    for i in range(MAP_POINTS_PER_CATEGORY):
        branch = NEAR_MU_BRANCHES[i % 3]
        h = _root_system(pw, rng, branch, 1.0)
        u = rng.uniform(-15.0, -9.0)
        yield f"near_mu {branch} {i}", h, 1.0, lambda d, u=u: d.mu * (1.0 - 10.0 ** u)


def _wide_points(pw, rng):
    """WIDE_POINTS draws over the double range, as in tests/test_halfmap.py's
    test_huge_scales_give_a_value_or_a_typed_error: a in +-10**U(-150, 150),
    T in +-10**U(-320, 150), D = 0 or +-10**U(-320, 150), the orientation
    drawn, y0 = 10**U(-320, 150) whatever the domain."""
    def scale(lo, hi):
        return rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(lo, hi)

    for i in range(WIDE_POINTS):
        a, T = scale(-150.0, 150.0), scale(-320.0, 150.0)
        D = rng.choice([0.0, scale(-320.0, 150.0)])
        h = pw.HalfSystem(a, T, D, orientation=rng.choice(list(pw.Orientation)))
        yield f"wide {i}", h, 10.0 ** rng.uniform(-320.0, 150.0), None


def _map_points(pw, calls, kind, points):
    """Records of the given kind at (name, h, y0, pick) points: y0 is
    pick(domain) where pick is given and the domain solves."""
    for name, h, y0, pick in points:
        calls[0] = 0
        try:
            d = pw.domain(h)
        except Exception:  # recorded below
            pass
        else:
            y0 = pick(d) if pick is not None else y0
        domain_calls = calls[0]
        rec = {"kind": kind, "key": f"{name} {h!r}", "y0": repr(y0),
               "domain": _outcome(pw.domain, h)}
        calls[0] = 0
        rec["evaluate"] = _outcome(pw.evaluate, h, y0)
        rec["domain_calls"], rec["evaluate_calls"] = domain_calls, calls[0]
        rec["derivative"] = _outcome(pw.derivative, h, y0)
        yield rec


def _zero_systems():
    """(name, canonical entries): the systems above, then 200 seeded draws
    with D = T^2/4 + U(-0.5, 2) in each zone, about one in five with an
    isolated zero."""
    rng = random.Random(11)
    drawn = []
    for i in range(200):
        aL, aR = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
        TL, TR = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
        DL = TL * TL / 4.0 + rng.uniform(-0.5, 2.0)
        DR = TR * TR / 4.0 + rng.uniform(-0.5, 2.0)
        b = rng.choice([0.0, rng.uniform(-0.5, 0.5)])
        drawn.append((f"zeros-{i}", {"TL": TL, "DL": DL, "aL": aL,
                                     "TR": TR, "DR": DR, "aR": aR, "b": b}))
    return _systems() + drawn


def _zero_records(pw):
    from pwlannulus import displacement

    calls = [0]
    delta = displacement.delta

    def counted(ctx, y0):
        calls[0] += 1
        return delta(ctx, y0)

    displacement.delta = counted
    try:
        with _residual_calls(pw.halfmap) as residuals:
            for name, c in _zero_systems():
                try:
                    ctx = pw.make_context(pw.HalfSystem(c["aL"], c["TL"], c["DL"]),
                                          pw.HalfSystem(c["aR"], c["TR"], c["DR"],
                                                        pw.Orientation.BACKWARD), c["b"])
                    calls[0] = residuals[0] = 0   # not the lambda solves of make_context
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        orbits = pw.find_crossing_orbits(ctx)
                except Exception as exc:  # the record names every outcome, raw ones too
                    yield {"kind": "zeros", "key": name,
                           "error": f"{type(exc).__name__}: {exc}"}
                    continue
                yield {"kind": "zeros", "key": name, "kinds": [o.kind.value for o in orbits],
                       "y0": [repr(o.y0) for o in orbits], "delta_calls": calls[0],
                       "residual_calls": residuals[0]}
    finally:
        displacement.delta = delta


def _sign_records(pw):
    from pwlannulus import displacement

    bwd = pw.Orientation.BACKWARD
    contexts = [
        ("isolated", pw.HalfSystem(-1.0, 0.5, 1.0), pw.HalfSystem(2.0, -0.5, 1.3, bwd), 0.0),
        ("family-k4", pw.HalfSystem(-2.0, -2.0, 4.0), pw.HalfSystem(1.0, 1.0, 1.0, bwd), 0.0),
        ("family-k2.7", pw.HalfSystem(-math.sqrt(2.7) * 1.2, -math.sqrt(2.7) * 0.7, 2.7 * 1.1),
         pw.HalfSystem(1.2, 0.7, 1.1, bwd), 0.0),
        ("t0-symmetric", pw.HalfSystem(-1.0, 0.0, 1.0), pw.HalfSystem(1.0, 0.0, 1.0, bwd), 0.0),
        ("a0-pair", pw.HalfSystem(0.0, 1.0, 1.0), pw.HalfSystem(0.0, 1.0, 1.0, bwd), 0.0),
        ("shifted", pw.HalfSystem(-1.0, 0.0, 1.0), pw.HalfSystem(1.0, 0.0, 1.0, bwd), 0.5),
    ]
    for name, left, right, b in contexts:
        ctx = pw.make_context(left, right, b)
        rows = [(f"row {i}", r) for i, r in enumerate(displacement.scan(ctx, 64).rows)]
        rows += [(f"zero {i}", displacement._row(ctx, o.y0))
                 for i, o in enumerate(pw.find_crossing_orbits(ctx, 64))]
        for key, row in rows:
            yield {"kind": "sign", "key": f"{name} {key}", "y0": repr(row.y0),
                   "prime": _outcome(pw.sign_delta_prime_at_zero, ctx, row)}


CROSSINGS_PER_BRANCH = 60


def _crossing_records(pw):
    rng = random.Random(14)
    fwd, bwd = pw.Orientation.FORWARD, pw.Orientation.BACKWARD
    for i in range(CROSSINGS_PER_BRANCH):
        a, b = rng.uniform(-3.0, 3.0), rng.choice([0.0, rng.uniform(-1.0, 1.0)])
        T = rng.uniform(-2.0, 2.0)
        s = rng.choice([-1.0, 1.0]) * rng.randint(1, 16) / 8.0
        zones = (("complex", pw.ZoneFlow(T, 0.25 * T * T + rng.uniform(0.05, 2.0), a, b)),
                 ("real", pw.ZoneFlow(T, 0.25 * T * T - rng.uniform(0.05, 2.0), a, b)),
                 ("double", pw.ZoneFlow(2.0 * s, s * s, a, b)),
                 ("det-zero", pw.ZoneFlow(T, 0.0, a, b)),
                 ("det-trace-zero", pw.ZoneFlow(0.0, 0.0, a, b)))
        for branch, z in zones:
            for direction in (fwd, bwd):
                y0 = b if rng.random() < 0.2 else b + rng.uniform(-1.0, 4.0)
                with _flow_calls(pw.oracle) as calls:
                    crossing = _outcome(pw.next_crossing, z, y0, direction)
                yield {"kind": "crossing", "key": f"{branch} {i} {direction.name}",
                       "zone": repr(z), "y0": repr(y0), "crossing": crossing,
                       "flow_calls": calls[0]}


SCALE_EXPONENTS = (-60, -20, 20, 60)
# the power of 2**j that multiplies each raw entry (aL11, aL12, aL21, aL22,
# aR11, ..., aR22, bL1, bL2, bR1, bR2) when time is scaled by 2**-j, x or y
# by 2**j, or (x, y) by 2**j, which scales the offsets only
SCALINGS = {"time": (1,) * 12,
            "x": (0, 1, -1, 0) * 2 + (1, 0) * 2,
            "y": (0, -1, 1, 0) * 2 + (0, 1) * 2,
            "offset": (0,) * 8 + (1,) * 4}


def _near_annulus(pw, rng):
    """An annulus_family member with a right focus, offset b and one raw entry
    moved by a relative eps (set to eps where it is 0); b and eps are each 0
    half the time, else +-10**U(-14, -1) and +-10**U(-15, -1)."""
    TR = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0)
    aR, DR = rng.uniform(-3.0, 3.0), TR * TR / 4.0 + rng.uniform(0.1, 2.0)
    k = math.exp(rng.uniform(math.log(1e-2), math.log(1e2)))
    b = rng.choice([0.0, rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-14.0, -1.0)])
    vals = list(dataclasses.astuple(pw.annulus_family(aR, TR, DR, k, offset=b)))
    eps = rng.choice([0.0, rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-15.0, -1.0)])
    i = rng.randrange(len(vals))
    vals[i] = vals[i] * (1.0 + eps) if vals[i] != 0.0 else eps
    return pw.SystemParams(*vals)


def _scaled_records(pw):
    rng = random.Random(21)
    systems = [(name, pw.from_canonical(c["aL"], c["TL"], c["DL"], c["aR"], c["TR"], c["DR"],
                                        c["b"])) for name, c in _systems()]
    systems += [(f"near-annulus-{i}", _near_annulus(pw, rng)) for i in range(100)]
    for name, p in systems:
        vals = dataclasses.astuple(p)
        for scaling, powers in SCALINGS.items():
            for j in SCALE_EXPONENTS:
                cls = pw.classify(pw.SystemParams(*map(math.ldexp, vals, [e * j for e in powers])))
                yield {"kind": "scaled", "key": f"{name} {scaling} {j}",
                       "verdict": cls.verdict.value, "failing": cls.failing()}


def record(tree: str, out) -> None:
    sys.path.insert(0, os.path.join(os.path.abspath(tree), "src"))
    import pwlannulus as pw
    from pwlannulus import cli  # noqa: F401  (binds pw.cli)

    with tempfile.TemporaryDirectory() as tmpdir:
        for rec in _cli_records(pw, tmpdir):
            out.write(json.dumps(rec) + "\n")
    for rec in _map_records(pw):
        out.write(json.dumps(rec) + "\n")
    for rec in _zero_records(pw):
        out.write(json.dumps(rec) + "\n")
    for rec in _sign_records(pw):
        out.write(json.dumps(rec) + "\n")
    for rec in _crossing_records(pw):
        out.write(json.dumps(rec) + "\n")
    for rec in _scaled_records(pw):
        out.write(json.dumps(rec) + "\n")


_FLOAT = re.compile(r"-?(?:\d+\.\d*(?:e[-+]?\d+)?|\d+e[-+]?\d+|inf)")


def _ulps(x: float, y: float) -> int:
    def ordered(v):
        (n,) = struct.unpack("<q", struct.pack("<d", v))
        return n if n >= 0 else -(n & 0x7FFFFFFFFFFFFFFF)
    return abs(ordered(x) - ordered(y))


def _scaled(x: float, y: float) -> float:
    if x == y:  # also equal infinities
        return 0.0
    return abs(x - y) / max(1.0, abs(x))


def _leaves_scale(x: float, y: float) -> bool:
    """x and y differ and are not within a factor of 2 of each other: they
    lie on both sides of 0, one of them is 0, or one is more than twice the
    other in magnitude."""
    return x != y and (x <= 0.0 <= y or y <= 0.0 <= x
                       or abs(x) > 2.0 * abs(y) or abs(y) > 2.0 * abs(x))


def _float_change(a: str, b: str) -> tuple[int, float, int] | None:
    """Largest change between the floats a and b print in the same places: in
    ulp over the pairs within a factor of 2, as |x - y| / max(1, |x|) over all
    pairs, and the number of the other pairs that differ (see _leaves_scale);
    None when more than floats differ."""
    fa, fb = _FLOAT.findall(a), _FLOAT.findall(b)
    if len(fa) != len(fb) or _FLOAT.sub("#", a) != _FLOAT.sub("#", b):
        return None
    pairs = [(float(x), float(y)) for x, y in zip(fa, fb)]
    jumps = sum(_leaves_scale(x, y) for x, y in pairs)
    return (max((_ulps(x, y) for x, y in pairs if not _leaves_scale(x, y)), default=0),
            max((_scaled(x, y) for x, y in pairs), default=0.0), jumps)


def _per_flag(flag: str, keys, differing) -> str:
    """'value d of n, ...': per value of a cli key's flag, how many of its n
    records differ."""
    counts = {}
    for key in keys:
        words = key[1].split()
        n = counts.setdefault(words[words.index(flag) + 1], [0, 0])
        n[0] += 1
        n[1] += key in differing
    return ", ".join(f"{value} {d} of {n}" for value, (n, d) in counts.items())


def diff(path_a: str, path_b: str) -> int:
    """Print, per kind and field, the records that differ; 1 when any does."""
    def load(path):
        with open(path, encoding="utf-8") as fh:
            return {(r["kind"], r["key"]): r for r in map(json.loads, fh)}

    a, b = load(path_a), load(path_b)
    changed = 0
    for kind in sorted({k for k, _ in a} | {k for k, _ in b}):
        keys = sorted({k for k in a if k[0] == kind} | {k for k in b if k[0] == kind})
        unmatched = [k for k in keys if k not in a or k not in b]
        # field -> [records differing, float-only, largest ulp, scaled,
        #           with a sign or scale change]
        fields = {}
        totals = {}   # count field -> [sum in A, sum in B] over the records both hold
        lines = []
        for key in keys:
            ra, rb = a.get(key), b.get(key)
            if key in unmatched:
                continue
            for f in ra:
                if f.endswith("_calls") and isinstance(rb.get(f), int):
                    total = totals.setdefault(f, [0, 0])
                    total[0] += ra[f]
                    total[1] += rb[f]
            if ra == rb:
                continue
            names = []
            for f in (f for f in ra if ra[f] != rb.get(f)):
                count = fields.setdefault(f, [0, 0, 0, 0.0, 0])
                count[0] += 1
                if f in totals:
                    names.append(f"{f} ({ra[f]} -> {rb[f]})")
                    continue
                change = _float_change(str(ra[f]), str(rb.get(f)))
                if change is None:
                    names.append(f)
                    continue
                ulps, scaled, jumps = change
                count[1] += 1
                count[2], count[3] = max(count[2], ulps), max(count[3], scaled)
                count[4] += jumps > 0
                jumped = f", {jumps} sign or scale changes" if jumps else ""
                names.append(f"{f} ({ulps} ulp, {scaled:.3g}{jumped})")
            lines.append(f"  {key[1]}: {', '.join(names)}")
        changed += len(lines) + len(unmatched)
        print(f"{kind}: {len(keys)} records, {len(lines)} differ, {len(unmatched)} unmatched")
        if kind == "cli":
            differing = {k for k in keys if k in unmatched or a[k] != b[k]}
            for flag in ("--cmd", "--format"):
                print(f"  per {flag}: {_per_flag(flag, keys, differing)}")
        for f, (n, floats, worst, scaled, jumped) in sorted(fields.items()):
            if f in totals:
                print(f"  {f}: {n} differ, {totals[f][0]} -> {totals[f][1]} in all")
                continue
            print(f"  {f}: {n} differ, {floats} only in floats "
                  f"(largest {worst} ulp, {scaled:.3g} scaled; "
                  f"{jumped} with a sign or scale change)")
        print("\n".join(lines + [f"  unmatched: {k[1]}" for k in unmatched]))
    return 1 if changed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", nargs="?",
                        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.diff:
        return diff(*args.diff)
    record(args.tree, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
