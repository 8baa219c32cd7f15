"""Seeded inputs, operations and output checks of the three workloads.

`setup(name, seed, workdir)` is the whole of the benchmark's set-up: it
imports pwlannulus, draws the inputs of one pass from the seed and, for
`cli`, writes the input files.  It returns a `Workload` whose `ops` are
`(function, argument)` pairs run in order; a pass is one run through them.

Every call into pwlannulus goes through a module attribute (`halfmap.evaluate`,
never a name imported on its own), so the traced run's wrappers see it.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

from pwlannulus import classifier, cli, displacement, halfmap, oracle, params
from pwlannulus.displacement import OrbitKind
from pwlannulus.halfmap import HalfSystem, Orientation
from pwlannulus.params import SystemParams

import reference as ref

SCAN_GRID = 64
CLI_GRID = 256
NEAR_DEGENERATE = 0.25    # annulus draws keep 4D/T^2 this far from 0 and from 1
MAX_DRAWS = 1000          # rejection-sampling budget per isolated-orbit system
PORTRAIT_END_TOL = 1e-9   # |x| at the last sample of a portrait leg, times max(1, |y|)

# scan: systems of each kind in one pass
SCAN_PER_KIND = 32
SCAN_KINDS = ("isolated_lam0", "isolated_lam_pos", "annulus", "one_signed")
# Members of annulus_family with lambda > 0 and k != 1.  halfmap.evaluate(h, lam)
# returns about -1e-8 instead of 0 on them, so the scan reports spurious
# isolated zeros on a system with an annulus.  They do not depend on the seed
# and are counted as failed until that fault is fixed.
SCAN_KNOWN_FAULTY = ((1.0, 1.0, 1.0, 2.0), (2.0, 0.5, 1.0, 5.0))

# pointwise: half-systems per stratum in one pass; strata are the seven
# a-sign/spectral categories (a < 0 split by whether it needs the lambda
# solve) times both orientations
POINTWISE_PER_STRATUM = 180
PINNED = 1e-10            # relative distance of a map value from the W-root barrier
POINTWISE_CATEGORIES = ("a_neg_lam_solve", "a_neg_complex", "a_zero_complex",
                        "a_pos_complex", "a_pos_real_distinct", "a_pos_det_neg",
                        "a_pos_real_double", "a_pos_det_zero")

# cli: two systems of each kind in each input schema per pass, each run
# through every command and format
CLI_SYSTEM_KINDS = ("isolated_lam0", "isolated_lam0", "annulus", "annulus")
CLI_SCHEMAS = ("raw", "canonical")
# The table commands run over the default window and over --span 5: they are
# what the package is for, and the extra weight puts the median latency
# inside their cluster rather than on the edge between two commands.
CLI_SPANS = {"halfmap": ((), ("--span", "5")), "displacement": ((), ("--span", "5"))}
CSV_HEADERS = {"classify": ["record", "value", "status"],
               "halfmap": ["y0", "yL", "yRb", "dyL", "dyRb"],
               "displacement": ["y0", "delta", "f_sign"],
               "portrait": ["orbit", "leg", "t", "x", "y"],
               "sweep": ["index", "verdict", "xi0", "xi_inf", "beta"]}


@dataclass
class Workload:
    name: str
    ops: list = field(default_factory=list)       # (function, argument) pairs
    inputs: list = field(default_factory=list)    # what each check needs, per op
    check: Callable = None                        # (input, output) -> error or None
    known_faulty: frozenset = frozenset()         # op indices failing on a named fault


# -- system draws ------------------------------------------------------------

def _focus_det(rng, T):
    return T * T / 4.0 + rng.uniform(0.2, 1.5)


def _window_ends(zl, zr, lo, hi):
    """Oracle displacement at the second and the last point of the scan grid.

    The first point is skipped: with lambda = 0 both maps fix the origin.
    """
    step = (hi - lo) / SCAN_GRID
    return ref.flow_gap(zl, zr, lo + step), ref.flow_gap(zl, zr, hi - step)


def _draw_isolated(rng, lam_positive: bool) -> SystemParams:
    """b = 0 with opposite traces and an oracle sign change across the window.

    The sign change guarantees at least one crossing periodic orbit.  With
    lam_positive both maps need the lambda solve; otherwise both start at 0.
    """
    for _ in range(MAX_DRAWS):
        TL = rng.uniform(-1.5, -0.2)
        TR = rng.uniform(0.2, 1.5)
        DL, DR = _focus_det(rng, TL), _focus_det(rng, TR)
        if lam_positive:
            aL, aR = rng.uniform(-2.0, -0.3), rng.uniform(0.3, 2.0)
            lo = max(ref.forward_lambda(aL, TL, DL), ref.forward_lambda(-aR, -TR, DR))
        else:
            aL, aR = rng.uniform(0.3, 2.0), rng.uniform(-2.0, -0.3)
            lo = 0.0
        hi = lo + 10.0 * max(1.0, lo)
        zl = oracle.ZoneFlow(T=TL, D=DL, a=aL)
        zr = oracle.ZoneFlow(T=TR, D=DR, a=aR)
        first, last = _window_ends(zl, zr, lo, hi)
        if first * last < 0.0 and min(abs(first), abs(last)) > 1e-3:
            return params.from_canonical(aL, TL, DL, aR, TR, DR)
    raise RuntimeError("no system with an isolated crossing orbit drawn")


def _draw_annulus(rng, mode: str) -> SystemParams:
    """annulus_family member with lambda = 0, W_left = k * W_right.

    Modes: "a_neg" (aR < 0), "t_neg" (aR > 0 with TR < 0), and "a_neg_focus"
    (aR < 0, right zone a focus, moderate scales so that the cost of one
    system varies little).  Members near a degenerate boundary, D = 0 or
    4D = T^2, are drawn again: there the scan misses the annulus
    on about one member in 300 (see FOUND in CHANGES.md), a failure no
    seed-independent count could hold.
    """
    while True:
        if mode == "a_neg_focus":
            TR = rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 1.5)
            aR, DR = -rng.uniform(0.5, 2.0), TR * TR / 4.0 + rng.uniform(0.1, 2.0)
            k = math.exp(rng.uniform(-1.4, 1.4))
        else:
            TR = rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 2.0)
            if mode == "t_neg":
                aR, TR = rng.uniform(0.2, 3.0), -abs(TR)
                DR = TR * TR / 4.0 + rng.uniform(0.1, 2.0)
            else:
                aR, DR = -rng.uniform(0.2, 3.0), rng.uniform(-1.5, 2.0) or 0.5
            k = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        ratio = 4.0 * DR / (TR * TR)
        if abs(ratio) >= NEAR_DEGENERATE and abs(ratio - 1.0) >= NEAR_DEGENERATE:
            return classifier.annulus_family(aR, TR, DR, k)


def _draw_one_signed(rng) -> SystemParams:
    """b = 0 and traces of one sign: the divergence never changes sign, so by
    the Bendixson argument no crossing periodic orbit exists."""
    sgn = rng.choice((-1.0, 1.0))
    TL, TR = sgn * rng.uniform(0.2, 1.5), sgn * rng.uniform(0.2, 1.5)
    aL, aR = rng.uniform(0.3, 2.0), rng.uniform(-2.0, -0.3)
    return params.from_canonical(aL, TL, _focus_det(rng, TL), aR, TR, _focus_det(rng, TR))


def raw_tuple(p: SystemParams) -> tuple:
    return tuple(getattr(p, f) for f in ref.RAW_FIELDS)


# -- scan --------------------------------------------------------------------

def scan_op(p: SystemParams):
    canon = params.to_canonical(p)
    ctx = displacement.make_context(canon.left, canon.right, canon.b)
    orbits = displacement.find_crossing_orbits(ctx, SCAN_GRID)
    closures = [oracle.verify_periodic(canon, o.y0)[0]
                for o in orbits if o.kind is OrbitKind.ISOLATED]
    return orbits, closures


def scan_check(p: SystemParams, out) -> str | None:
    orbits, closures = out
    raw = raw_tuple(p)
    kinds = [o.kind for o in orbits]
    isolated = kinds.count(OrbitKind.ISOLATED)
    if ref.verdict(raw) == "crossing-period-annulus":
        if kinds != [OrbitKind.ANNULUS_CANDIDATE]:
            return f"annulus system scanned as {[k.value for k in kinds]}"
        return None
    if OrbitKind.ANNULUS_CANDIDATE in kinds:
        return "annulus candidate on a system without an annulus"
    if not all(closures):
        return "an isolated zero does not close under verify_periodic"
    canon = params.to_canonical(p)
    ctx = displacement.make_context(canon.left, canon.right, canon.b)
    lo, hi = displacement.scan_window(ctx)
    step = (hi - lo) / SCAN_GRID
    zl, zr = ref.canonical_zones(raw)
    gaps = [ref.flow_gap(zl, zr, lo + i * step, lo) for i in range(SCAN_GRID)]
    changes = ref.sign_changes(gaps)
    if changes != isolated:
        return f"{isolated} isolated zeros, oracle displacement changes sign {changes} times"
    return None


def _setup_scan(rng, w: Workload) -> None:
    systems = []
    for kind in SCAN_KINDS:
        for _ in range(SCAN_PER_KIND):
            if kind == "isolated_lam0":
                systems.append(_draw_isolated(rng, False))
            elif kind == "isolated_lam_pos":
                systems.append(_draw_isolated(rng, True))
            elif kind == "annulus":
                systems.append(_draw_annulus(rng, rng.choice(("a_neg", "t_neg"))))
            else:
                systems.append(_draw_one_signed(rng))
    w.known_faulty = frozenset(range(len(systems), len(systems) + len(SCAN_KNOWN_FAULTY)))
    systems += [classifier.annulus_family(*args) for args in SCAN_KNOWN_FAULTY]
    w.ops = [(scan_op, p) for p in systems]
    w.inputs = systems
    w.check = scan_check


# -- pointwise ---------------------------------------------------------------

def _draw_forward_triple(rng, category):
    """(a, T, D) with an existing forward map, and the map's domain [lam, mu)."""
    T = rng.uniform(-2.0, 2.0)
    if category in ("a_neg_lam_solve", "a_neg_complex"):
        a = rng.uniform(-3.0, -0.2)
        T = -abs(T) if category == "a_neg_lam_solve" else abs(T)
        D = (T * T / 4.0) * (1.0 + rng.uniform(0.2, 3.0)) + rng.uniform(0.1, 2.0)
    elif category == "a_zero_complex":
        a, D = 0.0, T * T / 4.0 + rng.uniform(0.1, 2.0)
    elif category == "a_pos_complex":
        a, D = rng.uniform(0.2, 3.0), T * T / 4.0 + rng.uniform(0.1, 2.0)
    elif category == "a_pos_real_distinct":
        a = rng.uniform(0.2, 3.0)
        T = rng.choice((-1.0, 1.0)) * rng.uniform(1.5, 3.0)
        D = rng.uniform(0.05, 0.9) * (T * T / 4.0)
    elif category == "a_pos_det_neg":
        a, D = rng.uniform(0.2, 3.0), rng.uniform(-2.0, -0.1)
    elif category == "a_pos_real_double":
        a = rng.uniform(0.2, 3.0)
        T = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.5)
        D = T * T / 4.0
    else:  # a_pos_det_zero; |T| < 1e-3 loses accuracy (see FOUND in CHANGES.md)
        a, D = rng.uniform(0.2, 3.0), 0.0
        T = rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 2.0)
    lam = ref.forward_lambda(a, T, D) if category == "a_neg_lam_solve" else 0.0
    mu = ref.forward_mu(a, T, D) if a > 0.0 else math.inf
    return (a, T, D), lam, mu


def pointwise_op(arg):
    a, T, D, orientation, y0 = arg
    return halfmap.evaluate(HalfSystem(a, T, D, orientation), y0)


def pointwise_check(arg, out) -> str | None:
    a, T, D, orientation, y0 = arg
    want = ref.flow_halfmap(HalfSystem(a, T, D, orientation), y0)
    if abs(out - want) > ref.MAP_TOL * max(1.0, abs(y0)):
        return f"evaluate={out!r}, oracle={want!r} at y0={y0!r}"
    return None


def _setup_pointwise(rng, w: Workload) -> None:
    for category in POINTWISE_CATEGORIES:
        for orientation in (Orientation.FORWARD, Orientation.BACKWARD):
            for _ in range(POINTWISE_PER_STRATUM):
                (a, T, D), lam, mu = _draw_forward_triple(rng, category)
                barrier = ref.forward_barrier(a, T, D) if a > 0.0 else None
                hi = min(mu, lam + 10.0 * max(1.0, lam))
                while True:
                    y0 = lam + rng.uniform(0.05, 0.9) * (hi - lam)
                    # A map value within 1e-10 of the W-root barrier makes
                    # evaluate raise ValueError (see FOUND in CHANGES.md), on
                    # about one draw in 1e5; such points are drawn again.
                    if barrier is None or abs(ref.flow_halfmap(
                            HalfSystem(a, T, D), y0) - barrier) > PINNED * abs(barrier):
                        break
                if orientation is Orientation.BACKWARD:
                    a, T = -a, -T  # the backward map of (-a, -T, D) is this forward map
                w.inputs.append((a, T, D, orientation, y0))
    rng.shuffle(w.inputs)
    w.ops = [(pointwise_op, arg) for arg in w.inputs]
    w.check = pointwise_check


# -- cli ---------------------------------------------------------------------

def _raw_form(rng, p: SystemParams) -> dict:
    """A non-Liénard raw system with the same reduced parameters and b = 0."""
    v = ref.invariants(raw_tuple(p))
    mats = {}
    for side in ("L", "R"):
        a12 = -rng.uniform(0.5, 2.0)
        a22 = rng.uniform(-1.0, 1.0)
        a11 = v["T" + side] - a22
        a21 = (a11 * a22 - v["D" + side]) / a12
        mats["A" + side] = [a11, a12, a21, a22]
        mats["b" + side] = [0.0, v["a" + side] / a12]
    return mats


def _canonical_form(p: SystemParams) -> dict:
    v = ref.invariants(raw_tuple(p))
    return {k: v[k] for k in ("TL", "DL", "aL", "TR", "DR", "aR")} | {"b": 0.0}


def raw_of_file(doc: dict) -> tuple:
    if "AL" in doc:
        return tuple(doc["AL"] + doc["AR"] + doc["bL"] + doc["bR"])
    # the Liénard lift the README documents for the canonical schema
    return (doc["TL"], -1.0, doc["DL"], 0.0, doc["TR"], -1.0, doc["DR"], 0.0,
            0.0, -doc["aL"], doc["b"], -doc["aR"])


def cli_op(cfg):
    out = io.StringIO()
    return cli.run(cfg, out), out.getvalue()


def _setup_cli(rng, w: Workload, seed: int, workdir: str) -> None:
    os.makedirs(workdir, exist_ok=True)
    for i, (kind, schema) in enumerate(itertools.product(CLI_SYSTEM_KINDS, CLI_SCHEMAS)):
        # annulus members with aR > 0 and TR < 0 make `--cmd displacement`
        # exit 2, so only aR < 0 members are drawn here
        p = (_draw_isolated(rng, False) if kind == "isolated_lam0"
             else _draw_annulus(rng, "a_neg_focus"))
        doc = _raw_form(rng, p) if schema == "raw" else _canonical_form(p)
        path = os.path.join(workdir, f"system{i}-{schema}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for command in cli.COMMANDS:
            for fmt in cli.FORMATS:
                for span in CLI_SPANS.get(command, ((),)):
                    argv = ["--input", path, "--cmd", command, "--grid", str(CLI_GRID),
                            "--format", fmt, "--seed", str(seed), *span]
                    cfg = cli.parse_config(argv)
                    w.ops.append((cli_op, cfg))
                    w.inputs.append((cfg, doc))
    w.check = CliChecker().check


class CliChecker:
    """Checks one command's output; the csv form of a table is checked like
    its json form, and a sweep's csv must repeat its json verdicts."""

    def __init__(self):
        self._sweeps = {}

    def check(self, inp, out) -> str | None:
        cfg, doc = inp
        rc, text = out
        if rc != 0:
            return f"exit code {rc}"
        rows = self._parse(cfg, text)
        if isinstance(rows, str):
            return rows
        raw = raw_of_file(doc)
        return getattr(self, "_check_" + cfg.command)(cfg, raw, rows)

    def _parse(self, cfg, text):
        """The rows as dicts keyed like the json form, or an error text."""
        if cfg.output_format == "json":
            try:
                doc = json.loads(text)
            except ValueError as exc:
                return f"output is not json: {exc}"
            return doc
        table = list(csv.reader(io.StringIO(text)))
        if not table or table[0] != CSV_HEADERS[cfg.command]:
            return "csv header differs from the documented schema"
        rows = [dict(zip(table[0], r)) for r in table[1:]]
        if cfg.command == "classify":
            return rows
        for r in rows:
            for k in r:
                if k not in ("leg", "verdict", "f_sign"):
                    r[k] = None if r[k] == "" else float(r[k])
        return {"rows": rows}

    def _check_classify(self, cfg, raw, doc):
        v = ref.invariants(raw)
        if cfg.output_format == "json":
            got = doc["verdict"]
            values = {r["name"]: r["value"] for r in doc["records"]}
        else:
            got = doc[0]["value"] if doc and doc[0]["record"] == "verdict" else None
            values = {r["record"]: float(r["value"]) for r in doc[1:] if r["record"] != "sliding"}
        if got != ref.verdict(raw):
            return f"verdict {got}, recomputed {ref.verdict(raw)}"
        for name, key in (("xi0", "xi0"), ("xi-inf", "xi_inf"), ("beta", "beta")):
            if name not in values or not ref.close(values[name], v[key], 1e-12 * v["scale_" + key]):
                return f"record {name} differs from the recomputed invariant"
        return None

    def _check_halfmap(self, cfg, raw, doc):
        rows = doc["rows"]
        if len(rows) != cfg.grid:
            return f"{len(rows)} rows, expected {cfg.grid}"
        v = ref.invariants(raw)
        left = HalfSystem(v["aL"], v["TL"], v["DL"], Orientation.FORWARD)
        right = HalfSystem(v["aR"], v["TR"], v["DR"], Orientation.BACKWARD)
        lam = rows[0]["y0"]
        for r in rows:
            y0 = r["y0"]
            for key, dkey, h in (("yL", "dyL", left), ("yRb", "dyRb", right)):
                want = ref.flow_halfmap(h, y0, lam)
                if abs(r[key] - want) > ref.MAP_TOL * max(1.0, abs(y0)):
                    return f"{key}={r[key]!r}, oracle={want!r} at y0={y0!r}"
                if r[dkey] is not None and y0 > lam:
                    if not ref.close(r[dkey], ref.slope(h, y0, want), ref.SLOPE_TOL):
                        return f"{dkey}={r[dkey]!r} differs from the closed-form slope"
        return None

    def _check_displacement(self, cfg, raw, doc):
        rows = doc["rows"]
        if len(rows) != cfg.grid:
            return f"{len(rows)} rows, expected {cfg.grid}"
        zl, zr = ref.canonical_zones(raw)
        lam = rows[0]["y0"]
        for r in rows:
            want = ref.flow_gap(zl, zr, r["y0"], lam)
            if abs(r["delta"] - want) > 2.0 * ref.MAP_TOL * max(1.0, abs(r["y0"])):
                return f"delta={r['delta']!r}, oracle={want!r} at y0={r['y0']!r}"
        for z in doc.get("zeros", ()):
            gap = ref.flow_gap(zl, zr, z["y0"], lam)
            if abs(gap) > oracle.CLOSURE_TOL * max(1.0, abs(z["y0"])):
                return f"zero at y0={z['y0']!r} does not close: gap {gap!r}"
        if cfg.output_format == "json":
            annulus = ref.verdict(raw) == "crossing-period-annulus"
            kinds = [z["kind"] for z in doc["zeros"]]
            if annulus != (kinds == ["annulus-candidate"]):
                return f"zeros {kinds} on a system the rule calls {ref.verdict(raw)}"
        return None

    def _check_portrait(self, cfg, raw, doc):
        legs = {}
        for r in doc["rows"]:
            legs.setdefault((r["orbit"], r["leg"]), []).append(r)
        if not legs:
            return "no portrait legs"
        for key, rows in legs.items():
            if len(rows) != cfg.grid:
                return f"leg {key} has {len(rows)} samples, expected {cfg.grid}"
            end = rows[-1]
            if abs(end["x"]) > PORTRAIT_END_TOL * max(1.0, abs(end["y"])):
                return f"leg {key} ends at x={end['x']!r}, not on x = 0"
        return None

    def _check_sweep(self, cfg, raw, doc):
        rows = doc["rows"]
        if len(rows) != cfg.grid:
            return f"{len(rows)} rows, expected {cfg.grid}"
        key = (cfg.input_path, cfg.seed)
        if cfg.output_format == "json":
            for r in rows:
                v = ref.invariants(r["params"])
                if r["verdict"] != ref.verdict(r["params"]):
                    return f"row {r['index']}: verdict {r['verdict']}, recomputed {ref.verdict(r['params'])}"
                for k in ("xi0", "xi_inf", "beta"):
                    if not ref.close(r[k], v[k], 1e-12 * v["scale_" + k]):
                        return f"row {r['index']}: {k} differs from the recomputed invariant"
            self._sweeps[key] = [(r["index"], r["verdict"], r["xi0"], r["xi_inf"], r["beta"])
                                 for r in rows]
            return None
        want = self._sweeps.get(key)
        got = [(int(r["index"]), r["verdict"], r["xi0"], r["xi_inf"], r["beta"]) for r in rows]
        if want is None:
            return "csv sweep checked before its json twin"
        if got != want:
            return "csv sweep rows differ from the json sweep of the same seed"
        return None


# -- entry -------------------------------------------------------------------

def setup(name: str, seed: int, workdir: str) -> Workload:
    """Draw one pass of inputs for workload `name` from `seed`."""
    rng = random.Random(f"{name}:{seed}")
    w = Workload(name=name)
    if name == "scan":
        _setup_scan(rng, w)
    elif name == "pointwise":
        _setup_pointwise(rng, w)
    elif name == "cli":
        _setup_cli(rng, w, seed, workdir)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return w
