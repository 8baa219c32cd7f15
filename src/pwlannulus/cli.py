"""Command-line front end.

One executable with a --cmd selector:

    classify      full verdict report with clause residuals
    halfmap       table of both half-maps and their derivatives over a grid
    displacement  table of the displacement function plus its zero scan
    portrait      exact-flow trajectory samples for grid-chosen ordinates
    sweep         seeded random perturbations of the input, one verdict each

Input is a JSON object in one of two mutually exclusive schemas:

    raw:        {"AL": [4 reals, row-major], "bL": [2], "AR": [4], "bR": [2]}
    canonical:  {"TL": ..., "DL": ..., "aL": ..., "TR": ..., "DR": ...,
                 "aR": ..., "b": ...}

Unknown keys are rejected.  Every flag has an environment-variable override
with the PWLANNULUS_ prefix (flags win; a bad value exits 1 like a bad flag).
Exit codes: 0 success (any verdict), 1 malformed input, 2 precondition
violations and other typed PwlErrors, printed as "error: <class>: <message>".
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from json.encoder import encode_basestring_ascii

from . import classifier, displacement, halfmap, oracle
from .errors import DomainError, NoReturnError, PwlError, TangencyError
from .params import SystemParams, from_canonical, to_canonical

ENV_PREFIX = "PWLANNULUS_"
COMMANDS = ("classify", "halfmap", "displacement", "portrait", "sweep")
FORMATS = ("json", "csv")
TOL_NAMES = ("classify", "annulus")
RAW_KEYS = {"AL", "bL", "AR", "bR"}
CANON_KEYS = ("TL", "DL", "aL", "TR", "DR", "aR", "b")   # checked in this order
PORTRAIT_ORBITS = 8
EXIT_OK, EXIT_BAD_INPUT, EXIT_PRECONDITION = 0, 1, 2


class _CliInputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); malformed flags are exit 1
        raise _CliInputError(message)


def _env(name: str) -> str | None:
    return os.environ.get(ENV_PREFIX + name) or None


def _parse_tol_items(items) -> dict[str, float]:
    out = {}
    for item in items:
        if "=" not in item:
            raise _CliInputError(f"--tol expects name=value, got {item!r}")
        name, _, val = item.partition("=")
        name = name.strip()
        if name not in TOL_NAMES:
            raise _CliInputError(f"unknown tolerance {name!r}; known: {', '.join(TOL_NAMES)}")
        try:
            fval = float(val)
        except ValueError as exc:
            raise _CliInputError(f"bad tolerance value {val!r}") from exc
        if not (math.isfinite(fval) and fval > 0.0):
            raise _CliInputError("tolerances must be finite and positive")
        out[name] = fval
    return out


def parse_config(argv) -> argparse.Namespace:
    """The run's settings: input_path, command, tolerances (name -> value),
    output_format, grid, span and seed."""
    parser = _Parser(prog="pwlannulus", add_help=True)
    # an environment value is the default, so argparse converts and rejects it
    parser.add_argument("--input", dest="input_path", metavar="INPUT", default=_env("INPUT"),
                        help="path to the system parameter file")
    parser.add_argument("--cmd", dest="command", default=_env("CMD"), choices=COMMANDS,
                        help="subcommand to run")
    parser.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE",
                        help=f"tolerance override, names: {', '.join(TOL_NAMES)}")
    parser.add_argument("--grid", type=int, default=_env("GRID") or displacement.DEFAULT_GRID,
                        help=f"grid size (default {displacement.DEFAULT_GRID})")
    parser.add_argument("--span", type=float, default=_env("SPAN"),
                        help="scan span / sweep perturbation half-width")
    parser.add_argument("--seed", type=int, default=_env("SEED") or 0,
                        help="random seed for sweep")
    parser.add_argument("--format", dest="output_format", default=_env("FORMAT") or "json",
                        choices=FORMATS, help="output format (default json)")
    args = parser.parse_args(argv)
    tol_items = args.tol or [s for s in (_env("TOL") or "").split(",") if s]

    if args.input_path is None:
        raise _CliInputError("--input is required")
    if args.command is None:
        raise _CliInputError("--cmd is required")
    if args.command not in COMMANDS:   # argparse checks a flag's choices, not a default's
        raise _CliInputError(f"unknown command {args.command!r}")
    if args.output_format not in FORMATS:
        raise _CliInputError(f"unknown format {args.output_format!r}")
    if args.grid < 2:
        raise _CliInputError("--grid must be at least 2")
    if args.span is not None and not (math.isfinite(args.span) and args.span > 0.0):
        raise _CliInputError("--span must be finite and positive")
    args.tolerances = _parse_tol_items(tol_items)
    return args


def _as_real(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _CliInputError(f"{where} must be a number")
    try:
        f = float(value)
    except OverflowError:   # an int beyond the double range
        f = math.inf
    if not math.isfinite(f):
        raise _CliInputError(f"{where} must be finite")
    return f


def _load_params(path: str) -> SystemParams:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise _CliInputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:   # also too many digits, not UTF-8, too deep
        raise _CliInputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise _CliInputError("the parameter file must hold a JSON object")
    keys = set(data)
    if keys == RAW_KEYS:
        vals = []
        for key, size in (("AL", 4), ("AR", 4), ("bL", 2), ("bR", 2)):   # SystemParams' order
            v = data[key]
            if not isinstance(v, list) or len(v) != size:
                raise _CliInputError(f"{key} must be a list of {size} reals")
            vals += [_as_real(x, f"{key}[{i}]") for i, x in enumerate(v)]
        return SystemParams(*vals)
    if keys == set(CANON_KEYS):
        vals = {k: _as_real(data[k], k) for k in CANON_KEYS}
        return from_canonical(
            a_left=vals["aL"], trace_left=vals["TL"], det_left=vals["DL"],
            a_right=vals["aR"], trace_right=vals["TR"], det_right=vals["DR"],
            offset=vals["b"])
    raise _CliInputError(
        "the parameter file must carry exactly the keys AL, bL, AR, bR or "
        "TL, DL, aL, TR, DR, aR, b")


# -- emission ----------------------------------------------------------------
#
# A table is written in one piece from a row template built once from its
# header, whose names need no quoting.  Its cells are None, ints, floats
# (finite or not), strings this module names (verdicts, record names,
# pass/fail/"", left/right), none of which csv.writer quotes, and in json
# only sweep's params, a list of finite floats.  One column rule serves both
# formats: a column whose cells all print as their repr fills a %r slot; a
# column of strings fills a %s slot, each quoted for json and as it is for
# csv; any other column is converted cell by cell.  The bytes are those of
# json.dumps({**head, "rows": [dict(zip(header, r)) for r in rows], **tail},
# indent=2) + "\n", and of csv.writer(out, lineterminator="\n") writing the
# header and the rows.


def _json_cell(v) -> str:
    """v as json.dumps(..., indent=2) writes it as the value of a row's key."""
    if v is None:
        return "null"
    if isinstance(v, float):
        if math.isfinite(v):
            return float.__repr__(v)
        return "NaN" if v != v else "Infinity" if v > 0.0 else "-Infinity"
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if isinstance(v, list):   # sweep's params
        return "[\n        " + ",\n        ".join(map(repr, v)) + "\n      ]"
    return repr(v)


def _csv_cell(v) -> str:
    return "" if v is None else str(v)   # str(float) is its repr, as csv.writer writes it


def _slots(rows, plain, string, cell):
    """Each column's slot and the rows that fill them, by the rule above: plain
    tells a %r column, string and cell convert the cells of any other."""
    slots, cols = [], []
    for col in zip(*rows):
        kinds = set(map(type, col))
        if plain(kinds, col):
            slots.append("%r")
        else:
            slots.append("%s")
            col = list(map(string if kinds == {str} else cell, col))
        cols.append(col)
    return slots, zip(*cols)


def _json_plain(kinds, col) -> bool:
    return kinds == {int} or kinds == {float} and all(map(math.isfinite, col))


def _json_table(header, rows, head=None, tail=None) -> str:
    """The table as json.dumps of head, then "rows" as objects keyed by the
    header, then tail (keys distinct, none of them "rows")."""
    start = "{" + (json.dumps(head, indent=2)[1:-2] + "," if head else "") + '\n  "rows": '
    end = ("," + json.dumps(tail, indent=2)[1:-2] if tail else "") + "\n}\n"
    if not rows:
        return start + "[]" + end
    slots, cells = _slots(rows, _json_plain, encode_basestring_ascii, _json_cell)
    template = "    {\n" + ",\n".join(
        f'      "{name}": {slot}' for name, slot in zip(header, slots)) + "\n    }"
    return "".join((start, "[\n", ",\n".join(map(template.__mod__, cells)), "\n  ]", end))


def _csv_table(header, rows) -> str:
    """The header and the rows as csv.writer writes them."""
    slots, cells = _slots(rows, lambda kinds, _: kinds <= {float, int}, str, _csv_cell)
    return ",".join(header) + "\n" + "".join(map((",".join(slots) + "\n").__mod__, cells))


def _emit_table(cfg: argparse.Namespace, out, header, rows, *, head=None, tail=None) -> None:
    """One write of the table: json keys the rows by the header between head
    and tail; csv writes the header and the rows (None as an empty cell)."""
    out.write(_json_table(header, rows, head, tail) if cfg.output_format == "json"
              else _csv_table(header, rows))


def _run_classify(cfg: argparse.Namespace, p: SystemParams, out) -> int:
    tol = cfg.tolerances.get("classify", classifier.DEFAULT_TOL)
    cls = classifier.classify(p, tol)
    if cfg.output_format == "json":  # a few lines: no table
        out.write(json.dumps({
            "verdict": cls.verdict.value,
            "records": [{"name": r.name, "value": r.value, "passed": r.passed}
                        for r in cls.records],
            "sliding": list(cls.sliding) if cls.sliding is not None else None},
            indent=2) + "\n")
    else:
        rows = [("verdict", cls.verdict.value, "")]
        rows += [(r.name, r.value, "pass" if r.passed else "fail") for r in cls.records]
        if cls.sliding is not None:
            rows.append(("sliding", *cls.sliding))
        out.write(_csv_table(("record", "value", "status"), rows))
    return EXIT_OK


def _context(p: SystemParams) -> displacement.DisplacementContext:
    """Displacement context of the canonical form, shared by the map-table commands."""
    canon = to_canonical(p)
    return displacement.make_context(canon.left, canon.right, canon.b)


def _slope(h: halfmap.HalfSystem, y0: float, y1: float) -> float | None:
    """The map's slope at a table row; None at a domain endpoint."""
    try:
        return halfmap.slope(h, y0, y1)
    except DomainError:
        return None


def _domain_entry(ctx: displacement.DisplacementContext) -> dict:
    return {"domain": {"lam": ctx.lam, "mu": ctx.mu if math.isfinite(ctx.mu) else None}}


def _run_halfmap(cfg: argparse.Namespace, p: SystemParams, out) -> int:
    ctx = _context(p)
    rows = [(y0, yl, yr + ctx.b, _slope(ctx.left, y0, yl), _slope(ctx.right, y0 - ctx.b, yr))
            for y0, yl, yr, _ in displacement.scan(ctx, cfg.grid, span=cfg.span).rows]
    _emit_table(cfg, out, ("y0", "yL", "yRb", "dyL", "dyRb"), rows, head=_domain_entry(ctx))
    return EXIT_OK


def _run_displacement(cfg: argparse.Namespace, p: SystemParams, out) -> int:
    ctx = _context(p)
    annulus_tol = cfg.tolerances.get("annulus", displacement.ANNULUS_TOL)
    record = displacement.scan(ctx, cfg.grid, span=cfg.span)
    rows = [(r.y0, r.delta, displacement.sign_delta_prime_at_zero(ctx, r)) for r in record.rows]
    orbits = displacement.orbits_from_scan(ctx, record, annulus_tol=annulus_tol)
    _emit_table(cfg, out, ("y0", "delta", "f_sign"), rows, head=_domain_entry(ctx),
                tail={"zeros": [{"y0": o.y0, "kind": o.kind.value} for o in orbits]})
    return EXIT_OK


def _run_portrait(cfg: argparse.Namespace, p: SystemParams, out) -> int:
    ctx = _context(p)
    lo, hi = displacement.scan_window(ctx, span=cfg.span)
    zl = oracle.ZoneFlow(T=ctx.left.T, D=ctx.left.D, a=ctx.left.a, b=0.0)
    zr = oracle.ZoneFlow(T=ctx.right.T, D=ctx.right.D, a=ctx.right.a, b=ctx.b)
    rows = []
    for i in range(PORTRAIT_ORBITS):
        y0 = lo + (hi - lo) * (i + 1) / (PORTRAIT_ORBITS + 1)
        for leg, zone, direction, sgn in (
                ("left", zl, halfmap.Orientation.FORWARD, 1.0),
                ("right", zr, halfmap.Orientation.BACKWARD, -1.0)):
            try:
                ev = oracle.next_crossing(zone, y0, direction)
            except (NoReturnError, TangencyError) as exc:
                print(f"warning: orbit {i} {leg} leg left out: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                continue
            rows += [(i, leg, t, x, y)
                     for t, x, y in oracle.sample_trajectory(zone, 0.0, y0, sgn * ev.t, cfg.grid)]
    _emit_table(cfg, out, ("orbit", "leg", "t", "x", "y"), rows)
    return EXIT_OK


def _run_sweep(cfg: argparse.Namespace, p: SystemParams, out) -> int:
    tol = cfg.tolerances.get("classify", classifier.DEFAULT_TOL)
    half_width = cfg.span if cfg.span is not None else 0.1
    rng = random.Random(cfg.seed)
    base = [p.aL11, p.aL12, p.aL21, p.aL22, p.aR11, p.aR12, p.aR21, p.aR22,
            p.bL1, p.bL2, p.bR1, p.bR2]
    rows = []
    for idx in range(cfg.grid):
        vals = [v + rng.uniform(-half_width, half_width) for v in base]
        cls = classifier.classify(SystemParams(*vals), tol)
        res = {r.name: r.value for r in cls.records}
        rows.append((idx, vals, cls.verdict.value, res["xi0"], res["xi-inf"], res["beta"]))
    if cfg.output_format == "json":
        _emit_table(cfg, out, ("index", "params", "verdict", "xi0", "xi_inf", "beta"), rows,
                    head={"seed": cfg.seed, "half_width": half_width})
    else:
        _emit_table(cfg, out, ("index", "verdict", "xi0", "xi_inf", "beta"),
                    [(r[0], *r[2:]) for r in rows])
    return EXIT_OK


_RUNNERS = {
    "classify": _run_classify,
    "halfmap": _run_halfmap,
    "displacement": _run_displacement,
    "portrait": _run_portrait,
    "sweep": _run_sweep,
}


def run(cfg: argparse.Namespace, out=None) -> int:
    """Execute one configured command, streaming to `out` (default stdout)."""
    out = out if out is not None else sys.stdout
    try:
        params = _load_params(cfg.input_path)
    except _CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        return _RUNNERS[cfg.command](cfg, params, out)
    except PwlError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        cfg = parse_config(argv)
    except _CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
