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
with the PWLANNULUS_ prefix (flags win).  Exit codes: 0 success (any verdict),
1 malformed input, 2 precondition violations and other typed PwlErrors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import random
import sys
from dataclasses import dataclass, field

from . import classifier, displacement, halfmap, oracle
from .errors import DomainError, NoReturnError, PwlError, TangencyError
from .params import SystemParams, from_canonical, to_canonical

ENV_PREFIX = "PWLANNULUS_"
COMMANDS = ("classify", "halfmap", "displacement", "portrait", "sweep")
FORMATS = ("json", "csv")
TOL_NAMES = ("classify", "annulus")
RAW_KEYS = {"AL", "bL", "AR", "bR"}
CANON_KEYS = {"TL", "DL", "aL", "TR", "DR", "aR", "b"}
PORTRAIT_ORBITS = 8
EXIT_OK, EXIT_BAD_INPUT, EXIT_PRECONDITION = 0, 1, 2


class _CliInputError(Exception):
    pass


@dataclass
class RunConfig:
    input_path: str
    command: str
    tolerances: dict[str, float] = field(default_factory=dict)
    output_format: str = "json"
    grid: int = 64
    span: float | None = None
    seed: int = 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); malformed flags are exit 1
        raise _CliInputError(message)


def _env(name: str) -> str | None:
    return os.environ.get(ENV_PREFIX + name)


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


def parse_config(argv) -> RunConfig:
    parser = _Parser(prog="pwlannulus", add_help=True)
    parser.add_argument("--input", help="path to the system parameter file")
    parser.add_argument("--cmd", choices=COMMANDS, help="subcommand to run")
    parser.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE",
                        help=f"tolerance override, names: {', '.join(TOL_NAMES)}")
    parser.add_argument("--grid", type=int, help="grid size (default 64)")
    parser.add_argument("--span", type=float,
                        help="scan span / sweep perturbation half-width")
    parser.add_argument("--seed", type=int, help="random seed for sweep")
    parser.add_argument("--format", choices=FORMATS, help="output format (default json)")
    args = parser.parse_args(argv)

    input_path = args.input if args.input is not None else _env("INPUT")
    command = args.cmd if args.cmd is not None else _env("CMD")
    fmt = args.format if args.format is not None else (_env("FORMAT") or "json")
    grid = args.grid
    if grid is None:
        grid = int(_env("GRID")) if _env("GRID") else 64
    span = args.span
    if span is None and _env("SPAN"):
        span = float(_env("SPAN"))
    seed = args.seed
    if seed is None:
        seed = int(_env("SEED")) if _env("SEED") else 0
    tol_items = list(args.tol)
    if not tol_items and _env("TOL"):
        tol_items = [s for s in _env("TOL").split(",") if s]

    if input_path is None:
        raise _CliInputError("--input is required")
    if command is None:
        raise _CliInputError("--cmd is required")
    if command not in COMMANDS:
        raise _CliInputError(f"unknown command {command!r}")
    if fmt not in FORMATS:
        raise _CliInputError(f"unknown format {fmt!r}")
    if grid < 2:
        raise _CliInputError("--grid must be at least 2")
    if span is not None and not (math.isfinite(span) and span > 0.0):
        raise _CliInputError("--span must be finite and positive")
    return RunConfig(input_path=input_path, command=command,
                     tolerances=_parse_tol_items(tol_items),
                     output_format=fmt, grid=grid, span=span, seed=seed)


def _as_real(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _CliInputError(f"{where} must be a number")
    f = float(value)
    if not math.isfinite(f):
        raise _CliInputError(f"{where} must be finite")
    return f


def _load_params(path: str) -> SystemParams:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise _CliInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _CliInputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise _CliInputError("the parameter file must hold a JSON object")
    keys = set(data)
    if keys == RAW_KEYS:
        vecs = {}
        for key, size in (("AL", 4), ("AR", 4), ("bL", 2), ("bR", 2)):
            v = data[key]
            if not isinstance(v, list) or len(v) != size:
                raise _CliInputError(f"{key} must be a list of {size} reals")
            vecs[key] = [_as_real(x, f"{key}[{i}]") for i, x in enumerate(v)]
        try:
            return SystemParams.from_matrices(vecs["AL"], vecs["bL"], vecs["AR"], vecs["bR"])
        except ValueError as exc:
            raise _CliInputError(str(exc)) from exc
    if keys == CANON_KEYS:
        vals = {k: _as_real(data[k], k) for k in CANON_KEYS}
        return from_canonical(
            a_left=vals["aL"], trace_left=vals["TL"], det_left=vals["DL"],
            a_right=vals["aR"], trace_right=vals["TR"], det_right=vals["DR"],
            offset=vals["b"])
    raise _CliInputError(
        "the parameter file must carry exactly the keys AL, bL, AR, bR or "
        "TL, DL, aL, TR, DR, aR, b")


# -- emission ----------------------------------------------------------------

def _emit_json(out, payload) -> None:
    json.dump(payload, out, indent=2)
    out.write("\n")


def _emit_csv(out, header, rows) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)


def _classification_payload(cls: classifier.Classification) -> dict:
    return {
        "verdict": cls.verdict.value,
        "records": [
            {"name": r.name, "value": r.value, "passed": r.passed}
            for r in cls.records
        ],
        "sliding": list(cls.sliding) if cls.sliding is not None else None,
    }


def _run_classify(cfg: RunConfig, p: SystemParams, out) -> int:
    tol = cfg.tolerances.get("classify", classifier.DEFAULT_TOL)
    cls = classifier.classify(p, tol)
    if cfg.output_format == "json":
        _emit_json(out, _classification_payload(cls))
    else:
        rows = [["verdict", cls.verdict.value, ""]]
        rows += [[r.name, repr(r.value), "pass" if r.passed else "fail"]
                 for r in cls.records]
        if cls.sliding is not None:
            rows.append(["sliding", repr(cls.sliding[0]), repr(cls.sliding[1])])
        _emit_csv(out, ["record", "value", "status"], rows)
    return EXIT_OK


def _context(p: SystemParams) -> displacement.DisplacementContext:
    """Displacement context of the canonical form, shared by the map-table commands."""
    canon = to_canonical(p)
    return displacement.make_context(canon.left, canon.right, canon.b)


def _run_halfmap(cfg: RunConfig, p: SystemParams, out) -> int:
    ctx = _context(p)
    rows = []
    for y0 in displacement.scan_grid(ctx, cfg.grid, span=cfg.span):
        y_left = halfmap.evaluate(ctx.left, y0)
        y_right = halfmap.evaluate(ctx.right, y0 - ctx.b) + ctx.b
        try:
            d_left = halfmap.derivative(ctx.left, y0)
        except DomainError:
            d_left = None
        try:
            d_right = halfmap.derivative(ctx.right, y0 - ctx.b)
        except DomainError:
            d_right = None
        rows.append((y0, y_left, y_right, d_left, d_right))
    if cfg.output_format == "json":
        _emit_json(out, {
            "domain": {"lam": ctx.lam, "mu": ctx.mu if math.isfinite(ctx.mu) else None},
            "rows": [{"y0": r[0], "yL": r[1], "yRb": r[2], "dyL": r[3], "dyRb": r[4]}
                     for r in rows],
        })
    else:
        _emit_csv(out, ["y0", "yL", "yRb", "dyL", "dyRb"],
                  [[repr(r[0]), repr(r[1]), repr(r[2]),
                    "" if r[3] is None else repr(r[3]),
                    "" if r[4] is None else repr(r[4])] for r in rows])
    return EXIT_OK


def _run_displacement(cfg: RunConfig, p: SystemParams, out) -> int:
    ctx = _context(p)
    annulus_tol = cfg.tolerances.get("annulus", displacement.ANNULUS_TOL)
    rows = []
    for y0 in displacement.scan_grid(ctx, cfg.grid, span=cfg.span):
        d = displacement.delta(ctx, y0)
        f_sign = None
        if ctx.b == 0.0 and abs(d) <= displacement.DELTA_ZERO_TOL * max(1.0, abs(y0)):
            y1 = halfmap.evaluate(ctx.left, y0)
            if y1 < 0.0:
                f_sign = displacement.sign_delta_prime_at_zero(ctx, y0, y1)
        rows.append((y0, d, f_sign))
    orbits = displacement.find_crossing_orbits(
        ctx, cfg.grid, span=cfg.span, annulus_tol=annulus_tol)
    if cfg.output_format == "json":
        _emit_json(out, {
            "domain": {"lam": ctx.lam, "mu": ctx.mu if math.isfinite(ctx.mu) else None},
            "rows": [{"y0": r[0], "delta": r[1], "f_sign": r[2]} for r in rows],
            "zeros": [{"y0": o.y0, "kind": o.kind.value} for o in orbits],
        })
    else:
        _emit_csv(out, ["y0", "delta", "f_sign"],
                  [[repr(r[0]), repr(r[1]), "" if r[2] is None else r[2]]
                   for r in rows])
    return EXIT_OK


def _run_portrait(cfg: RunConfig, p: SystemParams, out) -> int:
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
            except (NoReturnError, TangencyError):
                continue
            for t, x, y in oracle.sample_trajectory(zone, 0.0, y0, sgn * ev.t, cfg.grid):
                rows.append((i, leg, t, x, y))
    if cfg.output_format == "json":
        _emit_json(out, {"rows": [
            {"orbit": r[0], "leg": r[1], "t": r[2], "x": r[3], "y": r[4]}
            for r in rows]})
    else:
        _emit_csv(out, ["orbit", "leg", "t", "x", "y"],
                  [[r[0], r[1], repr(r[2]), repr(r[3]), repr(r[4])] for r in rows])
    return EXIT_OK


def _run_sweep(cfg: RunConfig, p: SystemParams, out) -> int:
    tol = cfg.tolerances.get("classify", classifier.DEFAULT_TOL)
    half_width = cfg.span if cfg.span is not None else 0.1
    rng = random.Random(cfg.seed)
    base = [p.aL11, p.aL12, p.aL21, p.aL22, p.aR11, p.aR12, p.aR21, p.aR22,
            p.bL1, p.bL2, p.bR1, p.bR2]
    results = []
    for idx in range(cfg.grid):
        vals = [v + rng.uniform(-half_width, half_width) for v in base]
        cls = classifier.classify(SystemParams(*vals), tol)
        residuals = {r.name: r.value for r in cls.records
                     if r.name in ("xi0", "xi-inf", "beta")}
        results.append((idx, vals, cls, residuals))
    if cfg.output_format == "json":
        _emit_json(out, {"seed": cfg.seed, "half_width": half_width, "rows": [
            {"index": idx, "params": vals, "verdict": cls.verdict.value,
             "xi0": res["xi0"], "xi_inf": res["xi-inf"], "beta": res["beta"]}
            for idx, vals, cls, res in results]})
    else:
        _emit_csv(out, ["index", "verdict", "xi0", "xi_inf", "beta"],
                  [[idx, cls.verdict.value, repr(res["xi0"]),
                    repr(res["xi-inf"]), repr(res["beta"])]
                   for idx, vals, cls, res in results])
    return EXIT_OK


_RUNNERS = {
    "classify": _run_classify,
    "halfmap": _run_halfmap,
    "displacement": _run_displacement,
    "portrait": _run_portrait,
    "sweep": _run_sweep,
}


def run(cfg: RunConfig, out=None) -> int:
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
        print(f"precondition failed: {exc}", file=sys.stderr)
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
