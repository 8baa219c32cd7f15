"""Displacement function built from the two half-maps, and its zero structure.

For the canonical system with offset b the displacement is

    delta_b(y0) = y_R(y0 - b) + b - y_L(y0)

on the common interval [lam_b, mu_b) with lam_b = max(lam_L, lam_R + b) and
mu_b = min(mu_L, mu_R + b).  Its identical vanishing is equivalent to a
crossing period annulus; an isolated zero is a crossing periodic orbit.

For b = 0, at a zero y0* with shared map value y1* < 0,

    sign(delta'(y0*)) = sign(F(y0*, y1*)),
    F(y0, y1) = c0 + c1*y0*y1 + c2*(y0 + y1),

which sign_delta_prime_at_zero reads off a scan row with no further solve;
the displacement table's f_sign column is that sign on each row.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

from . import halfmap
from .classifier import DEFAULT_TOL, _vanishes
from .errors import DomainError, EmptyDomainError, PreconditionError
from .halfmap import HalfSystem, Orientation

ANNULUS_TOL = 1e-9       # per-point |delta| bound for an annulus candidate
REFINE_WIDTH = 1e-10     # Illinois bracket width for isolated zeros
DELTA_ZERO_TOL = 1e-6    # hypothesis tolerance: delta(y0) == 0
DEFAULT_GRID = 64
SPAN_FACTOR = 10.0       # scan span for an unbounded upper endpoint


class OrbitKind(enum.Enum):
    ISOLATED = "isolated"
    ANNULUS_CANDIDATE = "annulus-candidate"


@dataclass(frozen=True)
class CrossingOrbit:
    y0: float
    kind: OrbitKind


@dataclass(frozen=True)
class DisplacementContext:
    """Both half-systems, the offset, the common domain and the F coefficients,
    each 0 where classify's zero test finds it vanishes (see _difference)."""

    left: HalfSystem
    right: HalfSystem
    b: float
    lam: float
    mu: float
    c0: float
    c1: float
    c2: float

    @property
    def is_empty(self) -> bool:
        return not self.lam < self.mu


def make_context(left: HalfSystem, right: HalfSystem, b: float = 0.0) -> DisplacementContext:
    """Assemble the displacement context; an empty domain is flagged, not raised."""
    if left.orientation is not Orientation.FORWARD:
        raise PreconditionError("left half-system must be forward-oriented")
    if right.orientation is not Orientation.BACKWARD:
        raise PreconditionError("right half-system must be backward-oriented")
    if not math.isfinite(b):
        raise PreconditionError("the offset b must be a finite real")
    for side, h in (("left", left), ("right", right)):
        if not halfmap.exists(h):
            raise DomainError(f"{side} half-map does not exist")
    dl = halfmap.domain(left)
    dr = halfmap.domain(right)
    aL, TL, DL = left.a, left.T, left.D
    aR, TR, DR = right.a, right.T, right.D
    return DisplacementContext(
        left=left, right=right, b=b,
        lam=max(dl.lam, dr.lam + b),
        mu=min(dl.mu, dr.mu + b),
        c0=aR * aL * _difference(aR * TL, aL * TR),
        c1=_difference(aR * TR * DL, aL * TL * DR),
        c2=_difference(aL * aL * DR, aR * aR * DL),
    )


def _difference(p: float, q: float) -> float:
    """p - q, or 0 where classify's zero test finds it vanishes against p and q."""
    return 0.0 if _vanishes(p - q, DEFAULT_TOL, p, q) else p - q


class ScanRow(NamedTuple):
    """One grid point: both map values and the displacement, each solved once."""

    y0: float
    yL: float
    yR: float      # right map at max(y0 - b, lam_R), not shifted by b
    delta: float   # yR + b - yL; bitwise delta(ctx, y0) on row 0 only (see scan)


def _row(ctx: DisplacementContext, y0: float) -> ScanRow:
    """Both map values at y0, right map first, and the displacement they give.

    The right map is solved at y0 - b, raised to lam_R where it rounds below:
    lam = lam_R + b rounds, and y0 - b need not round back.
    """
    yr = halfmap.evaluate(ctx.right, max(y0 - ctx.b, halfmap.domain(ctx.right).lam))
    yl = halfmap.evaluate(ctx.left, y0)
    return ScanRow(y0, yl, yr, yr + ctx.b - yl)


def delta(ctx: DisplacementContext, y0: float) -> float:
    """Displacement value at y0 in [lam, mu)."""
    if ctx.is_empty:
        raise EmptyDomainError("the common half-map domain is empty")
    if not (ctx.lam <= y0 < ctx.mu):
        raise DomainError(f"y0={y0} outside [{ctx.lam}, {ctx.mu})")
    return _row(ctx, y0).delta


def sign_delta_prime_at_zero(ctx: DisplacementContext, row: ScanRow) -> int | None:
    """sign(delta') at the row from the closed-form F, with no solve; None
    unless b = 0, y0 > lam, yL < 0 and delta = 0 within DELTA_ZERO_TOL (a
    NaN delta is no zero)."""
    y0, y1 = row.y0, row.yL
    if not (ctx.b == 0.0 and y0 > ctx.lam and y1 < 0.0
            and abs(row.delta) <= DELTA_ZERO_TOL * max(1.0, abs(y0))):
        return None
    f = ctx.c0 + ctx.c1 * y0 * y1 + ctx.c2 * (y0 + y1)
    return (f > 0.0) - (f < 0.0)


def scan_window(ctx: DisplacementContext, *, span: float | None = None) -> tuple[float, float]:
    """[lo, hi) actually scanned, never empty: the domain truncated to lam +
    span (finite, positive; None: SPAN_FACTOR * max(1, lam)), clear of a finite mu."""
    if ctx.is_empty:
        raise EmptyDomainError("the common half-map domain is empty")
    if span is None:
        span = SPAN_FACTOR * max(1.0, ctx.lam)
    elif not 0.0 < span < math.inf:  # also refuses NaN
        raise PreconditionError("span must be finite and positive")
    hi = min(ctx.mu, ctx.lam + span)
    if math.isfinite(ctx.mu):
        # stand clear of the ill-conditioned upper endpoint
        hi = min(hi, ctx.mu - 1e-4 * (ctx.mu - ctx.lam))
    if not ctx.lam < hi:
        raise PreconditionError("span is below the resolution of lam: the scan window is empty")
    return ctx.lam, hi


@dataclass(frozen=True)
class ScanRecord:
    """The scanned window [lo, hi) and one row per grid point."""

    lo: float
    hi: float
    rows: tuple[ScanRow, ...]


def scan(ctx: DisplacementContext, grid_n: int, *,
         span: float | None = None) -> ScanRecord:
    """Solve each half-map once per grid point of the scan window.

    Each row solves the right map, then the left, by the walk that brackets
    a cold solve, started from the same map's value on the row before
    (halfmap._evaluate_after), with about half the residual evaluations;
    row 0 has no row before and solves cold, as _row does.  A warm value is
    a cold evaluate's within the Newton stop, or within the residual's
    rounding where that is wider, and raises the same error where evaluate
    raises.
    """
    if not (isinstance(grid_n, int) and grid_n >= 2):
        raise PreconditionError("grid_n must be an int of at least 2")
    lo, hi = scan_window(ctx, span=span)
    step = (hi - lo) / grid_n
    left, right, b = ctx.left, ctx.right, ctx.b
    lam_r = halfmap.domain(right).lam   # the right map's floor, as in _row
    after = halfmap._evaluate_after
    rows, y0p, yl, yr = [], math.nan, math.nan, math.nan
    for y0 in (lo + i * step for i in range(grid_n)):
        yr = after(right, max(y0 - b, lam_r), y0p - b, yr)
        yl = after(left, y0, y0p, yl)
        rows.append(ScanRow(y0, yl, yr, yr + b - yl))
        y0p = y0
    return ScanRecord(lo, hi, tuple(rows))


def find_crossing_orbits(ctx: DisplacementContext,
                         grid_n: int = DEFAULT_GRID) -> list[CrossingOrbit]:
    """Zero scan of the displacement over a grid; see orbits_from_scan."""
    return orbits_from_scan(ctx, scan(ctx, grid_n))


def orbits_from_scan(ctx: DisplacementContext, record: ScanRecord, *,
                     annulus_tol: float = ANNULUS_TOL) -> list[CrossingOrbit]:
    """Crossing orbits of a scan record.

    Returns one ANNULUS_CANDIDATE when |delta| < annulus_tol * max(1, |y0|,
    |yL|) at every row, else one ISOLATED entry per bracketed sign change,
    refined by Illinois regula falsi (Dowell and Jarratt, BIT 1971) from the
    two rows' own delta values: the secant point of the bracket, or its
    midpoint when the secant point is not strictly inside, kept half a width
    inside the bracket, and the kept endpoint's delta halved when the same
    endpoint is kept twice in a row.  The bracket stops at the width
    REFINE_WIDTH * max(1, |a|) and its midpoint is the zero.  When lam > 0
    the first row y0 = lam is left out: a half-map value is 0 there, so it
    is a fold orbit, not a crossing orbit, and its delta is only the noise
    of the two separate endpoint solves.
    """
    if not 0.0 < annulus_tol < math.inf:  # also refuses NaN
        raise PreconditionError("annulus_tol must be finite and positive")
    rows = record.rows[1:] if ctx.lam > 0.0 else record.rows
    if all(abs(r.delta) < annulus_tol * max(1.0, abs(r.y0), abs(r.yL)) for r in rows):
        lo, hi = record.lo, record.hi
        return [CrossingOrbit(y0=lo + 0.5 * (hi - lo), kind=OrbitKind.ANNULUS_CANDIDATE)]
    orbits = []
    for (ya, _, _, da), (yb, _, _, db) in zip(rows, rows[1:]):
        if da == 0.0:
            # y0 = 0 is the maps' common fixed point, not a crossing orbit
            if ya != 0.0:
                orbits.append(CrossingOrbit(y0=ya, kind=OrbitKind.ISOLATED))
            continue
        if da * db < 0.0:
            a, b = ya, yb
            kept = 0   # +1 when b was kept at the last step, -1 when a was
            while b - a > (width := REFINE_WIDTH * max(1.0, abs(a))):
                m = a - da * (b - a) / (db - da)
                if not a < m < b:
                    m = 0.5 * (a + b)
                # half a width inside: regula falsi closes in on a zero from
                # one side, and a point half a width past it ends the loop
                m = min(max(m, a + 0.5 * width), b - 0.5 * width)
                dm = delta(ctx, m)
                if dm == 0.0:
                    a = b = m
                    break
                if (dm > 0.0) == (da > 0.0):
                    a, da = m, dm
                    if kept > 0:  # b kept twice: halve its weight
                        db *= 0.5
                    kept = 1
                else:
                    b, db = m, dm
                    if kept < 0:
                        da *= 0.5
                    kept = -1
            orbits.append(CrossingOrbit(y0=0.5 * (a + b), kind=OrbitKind.ISOLATED))
    if rows and rows[-1].delta == 0.0:
        orbits.append(CrossingOrbit(y0=rows[-1].y0, kind=OrbitKind.ISOLATED))
    return orbits
