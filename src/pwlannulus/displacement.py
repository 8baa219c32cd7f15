"""Displacement function built from the two half-maps, and its zero structure.

For the canonical system with offset b the displacement is

    delta_b(y0) = y_R(y0 - b) + b - y_L(y0)

on the common interval [lam_b, mu_b) with lam_b = max(lam_L, lam_R + b) and
mu_b = min(mu_L, mu_R + b).  Its identical vanishing is equivalent to a
crossing period annulus; an isolated zero is a crossing periodic orbit.

The derivative-sign helpers are restricted to b = 0.  There, at a zero y0*
with shared map value y1* < 0,

    sign(delta'(y0*)) = sign(F(y0*, y1*)),
    F(y0, y1) = c0 + c1*y0*y1 + c2*(y0 + y1),

and at a critical zero (delta' = 0 as well) the second derivative's sign is
sign(TL*(c2*y0* + c0)) = -sign(TR*(c2*y1* + c0)).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from . import halfmap
from .errors import ContractError, DomainError, EmptyDomainError, PreconditionError
from .halfmap import HalfSystem, Orientation

ANNULUS_TOL = 1e-9       # per-point |delta| bound for an annulus candidate
REFINE_WIDTH = 1e-10     # bisection width for isolated zeros
DELTA_ZERO_TOL = 1e-6    # hypothesis tolerance: delta(y0) == 0
DELTA_PRIME_TOL = 1e-6   # hypothesis tolerance: delta'(y0) == 0
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
    """Both half-systems, the offset, the common domain and the F coefficients."""

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
        c0=aR * aL * (aR * TL - aL * TR),
        c1=aR * TR * DL - aL * TL * DR,
        c2=aL * aL * DR - aR * aR * DL,
    )


def delta(ctx: DisplacementContext, y0: float) -> float:
    """Displacement value at y0 in [lam, mu)."""
    if ctx.is_empty:
        raise EmptyDomainError("the common half-map domain is empty")
    if not (ctx.lam <= y0 < ctx.mu):
        raise DomainError(f"y0={y0} outside [{ctx.lam}, {ctx.mu})")
    return halfmap.evaluate(ctx.right, y0 - ctx.b) + ctx.b - halfmap.evaluate(ctx.left, y0)


def delta_prime(ctx: DisplacementContext, y0: float) -> float:
    """Displacement derivative on the open interior, via the exact map slopes."""
    return (halfmap.derivative(ctx.right, y0 - ctx.b)
            - halfmap.derivative(ctx.left, y0))


def f_value(ctx: DisplacementContext, y0: float, y1: float) -> float:
    """F(y0, y1) = c0 + c1*y0*y1 + c2*(y0 + y1)."""
    return ctx.c0 + ctx.c1 * y0 * y1 + ctx.c2 * (y0 + y1)


def _sign(x: float) -> int:
    if x > 0.0:
        return 1
    if x < 0.0:
        return -1
    return 0


def _require_zero(ctx, y0, y1):
    if ctx.b != 0.0:
        raise PreconditionError("derivative-sign formulas require b = 0")
    if not (ctx.lam < y0 < ctx.mu):
        raise ContractError("y0 must lie in the open domain interior")
    d = delta(ctx, y0)
    if abs(d) > DELTA_ZERO_TOL * max(1.0, abs(y0)):
        raise ContractError(f"delta(y0)={d} is not zero within tolerance")
    if y1 >= 0.0:
        raise ContractError("the shared map value y1 must be negative")
    yl = halfmap.evaluate(ctx.left, y0)
    if abs(yl - y1) > DELTA_ZERO_TOL * max(1.0, abs(y1)):
        raise ContractError("y1 does not match the half-map value at y0")


def sign_delta_prime_at_zero(ctx: DisplacementContext, y0: float, y1: float) -> int:
    """sign(delta'(y0)) at a zero of delta, from the closed-form F."""
    _require_zero(ctx, y0, y1)
    return _sign(f_value(ctx, y0, y1))


def sign_delta_second_at_critical(ctx: DisplacementContext, y0: float,
                                  y1: float) -> tuple[int, int]:
    """Both closed-form expressions for sign(delta''(y0)) at a critical zero.

    The two components agree whenever the hypotheses hold; both are returned
    so callers can assert the agreement.
    """
    _require_zero(ctx, y0, y1)
    dp = delta_prime(ctx, y0)
    if abs(dp) > DELTA_PRIME_TOL * max(1.0, abs(y0)):
        raise ContractError(f"delta'(y0)={dp} is not zero within tolerance")
    first = _sign(ctx.left.T * (ctx.c2 * y0 + ctx.c0))
    second = -_sign(ctx.right.T * (ctx.c2 * y1 + ctx.c0))
    return first, second


def scan_window(ctx: DisplacementContext, *, span: float | None = None) -> tuple[float, float]:
    """[lo, hi) actually scanned: the domain, truncated when mu is infinite."""
    if ctx.is_empty:
        raise EmptyDomainError("the common half-map domain is empty")
    if span is None:
        span = SPAN_FACTOR * max(1.0, ctx.lam)
    hi = min(ctx.mu, ctx.lam + span)
    if math.isfinite(ctx.mu):
        # stand clear of the ill-conditioned upper endpoint
        hi = min(hi, ctx.mu - 1e-4 * (ctx.mu - ctx.lam))
    return ctx.lam, hi


def scan_grid(ctx: DisplacementContext, grid_n: int, *,
              span: float | None = None) -> list[float]:
    """The grid_n evenly spaced ordinates of the scan window, its upper end excluded."""
    if grid_n < 2:
        raise PreconditionError("grid_n must be at least 2")
    lo, hi = scan_window(ctx, span=span)
    step = (hi - lo) / grid_n
    return [lo + i * step for i in range(grid_n)]


def find_crossing_orbits(ctx: DisplacementContext, grid_n: int = DEFAULT_GRID, *,
                         span: float | None = None,
                         annulus_tol: float = ANNULUS_TOL) -> list[CrossingOrbit]:
    """Zero scan of the displacement over a grid.

    Returns one ANNULUS_CANDIDATE when |delta| < annulus_tol * max(1, |y0|) at
    every grid point, else one ISOLATED entry per bracketed sign change,
    refined by bisection.
    """
    ys = scan_grid(ctx, grid_n, span=span)
    ds = [delta(ctx, y) for y in ys]
    if all(abs(d) < annulus_tol * max(1.0, abs(y)) for y, d in zip(ys, ds)):
        lo, hi = scan_window(ctx, span=span)
        return [CrossingOrbit(y0=lo + 0.5 * (hi - lo), kind=OrbitKind.ANNULUS_CANDIDATE)]
    orbits = []
    for (ya, da), (yb, db) in zip(zip(ys, ds), zip(ys[1:], ds[1:])):
        if da == 0.0:
            # y0 = 0 is the maps' common fixed point, not a crossing orbit
            if ya != 0.0:
                orbits.append(CrossingOrbit(y0=ya, kind=OrbitKind.ISOLATED))
            continue
        if da * db < 0.0:
            a, b = ya, yb
            while b - a > REFINE_WIDTH * max(1.0, abs(a)):
                m = 0.5 * (a + b)
                dm = delta(ctx, m)
                if dm == 0.0:
                    a = b = m
                    break
                if (dm > 0.0) == (da > 0.0):
                    a = m
                else:
                    b = m
            orbits.append(CrossingOrbit(y0=0.5 * (a + b), kind=OrbitKind.ISOLATED))
    if ds and ds[-1] == 0.0:
        orbits.append(CrossingOrbit(y0=ys[-1], kind=OrbitKind.ISOLATED))
    return orbits
