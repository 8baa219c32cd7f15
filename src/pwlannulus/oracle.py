"""Independent ground truth: exact flow of one linear zone, with crossing search.

Each zone of the canonical system is the linear field

    x' = T*x - y + b,      y' = D*x - a

(b = 0 for the left zone).  The flow is evaluated in one closed form, formed
once per orbit: the spectral decomposition around the zone equilibrium, with
D = 0 handled as an affine drift, so the only numerical step anywhere is
scalar root-finding on the explicit function x(t).  That keeps this module
independent of, and more trustworthy than, the half-map solver it checks.

Crossing search reads x(t) and y(t) from that closed form and x'(t) from the
field at the same state.  It decomposes x(t) into monotone segments between
the critical times of x'(t), which the same constants give explicitly: a
trigonometric lattice in the complex-pair case, at most one critical time
otherwise.  With v(s) = tau*x(tau*s), tau = 1 forward and -1 backward, the
zone's side is v < 0 and v's slope is the field's x'; the first segment
boundary with v > 0 brackets the first return to the switching line, which
a bisection-safeguarded Newton then refines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (ConvergenceError, DomainError, NoReturnError, PreconditionError,
                     SlidingEncounteredError, TangencyError)
from .halfmap import HalfSystem, Orientation
from .params import CanonicalSystem

CROSSING_TOL = 1e-12   # |x| at an accepted crossing, relative to state scale
CLOSURE_TOL = 1e-8     # return-gap bound for a closed orbit
TANGENT_TOL = 1e-9     # |x'| below this (times scale) is a tangency
MAX_SEGMENTS = 200000
MAX_EXPAND = 400


@dataclass(frozen=True)
class ZoneFlow:
    """One zone's field x' = T*x - y + b, y' = D*x - a, with finite T, D, a, b."""

    T: float
    D: float
    a: float
    b: float = 0.0

    def __post_init__(self):
        for name in ("T", "D", "a", "b"):
            if not math.isfinite(getattr(self, name)):
                raise PreconditionError(f"{name} must be a finite real")


@dataclass(frozen=True)
class CrossingEvent:
    """A switching-line hit: elapsed search time, ordinate, transversality."""

    t: float
    y: float
    transversal: bool


class _Orbit:
    """The orbit of one zone through (x0, y0), in closed form.

    at(t) is the exact state at time t (any sign).  For D != 0 it is the
    equilibrium plus e^(sg*t)*(c(t)*u + s(t)*v), where c'' = kappa*c and
    s'' = kappa*s with c(0) = s'(0) = 1, c'(0) = s(0) = 0 and
    kappa = T^2/4 - D: cos and sin/om for a complex pair, cosh and sinh/om
    for real roots, 1 and t for the double root.  So
    x'(t) = e^(sg*t)*(P*c(t) + Q*s(t)) with P = x'(0) and Q = x''(0) - sg*P,
    both read off the field.  For D = 0 there is no equilibrium and
    y(t) = y0 - a*t drives x.

    Every form but the complex pair also lists x(t) as rest plus `terms`,
    triples (k, rate, power) of k*t^power*e^(rate*t).
    """

    def __init__(self, z: ZoneFlow, x0: float, y0: float):
        T, D, a, b = z.T, z.D, z.a, z.b
        exp = math.exp
        self.T, self.a = T, a
        self.P = P = T * x0 - y0 + b
        self.px = 0.0
        self.terms = None
        if D != 0.0:
            px, py = a / D, b + a * T / D
            ux, uy = x0 - px, y0 - py
            sg = 0.5 * T
            disc = T * T - 4.0 * D
            vx, vy = (T - sg) * ux - uy, D * ux - sg * uy
            self.px = self.rest = px
            self.sg, self.Q = sg, sg * P - D * x0 + a
            if disc < 0.0:
                om, cf, sf = 0.5 * math.sqrt(-disc), math.cos, math.sin
                self.kind, self.env = "complex", math.hypot(ux, vx / om)
            elif disc > 0.0:
                om, cf, sf = 0.5 * math.sqrt(disc), math.cosh, math.sinh
                self.kind = "real"
                self.terms = ((0.5 * (ux + vx / om), sg + om, 0),
                              (0.5 * (ux - vx / om), sg - om, 0))
            else:
                self.kind, self.terms = "double", ((ux, sg, 0), (vx, sg, 1))

                def at(t):  # c = 1, s = t
                    e = exp(sg * t)
                    return px + e * (ux + t * vx), py + e * (uy + t * vy)
                self.at = at
                return
            self.om = om

            def at(t):
                e = exp(sg * t)
                c, s = cf(om * t), sf(om * t) / om
                return px + e * (c * ux + s * vx), py + e * (c * uy + s * vy)
            self.at = at
            return
        if T != 0.0:
            al = -a / T
            ga = (al + y0 - b) / T
            dx = x0 - ga
            self.kind, self.al, self.rest = "drift", al, ga
            self.terms = ((al, 0.0, 1), (dx, T, 0))
            self.at = lambda t: (al * t + ga + exp(T * t) * dx, y0 - a * t)
            return
        v, ha = b - y0, 0.5 * a
        self.kind, self.rest = "parabola", x0
        self.terms = ((v, 0.0, 1), (ha, 0.0, 2))
        self.at = lambda t: (x0 + v * t + ha * t * t, y0 - a * t)

    def _turn(self):
        """The one time t (any sign) with x'(t) = 0, or None; not for a complex pair."""
        P, kind = self.P, self.kind
        if kind == "real":  # tanh(om*t) = -om*P/Q
            r = -self.om * P / self.Q if self.Q != 0.0 else 1.0
            return math.atanh(r) / self.om if abs(r) < 1.0 else None
        if kind == "double":  # P + Q*t = 0
            return -P / self.Q if self.Q != 0.0 else None
        if kind == "drift":  # x' = al + (P - al)*e^(T*t)
            arg = self.al / (self.al - P) if self.al != P else 0.0
            return math.log(arg) / self.T if arg > 0.0 else None
        return -P / self.a if self.a != 0.0 else None  # x' = P + a*t

    def critical_times(self, tau: float):
        """Ascending s > 0 with x'(tau*s) = 0.

        P is exact at a tangential start, so s = 0 itself is never yielded;
        the complex lattice skips rounding dust around it.
        """
        if self.kind != "complex":
            t = self._turn()
            if t is not None and tau * t > 0.0:
                yield tau * t
            return
        om = self.om
        A, B = tau * self.P, self.Q / om  # tau*x'(tau*s) ~ A*cos(om*s) + B*sin(om*s)
        if A == 0.0 and B == 0.0:
            return
        period = math.pi / om
        floor = 1e-14 * period
        base = (math.atan2(B, A) + 0.5 * math.pi) / om
        s = base + math.ceil((floor - base) / period) * period
        while s <= floor:
            s += period
        while True:
            yield s
            s += period

    def tail_limit(self, tau: float):
        """Limit of x(tau*s) as s -> +inf (may be +-inf); None for oscillation.

        The live term of largest (rate, power) decides: a growing one sends
        x to infinity with its sign, else x tends to the constant rest.
        """
        if self.terms is None:
            return None
        rate, power, k = max(((tau * r, p, k * tau ** p) for k, r, p in self.terms
                              if k != 0.0), default=(0.0, 0, 0.0))
        if rate > 0.0 or (rate == 0.0 and power > 0):
            return math.copysign(math.inf, k)
        return self.rest

    def trapped(self, s: float, tau: float) -> bool:
        """Complex pair, tau*px < 0: the envelope at s cannot reach the switching line again."""
        if self.kind != "complex" or tau * self.sg > 0.0 or tau * self.px >= 0.0:
            return False
        return self.env * math.exp(tau * self.sg * s) < abs(self.px) * (1.0 - 1e-15)


def flow(z: ZoneFlow, x0: float, y0: float, t: float) -> tuple[float, float]:
    """Exact state at time t (any sign) from (x0, y0)."""
    return _Orbit(z, x0, y0).at(t)


def sample_trajectory(z: ZoneFlow, x0: float, y0: float, duration: float,
                      n: int) -> list[tuple[float, float, float]]:
    """(t, x, y) samples at n equally spaced times in [0, duration]; each is
    (t, *flow(z, x0, y0, t)) bit for bit."""
    if not (isinstance(n, int) and n >= 2):
        raise PreconditionError("n must be an int of at least 2")
    at = _Orbit(z, x0, y0).at
    return [(t, *at(t)) for t in [duration * i / (n - 1) for i in range(n)]]


def _refine(probe, lo, hi, tol):
    """Root of the search value v on a bracket with v(lo) < 0 < v(hi),
    bisection plus Newton; probe(s) starts with (v, v') at s."""
    s = 0.5 * (lo + hi)
    for _ in range(200):
        v, d = probe(s)[:2]
        if v == 0.0:
            return s
        if v < 0.0:
            lo = s
        else:
            hi = s
        if hi - lo <= 1e-15 * max(1.0, abs(s)):
            return s
        cand = s - v / d if d != 0.0 else 0.5 * (lo + hi)
        if cand == s and abs(v) <= tol:  # the Newton step rounds away: s is the root
            return s
        if not (lo < cand < hi) or not math.isfinite(cand):
            cand = 0.5 * (lo + hi)
        if abs(v) <= tol and abs(cand - s) <= 1e-15 * max(1.0, abs(s)):
            return cand
        s = cand
    raise ConvergenceError("crossing refinement failed to converge")


def next_crossing(z: ZoneFlow, y0: float, direction: Orientation) -> CrossingEvent:
    """First return of the orbit through (0, y0) to the switching line.

    Forward direction travels the left zone (x < 0) in forward time; backward
    travels the right zone (x > 0) in reversed time.  The returned t is the
    elapsed (positive) duration in the traveled direction.
    """
    if not math.isfinite(y0):
        raise DomainError("y0 must be finite")
    try:
        return _next_crossing(z, y0, direction)
    except OverflowError:  # an exponential of the closed-form flow
        raise DomainError("flow exceeds the double range") from None


def _seed_inside(probe, step: float) -> float:
    """The first s = step/2, step/4, ... where v = tau*x < 0, on the zone's side."""
    for _ in range(60):
        step *= 0.5
        if probe(step)[0] < 0.0:
            return step
    raise ConvergenceError("could not seed the crossing bracket")


def _next_crossing(z: ZoneFlow, y0: float, direction: Orientation) -> CrossingEvent:
    tau = 1.0 if direction is Orientation.FORWARD else -1.0
    orbit = _Orbit(z, 0.0, y0)
    if math.isinf(orbit.px):
        raise DomainError("zone equilibrium a/D exceeds the double range")
    # v = tau*x leaves 0 with slope P = x'(0) and, where P = 0, curvature tau*a
    if orbit.P > 0.0:
        raise PreconditionError("start point does not enter the zone")
    if orbit.P == 0.0 and not tau * z.a < 0.0:
        raise PreconditionError("tangential start does not enter the zone")

    scale = max(1.0, abs(y0), abs(z.b), abs(orbit.px))
    tol = CROSSING_TOL * scale
    at, T, b = orbit.at, z.T, z.b

    def probe(s: float) -> tuple[float, float, float]:
        """(v, v', y) at search time s: v = tau*x, whose slope v' is the field's x'."""
        x, y = at(tau * s)
        return tau * x, T * x - y + b, y

    def finish(s_root: float) -> CrossingEvent:
        _, vel, y = probe(s_root)
        if abs(vel) <= TANGENT_TOL * scale:
            raise TangencyError("non-transversal crossing", t=s_root, y=y)
        return CrossingEvent(t=s_root, y=y, transversal=True)

    prev_s = 0.0   # the last search time with v < 0; 0 while there is none
    for segments, s_b in enumerate(orbit.critical_times(tau), 1):
        if segments > MAX_SEGMENTS:
            raise ConvergenceError("crossing search exceeded its segment budget")
        v, _, y = probe(s_b)
        if v == 0.0:
            raise TangencyError("orbit grazes the switching line", t=s_b, y=y)
        if v < 0.0:
            if orbit.trapped(s_b, tau):
                raise NoReturnError("orbit spirals into the zone equilibrium")
            prev_s = s_b
            continue
        if prev_s == 0.0:
            # first segment: v(0) = 0 and the orbit entered the zone before s_b
            prev_s = _seed_inside(probe, s_b)
        return finish(_refine(probe, prev_s, s_b, tol))
    # finitely many critical times: decide the tail
    lim = orbit.tail_limit(tau)
    if lim is None:
        raise ConvergenceError("crossing search exhausted the critical lattice")
    if not tau * lim > 0.0:
        raise NoReturnError("orbit never returns to the switching line")
    # the tail is monotone toward the other side: expand until v > 0
    if prev_s == 0.0:  # no critical times at all: seed in the zone
        prev_s = _seed_inside(probe, 1.0)
    hi = max(2.0 * prev_s, prev_s + 1.0)
    for _ in range(MAX_EXPAND):
        if probe(hi)[0] > 0.0:
            return finish(_refine(probe, prev_s, hi, tol))
        prev_s = hi
        hi *= 2.0
    raise ConvergenceError("no sign change found while expanding the tail")


def oracle_halfmap(h: HalfSystem, y0: float) -> float:
    """Half-map value measured by flowing the zone itself (b = 0)."""
    z = ZoneFlow(T=h.T, D=h.D, a=h.a, b=0.0)
    return next_crossing(z, y0, h.orientation).y


def _in_sliding(y: float, b: float) -> bool:
    return b != 0.0 and min(0.0, b) < y < max(0.0, b)


def verify_periodic(canon: CanonicalSystem, y0: float) -> tuple[bool, float]:
    """Close the crossing orbit through (0, y0) by pure flow simulation.

    The left zone is traveled forward in time and the right zone backward,
    both from (0, y0); the orbit is closed exactly when the two lower
    crossing ordinates agree.  The gap is reported as (right - left), the
    same sign convention as the displacement function.
    """
    b = canon.b
    if _in_sliding(y0, b):
        raise SlidingEncounteredError("start ordinate lies in the sliding interval")
    zl = ZoneFlow(T=canon.left.T, D=canon.left.D, a=canon.left.a, b=0.0)
    zr = ZoneFlow(T=canon.right.T, D=canon.right.D, a=canon.right.a, b=b)
    y_left = next_crossing(zl, y0, Orientation.FORWARD).y
    if _in_sliding(y_left, b):
        raise SlidingEncounteredError("left passage lands in the sliding interval")
    y_right = next_crossing(zr, y0, Orientation.BACKWARD).y
    if _in_sliding(y_right, b):
        raise SlidingEncounteredError("right passage lands in the sliding interval")
    gap = y_right - y_left
    return abs(gap) <= CLOSURE_TOL * max(1.0, abs(y0)), gap
