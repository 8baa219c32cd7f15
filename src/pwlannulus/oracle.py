"""Independent ground truth: exact flow of one linear zone, with crossing search.

Each zone of the canonical system is the linear field

    x' = T*x - y + b,      y' = D*x - a

(b = 0 for the left zone).  The flow is evaluated in closed form from the
spectral decomposition around the zone equilibrium, with D = 0 handled as a
separate affine-drift branch, so the only numerical step anywhere is scalar
root-finding on the explicit function x(t).  That keeps this module
independent of, and more trustworthy than, the half-map solver it checks.

Crossing search decomposes x(t) into monotone segments between the explicit
critical times of x'(t): a trigonometric lattice in the complex-pair case, at
most one critical time otherwise.  The first segment boundary whose value has
left the zone's side brackets the first return to the switching line, which a
bisection-safeguarded Newton then refines.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import (ConvergenceError, NoReturnError, PreconditionError,
                     SlidingEncounteredError, TangencyError)
from .halfmap import HalfSystem, Orientation
from .params import CanonicalSystem

CROSSING_TOL = 1e-12   # |x| at an accepted crossing, relative to state scale
CLOSURE_TOL = 1e-8     # return-gap bound for a closed orbit
TANGENT_TOL = 1e-9     # |x'| below this (times scale) is a tangency
MAX_SEGMENTS = 200000
MAX_EXPAND = 400


class SpectralCase(enum.Enum):
    COMPLEX_PAIR = "complex-pair"
    REAL_DISTINCT = "real-distinct"
    REAL_DOUBLE = "real-double"


@dataclass(frozen=True)
class ZoneFlow:
    """One zone's field x' = T*x - y + b, y' = D*x - a."""

    T: float
    D: float
    a: float
    b: float = 0.0

    @property
    def spectral_case(self) -> SpectralCase:
        disc = self.T * self.T - 4.0 * self.D
        if disc < 0.0:
            return SpectralCase.COMPLEX_PAIR
        if disc > 0.0:
            return SpectralCase.REAL_DISTINCT
        return SpectralCase.REAL_DOUBLE


@dataclass(frozen=True)
class CrossingEvent:
    """A switching-line hit: elapsed search time, ordinate, transversality."""

    t: float
    y: float
    transversal: bool


def flow(z: ZoneFlow, x0: float, y0: float, t: float) -> tuple[float, float]:
    """Exact state at time t (any sign) from (x0, y0)."""
    T, D, a, b = z.T, z.D, z.a, z.b
    if D != 0.0:
        px, py = a / D, b + a * T / D
        ux, uy = x0 - px, y0 - py
        sg = 0.5 * T
        disc = T * T - 4.0 * D
        e = math.exp(sg * t)
        if disc < 0.0:
            om = 0.5 * math.sqrt(-disc)
            c, s = math.cos(om * t), math.sin(om * t) / om
        elif disc > 0.0:
            m = 0.5 * math.sqrt(disc)
            c, s = math.cosh(m * t), math.sinh(m * t) / m
        else:
            c, s = 1.0, t
        nx = e * (c * ux + s * ((T - sg) * ux - uy))
        ny = e * (c * uy + s * (D * ux - sg * uy))
        return px + nx, py + ny
    y = y0 - a * t
    if T != 0.0:
        al = -a / T
        ga = (al + y0 - b) / T
        return al * t + ga + math.exp(T * t) * (x0 - ga), y
    return x0 + (b - y0) * t + 0.5 * a * t * t, y


def sample_trajectory(z: ZoneFlow, x0: float, y0: float, duration: float,
                      n: int) -> list[tuple[float, float, float]]:
    """(t, x, y) samples at n equally spaced times in [0, duration]."""
    if n < 2:
        raise PreconditionError("need at least two samples")
    out = []
    for i in range(n):
        t = duration * i / (n - 1)
        x, y = flow(z, x0, y0, t)
        out.append((t, x, y))
    return out


def _refine(xf, dxf, lo, hi, vlo, vhi, tol):
    """Root of xf on a sign-change bracket, bisection plus Newton."""
    if vlo == 0.0:
        return lo
    if vhi == 0.0:
        return hi
    pos_at_lo = vlo > 0.0
    s = 0.5 * (lo + hi)
    for _ in range(200):
        v = xf(s)
        if v == 0.0:
            return s
        if (v > 0.0) == pos_at_lo:
            lo = s
        else:
            hi = s
        if hi - lo <= 1e-15 * max(1.0, abs(s)):
            return s
        d = dxf(s)
        cand = s - v / d if d != 0.0 else 0.5 * (lo + hi)
        if not (lo < cand < hi) or not math.isfinite(cand):
            cand = 0.5 * (lo + hi)
        if abs(v) <= tol and abs(cand - s) <= 1e-15 * max(1.0, abs(s)):
            return cand
        s = cand
    raise ConvergenceError("crossing refinement failed to converge")


class _Profile:
    """Scalar closed form phi(s) = x(tau*s) with segment structure."""

    def __init__(self, z: ZoneFlow, y0: float, tau: float):
        T, D, a, b = z.T, z.D, z.a, z.b
        self.tau = tau
        v0 = b - y0          # x'(0) of the field
        self.p0 = tau * v0   # phi'(0)
        self.kind = "generic"
        if D != 0.0:
            px = a / D
            self.px = px
            ux0 = -px
            disc = T * T - 4.0 * D
            sg = 0.5 * T
            if disc < 0.0:
                om = 0.5 * math.sqrt(-disc)
                Sg = tau * sg
                C = ux0
                S = tau * (v0 - sg * ux0) / om
                A = Sg * C + om * S
                B = Sg * S - om * C
                self.kind = "complex"
                self.om, self.Sg, self.C, self.S, self.A, self.B = om, Sg, C, S, A, B
                self.env0 = math.hypot(C, S)
                self.xf = lambda s: px + math.exp(Sg * s) * (
                    C * math.cos(om * s) + S * math.sin(om * s))
                self.dxf = lambda s: math.exp(Sg * s) * (
                    A * math.cos(om * s) + B * math.sin(om * s))
                return
            if disc > 0.0:
                m = 0.5 * math.sqrt(disc)
                l1, l2 = sg + m, sg - m
                k1 = (v0 - l2 * ux0) / (l1 - l2)
                k2 = ux0 - k1
                L1, L2 = tau * l1, tau * l2
                self.kind = "exp2"
                self.terms = [(k1, L1), (k2, L2)]
                self.xf = lambda s: px + k1 * math.exp(L1 * s) + k2 * math.exp(L2 * s)
                self.dxf = lambda s: k1 * L1 * math.exp(L1 * s) + k2 * L2 * math.exp(L2 * s)
                return
            Sg = tau * sg
            C0 = ux0
            C1 = tau * (v0 - sg * ux0)
            self.kind = "double"
            self.Sg, self.C0, self.C1 = Sg, C0, C1
            self.xf = lambda s: px + math.exp(Sg * s) * (C0 + C1 * s)
            self.dxf = lambda s: math.exp(Sg * s) * (Sg * C0 + C1 + Sg * C1 * s)
            return
        # D == 0: no equilibrium; x decouples after y(t) = y0 - a*t.
        self.px = 0.0
        if T != 0.0:
            al = -a / T
            ga = (al + y0 - b) / T
            A1 = tau * al
            Sg = tau * T
            C = -ga
            self.kind = "affine"
            self.A1, self.Sg, self.C, self.ga = A1, Sg, C, ga
            self.xf = lambda s: A1 * s + ga + C * math.exp(Sg * s)
            self.dxf = lambda s: A1 + Sg * C * math.exp(Sg * s)
            return
        v = tau * (b - y0)
        self.kind = "parabola"
        self.v, self.acc = v, a
        self.xf = lambda s: (0.5 * a * s + v) * s
        self.dxf = lambda s: a * s + v

    # -- segment structure -------------------------------------------------
    def critical_times(self):
        """Ascending positive roots of phi'.

        A tangential start makes s = 0 itself critical; floating dust around
        it is filtered with a branch-appropriate floor so the lattice starts
        at the first genuine interior critical time.
        """
        tangential = self.p0 == 0.0
        if self.kind == "complex":
            om = self.om
            if self.A == 0.0 and self.B == 0.0:
                return
            psi = math.atan2(self.B, self.A)
            period = math.pi / om
            floor = (1e-9 if tangential else 1e-14) * period
            base = (psi + 0.5 * math.pi) / om
            k = math.ceil((floor - base) / period)
            s = base + k * period
            while s <= floor:
                s += period
            while True:
                yield s
                s += period
        elif self.kind == "exp2":
            (k1, L1), (k2, L2) = self.terms
            p, q = k1 * L1, k2 * L2
            if p != 0.0 and q != 0.0 and (p > 0.0) != (q > 0.0) and L1 != L2:
                sc = math.log(-q / p) / (L1 - L2)
                floor = 1e-9 / abs(L1 - L2) if tangential else 0.0
                if sc > floor:
                    yield sc
        elif self.kind == "double":
            # tangential starts cancel exactly here, no dust floor needed
            if self.Sg * self.C1 != 0.0:
                sc = -(self.Sg * self.C0 + self.C1) / (self.Sg * self.C1)
                if sc > 0.0:
                    yield sc
        elif self.kind == "affine":
            if self.Sg * self.C != 0.0:
                arg = -self.A1 / (self.Sg * self.C)
                if arg > 0.0:
                    sc = math.log(arg) / self.Sg
                    floor = 1e-9 / abs(self.Sg) if tangential else 0.0
                    if sc > floor:
                        yield sc
        else:  # parabola: exact arithmetic, no dust
            if self.acc != 0.0:
                sc = -self.v / self.acc
                if sc > 0.0:
                    yield sc

    def tail_limit(self) -> float:
        """Limit of phi(s) as s -> +inf (may be +-inf); None for oscillation."""
        if self.kind == "complex":
            return None
        if self.kind == "exp2":
            live = [(k, L) for k, L in self.terms if k != 0.0]
            grow = [(k, L) for k, L in live if L > 0.0]
            if grow:
                k, _ = max(grow, key=lambda t: t[1])
                return math.copysign(math.inf, k)
            return self.px
        if self.kind == "double":
            if self.Sg > 0.0:
                lead = self.C1 if self.C1 != 0.0 else self.C0
                if lead == 0.0:
                    return self.px
                return math.copysign(math.inf, lead if self.C1 != 0.0 else self.C0)
            return self.px
        if self.kind == "affine":
            if self.Sg > 0.0 and self.C != 0.0:
                return math.copysign(math.inf, self.C)
            if self.A1 != 0.0:
                return math.copysign(math.inf, self.A1)
            return self.ga
        if self.acc != 0.0:
            return math.copysign(math.inf, self.acc)
        if self.v != 0.0:
            return math.copysign(math.inf, self.v)
        return 0.0

    def trapped(self, s: float, inside: int) -> bool:
        """Complex case: envelope too small to reach the switching line again."""
        if self.kind != "complex" or self.px == 0.0:
            return False
        if self.Sg > 0.0:
            return False
        if (self.px > 0.0) != (inside > 0):
            return False
        return self.env0 * math.exp(self.Sg * s) < abs(self.px) * (1.0 - 1e-15)


def next_crossing(z: ZoneFlow, y0: float, direction: Orientation) -> CrossingEvent:
    """First return of the orbit through (0, y0) to the switching line.

    Forward direction travels the left zone (x < 0) in forward time; backward
    travels the right zone (x > 0) in reversed time.  The returned t is the
    elapsed (positive) duration in the traveled direction.
    """
    tau = 1.0 if direction is Orientation.FORWARD else -1.0
    inside = -1 if direction is Orientation.FORWARD else 1
    prof = _Profile(z, y0, tau)
    p0 = prof.p0
    if p0 != 0.0:
        if (p0 > 0.0) != (inside > 0):
            raise PreconditionError("start point does not enter the zone")
    else:
        # tangential start: the second derivative of x along the flow is a
        if z.a == 0.0 or (z.a > 0.0) != (inside > 0):
            raise PreconditionError("tangential start does not enter the zone")

    scale = max(1.0, abs(y0), abs(z.b), abs(prof.px))
    tol = CROSSING_TOL * scale
    xf, dxf = prof.xf, prof.dxf

    def finish(s_root: float) -> CrossingEvent:
        vel = dxf(s_root)
        if abs(vel) <= TANGENT_TOL * scale:
            raise TangencyError("non-transversal crossing",
                                t=s_root, y=flow(z, 0.0, y0, tau * s_root)[1])
        _, yy = flow(z, 0.0, y0, tau * s_root)
        return CrossingEvent(t=s_root, y=yy, transversal=True)

    prev_s, prev_v = 0.0, 0.0
    segments = 0
    for s_b in prof.critical_times():
        segments += 1
        if segments > MAX_SEGMENTS:
            raise ConvergenceError("crossing search exceeded its segment budget")
        v = xf(s_b)
        if v == 0.0:
            raise TangencyError("orbit grazes the switching line",
                                t=s_b, y=flow(z, 0.0, y0, tau * s_b)[1])
        if (v > 0.0) == (inside > 0):
            if prof.trapped(s_b, inside):
                raise NoReturnError("orbit spirals into the zone equilibrium")
            prev_s, prev_v = s_b, v
            continue
        if prev_v == 0.0:
            # first segment: phi(0) = 0 and the orbit moved inside, so back
            # off from the boundary until the sign is established
            step = s_b
            for _ in range(60):
                step *= 0.5
                prev_v = xf(step)
                if prev_v != 0.0 and (prev_v > 0.0) == (inside > 0):
                    prev_s = step
                    break
            else:
                raise ConvergenceError("could not seed the crossing bracket")
        return finish(_refine(xf, dxf, prev_s, s_b, prev_v, v, tol))
    # finitely many critical times: decide the tail
    lim = prof.tail_limit()
    if lim is None:
        raise ConvergenceError("crossing search exhausted the critical lattice")
    if lim == 0.0 or (lim > 0.0) == (inside > 0):
        raise NoReturnError("orbit never returns to the switching line")
    # the tail is monotone toward the other side: expand until the sign flips
    if prev_v == 0.0:
        # no critical times at all: seed just inside
        step = max(1.0, prev_s)
        for _ in range(60):
            step *= 0.5
            prev_v = xf(step)
            if prev_v != 0.0 and (prev_v > 0.0) == (inside > 0):
                prev_s = step
                break
        else:
            raise ConvergenceError("could not seed the crossing bracket")
    hi = max(2.0 * prev_s, prev_s + 1.0)
    for _ in range(MAX_EXPAND):
        v = xf(hi)
        if v != 0.0 and (v > 0.0) != (inside > 0):
            return finish(_refine(xf, dxf, prev_s, hi, prev_v, v, tol))
        prev_s, prev_v = hi, (v if v != 0.0 else prev_v)
        hi *= 2.0
    raise ConvergenceError("no sign change found while expanding the tail")


def oracle_halfmap(h: HalfSystem, y0: float) -> float:
    """Half-map value measured by flowing the zone itself (b = 0)."""
    z = ZoneFlow(T=h.T, D=h.D, a=h.a, b=0.0)
    return next_crossing(z, y0, h.orientation).y


def _in_sliding(y: float, b: float) -> bool:
    return b != 0.0 and min(0.0, b) < y < max(0.0, b)


def verify_periodic(canon: CanonicalSystem, y0: float, *,
                    closure_tol: float = CLOSURE_TOL) -> tuple[bool, float]:
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
    return abs(gap) <= closure_tol * max(1.0, abs(y0)), gap
