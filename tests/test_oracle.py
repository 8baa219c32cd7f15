"""Exact-flow oracle: closed-form flow, crossing search, orbit closure."""

import math
import struct

import mpmath
import pytest

from pwlannulus import oracle
from pwlannulus import (CanonicalSystem, ConvergenceError, DomainError, HalfSystem,
                        NoReturnError, Orientation, PreconditionError, PwlError,
                        SlidingEncounteredError, TangencyError, ZoneFlow, evaluate, flow,
                        next_crossing, oracle_halfmap, sample_trajectory, verify_periodic)
from pwlannulus.oracle import (CROSSING_TOL, MAX_EXPAND, MAX_SEGMENTS, TANGENT_TOL,
                               CrossingEvent)
from conftest import domain_point, draw_half_system

FWD = Orientation.FORWARD
BWD = Orientation.BACKWARD


def field(z, x, y):
    return (z.T * x - y + z.b, z.D * x - z.a)


# -- flow ---------------------------------------------------------------------

def test_flow_harmonic_half_turn():
    z = ZoneFlow(T=0.0, D=1.0, a=-1.0)
    x, y = flow(z, 0.0, 1.0, math.pi)
    assert x == pytest.approx(-2.0, abs=1e-14)
    assert y == pytest.approx(-1.0, abs=1e-14)


def test_flow_identity_at_zero():
    z = ZoneFlow(T=0.7, D=-0.4, a=1.3, b=0.2)
    assert flow(z, 0.25, -1.5, 0.0) == (0.25, -1.5)


def test_flow_semigroup(rng):
    for _ in range(40):
        z = ZoneFlow(T=rng.uniform(-2, 2), D=rng.uniform(-2, 2),
                     a=rng.uniform(-2, 2), b=rng.uniform(-1, 1))
        x0, y0 = rng.uniform(-2, 2), rng.uniform(-2, 2)
        t1, t2 = rng.uniform(-1, 1), rng.uniform(-1, 1)
        direct = flow(z, x0, y0, t1 + t2)
        mid = flow(z, x0, y0, t1)
        composed = flow(z, *mid, t2)
        assert direct[0] == pytest.approx(composed[0], rel=1e-10, abs=1e-10)
        assert direct[1] == pytest.approx(composed[1], rel=1e-10, abs=1e-10)


def test_flow_matches_vector_field(rng):
    for _ in range(100):
        z = ZoneFlow(T=rng.uniform(-2, 2), D=rng.uniform(-2, 2),
                     a=rng.uniform(-2, 2), b=rng.uniform(-1, 1))
        x0, y0 = rng.uniform(-2, 2), rng.uniform(-2, 2)
        t = rng.uniform(-1.5, 1.5)
        h = 1e-4
        d1 = [(b - a) / (2 * h) for a, b in zip(flow(z, x0, y0, t - h),
                                                flow(z, x0, y0, t + h))]
        d2 = [(b - a) / h for a, b in zip(flow(z, x0, y0, t - h / 2),
                                          flow(z, x0, y0, t + h / 2))]
        fd = [(4 * b - a) / 3 for a, b in zip(d1, d2)]
        want = field(z, *flow(z, x0, y0, t))
        assert fd[0] == pytest.approx(want[0], rel=1e-9, abs=1e-9)
        assert fd[1] == pytest.approx(want[1], rel=1e-9, abs=1e-9)


def test_flow_conserves_energy_in_zero_trace_zone(rng):
    # for T = 0 the quantity D*x^2/2 - a*x + y^2/2 - b*y is a first integral
    for _ in range(20):
        z = ZoneFlow(T=0.0, D=rng.uniform(0.2, 3.0), a=rng.uniform(-2, 2),
                     b=rng.uniform(-1, 1))
        x0, y0 = rng.uniform(-2, 2), rng.uniform(-2, 2)

        def energy(x, y):
            return 0.5 * z.D * x * x - z.a * x + 0.5 * y * y - z.b * y

        e0 = energy(x0, y0)
        for t in (0.3, 1.7, 4.1):
            e = energy(*flow(z, x0, y0, t))
            assert e == pytest.approx(e0, rel=1e-10, abs=1e-10)


def test_sample_trajectory_shape():
    z = ZoneFlow(T=0.0, D=1.0, a=-1.0)
    pts = sample_trajectory(z, 0.0, 1.0, 1.5, 16)
    assert len(pts) == 16
    assert pts[0] == (0.0, 0.0, 1.0)
    assert pts[-1][0] == 1.5


@pytest.mark.parametrize("n", [1, 0, -3, 8.0, "8", math.nan])
def test_sample_trajectory_needs_two_samples(n):
    with pytest.raises(PreconditionError, match="^n must be an int of at least 2$"):
        sample_trajectory(ZoneFlow(T=0.0, D=1.0, a=-1.0), 0.0, 1.0, 1.5, n)


def _flow_per_call(z, x0, y0, t):
    """The closed-form flow with every constant formed at the call, as one
    flow call evaluated it before the per-trajectory propagator."""
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


def _bitwise(samples):
    """The samples' bits, or the class of what producing them raised."""
    try:
        return [struct.pack("<3d", *s) for s in samples()]
    except Exception as exc:  # compared by class below
        return type(exc)


def _zones(rng):
    """Zones of every flow branch, b = 0 and b != 0."""
    for _ in range(12):
        a, b = rng.uniform(-2, 2), rng.choice([0.0, rng.uniform(-1, 1)])
        T = rng.uniform(-2, 2)
        s = rng.randint(1, 16) / 8.0
        yield ZoneFlow(T=T, D=0.25 * T * T + rng.uniform(0.1, 2), a=a, b=b)  # complex
        yield ZoneFlow(T=T, D=0.25 * T * T - rng.uniform(0.1, 2), a=a, b=b)  # real
        yield ZoneFlow(T=2.0 * s, D=s * s, a=a, b=b)                         # double
        yield ZoneFlow(T=T, D=0.0, a=a, b=b)                                 # D = 0
        yield ZoneFlow(T=0.0, D=0.0, a=a, b=b)                               # D = T = 0


@pytest.mark.parametrize("n", [2, 3, 17])
def test_sample_trajectory_is_flow_bitwise(rng, n):
    for z in _zones(rng):
        x0, y0 = rng.choice([0.0, rng.uniform(-2, 2)]), rng.uniform(-2, 2)
        for duration in (rng.uniform(0.1, 6), -rng.uniform(0.1, 6)):  # backward legs too
            times = [duration * i / (n - 1) for i in range(n)]
            got = _bitwise(lambda: sample_trajectory(z, x0, y0, duration, n))
            assert got == _bitwise(lambda: [(t, *_flow_per_call(z, x0, y0, t)) for t in times])
            assert got == _bitwise(lambda: [(t, *flow(z, x0, y0, t)) for t in times])


@pytest.mark.parametrize("z, duration, raised", [
    (ZoneFlow(T=2000.0, D=1.0, a=1.0), 1.0, OverflowError),             # exp, real
    (ZoneFlow(T=0.0, D=-1e6, a=1.0), 1.0, OverflowError),               # cosh
    (ZoneFlow(T=1e-3, D=1.0, a=1.0, b=0.5), math.inf, ValueError),      # cos(inf)
    (ZoneFlow(T=900.0, D=0.0, a=1.0), 1.0, OverflowError),              # exp, D = 0
])
def test_sample_trajectory_raises_where_flow_raises(z, duration, raised):
    times = [duration * i / 3 for i in range(4)]
    assert _bitwise(lambda: [(t, *_flow_per_call(z, 0.0, 1.0, t)) for t in times]) is raised
    assert _bitwise(lambda: [(t, *flow(z, 0.0, 1.0, t)) for t in times]) is raised
    assert _bitwise(lambda: sample_trajectory(z, 0.0, 1.0, duration, 4)) is raised


# -- crossing search ------------------------------------------------------------

def test_crossing_real_center_three_quarter_turn():
    z = ZoneFlow(T=0.0, D=1.0, a=-1.0)
    ev = next_crossing(z, 1.0, FWD)
    assert ev.y == pytest.approx(-1.0, abs=1e-12)
    assert ev.t == pytest.approx(1.5 * math.pi, abs=1e-12)
    assert ev.transversal


def test_crossing_virtual_center_chord():
    z = ZoneFlow(T=0.0, D=1.0, a=1.0)
    ev = next_crossing(z, 1.0, FWD)
    assert ev.y == pytest.approx(-1.0, abs=1e-12)
    assert ev.t == pytest.approx(0.5 * math.pi, abs=1e-12)


def test_crossing_matches_halfmap_value():
    got = next_crossing(ZoneFlow(T=1.0, D=1.0, a=-1.0), 1.0, FWD).y
    want = evaluate(HalfSystem(-1.0, 1.0, 1.0), 1.0)
    assert got == pytest.approx(want, abs=1e-8)


def test_crossing_rejects_wrong_side_start():
    with pytest.raises(PreconditionError):
        next_crossing(ZoneFlow(T=0.0, D=1.0, a=-1.0), -1.0, FWD)


def test_no_return_inside_stable_focus():
    # y0 below the domain's left endpoint spirals into the focus
    z = ZoneFlow(T=-1.0, D=1.0, a=-1.0)
    with pytest.raises(NoReturnError):
        next_crossing(z, 1.0, FWD)


def test_tangent_circle_raises_tangency():
    # center (a, 0) with radius |a|: the orbit through the origin grazes x = 0
    z = ZoneFlow(T=0.0, D=1.0, a=-1.0)
    with pytest.raises(TangencyError):
        next_crossing(z, 0.0, FWD)


def test_return_onto_the_equilibrium_ordinate_is_non_transversal():
    # a = 0 focus, 4D - T^2 = 1.3e-3: the equilibrium (0, b) sits on the
    # switching line and the return lands exp(-520) from it, where x' = b - y
    # rounds to 0
    z = ZoneFlow(T=6.064053756270045, D=9.193521680636394, a=0.0, b=-0.2969608239872956)
    with pytest.raises(TangencyError, match="^non-transversal crossing$") as err:
        next_crossing(z, 3.6588, BWD)
    assert err.value.y == z.b


def test_crossing_overflow_is_a_domain_error():
    # 4D - T^2 = 1e-12: the focus turns so slowly that exp(T*t/2) overflows
    # before the orbit returns
    z = ZoneFlow(T=1.0, D=0.25000000000025, a=0.0)
    with pytest.raises(DomainError, match="flow exceeds the double range"):
        next_crossing(z, 1.0, FWD)


@pytest.mark.parametrize("direction", [FWD, BWD])
@pytest.mark.parametrize("y0", [math.inf, -math.inf, math.nan])
def test_crossing_refuses_a_y0_that_is_not_finite(y0, direction):
    z = ZoneFlow(T=0.5, D=1.0, a=1.0)
    with pytest.raises(DomainError, match="^y0 must be finite$"):
        next_crossing(z, y0, direction)
    with pytest.raises(DomainError, match="^y0 must be finite$"):
        oracle_halfmap(HalfSystem(1.0, 0.5, 1.0, direction), y0)
    canon = CanonicalSystem(left=HalfSystem(-1.0, 0.0, 1.0),
                            right=HalfSystem(1.0, 0.0, 1.0, orientation=BWD), b=0.0)
    with pytest.raises(DomainError, match="^y0 must be finite$"):
        verify_periodic(canon, y0)


@pytest.mark.parametrize("field, value", [
    ("T", math.nan), ("D", math.inf), ("a", math.nan), ("b", -math.inf)])
def test_zone_flow_refuses_a_non_finite_field(field, value):
    with pytest.raises(PreconditionError) as err:
        ZoneFlow(**{"T": 0.5, "D": 1.0, "a": 1.0, "b": 0.0, field: value})
    assert str(err.value) == f"{field} must be a finite real"


def test_crossing_with_an_infinite_equilibrium_is_a_domain_error():
    # a/D = -inf for a subnormal determinant
    z = ZoneFlow(T=0.0, D=1e-320, a=-1.0)
    with pytest.raises(DomainError, match="equilibrium"):
        next_crossing(z, 1.0, FWD)


@pytest.mark.parametrize("zone", [
    ZoneFlow(T=0.0, D=1.0, a=-1.0),   # a center: phi stays 0 on the first segment
    ZoneFlow(T=1.0, D=0.0, a=-1.0),   # no critical time at all
])
def test_crossing_seed_fails_near_a_tangential_start(zone):
    # at y0 = 1e-16 the orbit leaves the line so slowly that phi rounds to 0
    # on every halving toward the start
    with pytest.raises(ConvergenceError, match="could not seed the crossing bracket"):
        next_crossing(zone, 1e-16, BWD)


def test_refine_stops_where_the_newton_step_rounds_back():
    # -cos on [1, 2]: Newton lands on the double nearest pi/2, where its step
    # rounds to nothing; bisecting from the far end from there took 40 calls
    calls = []

    def probe(s):
        calls.append(s)
        return -math.cos(s), math.sin(s)
    assert oracle._refine(probe, 1.0, 2.0, 1e-12) == 0.5 * math.pi
    assert len(calls) <= 5


def test_saddle_zone_crossing():
    # D < 0 with a > 0 exists and returns through a saddle-affected zone
    z = ZoneFlow(T=0.5, D=-1.0, a=1.0)
    h = HalfSystem(1.0, 0.5, -1.0)
    y0 = 0.3
    ev = next_crossing(z, y0, FWD)
    assert ev.y == pytest.approx(evaluate(h, y0), abs=1e-9)


# -- the crossing search against its per-kind predecessor ----------------------
#
# The search as it was before it read x(t) from the flow's own closed form:
# each spectral kind carried its own profile phi(s) = x(tau*s) with an
# analytic phi', and the crossing ordinate came from separate flow calls.
# Kept verbatim as the reference the parity test below compares against.

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
            if math.isinf(px):
                raise DomainError("zone equilibrium a/D exceeds the double range")
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


def _seed_inside(xf, step: float, inside: int) -> tuple[float, float]:
    """(s, xf(s)) at the first s = step/2, step/4, ... where xf is on the zone's side."""
    for _ in range(60):
        step *= 0.5
        v = xf(step)
        if v != 0.0 and (v > 0.0) == (inside > 0):
            return step, v
    raise ConvergenceError("could not seed the crossing bracket")


def _next_crossing(z: ZoneFlow, y0: float, direction: Orientation) -> CrossingEvent:
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
            # first segment: phi(0) = 0 and the orbit moved inside before s_b
            prev_s, prev_v = _seed_inside(xf, s_b, inside)
        return finish(_refine(xf, dxf, prev_s, s_b, prev_v, v, tol))
    # finitely many critical times: decide the tail
    lim = prof.tail_limit()
    if lim is None:
        raise ConvergenceError("crossing search exhausted the critical lattice")
    if lim == 0.0 or (lim > 0.0) == (inside > 0):
        raise NoReturnError("orbit never returns to the switching line")
    # the tail is monotone toward the other side: expand until the sign flips
    if prev_v == 0.0:
        # no critical times at all (so prev_s is 0): seed just inside
        prev_s, prev_v = _seed_inside(xf, 1.0, inside)
    hi = max(2.0 * prev_s, prev_s + 1.0)
    for _ in range(MAX_EXPAND):
        v = xf(hi)
        if v != 0.0 and (v > 0.0) != (inside > 0):
            return finish(_refine(xf, dxf, prev_s, hi, prev_v, v, tol))
        prev_s, prev_v = hi, (v if v != 0.0 else prev_v)
        hi *= 2.0
    raise ConvergenceError("no sign change found while expanding the tail")


def _crossing_outcome(search, z, y0, direction):
    """(t, y) of the crossing search finds, or the class of what it raised."""
    try:
        ev = search(z, y0, direction)
    except OverflowError:  # next_crossing reports it as a DomainError
        return DomainError
    except Exception as exc:  # compared by class below
        return type(exc)
    return ev.t, ev.y


def _crossing_draws(rng, n):
    """n zones of each flow branch, b = 0 and b != 0, each with a start for
    both directions; one start in five is tangential (y0 = b)."""
    for _ in range(n):
        a = rng.choice([0.0] + [rng.uniform(-3, 3)] * 9)
        b = rng.choice([0.0, rng.uniform(-1, 1)])
        T = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 2)
        s = rng.choice([-1.0, 1.0]) * rng.randint(1, 16) / 8.0
        for z in (ZoneFlow(T=T, D=0.25 * T * T + rng.uniform(0.05, 2), a=a, b=b),  # complex
                  ZoneFlow(T=T, D=0.25 * T * T - rng.uniform(0.05, 2), a=a, b=b),  # real
                  ZoneFlow(T=2.0 * s, D=s * s, a=a, b=b),                          # double
                  ZoneFlow(T=T, D=0.0, a=a, b=b),                                  # D = 0
                  ZoneFlow(T=0.0, D=0.0, a=a, b=b)):                               # D = T = 0
            for direction in (FWD, BWD):
                yield z, b if rng.random() < 0.2 else b + rng.uniform(-1, 4), direction


def test_crossing_matches_the_profile_search(rng):
    seen = set()
    for z, y0, direction in _crossing_draws(rng, 400):
        want = _crossing_outcome(_next_crossing, z, y0, direction)
        got = _crossing_outcome(next_crossing, z, y0, direction)
        if isinstance(want, type):
            assert got is want, (z, y0, direction)
            seen.add(want)
            continue
        assert not isinstance(got, type), (z, y0, direction, got)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-8 * max(1.0, abs(w)), (z, y0, direction)
        seen.add("crossing")
    assert seen >= {"crossing", NoReturnError, PreconditionError}


def _flow_40_digits(z, y0):
    """t -> (x(t), y(t)) from (0, y0): expm of the augmented 3x3 matrix in 40 digits."""
    m = mpmath.matrix([[z.T, -1.0, z.b], [z.D, 0.0, -z.a], [0.0, 0.0, 0.0]])
    start = mpmath.matrix([0.0, y0, 1.0])

    def at(t):
        state = mpmath.expm(m * t) * start
        return state[0], state[1]
    return at


def test_crossing_matches_a_40_digit_flow(rng):
    checked = 0
    for _ in range(2000):
        T = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 3)
        a = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 3)
        b = rng.choice([0.0, rng.uniform(-1, 1)])
        branch = rng.choice(["complex", "real", "double", "drift"])
        if branch == "drift" and T * T < 0.05:
            continue
        D = {"complex": 0.25 * (T * T + rng.uniform(0.05, 3)),   # 4D - T^2 in [0.05, 3]
             "real": 0.25 * (T * T - rng.uniform(0.05, 3)),
             "double": 0.25 * T * T, "drift": 0.0}[branch]
        z = ZoneFlow(T=T, D=D, a=a, b=b)
        direction = rng.choice([FWD, BWD])
        y0 = b + rng.uniform(0.05, 3)
        try:
            ev = next_crossing(z, y0, direction)
        except PwlError:
            continue
        with mpmath.workdps(40):
            # Newton on x(t) with the field's slope T*x - y + b, from the
            # oracle's time: each step doubles the 16 correct digits
            at, t = _flow_40_digits(z, y0), mpmath.mpf(ev.t if direction is FWD else -ev.t)
            for _ in range(2):
                x, y = at(t)
                t -= x / (z.T * x - y + z.b)
            x, y = at(t)
            assert abs(x) <= mpmath.mpf(10) ** -30 * max(1.0, abs(y))
            want = float(y)
        assert abs(ev.y - want) <= 1e-12 * max(1.0, abs(want)), (z, y0, direction)
        checked += 1
        if checked == 150:
            return
    pytest.fail(f"only {checked} zones with a crossing")


# -- oracle half-map -------------------------------------------------------------

def test_oracle_matches_exponential_closed_form(rng):
    for _ in range(20):
        T = rng.uniform(-1.5, 1.5)
        D = T * T / 4.0 + rng.uniform(0.1, 2.0)
        y0 = rng.uniform(0.1, 5.0)
        h = HalfSystem(0.0, T, D)
        want = -math.exp(math.pi * T / math.sqrt(4 * D - T * T)) * y0
        assert oracle_halfmap(h, y0) == pytest.approx(want, abs=1e-10 * max(1, abs(want)))


def test_oracle_reflection():
    assert oracle_halfmap(HalfSystem(-1.0, 0.0, 1.0), 2.0) == pytest.approx(-2.0, abs=1e-12)


def test_oracle_return_hits_zero_at_left_endpoint():
    # the flow from just above the computed left endpoint returns essentially
    # onto the tangency ordinate 0
    h = HalfSystem(-1.0, -1.0, 1.0)
    from pwlannulus import domain
    lam = domain(h).lam
    got = oracle_halfmap(h, lam + 1e-9)
    assert abs(got) < 1e-4


def test_oracle_cross_validates_halfmap(rng):
    for _ in range(150):
        h = draw_half_system(rng)
        y0 = domain_point(rng, h)
        got = oracle_halfmap(h, y0)
        want = evaluate(h, y0)
        assert got == pytest.approx(want, abs=1e-8 * max(1.0, abs(y0)))


def test_oracle_time_reversal_duality(rng):
    # backward flow of (a,T,D) against forward flow of (-a,-T,D): two
    # different integrations of the same geometry
    for _ in range(60):
        h = draw_half_system(rng, orientation=BWD)
        y0 = domain_point(rng, h)
        back = oracle_halfmap(h, y0)
        fwd = oracle_halfmap(HalfSystem(-h.a, -h.T, h.D), y0)
        assert back == pytest.approx(fwd, abs=1e-10 * max(1.0, abs(y0)))
    # every zone kind, b != 0 and tangential starts included: x -> -x maps
    # the zone (T, D, a, b) run one way onto (-T, D, -a, b) run the other
    seen = set()
    for z, y0, direction in _crossing_draws(rng, 400):
        dual = ZoneFlow(T=-z.T, D=z.D, a=-z.a, b=z.b)
        got = _crossing_outcome(next_crossing, z, y0, direction)
        want = _crossing_outcome(next_crossing, dual, y0, BWD if direction is FWD else FWD)
        if isinstance(want, type) or isinstance(got, type):
            assert got is want, (z, y0, direction)
            seen.add(want)
            continue
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * abs(w), (z, y0, direction)
        seen.add("crossing")
    assert seen >= {"crossing", NoReturnError, PreconditionError}


# -- periodic orbits --------------------------------------------------------------

def test_verify_periodic_proportional_family():
    canon = CanonicalSystem(left=HalfSystem(-2.0, -2.0, 4.0),
                            right=HalfSystem(1.0, 1.0, 1.0, orientation=BWD),
                            b=0.0)
    lam = 12.185744190338536  # shared left endpoint of both domains
    closed, gap = verify_periodic(canon, lam + 1.0)
    assert closed and abs(gap) < 1e-8


def test_verify_periodic_symmetric_zero_trace():
    canon = CanonicalSystem(left=HalfSystem(-1.0, 0.0, 1.0),
                            right=HalfSystem(1.0, 0.0, 1.0, orientation=BWD),
                            b=0.0)
    closed, gap = verify_periodic(canon, 3.0)
    assert closed and gap == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("b, y0, message", [
    (1.0, 0.5, "start ordinate lies in the sliding interval"),
    (-2.0, 1.0, "left passage lands in the sliding interval"),     # lands at -1
    (2.0, 3.0, "right passage lands in the sliding interval"),     # lands at 2b - 3
])
def test_verify_periodic_refuses_the_sliding_interval(b, y0, message):
    # two centers, (-1, 0) on the left and (1, b) on the right: each passage
    # reflects y0 about its center's ordinate
    canon = CanonicalSystem(left=HalfSystem(-1.0, 0.0, 1.0),
                            right=HalfSystem(1.0, 0.0, 1.0, orientation=BWD), b=b)
    with pytest.raises(SlidingEncounteredError) as err:
        verify_periodic(canon, y0)
    assert str(err.value) == message


def test_verify_periodic_open_gap():
    canon = CanonicalSystem(left=HalfSystem(0.0, 1.0, 1.0),
                            right=HalfSystem(0.0, 1.0, 1.0, orientation=BWD),
                            b=0.0)
    closed, gap = verify_periodic(canon, 1.0)
    assert not closed
    want = math.exp(math.pi / math.sqrt(3.0)) - math.exp(-math.pi / math.sqrt(3.0))
    assert gap == pytest.approx(want, rel=1e-12)
