"""Exact-flow oracle: closed-form flow, crossing search, orbit closure."""

import math
import struct

import pytest

from pwlannulus import (CanonicalSystem, ConvergenceError, DomainError, HalfSystem,
                        NoReturnError, Orientation, PreconditionError, SpectralCase,
                        TangencyError, ZoneFlow, evaluate, flow, next_crossing,
                        oracle_halfmap, sample_trajectory, verify_periodic)
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


def test_spectral_case_tags():
    assert ZoneFlow(T=0, D=1, a=0).spectral_case is SpectralCase.COMPLEX_PAIR
    assert ZoneFlow(T=3, D=1, a=0).spectral_case is SpectralCase.REAL_DISTINCT
    assert ZoneFlow(T=2, D=1, a=0).spectral_case is SpectralCase.REAL_DOUBLE


def test_sample_trajectory_shape():
    z = ZoneFlow(T=0.0, D=1.0, a=-1.0)
    pts = sample_trajectory(z, 0.0, 1.0, 1.5, 16)
    assert len(pts) == 16
    assert pts[0] == (0.0, 0.0, 1.0)
    assert pts[-1][0] == 1.5


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


def test_crossing_overflow_is_a_domain_error():
    # 4D - T^2 = 1e-12: the focus turns so slowly that exp(T*t/2) overflows
    # before the orbit returns
    z = ZoneFlow(T=1.0, D=0.25000000000025, a=0.0)
    with pytest.raises(DomainError, match="flow exceeds the double range"):
        next_crossing(z, 1.0, FWD)


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


def test_saddle_zone_crossing():
    # D < 0 with a > 0 exists and returns through a saddle-affected zone
    z = ZoneFlow(T=0.5, D=-1.0, a=1.0)
    h = HalfSystem(1.0, 0.5, -1.0)
    y0 = 0.3
    ev = next_crossing(z, y0, FWD)
    assert ev.y == pytest.approx(evaluate(h, y0), abs=1e-9)


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


def test_verify_periodic_open_gap():
    canon = CanonicalSystem(left=HalfSystem(0.0, 1.0, 1.0),
                            right=HalfSystem(0.0, 1.0, 1.0, orientation=BWD),
                            b=0.0)
    closed, gap = verify_periodic(canon, 1.0)
    assert not closed
    want = math.exp(math.pi / math.sqrt(3.0)) - math.exp(-math.pi / math.sqrt(3.0))
    assert gap == pytest.approx(want, rel=1e-12)
