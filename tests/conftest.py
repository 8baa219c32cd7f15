"""Shared draw helpers, independent quadrature and 60-digit references for the test suite."""

import dataclasses
import math
import random
import struct

import mpmath
import pytest
from scipy.integrate import quad

from pwlannulus import (HalfSystem, Orientation, SystemParams, annulus_family,
                        domain, evaluate, exists, halfmap)

# ---------------------------------------------------------------------------
# independent principal-value quadrature oracle

def quad_pv(h: HalfSystem, y1: float, y0: float) -> float:
    """Adaptive-quadrature evaluation of the defining integral."""
    a, T, D = h.forward_triple()

    def w(y):
        return D * y * y - a * T * y + a * a

    def f(y):
        return -y / w(y)

    if a != 0.0:
        val, _ = quad(f, y1, y0, epsabs=1e-13, epsrel=1e-13, limit=400)
        return val
    assert y1 < 0.0 < y0
    m = min(-y1, y0)
    total = 0.0
    if y1 < -m:
        total += quad(f, y1, -m, epsabs=1e-13, epsrel=1e-13, limit=400)[0]
    if y0 > m:
        total += quad(f, m, y0, epsabs=1e-13, epsrel=1e-13, limit=400)[0]
    return total


# ---------------------------------------------------------------------------
# a 60-digit reference of the map value, ulp distances, residual-call counts

MP_DPS = 60


def ulps(x, y):
    def ordered(v):
        (n,) = struct.unpack("<q", struct.pack("<d", v))
        return n if n >= 0 else -(n & 0x7FFFFFFFFFFFFFFF)
    return abs(ordered(x) - ordered(y))


def mp_antiderivative(a, T, D):
    """F with F(y0) - F(y1) = integral_{y1}^{y0} -y/W(y) dy, in mpmath.

    Closed forms at the working precision, on the exact values of the
    doubles a, T, D: -y/W = -W'/(2D*W) - aT/(2D*W) with W = D*y^2 - aT*y + a^2,
    the second term by its arctangent, logarithm or double-root form, and
    -y/W = -1/c1 + (c0/c1)/W when D = 0 and W = c1*y + c0 is linear.
    """
    a, T, D = mpmath.mpf(a), mpmath.mpf(T), mpmath.mpf(D)
    c1, c0 = -a * T, a * a
    disc = c1 * c1 - 4 * D * c0

    def F(y):
        if D == 0:
            return -y / c1 + c0 / c1 ** 2 * mpmath.log(abs(c1 * y + c0))
        u = 2 * D * y + c1
        if disc < 0:
            s = mpmath.sqrt(-disc)
            g = 2 / s * mpmath.atan(u / s)
        elif disc > 0:
            s = mpmath.sqrt(disc)
            g = mpmath.log(abs((u - s) / (u + s))) / s
        else:
            g = -2 / u
        return -mpmath.log(abs((D * y + c1) * y + c0)) / (2 * D) + c1 / (2 * D) * g
    return F


def mp_residual(h, y0):
    """R(v) = integral_v^{y0} -y/W(y) dy - q to MP_DPS digits, on the closed forms."""
    a, T, D = h.forward_triple()
    with mpmath.workdps(MP_DPS):
        F = mp_antiderivative(a, T, D)
        q = mpmath.mpf(0) if a > 0.0 else (2 * mpmath.pi * T / (mpmath.mpf(D) * mpmath.sqrt(
            4 * mpmath.mpf(D) - mpmath.mpf(T) ** 2)))
        f0 = F(mpmath.mpf(y0))

    def R(v):
        with mpmath.workdps(MP_DPS):
            return f0 - F(mpmath.mpf(v)) - q
    return R


def mp_barrier(h):
    """W's largest negative root to MP_DPS digits, from the exact doubles
    a, T, D of the forward triple; None when W has none."""
    a, T, D = h.forward_triple()
    with mpmath.workdps(MP_DPS):
        a, T, D = mpmath.mpf(a), mpmath.mpf(T), mpmath.mpf(D)
        if D == 0:
            roots = [a / T] if a * T != 0 else []
        else:
            disc = (a * T) ** 2 - 4 * D * a * a
            s = mpmath.sqrt(disc) if disc >= 0 else None
            roots = [] if s is None else [(a * T - s) / (2 * D), (a * T + s) / (2 * D)]
        negs = [r for r in roots if r < 0]
        return max(negs) if negs else None


def mp_map_value(h, y0):
    """The map value at y0 to about 45 digits: a bracketed root search on the
    MP_DPS-digit closed forms (mp_residual), kept above W's largest negative
    root b.

    The residual decreases in v on v < 0 and diverges at b, so the search
    runs in p with v = b + |b|*e**p (p <= 0), or v = -e**-p without b, and
    never leaves (b, 0].  A value closer to b than |b|*1e-48, where W(v)
    loses its digits, is returned as that bound.
    """
    R, b = mp_residual(h, y0), mp_barrier(h)
    with mpmath.workdps(MP_DPS):
        if R(0) >= 0:
            return mpmath.mpf(0)
        if b is None:
            def v(p):
                return -mpmath.exp(-p)
            lo = hi = mpmath.mpf(0)   # R(v(lo)) >= 0 > R(v(hi))
            if R(v(lo)) < 0:
                lo = -hi - 1
                while R(v(lo)) < 0:
                    hi, lo = lo, 2 * lo
            else:
                hi = lo + 1
                while R(v(hi)) >= 0:
                    lo, hi = hi, 2 * hi
        else:
            def v(p):
                return b - b * mpmath.exp(p)
            lo, hi, floor = mpmath.mpf(-1), mpmath.mpf(0), -48 * mpmath.log(10)
            while R(v(lo)) < 0:
                if lo <= floor:
                    return v(floor)
                hi, lo = lo, max(2 * lo, floor)
        # the Illinois variant of regula falsi: the bracket's end that stays
        # put twice running has its residual halved, so both ends close in
        flo, fhi, stays = R(v(lo)), R(v(hi)), 0
        for _ in range(400):
            mid = hi - fhi * (hi - lo) / (fhi - flo)
            if not lo < mid < hi:
                mid = (lo + hi) / 2
            fmid = R(v(mid))
            if fmid >= 0:
                lo, flo = mid, fmid
                fhi, stays = (fhi / 2 if stays == 1 else fhi), 1
            else:
                hi, fhi = mid, fmid
                flo, stays = (flo / 2 if stays == -1 else flo), -1
            if abs(v(lo) - v(hi)) <= abs(v(mid)) * mpmath.mpf(10) ** -45:
                break
        return v((lo + hi) / 2)


def integral_from_residual(h: HalfSystem, y1: float, y0: float) -> float:
    """integral_{y1}^{y0} -y/W(y) dy for y1 != y0: the solves' residual, q added back."""
    return halfmap._residual(h, y0)(y1)[0] + h._q


def count_residual_calls(monkeypatch):
    """Count calls of the closures _residual returns: every residual evaluation."""
    calls = [0]
    residual = halfmap._residual

    def counted_residual(h, y0):
        fd = residual(h, y0)

        def counted_fd(v):
            calls[0] += 1
            return fd(v)
        return counted_fd

    monkeypatch.setattr(halfmap, "_residual", counted_residual)
    return calls


# ---------------------------------------------------------------------------
# valid half-system draws spanning a-signs and spectral cases

CATEGORIES = ("a_neg_complex", "a_zero_complex", "a_pos_complex",
               "a_pos_real_distinct", "a_pos_det_neg", "a_pos_real_double",
               "a_pos_det_zero")


def draw_forward_triple(rng: random.Random, category: str | None = None):
    """(a, T, D) with an existing forward half-map in the asked category."""
    if category is None:
        category = rng.choice(CATEGORIES)
    T = rng.uniform(-2.0, 2.0)
    if category == "a_neg_complex":
        a = rng.uniform(-3.0, -0.2)
        D = (T * T / 4.0) * (1.0 + rng.uniform(0.2, 3.0)) + rng.uniform(0.1, 2.0)
    elif category == "a_zero_complex":
        a = 0.0
        D = (T * T / 4.0) + rng.uniform(0.1, 2.0)
    elif category == "a_pos_complex":
        a = rng.uniform(0.2, 3.0)
        D = (T * T / 4.0) + rng.uniform(0.1, 2.0)
    elif category == "a_pos_real_distinct":
        a = rng.uniform(0.2, 3.0)
        T = rng.choice([-1.0, 1.0]) * rng.uniform(1.5, 3.0)
        D = rng.uniform(0.05, 0.9) * (T * T / 4.0)
    elif category == "a_pos_det_neg":
        a = rng.uniform(0.2, 3.0)
        D = rng.uniform(-2.0, -0.1)
    elif category == "a_pos_real_double":
        a = rng.uniform(0.2, 3.0)
        T = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.5)
        D = T * T / 4.0
    elif category == "a_pos_det_zero":
        a = rng.uniform(0.2, 3.0)
        D = 0.0
    else:
        raise ValueError(category)
    return a, T, D


def draw_half_system(rng: random.Random, category: str | None = None,
                     orientation: Orientation | None = None) -> HalfSystem:
    if orientation is None:
        orientation = rng.choice([Orientation.FORWARD, Orientation.BACKWARD])
    a, T, D = draw_forward_triple(rng, category)
    if orientation is Orientation.BACKWARD:
        a, T = -a, -T  # dualize so the drawn triple exists backward
    h = HalfSystem(a=a, T=T, D=D, orientation=orientation)
    assert exists(h)
    return h


NEAR_ROOT_BRANCHES = ("real_det_neg", "real_det_pos", "double", "det_zero")


def _draw_root_system(rng: random.Random, branch: str, sign: float) -> HalfSystem:
    """a > 0 scaled by 10**U(-3, 3) and T of the given sign where W's roots
    share one (D >= 0), so that they share T's sign: D < 0 (roots of both
    signs, T's sign drawn), 0 < D < T^2/4, D = T^2/4 and D = 0; the
    orientation is drawn."""
    a = rng.uniform(0.2, 3.0) * 10.0 ** rng.uniform(-3.0, 3.0)
    T = rng.uniform(0.2, 2.5)
    if branch == "real_det_neg":
        T, D = rng.choice([-1.0, 1.0]) * T, -rng.uniform(0.1, 2.0) * T * T
    elif branch == "real_det_pos":
        T, D = sign * T, rng.uniform(0.05, 0.9) * T * T / 4.0
    elif branch == "double":
        T, D = sign * T, T * T / 4.0
    elif branch == "det_zero":
        T, D = sign * T, 0.0
    else:
        raise ValueError(branch)
    orientation = rng.choice([Orientation.FORWARD, Orientation.BACKWARD])
    if orientation is Orientation.BACKWARD:
        a, T = -a, -T
    return HalfSystem(a, T, D, orientation)


def draw_near_root(rng: random.Random, branch: str) -> tuple[HalfSystem, float]:
    """(h, y0) whose map value lies near W's largest negative root b.

    W has a negative root: T < 0 in _draw_root_system.  With D < 0,
    y0 = mu*(1 - 10**U(-9, -3)); otherwise mu is inf and y0 = |b|*10**U(0, 12),
    which puts the value from 0.5|b| down to the last bits of b (about 0.03|b|
    at the double root, where the approach is slowest).
    """
    h = _draw_root_system(rng, branch, -1.0)
    mu = domain(h).mu
    if math.isfinite(mu):
        return h, mu * (1.0 - 10.0 ** rng.uniform(-9.0, -3.0))
    return h, -h._barrier * 10.0 ** rng.uniform(0.0, 12.0)


NEAR_MU_BRANCHES = ("real_det_neg", "real_det_pos", "det_zero")


def draw_near_mu(rng: random.Random, branch: str) -> tuple[HalfSystem, float]:
    """(h, y0) with y0 = mu*(1 - 10**U(-15, -9)) and mu finite: T > 0 in
    _draw_root_system, on the branches D < 0, 0 < D < T^2/4 and D = 0."""
    h = _draw_root_system(rng, branch, 1.0)
    return h, domain(h).mu * (1.0 - 10.0 ** rng.uniform(-15.0, -9.0))


def domain_point(rng: random.Random, h: HalfSystem, *, lo_frac=0.05, hi_frac=0.9) -> float:
    """A y0 drawn from the bulk of the half-map domain."""
    dom = domain(h)
    hi = min(dom.mu, dom.lam + 10.0 * max(1.0, dom.lam))
    u = rng.uniform(lo_frac, hi_frac)
    return dom.lam + u * (hi - dom.lam)


def sign_of_sum(h: HalfSystem, y0: float) -> int:
    """Sign of y0 + y(y0), |y0 + y(y0)| <= 1e-9 * max(1, |y0|) counting as 0."""
    s = y0 + evaluate(h, y0)
    return 0 if abs(s) <= 1e-9 * max(1.0, abs(y0)) else 1 if s > 0.0 else -1


def proper_pv_interval(rng: random.Random, h: HalfSystem, *, margin=1e-2):
    """[y1, y0] on which W stays well above zero, or None for this draw.

    Adaptive quadrature can only certify 1e-10 absolute agreement when the
    integrand is far from its poles, so near-singular draws are rejected.
    """
    w, (c2, c1, _) = h._w, h._coeffs
    roots = h._roots
    neg = max(max((r for r in roots if r < 0.0), default=-8.0) * 0.9, -8.0)
    pos = min(min((r for r in roots if r > 0.0), default=8.0) * 0.9, 8.0)
    y1 = rng.uniform(neg, pos)
    y0 = rng.uniform(y1, pos)
    vals = [w(y1), w(y0)]
    if c2 > 0.0:
        vertex = -c1 / (2.0 * c2)
        if y1 <= vertex <= y0:
            vals.append(w(vertex))
    lo, hi = min(vals), max(vals)
    if lo < margin or lo < 1e-4 * hi:
        return None
    return y1, y0


# ---------------------------------------------------------------------------
# proportional-W family draws (the annulus construction) and its violations

def draw_right_triple(rng: random.Random):
    """(aR, TR, DR) with an existing backward half-map and TR != 0."""
    mode = rng.choice(["focus_pos", "focus_pos", "focus_zero", "a_neg"])
    TR = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0)
    if mode == "focus_pos":
        aR = rng.uniform(0.2, 3.0)
        DR = (TR * TR / 4.0) + rng.uniform(0.1, 2.0)
    elif mode == "focus_zero":
        aR = 0.0
        DR = (TR * TR / 4.0) + rng.uniform(0.1, 2.0)
    else:
        aR = rng.uniform(-3.0, -0.2)
        DR = rng.uniform(-1.5, 2.0)
        if DR == 0.0:
            DR = 0.5
    return aR, TR, DR


def draw_annulus_params(rng: random.Random) -> SystemParams:
    aR, TR, DR = draw_right_triple(rng)
    k = math.exp(rng.uniform(math.log(1e-2), math.log(1e2)))
    return annulus_family(aR, TR, DR, k)


RAW_FIELDS = tuple(f.name for f in dataclasses.fields(SystemParams))


def draw_near_annulus_params(rng: random.Random) -> SystemParams:
    """An annulus_family member with offset b, one raw entry moved by a relative
    eps (set to eps where it is 0); b and eps are each 0 half the time, else
    +-10**U(-14, -1) and +-10**U(-15, -1)."""
    aR, TR, DR = draw_right_triple(rng)
    k = math.exp(rng.uniform(math.log(1e-2), math.log(1e2)))
    b = rng.choice([0.0, rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-14.0, -1.0)])
    p = annulus_family(aR, TR, DR, k, offset=b)
    vals = [getattr(p, f) for f in RAW_FIELDS]
    eps = rng.choice([0.0, rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-15.0, -1.0)])
    i = rng.randrange(len(vals))
    vals[i] = vals[i] * (1.0 + eps) if vals[i] != 0.0 else eps
    return SystemParams(*vals)


# The power of 2**j that multiplies each raw entry (aL11, aL12, aL21, aL22,
# aR11, ..., aR22, bL1, bL2, bR1, bR2) under four exact conjugacies: time
# t -> t/2**j, x -> 2**j*x, y -> 2**j*y, and (x, y) -> 2**j*(x, y), which
# scales the offsets only.  No verdict may change under any of them.
SCALINGS = {"time": (1,) * 12,
            "x": (0, 1, -1, 0) * 2 + (1, 0) * 2,
            "y": (0, -1, 1, 0) * 2 + (0, 1) * 2,
            "offset": (0,) * 8 + (1,) * 4}


def scale_params(p: SystemParams, scaling: str, j: int) -> SystemParams:
    """p under the named conjugacy by 2**j: exact unless an entry leaves the
    normal double range."""
    return SystemParams(*(math.ldexp(getattr(p, f), e * j)
                          for f, e in zip(RAW_FIELDS, SCALINGS[scaling])))


VIOLATIONS = ("trace", "xi0", "xi-inf", "beta", "H-crossing")


def draw_violating_params(rng: random.Random, violation: str) -> SystemParams:
    """A family instance breaking exactly one annulus clause.

    Construction keeps the other equalities at machine-precision zero: the
    mirrored trace family for the trace clause, single-parameter offsets for
    xi0/xi-inf/beta, and an a12 sign flip (invariant-preserving) for the
    crossing clause.
    """
    TR = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0)
    aR = rng.uniform(0.2, 3.0)
    DR = (TR * TR / 4.0) + rng.uniform(0.1, 2.0)  # right focus: aR >= 0 branch
    k = math.exp(rng.uniform(math.log(1e-1), math.log(1e1)))
    rk = math.sqrt(k)
    eps = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.5)
    if violation == "trace":
        # same-sign traces; aL flips too so xi0 stays exactly zero
        p = SystemParams(
            aL11=rk * TR, aL12=-1.0, aL21=k * DR, aL22=0.0,
            aR11=TR, aR12=-1.0, aR21=DR, aR22=0.0,
            bL1=0.0, bL2=-rk * aR, bR1=0.0, bR2=-aR)
    elif violation == "xi0":
        p = SystemParams(
            aL11=-rk * TR, aL12=-1.0, aL21=k * DR, aL22=0.0,
            aR11=TR, aR12=-1.0, aR21=DR, aR22=0.0,
            bL1=0.0, bL2=rk * aR + eps * min(1.0, rk * aR), bR1=0.0, bR2=-aR)
    elif violation == "xi-inf":
        # one-sided bump keeps the left discriminant (and so H) positive
        p = SystemParams(
            aL11=-rk * TR, aL12=-1.0, aL21=k * DR + abs(eps) * k * DR, aL22=0.0,
            aR11=TR, aR12=-1.0, aR21=DR, aR22=0.0,
            bL1=0.0, bL2=rk * aR, bR1=0.0, bR2=-aR)
    elif violation == "beta":
        p = annulus_family(aR, TR, DR, k, offset=eps)
    elif violation == "H-crossing":
        # flip the left a12; trace/determinant/a-value are all preserved
        p = SystemParams(
            aL11=-rk * TR, aL12=1.0, aL21=-k * DR, aL22=0.0,
            aR11=TR, aR12=-1.0, aR21=DR, aR22=0.0,
            bL1=0.0, bL2=-rk * aR, bR1=0.0, bR2=-aR)
    else:
        raise ValueError(violation)
    return p


@pytest.fixture
def rng():
    return random.Random(20240817)
