"""Independent computations the benchmark checks pwlannulus against.

Nothing here calls the half-map solver, the displacement scan or the
classifier.  Verdicts and invariants are recomputed from the twelve raw
parameters with the formulas the README documents; map values come from the
closed-form flow oracle (`pwlannulus.oracle`), which shares no code with the
integral solver it checks.
"""

from __future__ import annotations

import math

from pwlannulus import oracle
from pwlannulus.errors import NoReturnError, PreconditionError, TangencyError
from pwlannulus.halfmap import HalfSystem, Orientation

CLASSIFY_TOL = 1e-12   # the documented default equality tolerance of classify
MAP_TOL = 1e-8         # |evaluate - oracle| / max(1, |y0|), as the acceptance gate pins
SLOPE_TOL = 1e-6       # relative agreement of a map slope with the closed-form slope

RAW_FIELDS = ("aL11", "aL12", "aL21", "aL22", "aR11", "aR12", "aR21", "aR22",
              "bL1", "bL2", "bR1", "bR2")


def invariants(raw) -> dict:
    """Traces, determinants, a-values, xi0, xiInf, beta and b of a raw system."""
    aL11, aL12, aL21, aL22, aR11, aR12, aR21, aR22, bL1, bL2, bR1, bR2 = raw
    TL, TR = aL11 + aL22, aR11 + aR22
    DL, DR = aL11 * aL22 - aL12 * aL21, aR11 * aR22 - aR12 * aR21
    aL, aR = aL12 * bL2 - aL22 * bL1, aR12 * bR2 - aR22 * bR1
    beta = aL12 * bR1 - bL1 * aR12
    return {
        "TL": TL, "TR": TR, "DL": DL, "DR": DR, "aL": aL, "aR": aR,
        "xi0": aR * TL - aL * TR,
        "xi_inf": TL * TL * DR - TR * TR * DL,
        "beta": beta,
        "b": beta / aR12 if aR12 != 0.0 else None,
        "a12": aL12 * aR12,
        # magnitudes entering each equality clause, for its relative tolerance
        "scale_T": max(1.0, abs(TL), abs(TR)),
        "scale_xi0": max(1.0, abs(aR * TL), abs(aL * TR)),
        "scale_xi_inf": max(1.0, abs(TL * TL * DR), abs(TR * TR * DL)),
        "scale_beta": max(1.0, abs(aL12 * bR1), abs(bL1 * aR12)),
    }


def verdict(raw, tol: float = CLASSIFY_TOL) -> str:
    """The documented decision rule, applied to the raw parameters."""
    v = invariants(raw)
    t_tol = tol * v["scale_T"]
    if abs(v["TL"]) <= t_tol and v["DL"] > 0.0 and v["aL"] < 0.0:
        return "linear-center-left"
    if abs(v["TR"]) <= t_tol and v["DR"] > 0.0 and v["aR"] > 0.0:
        return "linear-center-right"
    left_ok = v["aL"] > 0.0 or 4.0 * v["DL"] - v["TL"] ** 2 > 0.0
    right_ok = v["aR"] < 0.0 or 4.0 * v["DR"] - v["TR"] ** 2 > 0.0
    s_tl = 0 if abs(v["TL"]) <= t_tol else (1 if v["TL"] > 0.0 else -1)
    s_tr = 0 if abs(v["TR"]) <= t_tol else (1 if v["TR"] > 0.0 else -1)
    if (v["a12"] > 0.0 and left_ok and right_ok and s_tr == -s_tl
            and abs(v["xi0"]) <= tol * v["scale_xi0"]
            and abs(v["xi_inf"]) <= tol * v["scale_xi_inf"]
            and abs(v["beta"]) <= tol * v["scale_beta"]):
        return "crossing-period-annulus"
    return "no-period-annulus"


def close(x: float, ref: float, rel: float) -> bool:
    return abs(x - ref) <= rel * max(1.0, abs(ref))


def canonical_zones(raw) -> tuple[oracle.ZoneFlow, oracle.ZoneFlow]:
    """Left and right zone fields of the Liénard form, from the raw parameters."""
    v = invariants(raw)
    return (oracle.ZoneFlow(T=v["TL"], D=v["DL"], a=v["aL"], b=0.0),
            oracle.ZoneFlow(T=v["TR"], D=v["DR"], a=v["aR"], b=v["b"]))


def flow_map(zone: oracle.ZoneFlow, y0: float, direction: Orientation,
             lam: float | None = None) -> float:
    """Next-crossing ordinate of the orbit through (0, y0), by pure flow.

    At the domain endpoint y0 == lam the orbit can touch x = 0 tangentially at
    the origin, where the oracle cannot start or finish; the map value there
    is 0 by definition of the endpoint, and that is returned instead.
    """
    try:
        return oracle.next_crossing(zone, y0, direction).y
    except (PreconditionError, TangencyError, NoReturnError):
        if y0 == lam:
            return 0.0
        raise


def flow_halfmap(h: HalfSystem, y0: float, lam: float | None = None) -> float:
    """oracle_halfmap, with the endpoint rule of flow_map."""
    zone = oracle.ZoneFlow(T=h.T, D=h.D, a=h.a, b=0.0)
    return flow_map(zone, y0, h.orientation, lam)


def flow_gap(zl: oracle.ZoneFlow, zr: oracle.ZoneFlow, y0: float,
             lam: float | None = None) -> float:
    """Displacement by pure flow: right backward crossing minus left forward crossing."""
    return (flow_map(zr, y0, Orientation.BACKWARD, lam)
            - flow_map(zl, y0, Orientation.FORWARD, lam))


def sign_changes(values) -> int:
    return sum(1 for u, v in zip(values, values[1:]) if u * v < 0.0)


def wpoly_value(a: float, T: float, D: float, y: float) -> float:
    return (D * y - a * T) * y + a * a


def slope(h: HalfSystem, y0: float, y1: float) -> float:
    """Closed-form map slope y0*W(y1) / (y1*W(y0)) from an oracle value y1."""
    return (y0 * wpoly_value(h.a, h.T, h.D, y1)
            / (y1 * wpoly_value(h.a, h.T, h.D, y0)))


def forward_lambda(a: float, T: float, D: float) -> float:
    """Left endpoint of a forward map with a < 0, T < 0 and 4D > T^2.

    It solves  integral_0^lam -y/W(y) dy = 2*pi*T / (D*sqrt(4D - T^2))  by
    bisection on the closed-form antiderivative; used only to place inputs
    inside the domain, so a few digits suffice.
    """
    r = abs(a) * math.sqrt(4.0 * D - T * T)
    q = 2.0 * math.pi * T / (D * math.sqrt(4.0 * D - T * T))

    def integral(y):
        w = wpoly_value(a, T, D, y)
        ang = math.atan((2.0 * D * y - a * T) / r) - math.atan(-a * T / r)
        return -math.log(w / (a * a)) / (2.0 * D) - (a * T / D) * ang / r

    lo, hi = 0.0, 1.0
    while integral(hi) > q:
        lo, hi = hi, 2.0 * hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if integral(mid) > q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def w_roots(a: float, T: float, D: float) -> list:
    """Real roots of W(y) = D*y^2 - a*T*y + a^2."""
    if D == 0.0:
        return [a / T] if T != 0.0 else []
    disc = a * a * (T * T - 4.0 * D)
    if disc < 0.0:
        return []
    sq = math.sqrt(disc)
    return [(a * T - sq) / (2.0 * D), (a * T + sq) / (2.0 * D)]


def forward_mu(a: float, T: float, D: float) -> float:
    """Upper domain endpoint: the smallest positive root of W, or inf."""
    return min((r for r in w_roots(a, T, D) if r > 0.0), default=math.inf)


def forward_barrier(a: float, T: float, D: float) -> float | None:
    """The negative root of W nearest 0, below which no map value lies."""
    return max((r for r in w_roots(a, T, D) if r < 0.0), default=None)
