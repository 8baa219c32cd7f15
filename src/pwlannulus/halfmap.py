"""Poincaré half-maps of a planar linear zone via their integral characterization.

A half-system is the triple (a, T, D) of one zone of the Liénard form together
with an orientation.  The forward map sends an ordinate y0 >= 0 on the
switching line x = 0 to the ordinate y1 <= 0 of the next crossing of the left
zone's flow; the backward map does the same for the right zone in reversed
time.  Internally a backward triple (a, T, D) is analyzed as the forward
triple (-a, -T, D), which leaves the polynomial

    W(y) = D*y**2 - a*T*y + a**2

unchanged.  The map value y1 = y(y0) is the unique solution of

    PV{ integral_{y1}^{y0} -y / W(y) dy } = q(a, T, D)

where the principal value is only needed for a = 0, and q is 0 for a > 0,
pi*T/(D*sqrt(4D - T^2)) for a = 0 and twice that for a < 0.  The integrand is
an explicit rational function, so the integral is evaluated by closed-form
antiderivatives; root-finding on the lower endpoint is a bracketed bisection
refined by safeguarded Newton steps.

Exact zero tests (a == 0, D == 0, 4D == T^2) select degenerate formula
branches on purpose: these are structural cases the caller sets exactly, not
quantities to be detected by tolerance.
"""

from __future__ import annotations

import enum
import math
import sys
import warnings
from dataclasses import dataclass

from .errors import ConditioningWarning, ConvergenceError, DomainError

# Solver and conditioning constants.
RESIDUAL_TOL = 1e-12   # accepted residual of the defining integral identity
STEP_TOL = 1e-14       # relative Newton-step floor; polishes past RESIDUAL_TOL
MU_GUARD = 1e-9        # relative standoff from the upper domain endpoint mu
SIGN_SNAP = 1e-9       # |y0 + y1| below this (times scale) counts as zero
BARRIER_SHRINK = 1e-12 # relative offset of the bracket barrier from a W-root
MAX_ITER = 200


class Orientation(enum.Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


@dataclass(frozen=True)
class HalfSystem:
    """One zone's reduced triple plus the travel direction through its flow."""

    a: float
    T: float
    D: float
    orientation: Orientation = Orientation.FORWARD

    def __post_init__(self):
        for name in ("a", "T", "D"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be a finite real")

    def forward_triple(self) -> tuple[float, float, float]:
        """The equivalent forward triple; backward maps dualize (a,T) -> (-a,-T)."""
        if self.orientation is Orientation.FORWARD:
            return (self.a, self.T, self.D)
        return (-self.a, -self.T, self.D)


@dataclass(frozen=True)
class WPolynomial:
    """W(y) = c2*y^2 + c1*y + c0 with c2 = D, c1 = -a*T, c0 = a^2."""

    c2: float
    c1: float
    c0: float

    def __call__(self, y: float) -> float:
        return (self.c2 * y + self.c1) * y + self.c0

    @property
    def disc(self) -> float:
        """Discriminant; the integration branches on this same expression.

        Values within a few ulps of zero are snapped to an exact double root:
        the parameterizations that produce them (4D == T*T up to rounding)
        mean a double root, and the two regimes on either side are
        numerically indistinguishable anyway.
        """
        raw = self.c1 * self.c1 - 4.0 * self.c2 * self.c0
        scale = max(self.c1 * self.c1, abs(4.0 * self.c2 * self.c0))
        if abs(raw) <= 8.0 * sys.float_info.epsilon * scale:
            return 0.0
        return raw

    def roots(self) -> list[float]:
        """Real roots in ascending order (a double root is listed once)."""
        c2, c1, c0 = self.c2, self.c1, self.c0
        if c2 == 0.0:
            if c1 == 0.0:
                return []
            return [-c0 / c1]
        disc = self.disc
        if disc < 0.0:
            return []
        if disc == 0.0:
            return [-c1 / (2.0 * c2)]
        sq = math.sqrt(disc)
        if c0 == 0.0:
            return sorted([0.0, -c1 / c2])
        # Citardauq pairing avoids cancellation in the small root.
        qq = -0.5 * (c1 + math.copysign(sq, c1))
        return sorted([qq / c2, c0 / qq])


@dataclass(frozen=True)
class HalfMapDomain:
    """Definition interval [lam, mu) of a half-map; mu may be math.inf."""

    lam: float
    mu: float


def wpoly(h: HalfSystem) -> WPolynomial:
    """Orientation-independent quadratic controlling the map's domain."""
    return WPolynomial(c2=h.D, c1=-h.a * h.T, c0=h.a * h.a)


def exists(h: HalfSystem) -> bool:
    """Whether the half-map is defined at all for this triple."""
    a, T, D = h.forward_triple()
    return (a <= 0.0 and 4.0 * D - T * T > 0.0) or a > 0.0


def q_value(h: HalfSystem) -> float:
    """Right-hand side of the defining integral identity."""
    a, T, D = h.forward_triple()
    if a > 0.0:
        return 0.0
    rad2 = 4.0 * D - T * T
    if rad2 <= 0.0:
        raise DomainError("q_value requires an existing half-map")
    val = math.pi * T / (D * math.sqrt(rad2))
    return val if a == 0.0 else 2.0 * val


def _check_positive_on(w: WPolynomial, y1: float, y0: float) -> None:
    """Reject integration ranges on which W is not strictly positive."""
    for r in w.roots():
        if y1 <= r <= y0:
            raise DomainError(f"W vanishes at {r} inside [{y1}, {y0}]")
    # No root inside, so W keeps one sign there; probe the midpoint.
    if w(0.5 * (y1 + y0)) <= 0.0:
        raise DomainError("W is not positive on the integration range")


def _integral(a: float, T: float, D: float, w: WPolynomial, y1: float, y0: float) -> float:
    """integral_{y1}^{y0} -y/W(y) dy where W > 0 on [y1, y0] and a != 0.

    Antiderivative differences are paired analytically: the arctangent part
    goes through the angle-difference identity and the logarithmic part
    through a log1p cross-ratio, because the naive difference of two
    antiderivative values cancels catastrophically for nearly degenerate
    discriminants.  Branch selection uses w.disc, the exact expression
    roots() uses, so the pole structure seen here always matches the roots
    the callers screen for.
    """
    if y1 == y0:
        return 0.0
    if D != 0.0:
        lead = -math.log(w(y0) / w(y1)) / (2.0 * D)
        if T == 0.0:
            return lead
        coeff = -w.c1 / (2.0 * w.c2)            # aT / (2D)
        u0 = 2.0 * w.c2 * y0 + w.c1             # 2Dy - aT at each endpoint
        u1 = 2.0 * w.c2 * y1 + w.c1
        disc = w.disc
        if disc < 0.0:
            s = math.sqrt(-disc)
            ang = math.atan2(s * (u0 - u1), s * s + u0 * u1)
            return lead - coeff * (2.0 / s) * ang
        if disc == 0.0:
            if u0 * u1 == 0.0:
                raise DomainError("integration endpoint sits on a W root")
            return lead + 2.0 * coeff * (u1 - u0) / (u0 * u1)
        s = math.sqrt(disc)
        den = (u0 + s) * (u1 - s)
        if den == 0.0:
            raise DomainError("integration endpoint sits on a W root")
        ratio = 2.0 * s * (u0 - u1) / den
        if ratio <= -1.0:  # the cross-ratio rounded onto the root
            raise DomainError("integration endpoint sits on a W root")
        return lead - coeff * math.log1p(ratio) / s
    # D == 0: W is linear (T != 0) or constant (T == 0).
    if T == 0.0:
        return (y1 - y0) * (y1 + y0) / (2.0 * a * a)
    return (y0 - y1) / (a * T) + math.log((a - T * y0) / (a - T * y1)) / (T * T)


def pv_integral(h: HalfSystem, y1: float, y0: float) -> float:
    """PV{ integral_{y1}^{y0} -y/W(y) dy } by closed-form antiderivatives."""
    if not (math.isfinite(y1) and math.isfinite(y0)):
        raise DomainError("endpoints must be finite")
    if y1 > y0:
        raise DomainError("pv_integral requires y1 <= y0")
    if y1 == y0:
        return 0.0
    a, T, D = h.forward_triple()
    w = wpoly(h)
    if a == 0.0:
        if D <= 0.0:
            raise DomainError("a = 0 requires D > 0 for a positive W")
        if y1 == 0.0 or y0 == 0.0:
            raise DomainError("divergent endpoint at the PV singularity")
        # -1/(D*y) integrates to -ln|y|/D; the symmetric limit cancels across 0.
        return -math.log(abs(y0 / y1)) / D
    _check_positive_on(w, y1, y0)
    return _integral(a, T, D, w, y1, y0)


def _bracketed_newton(f, fprime, lo, hi, flo, fhi):
    """Root of f on [lo, hi] with a sign change; bisection-safeguarded Newton.

    Converges on the residual first, then keeps polishing until the Newton
    step stalls at the floating-point floor.
    """
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ConvergenceError("root bracket does not straddle a sign change")
    pos_at_lo = flo > 0.0
    v = 0.5 * (lo + hi)
    for _ in range(MAX_ITER):
        fv = f(v)
        if fv == 0.0:
            return v
        if (fv > 0.0) == pos_at_lo:
            lo = v
        else:
            hi = v
        width = abs(hi - lo)
        if width <= STEP_TOL * max(1.0, abs(v)):
            return v
        d = fprime(v)
        step = fv / d if d != 0.0 else math.inf
        cand = v - step
        if not (min(lo, hi) < cand < max(lo, hi)) or not math.isfinite(cand):
            cand = 0.5 * (lo + hi)
        if abs(fv) <= RESIDUAL_TOL and abs(cand - v) <= STEP_TOL * max(1.0, abs(v)):
            return cand
        v = cand
    raise ConvergenceError("half-map root-finding failed to converge")


def _solve_lambda(a, T, D, w, q):
    """Left endpoint lam > 0: integral from 0 to lam equals q (< 0 here)."""

    def g(lam):
        return _integral(a, T, D, w, 0.0, lam) - q

    def gp(lam):
        return -lam / w(lam)

    hi = 1.0
    for _ in range(MAX_ITER):
        if g(hi) < 0.0:
            break
        hi *= 2.0
    else:
        raise ConvergenceError("no upper bracket for the domain endpoint")
    return _bracketed_newton(g, gp, 0.0, hi, -q, g(hi))


def domain(h: HalfSystem) -> HalfMapDomain:
    """Definition interval [lam, mu) of the half-map.

    mu is the smallest strictly positive root of W (math.inf when none).
    lam is zero except in the forward case a < 0, 4D - T^2 > 0, T < 0 (and its
    backward dual), where it solves the defining identity with map value 0.
    Raises DomainError when the half-map does not exist.  The interval is
    solved once per HalfSystem instance and kept on it; a solve that raises
    keeps nothing, so the next call raises again.
    """
    dom = h.__dict__.get("_domain")
    if dom is None:
        # written past the frozen __setattr__, as functools.cached_property does
        dom = h.__dict__["_domain"] = _solve_domain(h)
    return dom


def _solve_domain(h: HalfSystem) -> HalfMapDomain:
    if not exists(h):
        raise DomainError("half-map does not exist for this triple")
    a, T, D = h.forward_triple()
    w = wpoly(h)
    pos = [r for r in w.roots() if r > 0.0]
    mu = min(pos) if pos else math.inf
    lam = 0.0
    if a < 0.0 and T < 0.0 and 4.0 * D - T * T > 0.0:
        lam = _solve_lambda(a, T, D, w, q_value(h))
    return HalfMapDomain(lam=lam, mu=mu)


def _lower_bracket(a, T, D, w, resid, y0):
    """Bracket [lo, 0] for the map value; lo sits above W's negative root.

    The ladder starts wide because W is only trustworthy a relative sqrt(eps)
    away from a double root; the residual diverges to +inf at the barrier, so
    the first offset with a positive residual brackets the value.  When even
    the deepest computable rung leaves the residual negative, the map value
    is within that rung's offset of the root itself, which is the best double
    precision answer; it is returned directly (flo None).
    """
    negs = [r for r in w.roots() if r < 0.0]
    if negs:
        barrier = max(negs)
        pinned = None
        for shrink in (1e-6, 1e-9, BARRIER_SHRINK, 1e-15):
            lo = barrier * (1.0 - shrink)
            if not w(lo) > 0.0:
                break
            try:
                flo = resid(lo)
            except DomainError:
                break  # endpoint indistinguishable from the root in doubles
            if not math.isfinite(flo):
                break
            if flo > 0.0:
                return lo, flo
            pinned = lo
        if pinned is not None:
            return pinned, None
        raise ConvergenceError("map value is pinned against the W-root barrier")
    lo = -max(1.0, abs(y0))
    for _ in range(MAX_ITER):
        flo = resid(lo)
        if flo > 0.0:
            return lo, flo
        lo *= 2.0
    raise ConvergenceError("no lower bracket for the half-map value")


def evaluate(h: HalfSystem, y0: float) -> float:
    """Half-map value y1 <= 0 at y0, solving the defining integral identity."""
    dom = domain(h)
    if not math.isfinite(y0):
        raise DomainError("y0 must be finite")
    a, T, D = h.forward_triple()
    if y0 < dom.lam or y0 >= dom.mu:
        raise DomainError(f"y0={y0} outside the domain [{dom.lam}, {dom.mu})")
    if math.isfinite(dom.mu) and y0 > dom.mu * (1.0 - MU_GUARD):
        warnings.warn("y0 is too close to the upper domain endpoint; capped",
                      ConditioningWarning, stacklevel=2)
        y0 = dom.mu * (1.0 - MU_GUARD)
    if a == 0.0:
        try:
            y1 = -math.exp(math.pi * T / math.sqrt(4.0 * D - T * T)) * y0
        except OverflowError:
            y1 = -math.inf
        if math.isinf(y1):
            raise DomainError("half-map value exceeds the double range")
        return y1
    w = wpoly(h)
    q = q_value(h)

    def resid(v):
        return _integral(a, T, D, w, v, y0) - q

    def resid_prime(v):
        return v / w(v)

    f0 = resid(0.0)
    if f0 >= 0.0:
        # No root below zero.  At y0 == lam the residual is solver noise and
        # the map value is exactly the endpoint value 0.
        if f0 <= 100.0 * RESIDUAL_TOL:
            return 0.0
        raise DomainError("y0 lies below the half-map domain")
    lo, flo = _lower_bracket(a, T, D, w, resid, y0)
    if flo is None:
        return lo
    return _bracketed_newton(resid, resid_prime, lo, 0.0, flo, f0)


def derivative(h: HalfSystem, y0: float) -> float:
    """dy1/dy0 = y0*W(y1) / (y1*W(y0)); strictly negative on the interior."""
    dom = domain(h)
    if not (dom.lam < y0 < dom.mu):
        raise DomainError("derivative requires y0 in the open domain interior")
    y1 = evaluate(h, y0)
    if y1 >= 0.0:
        raise DomainError("derivative undefined where the map value is zero")
    w = wpoly(h)
    return y0 * w(y1) / (y1 * w(y0))


def sign_relation(h: HalfSystem, y0: float) -> int:
    """Sign of y0 + y(y0): -sign(T) forward, +sign(T) backward."""
    s = y0 + evaluate(h, y0)
    if abs(s) <= SIGN_SNAP * max(1.0, abs(y0)):
        return 0
    return 1 if s > 0.0 else -1


def taylor_at_zero(h: HalfSystem) -> tuple[float, float]:
    """(y(0), quadratic coefficient) of the backward map's expansion at 0.

    The expansion is y(y0) = y(0) + W(y(0))/(2*a^2*y(0)) * y0^2 + O(y0^3);
    its linear term vanishes.
    """
    if h.orientation is not Orientation.BACKWARD:
        raise DomainError("taylor_at_zero applies to backward half-maps")
    dom = domain(h)
    if dom.lam != 0.0:
        raise DomainError("0 is not in the half-map domain")
    yhat1 = evaluate(h, 0.0)
    if yhat1 >= -RESIDUAL_TOL:
        raise DomainError("expansion undefined when the map fixes the origin")
    w = wpoly(h)
    return yhat1, w(yhat1) / (2.0 * h.a * h.a * yhat1)


def puiseux_at_lambda(h: HalfSystem) -> tuple[float, float]:
    """(lam, coefficient) of the forward map's square-root expansion at lam.

    y(y0) = coeff * (y0 - lam)**0.5 + O(y0 - lam) with coeff = a*sqrt(2*lam/W(lam)),
    defined only when lam > 0 (hence a < 0, T < 0, 4D - T^2 > 0).
    """
    if h.orientation is not Orientation.FORWARD:
        raise DomainError("puiseux_at_lambda applies to forward half-maps")
    dom = domain(h)
    if dom.lam <= 0.0:
        raise DomainError("expansion requires a strictly positive left endpoint")
    w = wpoly(h)
    return dom.lam, h.a * math.sqrt(2.0 * dom.lam / w(dom.lam))
