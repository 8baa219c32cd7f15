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
refined by safeguarded Newton steps, which stops once the residual is within
RESIDUAL_TOL and the Newton step no longer moves the iterate's last bit.
One downward walk (see _descend) brackets every solve: from 0 for a cold
one, and for a solve along a grid (displacement.scan) from the map value at
the previous, smaller y0 (see _evaluate_after), which bounds the new one from
above and whose tangent gives the walk's first step.

Everything in that identity except y0 is a per-system constant, fixed when
a HalfSystem is built (see HalfSystem): W, its discriminant, q, W's roots
and the residual's formula branch with that branch's constants (W's
coefficients, 2D, and aT/(2D) combined with sqrt|disc| as the branch uses
them, or a*T and T^2 when W is linear), which one ladder on D and the
discriminant decides together (see _kernel), and W's largest negative root.
A solve fixes its y0 terms once as well (W(y0), 2D*y0 - aT, see _residual),
so each Newton step makes one residual call, which forms W(v) once for both
the integral and the slope v/W(v).
The domain [lam, mu) needs a solve that may fail, so it is solved on first
use and then kept as well.

Exact zero tests (a == 0, T == 0, D == 0, 4D == T^2) select degenerate
formula branches on purpose: these are structural cases the caller sets
exactly, not quantities to be detected by tolerance.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from functools import partial

from .errors import ConvergenceError, DomainError, PreconditionError

# Solver constants.
RESIDUAL_TOL = 1e-12   # accepted residual of the defining integral identity
STEP_TOL = 1e-14       # relative Newton-step floor; polishes past RESIDUAL_TOL
MAX_ITER = 200


class Orientation(enum.Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


@dataclass(frozen=True)
class HalfSystem:
    """One zone's reduced triple plus the travel direction through its flow.

    Construction keeps the forward triple, W's coefficients (see _w), its
    discriminant, q (None when the half-map does not exist), W's real roots
    and the residual's formula branch with its constants, both from one
    ladder (see _kernel), and W's largest negative root (see _descend) on
    the instance.
    """

    a: float
    T: float
    D: float
    orientation: Orientation = Orientation.FORWARD

    def __post_init__(self):
        for name in ("a", "T", "D"):
            if not math.isfinite(getattr(self, name)):
                raise PreconditionError(f"{name} must be a finite real")
        a, T, D = self.a, self.T, self.D
        c2, c1, c0 = coeffs = D, -a * T, a * a
        if self.orientation is Orientation.BACKWARD:
            a, T = -a, -T
        # W's discriminant, which the residual branches on.  Values within a few
        # ulps of zero snap to an exact double root: the parameterizations that
        # produce them (4D == T*T up to rounding) mean a double root, and the two
        # regimes on either side are numerically indistinguishable anyway.
        disc = c1 * c1 - 4.0 * c2 * c0
        scale = max(c1 * c1, abs(4.0 * c2 * c0))
        if abs(disc) <= 8.0 * sys.float_info.epsilon * scale:
            disc = 0.0
        roots, kernel = _kernel(a, T, D, coeffs, disc)
        # written past the frozen __setattr__, as functools.cached_property does
        self.__dict__.update(_triple=(a, T, D), _coeffs=coeffs, _disc=disc, _roots=roots,
                             _q=_q(a, T, D), _kernel=kernel,
                             _barrier=max((r for r in roots if r < 0.0), default=-math.inf))

    def forward_triple(self) -> tuple[float, float, float]:
        """The equivalent forward triple; backward maps dualize (a,T) -> (-a,-T)."""
        return self._triple

    def _w(self, y: float) -> float:
        """W(y) = c2*y^2 + c1*y + c0 with c2 = D, c1 = -a*T, c0 = a^2."""
        c2, c1, c0 = self._coeffs
        return (c2 * y + c1) * y + c0


def existence_clause(a: float, T: float, D: float) -> bool:
    """Whether the half-map of the forward triple (a, T, D) exists: a > 0,
    or a <= 0 and 4D - T^2 > 0.  A backward map's forward triple is
    (-a, -T, D)."""
    if a > 0.0:
        return True
    return a <= 0.0 and 4.0 * D - T * T > 0.0   # a NaN fails both


def _q(a: float, T: float, D: float) -> float | None:
    """q of a forward triple; None exactly when the half-map does not exist."""
    if not existence_clause(a, T, D):
        return None
    if a > 0.0:
        return 0.0
    rad2 = 4.0 * D - T * T
    den = D * math.sqrt(rad2)  # subnormal or 0 only for tiny D (T = 0: D < 1e-205)
    val = (math.pi * T / den if den >= sys.float_info.min
           else math.pi * T / D / math.sqrt(rad2))
    return val if a == 0.0 else 2.0 * val


def _kernel(a: float, T: float, D: float, coeffs: tuple, disc: float) -> tuple:
    """W's real roots and the residual's formula branch, from one ladder on D
    and the snapped disc of a forward triple, which forms sqrt|disc| once.

    Returns (roots, kernel).  roots ascend, a double root listed once; there
    are none for T = 0 < D with a != 0, where W = a^2 + D*y^2 > 0 whatever
    disc underflows to.  kernel is (branch, fd, c2, c1, c0, 2D, k): the
    branch's name and its residual function (see _residual), W's
    coefficients, 2D, and k, the branch's own constants.  Each constant is a
    subexpression that the formula groups on its own, so forming it once
    moves no result by a bit.  kernel is None where evaluate answers by a
    closed form, a = 0 or T = 0 (W even and q = 0), so no solve forms a
    residual.
    """
    c2, c1, c0 = coeffs
    two_d, s = 2.0 * D, math.sqrt(abs(disc))
    if D == 0.0:
        roots = (-c0 / c1,) if c1 != 0.0 else ()
        branch, fd, k = "linear", _fd_linear, (a, T, a * T, T * T)
    elif T == 0.0 < D and a != 0.0:
        return (), None
    elif disc < 0.0:
        roots, branch, fd, k = (), "complex", _fd_complex, (s, s * s, -c1 / two_d * (2.0 / s))
    elif disc == 0.0:
        roots, branch, fd, k = (-c1 / two_d,), "double", _fd_double, 2.0 * (-c1 / two_d)
    else:
        # Citardauq pairing avoids cancellation in the small root.
        qq = -0.5 * (c1 + math.copysign(s, c1))
        roots = tuple(sorted([0.0, -c1 / c2] if c0 == 0.0 else [qq / c2, c0 / qq]))
        branch, fd, k = "real", _fd_real, (s, 2.0 * s, -c1 / two_d)
    return roots, None if a == 0.0 or T == 0.0 else (branch, fd, c2, c1, c0, two_d, k)


@dataclass(frozen=True)
class HalfMapDomain:
    """Definition interval [lam, mu) of a half-map; mu may be math.inf."""

    lam: float
    mu: float


def exists(h: HalfSystem) -> bool:
    """Whether the half-map is defined at all for this triple."""
    return h._q is not None


def _residual(h: HalfSystem, y0: float):
    """fd(v) -> (integral_v^{y0} -y/W(y) dy - q, W(v)) for v != y0.

    The residual of one solve at y0 and, through W(v), its slope v/W(v):
    the branch's function below with the HalfSystem's constants (see _kernel)
    and y0's terms W(y0) and 2D*y0 - aT bound, so a call forms only v's
    terms, W(v) once among them.

    Antiderivative differences are paired analytically: the arctangent part
    goes through the angle-difference identity and the logarithmic part
    through a log1p cross-ratio, because the naive difference of two
    antiderivative values cancels catastrophically for nearly degenerate
    discriminants.  Branch selection uses W's discriminant, the exact
    expression its roots come from, so the pole structure seen here always
    matches the roots the callers screen for.  fd divides by W(v) only where
    the formula does, so it raises exactly where the integral does.
    """
    _, fd, c2, c1, c0, two_d, k = h._kernel
    return partial(fd, c2, c1, c0, two_d, k, h._q, y0, (c2 * y0 + c1) * y0 + c0,
                   two_d * y0 + c1)


def _fd_linear(c2, c1, c0, two_d, k, q, y0, w0, u0, v):  # D = 0
    a, T, a_t, t_t = k
    return ((y0 - v) / a_t + math.log((a - T * y0) / (a - T * v)) / t_t - q,
            (c2 * v + c1) * v + c0)


def _fd_complex(c2, c1, c0, two_d, k, q, y0, w0, u0, v):
    s, s_s, arc = k
    wv = (c2 * v + c1) * v + c0
    u1 = two_d * v + c1                     # 2Dy - aT at v
    return -math.log(w0 / wv) / two_d - arc * math.atan2(s * (u0 - u1), s_s + u0 * u1) - q, wv


def _fd_double(c2, c1, c0, two_d, k, q, y0, w0, u0, v):
    wv = (c2 * v + c1) * v + c0
    lead = -math.log(w0 / wv) / two_d
    u1 = two_d * v + c1
    if u0 * u1 == 0.0:
        raise DomainError("integration endpoint sits on a W root")
    return lead + k * (u1 - u0) / (u0 * u1) - q, wv


def _fd_real(c2, c1, c0, two_d, k, q, y0, w0, u0, v):
    s, two_s, coeff = k
    wv = (c2 * v + c1) * v + c0
    lead = -math.log(w0 / wv) / two_d
    u1 = two_d * v + c1
    den = (u0 + s) * (u1 - s)
    if den == 0.0:
        raise DomainError("integration endpoint sits on a W root")
    ratio = two_s * (u0 - u1) / den
    if ratio <= -1.0:  # the cross-ratio rounded onto the root
        raise DomainError("integration endpoint sits on a W root")
    return lead - coeff * math.log1p(ratio) / s - q, wv


def _bracketed_newton(fd, lo, hi, flo, v):
    """Root of f on [lo, hi], lo < hi, flo = f(lo) >= 0 > f(hi); safeguarded Newton.

    fd(v) returns (f(v), w) from one call, with f'(v) = v/w: w is W(v) for the
    integral's lower endpoint and -W(v) for its upper one.  v, strictly
    inside the bracket, is the first iterate.  Both callers bracket with
    f(lo) >= 0: _descend stops its walk at a residual >= 0, and _solve_lambda
    passes f(0) = -q > 0.  Converges on the residual first, then keeps
    polishing until the Newton step stalls at the floating-point floor; a
    step that leaves the bracket is a bisection.  A step that rounds back to
    v itself (v - step == v) with the residual within RESIDUAL_TOL returns
    v: no further evaluation can move it, and the bracket test would
    otherwise read v == hi (or lo) as leaving the bracket and bisect from
    its far end.
    """
    if flo == 0.0:
        return lo
    tol, step_tol, inf = RESIDUAL_TOL, STEP_TOL, math.inf
    for _ in range(MAX_ITER):
        fv, w = fd(v)
        d = v / w
        if fv == 0.0:
            return v
        if fv > 0.0:
            lo = v
        else:
            hi = v
        # STEP_TOL * max(1, |v|)
        floor = step_tol * v if v > 1.0 else -step_tol * v if v < -1.0 else step_tol
        if hi - lo <= floor:
            return v
        step = fv / d if d != 0.0 else inf
        cand = v - step
        if cand == v and -tol <= fv <= tol:  # the step is below v's last bit
            return v
        if not lo < cand < hi:  # also a nan or infinite step
            cand = 0.5 * (lo + hi)
        if -tol <= fv <= tol and -floor <= cand - v <= floor:
            return cand
        v = cand
    raise ConvergenceError("half-map root-finding failed to converge")


def _solve_lambda(h: HalfSystem) -> float:
    """Left endpoint lam > 0: integral from 0 to lam equals q (< 0 here).

    The upper bracket is the first of 1, 2, 4, ... with a negative residual.
    """
    q, w = h._q, h._w

    def gd(lam):   # the residual at map value 0 of a solve at y0 = lam
        return _residual(h, lam)(0.0)[0], -w(lam)   # slope -lam/W(lam)

    hi = 1.0
    for _ in range(MAX_ITER):
        try:
            ghi = gd(hi)[0]
        except ValueError:   # W(hi) so large that the log's argument rounds to 0
            break
        if ghi < 0.0:
            return _bracketed_newton(gd, 0.0, hi, -q, 0.5 * hi)
        hi *= 2.0
        if not (math.isfinite(ghi) and math.isfinite(hi)):
            break
    raise ConvergenceError("no upper bracket for the domain endpoint")


def domain(h: HalfSystem) -> HalfMapDomain:
    """Definition interval [lam, mu) of the half-map.

    mu is the smallest strictly positive root of W (math.inf when none).
    lam is zero except in the forward case a < 0, 4D - T^2 > 0, T < 0 (and its
    backward dual), where it solves the defining identity with map value 0.
    Raises DomainError when the half-map does not exist, and where doubles
    cannot carry W or q: a^2 (a != 0) not a normal double, where W's roots
    are off; q not a finite double (a != 0), where the identity has no
    finite right-hand side; T^2 not one with D = 0 (T != 0), where the
    linear-W formula divides by 0 or inf; both terms of W's discriminant
    rounding to 0 (a, D != 0), where its sign, and so mu, is lost, except
    with T = 0 < D, where W > 0 has no root and mu is inf; the discriminant
    not finite (a, T, D != 0), where it would read as a double root.  The
    interval is kept on the HalfSystem once solved; a solve that raises
    keeps nothing.
    """
    dom = h.__dict__.get("_domain")
    if dom is None:
        if not exists(h):
            raise DomainError("half-map does not exist for this triple")
        a, T, D = h._triple
        if a != 0.0 and not sys.float_info.min <= a * a <= sys.float_info.max:
            raise DomainError("a^2 leaves the normal double range")
        if a != 0.0 and not math.isfinite(h._q):   # at a = 0 the closed form needs no q
            raise DomainError("q exceeds the double range")
        if D == 0.0 and T != 0.0 and not sys.float_info.min <= T * T <= sys.float_info.max:
            raise DomainError("T^2 leaves the normal double range")
        if 0.0 not in (a, T, D) and not math.isfinite(a * T * (a * T) - 4.0 * D * (a * a)):
            raise DomainError("W's discriminant exceeds the double range")
        if (a != 0.0 and D != 0.0 and h._disc == 0.0 and 4.0 * D * (a * a) == 0.0
                and not (T == 0.0 and D > 0.0)):  # W = a^2 + D*y^2 > 0 has no root
            raise DomainError("W's discriminant underflows to 0 and loses its sign")
        mu = min((r for r in h._roots if r > 0.0), default=math.inf)
        # an existing map with a < 0 has 4D - T^2 > 0
        lam = _solve_lambda(h) if a < 0.0 and T < 0.0 else 0.0
        dom = h.__dict__["_domain"] = HalfMapDomain(lam=lam, mu=mu)
    return dom


def _descend(h: HalfSystem, fd, hi: float, step: float) -> float:
    """The map value below hi, where the residual is negative, walking down
    hi + step, hi + 2*step, hi + 4*step, ... to a residual >= 0.

    That point and the last negative one bracket the value; Newton starts
    with the step from the first point walked, or at the bracket's midpoint
    when that step leaves it.  The residual diverges at W's largest negative
    root b (h._barrier, -inf when none), so a point at or below b becomes
    b + (hi - b)/16: the walk closes in on b geometrically.  A point on b in
    rounding stands in for b: fd finds it on a W root, W(x) reads <= 0, the
    log's argument is no positive double while W(x) is finite, or fd is +inf.
    With no double between b and hi, hi is the value if within 1e-9*|b| of b.
    """
    b = floor = h._barrier
    start, x, cand = hi, hi + step, math.nan
    while True:
        if x <= floor:
            if floor == -math.inf:   # x is -inf: the walk left the double range
                raise DomainError("half-map value exceeds the double range")
            x = max(floor + (hi - floor) / 16.0, math.nextafter(floor, 0.0))
            if not x < hi:   # no double left between the barrier and hi
                if hi <= b * (1.0 - 1e-9):
                    return hi
                raise ConvergenceError("map value is pinned against the W-root barrier")
        try:
            fx, wx = fd(x)
        except DomainError:   # "integration endpoint sits on a W root"
            if b == -math.inf:
                raise
            fx = math.inf
        except (ValueError, ZeroDivisionError):   # the log's argument is not a positive double
            # read as a residual: -inf without b (W(x) so large that the argument
            # rounds to 0), else +inf (x on b) or nan where W(x) overflows
            fx = -math.inf if b == -math.inf else math.inf if math.isfinite(h._w(x)) else math.nan
        if not fx > -math.inf:   # -inf or nan
            if fx != fx:   # inf/inf or inf - inf: W(y0), W(x) or their terms overflow
                raise DomainError("W or the residual exceeds the double range")
            raise DomainError("half-map value exceeds the double range")
        if b > -math.inf and (fx == math.inf or wx <= 0.0):   # x stands in for b
            floor = x
            continue
        if hi == start:   # the first point walked: Newton steps from it
            d = x / wx
            cand = x - fx / d if d != 0.0 else math.inf
        if fx >= 0.0:
            break
        hi = x
        step *= 2.0
        x = start + step
    if not x < cand < hi:
        cand = 0.5 * (x + hi)
    return _bracketed_newton(fd, x, hi, fx, cand)


def evaluate(h: HalfSystem, y0: float) -> float:
    """Half-map value y1 <= 0 at y0, solving the defining integral identity."""
    return _evaluate_after(h, y0, math.nan, math.nan)


def _evaluate_after(h: HalfSystem, y0: float, y0p: float, y1p: float) -> float:
    """evaluate(h, y0), warm-started from y1p, the map value at some y0p < y0.

    Cold and warm solves make the same checks here: the domain, a finite y0
    in [lam, mu), and the closed forms a = 0 and T = 0.  The map is strictly
    decreasing, so y1p is an upper bracket that costs no evaluation, and the
    walk down from it (see _descend) first steps to the tangent
    y1p + slope*(y0 - y0p), slope's closed form at (y0p, y1p); the value is
    the cold solve's within the Newton stop, or within the residual's
    rounding where that is wider.  The solve walks cold from 0 without a
    usable previous value (y0p <= lam or y1p >= 0; evaluate passes nan),
    where W(y0) reads <= 0 (the cold residual at 0 refuses such a y0), and
    where the tangent is not a finite double below y1p: a nan or infinite
    step, or one that rounds back onto y1p.
    """
    dom = domain(h)
    if not math.isfinite(y0):
        raise DomainError("y0 must be finite")
    if y0 < dom.lam or y0 >= dom.mu:
        raise DomainError(f"y0={y0} outside the domain [{dom.lam}, {dom.mu})")
    a, T, D = h._triple
    if a == 0.0:
        try:
            y1 = -math.exp(math.pi * T / math.sqrt(4.0 * D - T * T)) * y0
        except OverflowError:
            y1 = -math.inf
        if math.isinf(y1):
            raise DomainError("half-map value exceeds the double range")
        return y1
    if T == 0.0:  # W is even and q = 0; 0.0 - y0 is 0.0, not -0.0, at y0 = 0
        return 0.0 - y0
    fd = _residual(h, y0)
    w = h._w
    if dom.lam < y0p < y0 and y1p < 0.0 and w(y0) > 0.0:
        den = y1p * w(y0p)
        step = y0p * w(y1p) / den * (y0 - y0p) if den != 0.0 else 0.0
        if -math.inf < y1p + step < y1p:
            return _descend(h, fd, y1p, step)
    try:
        f0 = fd(0.0)[0] if y0 != 0.0 else -h._q   # fd needs v != y0
    except ValueError:   # W(y0)/a^2 is not a positive double
        raise DomainError("y0 lies on a W root in rounding" if w(y0) <= 0.0
                          else "W or the residual exceeds the double range") from None
    if f0 >= 0.0:
        # No root below zero.  At y0 == lam the residual is solver noise and
        # the map value is exactly the endpoint value 0.
        if f0 <= 100.0 * RESIDUAL_TOL:
            return 0.0
        raise DomainError("the residual at 0 is not negative at this y0 in rounding")
    # the walk's first point is -max(1, |y0|); with a negative W root b it is 15b/16
    return _descend(h, fd, 0.0, -max(1.0, abs(y0)) if h._barrier == -math.inf else -math.inf)


def _require_interior(h: HalfSystem, y0: float) -> None:
    dom = domain(h)
    if not (dom.lam < y0 < dom.mu):
        raise DomainError("derivative requires y0 in the open domain interior")


def slope(h: HalfSystem, y0: float, y1: float) -> float:
    """dy1/dy0 = y0*W(y1) / (y1*W(y0)) at the known map value y1 = y(y0).

    Differentiating the defining identity in y0 gives this closed form, so a
    caller that has y1 already pays no second solve.  Where a product or the
    quotient overflows, the factors are paired as (y0/y1)*(W(y1)/W(y0)), and
    a slope that is still not a negative double is refused.
    """
    _require_interior(h, y0)
    if y1 >= 0.0:
        raise DomainError("derivative undefined where the map value is zero")
    num, den = y0 * h._w(y1), y1 * h._w(y0)
    if num == 0.0 or den == 0.0:  # W > 0 here, so only an underflow gives 0
        raise DomainError("W underflows at the slope's endpoints")
    d = num / den
    if not -math.inf < d < math.inf:
        d = (y0 / y1) * (h._w(y1) / h._w(y0))   # an infinite W(y0) reads -0.0 here
        if not -math.inf < d < 0.0:
            raise DomainError("the slope exceeds the double range")
    return d


def derivative(h: HalfSystem, y0: float) -> float:
    """dy1/dy0 at y0; strictly negative on the interior."""
    _require_interior(h, y0)  # before the solve, so a point outside names the interior
    return slope(h, y0, evaluate(h, y0))

