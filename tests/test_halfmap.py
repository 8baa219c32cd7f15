"""Half-map evaluation, domains, derivatives, and local expansions."""

import math
import random
import sys
import warnings

import mpmath
import numpy as np
import pytest

from pwlannulus import (ConvergenceError, DomainError, HalfSystem, NoReturnError,
                        Orientation, PreconditionError, PwlError, derivative, domain,
                        evaluate, exists, halfmap, oracle_halfmap)
from conftest import (NEAR_MU_BRANCHES, NEAR_ROOT_BRANCHES, count_residual_calls, domain_point,
                      draw_half_system, draw_near_mu, draw_near_root, integral_from_residual,
                      mp_antiderivative, mp_map_value, proper_pv_interval, quad_pv, sign_of_sum,
                      ulps)

FWD = Orientation.FORWARD
BWD = Orientation.BACKWARD

# frozen by quadrature + brentq + high-order ODE integration, all independent
# of the package code
PV_NEG1_1_1 = -0.2470062502950185     # integral of -y/(y^2+y+1) over [0, 1]
LAM_NEG1_NEG1_1 = 12.185744190338536  # left endpoint for (-1, -1, 1)
EVAL_NEG1_1_1_AT_1 = -15.34048706045724
TAYLOR_YHAT = -12.185744190338541     # backward (1, -1, 1) at 0
TAYLOR_COEFF = -5.633903647464322


# -- existence and q ---------------------------------------------------------

def test_exists_examples():
    assert not exists(HalfSystem(-1, 3, 2))
    assert exists(HalfSystem(1, 100, -5))
    assert exists(HalfSystem(1, -1, 1, orientation=BWD))


@pytest.mark.parametrize("triple, name", [
    ((math.nan, 1.0, 1.0), "a"), ((0.0, math.inf, 1.0), "T"), ((1.0, 1.0, -math.inf), "D")])
def test_half_system_refuses_a_non_finite_entry(triple, name):
    with pytest.raises(PreconditionError) as err:
        HalfSystem(*triple)
    assert str(err.value) == f"{name} must be a finite real"


def test_w_roots_where_a_squared_underflows():
    # a^2 rounds to 0 while a*T does not: W = y^2 - a*T*y, roots 0 and a*T
    h = HalfSystem(1e-200, 1e100, 1.0)
    assert h._coeffs[2] == 0.0
    assert h._roots == (0.0, 1e-200 * 1e100)
    with pytest.raises(DomainError, match=r"^a\^2 leaves the normal double range$"):
        domain(h)


def test_q_value_examples():
    assert HalfSystem(1, 5, 2)._q == 0.0
    assert HalfSystem(0, 0, 1)._q == 0.0
    assert math.isclose(HalfSystem(-1, 2, 2)._q, math.pi, rel_tol=1e-15)


def test_q_value_backward_sign_convention():
    # backward q negates the forward formula of the raw triple
    hb = HalfSystem(0, 1, 1, orientation=BWD)
    assert math.isclose(hb._q, -math.pi / math.sqrt(3.0), rel_tol=1e-15)


# -- principal-value integral -------------------------------------------------

def test_pv_frozen_value():
    got = integral_from_residual(HalfSystem(-1, 1, 1), 0.0, 1.0)
    assert got == pytest.approx(PV_NEG1_1_1, abs=1e-14)


def test_pv_over_an_empty_interval_is_zero(monkeypatch):
    # at y0 = 0 the residual over [0, 0] is -q without a call, so with q = 0
    # the map value is 0
    counted = count_residual_calls(monkeypatch)
    assert repr(evaluate(HalfSystem(1, 1, 1), 0.0)) == "0.0"
    assert counted[0] == 0


def test_pv_matches_quadrature_on_proper_draws(rng):
    checked = 0
    while checked < 100:
        h = draw_half_system(rng)
        if h.a == 0.0:
            continue
        interval = proper_pv_interval(rng, h)
        if interval is None:
            continue
        y1, y0 = interval
        got = integral_from_residual(h, y1, y0)
        want = quad_pv(h, y1, y0)
        assert got == pytest.approx(want, abs=1e-10)
        checked += 1


# -- domains ------------------------------------------------------------------

def test_domain_factored_quadratic():
    dom = domain(HalfSystem(1, 3, 2))
    assert dom.lam == 0.0
    assert dom.mu == pytest.approx(0.5, abs=1e-15)


def test_domain_positive_definite_w():
    dom = domain(HalfSystem(-1, 0, 1))
    assert dom.lam == 0.0 and dom.mu == math.inf


def test_domain_positive_left_endpoint():
    dom = domain(HalfSystem(-1, -1, 1))
    assert dom.mu == math.inf
    assert dom.lam == pytest.approx(LAM_NEG1_NEG1_1, rel=1e-12)
    # the endpoint maps to zero
    assert evaluate(HalfSystem(-1, -1, 1), dom.lam) == pytest.approx(0.0, abs=1e-9)


def test_domain_requires_existence():
    h = HalfSystem(-1, 3, 2)
    with pytest.raises(DomainError):
        domain(h)
    with pytest.raises(DomainError):  # a failed solve is not remembered
        domain(h)


def test_domain_is_kept_on_the_instance():
    h = HalfSystem(-1, -1, 1)
    assert domain(h) is domain(h)
    assert domain(HalfSystem(-1, -1, 1)) == domain(h)


def test_domain_double_root_mu():
    # a=1, T=2, D=1: W = y^2 - 2y + 1 = (y-1)^2, double root at 1
    dom = domain(HalfSystem(1, 2, 1))
    assert dom.mu == pytest.approx(1.0, abs=1e-15)


# -- evaluation ---------------------------------------------------------------

def test_eval_reflection_at_t_zero():
    assert evaluate(HalfSystem(0, 0, 1), 2.0) == -2.0


def test_eval_a_zero_closed_form():
    got = evaluate(HalfSystem(0, 1, 1), 1.0)
    assert got == -math.exp(math.pi / math.sqrt(3.0))


def test_eval_frozen_rootfinding_value():
    got = evaluate(HalfSystem(-1, 1, 1), 1.0)
    assert got == pytest.approx(EVAL_NEG1_1_1_AT_1, rel=1e-12)


def test_eval_outside_domain_raises():
    with pytest.raises(DomainError):
        evaluate(HalfSystem(1, 3, 2), 0.6)  # mu = 1/2
    with pytest.raises(DomainError):
        evaluate(HalfSystem(-1, -1, 1), 1.0)  # below lam


def test_eval_a_zero_overflow_is_a_domain_error():
    # exp(pi*T/sqrt(4D - T^2)) overflows for 4D - T^2 = 1e-12
    with pytest.raises(DomainError, match="exceeds the double range"):
        evaluate(HalfSystem(0, 1, 0.25000000000025), 1.0)
    # the factor is finite (about 1e304) but its product with y0 is not
    h = HalfSystem(0, 1, (1.0 + (math.pi / 700.0) ** 2) / 4.0)
    assert math.isfinite(evaluate(h, 1.0))
    with pytest.raises(DomainError, match="exceeds the double range"):
        evaluate(h, 1e5)


@pytest.mark.parametrize("det", [1e-300, 1e-320])
def test_zero_trace_with_a_tiny_determinant(det):
    # D*sqrt(4D - T^2) underflows in q, and W = 1 + D*y^2 rounds to 1 on the
    # whole range; with T = 0 the map is the reflection y0 -> -y0
    h = HalfSystem(-1.0, 0.0, det)
    assert h._q == 0.0
    assert evaluate(h, 2.5) == pytest.approx(-2.5, rel=1e-14)
    assert derivative(h, 2.5) == pytest.approx(-1.0, rel=1e-14)
    assert evaluate(HalfSystem(1.0, 0.0, det, orientation=BWD), 0.7) == pytest.approx(
        -0.7, rel=1e-14)


def test_q_with_an_underflowing_denominator_stays_finite():
    # D*sqrt(4D - T^2) = 1e-300 * sqrt(3.99) * 1e-150 underflows; q does not
    q = HalfSystem(0.0, 1e-151, 1e-300)._q
    assert q == pytest.approx(math.pi / math.sqrt(3.99) * 1e299, rel=1e-14)


def test_slope_with_an_underflowing_w_is_a_domain_error():
    # a = 0: W = D*y^2 is 0 in doubles at y0 = 1e-3
    h = HalfSystem(0.0, 0.0, 1e-320)
    assert evaluate(h, 1e-3) == -1e-3
    with pytest.raises(DomainError, match="underflows"):
        derivative(h, 1e-3)


def test_eval_value_on_the_w_root_barrier():
    # the map value lies within about 1e-13 (relative) of W's negative root,
    # where the residual's rounding is about 1e-14: 263 ulp off the bracketed
    # reference
    h = HalfSystem(0.43363031912407335, -2.3540228188847414, 0.07509130706403618)
    y1 = evaluate(h, 8.0)
    assert y1 == pytest.approx(oracle_halfmap(h, 8.0), abs=1e-8)
    assert ulps(y1, float(mp_map_value(h, 8.0))) <= 300


def test_values_near_the_w_root_barrier_are_within_1e_10_of_it():
    # 240 draws, 60 per branch with a negative W root b, whose values run
    # from 0.5|b| down to the last bits of b, and no refusal.  Each value is
    # within 1e-10*|b| of the bracketed reference plus 32 ulp of y0 carried
    # through the map's slope.  The second term matters only with D < 0 and
    # y0 near mu, where W(y0)'s rounding moves four values by 1.3 to 21 such
    # ulp (up to 2.7e-9*|b|)
    rng = random.Random(9)
    eps = 2.220446049250313e-16
    for i in range(240):
        branch = NEAR_ROOT_BRANCHES[i % 4]
        h, y0 = draw_near_root(rng, branch)
        y1 = evaluate(h, y0)
        ref = mp_map_value(h, y0)
        with mpmath.workdps(30):
            a, T, D = map(mpmath.mpf, h.forward_triple())

            def w(y):
                return (D * y - a * T) * y + a * a

            carried = float(abs(y0 * w(ref) / (ref * w(mpmath.mpf(y0))))) * 32 * eps * y0
        assert abs(y1 - float(ref)) <= 1e-10 * -h._barrier + carried, (h, y0, branch)


def test_values_near_mu_are_the_maps_at_the_y0_asked_for():
    # 150 draws, 50 per finite-mu branch (D < 0, 0 < 4D < T^2, D = 0), with
    # y0 = mu*(1 - 10**U(-15, -9)), and no warning.  Each value is within
    # 1e-10 relative of the bracketed reference at that y0 plus 4096 ulp of
    # y0 carried through the map's slope: W(y0)'s rounding, which grows as y0
    # nears W's root mu, moves the value by that much.  A refusal is typed
    rng = random.Random(4242)
    values = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i in range(150):
            branch = NEAR_MU_BRANCHES[i % 3]
            h, y0 = draw_near_mu(rng, branch)
            try:
                y1 = evaluate(h, y0)
            except DomainError:
                continue
            ref = mp_map_value(h, y0)
            with mpmath.workdps(30):
                a, T, D = map(mpmath.mpf, h.forward_triple())

                def w(y):
                    return (D * y - a * T) * y + a * a

                slope = float(abs(y0 * w(ref) / (ref * w(mpmath.mpf(y0)))))
            assert abs(y1 - float(ref)) <= 1e-10 * abs(y1) + slope * 4096 * math.ulp(y0), (
                h, y0, branch)
            values += 1
    assert values >= 140


def test_eval_defining_identity_on_draws(rng):
    eps = 2.220446049250313e-16
    for _ in range(120):
        h = draw_half_system(rng)
        y0 = domain_point(rng, h)
        y1 = evaluate(h, y0)
        if h.a == 0.0:
            continue  # identity only meaningful as a principal value
        # near W's negative root one ulp of y1 moves the residual by
        # |y1|/W(y1) * ulp, so the bound floors at that conditioning level
        cond = abs(y1) / h._w(y1) if y1 != 0.0 else 0.0
        residual = halfmap._residual(h, y0)(y1)[0] if y1 != y0 else -h._q
        assert abs(residual) <= max(1e-10, 64.0 * eps * cond)


def test_eval_monotone_decreasing(rng):
    for _ in range(40):
        h = draw_half_system(rng)
        dom = domain(h)
        hi = min(dom.mu, dom.lam + 10.0 * max(1.0, dom.lam))
        ys = sorted(rng.uniform(dom.lam + 0.02 * (hi - dom.lam), dom.lam + 0.9 * (hi - dom.lam))
                    for _ in range(4))
        vals = [evaluate(h, y) for y in ys]
        for (ya, va), (yb, vb) in zip(zip(ys, vals), zip(ys[1:], vals[1:])):
            if yb - ya > 1e-12:
                assert vb < va


def test_eval_homogeneity(rng):
    for _ in range(60):
        h = draw_half_system(rng, orientation=FWD)
        if h.a == 0.0:
            continue
        y0 = domain_point(rng, h)
        k = math.exp(rng.uniform(-2.0, 2.0))
        scaled = HalfSystem(k * h.a, h.T, h.D, orientation=FWD)
        lhs = evaluate(scaled, k * y0)
        rhs = k * evaluate(h, y0)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_eval_duality_bitwise(rng):
    for _ in range(60):
        h = draw_half_system(rng, orientation=BWD)
        y0 = domain_point(rng, h)
        dual = HalfSystem(-h.a, -h.T, h.D, orientation=FWD)
        assert evaluate(h, y0) == evaluate(dual, y0)


def test_eval_t_zero_is_reflection(rng):
    for _ in range(40):
        a = rng.choice([-1.0, 0.0, 1.0]) * rng.uniform(0.5, 2.0)
        D = rng.uniform(0.3, 3.0)
        h = HalfSystem(a, 0.0, D)
        if not exists(h):
            continue
        y0 = domain_point(rng, h)
        assert evaluate(h, y0) == pytest.approx(-y0, rel=1e-12, abs=1e-12)


def test_eval_t_zero_is_the_exact_reflection():
    # W = D*y^2 + a^2 is even and q = 0, so y1 = -y0 bit for bit, whatever
    # the signs of a and D and however far W's roots are
    assert evaluate(HalfSystem(1.0, 0.0, -1e-120), 1.0) == -1.0
    for h in (HalfSystem(-1.5, 0.0, 2.0), HalfSystem(3.0, 0.0, -0.7),
              HalfSystem(1.5, 0.0, 2.0, orientation=BWD),
              HalfSystem(-3.0, 0.0, -0.7, orientation=BWD)):
        for y0 in (0.1, 0.3, 1.1):
            assert evaluate(h, y0) == -y0
    assert math.copysign(1.0, evaluate(HalfSystem(1.0, 0.0, 1.0), 0.0)) == 1.0
    assert math.copysign(1.0, evaluate(HalfSystem(0.0, 0.0, 1.0), 0.0)) == -1.0


def test_eval_t_zero_matches_the_oracle():
    rng = random.Random(3)
    checked = 0
    for _ in range(120):
        a = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2.0, 2.0)
        D = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2.0, 2.0)
        h = HalfSystem(a, 0.0, D, orientation=rng.choice([FWD, BWD]))
        if not exists(h):
            continue
        y0 = rng.uniform(0.05, 0.9) * min(domain(h).mu, 10.0)
        want = oracle_halfmap(h, y0)
        assert abs(evaluate(h, y0) - want) <= 1e-9 * max(1.0, abs(want))
        checked += 1
    assert checked > 50


@pytest.mark.parametrize("a, D", [(1e160, -1.0), (1e200, 1.0), (1e-200, -1.0),
                                  (1e-200, 0.0)])
def test_a_squared_outside_the_normal_range_is_refused(a, D):
    # W's roots, and so mu, are wrong there: mu = a/sqrt(-D) read inf for
    # a = 1e160, and for a = 1e-200 it is 1e-200, so y0 = 1 lies outside
    h = HalfSystem(a, 0.0, D)
    for call in (lambda: domain(h), lambda: evaluate(h, 1.0), lambda: derivative(h, 1.0)):
        with pytest.raises(DomainError, match=r"a\^2 leaves the normal double range"):
            call()


def test_q_outside_the_double_range_is_refused():
    # forward triple (-1, 1e-160, 1e-312): q = 2*pi*T/(D*sqrt(4D - T^2)) is
    # about 3.1e308, beyond the double range
    h = HalfSystem(1.0, -1e-160, 1e-312, orientation=BWD)
    assert h._q == math.inf
    for call in (lambda: domain(h), lambda: evaluate(h, 1.0)):
        with pytest.raises(DomainError, match=r"^q exceeds the double range$"):
            call()
    # at a = 0 the closed form needs no q, so an infinite q is no refusal
    for h in (HalfSystem(0.0, 1e-159, 1e-312), HalfSystem(0.0, 1e-159, 1e-312, orientation=BWD)):
        assert math.isinf(h._q)
        assert math.isfinite(evaluate(h, 1.0))


def test_no_return_where_a_tiny_a_puts_mu_below_y0():
    with pytest.raises(NoReturnError):
        oracle_halfmap(HalfSystem(1e-200, 0.0, -1.0), 1.0)


def test_zero_trace_and_extreme_a_give_a_value_or_a_typed_error():
    # a, T, D each +-10**U(-320, 5) or 0, restricted to T = 0, to a^2
    # outside the normal range, or to a tiny trace with a tiny or zero
    # determinant, where T^2 (D = 0) or both terms of W's discriminant
    # underflow
    rng = random.Random(1)

    def scale(lo, hi):
        return 0.0 if rng.random() < 0.1 else rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(lo, hi)

    for i in range(2250):
        D = scale(-320.0, 5.0)
        if i % 3 == 0:
            a, T = scale(-320.0, 5.0), 0.0
        elif i % 3 == 1:
            a = rng.choice([-1.0, 1.0]) * 10.0 ** rng.choice(
                [rng.uniform(-320.0, -154.5), rng.uniform(154.5, 300.0)])
            T = scale(-320.0, 5.0)
        else:
            a = scale(-320.0, 5.0)
            T = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-320.0, -26.0)
            D = rng.choice([0.0, scale(-320.0, -26.0)])
        h = HalfSystem(a, T, D, orientation=rng.choice([FWD, BWD]))
        y0 = 10.0 ** rng.uniform(-320.0, 5.0)
        for call in (domain, lambda h: evaluate(h, y0), lambda h: derivative(h, y0)):
            try:
                call(h)
            except PwlError:
                pass
    # the two underflows behind the raw exceptions such draws used to raise
    with pytest.raises(DomainError, match=r"T\^2 leaves the normal double range"):
        evaluate(HalfSystem(2.4205493305639027e-42, -2.4658393275292266e-235, 0.0), 1e-300)
    with pytest.raises(DomainError, match="discriminant underflows"):
        evaluate(HalfSystem(3.088132217533395e-152, 6.061098101741117e-208,
                            -2.4594525510158607e-99), 1.0)


DISC_OVERFLOW = "W's discriminant exceeds the double range"


@pytest.mark.parametrize("h, y0, message", [
    # (aT)^2 overflows, so W's discriminant is no double; as a double root
    # it would make W(y0) overflow to -inf
    pytest.param(HalfSystem(-4.3982351904510645e+102, -4.574408349120238e+124,
                            3.984841813948871e+50, BWD), 3.3200444737785455e+128,
                 DISC_OVERFLOW, id="h0-3.3200444737785455e+128"),
    # (aT)^2 overflows; as a double root, W's negative root would read -inf
    pytest.param(HalfSystem(-3.7935368479725953e+142, 3.873882394680581e+140,
                            1.6941898356745013e-163, BWD), 6.974350694055736e-184,
                 DISC_OVERFLOW, id="h1-6.974350694055736e-184"),
    # (aT)^2 overflows; W has a positive root near 3.3e-23, which a double
    # root at -c1/(2*c2) would hide (mu inf)
    pytest.param(HalfSystem(-1.3515253848758003e+89, -4.073818745404892e+111,
                            1.0110663325973938e-181, BWD), 1e-24,
                 DISC_OVERFLOW, id="disc_snapped_to_a_double_root"),
    # the discriminant is finite; W(y0) and W at the walk's first point are
    # inf, so the residual is nan
    pytest.param(HalfSystem(9156.655472689763, 2.1103220834513057e-220, 2.478795137278061e+147),
                 4.4410485801062544e+101, "W or the residual exceeds the double range",
                 id="h2-4.4410485801062544e+101"),
])
def test_an_overflowing_w_or_residual_is_refused_by_name(h, y0, message):
    for call in (evaluate, derivative):
        with pytest.raises(DomainError, match=f"^{message}$"):
            call(h, y0)


def test_y0_on_a_w_root_in_rounding_is_refused_by_name():
    # 4D = T^2 within rounding snaps W to a double root at mu; at y0 =
    # mu*(1 - 1e-9) W reads -8.9e-16, so the residual at 0 takes the log of
    # a negative W(y0)/a^2.  A warm start there defers to that refusal: a walk
    # would read every point as W's root
    h = HalfSystem(1.0, 2.0, 1.0 - 1e-15)
    y0 = domain(h).mu * (1.0 - 1e-9)
    assert h._w(y0) < 0.0
    y0p = 0.5 * domain(h).mu

    def warm(h, y0):
        return halfmap._evaluate_after(h, y0, y0p, evaluate(h, y0p))

    for call in (evaluate, derivative, warm):
        with pytest.raises(DomainError, match="^y0 lies on a W root in rounding$"):
            call(h, y0)


@pytest.mark.parametrize("h, y0", [
    # one ulp below mu = 0.7115440261869329, where W(y0) reads 5.6e-17
    (HalfSystem(0.5394516248420745, 0.770792092811498, 0.009590342725941935),
     0.7115440261869328),
    # tiny_trace: W is about a^2 on the whole range, and the residual at 0
    # cancels to above the lambda noise bound
    (HalfSystem(-2.3850556216375271e-32, -4.390537383274676e-158, -5.756318760584288e-158,
                BWD), 3.117619265931517),
])
def test_a_residual_at_zero_not_negative_is_refused_by_name(h, y0):
    # y0 lies in [lam, mu), so the refusal names the residual, not the domain
    dom = domain(h)
    assert dom.lam <= y0 < dom.mu
    for call in (evaluate, derivative):
        with pytest.raises(DomainError, match="^the residual at 0 is not negative at this y0 "
                                              "in rounding$"):
            call(h, y0)


def test_slope_pairs_its_factors_where_a_product_overflows():
    # T ~ 0: y1 = -y0 and W(y1) = W(y0) ~ 4e232, so y0*W(y1) overflows
    h = HalfSystem(7.530457575387989e-59, 2.86387606981248e-238, 1.0383911433196737e+74, BWD)
    assert derivative(h, 1.950914850031521e+79) == -1.0
    # D = 0: the map value is a double, but W(y0) ~ 3.7e99*3.4e79*1.1e147 is not
    h = HalfSystem(1.0945975694035082e+147, -3.7085316939768753e+99, 0.0)
    y0 = 3.365151967316491e+79
    assert math.isfinite(evaluate(h, y0))
    with pytest.raises(DomainError, match="^the slope exceeds the double range$"):
        derivative(h, y0)


def test_huge_scales_give_a_value_or_a_typed_error(monkeypatch):
    # a in +-10**U(-150, 150), T in +-10**U(-320, 150), D = 0 or
    # +-10**U(-320, 150), y0 = 10**U(-320, 150): about one draw in 200 let a
    # raw ValueError escape where W or the residual overflows, and about one
    # derivative in 10 was nan or -inf where y0*W(y1) or y1*W(y0) overflows.
    # No call makes more than 998 residual evaluations, the most any made
    # when the rungs bracketed the values near W's negative root; without
    # the discriminant refusal a walk closing in on that root made 11,057
    rng = random.Random(5)
    counted = count_residual_calls(monkeypatch)

    def scale(lo, hi):
        return rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(lo, hi)

    values = 0
    for _ in range(6000):
        a, T = scale(-150.0, 150.0), scale(-320.0, 150.0)
        D = rng.choice([0.0, scale(-320.0, 150.0)])
        h = HalfSystem(a, T, D, orientation=rng.choice([FWD, BWD]))
        y0 = 10.0 ** rng.uniform(-320.0, 150.0)
        for call in (evaluate, derivative):
            counted[0] = 0
            try:
                y = call(h, y0)
            except PwlError:
                y = None
            assert counted[0] <= 998, (h, y0)
            if y is not None:
                assert math.isfinite(y), (h, y0)
                values += 1
    assert values > 1000


def test_lambda_solve_passes_the_ladder_value_on(monkeypatch):
    calls = []
    residual = halfmap._residual

    def counted(h, y0):
        calls.append(y0)
        return residual(h, y0)

    monkeypatch.setattr(halfmap, "_residual", counted)
    lam = domain(HalfSystem(-1.0, -1.0, 1.0)).lam
    assert len(calls) == 11
    assert lam == float.fromhex("0x1.85f19dccdda20p+3")


def _integral_reference(h, y1, y0):
    """integral_{y1}^{y0} -y/W(y) dy, y1 != y0, deriving every branch
    constant on each call, as the integral did before they were kept."""
    a, T, D = h._triple
    w, (c2, c1, _) = h._w, h._coeffs
    if D == 0.0:
        return (y0 - y1) / (a * T) + math.log((a - T * y0) / (a - T * y1)) / (T * T)
    lead = -math.log(w(y0) / w(y1)) / (2.0 * D)
    coeff = -c1 / (2.0 * c2)
    u0 = 2.0 * c2 * y0 + c1
    u1 = 2.0 * c2 * y1 + c1
    disc = h._disc
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
    if ratio <= -1.0:
        raise DomainError("integration endpoint sits on a W root")
    return lead - coeff * math.log1p(ratio) / s


def _integral_outcome(fn, *args):
    try:
        return repr(fn(*args))
    except (ArithmeticError, ValueError, PwlError) as exc:
        return f"{type(exc).__name__}: {exc}"


BRANCHES = ("linear", "complex", "double", "real")


def _branch_triple(rng, branch):
    """(a, T, D) whose kernel takes the named formula branch."""
    a = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2.0, 2.0)
    T = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2.0, 1.0)
    if branch == "linear":
        return a, T, 0.0
    if branch == "complex":
        return a, T, T * T / 4.0 * (1.0 + 10.0 ** rng.uniform(-12.0, 2.0))
    if branch == "double":
        return a, T, T * T / 4.0
    return a, T, rng.choice([-1.0, 1.0]) * T * T / 4.0 * rng.uniform(1e-6, 0.999)


def test_integral_repeats_the_per_call_reference_bitwise():
    # the integral part of fd at every (y1, y0) pair of the grid, y1 = y0
    # included; y1 = 0 is the lambda solve's residual _residual(h, lam)(0.0)[0]
    rng = random.Random(9)
    seen = set()
    for branch in BRANCHES:
        checked = 0
        while checked < 300:
            a, T, D = _branch_triple(rng, branch)
            h = HalfSystem(a, T, D, orientation=rng.choice([FWD, BWD]))
            q = h._q
            if q is None:   # no map, so no solve and no residual
                continue
            seen.add(h._kernel[0])
            checked += 1
            ys = [rng.uniform(-20.0, 20.0) for _ in range(4)] + list(h._roots) + [0.0]
            for y1 in ys:
                for y0 in ys:
                    assert (_integral_outcome(lambda: halfmap._residual(h, y0)(y1)[0])
                            == _integral_outcome(lambda: _integral_reference(h, y1, y0) - q))
    assert seen == set(BRANCHES)


def test_residual_closure_repeats_the_integral_and_slope_bitwise():
    # fd(v) = (I(v, y0) - q, W(v)) with y0's terms bound once; its slope is
    # v/W(v).  A lambda solve at lam takes fd's value at v = 0 with y0 = lam.
    rng = random.Random(10)
    seen = set()
    for branch in BRANCHES:
        checked = 0
        while checked < 300:
            a, T, D = _branch_triple(rng, branch)
            h = HalfSystem(a, T, D, orientation=rng.choice([FWD, BWD]))
            if not exists(h):
                continue
            q, w = h._q, h._w
            seen.add(h._kernel[0])
            ys = [rng.uniform(-20.0, 20.0) for _ in range(4)] + list(h._roots) + [0.0]
            for y0 in ys:
                fd = halfmap._residual(h, y0)
                for v in ys:
                    if v == y0:
                        continue

                    def fused():
                        f, wv = fd(v)
                        return f, v / wv

                    def reference():
                        return _integral_reference(h, v, y0) - q, v / w(v)

                    assert _integral_outcome(fused) == _integral_outcome(reference)
            checked += 1
    assert seen == set(BRANCHES)


@pytest.mark.parametrize("h, y0, calls, y1", [
    # a = 0 and T = 0: closed forms, no solve
    pytest.param(HalfSystem(0.0, 1.0, 1.0), 1.0, 0, "-6.133707406236227", id="a_zero"),
    pytest.param(HalfSystem(-1.0, 0.0, 1.0), 2.0, 0, "-2.0", id="t_zero"),
    # y0 = 0: the residual at 0 is -q, then the walk from 0
    pytest.param(HalfSystem(1.0, -1.0, 1.0, orientation=BWD), 0.0, 9, "-12.185744190338538",
                 id="y0_zero"),
    # y0 = lam: the residual at 0 is solver noise and the value is 0
    pytest.param(HalfSystem(-1.0, -1.0, 1.0), "lam", 1, "0.0", id="y0_lam"),
    pytest.param(HalfSystem(-1.0, -1.0, 1.0), 20.0, 9, "-1.8841577770954199", id="above_lam"),
    # the walk from 15b/16 closes in on W's negative root b (real, double roots)
    pytest.param(HalfSystem(1.0, 1.0, -1.0), 0.5, 9, "-0.7981592453351537", id="rung_real"),
    pytest.param(HalfSystem(1.0, -2.0, 1.0), 1.5, 11, "-0.5046533177577067", id="rung_double"),
    # the value lies within 1e-13 (relative) of b
    pytest.param(HalfSystem(0.43363031912407335, -2.3540228188847414, 0.07509130706403618),
                 8.0, 17, "-0.1867744272312097", id="pinned_rung"),
    # no negative root: the walk down from 0 brackets the value (complex, linear)
    pytest.param(HalfSystem(-1.0, 1.0, 1.0), 1.0, 11, "-15.340487060457233", id="ladder_complex"),
    pytest.param(HalfSystem(1.0, 1.0, 0.0), 0.5, 6, "-0.7564312086261697", id="ladder_linear"),
])
def test_evaluate_makes_the_pinned_number_of_residual_evaluations(monkeypatch, h, y0, calls, y1):
    # each branch of evaluate takes the same steps as when every residual
    # was a separate _integral call; a count that moves means moved iterates
    if y0 == "lam":
        y0 = domain(h).lam
    domain(h)  # the lambda solve is not counted here
    counted = count_residual_calls(monkeypatch)
    assert repr(evaluate(h, y0)) == y1
    assert counted[0] == calls


@pytest.mark.parametrize("h, y0", [
    (HalfSystem(1.0, -1.0, 1.0, orientation=BWD), 0.0),
    (HalfSystem(-1.0, 1.0, 1.0), 1.0),
    (HalfSystem(1.0, 1.0, 0.0), 0.5),
    # the walk closes in on W's negative root (2 and 0 ulp)
    (HalfSystem(1.0, 1.0, -1.0), 0.5),
    (HalfSystem(1.0, -2.0, 1.0), 1.5),
])
def test_walked_values_are_within_8_ulp_of_a_40_digit_reference(h, y0):
    # the values the walk from 0 brackets, whose Newton start is the step
    # from its first point
    y1 = evaluate(h, y0)
    assert ulps(y1, float(mp_map_value(h, y0))) <= 8


def test_evaluate_residual_evaluations_on_draws(monkeypatch):
    # the per-branch counts above rarely see a moved stopping test; a sum
    # over many solves does
    rng = random.Random(12)
    points = []
    for _ in range(400):
        h = draw_half_system(rng)
        points.append((h, domain_point(rng, h)))
    counted = count_residual_calls(monkeypatch)
    for h, y0 in points:
        evaluate(h, y0)
    assert counted[0] == 3099


# Newton reached the residual tolerance on these, then its step rounded back
# to the iterate; the bracket test read that as leaving the bracket and the
# solve bisected on from the far end, 13 to 55 residual evaluations, and
# returned a value up to 177 ulp off.  (a, T, D, orientation, y0)
STALLED = [
    (-0.5763570471745119, -0.012327867934763148, -1.7367493846776638, BWD, 0.3051358522248794),
    (0.34862168530949705, -1.9266908060946815, 0.9280343655724433, FWD, 3.4129686755592266),
    (-0.39338319471400085, -0.1757534873636395, -1.7116515717927892, BWD, 0.2545049084515822),
    (-0.39459941657845315, 1.9553631340092963, 0.9558612464606643, BWD, 9.46070866923185),
    (-1.0540809637356559, 1.5751937150822926, 0.0, BWD, 4.951032690631694),
    (1.2260707597037233, -1.3622842997741031, 0.0, FWD, 9.80071997815743),
    (-2.4873190934781744, 0.5758928414191491, -1.0904657619863585, BWD, 3.054612689639937),
    (-0.38807099313651405, -0.12377122779009486, 0.5274604236048654, BWD, 1.600270343927118),
    (-2.323871420005506, -0.02435727637406737, 1.5695225922239509, BWD, 3.8883990818899905),
    (2.8594994080869043, 0.2534418885337928, -1.7630821413653939, FWD, 1.478932220813379),
    (-0.7516599156868562, 0.2559888169882507, 0.936090400216325, BWD, 6.423539561585139),
    (-0.4784378106312476, 2.5072530736176057, 0.6973989489659, BWD, 7.7493100066152305),
]


def test_newton_stops_when_its_step_is_below_the_last_bit(monkeypatch):
    # converged after 5 Newton steps to f = -5.6e-17; the parent bisected
    # 29 more times and returned -2.2432830466137657
    h = HalfSystem(1.615988800530802, -0.43045934553500853, 1.1808109231686894)
    domain(h)
    counted = count_residual_calls(monkeypatch)
    y1 = evaluate(h, 3.125)
    assert counted[0] <= 8
    assert y1 == float("-2.24328304661376519")  # 40-digit reference, rounded
    assert mpmath.almosteq(mp_map_value(h, 3.125), mpmath.mpf("-2.24328304661376519"),
                           rel_eps=mpmath.mpf(10) ** -17)


def test_formerly_stalled_solves_are_within_8_ulp_of_a_40_digit_reference():
    for a, T, D, orientation, y0 in STALLED:
        h = HalfSystem(a, T, D, orientation)
        y1 = evaluate(h, y0)
        assert ulps(y1, float(mp_map_value(h, y0))) <= 8, (h, y0)
    # the closed forms against quadrature, on one point of each branch used
    with mpmath.workdps(40):
        for a, T, D, orientation, y0 in (STALLED[0], STALLED[1], STALLED[4], STALLED[7]):
            h = HalfSystem(a, T, D, orientation)
            ref = mp_map_value(h, y0)
            fa, fT, fD = map(mpmath.mpf, h.forward_triple())
            F = mp_antiderivative(fa, fT, fD)
            got = mpmath.quad(lambda y: -y / ((fD * y - fa * fT) * y + fa * fa), [ref, 0, y0])
            assert abs(got - (F(y0) - F(ref))) <= mpmath.mpf(10) ** -30


def test_a_map_value_past_the_former_end_of_the_doubling_ladder():
    # a double-root map near mu: the value is about -2.48e80, beyond
    # -max(1, y0)*2**199 = -8e59, where the ladder used to stop with
    # ConvergenceError("no lower bracket for the half-map value")
    h = HalfSystem(-0.6378042305833218, -2.105146793757328, 1.1079107558166894, BWD)
    y0 = 0.6027728166455482
    y1 = evaluate(h, y0)
    ref = mp_map_value(h, y0)
    # bisection on the 40-digit residual gives -2.4808435872789561879e80
    with mpmath.workdps(40):
        assert mpmath.almosteq(ref, mpmath.mpf("-2.4808435872789561879e80"),
                               rel_eps=mpmath.mpf(10) ** -18)
    # W's double root sits at mu, so y0's terms in the residual are about 1e6
    # and their rounding moves the value by about 1.5e-10 relative
    assert abs(y1 - ref) <= 1e-9 * abs(ref)
    # a warm scan row walks down as far as a cold solve does
    y0p = 0.6027
    assert halfmap._evaluate_after(h, y0, y0p, evaluate(h, y0p)) == pytest.approx(y1, rel=1e-9)
    # closer to mu the value leaves the double range: a typed refusal
    with pytest.raises(DomainError, match="half-map value exceeds the double range"):
        evaluate(h, 0.605)
    with pytest.raises(DomainError, match="half-map value exceeds the double range"):
        halfmap._evaluate_after(h, 0.605, 0.604, evaluate(h, 0.604))


def test_a_walk_past_the_end_of_the_double_range_is_refused():
    # D = 0 and no negative W root; near mu = a/T = 1.3e307 the value lies
    # beyond -1.8e308, and W stays finite down to there, so the walk's step
    # doubles to -inf
    h = HalfSystem(1.3e154, 1e-153, 0.0)
    with pytest.raises(DomainError, match="^half-map value exceeds the double range$"):
        evaluate(h, domain(h).mu * (1.0 - 1e-9))


def test_a_residual_overflowing_short_of_the_w_root_pins_the_value():
    # D = 0 at huge scale: (a - T*y0)/(a - T*v) overflows close to W's root
    # b (from 2.3e-10*|b| above it), so the residual reads +inf there and
    # each such point stands in for b.  The walk ends with no double between
    # the last of them and its last negative point, 1.35e-9*|b| above b,
    # after 66 residual evaluations; the value lies within 1e-48*|b| of b
    h = HalfSystem(-3.514049050735868e-67, 4.432431565373425e+90, 0.0, BWD)
    with pytest.raises(ConvergenceError, match="^map value is pinned against the W-root barrier$"):
        evaluate(h, 1.860251722687261e+142)


def test_zero_trace_positive_determinant_is_spared_the_discriminant_guard():
    # T = 0 < D: W = a^2 + D*y^2 > 0 has no root whatever its discriminant
    # rounds to, so mu = inf and the map is the reflection
    for h in (HalfSystem(1e-150, 0.0, 1e-30), HalfSystem(-1e-150, 0.0, 1e-30),
              HalfSystem(-1e-150, 0.0, 1e-30, orientation=BWD)):
        assert domain(h) == halfmap.HalfMapDomain(lam=0.0, mu=math.inf)
        assert evaluate(h, 2.5) == -2.5 == oracle_halfmap(h, 2.5)
        assert derivative(h, 2.5) == -1.0
    # D < 0 puts mu at |a|/sqrt(-D), about 1e-135, which the lost sign hides;
    # with T != 0 the sign is lost as well
    for h in (HalfSystem(1e-150, 0.0, -1e-30), HalfSystem(1e-150, 1e-200, 1e-30),
              HalfSystem(1e-150, 1e-200, -1e-30)):
        with pytest.raises(DomainError, match="discriminant underflows"):
            domain(h)


def test_zero_trace_positive_determinant_has_no_w_root():
    # W.disc = -4*D*a^2 underflows to 0 here and used to read as a double
    # root at 0
    for h in (HalfSystem(1e-150, 0.0, 1e-30), HalfSystem(-1e-150, 0.0, 1e-30),
              HalfSystem(1e-150, 0.0, 1e-30, orientation=BWD)):
        assert h._roots == ()
    # a = 0 keeps W = D*y^2 and its double root at 0
    assert HalfSystem(0.0, 0.0, 1e-30)._roots == (0.0,)


class _WReference:
    """W(y) = c2*y^2 + c1*y + c0 as a frozen object formed it before
    HalfSystem kept its constants: a copy of its call, snapped discriminant
    and roots, the discriminant formed again inside roots()."""

    def __init__(self, c2, c1, c0):
        self.c2, self.c1, self.c0 = c2, c1, c0

    def __call__(self, y):
        return (self.c2 * y + self.c1) * y + self.c0

    @property
    def disc(self):
        raw = self.c1 * self.c1 - 4.0 * self.c2 * self.c0
        scale = max(self.c1 * self.c1, abs(4.0 * self.c2 * self.c0))
        if abs(raw) <= 8.0 * sys.float_info.epsilon * scale:
            return 0.0
        return raw

    def roots(self):
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
        qq = -0.5 * (c1 + math.copysign(sq, c1))
        return sorted([qq / c2, c0 / qq])


def _w_draws(rng):
    """(a, T, D) triples: the 4D = T^2 snap band, D = 0, a = 0 or a^2
    underflowing (c0 = 0), terms of W's discriminant that underflow, and the wide
    scales of test_huge_scales_give_a_value_or_a_typed_error."""
    def scale(lo, hi):
        return rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(lo, hi)

    eps = sys.float_info.epsilon
    for _ in range(2000):
        a, T = scale(-3.0, 3.0), scale(-3.0, 3.0)
        yield a, T, T * T / 4.0 * (1.0 + rng.randint(-24, 24) * eps)   # the snap band
        yield a, T, 0.0
        yield rng.choice([0.0, scale(-320.0, -162.0)]), scale(-3.0, 150.0), scale(-3.0, 3.0)
        yield scale(-170.0, -100.0), scale(-320.0, -100.0), scale(-320.0, -100.0)
        yield a, 0.0, scale(-3.0, 3.0)
        yield (scale(-150.0, 150.0), scale(-320.0, 150.0),
               rng.choice([0.0, scale(-320.0, 150.0)]))


def test_kept_w_constants_repeat_the_frozen_object_bitwise():
    # one ladder gives the roots and the residual's branch, so they agree;
    # no kernel exactly where evaluate answers by a closed form
    rng = random.Random(25)
    seen, branches = set(), set()
    root_counts = {"real": {2}, "double": {1}, "complex": {0}, "linear": {0, 1}}
    for a, T, D in _w_draws(rng):
        h = HalfSystem(a, T, D, orientation=rng.choice([FWD, BWD]))
        ref = _WReference(D, -a * T, a * a)
        roots = () if T == 0.0 < D and a != 0.0 else tuple(ref.roots())
        assert repr(h._disc) == repr(ref.disc), (a, T, D)
        assert repr(h._roots) == repr(roots), (a, T, D)
        assert repr(h._barrier) == repr(max((r for r in roots if r < 0.0), default=-math.inf))
        assert (h._kernel is None) == (a == 0.0 or T == 0.0), (a, T, D)
        branch = h._kernel and h._kernel[0]
        assert branch is None or len(roots) in root_counts[branch], (a, T, D, branch)
        branches.add(branch)
        wide = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-320.0, 150.0)
        ys = list(roots) + [0.0, -0.0, rng.uniform(-5.0, 5.0), wide]
        for y in ys:
            assert repr(h._w(y)) == repr(ref(y)), (a, T, D, y)
        seen.add("zero_disc" if ref.disc == 0.0 else "c2_zero" if D == 0.0
                 else "c0_zero" if a * a == 0.0 else "other")
    assert seen == {"zero_disc", "c2_zero", "c0_zero", "other"}
    assert branches == {None, "linear", "complex", "double", "real"}


def test_w_positive_between_images(rng):
    for _ in range(30):
        h = draw_half_system(rng)
        y0 = domain_point(rng, h)
        y1 = evaluate(h, y0)
        w = h._w
        for i in range(1, 100):
            y = y1 + (y0 - y1) * i / 100.0
            if y != 0.0:
                assert w(y) > 0.0


# -- derivative ---------------------------------------------------------------

def test_derivative_reflection_slope():
    assert derivative(HalfSystem(0, 0, 1), 1.0) == -1.0


def test_derivative_linear_map_slope():
    got = derivative(HalfSystem(0, 1, 1), 1.0)
    assert got == pytest.approx(-math.exp(math.pi / math.sqrt(3.0)), rel=1e-14)


def test_derivative_matches_finite_differences(rng):
    checked = 0
    while checked < 40:
        h = draw_half_system(rng)
        dom = domain(h)
        hi = min(dom.mu, dom.lam + 10.0 * max(1.0, dom.lam))
        y0 = dom.lam + rng.uniform(0.2, 0.8) * (hi - dom.lam)
        step = 1e-5 * max(1.0, abs(y0))
        if y0 - step <= dom.lam or y0 + step >= dom.mu:
            continue
        got = derivative(h, y0)
        d1 = (evaluate(h, y0 + step) - evaluate(h, y0 - step)) / (2 * step)
        d2 = (evaluate(h, y0 + step / 2) - evaluate(h, y0 - step / 2)) / step
        fd = (4.0 * d2 - d1) / 3.0
        assert got == pytest.approx(fd, rel=1e-6)
        assert got < 0.0
        checked += 1


def test_derivative_rejects_endpoint():
    h = HalfSystem(-1, -1, 1)
    lam = domain(h).lam
    with pytest.raises(DomainError):
        derivative(h, lam)


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except DomainError as exc:
        return f"DomainError: {exc}"


def test_slope_at_the_map_value_is_the_derivative(rng):
    # the closed form at a known y1 repeats derivative bit for bit
    for _ in range(300):
        h = draw_half_system(rng)
        y0 = domain_point(rng, h)
        assert repr(derivative(h, y0)) == repr(halfmap.slope(h, y0, evaluate(h, y0)))


def test_slope_raises_like_derivative(monkeypatch):
    # lam and the ulps just above it: the map value there is 0 or solver noise
    h = HalfSystem(-0.5762198835147234, -1.725380726487019, 2.2835951698376156)
    y0 = domain(h).lam
    outcomes = []
    for _ in range(4):
        outcomes.append(_outcome(derivative, h, y0))
        assert outcomes[-1] == _outcome(halfmap.slope, h, y0, evaluate(h, y0))
        y0 = math.nextafter(y0, math.inf)
    assert outcomes[0] == "DomainError: derivative requires y0 in the open domain interior"
    zero = "DomainError: derivative undefined where the map value is zero"
    assert _outcome(halfmap.slope, h, 8.0, 0.0) == zero
    monkeypatch.setattr(halfmap, "evaluate", lambda h, y0: 0.0)
    assert _outcome(derivative, h, 8.0) == zero


# -- sign relation --------------------------------------------------------------

def test_sign_relation_zero_trace():
    assert sign_of_sum(HalfSystem(-1, 0, 1), 2.0) == 0


def test_sign_relation_forward_positive_trace():
    assert sign_of_sum(HalfSystem(0, 1, 1), 1.0) == -1


def test_sign_relation_backward_positive_trace():
    assert sign_of_sum(HalfSystem(0, 1, 1, orientation=BWD), 1.0) == 1


def test_sign_relation_matches_trace_on_draws(rng):
    for _ in range(80):
        h = draw_half_system(rng)
        if abs(h.T) < 0.05:
            continue
        y0 = domain_point(rng, h, lo_frac=0.15)
        want = -int(math.copysign(1, h.T)) if h.orientation is FWD \
            else int(math.copysign(1, h.T))
        assert sign_of_sum(h, y0) == want


# -- local expansions -----------------------------------------------------------

def test_taylor_frozen_values():
    h = HalfSystem(1, -1, 1, orientation=BWD)
    yhat = evaluate(h, 0.0)
    coeff = h._w(yhat) / (2.0 * yhat)   # y0^2 coefficient W(yhat)/(2 a^2 yhat), a = 1
    assert yhat == pytest.approx(TAYLOR_YHAT, rel=1e-12)
    assert coeff == pytest.approx(TAYLOR_COEFF, rel=1e-12)


def test_taylor_matches_quadratic_fit():
    h = HalfSystem(1, -1, 1, orientation=BWD)
    yhat = evaluate(h, 0.0)
    coeff = h._w(yhat) / (2.0 * yhat)   # y0^2 coefficient W(yhat)/(2 a^2 yhat), a = 1
    step = 1e-3

    def second_diff(s):
        return (evaluate(h, 0.0) - 2.0 * evaluate(h, s) + evaluate(h, 2.0 * s)) / (2 * s * s)

    fit = 2.0 * second_diff(step / 2) - second_diff(step)
    assert fit == pytest.approx(coeff, rel=1e-4)


def test_taylor_linear_coefficient_vanishes():
    h = HalfSystem(1, -1, 1, orientation=BWD)
    step = 1e-4
    # one-sided second-order stencil at the domain's left endpoint
    slope = (-3.0 * evaluate(h, 0.0) + 4.0 * evaluate(h, step)
             - evaluate(h, 2.0 * step)) / (2.0 * step)
    assert abs(slope) <= 1e-6


def test_puiseux_frozen_coefficient():
    h = HalfSystem(-1, -1, 1)
    lam = domain(h).lam
    coeff = -math.sqrt(2.0 * lam / h._w(lam))   # of (y0 - lam)^(1/2): a*sqrt(2 lam/W(lam))
    assert lam == pytest.approx(LAM_NEG1_NEG1_1, rel=1e-12)
    w_lam = LAM_NEG1_NEG1_1 * (LAM_NEG1_NEG1_1 - 1.0) + 1.0   # W(y) = y^2 - y + 1
    assert coeff == pytest.approx(-math.sqrt(2.0 * LAM_NEG1_NEG1_1 / w_lam), rel=1e-12)


def test_puiseux_exponent_and_coefficient_by_regression():
    h = HalfSystem(-1, -1, 1)
    lam = domain(h).lam
    coeff = -math.sqrt(2.0 * lam / h._w(lam))   # of (y0 - lam)^(1/2): a*sqrt(2 lam/W(lam))
    ss = np.geomspace(1e-8, 1e-5, 7)
    vals = np.array([-evaluate(h, lam + s) for s in ss])
    slope, intercept = np.polyfit(np.log(ss), np.log(vals), 1)
    assert abs(slope - 0.5) <= 0.01
    pinned = np.exp(np.mean(np.log(vals[:2]) - 0.5 * np.log(ss[:2])))
    assert pinned == pytest.approx(-coeff, rel=1e-3)
