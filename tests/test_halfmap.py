"""Half-map evaluation, domains, derivatives, and local expansions."""

import math

import numpy as np
import pytest

from pwlannulus import (ConditioningWarning, DomainError, HalfSystem, Orientation,
                        derivative, domain, evaluate, exists, oracle_halfmap,
                        pv_integral, puiseux_at_lambda, q_value, sign_relation,
                        taylor_at_zero, wpoly)
from conftest import domain_point, draw_half_system, proper_pv_interval, quad_pv

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


def test_q_value_examples():
    assert q_value(HalfSystem(1, 5, 2)) == 0.0
    assert q_value(HalfSystem(0, 0, 1)) == 0.0
    assert math.isclose(q_value(HalfSystem(-1, 2, 2)), math.pi, rel_tol=1e-15)


def test_q_value_backward_sign_convention():
    # backward q negates the forward formula of the raw triple
    hb = HalfSystem(0, 1, 1, orientation=BWD)
    assert math.isclose(q_value(hb), -math.pi / math.sqrt(3.0), rel_tol=1e-15)


# -- principal-value integral -------------------------------------------------

def test_pv_a_zero_cancellation():
    assert math.isclose(pv_integral(HalfSystem(0, 7, 1), -2.0, 1.0),
                        math.log(2.0), rel_tol=1e-14)


def test_pv_odd_symmetric_interval():
    assert pv_integral(HalfSystem(-1, 0, 1), -1.0, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_pv_frozen_value():
    got = pv_integral(HalfSystem(-1, 1, 1), 0.0, 1.0)
    assert got == pytest.approx(PV_NEG1_1_1, abs=1e-14)


def test_pv_rejects_interior_root():
    # W = 2y^2 - 3y + 1 vanishes at 1/2 and 1
    with pytest.raises(DomainError):
        pv_integral(HalfSystem(1, 3, 2), 0.0, 0.75)


def test_pv_rejects_divergent_endpoint_at_zero():
    with pytest.raises(DomainError):
        pv_integral(HalfSystem(0, 1, 1), 0.0, 1.0)


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
        got = pv_integral(h, y1, y0)
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


def test_eval_value_on_the_w_root_barrier():
    # the map value lies within about 1e-12 (relative) of W's negative root,
    # where the log1p cross-ratio of the bracket ladder rounds to -1
    h = HalfSystem(0.43363031912407335, -2.3540228188847414, 0.07509130706403618)
    assert evaluate(h, 8.0) == pytest.approx(oracle_halfmap(h, 8.0), abs=1e-8)


def test_eval_near_mu_warns_and_caps():
    h = HalfSystem(1, 3, 2)  # mu = 1/2
    with pytest.warns(ConditioningWarning):
        val = evaluate(h, 0.5 * (1.0 - 1e-12))
    assert val < 0.0


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
        cond = abs(y1) / wpoly(h)(y1) if y1 != 0.0 else 0.0
        assert abs(pv_integral(h, y1, y0) - q_value(h)) <= max(1e-10, 64.0 * eps * cond)


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


def test_w_positive_between_images(rng):
    for _ in range(30):
        h = draw_half_system(rng)
        y0 = domain_point(rng, h)
        y1 = evaluate(h, y0)
        w = wpoly(h)
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


# -- sign relation --------------------------------------------------------------

def test_sign_relation_zero_trace():
    assert sign_relation(HalfSystem(-1, 0, 1), 2.0) == 0


def test_sign_relation_forward_positive_trace():
    assert sign_relation(HalfSystem(0, 1, 1), 1.0) == -1


def test_sign_relation_backward_positive_trace():
    assert sign_relation(HalfSystem(0, 1, 1, orientation=BWD), 1.0) == 1


def test_sign_relation_matches_trace_on_draws(rng):
    for _ in range(80):
        h = draw_half_system(rng)
        if abs(h.T) < 0.05:
            continue
        y0 = domain_point(rng, h, lo_frac=0.15)
        want = -int(math.copysign(1, h.T)) if h.orientation is FWD \
            else int(math.copysign(1, h.T))
        assert sign_relation(h, y0) == want


# -- local expansions -----------------------------------------------------------

def test_taylor_frozen_values():
    h = HalfSystem(1, -1, 1, orientation=BWD)
    yhat, coeff = taylor_at_zero(h)
    assert yhat == pytest.approx(TAYLOR_YHAT, rel=1e-12)
    assert coeff == pytest.approx(TAYLOR_COEFF, rel=1e-12)


def test_taylor_matches_quadratic_fit():
    h = HalfSystem(1, -1, 1, orientation=BWD)
    yhat, coeff = taylor_at_zero(h)
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


def test_taylor_rejects_zero_trace():
    with pytest.raises(DomainError):
        taylor_at_zero(HalfSystem(1, 0, 1, orientation=BWD))


def test_taylor_rejects_forward_orientation():
    with pytest.raises(DomainError):
        taylor_at_zero(HalfSystem(1, -1, 1))


def test_puiseux_frozen_coefficient():
    h = HalfSystem(-1, -1, 1)
    lam, coeff = puiseux_at_lambda(h)
    assert lam == pytest.approx(LAM_NEG1_NEG1_1, rel=1e-12)
    w = wpoly(h)
    assert coeff == pytest.approx(-math.sqrt(2.0 * lam / w(lam)), rel=1e-14)


def test_puiseux_exponent_and_coefficient_by_regression():
    h = HalfSystem(-1, -1, 1)
    lam, coeff = puiseux_at_lambda(h)
    ss = np.geomspace(1e-8, 1e-5, 7)
    vals = np.array([-evaluate(h, lam + s) for s in ss])
    slope, intercept = np.polyfit(np.log(ss), np.log(vals), 1)
    assert abs(slope - 0.5) <= 0.01
    pinned = np.exp(np.mean(np.log(vals[:2]) - 0.5 * np.log(ss[:2])))
    assert pinned == pytest.approx(-coeff, rel=1e-3)


def test_puiseux_requires_positive_lambda():
    with pytest.raises(DomainError):
        puiseux_at_lambda(HalfSystem(-1, 1, 1))  # T > 0 gives lam = 0
