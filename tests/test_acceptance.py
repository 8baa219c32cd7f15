"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every tolerance is pinned here, not configured elsewhere.
"""

import math
import random
import time

import numpy as np

from pwlannulus import (HalfSystem, Orientation, classify, derivative, domain, exists,
                        evaluate, halfmap, make_context, oracle_halfmap, sliding_set,
                        to_canonical, verify_periodic, Verdict)
from conftest import (CATEGORIES, SCALINGS, VIOLATIONS, domain_point, draw_annulus_params,
                      draw_half_system, draw_near_annulus_params, draw_violating_params,
                      integral_from_residual, proper_pv_interval, quad_pv, scale_params,
                      sign_of_sum)

FWD = Orientation.FORWARD
BWD = Orientation.BACKWARD

def _report(num, ok, elapsed, desc):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} ({elapsed:.1f}s) {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_positive_suite():
    rng = random.Random(101)
    t0 = time.monotonic()
    closed_orbits = 0
    for _ in range(500):
        p = draw_annulus_params(rng)
        cls = classify(p)
        assert cls.verdict is Verdict.CROSSING_PERIOD_ANNULUS, cls.failing()
        canon = to_canonical(p)
        ctx = make_context(canon.left, canon.right, canon.b)
        hi = min(ctx.mu, ctx.lam + 10.0 * max(1.0, ctx.lam))
        for _ in range(10):
            y0 = ctx.lam + rng.uniform(0.05, 0.9) * (hi - ctx.lam)
            _, gap = verify_periodic(canon, y0)
            assert abs(gap) < 1e-6 * max(1.0, abs(y0)), (p, y0, gap)
            closed_orbits += 1
    elapsed = time.monotonic() - t0
    _report(1, elapsed < 60.0, elapsed,
            f"positive suite: 500/500 annulus verdicts, {closed_orbits} orbits closed")


def test_criterion_02_negative_suite():
    rng = random.Random(102)
    t0 = time.monotonic()
    per_kind = 100
    for violation in VIOLATIONS:
        expected = "trace-balance" if violation == "trace" else violation
        for _ in range(per_kind):
            p = draw_violating_params(rng, violation)
            cls = classify(p)
            assert cls.verdict is Verdict.NO_PERIOD_ANNULUS
            failing = [r.name for r in cls.records
                       if not r.passed and r.name not in ("center-left", "center-right")]
            assert failing == [expected], (violation, failing)
            if violation == "beta":
                assert cls.sliding is not None
    elapsed = time.monotonic() - t0
    _report(2, elapsed < 30.0, elapsed,
            f"negative suite: {5 * per_kind} instances, correct failing clause named")


def test_criterion_03_halfmap_cross_validation():
    rng = random.Random(103)
    t0 = time.monotonic()
    for i in range(1000):
        category = CATEGORIES[i % len(CATEGORIES)]
        orientation = FWD if (i // len(CATEGORIES)) % 2 == 0 else BWD
        h = draw_half_system(rng, category=category, orientation=orientation)
        y0 = domain_point(rng, h)
        got = oracle_halfmap(h, y0)
        want = evaluate(h, y0)
        assert abs(got - want) <= 1e-8 * max(1.0, abs(y0)), (h, y0, got, want)
    elapsed = time.monotonic() - t0
    _report(3, elapsed < 60.0, elapsed,
            "half-map vs flow oracle: 1000 draws within 1e-8 relative")


def test_criterion_04_exponential_pin():
    rng = random.Random(104)
    t0 = time.monotonic()
    for _ in range(100):
        T = rng.uniform(-2.0, 2.0)
        D = T * T / 4.0 + rng.uniform(0.1, 2.0)
        y0 = rng.uniform(0.05, 10.0)
        orientation = rng.choice([FWD, BWD])
        h = HalfSystem(0.0, T, D, orientation=orientation)
        sign = 1.0 if orientation is FWD else -1.0
        want = -math.exp(sign * math.pi * T / math.sqrt(4 * D - T * T)) * y0
        got = evaluate(h, y0)
        assert abs(got - want) <= 1e-12 * abs(want), (h, y0)
    elapsed = time.monotonic() - t0
    _report(4, True, elapsed, "a = 0 exponential closed form: 100 draws to 1e-12")


def test_criterion_05_reflection_pin():
    rng = random.Random(105)
    t0 = time.monotonic()
    checked = 0
    while checked < 100:
        a = rng.choice([-1.0, 0.0, 1.0]) * rng.uniform(0.2, 2.0)
        D = rng.uniform(0.2, 3.0) if a <= 0 else rng.uniform(-2.0, 3.0)
        if D == 0.0:
            D = 1.0
        h = HalfSystem(a, 0.0, D, orientation=rng.choice([FWD, BWD]))
        if not exists(h):
            continue
        y0 = domain_point(rng, h)
        got = evaluate(h, y0)
        assert abs(got + y0) <= 1e-12 * max(1.0, abs(y0)), (h, y0, got)
        checked += 1
    elapsed = time.monotonic() - t0
    _report(5, True, elapsed, "T = 0 reflection: 100 draws to 1e-12")


def test_criterion_06_derivative_formula():
    rng = random.Random(106)
    t0 = time.monotonic()
    checked = 0
    while checked < 200:
        h = draw_half_system(rng)
        dom = domain(h)
        hi = min(dom.mu, dom.lam + 10.0 * max(1.0, dom.lam))
        y0 = dom.lam + rng.uniform(0.2, 0.8) * (hi - dom.lam)
        step = 1e-5 * max(1.0, abs(y0))
        if y0 - step <= dom.lam or y0 + step >= dom.mu:
            continue
        got = derivative(h, y0)
        y1 = evaluate(h, y0)
        if abs(got) < 2e-3 * max(1.0, abs(y1)):
            # the finite-difference noise floor (map accuracy / step) caps
            # the relative resolution; exponentially flat tails are skipped
            continue
        d1 = (evaluate(h, y0 + step) - evaluate(h, y0 - step)) / (2 * step)
        d2 = (evaluate(h, y0 + step / 2) - evaluate(h, y0 - step / 2)) / step
        fd = (4.0 * d2 - d1) / 3.0
        assert abs(got - fd) <= 1e-6 * abs(fd), (h, y0, got, fd)
        checked += 1
    elapsed = time.monotonic() - t0
    _report(6, True, elapsed,
            "derivative formula vs Richardson differences: 200 draws to 1e-6")


def test_criterion_07_taylor_coefficient():
    rng = random.Random(107)
    t0 = time.monotonic()
    for _ in range(50):
        a = rng.uniform(0.2, 3.0)
        T = -rng.uniform(0.2, 2.0)
        D = T * T / 4.0 + rng.uniform(0.1, 2.0)
        h = HalfSystem(a, T, D, orientation=BWD)
        # y(y0) = yhat + W(yhat)/(2 a^2 yhat) * y0^2 + O(y0^3); lam = 0
        yhat = evaluate(h, 0.0)
        assert yhat < -halfmap.RESIDUAL_TOL
        coeff = h._w(yhat) / (2.0 * a * a * yhat)

        def second_diff(s):
            return (evaluate(h, 0.0) - 2.0 * evaluate(h, s)
                    + evaluate(h, 2.0 * s)) / (2.0 * s * s)

        # the fit step follows the expansion's own length scale, and two
        # Richardson levels cancel the cubic and quartic terms
        step = 1e-2 * math.sqrt(abs(yhat / coeff))
        r1 = 2.0 * second_diff(step / 2.0) - second_diff(step)
        r2 = 2.0 * second_diff(step / 4.0) - second_diff(step / 2.0)
        fit = (4.0 * r2 - r1) / 3.0
        assert abs(fit - coeff) <= 1e-4 * abs(coeff), (h, fit, coeff)
    elapsed = time.monotonic() - t0
    _report(7, True, elapsed,
            "quadratic coefficient at the origin: 50 draws to 1e-4")


def test_criterion_08_puiseux_expansion():
    rng = random.Random(108)
    t0 = time.monotonic()
    for _ in range(50):
        a = -rng.uniform(0.2, 3.0)
        T = -rng.uniform(0.2, 2.0)
        D = T * T / 4.0 + rng.uniform(0.1, 2.0)
        h = HalfSystem(a, T, D)
        # y(y0) = a*sqrt(2 lam/W(lam)) * (y0 - lam)^(1/2) + O(y0 - lam)
        lam = domain(h).lam
        coeff = a * math.sqrt(2.0 * lam / h._w(lam))
        assert lam > 0.0 and coeff < 0.0
        ss = np.geomspace(1e-8, 1e-5, 7)
        vals = np.array([-evaluate(h, lam + s) for s in ss])
        slope = np.polyfit(np.log(ss), np.log(vals), 1)[0]
        assert abs(slope - 0.5) <= 0.01, (h, slope)
        pinned = math.exp(float(np.mean(np.log(vals[:2]) - 0.5 * np.log(ss[:2]))))
        assert abs(pinned - (-coeff)) <= 1e-3 * abs(coeff), (h, pinned, coeff)
    elapsed = time.monotonic() - t0
    _report(8, True, elapsed,
            "square-root expansion at the left endpoint: 50 draws, exponent and coefficient")


def test_criterion_09_sign_relation():
    rng = random.Random(109)
    t0 = time.monotonic()
    for i in range(500):
        if i % 5 == 4:
            # exact zero-trace draws must report sign 0
            a = rng.choice([-1.0, 0.0, 1.0]) * rng.uniform(0.3, 2.0)
            D = rng.uniform(0.3, 3.0)
            h = HalfSystem(a, 0.0, D)
            want = 0
        else:
            h = draw_half_system(rng, orientation=FWD)
            if abs(h.T) < 0.1:
                h = HalfSystem(h.a, math.copysign(0.1, h.T or 1.0), h.D)
            want = -int(math.copysign(1.0, h.T))
        y0 = domain_point(rng, h, lo_frac=0.15)
        assert sign_of_sum(h, y0) == want, (h, y0)
    elapsed = time.monotonic() - t0
    _report(9, True, elapsed, "sign(y0 + y(y0)) = -sign(T): 500 draws, exact match")


def test_criterion_10_coefficient_identities():
    rng = random.Random(110)
    t0 = time.monotonic()
    for _ in range(1000):
        aL, TL, DL, aR, TR, DR = (rng.uniform(-2.0, 2.0) for _ in range(6))
        c0 = aR * aL * (aR * TL - aL * TR)
        c1 = aR * TR * DL - aL * TL * DR
        c2 = aL * aL * DR - aR * aR * DL
        xi0 = aR * TL - aL * TR
        xi_inf = TL * TL * DR - TR * TR * DL
        assert abs(c0 - aR * aL * xi0) < 1e-12
        assert abs(c0 * DL + c2 * aL * TL + c1 * aL * aL) < 1e-12
        assert abs(c0 * DR + c2 * aR * TR + c1 * aR * aR) < 1e-12
        assert abs(TL * c1 + aL * xi_inf - DL * TR * xi0) < 1e-12
        assert abs(TR * c1 + aR * xi_inf - DR * TL * xi0) < 1e-12
    elapsed = time.monotonic() - t0
    _report(10, True, elapsed, "coefficient identities: 1000 draws, residuals < 1e-12")


def test_criterion_11_homogeneity_and_duality():
    rng = random.Random(111)
    t0 = time.monotonic()
    for _ in range(500):
        h = draw_half_system(rng, orientation=FWD)
        if h.a == 0.0:
            continue
        y0 = domain_point(rng, h)
        k = math.exp(rng.uniform(-2.0, 2.0))
        scaled = HalfSystem(k * h.a, h.T, h.D)
        assert abs(evaluate(scaled, k * y0) - k * evaluate(h, y0)) \
            <= 1e-9 * max(1.0, k * abs(y0))
    for _ in range(500):
        h = draw_half_system(rng, orientation=BWD)
        y0 = domain_point(rng, h)
        dual = HalfSystem(-h.a, -h.T, h.D)
        assert evaluate(h, y0) == evaluate(dual, y0)  # bitwise-equal code path
    elapsed = time.monotonic() - t0
    _report(11, True, elapsed, "homogeneity (1e-9) and duality (exact): 500 draws each")


def test_criterion_12_pv_vs_quadrature():
    rng = random.Random(112)
    t0 = time.monotonic()
    checked = 0
    while checked < 1000:
        h = draw_half_system(rng)
        if h.a == 0.0:
            continue
        interval = proper_pv_interval(rng, h)
        if interval is None:
            continue
        y1, y0 = interval
        assert abs(integral_from_residual(h, y1, y0) - quad_pv(h, y1, y0)) <= 1e-10
        checked += 1
    elapsed = time.monotonic() - t0
    _report(12, True, elapsed,
            "closed-form integral vs adaptive quadrature: 1000 proper instances to 1e-10")


def test_criterion_13_scaling_invariance():
    rng = random.Random(113)
    t0 = time.monotonic()
    systems = [draw_near_annulus_params(rng) for _ in range(500)]
    systems += [draw_annulus_params(rng) for _ in range(500)]
    systems += [draw_violating_params(rng, v) for v in VIOLATIONS for _ in range(100)]
    verdicts = set()
    for p in systems:
        cls = classify(p)
        want = (cls.verdict, cls.failing())
        verdicts.add(cls.verdict)
        for scaling in SCALINGS:
            j = rng.randint(-60, 60)
            q = scale_params(p, scaling, j)
            got = classify(q)
            assert (got.verdict, got.failing()) == want, (p, scaling, j)
            if q.aL12 * q.aR12 > 0.0:   # one beta decision: sliding_set is classify's
                assert (sliding_set(q) is None) == got.record("beta").passed
    assert verdicts == {Verdict.CROSSING_PERIOD_ANNULUS, Verdict.NO_PERIOD_ANNULUS}
    elapsed = time.monotonic() - t0
    _report(13, elapsed < 2.0, elapsed,
            f"verdict and failing clauses unchanged under time, x, y and offset scaling "
            f"by 2^j, j in [-60, 60]: {len(systems)} systems, 4 scalings each")
