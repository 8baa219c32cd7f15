"""Displacement function, its coefficients, zero scan and derivative signs."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwlannulus import (CanonicalSystem, ContractError, DomainError,
                        EmptyDomainError, HalfSystem, Orientation, OrbitKind,
                        PreconditionError, delta, delta_prime, evaluate, f_value,
                        find_crossing_orbits, halfmap, make_context,
                        sign_delta_prime_at_zero, sign_delta_second_at_critical,
                        verify_periodic)

FWD = Orientation.FORWARD
BWD = Orientation.BACKWARD

# frozen by independent quadrature + brentq + high-order ODE integration
ISO_LEFT = HalfSystem(-1.0, 0.5, 1.0)
ISO_RIGHT = HalfSystem(2.0, -0.5, 1.3, orientation=BWD)
ISO_ZERO = 4.500740228755025
ISO_BOTTOM = -11.95040868403152


def ctx_of(left, right, b=0.0):
    return make_context(left, right, b)


# -- context assembly ---------------------------------------------------------

def test_context_full_halfline():
    ctx = ctx_of(HalfSystem(-1, 0, 1), HalfSystem(1, 0, 1, orientation=BWD))
    assert ctx.lam == 0.0 and ctx.mu == math.inf
    assert not ctx.is_empty


def test_context_finite_mu_from_left():
    ctx = ctx_of(HalfSystem(1, 3, 2), HalfSystem(1, 0, 1, orientation=BWD))
    assert ctx.mu == pytest.approx(0.5, abs=1e-15)


def test_context_empty_when_shifted_apart():
    ctx = ctx_of(HalfSystem(1, 3, 2), HalfSystem(1, 0, 1, orientation=BWD), b=10.0)
    assert ctx.is_empty
    with pytest.raises(EmptyDomainError):
        delta(ctx, 10.0)


def test_context_requires_orientations():
    with pytest.raises(PreconditionError):
        ctx_of(HalfSystem(1, 0, 1, orientation=BWD), HalfSystem(1, 0, 1, orientation=BWD))
    with pytest.raises(PreconditionError):
        ctx_of(HalfSystem(-1, 0, 1), HalfSystem(1, 0, 1))


def test_context_requires_existing_halfmaps():
    with pytest.raises(DomainError):
        ctx_of(HalfSystem(-1, 3, 2), HalfSystem(1, 0, 1, orientation=BWD))


# -- delta values -------------------------------------------------------------

def test_delta_zero_for_double_reflection(rng):
    ctx = ctx_of(HalfSystem(-1, 0, 1), HalfSystem(1, 0, 1, orientation=BWD))
    for _ in range(10):
        y0 = rng.uniform(0.0, 8.0)
        assert delta(ctx, y0) == pytest.approx(0.0, abs=1e-12)


def test_delta_zero_on_proportional_family(rng):
    ctx = ctx_of(HalfSystem(-2, -2, 4), HalfSystem(1, 1, 1, orientation=BWD))
    assert ctx.lam > 0.0
    for _ in range(6):
        y0 = ctx.lam + rng.uniform(0.0, 10.0)
        assert abs(delta(ctx, y0)) <= 1e-8


def test_delta_exponential_gap():
    ctx = ctx_of(HalfSystem(0, 1, 1), HalfSystem(0, 1, 1, orientation=BWD))
    want = math.exp(math.pi / math.sqrt(3.0)) - math.exp(-math.pi / math.sqrt(3.0))
    assert delta(ctx, 1.0) == pytest.approx(want, rel=1e-14)


def test_delta_outside_domain():
    ctx = ctx_of(HalfSystem(1, 3, 2), HalfSystem(1, 0, 1, orientation=BWD))
    with pytest.raises(DomainError):
        delta(ctx, 0.7)


# -- coefficient identities ---------------------------------------------------

triple = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@given(st.tuples(triple, triple, triple, triple, triple, triple))
@settings(max_examples=300)
def test_coefficient_identities(vals):
    aL, TL, DL, aR, TR, DR = vals
    c0 = aR * aL * (aR * TL - aL * TR)
    c1 = aR * TR * DL - aL * TL * DR
    c2 = aL * aL * DR - aR * aR * DL
    xi0 = aR * TL - aL * TR
    xi_inf = TL * TL * DR - TR * TR * DL
    assert abs(c0 - aR * aL * xi0) <= 1e-12
    assert abs(c0 * DL + c2 * aL * TL + c1 * aL * aL) <= 1e-12
    assert abs(c0 * DR + c2 * aR * TR + c1 * aR * aR) <= 1e-12
    assert abs(TL * c1 + aL * xi_inf - DL * TR * xi0) <= 1e-12
    assert abs(TR * c1 + aR * xi_inf - DR * TL * xi0) <= 1e-12


def test_context_coefficients_match_formulas():
    ctx = ctx_of(ISO_LEFT, ISO_RIGHT)
    aL, TL, DL = ISO_LEFT.a, ISO_LEFT.T, ISO_LEFT.D
    aR, TR, DR = ISO_RIGHT.a, ISO_RIGHT.T, ISO_RIGHT.D
    assert ctx.c0 == aR * aL * (aR * TL - aL * TR)
    assert ctx.c1 == aR * TR * DL - aL * TL * DR
    assert ctx.c2 == aL * aL * DR - aR * aR * DL


# -- zero scan ----------------------------------------------------------------

def test_scan_annulus_candidate():
    ctx = ctx_of(HalfSystem(-2, -2, 4), HalfSystem(1, 1, 1, orientation=BWD))
    orbits = find_crossing_orbits(ctx, 64)
    assert len(orbits) == 1
    assert orbits[0].kind is OrbitKind.ANNULUS_CANDIDATE


def test_scan_no_zeros_one_signed():
    ctx = ctx_of(HalfSystem(0, 1, 1), HalfSystem(0, 1, 1, orientation=BWD))
    assert find_crossing_orbits(ctx, 64) == []


def test_scan_isolated_zero_confirmed_by_flow():
    ctx = ctx_of(ISO_LEFT, ISO_RIGHT)
    orbits = find_crossing_orbits(ctx, 64)
    assert len(orbits) == 1
    orbit = orbits[0]
    assert orbit.kind is OrbitKind.ISOLATED
    assert orbit.y0 == pytest.approx(ISO_ZERO, abs=1e-7)
    canon = CanonicalSystem(left=ISO_LEFT, right=ISO_RIGHT, b=0.0)
    closed, gap = verify_periodic(canon, orbit.y0)
    assert closed
    assert evaluate(ISO_LEFT, orbit.y0) == pytest.approx(ISO_BOTTOM, rel=1e-9)


def test_scan_solves_each_lambda_once(monkeypatch):
    # both sides of this pair have lam > 0
    calls = []
    solve = halfmap._solve_lambda

    def counted(a, T, D, *rest):
        calls.append((a, T, D))
        return solve(a, T, D, *rest)

    monkeypatch.setattr(halfmap, "_solve_lambda", counted)
    ctx = ctx_of(HalfSystem(-2, -2, 4), HalfSystem(1, 1, 1, orientation=BWD))
    find_crossing_orbits(ctx, 64)
    assert sorted(calls) == [(-2, -2, 4), (-1, -1, 1)]


def test_scan_rejects_tiny_grid():
    ctx = ctx_of(ISO_LEFT, ISO_RIGHT)
    with pytest.raises(PreconditionError):
        find_crossing_orbits(ctx, 1)


# -- derivative signs ---------------------------------------------------------

def test_f_value_arithmetic():
    ctx = ctx_of(ISO_LEFT, ISO_RIGHT)
    assert f_value(ctx, 1.0, -1.0) == ctx.c0 - ctx.c1 + 0.0 * ctx.c2
    # with coefficients (2, 3, 5): F(1, -1) = 2 - 3 + 0 < 0
    assert 2.0 + 3.0 * (1.0 * -1.0) + 5.0 * (1.0 + -1.0) == -1.0


def test_sign_prime_at_isolated_zero_matches_finite_difference():
    ctx = ctx_of(ISO_LEFT, ISO_RIGHT)
    y1 = evaluate(ISO_LEFT, ISO_ZERO)
    got = sign_delta_prime_at_zero(ctx, ISO_ZERO, y1)
    step = 1e-4
    fd = (delta(ctx, ISO_ZERO + step) - delta(ctx, ISO_ZERO - step)) / (2 * step)
    assert got == (1 if fd > 0 else -1)
    assert got == 1
    # consistency with the exact slope difference
    assert delta_prime(ctx, ISO_ZERO) == pytest.approx(fd, rel=1e-5)


def test_sign_prime_degenerate_family_is_zero():
    # proportional W's make every coefficient vanish, so F == 0
    ctx = ctx_of(HalfSystem(-1, -1, 1), HalfSystem(1, 1, 1, orientation=BWD))
    y0 = ctx.lam + 1.0
    y1 = evaluate(ctx.left, y0)
    assert sign_delta_prime_at_zero(ctx, y0, y1) == 0


def test_sign_prime_requires_zero():
    ctx = ctx_of(HalfSystem(0, 1, 1), HalfSystem(0, 1, 1, orientation=BWD))
    with pytest.raises(ContractError):
        sign_delta_prime_at_zero(ctx, 1.0, evaluate(ctx.left, 1.0))


def test_sign_prime_requires_unshifted_context():
    ctx = ctx_of(HalfSystem(-1, 0, 1), HalfSystem(1, 0, 1, orientation=BWD), b=0.5)
    with pytest.raises(PreconditionError):
        sign_delta_prime_at_zero(ctx, 1.0, -1.0)


def test_sign_second_zero_trace_component():
    # TL = 0 kills the first component; the family is the symmetric annulus
    ctx = ctx_of(HalfSystem(-1, 0, 1), HalfSystem(1, 0, 1, orientation=BWD))
    y0 = 2.0
    y1 = evaluate(ctx.left, y0)
    first, second = sign_delta_second_at_critical(ctx, y0, y1)
    assert first == 0
    assert second == 0


def test_sign_second_pair_equality_on_family_critical_points(rng):
    # every interior point of an annulus family is a critical zero
    for k in (0.5, 2.7):
        rk = math.sqrt(k)
        right = HalfSystem(1.2, 0.7, 1.1, orientation=BWD)
        left = HalfSystem(-rk * right.a, -rk * right.T, k * right.D)
        ctx = ctx_of(left, right)
        for _ in range(3):
            y0 = ctx.lam + rng.uniform(0.5, 5.0)
            y1 = evaluate(left, y0)
            first, second = sign_delta_second_at_critical(ctx, y0, y1)
            assert first == second


def test_sign_second_requires_critical_zero():
    ctx = ctx_of(ISO_LEFT, ISO_RIGHT)
    y1 = evaluate(ISO_LEFT, ISO_ZERO)
    with pytest.raises(ContractError):
        sign_delta_second_at_critical(ctx, ISO_ZERO, y1)  # delta' != 0 here


def test_delta_smooth_on_interior(rng):
    ctx = ctx_of(ISO_LEFT, ISO_RIGHT)
    step = 1e-3
    for _ in range(10):
        y0 = rng.uniform(0.5, 6.0)
        second = (delta(ctx, y0 - step) - 2.0 * delta(ctx, y0)
                  + delta(ctx, y0 + step)) / (step * step)
        assert math.isfinite(second)


def test_annulus_candidate_confirmed_by_flow(rng):
    left = HalfSystem(-2.0, -2.0, 4.0)
    right = HalfSystem(1.0, 1.0, 1.0, orientation=BWD)
    ctx = ctx_of(left, right)
    assert find_crossing_orbits(ctx, 64)[0].kind is OrbitKind.ANNULUS_CANDIDATE
    canon = CanonicalSystem(left=left, right=right, b=0.0)
    for _ in range(20):
        y0 = ctx.lam + rng.uniform(0.01, 10.0)
        closed, gap = verify_periodic(canon, y0)
        assert closed and abs(gap) < 1e-6


def test_sign_prime_matches_finite_difference_on_random_zeros(rng):
    """Every numerically found simple zero agrees with the derivative sign."""
    found = 0
    for _ in range(100):
        aR = rng.uniform(0.5, 2.5)
        DR = rng.uniform(0.8, 1.8)
        left = HalfSystem(-rng.uniform(0.5, 2.5), rng.uniform(0.2, 1.0), 1.0)
        right = HalfSystem(aR, -rng.uniform(0.2, 1.0), DR, orientation=BWD)
        ctx = ctx_of(left, right)
        orbits = [o for o in find_crossing_orbits(ctx, 48, span=12.0)
                  if o.kind is OrbitKind.ISOLATED]
        for orbit in orbits:
            y1 = evaluate(left, orbit.y0)
            if y1 >= 0.0:
                continue
            got = sign_delta_prime_at_zero(ctx, orbit.y0, y1)
            step = 1e-5 * max(1.0, orbit.y0)
            fd = (delta(ctx, orbit.y0 + step) - delta(ctx, orbit.y0 - step)) / (2 * step)
            if abs(fd) < 1e-7:
                continue  # too flat for a trustworthy reference sign
            assert got == (1 if fd > 0 else -1), (left, right, orbit)
            found += 1
    assert found >= 10
