"""Displacement function, its coefficients, zero scan and derivative signs."""

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwlannulus import (CanonicalSystem, DomainError, EmptyDomainError, HalfSystem,
                        Orientation, OrbitKind, PreconditionError, PwlError, SystemParams,
                        annulus_family, delta, derivative, domain, evaluate,
                        find_crossing_orbits, from_canonical, halfmap, make_context,
                        sign_delta_prime_at_zero, to_canonical, verify_periodic)
from pwlannulus import displacement
from pwlannulus.displacement import (REFINE_WIDTH, CrossingOrbit, ScanRecord, ScanRow,
                                      orbits_from_scan, scan, scan_window)
from conftest import (CATEGORIES, count_residual_calls, draw_annulus_params, draw_half_system,
                      mp_map_value, mp_residual, ulps)

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


@pytest.mark.parametrize("b", [math.nan, math.inf, -math.inf])
def test_context_refuses_a_non_finite_offset(b):
    # nan and -inf built a context with lam = 0 and mu = inf, +inf an empty one
    with pytest.raises(PreconditionError, match="^the offset b must be a finite real$"):
        ctx_of(HalfSystem(1, 3, 2), HalfSystem(1, 0, 1, orientation=BWD), b=b)


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


@pytest.mark.parametrize("annulus_tol", [0.0, -1e-6, math.nan, math.inf])
def test_scan_refuses_an_annulus_tolerance_not_finite_and_positive(annulus_tol):
    # NaN reported 3 ISOLATED zeros on an annulus, and inf an annulus
    # candidate on a system whose beta clause fails
    for offset in (0.0, 0.3):
        canon = to_canonical(annulus_family(1.0, 1.0, 1.0, 2.0, offset=offset))
        ctx = make_context(canon.left, canon.right, canon.b)
        with pytest.raises(PreconditionError, match="finite and positive"):
            orbits_from_scan(ctx, scan(ctx, 16), annulus_tol=annulus_tol)


@pytest.mark.parametrize("span", [0.0, -1.0, math.nan, math.inf])
def test_scan_refuses_a_span_not_finite_and_positive(span):
    # xi0 = 0.1: no annulus.  span = 0 reported an annulus candidate at
    # y0 = 0, -1 a y0 outside the domain, and NaN and inf a y0 not finite
    canon = to_canonical(from_canonical(0.5, -0.8, 1.0, -0.5, 0.6, 1.0))
    ctx = make_context(canon.left, canon.right, canon.b)
    for call in (lambda: scan_window(ctx, span=span), lambda: scan(ctx, 16, span=span)):
        with pytest.raises(PreconditionError, match="^span must be finite and positive$"):
            call()
    assert scan_window(ctx, span=None) == scan_window(ctx)


def test_scan_refuses_a_span_below_the_resolution_of_lam():
    # lam = 12.18...: lam + 1e-300 rounds to lam, so the window [lam, lam) is
    # empty; the scan printed grid_n copies of the row at lam
    ctx = ctx_of(HalfSystem(-2.0, -2.0, 4.0), HalfSystem(1.0, 1.0, 1.0, orientation=BWD))
    assert ctx.lam == 12.18574419033854
    for call in (lambda: scan_window(ctx, span=1e-300), lambda: scan(ctx, 16, span=1e-300)):
        with pytest.raises(PreconditionError, match="^span is below the resolution of lam: "
                                                    "the scan window is empty$"):
            call()
    lo, hi = scan_window(ctx, span=ctx.lam * 1e-15)   # a few ulp: the window holds doubles
    assert lo == ctx.lam < hi


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

    def counted(h):
        calls.append(h.forward_triple())
        return solve(h)

    monkeypatch.setattr(halfmap, "_solve_lambda", counted)
    ctx = ctx_of(HalfSystem(-2, -2, 4), HalfSystem(1, 1, 1, orientation=BWD))
    find_crossing_orbits(ctx, 64)
    assert sorted(calls) == [(-2, -2, 4), (-1, -1, 1)]


def test_scan_rows_are_the_map_values_and_delta():
    # rows after the first are warm-started from the row before, so they
    # match a cold evaluate to within the Newton stop, not bit for bit
    ctx = ctx_of(ISO_LEFT, ISO_RIGHT, b=0.3)
    record = scan(ctx, 16)
    lo, hi = scan_window(ctx)
    assert (record.lo, record.hi) == (lo, hi)
    assert [r.y0 for r in record.rows] == [lo + i * ((hi - lo) / 16) for i in range(16)]
    for y0, yl, yr, d in record.rows:
        for h, y, got in ((ISO_LEFT, y0, yl), (ISO_RIGHT, y0 - 0.3, yr)):  # yR not shifted by b
            cold = evaluate(h, y)
            assert abs(got - cold) <= 1e-13 * abs(cold), (h, y)
            assert ulps(got, float(mp_map_value(h, y))) <= 16, (h, y)
        assert repr(d) == repr(yr + 0.3 - yl)
    assert record.rows[0] == displacement._row(ctx, record.lo)


@pytest.mark.parametrize("left, right", [
    (ISO_LEFT, ISO_RIGHT),                                    # one isolated zero
    (HalfSystem(-2, -2, 4), HalfSystem(1, 1, 1, orientation=BWD)),  # annulus, lam > 0
    (HalfSystem(0, 1, 1), HalfSystem(0, 1, 1, orientation=BWD)),    # no zero
])
def test_find_crossing_orbits_reads_the_scan(left, right):
    ctx = ctx_of(left, right)
    assert find_crossing_orbits(ctx, 40) == orbits_from_scan(ctx, scan(ctx, 40))


def test_orbits_take_a_row_whose_delta_is_exactly_zero_as_the_zero(monkeypatch):
    # no bracket is refined, so delta is never called; y0 = 0 is the common
    # fixed point, not an orbit, and the last row counts like the others
    ctx = ctx_of(HalfSystem(-1, 0, 1), HalfSystem(1, 0, 1, orientation=BWD))
    monkeypatch.setattr(displacement, "delta", None)
    rows = tuple(ScanRow(y0, -y0, -y0 + d, d)
                 for y0, d in ((0.0, 0.0), (0.5, 1.0), (1.0, 0.0), (1.5, -1.0), (2.0, 0.0)))
    assert orbits_from_scan(ctx, ScanRecord(0.0, 2.5, rows)) == [
        CrossingOrbit(y0=1.0, kind=OrbitKind.ISOLATED),
        CrossingOrbit(y0=2.0, kind=OrbitKind.ISOLATED)]


def _bisect_reference(ctx, record, annulus_tol=displacement.ANNULUS_TOL):
    """orbits_from_scan as it was with bisection refining each bracketed zero."""
    rows = record.rows[1:] if ctx.lam > 0.0 else record.rows
    if all(abs(r.delta) < annulus_tol * max(1.0, abs(r.y0), abs(r.yL)) for r in rows):
        lo, hi = record.lo, record.hi
        return [CrossingOrbit(y0=lo + 0.5 * (hi - lo), kind=OrbitKind.ANNULUS_CANDIDATE)]
    orbits = []
    for (ya, _, _, da), (yb, _, _, db) in zip(rows, rows[1:]):
        if da == 0.0:
            if ya != 0.0:
                orbits.append(CrossingOrbit(y0=ya, kind=OrbitKind.ISOLATED))
            continue
        if da * db < 0.0:
            a, b = ya, yb
            while b - a > REFINE_WIDTH * max(1.0, abs(a)):
                m = 0.5 * (a + b)
                dm = delta(ctx, m)
                if dm == 0.0:
                    a = b = m
                    break
                if (dm > 0.0) == (da > 0.0):
                    a = m
                else:
                    b = m
            orbits.append(CrossingOrbit(y0=0.5 * (a + b), kind=OrbitKind.ISOLATED))
    if rows and rows[-1].delta == 0.0:
        orbits.append(CrossingOrbit(y0=rows[-1].y0, kind=OrbitKind.ISOLATED))
    return orbits


def _isolated_contexts(n):
    """ISO_LEFT/ISO_RIGHT and n seeded systems with at least one isolated zero."""
    contexts = [ctx_of(ISO_LEFT, ISO_RIGHT)]
    rng = random.Random(11)
    while len(contexts) <= n:
        aL, aR = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
        TL, TR = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
        DL = TL * TL / 4.0 + rng.uniform(-0.5, 2.0)
        DR = TR * TR / 4.0 + rng.uniform(-0.5, 2.0)
        b = rng.choice([0.0, rng.uniform(-0.5, 0.5)])
        try:
            ctx = ctx_of(HalfSystem(aL, TL, DL), HalfSystem(aR, TR, DR, orientation=BWD), b)
            record = scan(ctx, 64)
        except PwlError:  # no common domain, or a half-map refused
            continue
        if any(o.kind is OrbitKind.ISOLATED for o in _bisect_reference(ctx, record)):
            contexts.append(ctx)
    return contexts


def test_illinois_finds_the_zeros_bisection_finds_in_few_delta_calls(monkeypatch):
    calls = []
    counted = displacement.delta

    def spy(ctx, y0):
        calls.append(y0)
        return counted(ctx, y0)

    monkeypatch.setattr(displacement, "delta", spy)
    zeros = 0
    for ctx in _isolated_contexts(30):
        record = scan(ctx, 64)
        want = _bisect_reference(ctx, record)
        calls.clear()
        got = orbits_from_scan(ctx, record)
        assert [o.kind for o in got] == [o.kind for o in want]
        for g, w in zip(got, want):
            assert abs(g.y0 - w.y0) <= REFINE_WIDTH * max(1.0, abs(w.y0))
        # every call falls in one bracketing pair of rows; at most 8 per zero
        rows = record.rows[1:] if ctx.lam > 0.0 else record.rows
        for ra, rb in zip(rows, rows[1:]):
            if ra.delta * rb.delta < 0.0:
                zeros += 1
                assert sum(ra.y0 < y < rb.y0 for y in calls) <= 8
    assert zeros >= 31


@pytest.mark.parametrize("family", [
    (1, 1, 1, 2),        # lam > 0: delta(lam) is about -2.4e-8 of solver noise
    (2, 0.5, 1, 5),      # lam > 0: about 5.3e-8
    (-2.2635, -1.5153, 0.6038, 1.1222),  # 4D/T^2 = 1.05, |y_L| up to about 4e6
])
def test_scan_finds_one_annulus_on_family_members(family):
    canon = to_canonical(annulus_family(*family))
    ctx = make_context(canon.left, canon.right, canon.b)
    orbits = find_crossing_orbits(ctx, 64)
    assert [o.kind for o in orbits] == [OrbitKind.ANNULUS_CANDIDATE]


def test_scan_rejects_tiny_grid():
    ctx = ctx_of(ISO_LEFT, ISO_RIGHT)
    with pytest.raises(PreconditionError, match="^grid_n must be an int of at least 2$"):
        find_crossing_orbits(ctx, 1)


@pytest.mark.parametrize("grid_n", [64.0, math.nan, "64", None])
def test_scan_refuses_a_count_that_is_not_an_int(grid_n):
    ctx = ctx_of(ISO_LEFT, ISO_RIGHT)
    for call in (find_crossing_orbits, scan):
        with pytest.raises(PreconditionError, match="^grid_n must be an int of at least 2$"):
            call(ctx, grid_n)


def test_scan_solves_row_0_where_lam_minus_b_rounds_below_the_right_lam():
    # near-annulus draw 213 (seed 7) with every raw entry negated (time
    # reversal): lam = lam_R + b rounds, and lam - b rounds back below lam_R,
    # so the right map is solved at lam_R itself
    p = SystemParams(-8.821978765102038, 1.0, -52.05868999158109, -0.0,
                     1.4733676407044458, 1.0, -1.4520563612338417, -0.0,
                     -0.0, -0.0, 2.0819505364597692e-07, 1.373262558342873e-10)
    canon = to_canonical(p)
    ctx = make_context(canon.left, canon.right, canon.b)
    lam_r = domain(ctx.right).lam
    assert ctx.lam - ctx.b < lam_r
    row = scan(ctx, 64).rows[0]
    assert row == displacement._row(ctx, ctx.lam)
    assert row.yR == evaluate(ctx.right, lam_r)
    assert find_crossing_orbits(ctx, 64) == []
    # the unreversed draw scans to no orbit as well
    canon = to_canonical(SystemParams(*(-x for x in dataclasses.astuple(p))))
    assert find_crossing_orbits(make_context(canon.left, canon.right, canon.b), 64) == []


# -- warm-started scan rows ---------------------------------------------------

def _rounding_band(h, y0, v):
    """Half-width in y1, around v, of the band in which rounding hides the
    residual's sign: the largest gap between the solver's residual and a
    60-digit one over 33 doubles spaced 1e-14*|v| around v, over |R'(v)|;
    None where those doubles reach W's largest negative root, below which
    the residual is not defined.

    A cold solve and a warm one both stop inside this band, so where it is
    wider than 1e-13*|v| they stop at different points of it.
    """
    xs = [v + k * 1e-14 * abs(v) for k in range(-16, 17)]
    if xs[0] <= h._barrier:
        return None
    fd, R = halfmap._residual(h, y0), mp_residual(h, y0)
    return max(abs(float(R(x) - fd(x)[0])) for x in xs) * h._w(v) / abs(v)


def _warm_contexts():
    """Seeded contexts, both zones in one of conftest's draw categories (a < 0,
    with lam > 0 where the forward T < 0; a = 0; complex; real with W's roots
    of one sign or of both; double; linear), T = 0 pairs and one pair whose
    values run into W's negative root; b = 0 or drawn, which also puts the
    right map's lam below the context's."""
    rng = random.Random(1212)
    draws = [(draw_half_system(rng, category, FWD), draw_half_system(rng, category, BWD))
             for category in CATEGORIES for _ in range(3)]
    draws += [(HalfSystem(rng.uniform(0.2, 3.0), 0.0, rng.uniform(-2.0, 2.0)),
               HalfSystem(-rng.uniform(0.2, 3.0), 0.0, rng.uniform(0.1, 2.0), BWD))
              for _ in range(2)]
    draws.append((HalfSystem(0.25, -2.5, 0.125), HalfSystem(-0.25, 2.5, 0.125, BWD)))
    # lam = 0.6 on the left and W's double root at mu ~ 0.606 on the right:
    # the right values leave the double range well below mu
    draws.append((HalfSystem(-0.1706130873922471, -0.5, 1.0),
                  HalfSystem(-0.6378042305833218, -2.105146793757328, 1.1079107558166894, BWD)))
    contexts = [ctx_of(left, right, 0.0 if i % 2 == 0 else rng.uniform(-0.5, 0.5))
                for i, (left, right) in enumerate(draws)]
    return [ctx for ctx in contexts if not ctx.is_empty]


def test_warm_rows_are_the_cold_solves_within_their_rounding(monkeypatch):
    # each map walks the grid as scan does; where cold evaluate raises the
    # warm start raises the same class, and the walk goes on from the last
    # value it has.  A warm solve's walk starts at the previous value (< 0),
    # a cold one at 0; a solve that makes no walk from below 0 fell back to a
    # cold one
    cold = halfmap.evaluate
    walks = _spy_walks(monkeypatch)
    warm, fallbacks, raised = [], set(), 0
    for ctx in _warm_contexts():
        walked = []
        for h, shift in ((ctx.right, ctx.b), (ctx.left, 0.0)):
            dom = domain(h)
            kind = ("a_zero" if h.a == 0.0 else "even" if h.T == 0.0 else h._kernel[0],
                    h._barrier > -math.inf,
                    dom.lam > 0.0, math.isfinite(dom.mu), shift != 0.0)
            prev, values = None, []
            lo, hi = scan_window(ctx)
            for y0 in (lo + i * ((hi - lo) / 64) for i in range(64)):
                y = y0 - shift
                try:
                    want = cold(h, y)
                except PwlError as exc:
                    if prev is not None:
                        raised += 1
                        with pytest.raises(type(exc)):
                            halfmap._evaluate_after(h, y, *prev)
                    values.append(type(exc))
                    continue
                got = want
                if prev is not None:
                    walks.clear()
                    got = halfmap._evaluate_after(h, y, *prev)
                    if any(start < 0.0 for start in walks):
                        warm.append(kind)
                    elif prev[0] > dom.lam:
                        fallbacks.add(kind[0])
                gap = abs(got - want)
                band = _rounding_band(h, y, want) if gap > 1e-13 * abs(want) else 0.0
                if band is None:   # both within 1e-10*|b| of the value
                    ref = float(mp_map_value(h, y))
                    assert max(abs(got - ref), abs(want - ref)) <= 1e-10 * -h._barrier, (h, y)
                else:   # within the residual's rounding
                    assert gap <= 1e-13 * abs(want) + 4.0 * band, (h, y)
                values.append(got)
                prev = (y, got)
            walked.append(values)
        try:
            rows = scan(ctx, 64).rows
        except PwlError as exc:
            assert type(exc) in walked[0] + walked[1]
            continue
        assert [r.yR for r in rows] == walked[0]
        assert [r.yL for r in rows] == walked[1]
    assert len(warm) > 2000 and raised > 0
    # the warm start ran on each solved branch, with and without a negative
    # W root, with lam > 0, finite mu and b != 0
    assert {k[:2] for k in warm} == {("complex", False), ("real", True), ("real", False),
                                      ("double", True), ("double", False),
                                      ("linear", True), ("linear", False)}
    assert all(any(k[i] for k in warm) for i in (2, 3, 4))
    # the closed forms only: the walk itself closes in on W's negative root
    assert fallbacks == {"a_zero", "even"}


def _spy_walks(monkeypatch):
    """The start hi of every halfmap._descend walk: 0.0 for a cold walk, the
    previous value (< 0) for a warm one."""
    descend, walks = halfmap._descend, []

    def spy(h, fd, hi, step):
        walks.append(hi)
        return descend(h, fd, hi, step)

    monkeypatch.setattr(halfmap, "_descend", spy)
    return walks


def test_warm_start_walks_near_mu_and_refuses_where_evaluate_raises(monkeypatch):
    h = HalfSystem(1.0, 1.0, -1.0)   # mu = (sqrt(5) - 1)/2
    mu = domain(h).mu
    # within 1e-9*mu of mu the warm start walks from the previous value, as
    # anywhere else, and stops within the residual's rounding of a cold solve
    y0, y1p = mu * (1.0 - 1e-10), evaluate(h, 0.5)
    want = evaluate(h, y0)
    walks = _spy_walks(monkeypatch)
    got = halfmap._evaluate_after(h, y0, 0.5, y1p)
    assert walks == [y1p]
    assert abs(got - want) <= 1e-13 * abs(want) + 4.0 * _rounding_band(h, y0, want)
    for y0 in (mu, math.nan, math.inf):
        with pytest.raises(DomainError):
            halfmap._evaluate_after(h, y0, 0.5, y1p)
    # a = 0 whose value leaves the double range
    overflow = HalfSystem(0.0, 1.0, 0.25000000000025)
    with pytest.raises(DomainError, match="exceeds the double range"):
        halfmap._evaluate_after(overflow, 2.0, 1.0, -1.0)


def test_warm_start_falls_back_where_its_step_rounds_back_onto_the_last_value():
    # the tangent step, about -2.4e-16, rounds back onto y1p = -4.64005757481568,
    # one ulp above the value and two above W's root -4.640057574815682
    h = HalfSystem(-2.9321567698738864, 0.7125479165243531, 0.05094901631194507, BWD)
    y0p, y0 = 911257954.5501376, 940732114.0156568
    y1p = evaluate(h, y0p)
    assert y1p == -4.64005757481568
    assert ulps(y1p, float(mp_map_value(h, y0p))) <= 1
    w = h._w
    assert y1p + y0p * w(y1p) / (y1p * w(y0p)) * (y0 - y0p) == y1p
    assert repr(halfmap._evaluate_after(h, y0, y0p, y1p)) == repr(evaluate(h, y0))


def test_scan_makes_the_pinned_number_of_residual_evaluations(monkeypatch):
    # 64 rows of two maps, rows 0 and 1 cold (y0p = lam = 0 on row 1) and
    # the rest warm-started; cold solves of every row make 1225
    ctx = ctx_of(ISO_LEFT, ISO_RIGHT)
    counted = count_residual_calls(monkeypatch)
    scan(ctx, 64)
    assert counted[0] == 551


# -- derivative signs ---------------------------------------------------------

def test_f_value_arithmetic():
    # F(y0, y1) = c0 + c1*y0*y1 + c2*(y0 + y1) with coefficients (2, 3, 5)
    ctx = dataclasses.replace(ctx_of(ISO_LEFT, ISO_RIGHT), c0=2.0, c1=3.0, c2=5.0)
    # F(1, -1) = -1, F(1, -0.5) = 3 and F(1, -0.875) = 0, each exact
    for y0, y1, want in ((1.0, -1.0, -1), (1.0, -0.5, 1), (1.0, -0.875, 0)):
        assert sign_delta_prime_at_zero(ctx, ScanRow(y0, y1, y1, 0.0)) == want


def test_sign_prime_at_isolated_zero_matches_finite_difference():
    ctx = ctx_of(ISO_LEFT, ISO_RIGHT)
    got = sign_delta_prime_at_zero(ctx, displacement._row(ctx, ISO_ZERO))
    step = 1e-4
    fd = (delta(ctx, ISO_ZERO + step) - delta(ctx, ISO_ZERO - step)) / (2 * step)
    assert got == (1 if fd > 0 else -1)
    assert got == 1
    # consistency with the exact slope difference
    exact = derivative(ISO_RIGHT, ISO_ZERO) - derivative(ISO_LEFT, ISO_ZERO)
    assert exact == pytest.approx(fd, rel=1e-5)


def test_sign_prime_degenerate_family_is_zero():
    # proportional W's make every coefficient vanish, so F == 0
    ctx = ctx_of(HalfSystem(-1, -1, 1), HalfSystem(1, 1, 1, orientation=BWD))
    assert sign_delta_prime_at_zero(ctx, displacement._row(ctx, ctx.lam + 1.0)) == 0


def test_f_sign_reads_zero_on_annulus_members():
    # on an annulus F vanishes identically, but its coefficients come out of
    # differences of products as rounding residues (c1 = -4.4e-16 and
    # c2 = 4.4e-16 on annulus_family(1, 1, 1, 2)); classify's zero test reads
    # each as 0, so no row of a member's scan prints a nonzero f_sign
    rng = random.Random(3)
    scanned = 0
    for _ in range(300):
        canon = to_canonical(draw_annulus_params(rng))
        ctx = make_context(canon.left, canon.right, canon.b)
        try:
            record = scan(ctx, 64)
        except PwlError:
            continue
        assert {sign_delta_prime_at_zero(ctx, r) for r in record.rows} <= {None, 0}, canon
        scanned += 1
    assert scanned >= 290
    canon = to_canonical(annulus_family(1.0, 1.0, 1.0, 2.0))
    ctx = make_context(canon.left, canon.right, canon.b)
    assert (ctx.c0, ctx.c1, ctx.c2) == (0.0, 0.0, 0.0)
    assert sign_delta_prime_at_zero(ctx, displacement._row(ctx, ctx.lam + 1.0)) == 0
    # an isolated orbit's coefficients are no residues and keep their sign
    ctx = ctx_of(ISO_LEFT, ISO_RIGHT)
    assert sign_delta_prime_at_zero(ctx, displacement._row(ctx, ISO_ZERO)) == 1


def test_sign_prime_requires_zero():
    # a row with delta != 0 reads None
    ctx = ctx_of(HalfSystem(0, 1, 1), HalfSystem(0, 1, 1, orientation=BWD))
    row = displacement._row(ctx, 1.0)
    assert abs(row.delta) > 0.1
    assert sign_delta_prime_at_zero(ctx, row) is None


@pytest.mark.parametrize("y0, y1, message", [
    (0.0, -1.0, "y0 must lie in the open domain interior"),     # y0 = lam
    (-1.0, -1.0, "y0 must lie in the open domain interior"),
    (2.0, 0.5, "the shared map value y1 must be negative"),
    (2.0, -2.5, "y1 does not match the half-map value at y0"),
])
def test_sign_helpers_refuse_a_point_that_is_not_a_zero_with_its_map_value(y0, y1, message):
    # every point of the k = 1 family is a zero of delta, with yL = -2 at y0 = 2;
    # the right map is y0 -> -y0 exactly, so the row with left value y1 breaks
    # the named hypothesis and reads None
    ctx = ctx_of(HalfSystem(-1, 0, 1), HalfSystem(1, 0, 1, orientation=BWD))
    assert sign_delta_prime_at_zero(ctx, ScanRow(y0, y1, -y0, -y0 - y1)) is None, message


def test_sign_prime_is_none_on_the_row_at_lam_and_on_a_nan_delta():
    # lam > 0: the row at lam is a fold orbit, whatever its delta reads
    ctx = ctx_of(HalfSystem(-1.0, -0.5, 1.0), HalfSystem(1.0, 0.5, 1.0, orientation=BWD))
    assert ctx.lam > 0.0
    rows = scan(ctx, 16).rows
    assert sign_delta_prime_at_zero(ctx, rows[0]) is None
    assert sign_delta_prime_at_zero(ctx, rows[0]._replace(yL=-1.0, delta=0.0)) is None
    assert sign_delta_prime_at_zero(ctx, rows[1]) == 0   # an annulus member: F == 0
    assert sign_delta_prime_at_zero(ctx, rows[1]._replace(delta=math.nan)) is None


def test_sign_prime_requires_unshifted_context():
    # a row of a context with b != 0 reads None, even one that reads as a zero
    ctx = ctx_of(HalfSystem(-1, 0, 1), HalfSystem(1, 0, 1, orientation=BWD), b=0.5)
    row = displacement._row(ctx, 1.0)._replace(delta=0.0)
    assert sign_delta_prime_at_zero(ctx, row) is None


@pytest.mark.parametrize("helper", [sign_delta_prime_at_zero])
def test_sign_helpers_solve_each_map_once(helper, monkeypatch):
    # the row holds both map values, solved once each; the helper solves none
    ctx = ctx_of(HalfSystem(-1, -1, 1), HalfSystem(1, 1, 1, orientation=BWD))
    row = displacement._row(ctx, ctx.lam + 1.0)
    calls = []
    evaluate_ = halfmap.evaluate

    def counted(h, y):
        calls.append(y)
        return evaluate_(h, y)

    monkeypatch.setattr(halfmap, "evaluate", counted)
    residuals = count_residual_calls(monkeypatch)
    assert helper(ctx, row) == 0
    assert calls == [] and residuals[0] == 0


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
    found = slopes = 0
    for _ in range(100):
        aR = rng.uniform(0.5, 2.5)
        DR = rng.uniform(0.8, 1.8)
        left = HalfSystem(-rng.uniform(0.5, 2.5), rng.uniform(0.2, 1.0), 1.0)
        right = HalfSystem(aR, -rng.uniform(0.2, 1.0), DR, orientation=BWD)
        ctx = ctx_of(left, right)
        orbits = [o for o in orbits_from_scan(ctx, scan(ctx, 48, span=12.0))
                  if o.kind is OrbitKind.ISOLATED]
        for orbit in orbits:
            row = displacement._row(ctx, orbit.y0)
            if row.yL >= 0.0:
                continue
            got = sign_delta_prime_at_zero(ctx, row)
            # sign(F) is the sign of the closed-form slope difference
            dp = (halfmap.slope(right, orbit.y0, row.yR)
                  - halfmap.slope(left, orbit.y0, row.yL))
            assert got == (dp > 0.0) - (dp < 0.0), (left, right, orbit)
            slopes += 1
            step = 1e-5 * max(1.0, orbit.y0)
            fd = (delta(ctx, orbit.y0 + step) - delta(ctx, orbit.y0 - step)) / (2 * step)
            if abs(fd) < 1e-7:
                continue  # too flat for a trustworthy reference sign
            assert got == (1 if fd > 0 else -1), (left, right, orbit)
            found += 1
    assert found >= 10 and slopes >= found
