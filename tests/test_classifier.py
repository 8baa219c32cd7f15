"""Verdict logic: existence clauses, trivial centers, sliding set, full decision."""


import math

import pytest

from pwlannulus import (CanonicalizationError, HalfSystem, Orientation, PreconditionError,
                        SystemParams, Verdict, annulus_family, check_H, classify,
                        derive_invariants, from_canonical,
                        make_context, sliding_set, to_canonical, verify_periodic)
from pwlannulus import displacement, exists
from conftest import (SCALINGS, VIOLATIONS, draw_annulus_params, draw_violating_params,
                      scale_params)

ANNULUS_CLAUSES = {"H-crossing", "H-left", "H-right", "trace-balance",
                   "xi0", "xi-inf", "beta"}


def rotation_pair():
    return SystemParams.from_matrices([0, 1, -1, 0], [0, 0], [0, 1, -1, 0], [0, 0])


# -- condition (H) -------------------------------------------------------------

def test_check_H_rotation_matrices():
    ok, records = check_H(derive_invariants(rotation_pair()))
    assert ok
    assert all(r.passed for r in records)


def test_check_H_crossing_clause_fails():
    p = SystemParams.from_matrices([0, 1, -1, 0], [0, 0], [0, -1, 1, 0], [0, 0])
    ok, records = check_H(derive_invariants(p))
    assert not ok
    assert [r.name for r in records if not r.passed] == ["H-crossing"]


def test_check_H_left_existence_fails():
    # aL = -1, TL = 3, DL = 2: discriminant 8 - 9 < 0
    p = from_canonical(-1.0, 3.0, 2.0, 1.0, -1.0, 1.0)
    ok, records = check_H(derive_invariants(p))
    assert not ok
    assert [r.name for r in records if not r.passed] == ["H-left"]


def test_check_H_zone_clauses_are_the_half_maps_existence(rng):
    # a, T, D with both zero signs, 4D = T^2 exactly, and draws around them
    picks = [0.0, -0.0, 1.0, -1.0, 2.0, -2.0]
    for _ in range(400):
        aL, TL, aR, TR = (rng.choice(picks + [rng.uniform(-2, 2)]) for _ in range(4))
        DL, DR = (rng.choice([0.25 * T * T, 0.0, rng.uniform(-1, 2)]) for T in (TL, TR))
        d = derive_invariants(from_canonical(aL, TL, DL, aR, TR, DR))
        _, records = check_H(d)
        left, right = records[1], records[2]
        assert left.passed == exists(HalfSystem(d.aL, d.TL, d.DL))
        assert right.passed == exists(HalfSystem(d.aR, d.TR, d.DR, Orientation.BACKWARD))
        assert left.value == (d.aL if d.aL > 0.0 else 4.0 * d.DL - d.TL * d.TL)
        assert right.value == (d.aR if d.aR < 0.0 else 4.0 * d.DR - d.TR * d.TR)


def test_check_H_fails_a_zone_whose_a_is_not_a_number():
    # aL = 10*1e308 - 10*1e308 = inf - inf, with TL = 0 and DL = 10
    p = SystemParams.from_matrices([-10.0, 10.0, -11.0, 10.0], [1e308, 1e308],
                                   [0.0, 1.0, -1.0, 0.0], [0.0, 0.0])
    d = derive_invariants(p)
    assert math.isnan(d.aL) and 4.0 * d.DL - d.TL * d.TL > 0.0
    _, records = check_H(d)
    assert [r.name for r in records if not r.passed] == ["H-left"]


# -- trivial centers ------------------------------------------------------------

def test_center_left():
    p = from_canonical(-1.0, 0.0, 1.0, 1.0, 2.0, 1.0)
    assert classify(p).verdict is Verdict.LINEAR_CENTER_LEFT


def test_center_right():
    p = from_canonical(1.0, 2.0, 1.0, 3.0, 0.0, 2.0)
    assert classify(p).verdict is Verdict.LINEAR_CENTER_RIGHT


def test_center_absent_for_nonzero_trace():
    p = from_canonical(-1.0, 1.0, 1.0, 3.0, 1.0, 2.0)
    assert classify(p).verdict not in (Verdict.LINEAR_CENTER_LEFT, Verdict.LINEAR_CENTER_RIGHT)


# -- sliding set -----------------------------------------------------------------

def test_sliding_interval_ordered():
    p = SystemParams.from_matrices([0, 1, -1, 0], [0, 0], [0, 2, -1, 0], [1, 0])
    assert sliding_set(p) == (-0.5, 0.0)


def test_sliding_absent_when_beta_zero():
    assert sliding_set(rotation_pair()) is None


def test_sliding_absent_on_proportional_offsets():
    p = SystemParams.from_matrices([0, 1, -1, 0], [-2, 0], [0, 2, -1, 0], [-4, 0])
    assert sliding_set(p) is None


def test_sliding_requires_crossing():
    p = SystemParams.from_matrices([0, 1, -1, 0], [0, 0], [0, -1, 1, 0], [0, 0])
    with pytest.raises(PreconditionError):
        sliding_set(p)


# -- classify --------------------------------------------------------------------

def test_classify_proportional_family():
    p = from_canonical(-2.0, -2.0, 4.0, 1.0, 1.0, 1.0)
    cls = classify(p)
    assert cls.verdict is Verdict.CROSSING_PERIOD_ANNULUS
    assert cls.sliding is None
    assert all(cls.record(name).passed for name in ANNULUS_CLAUSES)
    # orbit closure confirmed by the flow oracle
    canon = to_canonical(p)
    ctx = make_context(canon.left, canon.right, canon.b)
    closed, gap = verify_periodic(canon, ctx.lam + 1.0)
    assert closed and abs(gap) < 1e-8


def test_classification_record_of_an_unknown_name_is_a_key_error():
    cls = classify(from_canonical(-2.0, -2.0, 4.0, 1.0, 1.0, 1.0))
    with pytest.raises(KeyError) as err:
        cls.record("xi1")
    assert err.value.args == ("xi1",)


def test_classify_symmetric_zero_trace_records():
    # both one-zone centers and the crossing-annulus clauses hold; the left
    # center takes verdict precedence while the records still show the rest
    p = from_canonical(-1.0, 0.0, 1.0, 1.0, 0.0, 1.0)
    cls = classify(p)
    assert cls.verdict is Verdict.LINEAR_CENTER_LEFT
    assert cls.record("center-left").passed
    assert cls.record("center-right").passed
    assert all(cls.record(name).passed for name in ANNULUS_CLAUSES)
    closed, gap = verify_periodic(to_canonical(p), 3.0)
    assert closed and gap == 0.0


def test_classify_same_sign_traces():
    p = from_canonical(-1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    cls = classify(p)
    assert cls.verdict is Verdict.NO_PERIOD_ANNULUS
    assert not cls.record("trace-balance").passed


def test_classify_never_annulus_with_sliding(rng):
    for _ in range(60):
        p = draw_violating_params(rng, rng.choice(list(VIOLATIONS)))
        cls = classify(p)
        if cls.sliding is not None:
            assert cls.verdict is not Verdict.CROSSING_PERIOD_ANNULUS


def test_classify_scale_invariance(rng):
    for _ in range(20):
        p = draw_annulus_params(rng)
        base = classify(p).verdict
        for s in (1e-3, 1e3):
            scaled = SystemParams(*[s * getattr(p, f) for f in (
                "aL11", "aL12", "aL21", "aL22", "aR11", "aR12", "aR21", "aR22",
                "bL1", "bL2", "bR1", "bR2")])
            assert classify(scaled).verdict is base


def test_classify_readme_pair_off_by_ten_percent_fails_xi0_at_every_scale():
    # aL 10% off the README pair, xi0 = 0.2: at time scale 2**-20 xi0 shrinks
    # by 2**-60, and a unit floor under the tolerance let it pass there
    p = from_canonical(-2.2, -2.0, 4.0, 1.0, 1.0, 1.0)
    for scaling in SCALINGS:
        for j in (-60, -20, 0, 20, 60):
            cls = classify(scale_params(p, scaling, j))
            assert cls.verdict is Verdict.NO_PERIOD_ANNULUS, (scaling, j)
            assert set(cls.failing()) & ANNULUS_CLAUSES == {"xi0"}, (scaling, j)
    assert (classify(scale_params(p, "time", -20)).record("xi0").value
            == classify(p).record("xi0").value * 2.0 ** -60)


def test_classify_fails_a_clause_whose_quantity_overflows():
    # xi0 = 1e300*(-1e10) - 1*1 overflows to -inf, which a test relative to
    # its own inf term, aR*TL, passed; every other annulus clause holds
    cls = classify(from_canonical(1.0, -1e10, 1e20, 1e300, 1.0, 1.0))
    assert cls.verdict is Verdict.NO_PERIOD_ANNULUS
    assert set(cls.failing()) & ANNULUS_CLAUSES == {"xi0"}
    assert cls.record("xi0").value == -math.inf


def test_classify_positive_family_with_flow_check(rng):
    for _ in range(25):
        p = draw_annulus_params(rng)
        cls = classify(p)
        assert cls.verdict is Verdict.CROSSING_PERIOD_ANNULUS, cls.failing()
        canon = to_canonical(p)
        ctx = make_context(canon.left, canon.right, canon.b)
        hi = min(ctx.mu, ctx.lam + 10.0 * max(1.0, ctx.lam))
        y0 = ctx.lam + rng.uniform(0.2, 0.8) * (hi - ctx.lam)
        closed, gap = verify_periodic(canon, y0)
        assert closed, (p, y0, gap)


def test_classify_negative_families_name_failing_clause(rng):
    for violation in VIOLATIONS:
        expected = "trace-balance" if violation == "trace" else violation
        for _ in range(12):
            p = draw_violating_params(rng, violation)
            cls = classify(p)
            assert cls.verdict is Verdict.NO_PERIOD_ANNULUS
            failing = set(cls.failing()) & ANNULUS_CLAUSES
            assert failing == {expected}, (violation, cls.records)
            if violation == "beta":
                assert cls.sliding is not None


def test_classify_negative_families_refuted_independently(rng):
    """Each rejected instance shows a concrete obstruction."""
    for violation in ("trace", "xi0", "xi-inf", "beta", "H-crossing"):
        for _ in range(4):
            p = draw_violating_params(rng, violation)
            if violation == "H-crossing":
                with pytest.raises(CanonicalizationError):
                    to_canonical(p)
                continue
            if violation == "beta":
                assert sliding_set(p) is not None
                continue
            canon = to_canonical(p)
            ctx = make_context(canon.left, canon.right, canon.b)
            if ctx.is_empty:
                continue
            scale = max(1.0, *(abs(getattr(p, f)) for f in (
                "aL11", "aL12", "aL21", "aL22", "aR11", "aR12", "aR21", "aR22",
                "bL1", "bL2", "bR1", "bR2")))
            lo, hi = displacement.scan_window(ctx)
            worst = max(abs(displacement.delta(ctx, lo + (hi - lo) * i / 32.0))
                        for i in range(32))
            assert worst > 1e-6 * scale, (violation, worst)


def test_classify_rejects_nonpositive_tolerance():
    with pytest.raises(PreconditionError):
        classify(rotation_pair(), tol=0.0)


@pytest.mark.parametrize("tol", [-1e-12, math.nan, math.inf])
def test_tolerances_must_be_finite_and_positive(tol):
    # NaN answered no-period-annulus, and inf linear-center-left for any system
    with pytest.raises(PreconditionError, match="finite and positive"):
        classify(annulus_family(1.0, 1.0, 1.0, 2.0), tol)


def test_annulus_family_requires_positive_k():
    # nan and inf passed a k <= 0 test, and SystemParams raised a raw ValueError
    for k in (-2.0, 0.0, math.nan, math.inf):
        with pytest.raises(PreconditionError, match="^k must be a positive finite real$"):
            annulus_family(1.0, 1.0, 1.0, k=k)
