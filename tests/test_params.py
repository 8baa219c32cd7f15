"""Derived invariants and the canonical parameter reduction."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwlannulus import (CanonicalizationError, Orientation, PreconditionError, SystemParams,
                        derive_invariants, from_canonical, to_canonical)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                   allow_infinity=False)
params_strategy = st.builds(SystemParams, *([finite] * 12))


def test_worked_example_rotation_vs_mixed():
    p = SystemParams.from_matrices([0, 1, -1, 0], [0, 0], [1, 2, -1, -1], [1, 0])
    d = derive_invariants(p)
    assert (d.TL, d.DL, d.aL) == (0, 1, 0)
    assert (d.TR, d.DR, d.aR) == (0, 1, 1)
    assert d.beta == 1
    assert d.xi0 == 0 and d.xi_inf == 0
    assert d.b == 0.5


def test_identical_zones_have_zero_invariants():
    p = SystemParams.from_matrices([1, 2, 3, 4], [5, 6], [1, 2, 3, 4], [5, 6])
    d = derive_invariants(p)
    assert d.xi0 == 0.0 and d.xi_inf == 0.0 and d.beta == 0.0


def test_upper_triangular_example():
    p = SystemParams.from_matrices([1, 1, 0, 1], [0, 2], [-1, 3, 0, 1], [0, 1])
    d = derive_invariants(p)
    assert d.aL == 2
    assert d.aR == 3
    assert d.xi0 == 6


def test_overflowing_invariants_are_refused():
    # DL = 1e400 + 1e400 overflows although every raw entry is finite
    p = SystemParams.from_matrices([1e200, -1e200, 1e200, 1e200], [0, 1],
                                   [1, -1, 1, 0], [0, 1])
    with pytest.raises(CanonicalizationError, match="DL exceeds the double range"):
        to_canonical(p)
    # a tiny aR12 sends b = beta / aR12 past the double range
    p = SystemParams.from_matrices([0, -1, 1, 0], [0, 1], [0, -1e-300, 1, 0], [1e10, 1])
    with pytest.raises(CanonicalizationError, match="b exceeds the double range"):
        to_canonical(p)


def test_nonfinite_fields_rejected():
    with pytest.raises(PreconditionError, match="^aL22 must be a finite real$"):
        SystemParams.from_matrices([0, 1, -1, math.nan], [0, 0],
                                   [1, 2, -1, -1], [1, 0])
    with pytest.raises(PreconditionError, match="^bR1 must be a finite real$"):
        SystemParams.from_matrices([0, 1, -1, 0], [0, 0],
                                   [1, 2, -1, -1], [math.inf, 0])


def test_to_canonical_examples():
    p = SystemParams.from_matrices([0, 1, -1, 0], [0, 0], [1, 2, -1, -1], [1, 0])
    c = to_canonical(p)
    assert (c.left.a, c.left.T, c.left.D) == (0, 0, 1)
    assert (c.right.a, c.right.T, c.right.D) == (1, 0, 1)
    assert c.b == 0.5
    assert c.left.orientation is Orientation.FORWARD
    assert c.right.orientation is Orientation.BACKWARD


def test_to_canonical_requires_crossing():
    p = SystemParams.from_matrices([0, 1, -1, 0], [0, 0], [0, -1, 1, 0], [0, 0])
    with pytest.raises(CanonicalizationError):
        to_canonical(p)


def test_canonical_lift_round_trips():
    p = from_canonical(a_left=-2.0, trace_left=-2.0, det_left=4.0,
                       a_right=1.0, trace_right=1.0, det_right=1.0, offset=0.25)
    c = to_canonical(p)
    assert (c.left.a, c.left.T, c.left.D) == (-2.0, -2.0, 4.0)
    assert (c.right.a, c.right.T, c.right.D) == (1.0, 1.0, 1.0)
    assert c.b == 0.25
    d = derive_invariants(p)
    assert d.a12_product == 1.0


def test_b_absent_when_aR12_zero():
    p = SystemParams.from_matrices([0, 1, -1, 0], [0, 0], [1, 0, -1, -1], [1, 0])
    assert derive_invariants(p).b is None


@given(params_strategy)
@settings(max_examples=200)
def test_recomputation_is_pure(p):
    d1 = derive_invariants(p)
    d2 = derive_invariants(p)
    assert d1 == d2


@given(params_strategy)
@settings(max_examples=200)
def test_swap_antisymmetry(p):
    d = derive_invariants(p)
    swapped = SystemParams(
        aL11=p.aR11, aL12=p.aR12, aL21=p.aR21, aL22=p.aR22,
        aR11=p.aL11, aR12=p.aL12, aR21=p.aL21, aR22=p.aL22,
        bL1=p.bR1, bL2=p.bR2, bR1=p.bL1, bR2=p.bL2)
    ds = derive_invariants(swapped)
    assert ds.beta == -d.beta
    assert ds.xi0 == -d.xi0


@given(params_strategy)
@settings(max_examples=200)
def test_derived_matches_recomputed_traces_dets(p):
    d = derive_invariants(p)
    assert d.TL == p.aL11 + p.aL22
    assert d.DL == p.aL11 * p.aL22 - p.aL12 * p.aL21
    assert d.xi0 == d.aR * d.TL - d.aL * d.TR
    assert d.xi_inf == d.TL * d.TL * d.DR - d.TR * d.TR * d.DL
    assert d.beta == p.aL12 * p.bR1 - p.bL1 * p.aR12


@given(st.tuples(*([st.floats(min_value=-50, max_value=50, allow_nan=False)] * 7)))
@settings(max_examples=200)
def test_lift_preserves_reduced_scalars(vals):
    aL, TL, DL, aR, TR, DR, b = vals
    p = from_canonical(aL, TL, DL, aR, TR, DR, b)
    d = derive_invariants(p)
    assert (d.aL, d.TL, d.DL) == (aL, TL, DL)
    assert (d.aR, d.TR, d.DR) == (aR, TR, DR)
    assert d.b == b
