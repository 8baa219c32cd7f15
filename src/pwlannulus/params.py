"""Raw system parameters, derived scalar invariants, and the canonical reduction.

The system under study is planar and piecewise linear with two zones separated
by the switching line x = 0:

    (x, y)' = A_L (x, y) + b_L   for x <= 0,
    (x, y)' = A_R (x, y) + b_R   for x >= 0.

Only the parameter map of the Liénard reduction is implemented: each zone is
summarized by its trace T, determinant D and the value a = a12*b2 - a22*b1,
plus one shared offset b = beta / aR12.  Everything downstream (half-maps,
displacement, the annulus decision) depends on these scalars alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CanonicalizationError, PreconditionError
from .halfmap import HalfSystem, Orientation

_FIELDS = ("aL11", "aL12", "aL21", "aL22", "aR11", "aR12", "aR21", "aR22",
           "bL1", "bL2", "bR1", "bR2")


@dataclass(frozen=True)
class SystemParams:
    """The twelve raw reals: two zone matrices (row-major) and two offsets."""

    aL11: float
    aL12: float
    aL21: float
    aL22: float
    aR11: float
    aR12: float
    aR21: float
    aR22: float
    bL1: float
    bL2: float
    bR1: float
    bR2: float

    def __post_init__(self):
        for name in _FIELDS:
            if not math.isfinite(getattr(self, name)):
                raise PreconditionError(f"{name} must be a finite real")

    @classmethod
    def from_matrices(cls, AL, bL, AR, bR) -> "SystemParams":
        """Build from row-major 4-tuples AL, AR and 2-tuples bL, bR."""
        return cls(*AL, *AR, *bL, *bR)


@dataclass(frozen=True)
class DerivedQuantities:
    """Traces, determinants and the scalar invariants of the decision logic.

    b is the canonical offset beta / aR12; it is None when aR12 == 0 rather
    than a fabricated number.  a12_product = aL12 * aR12 feeds the crossing
    clause of the half-map existence conditions.
    """

    TL: float
    TR: float
    DL: float
    DR: float
    aL: float
    aR: float
    xi0: float
    xi_inf: float
    beta: float
    b: float | None
    a12_product: float


@dataclass(frozen=True)
class CanonicalSystem:
    """Both zones' reduced triples; left travels forward, right backward."""

    left: HalfSystem
    right: HalfSystem
    b: float


def derive_invariants(p: SystemParams) -> DerivedQuantities:
    """All derived scalars, computed exactly as displayed from the raw data."""
    TL = p.aL11 + p.aL22
    TR = p.aR11 + p.aR22
    DL = p.aL11 * p.aL22 - p.aL12 * p.aL21
    DR = p.aR11 * p.aR22 - p.aR12 * p.aR21
    aL = p.aL12 * p.bL2 - p.aL22 * p.bL1
    aR = p.aR12 * p.bR2 - p.aR22 * p.bR1
    beta = p.aL12 * p.bR1 - p.bL1 * p.aR12
    return DerivedQuantities(
        TL=TL, TR=TR, DL=DL, DR=DR, aL=aL, aR=aR,
        xi0=aR * TL - aL * TR,
        xi_inf=TL * TL * DR - TR * TR * DL,
        beta=beta,
        b=beta / p.aR12 if p.aR12 != 0.0 else None,
        a12_product=p.aL12 * p.aR12,
    )


def to_canonical(p: SystemParams) -> CanonicalSystem:
    """Parameter map of the Liénard reduction.

    Requires aL12 * aR12 > 0; otherwise no orbit can cross the switching line
    and the reduction is meaningless.  A reduced parameter that overflows is
    refused as well.
    """
    if p.aL12 * p.aR12 <= 0.0:
        raise CanonicalizationError(
            "aL12 * aR12 <= 0: crossing dynamics impossible")
    d = derive_invariants(p)
    for name in ("TL", "DL", "aL", "TR", "DR", "aR", "b"):
        if not math.isfinite(getattr(d, name)):
            raise CanonicalizationError(f"{name} exceeds the double range")
    return CanonicalSystem(
        left=HalfSystem(a=d.aL, T=d.TL, D=d.DL, orientation=Orientation.FORWARD),
        right=HalfSystem(a=d.aR, T=d.TR, D=d.DR, orientation=Orientation.BACKWARD),
        b=d.b,
    )


def from_canonical(a_left: float, trace_left: float, det_left: float,
                   a_right: float, trace_right: float, det_right: float,
                   offset: float = 0.0) -> SystemParams:
    """Lift reduced parameters back to raw form via the Liénard matrices.

    The lift uses A = [[T, -1], [D, 0]] with b_L = (0, -aL) and
    b_R = (offset, -aR); to_canonical returns the same scalars on the result.
    """
    return SystemParams(
        aL11=trace_left, aL12=-1.0, aL21=det_left, aL22=0.0,
        aR11=trace_right, aR12=-1.0, aR21=det_right, aR22=0.0,
        bL1=0.0, bL2=-a_left, bR1=offset, bR2=-a_right,
    )
