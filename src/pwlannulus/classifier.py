"""Exact decision logic for crossing period annuli.

The decision needs only arithmetic on the twelve raw parameters.  Writing T,
D for traces/determinants, a = a12*b2 - a22*b1 per zone, and

    xi0  = aR*TL - aL*TR,
    xiInf = TL^2*DR - TR^2*DL,
    beta = aL12*bR1 - bL1*aR12,

a crossing period annulus exists exactly when the half-map existence
conditions (H) hold, sign(TR) = -sign(TL) (both zero allowed), and
xi0 = xiInf = beta = 0.  One-zone linear centers are reported first as their
own verdicts.  Floating inputs force a tolerance on the equalities; every
record carries its raw residual so callers can re-decide.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import PreconditionError
from .params import DerivedQuantities, SystemParams, derive_invariants, from_canonical

DEFAULT_TOL = 1e-12


class Verdict(enum.Enum):
    LINEAR_CENTER_LEFT = "linear-center-left"
    LINEAR_CENTER_RIGHT = "linear-center-right"
    CROSSING_PERIOD_ANNULUS = "crossing-period-annulus"
    NO_PERIOD_ANNULUS = "no-period-annulus"


@dataclass(frozen=True)
class ConditionRecord:
    """One named clause with its deciding value and outcome."""

    name: str
    value: float
    passed: bool


@dataclass(frozen=True)
class Classification:
    verdict: Verdict
    records: tuple[ConditionRecord, ...]
    sliding: tuple[float, float] | None

    def record(self, name: str) -> ConditionRecord:
        for r in self.records:
            if r.name == name:
                return r
        raise KeyError(name)

    def failing(self) -> list[str]:
        return [r.name for r in self.records if not r.passed]


def _sign_with_tol(x: float, tol: float) -> int:
    if abs(x) <= tol:
        return 0
    return 1 if x > 0.0 else -1


def _scale(*terms: float) -> float:
    return max(1.0, *(abs(t) for t in terms))


def check_H(d: DerivedQuantities) -> tuple[bool, list[ConditionRecord]]:
    """All three half-map existence clauses, with per-clause records.

    Record values hold the clause's deciding quantity: the a12 product for
    the crossing clause, and a (or the discriminant 4D - T^2 when a's sign
    sends the clause there) for the per-zone clauses.
    """
    crossing_ok = d.a12_product > 0.0
    left_disc = 4.0 * d.DL - d.TL * d.TL
    right_disc = 4.0 * d.DR - d.TR * d.TR
    left_ok = (d.aL <= 0.0 and left_disc > 0.0) or d.aL > 0.0
    right_ok = (d.aR >= 0.0 and right_disc > 0.0) or d.aR < 0.0
    records = [
        ConditionRecord("H-crossing", d.a12_product, crossing_ok),
        ConditionRecord("H-left", d.aL if d.aL > 0.0 else left_disc, left_ok),
        ConditionRecord("H-right", d.aR if d.aR < 0.0 else right_disc, right_ok),
    ]
    return crossing_ok and left_ok and right_ok, records


def _centers(d: DerivedQuantities, tol: float) -> tuple[bool, bool]:
    """(center_left, center_right): the one-zone linear-center clauses."""
    ts = tol * _scale(d.TL, d.TR)
    return (abs(d.TL) <= ts and d.DL > 0.0 and d.aL < 0.0,
            abs(d.TR) <= ts and d.DR > 0.0 and d.aR > 0.0)


def trivial_centers(d: DerivedQuantities, tol: float = DEFAULT_TOL) -> Verdict | None:
    """One-zone linear-center verdicts; the left takes precedence when both hold."""
    center_left, center_right = _centers(d, tol)
    if center_left:
        return Verdict.LINEAR_CENTER_LEFT
    if center_right:
        return Verdict.LINEAR_CENTER_RIGHT
    return None


def sliding_set(p: SystemParams, tol: float = DEFAULT_TOL) -> tuple[float, float] | None:
    """Sliding interval on the switching line, or None when beta vanishes.

    Requires aL12 * aR12 > 0.  The interval is open, delimited by the
    ordinates -bL1/aL12 and -bR1/aR12 (returned sorted).
    """
    if p.aL12 * p.aR12 <= 0.0:
        raise PreconditionError("sliding_set requires aL12 * aR12 > 0")
    beta = p.aL12 * p.bR1 - p.bL1 * p.aR12
    if abs(beta) <= tol * _scale(p.aL12 * p.bR1, p.bL1 * p.aR12):
        return None
    e1 = -p.bL1 / p.aL12
    e2 = -p.bR1 / p.aR12
    return (e1, e2) if e1 <= e2 else (e2, e1)


def classify(p: SystemParams, tol: float = DEFAULT_TOL) -> Classification:
    """Full verdict with clause records and the sliding interval when present."""
    if tol <= 0.0:
        raise PreconditionError("tol must be positive")
    d = derive_invariants(p)
    records: list[ConditionRecord] = []

    center_left, center_right = _centers(d, tol)
    records.append(ConditionRecord("center-left", d.TL, center_left))
    records.append(ConditionRecord("center-right", d.TR, center_right))

    h_ok, h_records = check_H(d)
    records.extend(h_records)
    crossing_ok = d.a12_product > 0.0

    trace_scale = tol * _scale(d.TL, d.TR)
    s_tl = _sign_with_tol(d.TL, trace_scale)
    s_tr = _sign_with_tol(d.TR, trace_scale)
    trace_ok = s_tr == -s_tl
    records.append(ConditionRecord("trace-balance", float(s_tl + s_tr), trace_ok))

    xi0_ok = abs(d.xi0) <= tol * _scale(d.aR * d.TL, d.aL * d.TR)
    xiinf_ok = abs(d.xi_inf) <= tol * _scale(d.TL * d.TL * d.DR, d.TR * d.TR * d.DL)
    beta_ok = abs(d.beta) <= tol * _scale(p.aL12 * p.bR1, p.bL1 * p.aR12)
    records.append(ConditionRecord("xi0", d.xi0, xi0_ok))
    records.append(ConditionRecord("xi-inf", d.xi_inf, xiinf_ok))
    records.append(ConditionRecord("beta", d.beta, beta_ok))

    sliding = sliding_set(p, tol) if crossing_ok else None

    if center_left:
        verdict = Verdict.LINEAR_CENTER_LEFT
    elif center_right:
        verdict = Verdict.LINEAR_CENTER_RIGHT
    elif h_ok and trace_ok and xi0_ok and xiinf_ok and beta_ok:
        verdict = Verdict.CROSSING_PERIOD_ANNULUS
    else:
        verdict = Verdict.NO_PERIOD_ANNULUS
    return Classification(verdict=verdict, records=tuple(records), sliding=sliding)


def annulus_family(a_right: float, trace_right: float, det_right: float,
                   k: float, offset: float = 0.0) -> SystemParams:
    """Lift of the proportional-W family: W_left = k * W_right, k > 0.

    With aL = -sqrt(k)*aR, TL = -sqrt(k)*TR, DL = k*DR and offset 0 the system
    carries a crossing period annulus whenever the right half-map exists; a
    nonzero offset breaks exactly the beta clause.
    """
    if k <= 0.0:
        raise PreconditionError("k must be positive")
    rk = math.sqrt(k)
    return from_canonical(
        a_left=-rk * a_right, trace_left=-rk * trace_right, det_left=k * det_right,
        a_right=a_right, trace_right=trace_right, det_right=det_right,
        offset=offset,
    )
