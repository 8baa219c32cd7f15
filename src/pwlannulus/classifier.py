"""Exact decision logic for crossing period annuli.

The decision needs only arithmetic on the twelve raw parameters.  Writing T,
D for traces/determinants, a = a12*b2 - a22*b1 per zone, and

    xi0  = aR*TL - aL*TR,
    xiInf = TL^2*DR - TR^2*DL,
    beta = aL12*bR1 - bL1*aR12,

a crossing period annulus exists exactly when the half-map existence
conditions (H) hold, sign(TR) = -sign(TL) (both zero allowed), and
xi0 = xiInf = beta = 0.  One-zone linear centers are reported first as their
own verdicts.  Floating inputs force a tolerance on the equalities, and one
rule decides each (see _vanishes): the quantity is within tol of the largest
term it is formed from, with no floor.  A trace's terms are both zones' time
scales tau = max(|T|, sqrt|D|); beta's add each zone's ordinate scale
a12*a/tau.  So scaling time, x, y or the offsets by a power of two, an exact
conjugacy, moves no verdict.  Every record carries its raw residual so
callers can re-decide.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import PreconditionError
from .halfmap import existence_clause
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


def _vanishes(x: float, tol: float, *terms: float) -> bool:
    """Whether x, formed from terms, is finite and within tol of the largest |term|."""
    return abs(x) <= tol * max(map(abs, terms)) and abs(x) < math.inf


def check_H(d: DerivedQuantities) -> tuple[bool, list[ConditionRecord]]:
    """All three half-map existence clauses, with per-clause records.

    Record values hold the clause's deciding quantity: the a12 product for
    the crossing clause, and a (or the discriminant 4D - T^2 when a's sign
    sends the clause there) for the per-zone clauses.
    """
    crossing_ok = d.a12_product > 0.0
    left_disc = 4.0 * d.DL - d.TL * d.TL
    right_disc = 4.0 * d.DR - d.TR * d.TR
    left_ok = existence_clause(d.aL, d.TL, d.DL)
    right_ok = existence_clause(-d.aR, -d.TR, d.DR)   # the backward map's forward triple
    records = [
        ConditionRecord("H-crossing", d.a12_product, crossing_ok),
        ConditionRecord("H-left", d.aL if d.aL > 0.0 else left_disc, left_ok),
        ConditionRecord("H-right", d.aR if d.aR < 0.0 else right_disc, right_ok),
    ]
    return crossing_ok and left_ok and right_ok, records


def sliding_set(p: SystemParams) -> tuple[float, float] | None:
    """Sliding interval on the switching line, or None when beta vanishes.

    Requires aL12 * aR12 > 0.  The interval is open, delimited by the
    ordinates -bL1/aL12 and -bR1/aR12 (returned sorted); it is classify's,
    so beta's clause is decided once, by classify's rule at DEFAULT_TOL.
    """
    if p.aL12 * p.aR12 <= 0.0:
        raise PreconditionError("sliding_set requires aL12 * aR12 > 0")
    return classify(p).sliding


def classify(p: SystemParams, tol: float = DEFAULT_TOL) -> Classification:
    """Full verdict with clause records and the sliding interval when present."""
    if not 0.0 < tol < math.inf:  # also refuses NaN
        raise PreconditionError("tol must be finite and positive")
    d = derive_invariants(p)
    records: list[ConditionRecord] = []

    # each zone's time scale; a trace vanishes against the larger of the two
    tau_l = max(abs(d.TL), math.sqrt(abs(d.DL)))
    tau_r = max(abs(d.TR), math.sqrt(abs(d.DR)))
    tl_zero = _vanishes(d.TL, tol, tau_l, tau_r)
    tr_zero = _vanishes(d.TR, tol, tau_l, tau_r)
    center_left = tl_zero and d.DL > 0.0 and d.aL < 0.0
    center_right = tr_zero and d.DR > 0.0 and d.aR > 0.0
    records.append(ConditionRecord("center-left", d.TL, center_left))
    records.append(ConditionRecord("center-right", d.TR, center_right))

    h_ok, h_records = check_H(d)
    records.extend(h_records)

    s_tl = 0.0 if tl_zero else math.copysign(1.0, d.TL)
    s_tr = 0.0 if tr_zero else math.copysign(1.0, d.TR)
    trace_ok = s_tr == -s_tl
    records.append(ConditionRecord("trace-balance", s_tl + s_tr, trace_ok))

    xi0_ok = _vanishes(d.xi0, tol, d.aR * d.TL, d.aL * d.TR)
    xiinf_ok = _vanishes(d.xi_inf, tol, d.TL * d.TL * d.DR, d.TR * d.TR * d.DL)
    # beta's own products both vanish on the canonical lift (bL1 = 0); a12*a/tau,
    # with |a|/tau the size of W's roots, is each zone's ordinate scale
    beta_ok = _vanishes(d.beta, tol, p.aL12 * p.bR1, p.bL1 * p.aR12, *(
        a12 * a / tau for a12, a, tau in ((p.aL12, d.aL, tau_l), (p.aR12, d.aR, tau_r))
        if tau > 0.0))
    records.append(ConditionRecord("xi0", d.xi0, xi0_ok))
    records.append(ConditionRecord("xi-inf", d.xi_inf, xiinf_ok))
    records.append(ConditionRecord("beta", d.beta, beta_ok))

    sliding = None
    if d.a12_product > 0.0 and not beta_ok:
        e1, e2 = -p.bL1 / p.aL12, -p.bR1 / p.aR12
        sliding = (e1, e2) if e1 <= e2 else (e2, e1)

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
    if not 0.0 < k < math.inf:   # also a nan k
        raise PreconditionError("k must be a positive finite real")
    rk = math.sqrt(k)
    return from_canonical(
        a_left=-rk * a_right, trace_left=-rk * trace_right, det_left=k * det_right,
        a_right=a_right, trace_right=trace_right, det_right=det_right,
        offset=offset,
    )
