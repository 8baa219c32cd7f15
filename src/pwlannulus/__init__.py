"""Decision of crossing period annuli in planar two-zone piecewise linear systems.

The package computes Poincaré half-maps through their integral
characterization, builds the displacement function, decides the existence of
a crossing period annulus by exact arithmetic on the parameters, and
cross-validates everything against an exact-flow simulation oracle.
"""

from .classifier import (Classification, ConditionRecord, Verdict, annulus_family,
                         check_H, classify, sliding_set)
from .displacement import (CrossingOrbit, DisplacementContext, OrbitKind, delta,
                           find_crossing_orbits, make_context, sign_delta_prime_at_zero)
from .errors import (CanonicalizationError, ConvergenceError, DomainError, EmptyDomainError,
                     NoReturnError, PreconditionError, PwlError, SlidingEncounteredError,
                     TangencyError)
from .halfmap import (HalfMapDomain, HalfSystem, Orientation, derivative,
                      domain, evaluate, exists)
from .oracle import (CrossingEvent, ZoneFlow, flow, next_crossing, oracle_halfmap,
                     sample_trajectory, verify_periodic)
from .params import (CanonicalSystem, DerivedQuantities, SystemParams,
                     derive_invariants, from_canonical, to_canonical)

__version__ = "0.7.0"

__all__ = [
    "CanonicalSystem", "CanonicalizationError", "Classification",
    "ConditionRecord", "ConvergenceError", "CrossingEvent", "CrossingOrbit",
    "DerivedQuantities", "DisplacementContext", "DomainError",
    "EmptyDomainError", "HalfMapDomain", "HalfSystem", "NoReturnError",
    "OrbitKind", "Orientation", "PreconditionError", "PwlError",
    "SlidingEncounteredError", "SystemParams", "TangencyError", "Verdict",
    "ZoneFlow", "annulus_family", "check_H", "classify",
    "delta", "derivative", "derive_invariants", "domain", "evaluate",
    "exists", "find_crossing_orbits", "flow", "from_canonical",
    "make_context", "next_crossing", "oracle_halfmap", "sample_trajectory",
    "sign_delta_prime_at_zero", "sliding_set", "to_canonical", "verify_periodic",
]
