"""Closed-form averaged functions of the jerk family and the case classifier.

For the angular standard form of the unfolded jerk system both averaged
functions have closed forms. The zeros of the second one come in two
families, a w = 0 family and a pair with opposite w, and counting which
families are real yields the orbit count for a given (a2, b2, delta).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

#: absolute tolerance for the degeneracy checks on the classifier quantities
DEGENERACY_TOL = 1e-10


class HypothesisViolated(ValueError):
    """The classifier was called on a degenerate parameter combination."""


class DegeneratePrediction(HypothesisViolated):
    """A root family collapses into r = 0, so no orbit count is predicted.

    Raised on the collapse boundaries, where classify returns DEGENERATE;
    a HypothesisViolated, so handlers of the broader refusal catch it.
    """


class OrbitCount(Enum):
    THREE = "three"
    TWO = "two"
    ONE = "one"
    ZERO = "zero"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class OrbitPrediction:
    """Real roots of the second averaged function with their Jacobian data."""

    roots: list
    jac_dets: list
    count: OrbitCount
    degenerate_reason: Optional[str] = None


def f_closed(r: float, w: float, a1: float, b1: float, delta: float) -> np.ndarray:
    """First averaged function ( r(b1 - a1*delta^2)/(2*delta^3), -b1*w/delta^3 )."""
    return np.array(
        [r * (b1 - a1 * delta ** 2) / (2.0 * delta ** 3), -b1 * w / delta ** 3]
    )


def g_closed(r: float, w: float, a2: float, b2: float, delta: float) -> np.ndarray:
    """Second averaged function for the case a1 = b1 = 0.

    Independent of c1 and c2. The common prefactor 1/(2*delta^5) is part of
    the function; the published Jacobian determinants include it.
    """
    d2 = delta ** 2
    pref = 1.0 / (2.0 * delta ** 5)
    g1 = pref * r * ((3.0 - d2) * r * r + 4.0 * b2 * d2 - 4.0 * a2 * d2 * d2
                     + 12.0 * d2 * w * w) / 4.0
    g2 = -pref * w * ((3.0 - d2) * r * r + 2.0 * b2 * d2 + 2.0 * d2 * w * w)
    return np.array([g1, g2])


def require_first_order_zero(a1: float, b1: float) -> None:
    """Refuse a direction off the slice a1 = b1 = 0.

    The roots of g_closed, and so those of predicted_roots, are orbits
    only where the first averaged function vanishes, which needs
    a1 = b1 = 0; elsewhere f_closed has no simple zero with r > 0.

    Raises
    ------
    HypothesisViolated when a1 or b1 is nonzero.
    """
    if a1 != 0.0 or b1 != 0.0:
        raise HypothesisViolated(
            f"a1 = {a1}, b1 = {b1}: the second-order roots predict orbits "
            "only when a1 = b1 = 0")


def _degeneracies(a2: float, b2: float, delta: float):
    """(reason, violates the case hypotheses) for each boundary within
    DEGENERACY_TOL.

    On the first two boundaries the case analysis does not apply at all; on
    the two collapse boundaries a root family merges into r = 0.
    """
    d2 = delta ** 2
    table = [
        (3.0 - d2, "delta^2 = 3 (vanishing cubic coefficient)", True),
        (2.0 * a2 * d2 - b2, "2*a2*delta^2 = b2 (paired family at w = 0)", True),
        (a2 * d2 - b2, "a2*delta^2 = b2 (w = 0 family collapses to r = 0)",
         False),
        (a2 * d2 + 2.0 * b2,
         "a2*delta^2 = -2*b2 (paired family collapses to r = 0)", False),
    ]
    return [(reason, violates) for value, reason, violates in table
            if abs(value) <= DEGENERACY_TOL]


def predicted_roots(a2: float, b2: float, delta: float) -> OrbitPrediction:
    """Real (r, w) roots of g_closed with their Jacobian determinants.

    The w = 0 family has r^2 = 4(a2*delta^2 - b2)*delta^2/(3 - delta^2); the
    paired family has r^2 = -4(a2*delta^2 + 2*b2)*delta^2/(5(3 - delta^2))
    and w^2 = (2*a2*delta^2 - b2)/5, contributing both signs of w. Only
    families with r^2 > 0 and w^2 > 0 are real. On the collapse boundaries
    (a2*delta^2 = b2 or = -2*b2) the count is DEGENERATE, with a reason
    instead of roots, rather than an arbitrary choice of side.

    Raises
    ------
    HypothesisViolated when delta^2 = 3 or 2*a2*delta^2 = b2 (within
    DEGENERACY_TOL), where the case analysis does not apply, or when delta
    is not a positive real.
    """
    if not (np.isfinite(delta) and delta > 0.0):
        raise HypothesisViolated(f"delta must be positive and finite, got {delta}")
    reasons = _degeneracies(a2, b2, delta)
    if any(violates for _, violates in reasons):
        raise HypothesisViolated("; ".join(reason for reason, _ in reasons))
    if reasons:
        return OrbitPrediction(
            roots=[], jac_dets=[], count=OrbitCount.DEGENERATE,
            degenerate_reason="; ".join(reason for reason, _ in reasons),
        )
    d2 = delta ** 2
    r1sq = 4.0 * (a2 * d2 - b2) * d2 / (3.0 - d2)
    r2sq = -4.0 * (a2 * d2 + 2.0 * b2) * d2 / (5.0 * (3.0 - d2))
    w2sq = (2.0 * a2 * d2 - b2) / 5.0
    roots = []
    dets = []
    if r1sq > 0.0:
        roots.append((float(np.sqrt(r1sq)), 0.0))
        dets.append(-(a2 * d2 - b2) * (2.0 * a2 * d2 - b2) / d2 ** 3)
    if r2sq > 0.0 and w2sq > 0.0:
        r2 = float(np.sqrt(r2sq))
        w2 = float(np.sqrt(w2sq))
        det2 = -2.0 * (a2 * d2 + 2.0 * b2) * (2.0 * a2 * d2 - b2) / (5.0 * d2 ** 3)
        roots.extend([(r2, w2), (r2, -w2)])
        dets.extend([det2, det2])
    count = {0: OrbitCount.ZERO, 1: OrbitCount.ONE,
             2: OrbitCount.TWO, 3: OrbitCount.THREE}[len(roots)]
    return OrbitPrediction(roots=roots, jac_dets=dets, count=count)


def classify(a2: float, b2: float, delta: float) -> OrbitCount:
    """Orbit-count case label for an unfolding direction (a2, b2, delta).

    The label is predicted_roots(...).count, and it raises where
    predicted_roots does.
    """
    return predicted_roots(a2, b2, delta).count
