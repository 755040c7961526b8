"""Closed-form averaged functions of the jerk family and the case classifier.

For the angular standard form of the unfolded jerk system both averaged
functions have closed forms. The zeros of the second one come in two
families, a w = 0 family and a pair with opposite w, and counting which
families are real yields the orbit count for a given (a2, b2, delta).

On the slice a1 = b1 = 0 the third and fourth averaged functions, the
Jacobian of the third and the second derivatives of the second come from
one quadrature pass (higher_averages) over h2's exponent table and
theta-coefficients, which normal_form owns; root_corrections turns them
into the second-order corrections of each root that seed shooting.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .averaging import _rule_nodes
from .normal_form import (H2_EXPONENTS, MAX_DELTA, MIN_DELTA, UnfoldingParams,
                          h2_coefficients, monomials)

#: absolute tolerance for the degeneracy checks on the classifier quantities
DEGENERACY_TOL = 1e-10

#: Gauss-Legendre nodes of higher_averages; on the showcase 32 nodes agree
#: with 64 to 4e-14
HIGHER_NODES = 32

#: the orders of the partial derivatives of the monomials of h2 that
#: higher_averages takes: the values, then by r, w, rr, rw and ww
_SECOND = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


class HypothesisViolated(ValueError):
    """The classifier was called on a degenerate parameter combination."""


class DegeneratePrediction(HypothesisViolated):
    """A root family collapses into r = 0, so no orbit count is predicted.

    Raised on the collapse boundaries, where predicted_roots predicts
    DEGENERATE; a HypothesisViolated, so handlers of the broader refusal
    catch it.
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


def g_jacobian(r: float, w: float, a2: float, b2: float,
               delta: float) -> np.ndarray:
    """Jacobian d(g1, g2)/d(r, w) of g_closed; its determinant at a root is
    that root's jac_det in predicted_roots."""
    d2 = delta ** 2
    pref = 1.0 / (2.0 * delta ** 5)
    cubic = (3.0 - d2) * r * r
    return pref * np.array([
        [(3.0 * cubic + 4.0 * b2 * d2 - 4.0 * a2 * d2 * d2
          + 12.0 * d2 * w * w) / 4.0, 6.0 * d2 * r * w],
        [-2.0 * (3.0 - d2) * r * w,
         -(cubic + 2.0 * b2 * d2 + 6.0 * d2 * w * w)],
    ])


def higher_averages(u: UnfoldingParams, z) -> tuple:
    """Third and fourth averaged functions (f3, f4) on the slice a1 = b1 = 0,
    the Jacobian Df3 and the second derivatives D^2f2.

    The angular system is dz/dtheta = sum_k eps^k F_k(z, theta), and its
    solution from z is z + sum_k eps^k Y_k(theta) with Y_k = y_k / k!
    (Llibre, Novaes and Teixeira, Nonlinearity 27, 2014). As F1 is linear
    in z,
        Y1' = F1,   Y2' = F2 + DF1 Y1,   Y3' = F3 + DF2 Y1 + DF1 Y2,
        Y4' = F4 + DF3 Y1 + D^2F2[Y1, Y1] / 2 + DF2 Y2 + DF1 Y3,
    every F_k and its derivatives taken at (z, theta), and the averaged
    functions are f_k = Y_k(2 pi), so that f2 = 2 pi g_closed. The F_k are
    the terms of the geometric expansion in eps of the exact angular field
    eps H r e / (r + eps C H), with H = h1 + eps h2, C = cos(theta) and
    e = (sin(theta), -1/delta), whose reference formula is theta_rhs in
    tests/reference.py. With h1 = k r C, k = -c1 / delta^2, each is
    F_k = phi_k e with
        phi1 = k r C,                   phi2 = h2 - k^2 r C^3,
        phi3 = -2 k C^2 h2 + k^3 r C^5,
        phi4 = -C h2^2 / r + 3 k^2 C^4 h2 - k^4 r C^7,
    where h2 is the cubic of normal_form.h2_coefficients over the
    monomials of H2_EXPONENTS, which normal_form.monomials gives with
    their derivatives to second order. Every Y_k' is thus a scalar times
    e, and the Y_k on the HIGHER_NODES nodes come from the integration
    matrix of the Gauss-Legendre rule. Df3 differentiates Y3' on the same
    nodes: Y1 is r times its value at r = 1, and the derivatives of
    DF2 Y1 and of Y2 need those of phi2 to second order, which are also
    those of Y2', so D^2f2 comes with them. At c1 = 0, F1 = F3 = 0, and
    f3 = 0 and Df3 = 0 exactly.

    z has shape (2, *batch); f3 and f4 have that shape too, Df3, with
    Df3[i, j] the derivative of f3_i by z_j, the shape (2, 2, *batch),
    and D^2f2, with D^2f2[i, j, k] the derivative of f2_i by z_j and z_k,
    the shape (2, 2, 2, *batch). No (N, 2N) check runs: these functions
    only seed Newton, which accepts an orbit on its own return.
    """
    s, weights, integral = _rule_nodes(HIGHER_NODES, 2.0 * np.pi)
    sin, cos = np.sin(s), np.cos(s)
    e = np.array([sin, np.full_like(s, -1.0 / u.delta)])[:, None, :]
    kc = -u.c1 / u.delta ** 2 * cos
    # the coefficients of phi2, phi3 and phi4 + C h2^2 / r over the
    # monomials of H2_EXPONENTS, shape (3, 6, nodes): each phi_k, less its
    # h2^2 term, is a multiple of h2 plus one of r
    h2_table = np.array(np.broadcast_arrays(*h2_coefficients(u, sin, cos)))
    linear = np.zeros_like(h2_table)
    linear[H2_EXPONENTS.index((1, 0))] = 1.0
    tables = np.array([h2_table - kc * kc * cos * linear,
                       -2.0 * kc * cos * h2_table
                       + kc ** 3 * cos * cos * linear,
                       3.0 * (kc * cos) ** 2 * h2_table
                       - kc ** 4 * cos ** 3 * linear])
    unit = (kc * e) @ integral.T  # Y1 at r = 1
    z = np.asarray(z, dtype=float)
    flat = z.reshape(2, -1)
    # phi2 with its 5 derivatives, phi3 with its gradient, and phi4 up to
    # its h2^2 term, each of shape (points, nodes)
    phi2, phi3, phi4 = (monomials(H2_EXPONENTS, flat, _SECOND)
                        .transpose(0, 2, 1) @ tables[:, None])
    r = flat[0][:, None]
    y1 = unit * r

    def along(scalar):
        """Y with Y' = scalar e, on the nodes."""
        return (scalar * e) @ integral.T

    y2 = along(phi2[0] + kc * y1[0])
    psi3 = phi3[0] + phi2[1] * y1[0] + phi2[2] * y1[1] + kc * y2[0]
    h2 = phi2[0] + kc * kc * cos * r
    psi4 = (phi4[0] - cos * h2 * h2 / r
            + phi3[1] * y1[0] + phi3[2] * y1[1]
            + 0.5 * (phi2[3] * y1[0] * y1[0] + phi2[5] * y1[1] * y1[1])
            + phi2[4] * y1[0] * y1[1]
            + phi2[1] * y2[0] + phi2[2] * y2[1] + kc * along(psi3)[0])
    # psi3 by r and by w. DF1 = kc e (1, 0) reads only the first component
    # of Y2, so of its derivatives only e[0] times their integral is taken
    dy2 = (np.array([phi2[1] + kc * unit[0], phi2[2]]) * e[0]) @ integral.T
    dpsi3 = phi3[1:3] + phi2[3:5] * y1[0] + phi2[4:6] * y1[1] + kc * dy2
    dpsi3[0] += phi2[1] * unit[0] + phi2[2] * unit[1]
    # Y2' = phi2 e + kc Y1[0] e, and Y1 is linear, so phi2's second
    # derivatives are those of Y2'
    hessian = np.array([[phi2[3], phi2[4]], [phi2[4], phi2[5]]])
    f3, f4 = (((psi * e) @ weights).reshape(z.shape) for psi in (psi3, psi4))
    df3 = (dpsi3 * e[:, None]) @ weights
    d2f2 = (hessian * e[:, None, None]) @ weights
    return (f3, f4, df3.reshape((2,) + z.shape),
            d2f2.reshape((2, 2) + z.shape))


def root_corrections(u: UnfoldingParams, roots) -> list:
    """(z1, z2) for each root z0 of g_closed: the orbit's (r, w) at
    theta = 0 is z0 + eps z1 + eps^2 z2 + O(eps^3).

    These are the terms of the root of f2 + eps f3 + eps^2 f4 (see
    higher_averages), f2 = 2 pi g_closed:
        z1 = -Df2^-1 f3,
        z2 = -Df2^-1 (f4 + Df3 z1 + D^2f2[z1, z1] / 2),
    all at z0, with f3, f4, Df3 and D^2f2 from one higher_averages pass.
    At c1 = 0, z1 = 0 and both terms vanish exactly.
    """
    if not roots:
        return []
    z0 = np.array(roots, dtype=float).T

    def newton(f):
        return -np.linalg.solve(jac, f.T[:, :, None])[:, :, 0].T

    # far out, as at a2 = 1e300, Dg and the averages overflow: the
    # corrections are then not finite, and shoot_orbit drops such a seed
    # shift
    with np.errstate(over="ignore", invalid="ignore"):
        jac = 2.0 * np.pi * np.moveaxis(
            g_jacobian(z0[0], z0[1], u.a2, u.b2, u.delta), 2, 0)
        f3, f4, df3, d2f2 = higher_averages(u, z0)
        z1 = newton(f3)
        z2 = newton(f4 + np.einsum("ijp,jp->ip", df3, z1)
                    + 0.5 * np.einsum("ijkp,jp,kp->ip", d2f2, z1, z1))
    return [(z1[:, i], z2[:, i]) for i in range(len(roots))]


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
    lies outside [MIN_DELTA, MAX_DELTA], NaN included.
    """
    if not MIN_DELTA <= delta <= MAX_DELTA:
        raise HypothesisViolated(f"delta must be in [{MIN_DELTA:g}, "
                                 f"{MAX_DELTA:g}], got {delta}")
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

