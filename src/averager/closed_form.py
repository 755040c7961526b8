"""Closed-form averaged functions of the jerk family and their roots.

For the angular standard form of the unfolded jerk system both averaged
functions have closed forms. The zeros of the second one, g, come in two
families, a w = 0 family and a pair with opposite w; which of them are
real is the paper's orbit count, predicted_roots, with the boundaries
where that count degenerates and the refusals it raises there.

On the slice a1 = b1 = 0 the third and fourth averaged functions, the
Jacobian of the third and the second derivatives of the second have
closed forms too, polynomials in (r, w) (higher_averages);
root_corrections turns them into the second-order corrections of a root
that seed its shot.

This module, jerk and config are the package's scalar layer: they import
no numpy. f_closed, g_closed and g_jacobian are plain arithmetic on
their arguments and return tuples, nested for the Jacobian, so one
expression serves Python floats, as in classify and a shot's seed, and
numpy arrays, as on the grid the average command checks.
higher_averages and root_corrections take one root in Python floats.
The module holds formulas only: it needs neither the averaging engine
nor the standard form's tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .jerk import MAX_DELTA, MIN_DELTA, UnfoldingParams

#: absolute tolerance for the degeneracy checks on the classifier quantities
DEGENERACY_TOL = 1e-10


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


def f_closed(r, w, a1: float, b1: float, delta: float) -> tuple:
    """First averaged function ( r(b1 - a1*delta^2)/(2*delta^3), -b1*w/delta^3 )."""
    return (r * (b1 - a1 * delta ** 2) / (2.0 * delta ** 3),
            -b1 * w / delta ** 3)


def g_closed(r, w, a2: float, b2: float, delta: float) -> tuple:
    """Second averaged function for the case a1 = b1 = 0.

    Independent of c1 and c2. The common prefactor 1/(2*delta^5) is part of
    the function; the published Jacobian determinants include it.
    """
    d2 = delta ** 2
    pref = 1.0 / (2.0 * delta ** 5)
    g1 = pref * r * ((3.0 - d2) * r * r + 4.0 * b2 * d2 - 4.0 * a2 * d2 * d2
                     + 12.0 * d2 * w * w) / 4.0
    g2 = -pref * w * ((3.0 - d2) * r * r + 2.0 * b2 * d2 + 2.0 * d2 * w * w)
    return g1, g2


def g_jacobian(r, w, a2: float, b2: float, delta: float) -> tuple:
    """Jacobian d(g1, g2)/d(r, w) of g_closed, rows first. At a root its
    determinant equals that root's jac_det in predicted_roots, which
    writes it by hand: at 2*a2*delta^2 -> b2 the determinant of these
    entries cancels to round-off, and the hand form does not."""
    d2 = delta ** 2
    pref = 1.0 / (2.0 * delta ** 5)
    cubic = (3.0 - d2) * r * r
    return tuple(tuple(pref * v for v in row) for row in (
        ((3.0 * cubic + 4.0 * b2 * d2 - 4.0 * a2 * d2 * d2
          + 12.0 * d2 * w * w) / 4.0, 6.0 * d2 * r * w),
        (-2.0 * (3.0 - d2) * r * w,
         -(cubic + 2.0 * b2 * d2 + 6.0 * d2 * w * w))))


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


def predicted_roots(a2: float, b2: float, delta: float) -> OrbitPrediction:
    """Real (r, w) roots of g_closed with their Jacobian determinants.

    The w = 0 family has r^2 = 4(a2*delta^2 - b2)*delta^2/(3 - delta^2); the
    paired family has r^2 = -4(a2*delta^2 + 2*b2)*delta^2/(5(3 - delta^2))
    and w^2 = (2*a2*delta^2 - b2)/5, contributing both signs of w. Only
    families with r^2 > 0 and w^2 > 0 are real. The determinants are
    -(a2*delta^2 - b2)(2*a2*delta^2 - b2)/delta^6 at the w = 0 root and
    -2(a2*delta^2 + 2*b2)(2*a2*delta^2 - b2)/(5*delta^6) at the pair.

    Four quantities decide the count, each a boundary where it vanishes:
    3 - delta^2 and 2*a2*delta^2 - b2, where the case analysis does not
    apply, and the collapse boundaries a2*delta^2 - b2 and
    a2*delta^2 + 2*b2, where a root family merges into r = 0. Within
    DEGENERACY_TOL of a collapse boundary the count is DEGENERATE, with a
    reason instead of roots, rather than an arbitrary choice of side. The
    roots and determinants are formed from the same four values.

    The roots come in a fixed order, which sweep_epsilon pairs by: the
    w = 0 root first, when it is real, then the pair (r2, w2), with
    w2 > 0, directly followed by its mirror (r2, -w2).

    Raises
    ------
    HypothesisViolated when delta^2 = 3 or 2*a2*delta^2 = b2 (within
    DEGENERACY_TOL), where the case analysis does not apply, or when delta
    lies outside [MIN_DELTA, MAX_DELTA], NaN included.
    """
    if not MIN_DELTA <= delta <= MAX_DELTA:
        raise HypothesisViolated(f"delta must be in [{MIN_DELTA:g}, "
                                 f"{MAX_DELTA:g}], got {delta}")
    d2 = delta ** 2
    cubic, pitchfork = 3.0 - d2, 2.0 * a2 * d2 - b2
    single, paired = a2 * d2 - b2, a2 * d2 + 2.0 * b2
    near = [(reason, violates) for value, reason, violates in (
        (cubic, "delta^2 = 3 (vanishing cubic coefficient)", True),
        (pitchfork, "2*a2*delta^2 = b2 (paired family at w = 0)", True),
        (single, "a2*delta^2 = b2 (w = 0 family collapses to r = 0)", False),
        (paired, "a2*delta^2 = -2*b2 (paired family collapses to r = 0)",
         False)) if abs(value) <= DEGENERACY_TOL]
    if near:
        reason = "; ".join(reason for reason, _ in near)
        if any(violates for _, violates in near):
            raise HypothesisViolated(reason)
        return OrbitPrediction([], [], OrbitCount.DEGENERATE, reason)
    r1sq = 4.0 * single * d2 / cubic
    r2sq = -4.0 * paired * d2 / (5.0 * cubic)
    w2sq = pitchfork / 5.0
    roots, dets = [], []
    if r1sq > 0.0:
        roots.append((math.sqrt(r1sq), 0.0))
        dets.append(-single * pitchfork / d2 ** 3)
    if r2sq > 0.0 and w2sq > 0.0:
        r2, w2 = math.sqrt(r2sq), math.sqrt(w2sq)
        roots += [(r2, w2), (r2, -w2)]
        dets += 2 * [-2.0 * paired * pitchfork / (5.0 * d2 ** 3)]
    count = (OrbitCount.ZERO, OrbitCount.ONE, OrbitCount.TWO,
             OrbitCount.THREE)[len(roots)]
    return OrbitPrediction(roots=roots, jac_dets=dets, count=count)


def higher_averages(u: UnfoldingParams, r: float, w: float) -> tuple:
    """Third and fourth averaged functions (f3, f4) on the slice a1 = b1 = 0,
    the Jacobian Df3 and the second derivatives D^2f2, in closed form.

    The angular system is dz/dtheta = sum_k eps^k F_k(z, theta), and its
    solution from z is z + sum_k eps^k Y_k(theta) with Y_k = y_k / k!
    (Llibre, Novaes and Teixeira, Nonlinearity 27, 2014). As F1 is linear
    in z,
        Y1' = F1,   Y2' = F2 + DF1 Y1,   Y3' = F3 + DF2 Y1 + DF1 Y2,
        Y4' = F4 + DF3 Y1 + D^2F2[Y1, Y1] / 2 + DF2 Y2 + DF1 Y3,
    every F_k and its derivatives taken at (z, theta), Y_k(0) = 0, and
    the averaged functions are f_k = Y_k(2 pi), so that f2 = 2 pi g_closed.
    The F_k are the terms of the expansion in eps of the exact angular
    field eps H r e / (r + eps C H), with H = h1 + eps h2,
    C = cos(theta) and e = (sin(theta), -1/delta), whose reference formula
    is theta_rhs in tests/reference.py. Expanding the recurrence over
    theta, once and symbolically, gives polynomials in (r, w) = z. With
    d = delta,
        f3 = c1 Phi,   Phi = pi / (8 d^7) (-r B_r, 12 w B_w),
        B_r = 4 a2 d^4 - 12 b2 d^2 + (3 d^2 - 15) r^2 - 36 d^2 w^2,
        B_w = (d^2 - 5) r^2 - 2 b2 d^2 - 2 d^2 w^2,
        f4 = 2 pi^2 Dg g + c2 Phi + c1^2 Psi + R0,
        Psi = pi / (32 d^9) (-3 r (4 a2 d^4 - 20 b2 d^2 + (5 d^2 - 35) r^2
                                   - 60 d^2 w^2),
                             60 w ((d^2 - 7) r^2 - 2 b2 d^2 - 2 d^2 w^2)),
        R0 = pi / 12 (w P_r / d^9, r P_w / d^11),
        P_r = -12 a2 b2 d^6 - 4 a2 d^6 r^2 - 12 a2 d^6 w^2 + 96 a2 d^4 r^2
              + 36 b2^2 d^4 - 25 b2 d^4 r^2 + 144 b2 d^4 w^2
              + 15 b2 d^2 r^2 + 5 d^4 r^4 - 41 d^4 r^2 w^2 + 108 d^4 w^4
              - 21 d^2 r^4 - 105 d^2 r^2 w^2 + 42 r^4,
        P_w = 12 a2^2 d^8 - 48 a2 b2 d^6 + 27 a2 d^6 r^2 - 144 a2 d^6 w^2
              - 69 a2 d^4 r^2 + 36 b2^2 d^4 + 24 b2 d^6 w^2 - 35 b2 d^4 r^2
              + 85 b2 d^2 r^2 - 8 d^6 r^2 w^2 + 24 d^6 w^4 + 7 d^4 r^4
              + 39 d^4 r^2 w^2 + 108 d^4 w^4 - 35 d^2 r^4
              - 105 d^2 r^2 w^2 + 42 r^4,
    where g = g_closed and Dg = g_jacobian, so that the term
    2 pi^2 Dg g = Df2 f2 / 2 vanishes at every root of f2. Then
    Df3 = c1 DPhi, D^2f2 is 2 pi times the second derivatives of the
    cubic g_closed, and at c1 = 0, f3 = 0 and Df3 = 0 exactly.

    Each form is evaluated as a power of 1/d times a polynomial in
    t = 1 / d^2 by Horner's rule, B_r = d^4 (4 a2 + t (3 r^2 - 12 b2
    - 36 w^2 - 15 t r^2)) and so on, so that d enters only as d^2 and
    1/d: no intermediate power of d leaves the double range for any delta
    in [MIN_DELTA, MAX_DELTA].

    The forms are evaluated at one point z = (r, w), r and w Python
    floats, in Python floats: shooting needs them at one root per shot,
    where numpy's cost per call on arrays of length 2 would be most of
    the work. g and Dg come from g_closed and g_jacobian on the same
    floats. A result that leaves the double range becomes inf or nan,
    never an exception or a numpy warning. f3 and f4 are pairs; Df3,
    with Df3[i][j] the derivative of f3_i by z_j, is a 2 x 2 nested
    tuple, and D^2f2, with D^2f2[i][j][k] the derivative of f2_i by z_j
    and z_k, a 2 x 2 x 2 one.
    """
    a2, b2, c1, c2, d = map(float, (u.a2, u.b2, u.c1, u.c2, u.delta))
    t = 1 / (d * d)
    s = math.pi * t / d  # pi / d^3
    q = 2 * s * (3 * t - 1)  # 2 pi (3 - d^2) / d^5
    rr, ww, rw = r * r, w * w, r * w
    # B_r / d^4 and B_w / d^4
    b_r = 4 * a2 + 3 * t * (rr - 4 * b2 - 12 * ww - 5 * t * rr)
    b_w = t * (rr - 2 * b2 - 2 * ww - 5 * t * rr)
    phi = [s / 8 * v for v in (-r * b_r, 12 * w * b_w)]
    dphi = [s / 8 * v for v in (
        -b_r - 6 * t * (1 - 5 * t) * rr, 72 * t * rw,
        24 * t * (1 - 5 * t) * rw, 12 * (b_w - 4 * t * ww))]
    psi = [3 * s * t / 32 * v for v in (
        -r * (4 * a2 + 5 * t * (rr - 4 * b2 - 12 * ww - 7 * t * rr)),
        20 * w * t * (rr - 2 * b2 - 2 * ww - 7 * t * rr))]
    # P_r / d^6 and P_w / d^8
    p_r = -4 * a2 * (3 * b2 + rr + 3 * ww) + t * (
        96 * a2 * rr + 36 * b2 * b2 - 25 * b2 * rr + 5 * rr * rr
        - 41 * rr * ww + 36 * ww * (4 * b2 + 3 * ww)
        + 3 * t * rr * (5 * b2 - 7 * rr - 35 * ww + 14 * t * rr))
    p_w = 12 * a2 * a2 + t * (
        24 * ww * (b2 + ww - 6 * a2) - 48 * a2 * b2 + 27 * a2 * rr
        - 8 * rr * ww + t * (
            36 * (b2 * b2 + 3 * ww * ww) - 69 * a2 * rr - 35 * b2 * rr
            + 7 * rr * rr + 39 * rr * ww
            + t * rr * (5 * (17 * b2 - 7 * rr - 21 * ww) + 42 * t * rr)))
    g0, g1 = g_closed(r, w, a2, b2, d)
    dg_g = [j0 * g0 + j1 * g1 for j0, j1 in g_jacobian(r, w, a2, b2, d)]
    f4 = tuple(2 * math.pi ** 2 * dg + c2 * ph + c1 * c1 * ps + s / 12 * pv
               for dg, ph, ps, pv in zip(dg_g, phi, psi, (w * p_r, r * p_w)))
    return ((c1 * phi[0], c1 * phi[1]), f4,
            ((c1 * dphi[0], c1 * dphi[1]), (c1 * dphi[2], c1 * dphi[3])),
            (((3 * q * r / 4, 6 * s * w), (6 * s * w, 6 * s * r)),
             ((-q * w, -q * r), (-q * r, -12 * s * w))))


def root_corrections(u: UnfoldingParams, r: float, w: float) -> tuple:
    """(z1, z2), each a pair of Python floats, of the root z0 = (r, w) of
    g_closed: the orbit's (r, w) at theta = 0 is z0 + eps z1 + eps^2 z2
    + O(eps^3).

    These are the terms of the root of f2 + eps f3 + eps^2 f4 (see
    higher_averages), f2 = 2 pi g_closed:
        z1 = -Df2^-1 f3,
        z2 = -Df2^-1 (f4 + Df3 z1 + D^2f2[z1, z1] / 2),
    all at z0, with f3, f4, Df3 and D^2f2 from one higher_averages call.
    Df2 is solved by Gaussian elimination with partial pivoting; where it
    has an exactly zero pivot, so that Dg is singular, both corrections
    are NaN, and where the averages overflow, as at a2 = 1e300, they are
    not finite either: shoot_orbit drops such a seed shift. At c1 = 0,
    z1 = 0, and the Df3 and D^2f2 terms of z2 vanish exactly.
    """
    f3, f4, df3, d2f2 = higher_averages(u, r, w)
    jac = [[2.0 * math.pi * v for v in row]
           for row in g_jacobian(r, w, u.a2, u.b2, u.delta)]

    def newton(f):
        # elimination with partial pivoting: the row whose first entry
        # is the larger leads
        (a, b, f0), (c, d, f1) = sorted(
            [(*row, v) for row, v in zip(jac, f)], key=lambda x: -abs(x[0]))
        m = c / a if a else math.nan
        pivot = d - m * b
        x1 = (f1 - m * f0) / pivot if pivot else math.nan
        return (-(f0 - b * x1) / a if a else math.nan), -x1

    x, y = z1 = newton(f3)
    z2 = newton([f + (p * x + q * y)
                 + 0.5 * ((a * x + b * y) * x + (c * x + d * y) * y)
                 for f, (p, q), ((a, b), (c, d)) in zip(f4, df3, d2f2)])
    return z1, z2
