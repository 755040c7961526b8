"""Closed-form averaged functions of the jerk family, as numpy arrays.

For the angular standard form of the unfolded jerk system both averaged
functions have closed forms. The zeros of the second one come in two
families, a w = 0 family and a pair with opposite w; which of them are
real, the orbit count, is the scalar jerk.predicted_roots.

On the slice a1 = b1 = 0 the third and fourth averaged functions, the
Jacobian of the third and the second derivatives of the second have
closed forms too, polynomials in (r, w) (higher_averages);
root_corrections turns them into the second-order corrections of each
root that seed shooting. This module holds formulas only: it needs
neither the averaging engine nor the standard form's tables.
"""

from __future__ import annotations

import numpy as np

from .jerk import UnfoldingParams

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
    in [MIN_DELTA, MAX_DELTA]. The forms are evaluated point by point in
    Python floats, as the caller has one to three roots, where numpy's
    cost per call on arrays of that length is most of the work; each
    takes the operations of a numpy evaluation in the same order, so
    their bits are those of float64 arrays, and a result that leaves the
    double range becomes inf or nan, never an OverflowError.

    z has shape (2, *batch); f3 and f4 have that shape too, Df3, with
    Df3[i, j] the derivative of f3_i by z_j, the shape (2, 2, *batch),
    and D^2f2, with D^2f2[i, j, k] the derivative of f2_i by z_j and z_k,
    the shape (2, 2, 2, *batch).
    """
    z = np.asarray(z, dtype=float)
    a2, b2, c1, c2, d = map(float, (u.a2, u.b2, u.c1, u.c2, u.delta))
    t = 1 / (d * d)
    s = np.pi * t / d  # pi / d^3
    q = 2 * s * (3 * t - 1)  # 2 pi (3 - d^2) / d^5
    values = []  # per point: f3, f4, Df3 and D^2f2, flattened
    for r, w in z.reshape(2, -1).T.tolist():
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
        (j00, j01), (j10, j11) = g_jacobian(r, w, a2, b2, d).tolist()
        g0, g1 = g_closed(r, w, a2, b2, d).tolist()
        dg_g = (j00 * g0 + j01 * g1, j10 * g0 + j11 * g1)
        f4 = [2 * np.pi ** 2 * dg + c2 * ph + c1 * c1 * ps + s / 12 * pv
              for dg, ph, ps, pv in zip(dg_g, phi, psi, (w * p_r, r * p_w))]
        values.append([*(c1 * v for v in phi), *f4, *(c1 * v for v in dphi),
                       3 * q * r / 4, 6 * s * w, 6 * s * w, 6 * s * r,
                       -q * w, -q * r, -q * r, -12 * s * w])
    # C order, as numpy's evaluation gave: einsum's sums depend on it
    out = np.array(values, dtype=float).reshape(-1, 16).T.copy()
    batch = z.shape[1:]
    return (out[:2].reshape(2, *batch), out[2:4].reshape(2, *batch),
            out[4:8].reshape(2, 2, *batch), out[8:].reshape(2, 2, 2, *batch))


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
        jac = 2.0 * np.pi * np.array([g_jacobian(r, w, u.a2, u.b2, u.delta)
                                      for r, w in z0.T.tolist()])
        f3, f4, df3, d2f2 = higher_averages(u, z0)
        z1 = newton(f3)
        z2 = newton(f4 + np.einsum("ijp,jp->ip", df3, z1)
                    + 0.5 * np.einsum("ijkp,jp,kp->ip", d2f2, z1, z1))
    return [(z1[:, i], z2[:, i]) for i in range(len(roots))]
