"""Coordinate pipeline from the jerk system to averaging standard form.

The chain is: unfold the parameters around the zero-Hopf point (0, 0, -delta^2),
scale the state by eps, apply the linear change to real Jordan coordinates
(u, v, w), pass to cylindrical coordinates (r, theta, w) and take theta as the
independent variable. The result is a 2-pi periodic planar system in z = (r, w)
of the form dz/dtheta = eps F1(z, theta) + eps^2 F2(z, theta) + O(eps^3), which
is what the averaging engine consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .jerk import SystemParams

#: below this magnitude eps is considered degenerate for state scaling
EPS_FLOOR = 1e-300

#: guard for the division by r + eps*cos(theta)*(h1 + eps*h2)
DENOMINATOR_TOL = 1e-12


class DegenerateEpsilon(ValueError):
    """eps is too close to zero to divide the state by it."""


class SingularDenominator(ValueError):
    """The angular reduction hit a vanishing denominator."""


@dataclass(frozen=True)
class UnfoldingParams:
    """Perturbation coefficients around the zero-Hopf point.

    The physical parameters are recovered through
    (a, b, c) = (eps*a1 + eps^2*a2, eps*b1 + eps^2*b2,
                 -delta^2 + eps*c1 + eps^2*c2), see unfold().
    """

    a1: float = 0.0
    a2: float = 0.0
    b1: float = 0.0
    b2: float = 0.0
    c1: float = 0.0
    c2: float = 0.0
    delta: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.delta) and self.delta > 0.0):
            raise ValueError(f"delta must be positive and finite, got {self.delta}")


@dataclass(frozen=True)
class StandardFormSystem:
    """A T-periodic field dz/dt = eps F1(z, t) + eps^2 F2(z, t) + O(eps^3).

    Each evaluator takes states z of shape (n, *batch) and times of shape
    m: f1 and f2 give shape (n, *batch, m), and df1, the Jacobian of f1
    with respect to z, gives (n, n, *batch, m), or (n, n, m) when it does
    not depend on z. A single state is the case batch = ().
    """

    period: float
    f1: Callable
    f2: Callable
    df1: Callable


def unfold(u: UnfoldingParams, eps: float) -> SystemParams:
    """Physical (a, b, c) for the perturbation strength eps."""
    return SystemParams(
        a=eps * u.a1 + eps * eps * u.a2,
        b=eps * u.b1 + eps * eps * u.b2,
        c=-u.delta ** 2 + eps * u.c1 + eps * eps * u.c2,
    )


def scale_state(s, eps: float) -> np.ndarray:
    """Blow up a physical state: (X, Y, Z) = (x, y, z) / eps."""
    if abs(eps) < EPS_FLOOR:
        raise DegenerateEpsilon(f"cannot scale state by eps = {eps}")
    return np.asarray(s, dtype=float) / eps


def unscale_state(S, eps: float) -> np.ndarray:
    """Inverse of scale_state: (x, y, z) = eps * (X, Y, Z)."""
    return eps * np.asarray(S, dtype=float)


def jordan_to_xyz(j, delta: float) -> np.ndarray:
    """Map Jordan coordinates (u, v, w) to the scaled state (X, Y, Z).

    X = w + v/delta, Y = u, Z = -delta*v. At v = 0 the first component is
    exactly w, so the theta = 0 section image of (r, 0, w) is (w, r, 0).
    """
    u, v, w = j
    return np.array([w + v / delta, u, -delta * v])


def xyz_to_jordan(S, delta: float) -> np.ndarray:
    """Inverse map: u = Y, v = -Z/delta, w = X + Z/delta^2."""
    X, Y, Z = S
    return np.array([Y, -Z / delta, X + Z / delta ** 2])


def h1(jordan, unfolding: UnfoldingParams):
    """First order coupling term of the Jordan-form system.

    Linear in (u, v, w); accepts scalars or broadcasting arrays.
    """
    u, v, w = jordan
    d = unfolding.delta
    return (
        unfolding.b1 * v / d ** 3
        - (unfolding.c1 * u - unfolding.b1 * w) / d ** 2
        - unfolding.a1 * v / d
    )


def h2(jordan, unfolding: UnfoldingParams):
    """Second order coupling term, cubic in (u, v, w).

    The cubes are written as products: on arrays, ** 3 calls C pow, which
    is 30 to 70 times slower on negative entries.
    """
    u, v, w = jordan
    d = unfolding.delta
    return (
        v * v * v / d ** 5
        + 3.0 * v ** 2 * w / d ** 4
        + (unfolding.b2 - u ** 2 + 3.0 * w ** 2) * v / d ** 3
        - (unfolding.c2 * u + (u ** 2 - unfolding.b2) * w - w * w * w) / d ** 2
        - unfolding.a2 * v / d
    )


def theta_rhs(cyl, unfolding: UnfoldingParams, eps: float) -> np.ndarray:
    """Exact (dr/dtheta, dw/dtheta) of the angular system, no truncation.

    Parameters
    ----------
    cyl : (r, theta, w) with r > 0
    unfolding : UnfoldingParams
    eps : perturbation strength

    Raises
    ------
    SingularDenominator when |r + eps*cos(theta)*(h1 + eps*h2)| < 1e-12.
    """
    r, theta, w = cyl
    d = unfolding.delta
    u, v = r * np.cos(theta), r * np.sin(theta)
    H = h1((u, v, w), unfolding) + eps * h2((u, v, w), unfolding)
    den = r + eps * np.cos(theta) * H
    if abs(den) < DENOMINATOR_TOL:
        raise SingularDenominator(
            f"denominator {den:.3e} at r={r}, theta={theta}, eps={eps}"
        )
    common = eps * H / den
    return np.array([common * r * np.sin(theta), -common * r / d])


def jerk_standard_form(unfolding: UnfoldingParams) -> StandardFormSystem:
    """Standard form of the angular system: n = 2, T = 2*pi, z = (r, w).

    F1 = h1 * (sin(theta), -1/delta) and
    F2 = (h2*r - h1^2*cos(theta)) / r * (sin(theta), -1/delta), both with
    h1, h2 evaluated at (r*cos(theta), r*sin(theta), w). These are the first
    and second order terms of the eps-expansion of theta_rhs; a Richardson
    test against the exact quotient pins the O(eps^3) remainder. The domain
    requires r > 0. df1 is analytic and independent of z since h1 is linear
    in its arguments, so it has shape (2, 2, m).
    """
    d = unfolding.delta
    # h1 = hu*u + hv*v + hw*w with constant coefficients
    hu = -unfolding.c1 / d ** 2
    hv = unfolding.b1 / d ** 3 - unfolding.a1 / d
    hw = unfolding.b1 / d ** 2

    def angles(z, theta):
        """(r, w, sin, cos), with z's batch axes ahead of theta's axes."""
        th = np.asarray(theta, dtype=float)
        r, w = np.reshape(z, np.shape(z) + (1,) * th.ndim)
        return r, w, np.sin(th), np.cos(th)

    def f1(z, theta):
        r, w, sin, cos = angles(z, theta)
        h = hu * r * cos + hv * r * sin + hw * w
        return np.array([h * sin, -h / d])

    def f2(z, theta):
        r, w, sin, cos = angles(z, theta)
        u, v = r * cos, r * sin
        h1v = hu * u + hv * v + hw * w
        h2v = h2((u, v, w), unfolding)
        common = (h2v * r - h1v * h1v * cos) / r
        return np.array([common * sin, -common / d])

    def df1(z, theta):
        sin, cos = np.sin(theta), np.cos(theta)
        # dh/dr and dh/dw, the same for every z
        grad = np.array(np.broadcast_arrays(hu * cos + hv * sin, hw))
        return np.array([sin * grad, -grad / d])

    return StandardFormSystem(period=2.0 * np.pi, f1=f1, f2=f2, df1=df1)
