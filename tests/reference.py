"""The reference derivation of the standard form, step by step.

The package runs the chain from the jerk system to the averaging standard
form only as precomputed polynomial tables (normal_form.jerk_standard_form
and closed_form). The formulas here are the chain written out one step at
a time, as the paper derives it: scale the state by eps, change to real
Jordan coordinates (u, v, w), read off the coupling terms h1 and h2, pass
to cylindrical coordinates and take theta as the independent variable.
They are the independent derivation the tables are tested against: F1
and F2 must be the eps-expansion of theta_rhs, and theta_rhs must be the
vector field through the coordinate chain. jacobian_at is the Jacobian of
the jerk field, for the variational equations of the DOP853 oracle.
"""

import numpy as np

from averager.jerk import SystemParams
from averager.normal_form import UnfoldingParams

#: below this magnitude eps is considered degenerate for state scaling
EPS_FLOOR = 1e-300

#: guard for the division by r + eps*cos(theta)*(h1 + eps*h2)
DENOMINATOR_TOL = 1e-12


class DegenerateEpsilon(ValueError):
    """eps is too close to zero to divide the state by it."""


class SingularDenominator(ValueError):
    """The angular reduction hit a vanishing denominator."""


def jacobian_at(p: SystemParams, s) -> np.ndarray:
    """Jacobian matrix of the jerk vector field at state s."""
    x, y, _ = s
    return np.array([
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [-p.b + y * y - 3.0 * x * x, p.c + 2.0 * x * y, -p.a],
    ])


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
