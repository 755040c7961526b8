"""Coordinate pipeline from the jerk system to averaging standard form.

The chain is: unfold the parameters around the zero-Hopf point (0, 0, -delta^2),
scale the state by eps, apply the linear change to real Jordan coordinates
(u, v, w), pass to cylindrical coordinates (r, theta, w) and take theta as the
independent variable. The result is a 2-pi periodic planar system in z = (r, w)
of the form dz/dtheta = eps F1(z, theta) + eps^2 F2(z, theta) + O(eps^3), which
is what the averaging engine consumes.

The package runs that chain only as its end result: unfold gives the
physical parameters, and jerk_standard_form the polynomial tables of F1
and F2. The step-by-step formulas of the chain, the state scaling, the
Jordan change, the coupling terms h1 and h2 and the exact angular field
theta_rhs, are the independent derivation the tables are tested against;
they live in the test suite, in tests/reference.py.

This module owns the polynomial terms of the standard form: h2's
theta-coefficients (h2_coefficients) and f2_monomials, the seven
monomials of (r, w) that F2's coefficients multiply, which the standard
form's f2 and the averaging engine share. F1 is linear in z, so it needs
no monomials of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .jerk import SystemParams

#: range of delta accepted. The closed forms and the coefficient tables
#: take delta to powers up to 6 and down to -6 (the d2 ** 3 of
#: closed_form.predicted_roots, the s^3 / d^5 row of h2_coefficients
#: times -1/delta), which must stay doubles with room for the factors
#: they meet: 1e50 ** 6 = 1e300 lies 1e8 below the largest double, and
#: 1e-50 ** 6 = 1e-300 above the smallest normal one, 2.2e-308.
#: closed_form.higher_averages forms only d^2, 1 / d^2, 1 / d^3 and
#: 1 / d^5 and takes every higher power as a factor of a Horner sum in
#: 1 / d^2. Its root corrections were finite on every scanned direction
#: with |a2|, |b2|, |c1|, |c2| <= 1e30 and delta in [1e-30, 1e30]; far
#: beyond, as at |a2| > 1e60 with delta > 1e30, a sum can overflow, and
#: shoot_orbit then drops the seed shift
MIN_DELTA, MAX_DELTA = 1e-50, 1e50


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
        if not MIN_DELTA <= self.delta <= MAX_DELTA:
            raise ValueError(f"delta must be in [{MIN_DELTA:g}, {MAX_DELTA:g}], "
                             f"got {self.delta}")


@dataclass(frozen=True)
class StandardFormSystem:
    """A T-periodic field dz/dt = eps F1(z, t) + eps^2 F2(z, t) + O(eps^3).

    polynomials is the triple (C1, m2, C2) behind F1 and F2:
    F1(z, t) = C1(t) z and F2(z, t) = C2(t) m2(z), where C1 maps times of
    shape (m,) to (n, n, m), so that DF1 = C1, m2 maps points of shape
    (n, p) to the (K, p) monomials of F2, and C2 maps times to (n, K, m).
    The averaging engine reads only the period and this triple.

    f1, f2 and df1 evaluate the same field pointwise, for the sampled
    reference in tests/reference.py: each takes states z of shape
    (n, *batch) and times of shape m; f1 and f2 give shape (n, *batch, m),
    and df1, the Jacobian of f1 with respect to z, gives (n, n, *batch, m),
    or (n, n, m) when it does not depend on z. A single state is the case
    batch = (). A copy made with dataclasses.replace keeps the triple, so
    replace f1 or f2 only by callables with the same values.
    """

    period: float
    f1: Callable
    f2: Callable
    df1: Callable
    polynomials: tuple


def unfold(u: UnfoldingParams, eps: float) -> SystemParams:
    """Physical (a, b, c) for the perturbation strength eps."""
    return SystemParams(
        a=eps * u.a1 + eps * eps * u.a2,
        b=eps * u.b1 + eps * eps * u.b2,
        c=-u.delta ** 2 + eps * u.c1 + eps * eps * u.c2,
    )


def h2_coefficients(unfolding: UnfoldingParams, sin, cos) -> tuple:
    """The theta-coefficients of h2 over the monomials r^3, r^2 w, r, r w^2,
    w and w^3, the first six rows of f2_monomials.

    With s, c = sin, cos of theta and d = delta, h2 at
    (r c, r s, w) is r^3 A + r^2 w B + r P + r w^2 D + w b2 / d^2
    + w^3 / d^2, and the rows are A = s^3/d^5 - c^2 s/d^3,
    B = 3 s^2/d^4 - c^2/d^2, P = b2 s/d^3 - c2 c/d^2 - a2 s/d,
    D = 3 s/d^3, b2/d^2 and 1/d^2, in that order; the last two are
    scalars.
    """
    d, a2, b2, c2 = unfolding.delta, unfolding.a2, unfolding.b2, unfolding.c2
    return ((sin * sin / d ** 2 - cos * cos) * sin / d ** 3,
            3.0 * sin * sin / d ** 4 - cos * cos / d ** 2,
            (b2 / d ** 3 - a2 / d) * sin - c2 / d ** 2 * cos,
            3.0 * sin / d ** 3,
            b2 / d ** 2,
            1.0 / d ** 2)


def jerk_standard_form(unfolding: UnfoldingParams) -> StandardFormSystem:
    """Standard form of the angular system: n = 2, T = 2*pi, z = (r, w).

    F1 = h1 * (sin(theta), -1/delta) and
    F2 = (h2*r - h1^2*cos(theta)) / r * (sin(theta), -1/delta), both with
    h1, h2 evaluated at (r*cos(theta), r*sin(theta), w). These are the first
    and second order terms of the eps-expansion of theta_rhs; a Richardson
    test against the exact quotient pins the O(eps^3) remainder. The domain
    requires r > 0. df1 is analytic and independent of z since h1 is linear
    in its arguments, so it has shape (2, 2, m).

    f1 and f2 are polynomials in (r, w) whose coefficients depend on theta
    alone, and the system carries them as its polynomials field. With
    s, c = sin(theta), cos(theta) and h1 = hu u + hv v + hw w:
    h1 = r p + hw w with p = hu c + hv s, so F1 is linear in (r, w). h2
    has the coefficients of h2_coefficients over the first six of
    f2_monomials. The -h1^2 c / r of F2 adds -r p^2 c and -2 hw p c w to
    the rows of r and w, and -hw^2 c w^2 / r over the seventh monomial.
    Each table is these coefficients times (s, -1/delta) on the given
    nodes; f1, f2 and df1 are built from the same tables, f1 and f2 as
    one matmul of the (points, monomials) table with them, the monomials
    of F1 being z itself. The reference formulas of h1, h2 and
    theta_rhs, which the tests hold these tables to, are in
    tests/reference.py.
    """
    d = unfolding.delta
    # h1 = hu*u + hv*v + hw*w with constant coefficients
    hu = -unfolding.c1 / d ** 2
    hv = unfolding.b1 / d ** 3 - unfolding.a1 / d
    hw = unfolding.b1 / d ** 2

    def tabulate(coefficients):
        """(sin, -1/d) * coefficients(sin, cos) on nodes of shape (m,)."""
        def table(theta):
            sin, cos = np.sin(theta), np.cos(theta)
            coef = np.array(np.broadcast_arrays(*coefficients(sin, cos)))
            return np.array([coef * sin, coef / -d])
        return table

    def f1_coefficients(sin, cos):
        return hu * cos + hv * sin, hw

    def f2_coefficients(sin, cos):
        p = hu * cos + hv * sin
        p_cos = p * cos
        rows = list(h2_coefficients(unfolding, sin, cos))
        rows[2] = rows[2] - p * p_cos
        rows[4] = rows[4] - 2.0 * hw * p_cos
        return (*rows, -hw * hw * cos)

    c1, c2 = tabulate(f1_coefficients), tabulate(f2_coefficients)

    def field(monomials, table):
        def f(z, theta):
            th, z = np.asarray(theta, dtype=float), np.asarray(z, dtype=float)
            values = monomials(z.reshape(len(z), -1)).T @ table(th.ravel())
            return values.reshape(z.shape + th.shape)
        return f

    def df1(z, theta):
        # F1 is linear in z, so its Jacobian is its table, the same for every z
        th = np.asarray(theta, dtype=float)
        return c1(th.ravel()).reshape((2, 2) + th.shape)

    return StandardFormSystem(period=2.0 * np.pi, f1=field(np.array, c1),
                              f2=field(f2_monomials, c2), df1=df1,
                              polynomials=(c1, f2_monomials, c2))


def f2_monomials(z):
    """The monomials of F2 at points z of shape (2, p): the (7, p) rows
    r^3, r^2 w, r, r w^2, w, w^3 and w^2 / r, each product formed in one
    fixed order from rr = r r and ww = w w."""
    r, w = z
    rr, ww = r * r, w * w
    return np.array([rr * r, rr * w, r, r * ww, w, ww * w, ww / r])
