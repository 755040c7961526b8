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

This module owns the polynomial terms of the standard form: their exponent
tables (H2_EXPONENTS for h2), h2's theta-coefficients (h2_coefficients)
and monomials, the one evaluator of an exponent table's monomials, which
the standard form's evaluators and the averaging engine share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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

#: exponents (i, j) of the monomials r^i w^j of h2 at (r cos(theta),
#: r sin(theta), w), in the order of the rows of h2_coefficients
H2_EXPONENTS = ((3, 0), (2, 1), (1, 0), (1, 2), (0, 1), (0, 3))


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

    Each evaluator takes states z of shape (n, *batch) and times of shape
    m: f1 and f2 give shape (n, *batch, m), and df1, the Jacobian of f1
    with respect to z, gives (n, n, *batch, m), or (n, n, m) when it does
    not depend on z. A single state is the case batch = ().

    polynomials, when set, is the pair ((E1, C1), (E2, C2)) of exponent
    and coefficient tables behind f1 and f2: F(z, t) is the sum over k of
    z^E[k] C(t)[:, k], where an exponent table is a (K, n) tuple of
    integer tuples, row k the monomial prod_i z_i^E[k][i] (see monomials;
    a negative exponent divides), and a coefficient table maps times of
    shape (m,) to (n, K, m). F1 must be linear, E1 the identity, so that
    DF1 = C1. The averaging engine then takes the theta-means of the
    tables once per node set and evaluates every point as a polynomial;
    without the field it samples f1, f2 and df1 at every point and node,
    which is the reference path. A copy made with dataclasses.replace
    keeps the field, so replace f1 or f2 only by callables with the same
    values.
    """

    period: float
    f1: Callable
    f2: Callable
    df1: Callable
    polynomials: tuple | None = None


def unfold(u: UnfoldingParams, eps: float) -> SystemParams:
    """Physical (a, b, c) for the perturbation strength eps."""
    return SystemParams(
        a=eps * u.a1 + eps * eps * u.a2,
        b=eps * u.b1 + eps * eps * u.b2,
        c=-u.delta ** 2 + eps * u.c1 + eps * eps * u.c2,
    )


def h2_coefficients(unfolding: UnfoldingParams, sin, cos) -> tuple:
    """The theta-coefficients of h2 over the monomials of H2_EXPONENTS.

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
    h1 = r p + hw w with p = hu c + hv s, so F1 has the exponents
    (1, 0), (0, 1) of r and w. h2 has those of H2_EXPONENTS and the
    coefficients of h2_coefficients. The -h1^2 c / r of F2 adds
    -r p^2 c and -2 hw p c w to the rows of r and w, and -hw^2 c w^2 / r
    as a seventh monomial, of exponents (-1, 2). Each table is these
    coefficients times (s, -1/delta) on the given nodes; f1, f2 and df1
    are built from the same tables, f1 and f2 as one matmul of the
    (points, monomials) table with them. The reference formulas of h1,
    h2 and theta_rhs, which the tests hold these tables to, are in
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

    f1_table = tabulate(f1_coefficients)
    polynomials = ((((1, 0), (0, 1)), f1_table),
                   (H2_EXPONENTS + ((-1, 2),), tabulate(f2_coefficients)))
    f1, f2 = (_polynomial_field(*pair) for pair in polynomials)

    def df1(z, theta):
        # F1 is linear in z, so its Jacobian is its table, the same for every z
        th = np.asarray(theta, dtype=float)
        return f1_table(th.ravel()).reshape((2, 2) + th.shape)

    return StandardFormSystem(period=2.0 * np.pi, f1=f1, f2=f2, df1=df1,
                              polynomials=polynomials)


@lru_cache(maxsize=64)
def _monomial_program(exponents: tuple) -> tuple:
    """monomials' straight-line code for one table, built once.

    Slot 0 holds ones, made only where an op or a row uses it, and slot
    1 + i the variable z_i; each op (ufunc, a, b) makes the next slot from
    slots a and b, and each output row is a slot. A slot is keyed on its
    factors (i, k), z_i^k, in the order they are taken, k < 0 dividing,
    so every power, product and quotient is made once however many rows
    share it.
    """
    n, ops = len(exponents[0]), []
    slots = {(): 0} | {((i, 1),): 1 + i for i in range(n)}

    def slot(key):
        if key not in slots:
            *head, (i, k) = key
            if head or k < 0:  # head times or over one power
                args = slot(tuple(head)), slot(((i, abs(k)),))
            else:  # a power, from the one below it
                args = slot(((i, k - 1),)), 1 + i
            ops.append((np.divide if k < 0 else np.multiply, *args))
            slots[key] = n + len(ops)
        return slots[key]

    rows = []
    for row in exponents:
        factors = [(i, e) for i, e in enumerate(row) if e]
        factors.sort(key=lambda factor: factor[1] < 0)
        rows.append(slot(tuple(factors)))
    uses_ones = 0 in {a for _, a, _ in ops} | set(rows)
    return tuple(ops), tuple(rows), uses_ones


def monomials(exponents: tuple, z):
    """The monomials of an exponent table at points z.

    exponents is a (K, n) tuple of integer tuples, row k the monomial
    prod_i z_i^exponents[k][i], and z a float array of shape (n, p).
    Returns the (K, p) values. Each product is formed in one fixed
    order: a power z_i^k by repeated multiplication, ((z_i z_i) z_i)...,
    the powers multiplied in the order of i, then divided by the powers
    of the negative exponents. So r^2 w is (r r) w, r w^2 is r (w w) and
    w^2 / r is (w w) / r.
    """
    ops, rows, uses_ones = _monomial_program(exponents)
    slots = [np.ones(z.shape[1]) if uses_ones else None, *z]
    for ufunc, a, b in ops:
        slots.append(ufunc(slots[a], slots[b]))
    return np.array([slots[s] for s in rows])


def _polynomial_field(exponents, table) -> Callable:
    """F(z, theta) = sum_k z^exponents[k] table(theta)[:, k], as an evaluator.

    The result has shape (n, *batch, *theta.shape), z's batch axes ahead
    of theta's axes.
    """
    def field(z, theta):
        th = np.asarray(theta, dtype=float)
        z = np.asarray(z, dtype=float)
        mono = monomials(exponents, z.reshape(len(z), -1))
        return (mono.T @ table(th.ravel())).reshape(z.shape + th.shape)
    return field
