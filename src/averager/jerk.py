"""Cubic jerk system: vector field, equilibria and their classification.

The model is the third order scalar equation x''' = -a x'' - b x + c x' + x x'^2 - x^3
written as a first order system in (x, y, z) = (position, velocity, acceleration).
unfold gives its parameter triple (a, b, c) near the zero-Hopf point
(0, 0, -delta^2) from the perturbation coefficients of UnfoldingParams.

This module, closed_form and config are the package's scalar layer: they
import no numpy, so `import averager.cli` and the classify command load
none. classify_equilibrium gives the kind of an equilibrium from the
roots of its characteristic cubic (_cubic_roots, in float and complex
arithmetic); the paper's other classification, the orbit count of an
unfolding, is closed_form.predicted_roots. The numpy reference that the
roots are tested against is numpy_eigenvalues in tests/reference.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

#: tolerance for calling an eigenvalue (or its real part) zero
TOL_EIG = 1e-10

#: residual bound for accepting a state as an equilibrium, relative to the
#: largest term of the vector field at the state (floored at 1)
RESIDUAL_TOL = 1e-9

#: range of delta accepted. The closed forms and the coefficient tables
#: take delta to powers up to 6 and down to -6 (the d2 ** 3 of
#: closed_form.predicted_roots, the s^3 / d^5 row of
#: normal_form.h2_coefficients times -1/delta), which must stay doubles
#: with room for the factors
#: they meet: 1e50 ** 6 = 1e300 lies 1e8 below the largest double, and
#: 1e-50 ** 6 = 1e-300 above the smallest normal one, 2.2e-308.
#: closed_form.higher_averages forms only d^2, 1 / d^2, 1 / d^3 and
#: 1 / d^5 and takes every higher power as a factor of a Horner sum in
#: 1 / d^2. closed_form.root_corrections(u, r, w) of every root was
#: finite on 17323 drawn directions with |a2|, |b2|, |c1|, |c2| in
#: [1e-30, 1e30] and delta in [1e-30, 1e30], log-uniform; far beyond, as
#: at |a2| > 1e60 with delta > 1e30, a sum can overflow, and where Dg
#: rounds to a singular matrix both corrections are NaN. shoot_orbit then
#: drops the seed shift
MIN_DELTA, MAX_DELTA = 1e-50, 1e50


class NotAnEquilibrium(ValueError):
    """The state handed to the classifier does not annihilate the vector field."""


class EquilibriumKind(Enum):
    HYPERBOLIC = "hyperbolic"
    ZERO_HOPF = "zero-hopf"
    OTHER_NONHYPERBOLIC = "other-nonhyperbolic"


@dataclass(frozen=True)
class SystemParams:
    """Parameter triple of the jerk system. No sign restrictions."""

    a: float
    b: float
    c: float


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
class EquilibriumClass:
    """Classification result for one equilibrium.

    point is the state as a triple of floats; eigenvalues are the roots
    of the characteristic cubic at the point, as complex numbers, sorted
    by real part, then imaginary part.
    """

    point: tuple
    eigenvalues: tuple
    kind: EquilibriumKind


def unfold(u: UnfoldingParams, eps: float) -> SystemParams:
    """Physical (a, b, c) for the perturbation strength eps."""
    return SystemParams(
        a=eps * u.a1 + eps * eps * u.a2,
        b=eps * u.b1 + eps * eps * u.b2,
        c=-u.delta ** 2 + eps * u.c1 + eps * eps * u.c2,
    )


def _cube(x: float) -> float:
    """x^3, infinite where it leaves the double range, as in float64
    arithmetic: the power of a Python float raises OverflowError there."""
    try:
        return x ** 3
    except OverflowError:
        return math.copysign(math.inf, x)


def vector_field(p: SystemParams, s) -> tuple:
    """Right hand side (x', y', z') of the jerk system at state s = (x, y, z)."""
    x, y, z = s
    return (y, z, -p.a * z - p.b * x + p.c * y + x * y * y - _cube(x))


def equilibria(p: SystemParams) -> list[tuple]:
    """All equilibria: the origin, plus (+-sqrt(-b), 0, 0) when b < 0.

    For b = 0 the cubic root at the origin is triple and only the origin is
    returned.
    """
    points = [(0.0, 0.0, 0.0)]
    if p.b < 0.0:
        x = math.sqrt(-p.b)
        points += [(x, 0.0, 0.0), (-x, 0.0, 0.0)]
    return points


def char_poly(p: SystemParams, x: float) -> tuple:
    """Coefficients (cubic first) of the characteristic polynomial at (x, 0, 0).

    p(lam) = -lam^3 - a lam^2 + c lam - b - 3 x^2.
    """
    return (-1.0, -p.a, p.c, -(p.b + 3.0 * x * x))


def _cubic_roots(a: float, b: float, c: float) -> list:
    """The three roots of lam^3 + a lam^2 + b lam + c as complex numbers.

    lam = 2^e mu, for the least e that takes each coefficient of the
    scaled cubic f(mu) = mu^3 + alpha mu^2 + beta mu + gamma below 1 in
    magnitude, scales exactly and keeps every intermediate in the double
    range; the roots of f then lie within |mu| < 2. Right of its
    inflection point -alpha / 3 f is convex, so Newton from mu = 2 falls
    monotonically onto the largest real root when that root lies there,
    that is when f <= 0 at the inflection; otherwise the reflected cubic
    -f(-mu) meets that condition, and the negative of its root is the
    smallest root of f. The steps stop where they no longer descend, and
    never pass the inflection. Newton steps on f then polish the root
    for as long as they lower |f|, as they polish every root here.
    Dividing the root out leaves a quadratic, taken from f's constant
    term when the root is at least the geometric mean of the other two
    and from its leading term otherwise, the stable direction of each
    (Press et al., Numerical Recipes, 3rd ed., 2007, section 9.5). The
    quadratic is solved without cancellation, and its roots are polished
    on f, in complex arithmetic for a pair, which is a root and its
    exact conjugate. At c = 0 the root 0 and the quadratic are exact, as
    at the zero-Hopf point, and are taken unpolished.
    """
    if not (a or b or c):
        return [0j, 0j, 0j]
    e = max(-(-math.frexp(v)[1] // k)
            for k, v in enumerate((a, b, c), 1) if v)
    alpha, beta, gamma = (math.ldexp(v, -k * e)
                          for k, v in enumerate((a, b, c), 1))

    def f(mu):
        """f(mu) and f'(mu)."""
        return (((mu + alpha) * mu + beta) * mu + gamma,
                (3.0 * mu + 2.0 * alpha) * mu + beta)

    def polished(mu):
        value, slope = f(mu)
        while slope:
            step = mu - value / slope
            step_value, step_slope = f(step)
            if not abs(step_value) < abs(value):
                break
            mu, value, slope = step, step_value, step_slope
        return mu

    root = 0.0
    if gamma:
        # s f(s nu) has its largest real root right of its inflection
        s = 1.0 if f(-alpha / 3.0)[0] <= 0.0 else -1.0
        nu, floor = 2.0, -s * alpha / 3.0
        while True:
            value, slope = f(s * nu)
            if not (s * value > 0.0 and slope > 0.0):
                break
            step = max(nu - s * value / slope, floor)
            if step >= nu:
                break
            nu = step
        # a step from far above a root much smaller than itself can land
        # below it, by round-off alone
        root = polished(s * nu)
    # f(mu) = (mu - root) (mu^2 + p mu + q): the quotient from the
    # constant term when the root is at least the geometric mean of the
    # other two, |root|^2 >= |q|, else from the leading one
    if root and abs(root) ** 3 >= abs(gamma):
        q = -gamma / root
        p = (q - beta) / root
    else:
        p = alpha + root
        q = beta + root * p
    h = 0.0 - 0.5 * p
    disc = h * h - q
    if disc < 0.0:
        pair = complex(h, math.sqrt(-disc))
        if gamma:
            pair = polished(pair)
        rest = [pair, pair.conjugate()]
    else:
        big = h + math.copysign(math.sqrt(disc), h)
        rest = [big, q / big if big else 0.0]
        if gamma:
            rest = [polished(mu) for mu in rest]

    def unscaled(v):
        """v 2^e, infinite beyond the double range, where ldexp raises."""
        try:
            return math.ldexp(v, e)
        except OverflowError:
            return math.copysign(math.inf, v)

    return [complex(unscaled(mu.real), unscaled(mu.imag))
            for mu in (root, *rest)]


def _eigenvalues(p: SystemParams, x: float) -> tuple:
    _, a, b, c = (-v for v in char_poly(p, x))
    return tuple(sorted(_cubic_roots(a, b, c),
                        key=lambda lam: (lam.real, lam.imag)))


def _kind_of(eigs) -> EquilibriumKind:
    # zero-Hopf: one eigenvalue of modulus ~0 plus a conjugate pair on the
    # imaginary axis but away from the origin
    by_modulus = sorted(range(3), key=lambda i: abs(eigs[i]))
    lam0 = eigs[by_modulus[0]]
    pair = eigs[by_modulus[1]], eigs[by_modulus[2]]
    if (
        abs(lam0) < TOL_EIG
        and all(abs(lam.real) < TOL_EIG for lam in pair)
        and all(abs(lam.imag) > TOL_EIG for lam in pair)
        and abs(pair[0] - pair[1].conjugate()) < TOL_EIG
    ):
        return EquilibriumKind.ZERO_HOPF
    if any(abs(lam.real) < TOL_EIG for lam in eigs):
        return EquilibriumKind.OTHER_NONHYPERBOLIC
    return EquilibriumKind.HYPERBOLIC


def classify_equilibrium(p: SystemParams, s) -> EquilibriumClass:
    """Classify an equilibrium of the jerk system by its eigenvalues.

    Parameters
    ----------
    p : SystemParams
    s : state triple, must be an equilibrium up to RESIDUAL_TOL times the
        largest magnitude among the field's terms at s, floored at 1

    Returns
    -------
    EquilibriumClass with eigenvalues sorted by (real, imag) and the kind
    flag. ZERO_HOPF means one zero eigenvalue plus a purely imaginary
    conjugate pair, which for the origin happens exactly at a = b = 0, c < 0.
    Eigenvalues within TOL_EIG of the imaginary axis count as on it.

    Raises
    ------
    NotAnEquilibrium if the vector field residual at s exceeds that bound,
    or is not a number because a term overflowed.
    At x = +-sqrt(-b) the terms b x and x^3 are of size |b|^1.5, so their
    rounding alone would exceed an absolute bound once |b| passes about 1e4.
    """
    point = tuple(map(float, s))
    x, y, z = point
    # a term that overflows makes the residual inf or NaN, which is
    # refused; max keeps a NaN only in first place, so the field's third
    # component, NaN whenever a coordinate is, comes first
    residual = max(map(abs, reversed(vector_field(p, point))))
    terms = (y, z, p.a * z, p.b * x, p.c * y, x * y * y, _cube(x))
    if not residual <= RESIDUAL_TOL * max(1.0, *map(abs, terms)):
        raise NotAnEquilibrium(
            f"state {list(point)} has field residual {residual:.3e}"
        )
    eigs = _eigenvalues(p, x)
    return EquilibriumClass(point=point, eigenvalues=eigs, kind=_kind_of(eigs))
