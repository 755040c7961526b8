"""Locating true periodic orbits of the jerk system by section shooting.

The predictions of the averaged analysis are (r, w) roots; mapped through
the coordinate pipeline at theta = 0 they give points on the plane section
{z = 0, y > 0}, crossed with dz/dt < 0. Newton iteration on the first
return map of that section turns each prediction into an actual periodic
orbit of the full nonlinear system.

The field is odd, (x, y, z) -> -(x, y, z) maps orbits to orbits, so the
unit of integration is half a return. The half return M takes a section
point q to the first upward crossing m of the mirrored section
{z = 0, y < 0}, and the reflection -m lies on the section again. The
return map is the odd square of M, P(q) = -M(-M(q)): two legs, the second
from -m, reflected. Each leg is one Taylor leg of the state, followed by
one batched linear solve for the fundamental matrix of its variational
equations, which gives the crossing, the exact Jacobian of M, the dense
output of the flight and, composed over both legs at the fixed point, the
monodromy matrix whose eigenvalues are the Floquet multipliers. The
accepted return at the fixed point is the only integration of a located
orbit: its trace is sampled from that return's dense output.

The w = 0 roots are their own mirror images, and so are their orbits:
such an orbit closes after half a period up to the reflection, a fixed
point of the half map T(q) = -M(q) (Golubitsky and Stewart, The Symmetry
Perspective, 2002). Newton on T integrates one leg per iteration, and
one more leg from the fixed point completes the full return that accepts
the orbit.

Newton starts from up to three candidate seeds, in this order: mirror,
warm-start and section-image. The paired roots (r, w) and (r, -w)
predict two orbits that are point reflections of each other. Once the +w
orbit is located, the seed of the -w orbit is -m of its partner's
accepted return, and the second leg of that return is the half return
from exactly that point; so the first return from the mirror seed
integrates one new leg, and Newton typically accepts on it. A warm start
is the fixed point of a nearby eps, and the section image is the
theta = 0 image of the averaged root. Every orbit is accepted only on
its own full return, whatever its seed.

The field is a cubic polynomial, so every flow is integrated by a Taylor
series method (Jorba and Zou, Experimental Mathematics 14, 2005): short
recurrences give the Taylor coefficients of the state, at two Cauchy
products per order, and the step polynomials are the dense output. The
tol of an IntegratorSpec sets every step by Jorba and Zou's rule with
equal absolute and relative tolerances: the order is ceil(1 - ln(tol) / 2),
the same for every step of a leg, and the step is the radius of
convergence estimated from the last two coefficients on the scale
max(1, |s|_inf), divided by e^2. A half return is one leg of such steps,
scanned for the first upward crossing of the mirrored section; max_steps
bounds the steps of one leg.

The variational equations Phi' = J Phi are linear in Phi, so they need no
step-by-step recurrence of their own. Each step keeps its x and
y^2 - x^2 series, which the state recurrence computes anyway. Once the
crossing is found, one batched product of the steps' x series gives
x^2, and with it the Taylor series of the state-dependent entries of J
on every step. The Taylor coefficients of every step's transition matrix
then solve one lower-triangular system per step, in one batched solve
over the leg; the leg's Phi is the ordered product of the transitions,
each evaluated at its step length and the last one at the crossing.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cache
from operator import mul
from typing import Optional

import numpy as np

from .closed_form import (
    DegeneratePrediction,
    OrbitCount,
    OrbitPrediction,
    predicted_roots,
    require_first_order_zero,
)
from .jerk import SystemParams, vector_field
from .normal_form import UnfoldingParams, unfold

logger = logging.getLogger(__name__)

#: bound on |eps| accepted by the shooter
MAX_EPS = 0.2

#: residual bound on the return-map displacement
SHOOT_TOL = 1e-10

#: Newton iterations on the return map before a candidate seed is given up
MAX_NEWTON_ITER = 25

#: total flight-time budget of one return to the section
RETURN_T_MAX = 100.0

#: samples per period in an orbit's trace
TRACE_SAMPLES = 512

#: smallest tol accepted: an error below 100 units in the last place is
#: lost in the round-off of the Taylor sums
MIN_TOL = 100 * np.finfo(float).eps

#: largest tol accepted. Newton converges at a looser tol too, to a
#: wrong orbit: on the showcase at eps 0.1 the section point of orbit 0
#: moves from its place at the default tol by 4.6e-7 at tol 1e-6, by
#: 6.4e-5 at 1e-4 and by 0.17 at 0.5 (largest coordinate)
MAX_TOL = 1e-6

#: fractions of a Taylor step at which its z polynomial is sampled for a
#: crossing: the start, 8 interior points and the end
_CROSSING_FRACTIONS = np.linspace(0.0, 1.0, 10)

#: relative margin by which |z_0| must exceed the sum of the other terms of
#: a step's z polynomial for the step to be passed over without sampling
_SIGN_MARGIN = 1e-9


class StepLimitExceeded(RuntimeError):
    """The integrator used more steps than IntegratorSpec.max_steps allows."""


class StepUnderflow(RuntimeError):
    """The integrator reduced the step below what double precision resolves."""


class NoReturn(RuntimeError):
    """The trajectory never re-crossed the section within the time budget."""


class ShootingDiverged(RuntimeError):
    """Newton on the return map failed from every candidate seed."""


class SeedInvalid(ValueError):
    """The averaged seed is unusable (r <= 0 or not finite)."""


#: the failures of one return to the section
_RETURN_ERRORS = (NoReturn, StepLimitExceeded, StepUnderflow)

#: the failures of one orbit's shooting that a caller records and moves past
SHOOTING_ERRORS = (ShootingDiverged, SeedInvalid)


@dataclass(frozen=True)
class IntegratorSpec:
    """Tolerance and step budget of the Taylor integrator.

    tol, in [MIN_TOL, MAX_TOL], sets the order and the step length of
    every step (see the module docstring); beyond MAX_TOL the located
    orbits drift from the true ones while Newton still converges.
    max_steps bounds the steps of one return to the section.
    """

    tol: float = 1e-11
    max_steps: int = 1_000_000

    def __post_init__(self):
        if not MIN_TOL <= self.tol <= MAX_TOL:
            raise ValueError(f"tol must be in [{MIN_TOL:.3g}, {MAX_TOL:g}], "
                             f"got {self.tol}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be at least 1, got {self.max_steps}")


@dataclass(frozen=True)
class PeriodicOrbitRecord:
    """One located periodic orbit of the full system."""

    eps: float
    section_point: np.ndarray
    period: float
    residual: float
    floquet: np.ndarray
    seed: tuple
    #: (times, states): TRACE_SAMPLES uniform times over [0, period] and the
    #: (TRACE_SAMPLES, 3) states there, from the return that located the orbit
    trace: tuple
    #: (m, leg) of the return that located the orbit: m, the (x, y) of its
    #: crossing of {z = 0, y < 0}, and leg, its second half, the
    #: half_return from -m. -m is the mirror seed of the partner orbit, and
    #: leg the first half of that orbit's first return
    mirror_leg: tuple
    #: the candidate Newton converged from: mirror, warm-start or section-image
    seed_candidate: str
    #: return-map calls spent on this orbit, half or full: half returns of
    #: Newton on T, and poincare_return calls
    returns: int
    #: |trivial Floquet multiplier - 1|
    trivial_multiplier_defect: float
    #: |(dP/dq - I)^-1 (P(q) - q)| at the accepted point: the Newton part of
    #: the location error, which residual does not bound where dP/dq is
    #: close to I
    newton_step: float


def _taylor_coefficients(p: SystemParams, s: list, order: int):
    """Taylor coefficients of the flow at s, and of y^2 - x^2.

    Returns the lists x, y and z of the order + 1 coefficients of each
    coordinate, and the list of the coefficients 0 to order - 1 of
    y^2 - x^2. z' = -a z - b x + c y + x (y^2 - x^2) takes two Cauchy
    products per order: y^2 - x^2 as (y - x)(y + x), and x (y^2 - x^2).
    The x and y^2 - x^2 series are all _jacobian_series needs.
    """
    a, b, c = p.a, p.b, p.c
    x, y, z = [s[0]], [s[1]], [s[2]]
    minus, plus = [s[1] - s[0]], [s[1] + s[0]]  # y - x, y + x
    quad = []  # y^2 - x^2
    for k in range(order):
        quad.append(sum(map(mul, minus, reversed(plus))))
        inv = 1.0 / (k + 1)
        z.append((c * y[k] - b * x[k] - a * z[k]
                  + sum(map(mul, x, reversed(quad)))) * inv)
        x.append(y[k] * inv)
        y.append(z[k] * inv)
        minus.append(y[-1] - x[-1])
        plus.append(y[-1] + x[-1])
    return x, y, z, quad


@cache
def _antidiagonal_sums(n: int) -> np.ndarray:
    """The (n * n, n) matrix that sums the flattened outer product of two
    series along its antidiagonals: their Cauchy product to n terms."""
    m = np.arange(n)
    return np.equal.outer(np.add.outer(m, m).ravel(), m).astype(float)


def _jacobian_series(p: SystemParams, xs: list, quads: list) -> np.ndarray:
    """Taylor series of the entries of row 2 of J on every step of a leg.

    xs and quads hold the x and y^2 - x^2 coefficients of each step, from
    _taylor_coefficients. The entries that vary along the flow are
    -b + y^2 - 3 x^2 = -b + (y^2 - x^2) - 2 x^2 and c + 2 x y, and as
    x' = y, 2 x y is (x^2)', whose k-th coefficient is (k + 1) (x^2)_{k+1}.
    So x^2 is the one series left to build: one batched product of the
    steps' x coefficients, summed along antidiagonals. Returns the
    (steps, 2, order) array of the two series.
    """
    x = np.array(xs)
    steps, n = x.shape
    square = ((x[:, :, None] * x[:, None, :]).reshape(steps, -1)
              @ _antidiagonal_sums(n))
    jac = np.empty((steps, 2, n - 1))
    jac[:, 0] = np.array(quads) - 2.0 * square[:, :-1]
    jac[:, 1] = square[:, 1:] * np.arange(1, n)
    jac[:, 0, 0] -= p.b
    jac[:, 1, 0] += p.c
    return jac


@cache
def _transition_system(order: int):
    """The variational recurrence of one Taylor step as a linear system.

    A column (u, v, w) of the fundamental matrix Psi of a step, with
    Psi(0) = I, has Taylor coefficients u_{k+1} = v_k / (k + 1),
    v_{k+1} = w_k / (k + 1) and
    w_{k+1} = (sum_j J0_j u_{k-j} + J1_j v_{k-j} - a w_k) / (k + 1),
    where J0 and J1 are the series of _jacobian_series. So
    u_m = alpha_m c_m and v_m = beta_m c_{m+1} for the unknowns
    c = (u_0, v_0, w_0, ..., w_order), where alpha_m = 1 / (m (m - 1)) for
    m >= 2, beta_m = 1 / m for m >= 1, and both are 1 below that. The
    recurrence is then the lower-triangular system L c = [I; 0], whose L
    is linear in J0, J1 and a.

    Returns (fixed, basis, sub, gains): L = fixed + a sub - J @ basis, with
    J = (J0, J1) flattened to length 2 order and basis reshaped to
    (2 order, n, n) for n = order + 3; and gains, the (order + 1, 3, n)
    array with Psi(tau) = sum_m tau^m gains[m] @ c.
    """
    n = order + 3
    m = np.arange(order + 1)
    alpha = 1.0 / np.maximum(m * (m - 1), 1)
    beta = 1.0 / np.maximum(m, 1)
    fixed = np.diag(np.concatenate([[1.0, 1.0], np.maximum(m, 1)]))
    sub = np.zeros((n, n))
    sub[m[1:] + 2, m[1:] + 1] = 1.0
    basis = np.zeros((2, order, n, n))
    for k in range(order):  # the row of w_{k+1}
        for j in range(k + 1):
            basis[0, j, k + 3, k - j] = alpha[k - j]
            basis[1, j, k + 3, k - j + 1] = beta[k - j]
    gains = np.zeros((order + 1, 3, n))
    gains[m, 0, m] = alpha
    gains[m, 1, m + 1] = beta
    gains[m, 2, m + 2] = 1.0
    return fixed, basis.reshape(2 * order, n * n), sub, gains


def _leg_transition(p: SystemParams, lengths: list, xs: list,
                    quads: list) -> np.ndarray:
    """Fundamental matrix, from the identity, over a leg of Taylor steps.

    lengths, xs and quads hold the length and the x and y^2 - x^2
    coefficients of each step in order. The steps share one order, so one
    _jacobian_series call gives the Jacobian series of every step, and one
    batched solve of _transition_system every step's transition; the
    leg's matrix is their ordered product.
    """
    jac = _jacobian_series(p, xs, quads)
    steps, _, order = jac.shape
    fixed, basis, sub, gains = _transition_system(order)
    n = len(fixed)
    lower = (fixed + p.a * sub
             - (jac.reshape(steps, -1) @ basis).reshape(-1, n, n))
    coef = np.linalg.solve(lower, np.eye(n, 3))
    weights = (np.array(lengths)[:, None] ** np.arange(order + 1)
               @ gains.reshape(order + 1, -1)).reshape(-1, 3, n)
    phi = np.eye(3)
    for step in weights @ coef:
        phi = step @ phi
    return phi


def _crossing_root(poly: list, lo: float, hi: float) -> float:
    """Root in [lo, hi] of sum(poly[k] u^k), whose signs at lo and hi differ.

    Newton steps from the midpoint, with a bisection wherever a step would
    leave the bracket, which shrinks around the root as it goes.
    """
    def value_and_slope(u):
        value = slope = 0.0
        for pk in reversed(poly):
            slope = slope * u + value
            value = value * u + pk
        return value, slope

    negative_at_lo = value_and_slope(lo)[0] < 0.0
    u = 0.5 * (lo + hi)
    for _ in range(100):
        value, slope = value_and_slope(u)
        if value == 0.0:
            break
        if (value < 0.0) == negative_at_lo:
            lo = u
        else:
            hi = u
        nxt = u - value / slope if slope != 0.0 else lo
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - u) <= 1e-15:
            return nxt
        u = nxt
    return u


def half_return(p: SystemParams, q, spec: IntegratorSpec):
    """Half return: from (q, 0) to the mirrored section {z = 0, y < 0}.

    The crossing is the first where z changes sign upward and y < 0; a
    start exactly on the section does not count as one. From a point of
    the section {z = 0, y > 0}, that is half a turn of the orbit, and the
    odd symmetry of the field maps the crossing back onto the section.

    The half return is one Taylor leg of the state from (q, 0), every step
    of the order and length that spec.tol sets (see the module docstring).
    A step's z polynomial is sampled at the _CROSSING_FRACTIONS of the step
    unless its first term outweighs the sum of the others, which rules out
    a sign change; each upward sign change is polished to a root by Newton
    on that polynomial, and one with y >= 0 is skipped. Phi at the
    crossing then comes from _leg_transition: one batched linear solve
    over the leg's steps, from the series each step kept.

    Parameters
    ----------
    q : (x, y) coordinates of the start on the plane z = 0
    spec : integrator budget

    Returns
    -------
    (m, flight_time, dM/dq, Phi, flow) at the polished root of the
    crossing, m = (x', y'). Phi is the fundamental matrix over the flight
    from (q, 0); dM/dq is Phi projected along the field f at the crossing
    onto the plane z = 0, (Phi - outer(f, Phi[2]) / f[2])[:2, :2]. flow
    maps a 1-d array of times in [0, flight_time] to the (len(t), 3)
    states there, the Taylor polynomials of the leg's steps by Horner's
    rule; flow(0) is (q, 0) exactly.

    Raises
    ------
    NoReturn when the flight-time budget RETURN_T_MAX is exhausted without
    a crossing; StepLimitExceeded when the leg needs more than
    spec.max_steps steps; StepUnderflow when a step falls below what
    double precision resolves or the Taylor coefficients are not finite.
    """
    order = math.ceil(1.0 - 0.5 * math.log(spec.tol))
    powers = range(order + 1)
    fraction_powers = _CROSSING_FRACTIONS[:, None] ** np.arange(order + 1)
    s = [float(q[0]), float(q[1]), 0.0]
    t = 0.0
    starts, polys = [], []  # start time and (x, y, z) coefficients of each step
    lengths, quads = [], []  # length and y^2 - x^2 coefficients of each step
    while t < RETURN_T_MAX:
        if len(polys) == spec.max_steps:
            raise StepLimitExceeded(
                f"more than {spec.max_steps} steps before t = {RETURN_T_MAX}")
        scale = max(1.0, abs(s[0]), abs(s[1]), abs(s[2]))
        x, y, z, quad = _taylor_coefficients(p, s, order)
        if not math.isfinite(x[-2] + y[-2] + z[-2] + x[-1] + y[-1] + z[-1]):
            raise StepUnderflow(f"non-finite Taylor coefficients at t = {t:.6g}")
        last = (max(abs(x[-2]), abs(y[-2]), abs(z[-2])),
                max(abs(x[-1]), abs(y[-1]), abs(z[-1])))
        radius = min((scale / norm) ** (1.0 / j) if norm > 0.0 else math.inf
                     for j, norm in zip((order - 1, order), last))
        h = radius * math.exp(-2.0)
        if not h > 10.0 * math.ulp(t):
            raise StepUnderflow(f"step {h:.3g} below the resolution at "
                                f"t = {t:.6g}")
        h = min(h, RETURN_T_MAX - t)
        starts.append(t)
        polys.append((x, y, z))
        quads.append(quad)
        h_powers = [h ** k for k in powers]
        zu = list(map(mul, z, h_powers))  # z as a polynomial in u = tau / h
        landing = None
        # z keeps the sign of zu[0] on the whole step where |zu[0]| exceeds
        # the sum of the other |zu[k]|; the margin covers the round-off
        if abs(zu[0]) <= (1.0 + _SIGN_MARGIN) * sum(map(abs, zu[1:])):
            samples = (fraction_powers @ zu).tolist()
            for i in range(len(samples) - 1):
                if samples[i] < 0.0 <= samples[i + 1]:
                    u = _crossing_root(zu, _CROSSING_FRACTIONS[i],
                                       _CROSSING_FRACTIONS[i + 1])
                    tau_powers = [(u * h) ** k for k in powers]
                    state = [sum(map(mul, coef, tau_powers))
                             for coef in (x, y, z)]
                    if state[1] < 0.0:
                        landing = u
                        break
        if landing is not None:
            lengths.append(landing * h)
            break
        lengths.append(h)
        s = [sum(map(mul, x, h_powers)), sum(map(mul, y, h_powers)), sum(zu)]
        t = t + h if h < RETURN_T_MAX - t else RETURN_T_MAX
    else:
        raise NoReturn(f"no crossing of the mirrored section within "
                       f"t_max={RETURN_T_MAX}")
    state[2] = 0.0
    phi = _leg_transition(p, lengths, [x for x, _, _ in polys], quads)

    def flow(t):
        t = np.asarray(t, dtype=float)
        step = np.searchsorted(starts[1:], t, side="right")
        tau = (t - np.array(starts)[step])[:, None]
        coef = np.array(polys).transpose(2, 0, 1)[:, step]
        states = coef[-1]
        for c in coef[-2::-1]:
            states = states * tau + c
        return states

    f = vector_field(p, state)
    jac = (phi - np.outer(f, phi[2]) / f[2])[:2, :2]
    return np.array(state[:2]), t + lengths[-1], jac, phi, flow


def poincare_return(p: SystemParams, q, spec: IntegratorSpec, first=None):
    """Return to the section {z = 0, y > 0}: P(q) = -M(-M(q)).

    The odd square of the half return M: the leg from (q, 0) to the
    mirrored section at m, then the leg from -m, reflected. P(q) is thus
    the first downward crossing of the section with y > 0 after the first
    upward crossing of the mirrored one. For the paper's orbits that is
    the first return itself, and so it is on every start checked against
    one whole-flight DOP853 pass, (1.1, 0.377) of the one-orbit direction
    (3, 1, 1) at eps 0.05 included, whose flight first crosses z = 0
    downward at y < 0. Only a flight that crossed the section before it
    crossed the mirrored one would return later than the first return.

    Parameters
    ----------
    q : (x, y) coordinates on the section
    spec : integrator budget, for each leg
    first : half_return(p, q, spec) when it is already integrated; only
        the second leg is integrated then

    Returns
    -------
    ((x', y'), flight_time, dP/dq, Phi, flow, (m, second)) at the polished
    crossing. flight_time is t1 + t2, the flights of the two legs; Phi is
    the fundamental matrix over the whole flight from (q, 0), Phi2 Phi1,
    the monodromy matrix at a fixed point; dP/dq = J2 J1, the product of
    the legs' dM/dq. flow maps a 1-d array of times in [0, flight_time] to
    the (len(t), 3) states there: the first leg up to t1, then the second
    leg reflected; flow(0) is (q, 0) exactly. m is (x, y) at the crossing
    of the mirrored section, and second the half return from -m.

    Raises
    ------
    The errors of half_return, from either leg.
    """
    if first is None:
        first = half_return(p, q, spec)
    mirror, t1, jac1, phi1, flow1 = first
    second = half_return(p, -mirror, spec)
    crossing, t2, jac2, phi2, flow2 = second

    def flow(t):
        t = np.asarray(t, dtype=float)
        late = t >= t1
        states = np.empty((len(t), 3))
        states[~late] = flow1(t[~late])
        states[late] = -flow2(t[late] - t1)
        return states

    return (-crossing, t1 + t2, jac2 @ jac1, phi2 @ phi1, flow,
            (mirror, second))


def _nontrivial_multipliers(mono: np.ndarray):
    """(two nontrivial multipliers, trivial multiplier closest to 1)."""
    mults = np.linalg.eigvals(mono)
    i0 = int(np.argmin(np.abs(mults - 1.0)))
    rest = np.delete(mults, i0)
    order = np.lexsort((rest.imag, rest.real))
    return rest[order], mults[i0]


def _newton_return(return_map, q0, tol=SHOOT_TOL, ret=None):
    """Damped Newton on P(q) - q with the exact Jacobian of the return map.

    return_map(q) is (P(q), _, dP/dq, ...) for a map P of the section, the
    full return or the half map T. Each step solves
    (dP/dq - I) dq = -(P(q) - q); the pass of an accepted trial point
    supplies the next Jacobian, so an undamped step costs one return. A
    trial whose return fails counts as a trial that does not reduce the
    residual, so the step is halved. ret, when given, is return_map(q0)
    already evaluated. Returns (q, |P(q) - q|, return at q) at the first
    point with residual below tol, or None when Newton fails.

    Raises
    ------
    The _RETURN_ERRORS of the return from q0.
    """
    q = np.array(q0, dtype=float)
    if ret is None:
        ret = return_map(q)
    res = float(np.linalg.norm(ret[0] - q))
    try:
        for _ in range(MAX_NEWTON_ITER):
            if res < tol:
                break
            step = np.linalg.solve(ret[2] - np.eye(2), q - ret[0])
            lam = 1.0
            for _ in range(12):
                trial = q + lam * step
                try:
                    trial_ret = return_map(trial)
                except _RETURN_ERRORS:
                    trial_res = math.inf
                else:
                    trial_res = float(np.linalg.norm(trial_ret[0] - trial))
                if trial_res < res:
                    break
                lam *= 0.5
            else:
                return None
            q, ret, res = trial, trial_ret, trial_res
    except np.linalg.LinAlgError:
        return None
    return (q, res, ret) if res < tol else None


def shoot_orbit(
    u: UnfoldingParams,
    eps: float,
    seed,
    spec: Optional[IntegratorSpec] = None,
    initial_point=None,
    partner: Optional[PeriodicOrbitRecord] = None,
) -> PeriodicOrbitRecord:
    """Locate the periodic orbit predicted by the averaged root (r, w).

    Newton on the return map runs from each candidate seed in turn until
    one converges:

    - mirror, when partner is given: the located orbit of the mirror root
      (r, -w) at this eps. The field is odd, so the point reflection of
      the partner is an orbit too; the seed is -m of the partner's
      accepted return, and its first return reuses that return's second
      leg, the half return from -m, so it integrates one new leg.
    - warm-start, an explicit initial_point, e.g. the fixed point of a
      nearby eps;
    - section-image, eps*(w, r), the theta = 0 image of the root under the
      coordinate pipeline.

    A root with w = 0 is its own mirror image, and so is its orbit: from
    each candidate, Newton first runs on the half map T(q) = -M(q), one
    leg per iteration, until |T(q) - q| < SHOOT_TOL / 2. As dT/dq is
    I + O(eps^2), P(q) - q is about 2 (T(q) - q), so the full return from
    that point, its last leg and one new one, then typically passes
    SHOOT_TOL; if it does not, Newton on P goes on from there. Where
    Newton on T fails, Newton on P runs from the candidate itself.

    Whatever the candidate, the orbit is accepted only on its own full
    return with residual below SHOOT_TOL, and everything it reports comes
    from that return.

    Returns
    -------
    PeriodicOrbitRecord with the converged section point, the period (the
    return flight time), the residual of the return displacement and the
    Newton step that would follow it, the two nontrivial Floquet
    multipliers and the trivial one's distance from 1, the trace of one
    period, sampled from the dense output of the return at the fixed
    point, that return's mirror crossing and second leg, the candidate
    that converged and the return-map calls spent on the orbit.

    Raises
    ------
    SeedInvalid for r <= 0 or non-finite seeds; ShootingDiverged when no
    candidate converges: Newton fails, the return from the candidate
    raises one of the _RETURN_ERRORS, or Newton converges to within
    eps * r / 10 of the equilibrium at the origin. Its message names each
    candidate's failure. ValueError for eps outside (0, MAX_EPS] or a
    partner located at another eps.
    """
    spec = spec or IntegratorSpec()
    r, w = float(seed[0]), float(seed[1])
    if not (np.isfinite(r) and np.isfinite(w)) or r <= 0.0:
        raise SeedInvalid(f"seed (r, w) = ({r}, {w}) needs finite values, r > 0")
    if not (0.0 < eps <= MAX_EPS):
        raise ValueError(f"eps = {eps} outside the shooting range (0, {MAX_EPS}]")
    if partner is not None and partner.eps != eps:
        raise ValueError(f"partner located at eps = {partner.eps}, not {eps}")
    p = unfold(u, eps)
    returns = 0

    def return_map(q, first=None):
        nonlocal returns
        returns += 1
        return poincare_return(p, q, spec, first)

    def half_map(q):
        # T(q) = -M(q) and dT/dq = -dM/dq; the leg rides along for the
        # full return that completes it
        nonlocal returns
        returns += 1
        leg = half_return(p, q, spec)
        return -leg[0], leg[1], -leg[2], leg

    failures, candidates = [], []
    if partner is not None:
        mirror, leg = partner.mirror_leg
        candidates.append(("mirror", -mirror, leg))
    if initial_point is not None:
        candidates.append(("warm-start",
                           np.asarray(initial_point, dtype=float), None))
    q_section = np.array([eps * w, eps * r])
    candidates.append(("section-image", q_section, None))

    for tag, q0, first in candidates:
        try:
            if w == 0.0:
                half = _newton_return(half_map, q0, SHOOT_TOL / 2)
                if half is not None:
                    q0, _, (_, _, _, first) = half
            found = _newton_return(
                return_map, q0, SHOOT_TOL,
                None if first is None else return_map(q0, first))
        except _RETURN_ERRORS as exc:
            failures.append(f"{tag}: {type(exc).__name__}: {exc}")
            continue
        if found is None:
            failures.append(f"{tag}: Newton did not converge")
        elif np.linalg.norm(found[0]) < 0.1 * eps * r:
            failures.append(f"{tag}: converged to the equilibrium at the "
                            "origin")
        else:
            fixed, residual, (returned, period, jac, mono, flow,
                              mirror_leg) = found
            logger.info(
                "seed (r=%.6g, w=%.6g) eps=%.6g: converged from %s start; "
                "fixed point at %.3e from eps*(w, r)",
                r, w, eps, tag, float(np.linalg.norm(fixed - q_section)),
            )
            break
    else:
        raise ShootingDiverged(
            f"no candidate seed converged for (r, w) = ({r}, {w}) at "
            f"eps = {eps}: " + "; ".join(failures)
        )

    floq, trivial = _nontrivial_multipliers(mono)
    try:
        step = np.linalg.solve(jac - np.eye(2), fixed - returned)
    except np.linalg.LinAlgError:
        step = np.full(2, math.inf)
    t = np.linspace(0.0, period, TRACE_SAMPLES)
    return PeriodicOrbitRecord(
        eps=eps,
        section_point=fixed,
        period=period,
        residual=residual,
        floquet=floq,
        seed=(r, w),
        trace=(t, flow(t)),
        mirror_leg=mirror_leg,
        seed_candidate=tag,
        returns=returns,
        trivial_multiplier_defect=float(abs(trivial - 1.0)),
        newton_step=float(np.linalg.norm(step)),
    )


@dataclass(frozen=True)
class SweepEntry:
    """Located orbits at one eps, keyed by root index.

    records[i] is the PeriodicOrbitRecord, trace included, of root i;
    failures[i] reads "<error type>: <message>" for a root not located.
    """

    eps: float
    records: dict
    failures: dict


@dataclass(frozen=True)
class SweepResult:
    """Sweep records plus emanation diagnostics.

    prediction is the OrbitPrediction that was shot: orbit i of every
    entry is its root i. amp_slopes and seed_error_slopes are log-log fits
    against eps, one per root index; max_coords[i][k] is the largest
    coordinate magnitude along orbit i at the k-th eps; monotone says
    whether every orbit's extent shrank strictly at each step of the sweep.
    """

    prediction: OrbitPrediction
    entries: list
    amp_slopes: dict
    seed_error_slopes: dict
    max_coords: dict
    monotone: bool


def sweep_epsilon(
    u: UnfoldingParams,
    eps_list,
    spec: Optional[IntegratorSpec] = None,
) -> SweepResult:
    """Shoot all predicted orbits for each eps in a decreasing list.

    This is the one check of the theorem's hypotheses before shooting: the
    orbits and sweep commands refuse exactly where it raises, and read the
    case and the roots from the prediction it returns. Later eps values
    warm-start from the previous fixed point scaled by the eps ratio. The
    roots (r, w2), (r, -w2) of a mirror pair come in that order, and once
    the +w2 orbit is located at an eps it is the partner of the -w2 one,
    whose candidates are then mirror, warm-start and section-image in that
    order (see shoot_orbit). Shooting failures are recorded per entry
    without aborting the sweep; a -w2 orbit whose partner failed is shot
    from its other candidates.

    Raises
    ------
    HypothesisViolated when a1 or b1 is nonzero, where the predicted roots
    are no orbits, and where predicted_roots raises; DegeneratePrediction on
    a collapse boundary, where it predicts DEGENERATE; ValueError for
    an empty, non-positive or not strictly decreasing eps_list.
    """
    spec = spec or IntegratorSpec()
    eps_list = [float(e) for e in eps_list]
    if not eps_list or any(e <= 0.0 for e in eps_list):
        raise ValueError("eps_list must contain positive values")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    require_first_order_zero(u.a1, u.b1)
    prediction = predicted_roots(u.a2, u.b2, u.delta)
    if prediction.count is OrbitCount.DEGENERATE:
        raise DegeneratePrediction(prediction.degenerate_reason)

    entries = []
    for eps in eps_list:
        records: dict[int, PeriodicOrbitRecord] = {}
        failures: dict[int, str] = {}
        for i, root in enumerate(prediction.roots):
            warm = entries[-1].records.get(i) if entries else None
            start = (None if warm is None
                     else warm.section_point * (eps / entries[-1].eps))
            paired = (root[1] < 0.0 and i > 0
                      and prediction.roots[i - 1] == (root[0], -root[1]))
            partner = records.get(i - 1) if paired else None
            try:
                records[i] = shoot_orbit(u, eps, root, spec,
                                         initial_point=start, partner=partner)
            except SHOOTING_ERRORS as exc:
                failures[i] = f"{type(exc).__name__}: {exc}"
        entries.append(SweepEntry(eps=eps, records=records, failures=failures))

    amp_slopes = {}
    seed_error_slopes = {}
    max_coords = {}
    monotone = True
    for i, root in enumerate(prediction.roots):
        eps_ok, amps, errs, coords = [], [], [], []
        max_coords[i] = []
        for entry in entries:
            rec = entry.records.get(i)
            if rec is None:
                max_coords[i].append(math.nan)
                continue
            coords.append(float(np.max(np.abs(rec.trace[1]))))
            max_coords[i].append(coords[-1])
            eps_ok.append(entry.eps)
            amps.append(float(np.linalg.norm(rec.section_point)))
            target = entry.eps * np.array([root[1], root[0]])
            errs.append(float(np.linalg.norm(rec.section_point - target)))
        if len(eps_ok) >= 2:
            log_eps = np.log(eps_ok)
            amp_slopes[i] = float(np.polyfit(log_eps, np.log(amps), 1)[0])
            safe = np.maximum(errs, 1e-300)
            seed_error_slopes[i] = float(np.polyfit(log_eps, np.log(safe), 1)[0])
        if any(b >= a for a, b in zip(coords, coords[1:])):
            monotone = False
    return SweepResult(
        prediction=prediction,
        entries=entries,
        amp_slopes=amp_slopes,
        seed_error_slopes=seed_error_slopes,
        max_coords=max_coords,
        monotone=monotone,
    )
