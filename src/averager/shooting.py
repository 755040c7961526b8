"""Locating true periodic orbits of the jerk system by section shooting.

The predictions of the averaged analysis are (r, w) roots; mapped through
the coordinate pipeline at theta = 0 they give points on the plane section
{z = 0, y > 0}, crossed with dz/dt < 0. Newton iteration on the first
return map of that section turns each prediction into an actual periodic
orbit of the full nonlinear system.

The field is odd, (x, y, z) -> -(x, y, z) maps orbits to orbits, so the
unit of integration is half a return. The half return M takes a section
point q to the first upward crossing m of the mirrored section
{z = 0, y < 0}, and the reflection -m lies on the section again: that is
the half map T(q) = -M(q), and half_return gives it as a HalfReturn, with
its start q, its point T(q) = -m, its flight, its jac dT/dq, its phi and
its Taylor steps. The return map is the odd square of M, P(q) =
-M(-M(q)) = T(T(q)), and poincare_return gives it as a Return that keeps
its two half returns, first from q and second from first.point = -m; its
point, flight, jac, phi and residual are composed from them by name. The
flow of either is one Horner pass over the stored steps, those of the
second half negated. Each half return is one Taylor leg of the state,
which gives the crossing and the dense output of the flight, and one
batched linear solve over the steps of that leg, which gives the
fundamental matrix Phi of its variational equations and the exact
Jacobian of M. J is even in the state, so a return's phi is Phi2 Phi1,
that of its second half times that of its first: the monodromy matrix at
the fixed point, whose eigenvalues are the Floquet multipliers. The
accepted return at the fixed point is the only integration of a located
orbit: its trace is sampled from that return's flow.

The w = 0 roots are their own mirror images, and so are their orbits:
such an orbit closes after half a period up to the reflection, a fixed
point of T (Golubitsky and Stewart, The Symmetry Perspective, 2002).
Newton runs on T alone, one leg per iteration, and one more leg from its
fixed point completes the one full return that accepts the orbit or
fails the candidate. Newton reads the same names from either map: start,
point, jac and residual.

Newton starts from up to two candidate seeds, in this order: mirror and
section-image. The paired roots (r, w) and (r, -w) predict two orbits
that are point reflections of each other. Once the +w orbit is located,
its record keeps the second half of its accepted return, whose start is
-m: the seed of the -w orbit. So the first return from the mirror seed
takes that half return as its first and integrates one new leg, and
Newton typically accepts on it. The section image is the theta = 0
image of the orbit's (r, w) to second order in eps, z0 + eps z1 +
eps^2 z2: z0 is the averaged root, and z1 and z2 come from the third and
fourth averaged functions (closed_form.root_corrections), so the seed
misses the orbit by O(eps^4) where the image of z0 alone misses it by
O(eps^3). Every orbit is accepted only on its own full return, whatever
its seed, and a candidate fails at the first return of its Newton that
would start within eps r / 10 of an equilibrium, all of which lie on
y = 0: Newton is walking onto it, as an orbit's section point has y near
eps r.

The field is a cubic polynomial, so every flow is integrated by a Taylor
series method (Jorba and Zou, Experimental Mathematics 14, 2005): short
recurrences give the Taylor coefficients of the state, at two Cauchy
products per order, and the step polynomials are the dense output. As in
Jorba and Zou's own taylor package, the recurrence of each order is
generated as straight-line code: _taylor_kernel writes it as one Python
function and compiles it once per process, at its first use, which costs
about 1 to 4 ms for the orders 8 to 17 of the tol range. Its Cauchy
products are summed left to right, as sum() summed floats before Python
3.12. From 3.12 on, sum() compensates, so there the results may differ
in the last bits from those of earlier versions of this module, which
summed with sum(). The tol of an IntegratorSpec sets every step by Jorba
and Zou's rule with a relative tolerance: the order is
ceil(1 - ln(tol) / 2), the same for every step of a leg, and the step is
the radius of convergence estimated from the last two coefficients on
the scale of the state itself, max(1e-300, |s|_inf), divided by e^2. So
the steps of an orbit of size eps do not grow as eps shrinks, and each
holds at most one sign change of z: on 124 directions at eps 0.2 to
0.0125 and 1e-12 and three tols, no step of 67970 held two, and the
longest was 0.76 of pi / sqrt(-c), the spacing of the zeros of z in the
linear flow, legs from an equilibrium aside. That bound lets half_return
find the first upward crossing of the mirrored section from the signs of
z at each step's two ends alone. A leg has one bound, MAX_STEPS, on its
steps and none on its flight: a step relative to the state spans a fixed
share of a turn whatever the turn's length, so a half return of about
pi / delta takes as few steps at delta = 0.003 as at 2.

The variational equations Phi' = J Phi are linear in Phi, so they need no
step-by-step recurrence of their own. The same kernel that gives a
step's state series gives the Taylor series of the state-dependent
entries of J, from the y^2 - x^2 series of the state recurrence and one
more Cauchy product, x^2, and each step keeps them. Once the crossing is
found, the Taylor coefficients of every step's transition matrix solve
one lower-triangular system per step, in one batched solve over the leg;
Phi is the ordered product of the transitions, each evaluated at its
step length and the last one at the crossing.

What runs in Python floats and what in numpy follows the cost of a
call: numpy pays for each call on an array, which on 2- and 3-vectors is
most of the work. So the recurrences and the step rule of a leg run in
floats, each step's two J series reach the batched solve as one flat
list, one row of its matrix, and the three Floquet multipliers are
ordered in Python; the batched solve, Phi, its projection onto the
section and the Newton step stay in numpy. Every value keeps the bits of
the numpy form it replaced.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
from functools import cache
from itertools import accumulate, pairwise
from operator import mul
from typing import Callable, NamedTuple, Optional

import numpy as np

from .closed_form import root_corrections
from .config import MAX_EPS, IntegratorSpec
from .jerk import (
    DegeneratePrediction,
    OrbitCount,
    OrbitPrediction,
    SystemParams,
    UnfoldingParams,
    equilibria,
    predicted_roots,
    require_first_order_zero,
    unfold,
    vector_field,
)

#: residual bound on the return-map displacement
SHOOT_TOL = 1e-10

#: Newton iterations on the return map before a candidate seed is given up
MAX_NEWTON_ITER = 25

#: largest |eps z1 + eps^2 z2| / r of the correction of a root (r, w)
#: that its section-image seed takes; a longer one, as close to a
#: degeneracy boundary, where Dg is nearly singular, leaves the seed at
#: eps (w, r). On 60 random directions swept over eps 0.2 to 0.05, every
#: orbit located has a correction below 0.13 r, and every longer one
#: belongs to a root that neither seed locates
MAX_SEED_SHIFT = 0.25

#: largest distance between the section points of two records at one
#: eps that are taken for one orbit, in units of eps: distinct orbits lie
#: about eps |w - w', r - r'| apart, at least 1.55 eps on the showcase and
#: the 19 base directions of bench/workloads.py. Swept over eps 0.2 to
#: 0.0125, the largest newton_step is 4.87e-7 eps on the showcase and the
#: 10 orbits-cold and eps-sweep bases, and 1.18e-6 eps on the 9
#: average-grid bases, 8.5 times below this bound
DUPLICATE_TOL = 1e-5

#: steps of one half return before it raises StepLimitExceeded, the one
#: bound of a leg: its flight time is not capped. The bound moves no
#: located orbit, it only ends a hopeless leg. On 120 random directions
#: at eps 0.2 to 0.0125, no completed leg of 2139 took more than 27
#: steps, the median 8, so the margin is about 370x; on the (1, -1, delta)
#: directions at delta = 0.003, 0.01, 0.02 and 0.1, whose half returns
#: fly about pi / delta, each half of an accepted return takes 6 to 8 steps
MAX_STEPS = 10_000

#: samples per period in an orbit's trace
TRACE_SAMPLES = 512

#: a step is the estimated radius of convergence times this fraction
_STEP_FRACTION = math.exp(-2.0)


class StepLimitExceeded(RuntimeError):
    """The integrator used more than MAX_STEPS steps on one leg."""


class StepUnderflow(RuntimeError):
    """A leg left what double precision resolves: a step too short to
    resolve, an infinite one where the field vanishes, non-finite Taylor
    coefficients or Phi, or a singular step transition."""


class ShootingDiverged(RuntimeError):
    """No candidate seed located the orbit."""


class SeedInvalid(ValueError):
    """The averaged seed is unusable (r <= 0 or not finite)."""


class _CandidateFailed(RuntimeError):
    """A candidate seed failed short of a return error; the message is the
    label of the failure."""


#: the failures of one return to the section
_RETURN_ERRORS = (StepLimitExceeded, StepUnderflow)

#: the failures of one orbit's shooting that a caller records and moves past
SHOOTING_ERRORS = (ShootingDiverged, SeedInvalid)


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
    #: the second HalfReturn of the return that located the orbit, Phi
    #: included; its start is -m, for m the return's crossing of
    #: {z = 0, y < 0}, the mirror seed of the partner orbit, and it is the
    #: first half of that orbit's first return
    mirror_leg: HalfReturn
    #: the candidate Newton converged from, mirror or section-image; the
    #: one place that reports it
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


def _cauchy(u: str, v: str, k: int) -> str:
    """Source of the k-th coefficient of the Cauchy product of the series
    u and v, 0.0 + u0 vk + u1 v(k-1) + ... + uk v0, added left to right."""
    return "(0.0 + " + " + ".join(f"{u}{j} * {v}{k - j}"
                                  for j in range(k + 1)) + ")"


@cache
def _taylor_kernel(order: int) -> Callable:
    """The Taylor recurrence of the flow to this order, as a function.

    The function kernel(a, b, c, s) returns the lists x, y and z of the
    order + 1 Taylor coefficients of each coordinate of the flow of
    SystemParams(a, b, c) at the state s, and jac, the Taylor series of the
    two entries of row 2 of J that vary along that flow, J0 = dz'/dx and
    J1 = dz'/dy, each to order terms, in one list, J0 first.
    z' = -a z - b x + c y + x (y^2 - x^2) takes two Cauchy products per
    order: y^2 - x^2 as (y - x)(y + x), and x (y^2 - x^2). The entries of
    J are -b + y^2 - 3 x^2 = -b + (y^2 - x^2) - 2 x^2 and c + 2 x y, and as
    x' = y, 2 x y is (x^2)', whose k-th coefficient is (k + 1) (x^2)_{k+1}.
    So x^2 is the one more series J takes: one more Cauchy product per
    order.

    The recurrence is written out for this order as straight-line source,
    every coefficient a local variable and every 1 / (k + 1) a literal, and
    compiled once, at its first use. Each Cauchy product is summed from
    0.0 left to right, which is the order of sum() before Python 3.12.
    """
    # mk, pk, qk and sk are the k-th coefficients of y - x, y + x,
    # y^2 - x^2 and x^2
    lines = ["def kernel(a, b, c, s):", "    x0, y0, z0 = s"]
    for k in range(order):
        inv = repr(1.0 / (k + 1))
        lines += [f"    m{k} = y{k} - x{k}",
                  f"    p{k} = y{k} + x{k}",
                  f"    q{k} = {_cauchy('m', 'p', k)}",
                  f"    z{k + 1} = (c * y{k} - b * x{k} - a * z{k} + "
                  f"{_cauchy('x', 'q', k)}) * {inv}",
                  f"    x{k + 1} = y{k} * {inv}",
                  f"    y{k + 1} = z{k} * {inv}"]
    lines += [f"    s{k} = {_cauchy('x', 'x', k)}" for k in range(order + 1)]
    series = [", ".join(f"{u}{k}" for k in range(order + 1)) for u in "xyz"]
    jac = ", ".join(["q0 - 2.0 * s0 - b"]
                    + [f"q{k} - 2.0 * s{k}" for k in range(1, order)]
                    + ["s1 + c"]
                    + [f"{k + 1.0!r} * s{k + 1}" for k in range(1, order)])
    lines.append(f"    return [{series[0]}], [{series[1]}], [{series[2]}], "
                 f"[{jac}]")
    namespace = {}
    exec("\n".join(lines), namespace)
    return namespace["kernel"]


@cache
def _transition_system(order: int):
    """The variational recurrence of one Taylor step as a linear system.

    A column (u, v, w) of the fundamental matrix Psi of a step, with
    Psi(0) = I, has Taylor coefficients u_{k+1} = v_k / (k + 1),
    v_{k+1} = w_k / (k + 1) and
    w_{k+1} = (sum_j J0_j u_{k-j} + J1_j v_{k-j} - a w_k) / (k + 1),
    where J0 and J1 are the two series of jac from _taylor_kernel. So
    u_m = alpha_m c_m and v_m = beta_m c_{m+1} for the unknowns
    c = (u_0, v_0, w_0, ..., w_order), where alpha_m = 1 / (m (m - 1)) for
    m >= 2, beta_m = 1 / m for m >= 1, and both are 1 below that. The
    recurrence is then the lower-triangular system L c = [I; 0], whose L
    is linear in J0, J1 and a.

    Returns (fixed, basis, sub, gains): L = fixed + a sub - J @ basis, with
    J the row jac of length 2 order, J0 then J1, and basis reshaped to
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


def _leg_transition(p: SystemParams, lengths: list, jacs: list) -> np.ndarray:
    """Fundamental matrix, from the identity, over the Taylor steps of a leg.

    lengths and jacs hold the length and the Jacobian series jac from
    _taylor_kernel of each step of the leg in order. The steps share one
    order, so one batched solve of _transition_system gives every step's
    transition; the matrix is their ordered product.
    """
    jac = np.array(jacs)
    order = jac.shape[1] // 2
    fixed, basis, sub, gains = _transition_system(order)
    n = len(fixed)
    lower = fixed + p.a * sub - (jac @ basis).reshape(-1, n, n)
    coef = np.linalg.solve(lower, np.eye(n, 3))
    weights = (np.array(lengths)[:, None] ** np.arange(order + 1)
               @ gains.reshape(order + 1, -1)).reshape(-1, 3, n)
    phi = np.eye(3)
    for step in weights @ coef:
        phi = step @ phi
    return phi


def _crossing_root(poly: list) -> float:
    """Root in [0, 1] of sum(poly[k] u^k), negative at 0 and not at 1: the
    upward crossing of z within a step, in fractions of the step.

    Newton steps from the midpoint, with a bisection wherever a step would
    leave the bracket, which shrinks around the root as it goes.
    """
    def value_and_slope(u):
        value = slope = 0.0
        for pk in reversed(poly):
            slope = slope * u + value
            value = value * u + pk
        return value, slope

    lo, hi = 0.0, 1.0
    u = 0.5
    for _ in range(100):
        value, slope = value_and_slope(u)
        if value == 0.0:
            break
        if value < 0.0:
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


class HalfReturn(NamedTuple):
    """The half map T(q) = -M(q) from one start q, as half_return gives it.

    start is q and point is T(q) = -m, for m the crossing of the mirrored
    section; flight is the flight time, jac is dT/dq and phi the
    fundamental matrix over the flight from (q, 0). lengths holds the
    lengths of the leg's Taylor steps, in order, and polys each step's
    (x, y, z) Taylor coefficients; a step starts at the sum of the lengths
    before it.
    """

    start: np.ndarray
    point: np.ndarray
    flight: float
    jac: np.ndarray
    phi: np.ndarray
    lengths: list
    polys: list

    #: |T(q) - q|
    residual = property(
        lambda self: float(np.linalg.norm(self.point - self.start)))
    #: the (len(t), 3) states at a 1-d array of times in [0, flight], read
    #: off the step polynomials; flow(0) is (q, 0) exactly
    flow = lambda self, t: _dense_output((self,), t)


class Return(NamedTuple):
    """The return P(q) = T(T(q)) kept as its two half returns.

    first is the half return from q and second the one from
    first.point = -m. J is even in the state, as the field is odd, so the
    reflected second leg has the variational equations of the half return
    from -m, and every quantity of P is composed from the two halves.
    """

    first: HalfReturn
    second: HalfReturn

    #: q, where the first half starts
    start = property(lambda self: self.first.start)
    #: P(q), the second half's T(-m)
    point = property(lambda self: self.second.point)
    #: the whole flight time, t1 + t2
    flight = property(lambda self: self.first.flight + self.second.flight)
    #: dP/dq, the product of the halves' dT/dq; it equals phi projected
    #: along the field at the final crossing
    jac = property(lambda self: self.second.jac @ self.first.jac)
    #: Phi2 Phi1, the fundamental matrix over the whole flight from (q, 0):
    #: the monodromy matrix at a fixed point
    phi = property(lambda self: self.second.phi @ self.first.phi)
    #: |P(q) - q|
    residual = property(
        lambda self: float(np.linalg.norm(self.point - self.start)))
    #: the (len(t), 3) states at a 1-d array of times in [0, flight]: the
    #: first leg up to its flight, then the second leg reflected; flow(0)
    #: is (q, 0) exactly
    flow = lambda self, t: _dense_output(self, t)


def _dense_output(halves, t) -> np.ndarray:
    """The (len(t), 3) states at a 1-d array of times t along consecutive
    half returns, the k-th reflected k times, by Horner's rule.

    A time at or past the flights of the halves before it belongs to the
    next half, and is taken from that half's start by subtracting their
    sum. Within its half, its step is the last one that starts at or
    before it, a step starting at the running sum of the lengths before
    it, the float additions half_return made, and the state is that step's
    polynomial at the time since the step's start, negated on a reflected
    half, which is exact. The halves of a Return share one order unless
    one of them was integrated at another tol; a lower order is padded
    with zero coefficients.
    """
    ends = np.cumsum([0.0] + [h.flight for h in halves[:-1]])
    half = np.searchsorted(ends[1:], t, side="right")
    t = np.asarray(t, dtype=float) - ends[half]
    # each step as the complex number (half, start), and each time as
    # (half, t): numpy orders complex numbers lexicographically
    steps = np.array([complex(k, start) for k, h in enumerate(halves)
                      for start in accumulate(h.lengths[:-1], initial=0.0)])
    step = np.searchsorted(steps, half + 1j * t, side="right") - 1
    coef = np.zeros((len(steps), 3, max(len(h.polys[0][0]) for h in halves)))
    for k, h in enumerate(halves):
        coef[steps.real == k, :, :len(h.polys[0][0])] = h.polys
    t = (t - steps.imag[step])[:, None]
    states, *lower = coef.transpose(2, 0, 1).take(step, axis=1)[::-1]
    for c in lower:
        states *= t
        states += c
    return states * (-1.0) ** half[:, None]


def half_return(p: SystemParams, q, spec: IntegratorSpec) -> HalfReturn:
    """Half return: from (q, 0) to the mirrored section {z = 0, y < 0}.

    The crossing is the first where z changes sign upward and y < 0; a
    start exactly on the section does not count as one. From a point of
    the section {z = 0, y > 0}, that is half a turn of the orbit, and the
    odd symmetry of the field maps the crossing back onto the section.

    half_return integrates one Taylor leg of the state from (q, 0), every
    step of the order that spec.tol sets and of a length relative to the
    state's own size (see the module docstring). Such a step holds at most
    one sign change of z, so it holds the crossing when z < 0 at its start
    and z >= 0 at its end, the next step's start; _crossing_root polishes
    that crossing on the step's z polynomial, and one with y >= 0 is
    skipped. Phi at the crossing then comes from _leg_transition: one
    batched linear solve over the leg's steps, from the series each step
    kept. The half return is the one unit of integration: poincare_return
    composes two.

    Parameters
    ----------
    q : (x, y) coordinates of the start on the plane z = 0
    spec : integrator tolerance

    Returns
    -------
    HalfReturn, the half map T(q) = -M(q) at the polished root of the
    crossing m: start is q; point is T(q) = -m; flight the flight time; phi
    the fundamental matrix over the flight from (q, 0); jac is
    dT/dq = -dM/dq, where dM/dq is phi projected along the field f at the
    crossing onto the plane z = 0, (phi - outer(f, phi[2]) / f[2])[:2, :2];
    lengths and polys the leg's Taylor steps, which flow samples by
    Horner's rule.

    Raises
    ------
    StepLimitExceeded when MAX_STEPS steps, the one bound of a leg, pass
    without a crossing; StepUnderflow when a step falls below what double
    precision resolves, a step is infinite or its powers overflow (from an
    equilibrium, where every Taylor coefficient beyond order 0 vanishes),
    the Taylor coefficients or Phi are not finite, or the system of a
    step's transition is singular.
    """
    order = math.ceil(1.0 - 0.5 * math.log(spec.tol))
    kernel = _taylor_kernel(order)
    powers = range(order + 1)
    root_low, root_high = 1.0 / (order - 1), 1.0 / order
    s = [float(q[0]), float(q[1]), 0.0]
    t = 0.0
    polys = []  # the (x, y, z) coefficients of each step
    lengths, jacs = [], []  # what _leg_transition takes of each step
    for _ in range(MAX_STEPS):
        scale = max(1e-300, abs(s[0]), abs(s[1]), abs(s[2]))
        x, y, z, jac = kernel(p.a, p.b, p.c, s)
        if not math.isfinite(x[-2] + y[-2] + z[-2] + x[-1] + y[-1] + z[-1]):
            raise StepUnderflow(f"non-finite Taylor coefficients at t = {t:.6g}")
        # the radius of convergence from the last two coefficients
        low = max(abs(x[-2]), abs(y[-2]), abs(z[-2]))
        high = max(abs(x[-1]), abs(y[-1]), abs(z[-1]))
        h = min((scale / low) ** root_low if low > 0.0 else math.inf,
                (scale / high) ** root_high if high > 0.0 else math.inf
                ) * _STEP_FRACTION
        if not h > 10.0 * math.ulp(t):
            raise StepUnderflow(f"step {h:.3g} below the resolution at "
                                f"t = {t:.6g}")
        # the step is unbounded only where the last two coefficients vanish
        # against the state: at an equilibrium, or where they underflow
        try:
            h_powers = [h ** k for k in powers]
        except OverflowError:
            h_powers = [math.inf]
        if h_powers[-1] == math.inf:
            raise StepUnderflow(f"infinite step at t = {t:.6g}: the field "
                                "vanishes there, or its Taylor coefficients "
                                "underflow")
        polys.append((x, y, z))
        jacs.append(jac)
        end = [sum(map(mul, coef, h_powers)) for coef in (x, y, z)]
        if s[2] < 0.0 <= end[2]:
            # z as a polynomial in u = tau / h
            u = _crossing_root(list(map(mul, z, h_powers)))
            tau_powers = [(u * h) ** k for k in powers]
            state = [sum(map(mul, coef, tau_powers)) for coef in (x, y, z)]
            if state[1] < 0.0:
                lengths.append(u * h)
                break
        lengths.append(h)
        s = end
        t += h
    else:
        raise StepLimitExceeded(f"no crossing in {MAX_STEPS} steps")
    flight = t + lengths[-1]
    state[2] = 0.0
    # far out, the products of the Taylor coefficients can overflow, and
    # the system of a step's transition can be singular
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            phi = _leg_transition(p, lengths, jacs)
        except np.linalg.LinAlgError:
            raise StepUnderflow(f"singular step transition before "
                                f"t = {flight:.6g}") from None
    if not np.isfinite(phi).all():
        raise StepUnderflow(f"non-finite Phi at t = {flight:.6g}")
    f = vector_field(p, state)
    return HalfReturn(np.asarray(q, dtype=float), -np.array(state[:2]),
                      flight, -(phi - np.outer(f, phi[2]) / f[2])[:2, :2],
                      phi, lengths, polys)


def poincare_return(p: SystemParams, q, spec: IntegratorSpec,
                    first: Optional[HalfReturn] = None) -> Return:
    """Return to the section {z = 0, y > 0}: P(q) = T(T(q)) = -M(-M(q)).

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
    spec : integrator tolerance, for each leg
    first : half_return(p, q, spec) when it is already integrated: the
        last half return of Newton on T from q, or the second half of
        another return, whose start is q; only the half return from -m is
        integrated then

    Returns
    -------
    Return(first, second) of the half returns from q and from
    first.point = -m, whose point, flight, jac, phi, flow and residual are
    those of P at the polished crossing (see Return).

    Raises
    ------
    The errors of half_return, from either leg.
    """
    first = first or half_return(p, q, spec)
    return Return(first, half_return(p, first.point, spec))


def _nontrivial_multipliers(mono: np.ndarray):
    """(two nontrivial multipliers, trivial multiplier closest to 1)."""
    mults = np.linalg.eigvals(mono)
    values = mults.tolist()
    i0 = min(range(3), key=lambda i: abs(values[i] - 1.0))
    rest = sorted((i for i in range(3) if i != i0),
                  key=lambda i: (values[i].real, values[i].imag))
    return mults[rest], mults[i0]


def _newton_return(return_map, ret, tol):
    """Damped Newton on P(q) - q with the exact Jacobian of the return map.

    return_map(q) is the HalfReturn or the Return of a map P of the
    section, the half map T or the full return, and ret is the one from
    the first point, which the caller forms; Newton reads a return's
    start q, its point P(q), its jac dP/dq and its residual |P(q) - q|.
    Each step solves (dP/dq - I) dq = -(P(q) - q); the pass of an
    accepted trial point supplies the next Jacobian, so an undamped step
    costs one return. A trial whose return fails counts as a trial that
    does not reduce the residual, so the step is halved.

    Returns
    -------
    The return at the first point q with |P(q) - q| below tol.

    Raises
    ------
    _CandidateFailed "Newton did not converge", or "Newton on the half
    map did not converge" when ret is a HalfReturn, where no point below
    tol is reached in MAX_NEWTON_ITER steps, neither a step nor any of
    its first eleven halvings reduces the residual, or dP/dq - I is
    singular; whatever return_map raises other than the _RETURN_ERRORS
    of a trial.
    """
    # a singular dP/dq - I ends the iteration where it stands
    with suppress(np.linalg.LinAlgError):
        for _ in range(MAX_NEWTON_ITER):
            if ret.residual < tol:
                break
            step = np.linalg.solve(ret.jac - np.eye(2), ret.start - ret.point)
            for k in range(12):
                try:
                    trial = return_map(ret.start + 0.5 ** k * step)
                except _RETURN_ERRORS:
                    continue
                if trial.residual < ret.residual:
                    break
            else:
                break
            ret = trial
    if ret.residual < tol:
        return ret
    half = " on the half map" if isinstance(ret, HalfReturn) else ""
    raise _CandidateFailed(f"Newton{half} did not converge")


def shoot_orbit(
    u: UnfoldingParams,
    eps: float,
    seed,
    spec: IntegratorSpec = IntegratorSpec(),
    partner: Optional[PeriodicOrbitRecord] = None,
) -> PeriodicOrbitRecord:
    """Locate the periodic orbit predicted by the averaged root (r, w).

    Newton on the return map runs from each candidate seed in turn until
    one converges:

    - mirror, when partner is given: the located orbit of the mirror root
      (r, -w) at this eps. The field is odd, so the point reflection of
      the partner is an orbit too; the seed is partner.mirror_leg.start,
      -m of the partner's accepted return, and its first return takes
      partner.mirror_leg, the second half of that return, as its first,
      so it integrates one new leg.
    - section-image, the theta = 0 image under the coordinate pipeline of
      the orbit's (r, w) to second order in eps, z0 + eps z1 + eps^2 z2
      with z0 = seed: eps (w, r) + eps^2 (w1, r1) + eps^3 (w2, r2). It
      misses the orbit by O(eps^4), the image eps (w, r) of the root
      alone by O(eps^3). z1 = (r1, w1) and z2 = (r2, w2) are
      closed_form.root_corrections of the seed. Where the shift
      eps z1 + eps^2 z2 is not shorter than MAX_SEED_SHIFT * r, so that
      the expansion does not hold, or not finite, as where Dg is
      singular, the seed is eps (w, r).

    A root with w = 0 is its own mirror image, and so is its orbit: from
    each candidate, Newton runs on the half map T(q) = -M(q) instead, one
    leg per iteration, until |T(q) - q| < SHOOT_TOL / 2. In (x, y), dT/dq
    is diag(-1, 1) + O(eps^2), -1 along x, which T reflects, and P(q) - q
    is about (I + dT/dq)(T(q) - q): its x part cancels and its y part
    doubles, so |P(q) - q| is at most about 2 |T(q) - q|. One full return
    from that point, its last leg and one new one, then accepts the orbit
    or fails the candidate. The first half of that return is the last
    half return of Newton on T, so the second half starts at
    -m = T(q) and |m + q| = |T(q) - q| < SHOOT_TOL / 2: the orbit is its
    own reflection.

    Whatever the candidate, the orbit is accepted only on its own full
    return with residual below SHOOT_TOL, and everything it reports comes
    from that return. Every return is integrated at spec, by default
    IntegratorSpec(); the class is frozen, so one default serves every
    call.

    Returns
    -------
    PeriodicOrbitRecord with the converged section point, the period (the
    return flight time), the residual of the return displacement and the
    Newton step that would follow it, the two nontrivial Floquet
    multipliers and the trivial one's distance from 1, the trace of one
    period, sampled from the dense output of the return at the fixed
    point, that return's second half as mirror_leg, the candidate that
    converged and the return-map calls spent on the orbit.

    Raises
    ------
    SeedInvalid for r <= 0 or non-finite seeds; ShootingDiverged when no
    candidate converges. A candidate fails where its failure happens: a
    return raises one of the _RETURN_ERRORS, or _CandidateFailed is raised
    with the failure's label where Newton fails (for a root with w = 0,
    Newton on the half map), where the one full return after Newton on the
    half map misses SHOOT_TOL, or where a return of Newton, the
    candidate's first included, would start within eps * r / 10 of an
    equilibrium of the system, the origin or, for b < 0,
    (+-sqrt(-b), 0, 0): the candidate fails there, before that return is
    integrated, as "Newton's next return would start within eps r / 10
    of the equilibrium (x, 0.0, 0.0)". The message of ShootingDiverged
    names each candidate's failure. ValueError for eps outside
    (0, MAX_EPS] or a partner located at another eps.
    """
    r, w = float(seed[0]), float(seed[1])
    if not (np.isfinite(r) and np.isfinite(w)) or r <= 0.0:
        raise SeedInvalid(f"seed (r, w) = ({r}, {w}) needs finite values, r > 0")
    if not (0.0 < eps <= MAX_EPS):
        raise ValueError(f"eps = {eps} outside the shooting range (0, {MAX_EPS}]")
    if partner is not None and partner.eps != eps:
        raise ValueError(f"partner located at eps = {partner.eps}, not {eps}")
    p = unfold(u, eps)
    # each equilibrium's (x, y), and its (x, y, z) for the failure text
    centers = [(x[:2], x) for x in equilibria(p)]
    returns = []  # the start of every return-map call, half or full

    def count(q):
        for (x, y), point in centers:
            if math.hypot(q[0] - x, q[1] - y) < 0.1 * eps * r:
                raise _CandidateFailed("Newton's next return would start within"
                                       f" eps r / 10 of the equilibrium {point}")
        returns.append(q)

    def full_map(q, first=None):
        count(q)
        return poincare_return(p, q, spec, first)

    def half_map(q):
        count(q)
        return half_return(p, q, spec)

    failures, candidates = [], []
    if partner is not None:
        candidates.append(("mirror", partner.mirror_leg.start,
                           partner.mirror_leg))
    shift = [eps * (a + eps * b) for a, b in zip(*root_corrections(u, r, w))]
    if not math.hypot(*shift) <= MAX_SEED_SHIFT * r:
        shift = [0.0, 0.0]
    candidates.append(("section-image", eps * np.array(
        [w + shift[1], r + shift[0]]), None))

    for tag, q0, first in candidates:
        try:
            if w != 0.0:
                ret = _newton_return(full_map, full_map(q0, first), SHOOT_TOL)
            else:
                half = _newton_return(half_map, half_map(q0), SHOOT_TOL / 2)
                # the one full return: the last half return and one new leg
                ret = full_map(half.start, half)
                if not ret.residual < SHOOT_TOL:
                    raise _CandidateFailed(
                        "the full return after Newton on the half map "
                        f"misses by |P(q) - q| = {ret.residual:.3e}")
        except _RETURN_ERRORS as exc:
            failures.append(f"{tag}: {type(exc).__name__}: {exc}")
        except _CandidateFailed as exc:
            failures.append(f"{tag}: {exc}")
        else:
            break
    else:
        raise ShootingDiverged(
            f"no candidate seed converged for (r, w) = ({r}, {w}) at "
            f"eps = {eps}: " + "; ".join(failures)
        )

    floq, trivial = _nontrivial_multipliers(ret.phi)
    try:
        step = np.linalg.solve(ret.jac - np.eye(2), ret.start - ret.point)
    except np.linalg.LinAlgError:
        step = np.full(2, math.inf)
    t = np.linspace(0.0, ret.flight, TRACE_SAMPLES)
    return PeriodicOrbitRecord(
        eps=eps,
        section_point=ret.start,
        period=ret.flight,
        residual=ret.residual,
        floquet=floq,
        seed=(r, w),
        trace=(t, ret.flow(t)),
        mirror_leg=ret.second,
        seed_candidate=tag,
        returns=len(returns),
        trivial_multiplier_defect=float(abs(trivial - 1.0)),
        newton_step=float(np.linalg.norm(step)),
    )


@dataclass(frozen=True)
class SweepEntry:
    """Located orbits at one eps, keyed by root index.

    records[i] is the PeriodicOrbitRecord, trace included, of root i;
    failures[i] reads "<error type>: <message>" for a root not located,
    or "duplicate of orbit j" for one whose orbit is that of root j.
    """

    eps: float
    records: dict
    failures: dict


@dataclass(frozen=True)
class SweepResult:
    """Sweep records plus emanation diagnostics.

    prediction is the OrbitPrediction that was shot: orbit i of every
    entry is its root i. amp_slopes and seed_error_slopes are log-log fits
    against eps, one per root index, NaN where the eps values that located
    the orbit cannot be told apart; max_coords[i][k] is the largest
    coordinate magnitude along orbit i at the k-th eps; monotone says
    whether every orbit's extent shrank strictly at each step of the sweep.
    """

    prediction: OrbitPrediction
    entries: list
    amp_slopes: dict
    seed_error_slopes: dict
    max_coords: dict
    monotone: bool


def _slope(x, y) -> float:
    """Slope of the least-squares line through the points (x, y); NaN
    where the x cannot be told apart, the fit's rank then below 2."""
    coef, _, rank, _, _ = np.polyfit(x, y, 1, full=True)
    return float(coef[0]) if rank == 2 else math.nan


def sweep_epsilon(
    u: UnfoldingParams,
    eps_list,
    spec: IntegratorSpec = IntegratorSpec(),
) -> SweepResult:
    """Shoot all predicted orbits for each eps in a decreasing list.

    This is the one check of the theorem's hypotheses before shooting: the
    orbits and sweep commands refuse exactly where it raises, and read the
    case and the roots from the prediction it returns. Every return is
    integrated at spec, IntegratorSpec() by default. predicted_roots emits
    the +w2 root of a mirror pair directly before its -w2 root, so a root
    with w < 0 is paired by position: once root i - 1 is located at an eps
    it is the partner of root i, whose candidates are then mirror and
    section-image in that order (see shoot_orbit). Shooting failures are
    recorded per entry without aborting the sweep; a -w2 orbit whose
    partner failed is shot from its section image. An orbit whose section
    point lies within DUPLICATE_TOL * eps of an earlier root's at the same
    eps is that root's orbit, not one of its own: it is recorded as the
    failure "duplicate of orbit j", so that no orbit is counted twice.

    Raises
    ------
    HypothesisViolated when a1 or b1 is nonzero, where the predicted roots
    are no orbits, and where predicted_roots raises; DegeneratePrediction on
    a collapse boundary, where it predicts DEGENERATE; ValueError for
    an empty eps_list, one not strictly decreasing, or one with an eps
    outside (0, MAX_EPS], NaN included, before anything is shot.
    """
    eps_list = [float(e) for e in eps_list]
    if not eps_list or any(not 0.0 < e <= MAX_EPS for e in eps_list):
        raise ValueError(f"eps_list must lie in (0, {MAX_EPS}]")
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
            partner = records.get(i - 1) if root[1] < 0.0 else None
            try:
                rec = shoot_orbit(u, eps, root, spec, partner)
            except SHOOTING_ERRORS as exc:
                failures[i] = f"{type(exc).__name__}: {exc}"
                continue
            same = [j for j, other in records.items()
                    if np.linalg.norm(rec.section_point - other.section_point)
                    <= DUPLICATE_TOL * eps]
            if same:
                failures[i] = f"duplicate of orbit {same[0]}"
            else:
                records[i] = rec
        entries.append(SweepEntry(eps=eps, records=records, failures=failures))

    amp_slopes, seed_error_slopes, max_coords = {}, {}, {}
    monotone = True
    for i, (r, w) in enumerate(prediction.roots):
        located = [(e.eps, e.records[i]) for e in entries if i in e.records]
        extent = {eps: float(np.max(np.abs(rec.trace[1])))
                  for eps, rec in located}
        max_coords[i] = [extent.get(e.eps, math.nan) for e in entries]
        if any(b >= a for a, b in pairwise(extent.values())):
            monotone = False
        if len(located) >= 2:
            log_eps = np.log([eps for eps, _ in located])
            amps = [np.linalg.norm(rec.section_point) for _, rec in located]
            errs = [np.linalg.norm(rec.section_point - eps * np.array([w, r]))
                    for eps, rec in located]
            amp_slopes[i] = _slope(log_eps, np.log(amps))
            seed_error_slopes[i] = _slope(log_eps,
                                          np.log(np.maximum(errs, 1e-300)))
    return SweepResult(
        prediction=prediction,
        entries=entries,
        amp_slopes=amp_slopes,
        seed_error_slopes=seed_error_slopes,
        max_coords=max_coords,
        monotone=monotone,
    )
