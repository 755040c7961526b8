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
its flow. The return map is the odd square of M, P(q) = -M(-M(q)) =
T(T(q)), and poincare_return gives it as a Return that keeps its two half
returns, first from q and second from first.point = -m; its point,
flight, jac, phi, flow and residual are composed from them by name. Each
half return is one Taylor leg of the state, which gives the crossing and
the dense output of the flight, and one batched linear solve over the
steps of that leg, which gives the fundamental matrix Phi of its
variational equations and the exact Jacobian of M. J is even in the
state, so a return's phi is Phi2 Phi1, that of its second half times that
of its first: the monodromy matrix at the fixed point, whose eigenvalues
are the Floquet multipliers. The accepted return at the fixed point is
the only integration of a located orbit: its trace is sampled from that
return's flow.

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
its seed, and a candidate fails where Newton settles within eps r / 10 of
an equilibrium.

The field is a cubic polynomial, so every flow is integrated by a Taylor
series method (Jorba and Zou, Experimental Mathematics 14, 2005): short
recurrences give the Taylor coefficients of the state, at two Cauchy
products per order, and the step polynomials are the dense output. As in
Jorba and Zou's own taylor package, the recurrence of each order is
generated as straight-line code: _taylor_kernel writes it as one Python
function and compiles it once per process, at its first use, which costs
about 1 to 3 ms for the orders 8 to 17 of the tol range. Its Cauchy
products are summed left to right, as sum() summed floats before Python
3.12. From 3.12 on, sum() compensates, so there the results may differ
in the last bits from those of earlier versions of this module, which
summed with sum(). The tol of an IntegratorSpec sets every step by Jorba
and Zou's rule with equal absolute and relative tolerances: the order is
ceil(1 - ln(tol) / 2), the same for every step of a leg, and the step is
the radius of convergence estimated from the last two coefficients on
the scale max(1, |s|_inf), divided by e^2. A half return is one leg of
such steps, scanned for the first upward crossing of the mirrored
section; MAX_STEPS bounds the steps of one leg.

The variational equations Phi' = J Phi are linear in Phi, so they need no
step-by-step recurrence of their own. Each step keeps its x and
y^2 - x^2 series, which the state recurrence computes anyway. Once the
crossing is found, one batched product of the steps' x series gives
x^2, and with it the Taylor series of the state-dependent entries of J
on every step. The Taylor coefficients of every step's transition matrix
then solve one lower-triangular system per step, in one batched solve
over the leg; Phi is the ordered product of the transitions, each
evaluated at its step length and the last one at the crossing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from operator import mul
from typing import Callable, NamedTuple, Optional

import numpy as np

from .closed_form import (
    DegeneratePrediction,
    OrbitCount,
    OrbitPrediction,
    predicted_roots,
    require_first_order_zero,
    root_corrections,
)
from .jerk import SystemParams, equilibria, vector_field
from .normal_form import UnfoldingParams, unfold

#: bound on |eps| accepted by the shooter
MAX_EPS = 0.2

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
#: the benchmark bases, and the largest newton_step there is 4.9e-7 eps
DUPLICATE_TOL = 1e-5

#: total flight-time budget of one return to the section
RETURN_T_MAX = 100.0

#: steps of one half return before it raises StepLimitExceeded; the
#: bound moves no located orbit, it only ends a hopeless leg
MAX_STEPS = 1_000_000

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

#: a step is the estimated radius of convergence times this fraction
_STEP_FRACTION = math.exp(-2.0)

#: relative margin by which |z_0| must exceed the sum of the other terms of
#: a step's z polynomial for the step to be passed over without sampling
_SIGN_MARGIN = 1e-9


class StepLimitExceeded(RuntimeError):
    """The integrator used more than MAX_STEPS steps on one leg."""


class StepUnderflow(RuntimeError):
    """A leg left what double precision resolves: a step too short to
    resolve, or non-finite Taylor coefficients or Phi."""


class NoReturn(RuntimeError):
    """The trajectory never re-crossed the section within the time budget."""


class ShootingDiverged(RuntimeError):
    """No candidate seed located the orbit."""


class SeedInvalid(ValueError):
    """The averaged seed is unusable (r <= 0 or not finite)."""


#: the failures of one return to the section
_RETURN_ERRORS = (NoReturn, StepLimitExceeded, StepUnderflow)

#: the failures of one orbit's shooting that a caller records and moves past
SHOOTING_ERRORS = (ShootingDiverged, SeedInvalid)


@dataclass(frozen=True)
class IntegratorSpec:
    """Tolerance of the Taylor integrator.

    tol, in [MIN_TOL, MAX_TOL], sets the order and the step length of
    every step (see the module docstring); beyond MAX_TOL the located
    orbits drift from the true ones while Newton still converges. The
    step budget of a leg is the constant MAX_STEPS.
    """

    tol: float = 1e-11

    def __post_init__(self):
        if not MIN_TOL <= self.tol <= MAX_TOL:
            raise ValueError(f"tol must be in [{MIN_TOL:.3g}, {MAX_TOL:g}], "
                             f"got {self.tol}")


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
    SystemParams(a, b, c) at the state s, and the list of the coefficients
    0 to order - 1 of y^2 - x^2. z' = -a z - b x + c y + x (y^2 - x^2)
    takes two Cauchy products per order: y^2 - x^2 as (y - x)(y + x), and
    x (y^2 - x^2). The x and y^2 - x^2 series are all _jacobian_series
    needs.

    The recurrence is written out for this order as straight-line source,
    every coefficient a local variable and every 1 / (k + 1) a literal, and
    compiled once, at its first use. Each Cauchy product is summed from
    0.0 left to right, which is the order of sum() before Python 3.12.
    """
    # mk, pk and qk are the k-th coefficients of y - x, y + x and y^2 - x^2
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
    series = [", ".join(f"{u}{k}" for k in range(order + 1)) for u in "xyz"]
    quad = ", ".join(f"q{k}" for k in range(order))
    lines.append(f"    return [{series[0]}], [{series[1]}], [{series[2]}], "
                 f"[{quad}]")
    namespace = {}
    exec("\n".join(lines), namespace)
    return namespace["kernel"]


@cache
def _antidiagonal_sums(n: int) -> np.ndarray:
    """The (n * n, n) matrix that sums the flattened outer product of two
    series along its antidiagonals: their Cauchy product to n terms."""
    m = np.arange(n)
    return np.equal.outer(np.add.outer(m, m).ravel(), m).astype(float)


def _jacobian_series(p: SystemParams, xs: list, quads: list) -> np.ndarray:
    """Taylor series of the entries of row 2 of J on every step of a leg.

    xs and quads hold the x and y^2 - x^2 coefficients of each step, from
    _taylor_kernel. The entries that vary along the flow are
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
    """Fundamental matrix, from the identity, over the Taylor steps of a leg.

    lengths, xs and quads hold the length and the x and y^2 - x^2
    coefficients of each step of the leg in order. The steps share one
    order, so one _jacobian_series call gives the Jacobian series of every
    step, and one batched solve of _transition_system every step's
    transition; the matrix is their ordered product.
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


class _Leg(NamedTuple):
    """A half return integrated without its variational equations.

    end is the state (x, y, 0) at the crossing of {z = 0, y < 0}; steps
    the (lengths, x series, y^2 - x^2 series) of the leg's Taylor steps,
    all _leg_transition needs; flow as in HalfReturn.
    """

    flight: float
    end: list
    steps: tuple
    flow: Callable


@cache
def _fraction_powers(order: int) -> np.ndarray:
    """_CROSSING_FRACTIONS to the powers 0 to order, one row per fraction."""
    return _CROSSING_FRACTIONS[:, None] ** np.arange(order + 1)


def _leg(p: SystemParams, q, spec: IntegratorSpec) -> _Leg:
    """The Taylor leg of half_return from (q, 0), without its Phi.

    spec.tol sets the order and the steps; the leg fails past MAX_STEPS
    steps. Raises the errors of half_return.
    """
    order = math.ceil(1.0 - 0.5 * math.log(spec.tol))
    kernel = _taylor_kernel(order)
    powers = range(order + 1)
    fraction_powers = _fraction_powers(order)
    root_low, root_high = 1.0 / (order - 1), 1.0 / order
    s = [float(q[0]), float(q[1]), 0.0]
    t = 0.0
    starts, polys = [], []  # start time and (x, y, z) coefficients of each step
    lengths, xs, quads = [], [], []  # what _leg_transition takes of each step
    while t < RETURN_T_MAX:
        if len(polys) == MAX_STEPS:
            raise StepLimitExceeded(
                f"more than {MAX_STEPS} steps before t = {RETURN_T_MAX}")
        scale = max(1.0, abs(s[0]), abs(s[1]), abs(s[2]))
        x, y, z, quad = kernel(p.a, p.b, p.c, s)
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
        h = min(h, RETURN_T_MAX - t)
        starts.append(t)
        polys.append((x, y, z))
        xs.append(x)
        quads.append(quad)
        h_powers = [h ** k for k in powers]
        landing = None
        # z keeps the sign of z[0] on the whole step where |z[0]| exceeds
        # the sum of the other |z[k] h^k|; the margin covers the round-off
        if abs(z[0]) <= (1.0 + _SIGN_MARGIN) * sum(
                map(abs, map(mul, z[1:], h_powers[1:]))):
            # z as a polynomial in u = tau / h
            zu = list(map(mul, z, h_powers))
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
        s = [sum(map(mul, x, h_powers)), sum(map(mul, y, h_powers)),
             sum(map(mul, z, h_powers))]
        t = t + h if h < RETURN_T_MAX - t else RETURN_T_MAX
    else:
        raise NoReturn(f"no crossing of the mirrored section within "
                       f"t_max={RETURN_T_MAX}")
    state[2] = 0.0

    def flow(t):
        t = np.asarray(t, dtype=float)
        step = np.searchsorted(starts[1:], t, side="right")
        tau = (t - np.array(starts)[step])[:, None]
        coef = np.array(polys).transpose(2, 0, 1)[:, step]
        states = coef[-1]
        for c in coef[-2::-1]:
            states = states * tau + c
        return states

    return _Leg(t + lengths[-1], state, (lengths, xs, quads), flow)


class HalfReturn(NamedTuple):
    """The half map T(q) = -M(q) from one start q, as half_return gives it.

    start is q and point is T(q) = -m, for m the crossing of the mirrored
    section; flight is the flight time, jac is dT/dq and phi the
    fundamental matrix over the flight from (q, 0). flow maps a 1-d array
    of times in [0, flight] to the (len(t), 3) states there; flow(0) is
    (q, 0) exactly.
    """

    start: np.ndarray
    point: np.ndarray
    flight: float
    jac: np.ndarray
    phi: np.ndarray
    flow: Callable

    #: |T(q) - q|
    residual = property(
        lambda self: float(np.linalg.norm(self.point - self.start)))


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

    def flow(self, t) -> np.ndarray:
        """The (len(t), 3) states at a 1-d array of times in [0, flight]:
        the first leg up to its flight, then the second leg reflected;
        flow(0) is (q, 0) exactly."""
        t = np.asarray(t, dtype=float)
        late = t >= self.first.flight
        states = np.empty((len(t), 3))
        states[~late] = self.first.flow(t[~late])
        states[late] = -self.second.flow(t[late] - self.first.flight)
        return states


def half_return(p: SystemParams, q, spec: IntegratorSpec) -> HalfReturn:
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
    over the leg's steps, from the series each step kept. The half return
    is the one unit of integration: poincare_return composes two.

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
    flow the Taylor polynomials of the leg's steps by Horner's rule.

    Raises
    ------
    NoReturn when the flight-time budget RETURN_T_MAX is exhausted without
    a crossing; StepLimitExceeded when the leg needs more than
    MAX_STEPS steps; StepUnderflow when a step falls below what
    double precision resolves or the Taylor coefficients or Phi are not
    finite.
    """
    leg = _leg(p, q, spec)
    # far out, the products of the Taylor coefficients can overflow
    with np.errstate(over="ignore", invalid="ignore"):
        phi = _leg_transition(p, *leg.steps)
    if not np.isfinite(phi).all():
        raise StepUnderflow(f"non-finite Phi at t = {leg.flight:.6g}")
    f = vector_field(p, leg.end)
    return HalfReturn(np.asarray(q, dtype=float), -np.array(leg.end[:2]),
                      leg.flight, -(phi - np.outer(f, phi[2]) / f[2])[:2, :2],
                      phi, leg.flow)


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
    i0 = int(np.argmin(np.abs(mults - 1.0)))
    rest = np.delete(mults, i0)
    order = np.lexsort((rest.imag, rest.real))
    return rest[order], mults[i0]


def _newton_return(return_map, q0, tol=SHOOT_TOL, ret=None):
    """Damped Newton on P(q) - q with the exact Jacobian of the return map.

    return_map(q) is the HalfReturn or the Return of a map P of the
    section, the half map T or the full return; Newton reads its start q,
    its point P(q), its jac dP/dq and its residual |P(q) - q|. Each step
    solves (dP/dq - I) dq = -(P(q) - q); the pass of an accepted trial
    point supplies the next Jacobian, so an undamped step costs one
    return. A trial whose return fails counts as a trial that does not
    reduce the residual, so the step is halved. ret, when given, is
    return_map(q0) already evaluated.

    Returns
    -------
    The return at the first point q with |P(q) - q| below tol, or None
    when Newton fails.

    Raises
    ------
    The _RETURN_ERRORS of the return from q0.
    """
    ret = ret or return_map(np.array(q0, dtype=float))
    try:
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
                return None
            ret = trial
    except np.linalg.LinAlgError:
        return None
    return ret if ret.residual < tol else None


def shoot_orbit(
    u: UnfoldingParams,
    eps: float,
    seed,
    spec: Optional[IntegratorSpec] = None,
    partner: Optional[PeriodicOrbitRecord] = None,
    correction=None,
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
      alone by O(eps^3). correction is (z1, z2), as
      closed_form.root_corrections gives them, computed here when None.
      Where eps z1 + eps^2 z2 is longer than MAX_SEED_SHIFT * r, so that
      the expansion does not hold, or Dg is singular, the seed is
      eps (w, r).

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
    from that return.

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
    candidate converges: Newton fails (for a root with w = 0, Newton on
    the half map), a return raises one of the _RETURN_ERRORS, the one full
    return after Newton on the half map misses SHOOT_TOL, or Newton
    converges to within eps * r / 10 of an equilibrium of the system, the
    origin or, for b < 0, (+-sqrt(-b), 0, 0). Its message names each
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
    returns = []  # the start of every return-map call, half or full

    def full_map(q, first=None):
        returns.append(q)
        return poincare_return(p, q, spec, first)

    def half_map(q):
        returns.append(q)
        return half_return(p, q, spec)

    failures, candidates = [], []
    if partner is not None:
        candidates.append(("mirror", partner.mirror_leg.start,
                           partner.mirror_leg))
    try:
        z1, z2 = correction or root_corrections(u, [(r, w)])[0]
        shift = eps * (z1 + eps * z2)
    except np.linalg.LinAlgError:
        shift = np.zeros(2)
    if not np.linalg.norm(shift) <= MAX_SEED_SHIFT * r:
        shift = np.zeros(2)
    candidates.append(("section-image", eps * ((r, w) + shift)[::-1], None))

    newton = "Newton on the half map" if w == 0.0 else "Newton"
    for tag, q0, first in candidates:
        try:
            if w != 0.0:
                ret = _newton_return(full_map, q0, SHOOT_TOL,
                                     first and full_map(q0, first))
            else:
                half = _newton_return(half_map, q0, SHOOT_TOL / 2)
                # the one full return: the last half return and one new leg
                ret = half and full_map(half.start, half)
        except _RETURN_ERRORS as exc:
            failures.append(f"{tag}: {type(exc).__name__}: {exc}")
            continue
        if ret is None:
            failures.append(f"{tag}: {newton} did not converge")
        elif not ret.residual < SHOOT_TOL:
            failures.append(f"{tag}: the full return after Newton on the "
                            f"half map misses by |P(q) - q| = "
                            f"{ret.residual:.3e}")
        elif near := [x for x in equilibria(p)
                      if np.linalg.norm(ret.start - x[:2]) < 0.1 * eps * r]:
            failures.append(f"{tag}: converged to the equilibrium "
                            f"{tuple(near[0].tolist())}")
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
    case and the roots from the prediction it returns. The corrections
    z1, z2 of the section-image seeds are computed once per root and serve
    every eps. The roots (r, w2), (r, -w2) of a mirror pair come in that
    order, and once the +w2 orbit is located at an eps it is the partner
    of the -w2 one, whose candidates are then mirror and section-image in
    that order (see shoot_orbit). Shooting failures are recorded per entry
    without aborting the sweep; a -w2 orbit whose partner failed is shot
    from its section image. An orbit whose section point lies within
    DUPLICATE_TOL * eps of an earlier root's at the same eps is that root's
    orbit, not one of its own: it is recorded as the failure "duplicate of
    orbit j", so that no orbit is counted twice.

    Raises
    ------
    HypothesisViolated when a1 or b1 is nonzero, where the predicted roots
    are no orbits, and where predicted_roots raises; DegeneratePrediction on
    a collapse boundary, where it predicts DEGENERATE; ValueError for
    an empty eps_list, one not strictly decreasing, or one with an eps
    outside (0, MAX_EPS], NaN included, before anything is shot.
    """
    spec = spec or IntegratorSpec()
    eps_list = [float(e) for e in eps_list]
    if not eps_list or any(not 0.0 < e <= MAX_EPS for e in eps_list):
        raise ValueError(f"eps_list must lie in (0, {MAX_EPS}]")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    require_first_order_zero(u.a1, u.b1)
    prediction = predicted_roots(u.a2, u.b2, u.delta)
    if prediction.count is OrbitCount.DEGENERATE:
        raise DegeneratePrediction(prediction.degenerate_reason)

    corrections = root_corrections(u, prediction.roots)
    entries = []
    for eps in eps_list:
        records: dict[int, PeriodicOrbitRecord] = {}
        failures: dict[int, str] = {}
        for i, root in enumerate(prediction.roots):
            paired = (root[1] < 0.0 and i > 0
                      and prediction.roots[i - 1] == (root[0], -root[1]))
            partner = records.get(i - 1) if paired else None
            try:
                rec = shoot_orbit(u, eps, root, spec, partner, corrections[i])
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
