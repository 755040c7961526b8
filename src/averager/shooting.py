"""Locating true periodic orbits of the jerk system by section shooting.

The predictions of the averaged analysis are (r, w) roots; mapped through
the coordinate pipeline at theta = 0 they give points on the plane section
{z = 0, y > 0}, crossed with dz/dt < 0. Newton iteration on the first
return map of that section turns each prediction into an actual periodic
orbit of the full nonlinear system. Each return is one pass of the flow
and its variational equations, which gives the return point, the exact
Jacobian of the return map, the dense output of the flight and, at the
fixed point, the monodromy matrix whose eigenvalues are the Floquet
multipliers. The accepted return at the fixed point is the only
integration of a located orbit: its trace is sampled from that return's
dense output.

The field is a cubic polynomial, so every flow is integrated by a Taylor
series method (Jorba and Zou, Experimental Mathematics 14, 2005): short
recurrences give the Taylor coefficients of the flow and of its
variational equations, and the step polynomials are the dense output. The
budget of an IntegratorSpec sets each step. The order is
ceil(1 - ln(tol) / 2), where tol is abs_tol while rel_tol times the state's
largest coordinate stays below it and rel_tol otherwise; the step is the
radius of convergence estimated from the last two coefficients, divided by
e^2. A return is one leg of such steps, scanned for the first admissible
section crossing; max_steps bounds the steps of one return.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from operator import mul
from typing import Optional

import numpy as np

from .closed_form import (
    DegeneratePrediction,
    OrbitCount,
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

#: smallest rel_tol accepted: a relative error below 100 units in the
#: last place is lost in the round-off of the Taylor sums
MIN_REL_TOL = 100 * np.finfo(float).eps

#: fractions of a Taylor step at which its z polynomial is sampled for a
#: crossing: the start, 8 interior points and the end
_CROSSING_FRACTIONS = np.linspace(0.0, 1.0, 10)


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


#: the failures of one orbit's shooting that a caller records and moves past
SHOOTING_ERRORS = (ShootingDiverged, NoReturn, SeedInvalid,
                   StepLimitExceeded, StepUnderflow)


@dataclass(frozen=True)
class IntegratorSpec:
    """Tolerances and step budget of the Taylor integrator.

    abs_tol and rel_tol set the order and the step length of each step
    (see the module docstring); max_steps bounds the steps of one return
    to the section.
    """

    abs_tol: float = 1e-11
    rel_tol: float = 1e-11
    max_steps: int = 1_000_000

    def __post_init__(self):
        if self.abs_tol <= 0.0 or self.rel_tol <= 0.0:
            raise ValueError("integrator tolerances must be positive")
        if self.rel_tol < MIN_REL_TOL:
            raise ValueError(f"rel_tol must be at least {MIN_REL_TOL:.3g}, "
                             f"got {self.rel_tol}")
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


def _taylor_coefficients(p: SystemParams, m: np.ndarray,
                         order: int) -> np.ndarray:
    """Taylor coefficients of the flow and of Phi' = J Phi at m = [s | Phi].

    Returns the (order + 1, 3, 4) array whose k-th entry holds the k-th
    coefficients of [s | Phi]. The derivative [f(s) | J Phi] has rows 1
    and 2 of [s | Phi] as its rows 0 and 1, so only row 2 needs products:
    z' = -a z - b x + c y + x (y^2 - x^2) takes the Cauchy products x^2,
    xy, y^2 and x (y^2 - x^2), and row 2 of Phi' is
    (-b + y^2 - 3 x^2, c + 2 x y) times rows 0 and 1 of Phi, minus a times
    its row 2.
    """
    a, b, c = p.a, p.b, p.c
    (x0, *phi0), (y0, *phi1), (z0, *phi2) = m.tolist()
    x, y, z = [x0], [y0], [z0]
    quad = []  # y^2 - x^2
    jac = []  # the series of (-b + y^2 - 3 x^2, c + 2 x y), interleaved
    # per column of Phi: rows 0 and 1 interleaved, newest first, so that
    # the Cauchy product with jac is one sum, and row 2 in order
    low = [[u, v] for u, v in zip(phi0, phi1)]
    high = [[w] for w in phi2]
    for k in range(order):
        xx = sum(map(mul, x, reversed(x)))
        xy = sum(map(mul, x, reversed(y)))
        yy = sum(map(mul, y, reversed(y)))
        quad.append(yy - xx)
        if k:
            jac += yy - 3.0 * xx, 2.0 * xy
        else:
            jac += yy - 3.0 * xx - b, 2.0 * xy + c
        inv = 1.0 / (k + 1)
        z.append((c * y[k] - b * x[k] - a * z[k]
                  + sum(map(mul, x, reversed(quad)))) * inv)
        x.append(y[k] * inv)
        y.append(z[k] * inv)
        for uv, w in zip(low, high):
            w.append((sum(map(mul, jac, uv)) - a * w[k]) * inv)
            uv[:0] = uv[1] * inv, w[k] * inv
    rows = [x, *(uv[-2::-2] for uv in low), y, *(uv[::-2] for uv in low),
            z, *high]
    return np.array(rows).T.reshape(order + 1, 3, 4)


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


def _first_crossing(p: SystemParams, m0, spec: IntegratorSpec,
                    orientation: int):
    """First admissible crossing of the section with the given orientation.

    A crossing is admissible when z changes sign in the orientation
    direction and y * orientation < 0: for orientation -1, z falls through
    0 with y > 0. m0 = [s | Phi] is the (3, 4) start of the flow and of
    Phi' = J Phi. Each Taylor step takes the order and the length of Jorba
    and Zou's rule (see the module docstring). Its z polynomial is sampled
    at the _CROSSING_FRACTIONS of the step; each sign change in the
    orientation direction is polished to a root by Newton on that
    polynomial, and one that fails the y test is skipped. A start exactly
    on the section does not count as a crossing.

    Returns (t_cross, m_cross, steps), with m_cross on the section (its z
    set to 0) and steps the (start time, coefficients) of each Taylor
    step over [0, t_cross], or None when no admissible crossing occurs
    before RETURN_T_MAX.

    Raises
    ------
    StepLimitExceeded when the return needs more than spec.max_steps
    steps; StepUnderflow when a step falls below what double precision
    resolves or the Taylor coefficients are not finite.
    """
    m = np.asarray(m0, dtype=float)
    t = 0.0
    steps = []
    while t < RETURN_T_MAX:
        if len(steps) == spec.max_steps:
            raise StepLimitExceeded(
                f"more than {spec.max_steps} steps before t = {RETURN_T_MAX}")
        size = float(np.max(np.abs(m[:, 0])))
        if spec.rel_tol * size <= spec.abs_tol:
            tol, scale = spec.abs_tol, 1.0
        else:
            tol, scale = spec.rel_tol, size
        order = math.ceil(1.0 - 0.5 * math.log(tol))
        coef = _taylor_coefficients(p, m, order)
        last = np.max(np.abs(coef[-2:, :, 0]), axis=1).tolist()
        if not max(last) < math.inf:
            raise StepUnderflow(f"non-finite Taylor coefficients at t = {t:.6g}")
        radius = min((scale / norm) ** (1.0 / j) if norm > 0.0 else math.inf
                     for j, norm in zip((order - 1, order), last))
        h = radius * math.exp(-2.0)
        if not h > 10.0 * math.ulp(t):
            raise StepUnderflow(f"step {h:.3g} below the resolution at "
                                f"t = {t:.6g}")
        h = min(h, RETURN_T_MAX - t)
        steps.append((t, coef))
        powers = np.arange(order + 1)
        flat = coef.reshape(order + 1, 12)
        z = coef[:, 2, 0] * h ** powers  # z as a polynomial in u = tau / h
        samples = (_CROSSING_FRACTIONS[:, None] ** powers @ z).tolist()
        for i in range(len(samples) - 1):
            if orientation * samples[i] < 0.0 <= orientation * samples[i + 1]:
                u = _crossing_root(z.tolist(), _CROSSING_FRACTIONS[i],
                                   _CROSSING_FRACTIONS[i + 1])
                m = ((u * h) ** powers @ flat).reshape(3, 4)
                if m[1, 0] * orientation < 0.0:
                    m[2, 0] = 0.0
                    return t + u * h, m, steps
        m = (h ** powers @ flat).reshape(3, 4)
        t = t + h if h < RETURN_T_MAX - t else RETURN_T_MAX
    return None


def poincare_return(p: SystemParams, q, spec: IntegratorSpec,
                    orientation: int = -1):
    """First return to the section {z = 0} with the chosen orientation.

    The default orientation -1 is the section {z = 0, y > 0} crossed with
    dz/dt < 0; orientation +1 is its mirror image {z = 0, y < 0} crossed
    upward, which the odd symmetry of the field maps onto the default one.
    The return is one Taylor leg from (q, 0) to the first admissible
    crossing of _first_crossing.

    Parameters
    ----------
    q : (x, y) coordinates on the section
    spec : integrator budget

    Returns
    -------
    ((x', y'), flight_time, dP/dq, Phi, flow) at the polished root of the
    crossing. Phi is the fundamental matrix over the flight from (q, 0),
    the monodromy matrix at a fixed point; dP/dq is Phi projected along
    the field f at the crossing onto the section,
    (Phi - outer(f, Phi[2]) / f[2])[:2, :2]. flow maps an array of times
    in [0, flight_time] to the (len(t), 3) states there, read from the
    Taylor polynomials of the leg's steps; flow(0) is (q, 0) exactly.

    Raises
    ------
    NoReturn when the flight-time budget RETURN_T_MAX is exhausted without
    an admissible crossing.
    """
    m0 = np.column_stack([(q[0], q[1], 0.0), np.eye(3)])
    crossing = _first_crossing(p, m0, spec, orientation)
    if crossing is None:
        raise NoReturn(f"no admissible section point within "
                       f"t_max={RETURN_T_MAX}")
    flight, m, steps = crossing
    starts, polys = zip(*steps)  # start time and coefficients of each step

    def flow(t):
        t = np.asarray(t, dtype=float)
        step = np.searchsorted(starts[1:], t, side="right")
        states = np.empty((t.size, 3))
        for k in np.unique(step):
            at = step == k
            powers = np.arange(len(polys[k]))
            states[at] = (t[at, None] - starts[k]) ** powers @ polys[k][:, :, 0]
        return states

    f = vector_field(p, m[:, 0])
    phi = m[:, 1:]
    jac = (phi - np.outer(f, phi[2]) / f[2])[:2, :2]
    return m[:2, 0].copy(), flight, jac, phi, flow


def _nontrivial_multipliers(mono: np.ndarray):
    """(two nontrivial multipliers, trivial multiplier closest to 1)."""
    mults = np.linalg.eigvals(mono)
    i0 = int(np.argmin(np.abs(mults - 1.0)))
    rest = np.delete(mults, i0)
    order = np.lexsort((rest.imag, rest.real))
    return rest[order], mults[i0]


def _newton_return(p, q0, spec):
    """Damped Newton on P(q) - q with the exact Jacobian of the return map.

    Each step solves (dP/dq - I) dq = -(P(q) - q); the pass of an accepted
    trial point supplies the next Jacobian, so an undamped step costs one
    return. Returns (q, |P(q) - q|, flight time of P at q, monodromy
    matrix at q, flow of that return) at the fixed point, or None when
    Newton fails.
    """
    q = np.array(q0, dtype=float)
    try:
        ret = poincare_return(p, q, spec)
        res = float(np.linalg.norm(ret[0] - q))
        for _ in range(MAX_NEWTON_ITER):
            if res < SHOOT_TOL:
                break
            step = np.linalg.solve(ret[2] - np.eye(2), q - ret[0])
            lam = 1.0
            for _ in range(12):
                trial = q + lam * step
                trial_ret = poincare_return(p, trial, spec)
                trial_res = float(np.linalg.norm(trial_ret[0] - trial))
                if trial_res < res:
                    break
                lam *= 0.5
            else:
                return None
            q, ret, res = trial, trial_ret, trial_res
    except (NoReturn, np.linalg.LinAlgError):
        return None
    return (q, res, ret[1], ret[3], ret[4]) if res < SHOOT_TOL else None


def shoot_orbit(
    u: UnfoldingParams,
    eps: float,
    seed,
    spec: Optional[IntegratorSpec] = None,
    initial_point=None,
) -> PeriodicOrbitRecord:
    """Locate the periodic orbit predicted by the averaged root (r, w).

    The section seed is eps*(w, r), the theta = 0 image of the root under
    the coordinate pipeline. An explicit initial_point, e.g. a warm start
    from a nearby eps, is tried first, and the section seed after it.

    Returns
    -------
    PeriodicOrbitRecord with the converged section point, the period (the
    return flight time), the residual of the return displacement, the
    two nontrivial Floquet multipliers and the trace of one period,
    sampled from the dense output of the return at the fixed point.

    Raises
    ------
    SeedInvalid for r <= 0 or non-finite seeds; ShootingDiverged when no
    candidate converges; ValueError for eps outside (0, MAX_EPS].
    """
    spec = spec or IntegratorSpec()
    r, w = float(seed[0]), float(seed[1])
    if not (np.isfinite(r) and np.isfinite(w)) or r <= 0.0:
        raise SeedInvalid(f"seed (r, w) = ({r}, {w}) needs finite values, r > 0")
    if not (0.0 < eps <= MAX_EPS):
        raise ValueError(f"eps = {eps} outside the shooting range (0, {MAX_EPS}]")
    p = unfold(u, eps)
    q_section = np.array([eps * w, eps * r])
    candidates = [("section-image", q_section)]
    if initial_point is not None:
        candidates.insert(0, ("warm-start", np.asarray(initial_point, dtype=float)))

    found = None
    for tag, q0 in candidates:
        found = _newton_return(p, q0, spec)
        if found is not None:
            fixed, residual, period, mono, flow = found
            logger.info(
                "seed (r=%.6g, w=%.6g) eps=%.6g: converged from %s start; "
                "fixed point at %.3e from eps*(w, r)",
                r, w, eps, tag, float(np.linalg.norm(fixed - q_section)),
            )
            break
    if found is None:
        raise ShootingDiverged(
            f"no candidate seed converged for (r, w) = ({r}, {w}) at eps = {eps}"
        )

    floq, trivial = _nontrivial_multipliers(mono)
    logger.debug(
        "orbit at eps=%.6g: period=%.12g, trivial multiplier defect %.3e",
        eps, period, abs(trivial - 1.0),
    )
    t = np.linspace(0.0, period, TRACE_SAMPLES)
    return PeriodicOrbitRecord(
        eps=eps,
        section_point=fixed,
        period=period,
        residual=residual,
        floquet=floq,
        seed=(r, w),
        trace=(t, flow(t)),
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

    amp_slopes and seed_error_slopes are log-log fits against eps, one per
    root index; max_coords[i][k] is the largest coordinate magnitude along
    orbit i at the k-th eps; monotone says whether every orbit's extent
    shrank strictly at each step of the sweep.
    """

    roots: list
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

    Later eps values warm-start from the previous fixed point scaled by the
    eps ratio. Shooting failures are recorded per entry without aborting
    the sweep.

    Raises
    ------
    HypothesisViolated when a1 or b1 is nonzero, where the predicted roots
    are no orbits, and where predicted_roots raises; DegeneratePrediction on
    a collapse boundary, where it predicts DEGENERATE; ValueError for
    an empty, non-positive or non-decreasing eps_list.
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
    warm: dict[int, np.ndarray] = {}
    prev_eps: Optional[float] = None
    max_coords: dict[int, list] = {i: [] for i in range(len(prediction.roots))}
    for eps in eps_list:
        records: dict[int, PeriodicOrbitRecord] = {}
        failures: dict[int, str] = {}
        for i, root in enumerate(prediction.roots):
            start = None
            if i in warm and prev_eps is not None:
                start = warm[i] * (eps / prev_eps)
            try:
                rec = shoot_orbit(u, eps, root, spec, initial_point=start)
            except SHOOTING_ERRORS as exc:
                failures[i] = f"{type(exc).__name__}: {exc}"
                warm.pop(i, None)
                max_coords[i].append(math.nan)
                continue
            records[i] = rec
            warm[i] = rec.section_point
            max_coords[i].append(float(np.max(np.abs(rec.trace[1]))))
        entries.append(SweepEntry(eps=eps, records=records, failures=failures))
        prev_eps = eps

    amp_slopes = {}
    seed_error_slopes = {}
    monotone = True
    for i, root in enumerate(prediction.roots):
        eps_ok, amps, errs = [], [], []
        for entry in entries:
            rec = entry.records.get(i)
            if rec is None:
                continue
            eps_ok.append(entry.eps)
            amps.append(float(np.linalg.norm(rec.section_point)))
            target = entry.eps * np.array([root[1], root[0]])
            errs.append(float(np.linalg.norm(rec.section_point - target)))
        if len(eps_ok) >= 2:
            log_eps = np.log(eps_ok)
            amp_slopes[i] = float(np.polyfit(log_eps, np.log(amps), 1)[0])
            safe = np.maximum(errs, 1e-300)
            seed_error_slopes[i] = float(np.polyfit(log_eps, np.log(safe), 1)[0])
        coords = [mc for mc in max_coords[i] if not math.isnan(mc)]
        if any(b >= a for a, b in zip(coords, coords[1:])):
            monotone = False
    return SweepResult(
        roots=list(prediction.roots),
        entries=entries,
        amp_slopes=amp_slopes,
        seed_error_slopes=seed_error_slopes,
        max_coords=max_coords,
        monotone=monotone,
    )
