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

Every flow is integrated by scipy's adaptive RK45 (Dormand-Prince 5(4))
under the budget of an IntegratorSpec, with its continuous extension as
the dense output.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .closed_form import HypothesisViolated, OrbitCount, predicted_roots
from .jerk import SystemParams
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

#: smallest rel_tol RK45 honours; scipy raises anything below it to this
MIN_REL_TOL = 100 * np.finfo(float).eps


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
    """Tolerances and step budget of the RK45 integrator.

    max_steps bounds the steps of each integration leg between section
    crossings and is checked when the leg ends.
    """

    abs_tol: float = 1e-11
    rel_tol: float = 1e-11
    max_step: float = math.inf
    max_steps: int = 1_000_000

    def __post_init__(self):
        if self.abs_tol <= 0.0 or self.rel_tol <= 0.0:
            raise ValueError("integrator tolerances must be positive")
        if self.rel_tol < MIN_REL_TOL:
            raise ValueError(f"rel_tol must be at least {MIN_REL_TOL:.3g}, "
                             f"got {self.rel_tol}")
        if not self.max_step > 0.0:
            raise ValueError(f"max_step must be positive, got {self.max_step}")
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


def _variational_rhs(p: SystemParams) -> Callable:
    """The flow and Phi' = J Phi on (x, y, z, Phi), Phi row-major in s[3:12]."""
    a, b, c = p.a, p.b, p.c

    def rhs(t, s):
        x, y, z, p0, p1, p2, p3, p4, p5, p6, p7, p8 = s.tolist()
        jx = -b + y * y - 3.0 * x * x  # d(dz/dt)/dx
        jy = c + 2.0 * x * y  # d(dz/dt)/dy
        return (y, z, -a * z - b * x + c * y + x * y * y - x ** 3,
                p3, p4, p5, p6, p7, p8,
                jx * p0 + jy * p3 - a * p6,
                jx * p1 + jy * p4 - a * p7,
                jx * p2 + jy * p5 - a * p8)

    return rhs


def _first_crossing(fun, s0, spec: IntegratorSpec, direction: int,
                    t_max: float):
    """First z = 0 crossing of the flow of fun with sign(dz/dt) = direction.

    A start exactly on the section does not count as a crossing. Returns
    (t_cross, state_cross, dense) at the integrator's event root, where
    dense is the continuous extension of the solve over [0, t_cross], or
    None when no crossing occurs before t_max.
    """
    from scipy.integrate import solve_ivp  # deferred: classify never integrates

    event = lambda t, s: s[2]
    event.terminal = True
    event.direction = float(direction)
    sol = solve_ivp(
        fun,
        (0.0, float(t_max)),
        np.asarray(s0, dtype=float),
        method="RK45",
        rtol=spec.rel_tol,
        atol=spec.abs_tol,
        max_step=spec.max_step,
        dense_output=True,
        events=[event],
    )
    if sol.status == -1:
        raise StepUnderflow(sol.message)
    if len(sol.t) - 1 > spec.max_steps:
        raise StepLimitExceeded(
            f"{len(sol.t) - 1} steps exceed the limit {spec.max_steps}"
        )
    if len(sol.t_events[0]) == 0:
        return None
    return float(sol.t_events[0][0]), sol.y_events[0][0], sol.sol


def poincare_return(p: SystemParams, q, spec: IntegratorSpec,
                    orientation: int = -1):
    """First return to the section {z = 0} with the chosen orientation.

    The default orientation -1 is the section {z = 0, y > 0} crossed with
    dz/dt < 0; orientation +1 is its mirror image {z = 0, y < 0} crossed
    upward, which the odd symmetry of the field maps onto the default one.

    Parameters
    ----------
    q : (x, y) coordinates on the section
    spec : integrator budget

    Returns
    -------
    ((x', y'), flight_time, dP/dq, Phi, flow) at the event root of the
    next same-orientation crossing with the correct y sign. Phi is the
    fundamental matrix over the flight from (q, 0), the monodromy matrix
    at a fixed point; dP/dq is Phi projected along the field f at the
    crossing onto the section, (Phi - outer(f, Phi[2]) / f[2])[:2, :2].
    flow maps an array of times in [0, flight_time] to the (len(t), 3)
    states there, read from the dense output of the integration legs
    between crossings; flow(0) is (q, 0) exactly.

    Raises
    ------
    NoReturn when the flight-time budget RETURN_T_MAX is exhausted without
    an admissible crossing.
    """
    fun = _variational_rhs(p)
    state = np.concatenate([(q[0], q[1], 0.0), np.eye(3).ravel()])
    elapsed = 0.0
    starts, legs = [], []  # start time and dense output of each leg

    def flow(t):
        t = np.asarray(t, dtype=float)
        leg = np.searchsorted(starts[1:], t, side="right")
        states = np.empty((t.size, 3))
        for k in np.unique(leg):
            at = leg == k
            states[at] = legs[k](t[at] - starts[k])[:3].T
        return states

    for _ in range(8):
        for direction in (-orientation, orientation):  # half-turn, then full
            crossing = _first_crossing(fun, state, spec, direction,
                                       RETURN_T_MAX - elapsed)
            if crossing is None:
                raise NoReturn(f"no {direction:+d} crossing within "
                               f"t_max={RETURN_T_MAX}")
            starts.append(elapsed)
            legs.append(crossing[2])
            elapsed += crossing[0]
            state = crossing[1]
        if state[1] * orientation < 0.0:  # y > 0 for orientation -1
            f = np.array(fun(elapsed, state)[:3])
            phi = state[3:].reshape(3, 3)
            jac = (phi - np.outer(f, phi[2]) / f[2])[:2, :2]
            return state[:2].copy(), elapsed, jac, phi, flow
    raise NoReturn(f"no admissible section point after {elapsed:.3f} time units")


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
    """
    spec = spec or IntegratorSpec()
    eps_list = [float(e) for e in eps_list]
    if not eps_list or any(e <= 0.0 for e in eps_list):
        raise ValueError("eps_list must contain positive values")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    prediction = predicted_roots(u.a2, u.b2, u.delta)
    if prediction.count is OrbitCount.DEGENERATE:
        raise HypothesisViolated(prediction.degenerate_reason)

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
