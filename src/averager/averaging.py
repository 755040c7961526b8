"""Generic first and second order averaging plus root certification.

Works on any StandardFormSystem. The first averaged function is the time
mean of F1; the second adds the mean of DF1(z, s) . int_0^s F1(z, t) dt
+ F2(z, s). Both means are Gauss-Legendre quadratures over one period,
and the inner integral of the second is the spectral integration matrix
of the same rule, so one node set serves both. Each result is accepted
after an (N, 2N) agreement check. Simple zeros of these functions,
certified by a nonzero Jacobian determinant, correspond to periodic
solutions of the underlying periodic system for small eps.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .normal_form import StandardFormSystem

#: (N, 2N) disagreement beyond this raises QuadratureNotConverged
CONVERGENCE_TOL = 1e-6

#: (N, 2N) disagreement beyond this merely warns
ACCURACY_TOL = 1e-12

#: finite-difference step scale for Jacobians
FD_STEP = 1e-6

#: roots closer than this are considered duplicates
DEDUP_TOL = 1e-6

#: largest accepted node count; the (N, 2N) check builds a dense 2N x 2N
#: eigenproblem for the Gauss-Legendre nodes and caches a dense 2N x 2N
#: integration matrix, whose memory grows as N^2 (33.6 MB at 2N = 2048);
#: the samples of a batch do not, since MAX_SAMPLES bounds them
MAX_NODES = 1024

#: most points x nodes that average_first and average_second sample at
#: once; a larger batch is evaluated in chunks of MAX_SAMPLES // nodes
#: points, so peak memory stops growing with the batch (the jerk standard
#: form needs about 100 bytes per sample)
MAX_SAMPLES = 2 ** 18

#: residual bound for accepting a converged root
ROOT_TOL = 1e-10

#: below this |jac_det| a root's degree sign is DEGENERATE
DET_TOL = 1e-8


class QuadratureNotConverged(RuntimeError):
    """Doubling the node count moved the result more than the hard limit."""


class QuadratureAccuracyWarning(UserWarning):
    """Doubling the node count moved the result more than the target accuracy."""


class DegreeSign(Enum):
    PLUS = "plus"
    MINUS = "minus"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class QuadratureSpec:
    """Node budget for the averaging quadratures.

    nodes is the Gauss-Legendre size N, in [16, MAX_NODES], shared by the
    outer mean and the inner integral of the second average; a result is
    accepted only after an (N, 2N) agreement check.
    """

    nodes: int = 64

    def __post_init__(self):
        if not 16 <= self.nodes <= MAX_NODES:
            raise ValueError(
                f"node count must lie in [16, {MAX_NODES}], got {self.nodes}"
            )


@dataclass(frozen=True)
class AveragedRoot:
    """A zero of an averaged function with its degree certificate."""

    z: np.ndarray
    residual: float
    jac_det: float
    degree_sign: DegreeSign


@lru_cache(maxsize=64)
def _rule_nodes(n_nodes: int, period: float):
    """Gauss-Legendre nodes s, weights w and integration matrix S on [0, period].

    For samples f at s, (S @ f)[i] is the integral from 0 to s_i of their
    degree n_nodes - 1 interpolant (Greengard, SIAM J. Numer. Anal. 28,
    1991). The rule itself maps the samples to Legendre coefficients,
    exactly since it integrates degree 2 n_nodes - 1 exactly; they are
    integrated term by term and evaluated back at the nodes. Cached
    because building the rule costs far more than applying it when
    averaging over large evaluation grids. The returned arrays are
    read-only.
    """
    leg = np.polynomial.legendre
    x, w = leg.leggauss(n_nodes)
    k = np.arange(n_nodes)[:, None]
    coeffs = (k + 0.5) * leg.legvander(x, n_nodes - 1).T * w
    S = leg.legvander(x, n_nodes) @ leg.legint(coeffs, lbnd=-1.0)
    S *= 0.5 * period
    s, w = 0.5 * period * (x + 1.0), 0.5 * period * w
    for arr in (s, w, S):
        arr.flags.writeable = False
    return s, w, S


def _refined_mean(compute: Callable, z, n_nodes: int, what: str) -> np.ndarray:
    """compute(points, nodes) at N and 2N nodes, accepted after the check.

    compute maps points of shape (n, *batch) to means of the same shape.
    It gets z whole when z has at most MAX_SAMPLES // nodes points, and
    otherwise z's points flattened into chunks of at most that many.
    """
    z = np.asarray(z, dtype=float)
    flat = z.reshape(len(z), -1)

    def in_chunks(nodes: int) -> np.ndarray:
        size = max(1, MAX_SAMPLES // nodes)
        if flat.shape[1] <= size:
            return compute(z, nodes)
        parts = [compute(flat[:, i:i + size], nodes)
                 for i in range(0, flat.shape[1], size)]
        return np.concatenate(parts, axis=1).reshape(z.shape)

    coarse = in_chunks(n_nodes)
    fine = in_chunks(2 * n_nodes)
    # thresholds scale with each point's result so that large-amplitude
    # integrands are judged at the precision floating point can deliver,
    # and a large point never loosens the threshold of another in its batch
    scale = np.maximum(1.0, np.max(np.abs(fine), axis=0))
    diff = np.max(np.abs(fine - coarse), axis=0)
    loose = diff > ACCURACY_TOL * scale
    if not loose.any():
        return fine
    worst = np.argmax(np.divide(diff, scale, out=np.zeros_like(diff),
                                where=loose))
    where = (f"{diff.flat[worst]:.3e} at N={n_nodes}, "
             f"z = {np.reshape(z, (len(z), -1))[:, worst].tolist()}")
    if np.any(diff > CONVERGENCE_TOL * scale):
        raise QuadratureNotConverged(f"{what}: (N, 2N) disagreement {where}")
    warnings.warn(f"{what}: (N, 2N) agreement only {where}",
                  QuadratureAccuracyWarning, stacklevel=3)
    return fine


def average_first(sys: StandardFormSystem, z, q: QuadratureSpec) -> np.ndarray:
    """First averaged function f(z) = (1/T) int_0^T F1(z, s) ds.

    z is one point of shape (n,) or a batch of shape (n, *batch); the
    result has the same shape. Each point passes its own (N, 2N) check,
    and the error or warning names the worst point.
    """

    def compute(points, n_nodes: int) -> np.ndarray:
        s, w, _ = _rule_nodes(n_nodes, sys.period)
        return np.asarray(sys.f1(points, s), dtype=float) @ w / sys.period

    return _refined_mean(compute, z, q.nodes, "average_first")


def average_second(sys: StandardFormSystem, z, q: QuadratureSpec) -> np.ndarray:
    """Second averaged function g(z).

    g(z) = (1/T) int_0^T [ DF1(z, s) . int_0^s F1(z, t) dt + F2(z, s) ] ds.
    Both integrals use the same nodes: the inner one is the integration
    matrix of the rule applied to the samples of F1, so each pass of the
    (N, 2N) check carries its own inner integral and the check covers both.
    z is one point or a batch, shaped as in average_first.
    """

    def compute(points, n_nodes: int) -> np.ndarray:
        s, w, S = _rule_nodes(n_nodes, sys.period)
        inner = np.asarray(sys.f1(points, s), dtype=float) @ S.T
        jac = np.asarray(sys.df1(points, s), dtype=float)
        integrand = np.einsum("ij...m,j...m->i...m", jac, inner)
        integrand += np.asarray(sys.f2(points, s), dtype=float)
        return integrand @ w / sys.period

    return _refined_mean(compute, z, q.nodes, "average_second")


def _value_and_jacobian(fun: Callable, z: np.ndarray):
    """fun at the rows of z and its central-difference Jacobians, from one call.

    z has shape (k, n), and each row gets its own step h. fun gets the
    (n, k, 2n + 1) batch of every row and its 2n neighbours z +- h e_i;
    the result is the (k, n) values and the (k, n, n) Jacobians.
    """
    n = z.shape[1]
    h = FD_STEP * (1.0 + np.max(np.abs(z), axis=1))
    offsets = np.hstack([np.zeros((n, 1)), np.eye(n), -np.eye(n)])
    points = z.T[:, :, None] + h[:, None] * offsets[:, None, :]
    vals = np.asarray(fun(points), float)
    jac = (vals[:, :, 1:n + 1] - vals[:, :, n + 1:]) / (2.0 * h[:, None])
    return vals[:, :, 0].T, np.moveaxis(jac, 0, 1)


def _norms(f: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, to the bit np.linalg.norm of that row.

    np.linalg.norm along an axis sums the squares in another order.
    """
    return np.sqrt(f[:, None, :] @ f[:, :, None])[:, 0, 0]


def _newton_steps(jac: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Newton step of each row; a row whose Jacobian is singular gets NaN.

    One stacked solve serves every row unless some Jacobian is exactly
    singular, which makes the stacked solve raise for all of them; only
    then is each row solved on its own.
    """
    try:
        return np.linalg.solve(jac, -f[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        steps = np.full(f.shape, np.nan)
        for i in range(len(f)):
            try:
                steps[i] = np.linalg.solve(jac[i], -f[i])
            except np.linalg.LinAlgError:
                pass
        return steps


def _damped_newton(fun: Callable, seeds, max_iter: int = 60) -> list:
    """Newton with step halving from every seed at once.

    seeds has shape (k, n). Each seed runs its own iteration: at most
    max_iter accepted steps, each the full Newton step or one of its first
    29 halvings, and it fails on its own when its step is singular or not
    finite. All trial points of a round go to fun together, with their
    central-difference neighbours (see _value_and_jacobian), so a round
    costs one call of fun and an accepted point carries its Jacobian to
    the next step. Returns, per seed in order, (z, |fun(z)|, Jacobian at
    z) at a converged z, or None when that seed fails to converge.
    """
    z = np.array(seeds, dtype=float)
    k = len(z)
    found: list = [None] * k
    if k == 0:
        return found
    fz, jac = _value_and_jacobian(fun, z)
    res = _norms(fz)
    step = np.zeros_like(z)
    lam = np.ones(k)
    iters = np.zeros(k, dtype=int)
    halvings = np.zeros(k, dtype=int)
    active = np.ones(k, dtype=bool)
    fresh = active.copy()  # seeds that have just reached a new point
    while True:
        # a seed at a new point stops when it has converged or used up its
        # steps, and otherwise starts a new Newton step
        for i in np.flatnonzero(fresh & (res < ROOT_TOL)):
            found[i] = (z[i].copy(), float(res[i]), jac[i].copy())
        stop = fresh & ((res < ROOT_TOL) | (iters == max_iter))
        active &= ~stop
        fresh &= ~stop
        if fresh.any():
            step[fresh] = _newton_steps(jac[fresh], fz[fresh])
            lam[fresh] = 1.0
            halvings[fresh] = 0
            active &= np.all(np.isfinite(step), axis=1)
        rows = np.flatnonzero(active)
        if len(rows) == 0:
            return found
        trial = z[rows] + lam[rows, None] * step[rows]
        f_new, jac_new = _value_and_jacobian(fun, trial)
        res_new = _norms(f_new)
        better = res_new < res[rows]
        fresh[:] = False
        take = rows[better]
        z[take], fz[take], jac[take], res[take] = (
            trial[better], f_new[better], jac_new[better], res_new[better])
        iters[take] += 1
        fresh[take] = True
        # a seed stalled even with the smallest damped step fails
        worse = rows[~better]
        halvings[worse] += 1
        lam[worse] *= 0.5
        active[worse[halvings[worse] == 30]] = False


def _grid_seeds(fun, box, grids):
    """Seed points from corner sign changes and local minima of |fun|.

    Returned as one (k, n) array, the cell midpoints first.
    """
    n = len(box)
    axes = [np.linspace(lo, hi, g + 1) for (lo, hi), g in zip(box, grids)]
    mesh = np.array(np.meshgrid(*axes, indexing="ij"))
    vals = np.moveaxis(np.asarray(fun(mesh), dtype=float), 0, -1)
    norms = np.linalg.norm(vals, axis=-1)

    # cells where every component straddles zero among the 2^n corners
    views = [
        vals[tuple(slice(o, o + g) for o, g in zip(offset, grids))]
        for offset in product((0, 1), repeat=n)
    ]
    straddle = np.all(
        (np.minimum.reduce(views) <= 0.0) & (np.maximum.reduce(views) >= 0.0),
        axis=-1,
    )
    mids = np.array(np.meshgrid(*[0.5 * (ax[:-1] + ax[1:]) for ax in axes],
                                indexing="ij"))
    # grid points that are local minima of the residual norm
    padded = np.pad(norms, 1, constant_values=np.inf)
    core = padded[(slice(1, -1),) * n]
    is_min = np.ones(norms.shape, dtype=bool)
    for ax in range(n):
        for off in (-1, 1):
            sl = [slice(1, -1)] * n
            sl[ax] = slice(1 + off, padded.shape[ax] - 1 + off)
            is_min &= core <= padded[tuple(sl)]
    return np.concatenate([mids[:, straddle], mesh[:, is_min]], axis=1).T


def find_roots(fun: Callable, box: Sequence, grid=32) -> list[AveragedRoot]:
    """All zeros of fun inside the box, with degree certificates.

    Parameters
    ----------
    fun : callable mapping points of shape (n, *batch) to values of shape
        (n, *batch); it gets the whole seeding grid at once, and then one
        batch per Newton round, of shape (n, seeds, 2n + 1): the trial
        point z of every seed still iterating and its 2n central-difference
        neighbours z +- h e_i
    box : sequence of (lo, hi) pairs, one per coordinate
    grid : cells per axis for seeding (int or per-axis sequence)

    Returns
    -------
    Roots sorted by their coordinates rounded to multiples of DEDUP_TOL,
    so roundoff never orders a mirror pair, each with residual below
    ROOT_TOL; the degree sign is DEGENERATE when |jac_det| < DET_TOL.
    Converged points outside the box are discarded, so an empty list is a
    valid outcome.
    """
    box = [(float(lo), float(hi)) for lo, hi in box]
    n = len(box)
    grids = [grid] * n if np.isscalar(grid) else list(grid)

    accepted: list[tuple] = []
    for found in _damped_newton(fun, _grid_seeds(fun, box, grids)):
        if found is None:
            continue
        z = found[0]
        if any(z[i] < lo or z[i] > hi for i, (lo, hi) in enumerate(box)):
            continue
        if any(np.max(np.abs(z - prev[0])) < DEDUP_TOL for prev in accepted):
            continue
        accepted.append(found)

    accepted.sort(key=lambda found: tuple(np.round(found[0] / DEDUP_TOL)))
    roots = []
    for z, residual, jac in accepted:
        det = float(np.linalg.det(jac))
        if abs(det) < DET_TOL:
            sign = DegreeSign.DEGENERATE
        elif det > 0:
            sign = DegreeSign.PLUS
        else:
            sign = DegreeSign.MINUS
        roots.append(AveragedRoot(z=z, residual=residual, jac_det=det,
                                  degree_sign=sign))
    return roots
