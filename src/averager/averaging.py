"""Generic first and second order averaging plus root certification.

Works on any StandardFormSystem. The first averaged function is the time
mean of F1; the second adds the mean of DF1(z, s) . int_0^s F1(z, t) dt
+ F2(z, s). Both means are Gauss-Legendre quadratures over one period,
and the inner integral of the second is the spectral integration matrix
of the same rule, so one node set serves both.

A system without polynomials samples F1, F2 and DF1 at every point and
node. The second order folds the outer weights and the integration
matrix into DF1 first; where DF1 does not depend on z this kernel is a
small (n, n, m) array, and each point costs one contraction with its
samples of F1. This sampled path is the reference.

A system that carries its polynomials (see StandardFormSystem), as the
jerk form does, is not sampled per point: F1 = C1(t) z and
F2 = C2(t) m2(z) are linear in their coefficient tables, so f and g are
polynomials in z whose coefficients are theta-means of the tables, taken
once per system and node count and cached. Each point then costs one
product with z and, at second order, one with its monomials m2(z), which
the system's own m2 evaluates.

Each result is accepted after an (N, 2N) agreement check. Simple zeros
of these functions, certified by a nonzero Jacobian determinant,
correspond to periodic solutions of the underlying periodic system for
small eps.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, reduce
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
#: integration matrix, whose memory grows as N^2 (8.4 MB at 2N = 1024);
#: the samples of a batch do not, since MAX_SAMPLES bounds them. Beyond
#: 512 nodes the roundoff of that matrix, not the integrand, sets the
#: (N, 2N) agreement: at 1024 the showcase average grid agrees only to
#: 1.4e-12 and warns, although 64 nodes integrate it exactly
MAX_NODES = 512

#: most points x 2N nodes that average_first and average_second sample at
#: once, for both node counts; a larger batch is evaluated in chunks of
#: MAX_SAMPLES // (2N) points, each at N and 2N nodes, so peak memory
#: stops growing with the batch (average_second on the jerk standard form
#: needs about 17 bytes per sample, its samples of F1, then of F2;
#: tracemalloc)
MAX_SAMPLES = 2 ** 18

#: residual bound for accepting a converged root
ROOT_TOL = 1e-10

#: accepted Newton steps a seed of find_roots may take before it fails
NEWTON_MAX_ITER = 60

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


@lru_cache(maxsize=64)
def _polynomial_means(sys: StandardFormSystem, n_nodes: int, order: int):
    """Terms of the order-th averaged function as a polynomial in z.

    With sys.polynomials = (C1, m2, C2) on the n_nodes rule,
    f = (C1 @ w) z / T and, since DF1 = C1,
    T g = [((C1 * w) @ S) : C1] z + (C2 @ w) m2(z), where the contraction
    runs over the component and node axes as in average_second. Returns
    the coefficients of z and, at order 2, of m2(z), read-only arrays of
    shape (n, n) and (n, K); _means sums each times its basis, with m2(z)
    evaluated once for both node counts. Keyed on the system itself,
    which the cache holds, so a collected system's id can never return
    its coefficients for another.
    """
    s, w, S = _rule_nodes(n_nodes, sys.period)
    table1, _, table2 = sys.polynomials
    c1 = table1(s)
    if order == 1:
        terms = (c1 @ w,)
    else:
        terms = (np.einsum("ijt,jkt->ik", (c1 * w) @ S, c1), table2(s) @ w)
    for coef in terms:
        coef /= sys.period
        coef.flags.writeable = False
    return terms


def _means(sys: StandardFormSystem, points: np.ndarray, order: int,
           node_counts) -> list:
    """The order-th mean at points for each node count, in order.

    points has shape (n, k), k points, and so has each mean, so a point
    is evaluated alike whatever the shape of its batch. With
    sys.polynomials each term is coefficients @ basis (see
    _polynomial_means), the bases z and m2(z) evaluated once for every
    node count; without, F1, F2 and DF1 are sampled on each rule.
    """
    if sys.polynomials is not None:
        bases = ((points, sys.polynomials[1](points)) if order == 2
                 else (points,))
        return [sum(coef @ basis for coef, basis
                    in zip(_polynomial_means(sys, nodes, order), bases))
                for nodes in node_counts]
    means = []
    for nodes in node_counts:
        s, w, S = _rule_nodes(nodes, sys.period)
        value = np.asarray(sys.f1(points, s), dtype=float)
        if order == 1:
            value = value @ w
        else:
            kernel = (np.asarray(sys.df1(points, s), dtype=float) * w) @ S
            value = np.einsum("ij...t,j...t->i...", kernel, value)
            value += np.asarray(sys.f2(points, s), dtype=float) @ w
        means.append(value / sys.period)
    return means


def _refined_mean(sys: StandardFormSystem, z, q: QuadratureSpec, order: int,
                  what: str) -> np.ndarray:
    """The order-th mean at z, at N and 2N nodes, accepted after the check.

    _means gets z's points flattened, in chunks of MAX_SAMPLES // (2N)
    points, each chunk for both node counts; an empty batch is one empty
    chunk. The chunks' means are joined on their last axis, the points'
    axis, which a system whose evaluators return no batch axis also has.
    """
    z = np.asarray(z, dtype=float)
    flat = z.reshape(len(z), -1)
    nodes = (q.nodes, 2 * q.nodes)
    size = max(1, MAX_SAMPLES // nodes[1])
    # far out the integrands overflow; a non-finite mean fails the check
    # below, and the failure names the point
    with np.errstate(over="ignore", invalid="ignore"):
        parts = zip(*(_means(sys, flat[:, i:i + size], order, nodes)
                      for i in range(0, max(1, flat.shape[1]), size)))
        coarse, fine = (np.concatenate(means, axis=-1) for means in parts)
    coarse, fine = coarse.reshape(z.shape), fine.reshape(z.shape)
    # thresholds scale with each point's result so that large-amplitude
    # integrands are judged at the precision floating point can deliver,
    # and a large point never loosens the threshold of another in its batch.
    # A non-finite mean gives a NaN or infinite relative disagreement, which
    # fails every check and is the worst point
    scale = np.maximum(1.0, np.abs(fine).max(axis=0))
    with np.errstate(invalid="ignore"):  # inf - inf
        diff = np.abs(fine - coarse).max(axis=0)
    relative = diff / scale
    if np.all(relative <= ACCURACY_TOL):
        return fine
    worst = np.argmax(relative)
    where = (f"{diff.flat[worst]:.3e} at N={q.nodes}, "
             f"z = {flat[:, worst].tolist()}")
    if not np.all(relative <= CONVERGENCE_TOL):
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
    return _refined_mean(sys, z, q, 1, "average_first")


def average_second(sys: StandardFormSystem, z, q: QuadratureSpec) -> np.ndarray:
    """Second averaged function g(z).

    g(z) = (1/T) int_0^T [ DF1(z, s) . int_0^s F1(z, t) dt + F2(z, s) ] ds.
    Both integrals use the same nodes: the inner one is the integration
    matrix S of the rule applied to the samples of F1. With weights w the
    double sum is reassociated to K = (DF1 * w) @ S, contracted with F1
    over the component and node axes, so T g = K : F1 + F2 @ w. A DF1
    that does not depend on z makes K a (n, n, m) array; a z-dependent
    DF1 of shape (n, n, *batch, m) takes the same line. With
    sys.polynomials, DF1 = C1 and this contraction is taken once on the
    coefficient tables (see _polynomial_means). K is built from each
    pass's own S, so each pass of the (N, 2N) check carries its own inner
    integral and the check covers both.
    z is one point or a batch, shaped as in average_first.
    """
    return _refined_mean(sys, z, q, 2, "average_second")


@lru_cache(maxsize=8)
def _offsets(n: int) -> np.ndarray:
    """Read-only (n, 1, 2n + 1) unit offsets of a point and its neighbours."""
    offsets = np.hstack([np.zeros((n, 1)), np.eye(n), -np.eye(n)])[:, None, :]
    offsets.flags.writeable = False
    return offsets


def _value_and_jacobian(fun: Callable, z: np.ndarray):
    """fun at the rows of z and its central-difference Jacobians, from one call.

    z has shape (k, n), and each row gets its own step h. fun gets the
    (n, k, 2n + 1) batch of every row and its 2n neighbours z +- h e_i;
    the result is the (k, n) values and the (k, n, n) Jacobians.
    """
    n = z.shape[1]
    h = FD_STEP * (1.0 + np.abs(z).max(axis=1))
    points = z.T[:, :, None] + h[:, None] * _offsets(n)
    vals = np.asarray(fun(points), float)
    jac = (vals[:, :, 1:n + 1] - vals[:, :, n + 1:]) / (2.0 * h[:, None])
    return vals[:, :, 0].T, jac.transpose(1, 0, 2)


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


def _damped_newton(fun: Callable, seeds) -> list:
    """Newton with step halving from every seed at once.

    seeds has shape (k, n). Each seed runs its own iteration: at most
    NEWTON_MAX_ITER accepted steps, each the full Newton step or one of its
    first 29 halvings, and it fails on its own when its step is singular or
    not finite. Returns, per seed in order, (z, |fun(z)|, Jacobian at z)
    at a converged z, or None when that seed fails to converge.

    A round makes one call of fun, on the trial point of every seed still
    iterating and its central-difference neighbours (see
    _value_and_jacobian); the seeds are the first round's trial points. A
    seed whose trial lowers |fun| moves there, and one stacked solve gives
    the Newton step at every point moved to; any other seed halves its
    step. Then one test stops a seed on each rule above. The state is one
    row per seed still iterating, (z, |fun(z)|, step, damping, points
    accepted), in seed order, and it shrinks when a seed stops. Besides
    fun, a round costs a few dozen numpy calls on those rows.
    """
    trial = np.array(seeds, dtype=float)
    found: list = [None] * len(trial)
    if len(trial) == 0:
        return found
    rows = np.arange(len(trial))  # the seed of each row of the state
    # every seed where |fun| is finite moves in the first round; the NaN
    # step stops any other
    z, res = trial, np.full(len(trial), np.inf)
    step = np.full(trial.shape, np.nan)
    lam = np.ones(len(trial))  # 2^-h after h halvings of the step, exactly
    moves = np.zeros(len(trial), dtype=int)  # points accepted, the seed first
    while True:
        f_new, jac_new = _value_and_jacobian(fun, trial)
        res_new = _norms(f_new)
        moved = (res_new < res).nonzero()[0]
        z[moved], res[moved] = trial[moved], res_new[moved]
        step[moved] = _newton_steps(jac_new[moved], f_new[moved])
        lam *= 0.5
        lam[moved], moves[moved] = 1.0, moves[moved] + 1
        # only a seed that just moved can have converged
        done = res < ROOT_TOL
        for j in done.nonzero()[0].tolist():
            found[rows[j]] = (z[j].copy(), float(res[j]), jac_new[j].copy())
        keep = (~done & (moves <= NEWTON_MAX_ITER) & (lam > 0.5 ** 30)
                & np.isfinite(step).all(axis=1)).nonzero()[0]
        if len(keep) == 0:
            return found
        if len(keep) < len(rows):
            rows, z, res, step, lam, moves = (
                a.take(keep, 0) for a in (rows, z, res, step, lam, moves))
        trial = z + lam[:, None] * step


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
    straddle = ((reduce(np.minimum, views) <= 0.0)
                & (reduce(np.maximum, views) >= 0.0)).all(axis=-1)
    mids = np.array([0.5 * (ax[i] + ax[i + 1])
                     for ax, i in zip(axes, np.nonzero(straddle))])
    # grid points that are local minima of the residual norm
    padded = np.full([g + 3 for g in grids], np.inf)
    padded[(slice(1, -1),) * n] = norms
    is_min = np.ones(norms.shape, dtype=bool)
    for ax in range(n):
        for off in (-1, 1):
            sl = [slice(1, -1)] * n
            sl[ax] = slice(1 + off, padded.shape[ax] - 1 + off)
            is_min &= norms <= padded[tuple(sl)]
    return np.concatenate([mids, mesh[:, is_min]], axis=1).T


def _checked_grids(box: list, grid) -> list:
    """The per-axis cell counts, after checking the box and the grid.

    Raises ValueError, naming the axis, for an interval that is not finite
    or not increasing, a cell count that is not an integer >= 1 (a bool is
    not one), or a per-axis grid whose length is not the box's dimension;
    and for a box without axes.
    """
    if not box:
        raise ValueError("find_roots: the box has no axes")
    for axis, (lo, hi) in enumerate(box):
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"find_roots: box axis {axis} is ({lo}, {hi}); "
                             "it needs finite lo < hi")
    grids = [grid] * len(box) if np.ndim(grid) == 0 else list(grid)
    if len(grids) != len(box):
        raise ValueError(f"find_roots: grid has {len(grids)} entries for a "
                         f"box of {len(box)} axes")
    for axis, g in enumerate(grids):
        if isinstance(g, bool) or not isinstance(g, (int, np.integer)) or g < 1:
            raise ValueError(f"find_roots: grid axis {axis} has {g!r} cells; "
                             "it needs an integer >= 1")
    return grids


def find_roots(fun: Callable, box: Sequence, grid=32) -> list[AveragedRoot]:
    """All zeros of fun inside the box, with degree certificates.

    Parameters
    ----------
    fun : callable mapping points of shape (n, *batch) to values of shape
        (n, *batch); it gets the whole seeding grid at once, and then one
        batch per Newton round, of shape (n, seeds, 2n + 1): the trial
        point z of every seed still iterating and its 2n central-difference
        neighbours z +- h e_i
    box : sequence of at least one (lo, hi) pair, one per coordinate, each
        finite with lo < hi
    grid : cells per axis for seeding, an integer >= 1 or a sequence of
        them with one entry per axis

    Returns
    -------
    Roots sorted by their coordinates rounded to multiples of DEDUP_TOL,
    so roundoff never orders a mirror pair, each with residual below
    ROOT_TOL; the degree sign is DEGENERATE when |jac_det| < DET_TOL.
    Converged points outside the box are discarded, so an empty list is a
    valid outcome.

    Raises
    ------
    ValueError, naming the axis, for a box or grid that breaks the rules
    above, before fun is called.

    Besides the seeding call, a Newton round costs one call of fun, on
    the seeds still iterating, plus a fixed overhead (see _damped_newton).
    """
    box = [(float(lo), float(hi)) for lo, hi in box]
    grids = _checked_grids(box, grid)

    accepted: list[tuple] = []
    for found in _damped_newton(fun, _grid_seeds(fun, box, grids)):
        if found is None:
            continue
        z = found[0].tolist()
        if any(x < lo or x > hi for x, (lo, hi) in zip(z, box)):
            continue
        if any(max(abs(x - y) for x, y in zip(z, prev)) < DEDUP_TOL
               for prev, _ in accepted):
            continue
        accepted.append((z, found))

    accepted.sort(key=lambda entry: tuple(round(x / DEDUP_TOL)
                                          for x in entry[0]))
    roots = []
    for _, (z, residual, jac) in accepted:
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
