"""First and second order averaging plus root certification.

Works on any StandardFormSystem, whose polynomials F1(z, t) = C1(t) z and
F2(z, t) = C2(t) m2(z) make the averaged functions polynomials in z:
f = mean(C1) z, and since DF1 = C1,
g = A z + mean(C2) m2(z) with A = (1/T) int_0^T C1(s) int_0^s C1(t) dt ds.
The tables are trigonometric polynomials in t of low degree (2 and 4 for
the jerk standard form), so an equispaced rule samples them exactly: its
mean is their mean, and its discrete Fourier coefficients c_k are theirs
(Trefethen and Weideman, SIAM Review 56, 2014). With omega = 2 pi / T
the inner integral is c_0 s + sum over k != 0 of
c_k (e^{ik omega s} - 1) / (ik omega), secular term included, so A is a
closed sum over pairs of coefficients (_iterated_mean). The terms are
taken once per system and node count and cached, and each point costs a
product with z and, at second order, one with its monomials m2(z), which
the system's own m2 evaluates.

Simple zeros of these functions, certified by a nonzero Jacobian
determinant, correspond to periodic solutions of the underlying periodic
system for small eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, reduce
from typing import Callable, Sequence

import numpy as np

from .config import QuadratureSpec
from .normal_form import StandardFormSystem

#: finite-difference step scale for Jacobians
FD_STEP = 1e-6

#: roots closer than this are considered duplicates
DEDUP_TOL = 1e-6

#: residual bound for accepting a converged root
ROOT_TOL = 1e-10

#: accepted Newton steps a seed of find_roots may take before it fails
NEWTON_MAX_ITER = 60

#: below this |jac_det| a root's degree sign is DEGENERATE
DET_TOL = 1e-8


class DegreeSign(Enum):
    PLUS = "plus"
    MINUS = "minus"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class AveragedRoot:
    """A zero of an averaged function with its degree certificate."""

    z: np.ndarray
    residual: float
    jac_det: float
    degree_sign: DegreeSign


def _iterated_mean(c: np.ndarray, period: float) -> np.ndarray:
    """A = (1/T) int_0^T C(s) int_0^s C(t) dt ds from C's coefficients.

    c holds the Fourier coefficients c_0, ..., c_K of a real (n, n) table
    C of period T along its last axis, C(s) = sum over |k| <= K of
    c_k e^{ik omega s} with omega = 2 pi / T and c_-k the conjugate of
    c_k. Integrating term by term, with
    x_k + i y_k = c_k and B = sum over k > 0 of 2 y_k / (k omega),
    A = (T c_0 / 2 + B) c_0 - c_0 B
        + sum over k > 0 of 2 (x_k y_k - y_k x_k) / (k omega),
    every product a matrix product; the first two terms come from the
    secular c_0 s of the inner integral and vanish with c_0.
    """
    c0 = c[..., 0].real
    k_omega = np.arange(1, c.shape[-1]) * (2.0 * np.pi / period)
    # x_k, and 2 y_k / (k omega) in place of y_k
    x, y = c[..., 1:].real, 2.0 * c[..., 1:].imag / k_omega
    b = y.sum(axis=-1)
    return ((0.5 * period * c0 + b) @ c0 - c0 @ b
            + np.einsum("ijk,jlk->il", x, y) - np.einsum("ijk,jlk->il", y, x))


@lru_cache(maxsize=64)
def _polynomial_means(sys: StandardFormSystem, nodes: int, order: int):
    """Terms of the order-th averaged function as a polynomial in z.

    With sys.polynomials = (C1, m2, C2) sampled at nodes equispaced angles,
    the term of f is mean(C1), and those of g are A (see _iterated_mean)
    and mean(C2): read-only arrays of shape (n, n) and (n, K), which
    _average multiplies with z and m2(z). The coefficients c_k of C1 are
    its samples' discrete Fourier transform over nodes, for
    k < nodes / 2. Keyed on the system itself, which the cache holds, so
    a collected system's id can never return its terms for another.
    """
    table1, _, table2 = sys.polynomials
    s = np.arange(nodes) * (sys.period / nodes)
    c1 = table1(s)
    if order == 1:
        terms = (c1.mean(axis=-1),)
    else:
        coefficients = np.fft.rfft(c1, axis=-1)[..., :(nodes + 1) // 2] / nodes
        terms = (_iterated_mean(coefficients, sys.period),
                 table2(s).mean(axis=-1))
    for term in terms:
        term.flags.writeable = False
    return terms


def _average(sys: StandardFormSystem, z, q: QuadratureSpec,
             order: int) -> np.ndarray:
    """The order-th averaged function at z, of shape (n, *batch).

    z's points are flattened to shape (n, k) and the result shaped back,
    so a point is evaluated alike whatever the shape of its batch.
    """
    z = np.asarray(z, dtype=float)
    flat = z.reshape(len(z), -1)
    # far out the tables and the monomials overflow; the caller's oracle
    # fails a non-finite value
    with np.errstate(over="ignore", invalid="ignore"):
        terms = _polynomial_means(sys, q.nodes, order)
        value = terms[0] @ flat
        if order == 2:
            value += terms[1] @ sys.polynomials[1](flat)
    return value.reshape(z.shape)


def average_first(sys: StandardFormSystem, z, q: QuadratureSpec) -> np.ndarray:
    """First averaged function f(z) = (1/T) int_0^T F1(z, s) ds.

    z is one point of shape (n,) or a batch of shape (n, *batch); the
    result has the same shape.
    """
    return _average(sys, z, q, 1)


def average_second(sys: StandardFormSystem, z, q: QuadratureSpec) -> np.ndarray:
    """Second averaged function g(z).

    g(z) = (1/T) int_0^T [ DF1(z, s) . int_0^s F1(z, t) dt + F2(z, s) ] ds,
    which for F1 = C1 z and F2 = C2 m2(z) is A z + mean(C2) m2(z) (see
    _polynomial_means). The inner integral keeps its secular term, so g
    holds off the slice where f vanishes too. z is one point or a batch,
    shaped as in average_first.
    """
    return _average(sys, z, q, 2)


#: read-only (2, 1, 5) unit offsets of a point and its four neighbours
#: z + e_r, z + e_w, z - e_r, z - e_w
_OFFSETS = np.hstack([np.zeros((2, 1)), np.eye(2), -np.eye(2)])[:, None, :]
_OFFSETS.flags.writeable = False


def _value_and_jacobian(fun: Callable, z: np.ndarray):
    """fun at the rows of z and its central-difference Jacobians, from one call.

    z has shape (k, 2), and each row gets its own step h. fun gets the
    (2, k, 5) batch of every row and its four neighbours z +- h e_i; the
    result is the (k, 2) values and the (k, 2, 2) Jacobians.
    """
    h = FD_STEP * (1.0 + np.abs(z).max(axis=1))
    points = z.T[:, :, None] + h[:, None] * _OFFSETS
    vals = np.asarray(fun(points), float)
    jac = (vals[:, :, 1:3] - vals[:, :, 3:]) / (2.0 * h[:, None])
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

    seeds has shape (k, 2). Each seed runs its own iteration: at most
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


def _grid_seeds(fun, box, cells: int):
    """Seed points from corner sign changes and local minima of |fun|.

    The seeding grid is the (2, cells + 1, cells + 1) ij mesh of the box.
    Returned as one (k, 2) array, the cell midpoints first.
    """
    r, w = (np.linspace(lo, hi, cells + 1) for lo, hi in box)
    mesh = np.empty((2, cells + 1, cells + 1))
    mesh[0], mesh[1] = r[:, None], w
    vals = np.asarray(fun(mesh), dtype=float)
    norms = np.linalg.norm(vals, axis=0)

    # cells where both components straddle zero among the four corners
    corners = (vals[:, :-1, :-1], vals[:, :-1, 1:], vals[:, 1:, :-1],
               vals[:, 1:, 1:])
    straddle = ((reduce(np.minimum, corners) <= 0.0)
                & (reduce(np.maximum, corners) >= 0.0)).all(axis=0)
    i, j = straddle.nonzero()
    mids = np.array([0.5 * (r[i] + r[i + 1]), 0.5 * (w[j] + w[j + 1])])
    # grid points that are local minima of the residual norm, against
    # their four neighbours; a point on the edge has an infinite one
    padded = np.full((cells + 3, cells + 3), np.inf)
    padded[1:-1, 1:-1] = norms
    is_min = ((norms <= padded[:-2, 1:-1]) & (norms <= padded[2:, 1:-1])
              & (norms <= padded[1:-1, :-2]) & (norms <= padded[1:-1, 2:]))
    return np.concatenate([mids, mesh[:, is_min]], axis=1).T


def _check_plane(box: list, grid) -> None:
    """Check the box and the grid of find_roots.

    Raises ValueError for a box of other than two axes, for an axis, named
    in the message, that is not finite or not increasing, and for a grid
    that is not one integer >= 1 (a bool, a sequence or an array is not).
    """
    if len(box) != 2:
        raise ValueError(f"find_roots: the box has {len(box)} axes; it "
                         "needs two, (r, w)")
    for axis, (lo, hi) in enumerate(box):
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"find_roots: box axis {axis} is ({lo}, {hi}); "
                             "it needs finite lo < hi")
    if (isinstance(grid, bool) or not isinstance(grid, (int, np.integer))
            or grid < 1):
        raise ValueError(f"find_roots: grid has {grid!r} cells; it needs "
                         "one integer >= 1")


def find_roots(fun: Callable, box: Sequence, grid=32) -> list[AveragedRoot]:
    """All zeros of fun inside the (r, w) box, with degree certificates.

    Parameters
    ----------
    fun : callable mapping points of shape (2, *batch) to values of shape
        (2, *batch); it gets the whole seeding grid at once, of shape
        (2, grid + 1, grid + 1), and then one batch per Newton round, of
        shape (2, seeds, 5): the trial point z of every seed still
        iterating and its four central-difference neighbours z +- h e_i
    box : two (lo, hi) pairs, the r axis and the w axis, each finite with
        lo < hi
    grid : cells per axis for seeding, one integer >= 1

    Returns
    -------
    Roots sorted by their coordinates rounded to multiples of DEDUP_TOL,
    so roundoff never orders a mirror pair, each with residual below
    ROOT_TOL; the degree sign is DEGENERATE when |jac_det| < DET_TOL.
    Converged points outside the box are discarded, so an empty list is a
    valid outcome.

    Raises
    ------
    ValueError for a box or grid that breaks the rules above, before fun
    is called.

    Besides the seeding call, a Newton round costs one call of fun, on
    the seeds still iterating, plus a fixed overhead (see _damped_newton).
    """
    box = [(float(lo), float(hi)) for lo, hi in box]
    _check_plane(box, grid)

    accepted: list[tuple] = []
    for found in _damped_newton(fun, _grid_seeds(fun, box, grid)):
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
