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
#: integration matrix, whose memory grows as N^2 (33.6 MB at 2N = 2048)
MAX_NODES = 1024

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


def _refined_mean(compute: Callable, n_nodes: int, what: str) -> np.ndarray:
    coarse = compute(n_nodes)
    fine = compute(2 * n_nodes)
    # thresholds scale with the result so that large-amplitude integrands
    # are judged at the precision floating point can deliver
    scale = max(1.0, float(np.max(np.abs(fine))))
    diff = float(np.max(np.abs(fine - coarse)))
    if diff > CONVERGENCE_TOL * scale:
        raise QuadratureNotConverged(
            f"{what}: (N, 2N) disagreement {diff:.3e} at N={n_nodes}"
        )
    if diff > ACCURACY_TOL * scale:
        warnings.warn(
            f"{what}: (N, 2N) agreement only {diff:.3e} at N={n_nodes}",
            QuadratureAccuracyWarning,
            stacklevel=3,
        )
    return fine


def average_first(sys: StandardFormSystem, z, q: QuadratureSpec) -> np.ndarray:
    """First averaged function f(z) = (1/T) int_0^T F1(z, s) ds."""

    def compute(n_nodes: int) -> np.ndarray:
        s, w, _ = _rule_nodes(n_nodes, sys.period)
        return np.asarray(sys.f1(z, s), dtype=float) @ w / sys.period

    return _refined_mean(compute, q.nodes, "average_first")


def average_second(sys: StandardFormSystem, z, q: QuadratureSpec) -> np.ndarray:
    """Second averaged function g(z).

    g(z) = (1/T) int_0^T [ DF1(z, s) . int_0^s F1(z, t) dt + F2(z, s) ] ds.
    Both integrals use the same nodes: the inner one is the integration
    matrix of the rule applied to the samples of F1, so each pass of the
    (N, 2N) check carries its own inner integral and the check covers both.
    """

    def compute(n_nodes: int) -> np.ndarray:
        s, w, S = _rule_nodes(n_nodes, sys.period)
        inner = np.asarray(sys.f1(z, s), dtype=float) @ S.T
        jac = np.asarray(sys.df1(z, s), dtype=float)
        integrand = np.einsum("ijm,jm->im", jac, inner)
        integrand += np.asarray(sys.f2(z, s), dtype=float)
        return integrand @ w / sys.period

    return _refined_mean(compute, q.nodes, "average_second")


def _fd_jacobian(fun: Callable, z: np.ndarray) -> np.ndarray:
    h = FD_STEP * (1.0 + np.max(np.abs(z)))
    cols = []
    for j in range(len(z)):
        dz = np.zeros_like(z)
        dz[j] = h
        cols.append(
            (np.asarray(fun(z + dz), float) - np.asarray(fun(z - dz), float))
            / (2.0 * h)
        )
    return np.stack(cols, axis=1)


def _damped_newton(fun: Callable, z0, max_iter: int = 60):
    """Newton with step halving; None when it fails to converge."""
    z = np.array(z0, dtype=float)
    fz = np.asarray(fun(z), dtype=float)
    res = float(np.linalg.norm(fz))
    for _ in range(max_iter):
        if res < ROOT_TOL:
            return z
        try:
            step = np.linalg.solve(_fd_jacobian(fun, z), -fz)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(step)):
            return None
        lam = 1.0
        for _ in range(30):
            z_new = z + lam * step
            f_new = np.asarray(fun(z_new), dtype=float)
            res_new = float(np.linalg.norm(f_new))
            if res_new < res or res_new < ROOT_TOL:
                break
            lam *= 0.5
        else:
            return None  # stalled even with the smallest damped step
        z, fz, res = z_new, f_new, res_new
    return z if res < ROOT_TOL else None


def _grid_seeds(fun, box, grids):
    """Seed points from corner sign changes and local minima of |fun|."""
    n = len(box)
    axes = [np.linspace(lo, hi, g + 1) for (lo, hi), g in zip(box, grids)]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=-1)
    vals = np.stack([np.asarray(fun(pt), dtype=float) for pt in points])
    vals = vals.reshape(*[g + 1 for g in grids], n)
    norms = np.linalg.norm(vals, axis=-1)

    seeds = []
    # cells where every component straddles zero among the 2^n corners
    views = [
        vals[tuple(slice(o, o + g) for o, g in zip(offset, grids))]
        for offset in product((0, 1), repeat=n)
    ]
    straddle = np.all(
        (np.minimum.reduce(views) <= 0.0) & (np.maximum.reduce(views) >= 0.0),
        axis=-1,
    )
    for idx in np.argwhere(straddle):
        seeds.append(
            np.array([0.5 * (ax[i] + ax[i + 1]) for ax, i in zip(axes, idx)])
        )
    # grid points that are local minima of the residual norm
    padded = np.pad(norms, 1, constant_values=np.inf)
    core = padded[(slice(1, -1),) * n]
    is_min = np.ones(norms.shape, dtype=bool)
    for ax in range(n):
        for off in (-1, 1):
            sl = [slice(1, -1)] * n
            sl[ax] = slice(1 + off, padded.shape[ax] - 1 + off)
            is_min &= core <= padded[tuple(sl)]
    for idx in np.argwhere(is_min):
        seeds.append(np.array([ax[i] for ax, i in zip(axes, idx)]))
    return seeds


def find_roots(fun: Callable, box: Sequence, grid=32) -> list[AveragedRoot]:
    """All zeros of fun inside the box, with degree certificates.

    Parameters
    ----------
    fun : callable mapping an n-vector to an n-vector
    box : sequence of (lo, hi) pairs, one per coordinate
    grid : cells per axis for seeding (int or per-axis sequence)

    Returns
    -------
    Roots sorted lexicographically by coordinates, each with residual below
    ROOT_TOL; the degree sign is DEGENERATE when |jac_det| < DET_TOL.
    Converged points outside the box are discarded, so an empty list is a
    valid outcome.
    """
    box = [(float(lo), float(hi)) for lo, hi in box]
    n = len(box)
    grids = [grid] * n if np.isscalar(grid) else list(grid)

    accepted: list[np.ndarray] = []
    for seed in _grid_seeds(fun, box, grids):
        z = _damped_newton(fun, seed)
        if z is None:
            continue
        if any(z[i] < lo or z[i] > hi for i, (lo, hi) in enumerate(box)):
            continue
        if any(np.max(np.abs(z - prev)) < DEDUP_TOL for prev in accepted):
            continue
        accepted.append(z)

    accepted.sort(key=lambda z: tuple(z))
    roots = []
    for z in accepted:
        det = float(np.linalg.det(_fd_jacobian(fun, z)))
        if abs(det) < DET_TOL:
            sign = DegreeSign.DEGENERATE
        elif det > 0:
            sign = DegreeSign.PLUS
        else:
            sign = DegreeSign.MINUS
        roots.append(
            AveragedRoot(
                z=z,
                residual=float(np.linalg.norm(np.asarray(fun(z), float))),
                jac_det=det,
                degree_sign=sign,
            )
        )
    return roots
