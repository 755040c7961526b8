"""The average command's numeric side: the averaging engine against the
closed forms on an (r, w) grid.

cli imports this module, and with it numpy, only when it runs average.
The averaging engine is reached through the averaging module at call
time, so a wrapper set on its attributes sees every call.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import averaging, closed_form, normal_form
from .config import QuadratureSpec
from .jerk import UnfoldingParams


def _relative_deviation(dev: np.ndarray, closed: np.ndarray) -> float:
    """The largest deviation over the grid relative to max(1, |closed
    value|) at its point: the quantity the oracle holds to cli.ORACLE_TOL.

    dev holds the largest deviation of the components at each point and
    closed the closed values, components first. g grows like delta^-5,
    so an absolute bound would judge a large g by round-off. A NaN ratio
    anywhere, inf / inf included (a finite numeric value against an
    infinite closed one), makes it NaN, which fails the oracle; compare
    calls it with numpy's invalid-value warning off.
    """
    relative = dev / np.maximum(1.0, np.abs(closed).max(axis=0))
    return float(np.max(relative))


def compare(u: UnfoldingParams, quadrature: QuadratureSpec, grid_r: tuple,
            grid_w: tuple, n: int) -> tuple:
    """Both averages of u, numeric and closed, on the n x n grid of
    np.linspace(*grid_r, n) by np.linspace(*grid_w, n).

    The first averages are those of u, the second ones those of u on the
    slice a1 = b1 = 0, where the closed g is defined. Returns (axes,
    values, dev, rel): axes holds the one-axis columns of the table, r,
    w, f1_closed along r and f2_closed along w, as lists; values the six
    others, f_num, g_num and g_closed, point by point with r outermost;
    dev the largest absolute deviation of the first and of the second
    averages; rel those relative to the closed values (_relative_deviation).
    """
    # the ij mesh of the two axes, each broadcast into one array
    z = np.empty((2, n, n))
    z[0] = np.linspace(*grid_r, n)[:, None]
    z[1] = np.linspace(*grid_w, n)
    f_num = averaging.average_first(normal_form.jerk_standard_form(u), z,
                                    quadrature)
    g_num = averaging.average_second(
        normal_form.jerk_standard_form(replace(u, a1=0.0, b1=0.0)), z,
        quadrature)
    # extreme coefficients (a1 = 1e307) overflow the closed forms or the
    # means, and an infinite value makes a NaN or infinite deviation and
    # ratio (inf - inf, inf / inf): written as null, they fail the oracle
    with np.errstate(over="ignore", invalid="ignore"):
        f_ref = closed_form.f_closed(*z, u.a1, u.b1, u.delta)
        g_ref = closed_form.g_closed(*z, u.a2, u.b2, u.delta)
        dev = [np.abs(num - ref).max(axis=0)
               for num, ref in ((f_num, f_ref), (g_num, g_ref))]
        rel = [_relative_deviation(d, ref)
               for d, ref in zip(dev, (f_ref, g_ref))]
    # r and f1_closed vary along the first grid axis only, w and f2_closed
    # along the second, so cli formats each of them once
    axes = [z[0][:, 0].tolist(), z[1][0].tolist(), f_ref[0][:, 0].tolist(),
            f_ref[1][0].tolist()]
    values = np.stack([*f_num, *g_num, *g_ref], axis=-1).ravel().tolist()
    return axes, values, [float(d.max()) for d in dev], rel
