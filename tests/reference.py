"""The reference derivation of the standard form, step by step.

The package runs the chain from the jerk system to the averaging standard
form only as precomputed polynomial tables (normal_form.jerk_standard_form
and closed_form). The formulas here are the chain written out one step at
a time, as the paper derives it: scale the state by eps, change to real
Jordan coordinates (u, v, w), read off the coupling terms h1 and h2, pass
to cylindrical coordinates and take theta as the independent variable.
They are the independent derivation the tables are tested against: F1
and F2 must be the eps-expansion of theta_rhs, and theta_rhs must be the
vector field through the coordinate chain. jacobian_at is the Jacobian of
the jerk field, for the variational equations of the DOP853 oracle, and
numpy_eigenvalues the spectrum at an equilibrium as np.roots gives it,
the reference for the classifier's roots in float and complex arithmetic.
numpy_higher_averages and numpy_root_corrections are closed_form's
higher averages and seed corrections as numpy float64 array code over a
batch of points, the forms that the Python-float evaluation of one
point is checked against: the averages bit for bit, the corrections to
within a multiple of cond(Dg) machine epsilon.
pointwise evaluates a standard form's tables as the fields F1, F2 and
DF1 at given states and angles, and sampled_average, the averaging
engine's reference, samples them at every point and Gauss-Legendre node
instead of averaging the tables. stacked_tables is the form in
which jerk_standard_form once built those tables, which it now writes
into one array each, to the same bits.
"""

from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from averager.closed_form import g_closed, g_jacobian
from averager.jerk import SystemParams, UnfoldingParams, char_poly
from averager.normal_form import h2_coefficients

#: below this magnitude eps is considered degenerate for state scaling
EPS_FLOOR = 1e-300

#: guard for the division by r + eps*cos(theta)*(h1 + eps*h2)
DENOMINATOR_TOL = 1e-12


class DegenerateEpsilon(ValueError):
    """eps is too close to zero to divide the state by it."""


class SingularDenominator(ValueError):
    """The angular reduction hit a vanishing denominator."""


def jacobian_at(p: SystemParams, s) -> np.ndarray:
    """Jacobian matrix of the jerk vector field at state s."""
    x, y, _ = s
    return np.array([
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [-p.b + y * y - 3.0 * x * x, p.c + 2.0 * x * y, -p.a],
    ])


def numpy_eigenvalues(p: SystemParams, x: float) -> np.ndarray:
    """The roots of the characteristic cubic at (x, 0, 0) by np.roots,
    which takes the eigenvalues of its balanced companion matrix, sorted
    by real part, then imaginary part: the classifier's roots as the
    package once computed them."""
    lams = np.roots(char_poly(p, x))
    order = np.lexsort((lams.imag, lams.real))
    return lams[order].astype(complex)


def scale_state(s, eps: float) -> np.ndarray:
    """Blow up a physical state: (X, Y, Z) = (x, y, z) / eps."""
    if abs(eps) < EPS_FLOOR:
        raise DegenerateEpsilon(f"cannot scale state by eps = {eps}")
    return np.asarray(s, dtype=float) / eps


def unscale_state(S, eps: float) -> np.ndarray:
    """Inverse of scale_state: (x, y, z) = eps * (X, Y, Z)."""
    return eps * np.asarray(S, dtype=float)


def jordan_to_xyz(j, delta: float) -> np.ndarray:
    """Map Jordan coordinates (u, v, w) to the scaled state (X, Y, Z).

    X = w + v/delta, Y = u, Z = -delta*v. At v = 0 the first component is
    exactly w, so the theta = 0 section image of (r, 0, w) is (w, r, 0).
    """
    u, v, w = j
    return np.array([w + v / delta, u, -delta * v])


def xyz_to_jordan(S, delta: float) -> np.ndarray:
    """Inverse map: u = Y, v = -Z/delta, w = X + Z/delta^2."""
    X, Y, Z = S
    return np.array([Y, -Z / delta, X + Z / delta ** 2])


def h1(jordan, unfolding: UnfoldingParams):
    """First order coupling term of the Jordan-form system.

    Linear in (u, v, w); accepts scalars or broadcasting arrays.
    """
    u, v, w = jordan
    d = unfolding.delta
    return (
        unfolding.b1 * v / d ** 3
        - (unfolding.c1 * u - unfolding.b1 * w) / d ** 2
        - unfolding.a1 * v / d
    )


def h2(jordan, unfolding: UnfoldingParams):
    """Second order coupling term, cubic in (u, v, w).

    The cubes are written as products: on arrays, ** 3 calls C pow, which
    is 30 to 70 times slower on negative entries.
    """
    u, v, w = jordan
    d = unfolding.delta
    return (
        v * v * v / d ** 5
        + 3.0 * v ** 2 * w / d ** 4
        + (unfolding.b2 - u ** 2 + 3.0 * w ** 2) * v / d ** 3
        - (unfolding.c2 * u + (u ** 2 - unfolding.b2) * w - w * w * w) / d ** 2
        - unfolding.a2 * v / d
    )


def theta_rhs(cyl, unfolding: UnfoldingParams, eps: float) -> np.ndarray:
    """Exact (dr/dtheta, dw/dtheta) of the angular system, no truncation.

    Parameters
    ----------
    cyl : (r, theta, w) with r > 0
    unfolding : UnfoldingParams
    eps : perturbation strength

    Raises
    ------
    SingularDenominator when |r + eps*cos(theta)*(h1 + eps*h2)| < 1e-12.
    """
    r, theta, w = cyl
    d = unfolding.delta
    u, v = r * np.cos(theta), r * np.sin(theta)
    H = h1((u, v, w), unfolding) + eps * h2((u, v, w), unfolding)
    den = r + eps * np.cos(theta) * H
    if abs(den) < DENOMINATOR_TOL:
        raise SingularDenominator(
            f"denominator {den:.3e} at r={r}, theta={theta}, eps={eps}"
        )
    common = eps * H / den
    return np.array([common * r * np.sin(theta), -common * r / d])


def numpy_higher_averages(u: UnfoldingParams, z) -> tuple:
    """(f3, f4, Df3, D^2f2) of closed_form.higher_averages, each form
    evaluated on float64 arrays over the whole batch z of shape
    (2, *batch)."""
    r, w = np.asarray(z, dtype=float)
    a2, b2, c1, c2, d = map(np.float64, (u.a2, u.b2, u.c1, u.c2, u.delta))
    t, rr, ww, rw = 1 / (d * d), r * r, w * w, r * w
    s = np.pi * t / d  # pi / d^3
    b_r = 4 * a2 + 3 * t * (rr - 4 * b2 - 12 * ww - 5 * t * rr)  # B_r / d^4
    b_w = t * (rr - 2 * b2 - 2 * ww - 5 * t * rr)  # B_w / d^4
    phi = s / 8 * np.array([-r * b_r, 12 * w * b_w])
    dphi = s / 8 * np.array([
        [-b_r - 6 * t * (1 - 5 * t) * rr, 72 * t * rw],
        [24 * t * (1 - 5 * t) * rw, 12 * (b_w - 4 * t * ww)]])
    psi = 3 * s * t / 32 * np.array([
        -r * (4 * a2 + 5 * t * (rr - 4 * b2 - 12 * ww - 7 * t * rr)),
        20 * w * t * (rr - 2 * b2 - 2 * ww - 7 * t * rr)])
    # P_r / d^6 and P_w / d^8
    p_r = -4 * a2 * (3 * b2 + rr + 3 * ww) + t * (
        96 * a2 * rr + 36 * b2 * b2 - 25 * b2 * rr + 5 * rr * rr - 41 * rr * ww
        + 36 * ww * (4 * b2 + 3 * ww)
        + 3 * t * rr * (5 * b2 - 7 * rr - 35 * ww + 14 * t * rr))
    p_w = 12 * a2 * a2 + t * (
        24 * ww * (b2 + ww - 6 * a2) - 48 * a2 * b2 + 27 * a2 * rr
        - 8 * rr * ww + t * (
            36 * (b2 * b2 + 3 * ww * ww) - 69 * a2 * rr - 35 * b2 * rr
            + 7 * rr * rr + 39 * rr * ww
            + t * rr * (5 * (17 * b2 - 7 * rr - 21 * ww) + 42 * t * rr)))
    dg_g = (np.asarray(g_jacobian(r, w, a2, b2, d))
            * np.asarray(g_closed(r, w, a2, b2, d))).sum(1)
    f4 = (2 * np.pi ** 2 * dg_g + c2 * phi + c1 * c1 * psi
          + s / 12 * np.array([w * p_r, r * p_w]))
    q = 2 * s * (3 * t - 1)  # 2 pi (3 - d^2) / d^5
    d2f2 = np.array([[[3 * q * r / 4, 6 * s * w], [6 * s * w, 6 * s * r]],
                     [[-q * w, -q * r], [-q * r, -12 * s * w]]])
    return c1 * phi, f4, c1 * dphi, d2f2


def numpy_root_corrections(u: UnfoldingParams, roots) -> list:
    """The (z1, z2) of closed_form.root_corrections for every root of
    roots, from numpy_higher_averages and Dg evaluated over the batch and
    one batched numpy.linalg.solve per order."""
    z0 = np.array(roots, dtype=float).T

    def newton(f):
        return -np.linalg.solve(jac, f.T[:, :, None])[:, :, 0].T

    with np.errstate(over="ignore", invalid="ignore"):
        jac = 2.0 * np.pi * np.moveaxis(
            g_jacobian(z0[0], z0[1], u.a2, u.b2, u.delta), 2, 0)
        f3, f4, df3, d2f2 = numpy_higher_averages(u, z0)
        z1 = newton(f3)
        z2 = newton(f4 + np.einsum("ijp,jp->ip", df3, z1)
                    + 0.5 * np.einsum("ijkp,jp,kp->ip", d2f2, z1, z1))
    return [(z1[:, i], z2[:, i]) for i in range(len(roots))]


@lru_cache(maxsize=8)
def gauss_legendre_rule(nodes: int, period: float):
    """Gauss-Legendre nodes s, weights w and integration matrix S on [0, period].

    For samples f at s, (S @ f)[i] is the integral from 0 to s_i of their
    degree nodes - 1 interpolant (Greengard, SIAM J. Numer. Anal. 28,
    1991). The rule itself maps the samples to Legendre coefficients,
    exactly since it integrates degree 2 nodes - 1 exactly; they are
    integrated term by term and evaluated back at the nodes. The arrays
    are read-only, as the cache shares them.
    """
    leg = np.polynomial.legendre
    x, w = leg.leggauss(nodes)
    k = np.arange(nodes)[:, None]
    coeffs = (k + 0.5) * leg.legvander(x, nodes - 1).T * w
    S = leg.legvander(x, nodes) @ leg.legint(coeffs, lbnd=-1.0)
    S *= 0.5 * period
    s, w = 0.5 * period * (x + 1.0), 0.5 * period * w
    for arr in (s, w, S):
        arr.flags.writeable = False
    return s, w, S


def pointwise(sys) -> SimpleNamespace:
    """The fields of the standard form sys, evaluated pointwise from its
    polynomials (C1, m2, C2): period, and f1 = C1 z, f2 = C2 m2(z) and
    df1 = C1, the Jacobian of f1 with respect to z.

    Each takes states z of shape (n, *batch) and angles of shape m; f1
    and f2 give shape (n, *batch, m), and df1, the same for every z,
    gives (n, n, m). A single state is the case batch = (). f1 and f2
    each multiply the monomials of every point, z itself for F1, with
    their table in one matmul.
    """
    c1, m2, c2 = sys.polynomials

    def field(monomials, table):
        def f(z, theta):
            th, z = np.asarray(theta, dtype=float), np.asarray(z, dtype=float)
            values = monomials(z.reshape(len(z), -1)).T @ table(th.ravel())
            return values.reshape(z.shape + th.shape)
        return f

    def df1(z, theta):
        th = np.asarray(theta, dtype=float)
        table = c1(th.ravel())
        return table.reshape(table.shape[:2] + th.shape)

    return SimpleNamespace(period=sys.period, f1=field(np.array, c1),
                           f2=field(m2, c2), df1=df1)


def sampled_average(sys, z, order: int, nodes: int) -> np.ndarray:
    """The order-th averaged function of sys at z, on the nodes-point
    Gauss-Legendre rule, from sys.period, f1, f2 and df1 alone; a system
    without them, such as a standard form, is evaluated through pointwise.

    f = (F1 @ w) / T. For g the inner integral is the rule's integration
    matrix S applied to the samples of F1, and with the outer weights
    folded into DF1 first, T g = K : F1 + F2 @ w with K = (DF1 * w) @ S,
    contracted over the component and node axes. A DF1 that does not
    depend on z makes K a (n, n, m) array; a z-dependent DF1 of shape
    (n, n, *batch, m) takes the same line. z is one point of shape (n,)
    or a batch of shape (n, *batch), and the result has its shape.
    """
    if sys.f1 is None:
        sys = pointwise(sys)
    z = np.asarray(z, dtype=float)
    flat = z.reshape(len(z), -1)
    s, w, S = gauss_legendre_rule(nodes, sys.period)
    value = np.asarray(sys.f1(flat, s), dtype=float)
    if order == 1:
        value = value @ w
    else:
        kernel = (np.asarray(sys.df1(flat, s), dtype=float) * w) @ S
        value = np.einsum("ij...t,j...t->i...", kernel, value)
        value += np.asarray(sys.f2(flat, s), dtype=float) @ w
    return (value / sys.period).reshape(z.shape)


def stacked_tables(u: UnfoldingParams, theta) -> tuple:
    """The C1 and C2 tables of normal_form.jerk_standard_form at theta, in
    the form the package once built them: each table's coefficient rows
    stacked by np.array(np.broadcast_arrays(...)), a scalar row copied
    along theta, and then np.array([coef * sin, coef / -d]).

    The rows are F1's (p, hw) and F2's seven, with h1 = r p + hw w, as
    jerk_standard_form's docstring derives them; theta is an array of
    angles or one angle.
    """
    d = u.delta
    hu = -u.c1 / d ** 2
    hv = u.b1 / d ** 3 - u.a1 / d
    hw = u.b1 / d ** 2
    sin, cos = np.sin(theta), np.cos(theta)
    p = hu * cos + hv * sin
    p_cos = p * cos
    rows = list(h2_coefficients(u, sin, cos))
    rows[2] = rows[2] - p * p_cos
    rows[4] = rows[4] - 2.0 * hw * p_cos
    tables = []
    for coefficients in ((p, hw), (*rows, -hw * hw * cos)):
        coef = np.array(np.broadcast_arrays(*coefficients))
        tables.append(np.array([coef * sin, coef / -d]))
    return tuple(tables)
