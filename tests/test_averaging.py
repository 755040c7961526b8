"""Averaging against the closed forms and the sampled reference, plus
root certification."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from averager.averaging import (
    NEWTON_MAX_ITER,
    ROOT_TOL,
    DegreeSign,
    QuadratureSpec,
    _damped_newton,
    _grid_seeds,
    _value_and_jacobian,
    average_first,
    average_second,
    find_roots,
)
from averager.closed_form import f_closed, g_closed, predicted_roots
from averager.normal_form import UnfoldingParams, jerk_standard_form
from reference import sampled_average
from test_cli import near_boundary

QUAD = QuadratureSpec()


def toy_system(f1, f2, df1=None):
    """A 2-pi periodic field given only pointwise, for sampled_average;
    without df1, F1 is independent of z and DF1 is zero."""
    if df1 is None:
        df1 = lambda z, t: np.zeros((2, 2, np.size(t)))
    return SimpleNamespace(period=2.0 * np.pi, f1=f1, f2=f2, df1=df1)


def slice_system(a2, b2, delta, c1=0.0, c2=0.0):
    """Standard form on the a1 = b1 = 0 slice, where the closed g applies."""
    return jerk_standard_form(
        UnfoldingParams(a2=a2, b2=b2, c1=c1, c2=c2, delta=delta)
    )


def test_average_first_of_pure_sinusoids():
    sys = toy_system(
        f1=lambda z, t: np.array([np.sin(t), np.cos(t)]),
        f2=lambda z, t: np.zeros((2, np.size(t))),
    )
    val = sampled_average(sys, np.zeros(2), 1, QUAD.nodes)
    assert np.max(np.abs(val)) < 1e-14


def test_average_first_vanishes_without_first_order_coefficients():
    sys = slice_system(1.0, 5.0, 2.0, c1=0.7, c2=-0.4)
    rng = np.random.default_rng(3)
    for _ in range(10):
        z = np.array([rng.uniform(0.5, 6.0), rng.uniform(-2.0, 2.0)])
        assert np.max(np.abs(average_first(sys, z, QUAD))) < 1e-12


def test_average_first_matches_closed_form():
    rng = np.random.default_rng(7)
    for _ in range(5):
        u = UnfoldingParams(
            a1=rng.uniform(-2, 2), b1=rng.uniform(-2, 2),
            a2=rng.uniform(-2, 2), b2=rng.uniform(-2, 2),
            c1=rng.uniform(-2, 2), c2=rng.uniform(-2, 2),
            delta=rng.uniform(0.5, 3.0),
        )
        sys = jerk_standard_form(u)
        for _ in range(8):
            r, w = rng.uniform(0.5, 6.0), rng.uniform(-2.0, 2.0)
            num = average_first(sys, np.array([r, w]), QUAD)
            ref = f_closed(r, w, u.a1, u.b1, u.delta)
            assert np.max(np.abs(num - ref)) < 1e-10


def test_average_second_annihilates_the_first_root():
    sys = slice_system(1.0, 5.0, 2.0)
    val = average_second(sys, np.array([4.0, 0.0]), QUAD)
    assert np.max(np.abs(val)) < 1e-9


def test_average_second_independent_of_c_coefficients():
    rng = np.random.default_rng(11)
    z = np.array([2.5, -0.8])
    results = []
    for c1 in (-1.0, 0.0, 1.0):
        for c2 in (-1.0, 0.0, 1.0):
            sys = slice_system(1.0, 5.0, 2.0, c1=c1, c2=c2)
            results.append(average_second(sys, z, QUAD))
    base = g_closed(z[0], z[1], 1.0, 5.0, 2.0)
    for val in results:
        assert np.max(np.abs(val - results[0])) < 1e-10
        assert np.max(np.abs(val - base)) < 1e-9
    del rng


def test_average_second_of_constant_f2():
    sys = toy_system(
        f1=lambda z, t: np.zeros((2, np.size(t))),
        f2=lambda z, t: np.outer([1.0, -1.0], np.ones(np.size(t))),
    )
    val = sampled_average(sys, np.zeros(2), 2, QUAD.nodes)
    assert np.allclose(val, [1.0, -1.0], atol=1e-13)


def test_oracle_equivalence_on_grid():
    rng = np.random.default_rng(13)
    for _ in range(3):
        delta = rng.uniform(0.5, 3.0)
        while abs(delta - np.sqrt(3.0)) < 0.05:
            delta = rng.uniform(0.5, 3.0)
        a1, b1, a2, b2, c1, c2 = rng.uniform(-2.0, 2.0, 6)
        first = jerk_standard_form(
            UnfoldingParams(a1=a1, b1=b1, a2=a2, b2=b2, c1=c1, c2=c2,
                            delta=delta))
        second = slice_system(a2, b2, delta, c1=c1, c2=c2)
        worst = 0.0
        for r in np.linspace(0.5, 8.0, 8):
            for w in np.linspace(-2.0, 2.0, 8):
                z = np.array([r, w])
                worst = max(worst, float(np.max(np.abs(
                    average_first(first, z, QUAD)
                    - f_closed(r, w, a1, b1, delta)))))
                worst = max(worst, float(np.max(np.abs(
                    average_second(second, z, QUAD)
                    - g_closed(r, w, a2, b2, delta)))))
        assert worst < 1e-9


def exact(order):
    """The engine's order-th average as a function of (sys, z, nodes)."""
    average = (average_first, average_second)[order - 1]
    return lambda sys, z, nodes: average(sys, z, QuadratureSpec(nodes))


def sampled(order):
    """The sampled reference of the order-th average, called as exact's."""
    return lambda sys, z, nodes: sampled_average(sys, z, order, nodes)


def test_batched_averages_match_per_point_calls():
    """A batch matches one call per point, and a point of shape (2,)
    matches the same point as a (2, 1) batch bit for bit, on the engine's
    exact path and on the sampled reference."""
    u = UnfoldingParams(a1=0.3, b1=-0.7, a2=1.2, b2=-0.9, c1=0.4, c2=-0.6,
                        delta=1.3)
    sys = jerk_standard_form(u)
    z = np.array(np.meshgrid(np.linspace(0.5, 8.0, 20),
                             np.linspace(-2.0, 2.0, 20), indexing="ij"))
    for order in (1, 2):
        for average in (exact(order), sampled(order)):
            batch = average(sys, z, QUAD.nodes)
            assert batch.shape == (2, 20, 20)
            assert average(sys, z[:, :0], QUAD.nodes).shape == (2, 0, 20)
            for i in range(20):
                for j in range(20):
                    single = average(sys, z[:, i, j], QUAD.nodes)
                    assert np.all(np.abs(batch[:, i, j] - single)
                                  <= 1e-12 * np.maximum(1.0, np.abs(single)))
                    column = average(sys, z[:, i, j, None], QUAD.nodes)
                    assert column.shape == (2, 1)
                    assert np.array_equal(column[:, 0], single)


def assert_close(got, expected):
    assert got.shape == expected.shape
    assert np.all(np.abs(got - expected)
                  <= 1e-12 * np.maximum(1.0, np.abs(expected)))


def oracle_deviation(got, expected):
    """The largest deviation of got from expected at a point, relative to
    max(1, largest |expected| component) there: the scale of average's
    oracle (cli._relative_deviation)."""
    return float((np.abs(got - expected).max(axis=0)
                  / np.maximum(1.0, np.abs(expected).max(axis=0))).max())


GRID = np.array(np.meshgrid(np.linspace(0.5, 8.0, 20),
                            np.linspace(-2.0, 2.0, 20), indexing="ij"))


def criterion_2_draws():
    """The ten (a1, b1, a2, b2, c1, c2, delta) of acceptance criterion 2."""
    rng = np.random.default_rng(202)
    draws = []
    for _ in range(10):
        delta = rng.uniform(0.5, 3.0)
        while abs(delta - np.sqrt(3.0)) < 0.05:
            delta = rng.uniform(0.5, 3.0)
        draws.append((*rng.uniform(-2.0, 2.0, 6), delta))
    return draws


@pytest.mark.parametrize("draw", criterion_2_draws())
def test_exact_averages_match_the_closed_forms(draw):
    """On acceptance criterion 2's draws and the 20 x 20 grid of average,
    f and g deviate from f_closed and g_closed by at most 1e-13 relative
    to max(1, |closed value|) at each point, the scale of average's
    oracle; g on the slice a1 = b1 = 0, where its closed form holds."""
    a1, b1, a2, b2, c1, c2, delta = draw
    first = jerk_standard_form(UnfoldingParams(
        a1=a1, b1=b1, a2=a2, b2=b2, c1=c1, c2=c2, delta=delta))
    second = slice_system(a2, b2, delta, c1=c1, c2=c2)
    assert oracle_deviation(average_first(first, GRID, QUAD),
                            f_closed(*GRID, a1, b1, delta)) <= 1e-13
    assert oracle_deviation(average_second(second, GRID, QUAD),
                            g_closed(*GRID, a2, b2, delta)) <= 1e-13


@pytest.mark.parametrize("draw", criterion_2_draws())
def test_the_rule_agrees_with_its_doubling(draw):
    """The M-node rule and the 2M-node rule give the same f and g, off
    the slice, to round-off (at most 3.5e-15 here, on the oracle's
    scale): the rule is exact at every size, so doubling it moves
    nothing but the last bits."""
    a1, b1, a2, b2, c1, c2, delta = draw
    sys = jerk_standard_form(UnfoldingParams(
        a1=a1, b1=b1, a2=a2, b2=b2, c1=c1, c2=c2, delta=delta))
    for order in (1, 2):
        for nodes in (16, 17, 64, 256):
            assert oracle_deviation(exact(order)(sys, GRID, nodes),
                                    exact(order)(sys, GRID, 2 * nodes)) <= 1e-14


@settings(max_examples=15)
@given(coefficients=st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
       delta=st.floats(0.5, 3.0))
def test_polynomial_path_matches_the_sampled_path(coefficients, delta):
    """The exact averages at 16, 64 and 256 nodes against the sampled
    reference, which evaluates f1, f2 and df1 at every point and node of
    the 256-node Gauss-Legendre rule, on a 20 x 20 grid off the slice
    a1 = b1 = 0, where g's inner integral carries its secular term."""
    a1, b1, a2, b2, c1, c2 = coefficients
    sys = jerk_standard_form(UnfoldingParams(
        a1=a1, b1=b1, a2=a2, b2=b2, c1=c1, c2=c2, delta=delta))
    for order in (1, 2):
        ref = sampled_average(sys, GRID, order, 256)
        for nodes in (16, 64, 256):
            assert_close(exact(order)(sys, GRID, nodes), ref)


def test_cached_means_stay_with_their_system():
    """Alternating systems never mixes up their cached means.

    Two jerk systems, each recreated again and again from its parameters,
    a kept one, and a replace copy of it with wrapped callables, as the
    benchmark tracer makes, each match their own sampled reference; the
    copy's averages never call its callables.
    """
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn)
            return fn(*args)
        return wrapper

    first = UnfoldingParams(a1=0.3, b1=-0.7, a2=1.2, b2=-0.9, c1=0.4,
                            c2=-0.6, delta=1.3)
    second = UnfoldingParams(a2=1.0, b2=5.0, delta=2.0)
    base = jerk_standard_form(first)
    wrapped = dataclasses.replace(
        base, f1=counted(base.f1), f2=counted(base.f2), df1=counted(base.df1))
    z = GRID[:, ::4, ::4]
    # systems made and dropped one after another, so a freed system's
    # memory, and with it its id, is free for the next
    for u in (first, second, first, second, first):
        for sys in (jerk_standard_form(u), base, wrapped):
            assert_close(average_second(sys, z, QUAD),
                         sampled_average(sys, z, 2, QUAD.nodes))
            assert_close(average_first(sys, z, QUAD),
                         sampled_average(sys, z, 1, QUAD.nodes))
    reference_calls = len(calls)
    average_second(wrapped, z, QUAD)
    average_first(wrapped, z, QUAD)
    assert len(calls) == reference_calls


def second_average_by_ode(sys, z):
    """g(z) from integrating I' = F1, G' = DF1 . I + F2 over one period.

    Independent of any quadrature rule and of the closed sums of the
    engine: G(T) / T is the second averaged function.
    """
    n = len(z)

    def rhs(s, y):
        t = np.array([s])
        inner = y[:n]
        return np.concatenate([
            sys.f1(z, t)[:, 0],
            sys.df1(z, t)[:, :, 0] @ inner + sys.f2(z, t)[:, 0],
        ])

    sol = solve_ivp(rhs, (0.0, sys.period), np.zeros(2 * n),
                    method="DOP853", rtol=1e-13, atol=1e-13)
    assert sol.success
    return sol.y[n:, -1] / sys.period


def test_average_second_matches_independent_oracle():
    z = np.array([2.0, 0.5])
    # on the a1 = b1 = 0 slice the inner integral of F1 is periodic
    sys = slice_system(1.0, 5.0, 2.0, c1=0.9)
    assert np.max(np.abs(
        average_second(sys, z, QUAD) - second_average_by_ode(sys, z))) < 1e-10
    # off the slice it also grows linearly in s through the mean of F1
    u = UnfoldingParams(a1=0.4, b1=-1.1, a2=1.0, b2=5.0, c1=0.9, delta=2.0)
    sys = jerk_standard_form(u)
    assert np.max(np.abs(
        average_second(sys, z, QUAD) - second_average_by_ode(sys, z))) < 1e-8


def test_state_dependent_df1_matches_independent_oracle():
    """The sampled reference takes a DF1 of shape (n, n, *batch, m) on the
    same line as a constant one.

    F1 = (w r cos t + w^2 sin t, r^2 sin 2t + w cos t) depends on z = (r, w),
    so its Jacobian does too; g is checked point by point on a (2, 3, 4)
    batch.
    """
    def split(z, t):
        r, w = np.reshape(z, np.shape(z) + (1,))
        return r, w, np.cos(t), np.sin(t)

    def f1(z, t):
        r, w, cos, sin = split(z, t)
        return np.array([w * r * cos + w * w * sin,
                         r * r * np.sin(2.0 * t) + w * cos])

    def df1(z, t):
        r, w, cos, sin = split(z, t)
        jac = np.array(np.broadcast_arrays(
            w * cos, r * cos + 2.0 * w * sin, 2.0 * r * np.sin(2.0 * t), cos))
        return jac.reshape((2, 2) + jac.shape[1:])

    def f2(z, t):
        r, w, cos, sin = split(z, t)
        return np.array(np.broadcast_arrays(r * sin * sin, w * w * cos + 0.5))

    sys = toy_system(f1, f2, df1)
    rng = np.random.default_rng(19)
    z = np.array([rng.uniform(0.5, 2.0, (3, 4)), rng.uniform(-1.0, 1.0, (3, 4))])
    assert df1(z, np.zeros(5)).shape == (2, 2, 3, 4, 5)
    g = sampled_average(sys, z, 2, QUAD.nodes)
    assert g.shape == z.shape
    for idx in np.ndindex(3, 4):
        point = z[(slice(None),) + idx]
        expected = second_average_by_ode(sys, point)
        assert np.max(np.abs(g[(slice(None),) + idx] - expected)) < 1e-10


def test_inner_integral_resolved_at_the_outer_nodes():
    """In the sampled reference, a fast inner integrand is resolved by the
    nodes that resolve DF1.

    With F1 = (cos 40t, 0) and DF1[1, 0] = sin 40t the mean of
    sin(40 s) * sin(40 s) / 40 is 1 / 80. A separate uniform inner grid of
    64 samples would alias cos 40t and return about 0.
    """
    def df1(z, t):
        jac = np.zeros((2, 2, np.size(t)))
        jac[1, 0] = np.sin(40.0 * t)
        return jac

    sys = toy_system(
        f1=lambda z, t: np.array([np.cos(40.0 * t), np.zeros_like(t)]),
        f2=lambda z, t: np.zeros((2, np.size(t))),
        df1=df1,
    )
    val = sampled_average(sys, np.zeros(2), 2, 256)
    assert np.max(np.abs(val - [0.0, 1.0 / 80.0])) < 1e-12


def test_quadrature_spec_validates_node_floor():
    with pytest.raises(ValueError):
        QuadratureSpec(nodes=8)
    # the ceiling keeps a configured count to its documented range
    with pytest.raises(ValueError, match="512"):
        QuadratureSpec(nodes=513)
    assert QuadratureSpec(nodes=512).nodes == 512


def test_find_roots_on_closed_g():
    fun = lambda z: g_closed(z[0], z[1], 1.0, 5.0, 2.0)
    roots = find_roots(fun, [(0.1, 10.0), (-3.0, 3.0)])
    assert len(roots) == 3
    r2, w2 = np.sqrt(224.0 / 5.0), np.sqrt(3.0 / 5.0)
    expected = sorted([(4.0, 0.0), (r2, w2), (r2, -w2)])
    for root, (er, ew) in zip(roots, expected):
        assert np.allclose(root.z, [er, ew], atol=1e-8)
        assert root.residual < 1e-10
        assert root.degree_sign in (DegreeSign.PLUS, DegreeSign.MINUS)


def test_find_roots_identity_map():
    roots = find_roots(lambda z: z, [(-1.0, 1.0), (-1.0, 1.0)])
    assert len(roots) == 1
    assert np.max(np.abs(roots[0].z)) < 1e-10
    assert roots[0].degree_sign is DegreeSign.PLUS


def test_find_roots_degenerate_jacobian():
    # simple root, but the determinant 1e-10 sits below det_tol
    fun = lambda z: 1e-5 * z
    roots = find_roots(fun, [(-0.5, 0.5), (-0.5, 0.5)], grid=8)
    assert len(roots) == 1
    assert roots[0].degree_sign is DegreeSign.DEGENERATE


def test_find_roots_empty_result():
    fun = lambda z: np.array([z[0] ** 2 + 1.0, z[1] ** 2 + 1.0])
    assert find_roots(fun, [(-1.0, 1.0), (-1.0, 1.0)], grid=8) == []


def test_find_roots_without_seeds_calls_fun_once():
    """Where fun is NaN on the whole grid no cell seeds Newton: the grid
    is the one call of fun, and no Newton round runs on an empty batch."""
    shapes = []

    def fun(z):
        shapes.append(z.shape)
        return np.full_like(z, np.nan)

    assert find_roots(fun, [(0.0, 1.0), (0.0, 1.0)], grid=4) == []
    assert shapes == [(2, 5, 5)]


def test_find_roots_negated_function():
    fun = lambda z: g_closed(z[0], z[1], 1.0, 5.0, 2.0)
    neg = lambda z: -fun(z)
    roots = find_roots(fun, [(0.1, 10.0), (-3.0, 3.0)])
    neg_roots = find_roots(neg, [(0.1, 10.0), (-3.0, 3.0)])
    assert len(roots) == len(neg_roots) == 3
    for a, b in zip(roots, neg_roots):
        assert np.allclose(a.z, b.z, atol=1e-8)
        # dimension 2: determinant unchanged under negation
        assert np.isclose(a.jac_det, b.jac_det, rtol=1e-4)


def test_find_roots_orders_numeric_roots_like_closed_form():
    """The mirror pair (r2, +-w2) is ordered by w, not by roundoff in r."""
    sys = slice_system(1.0, 5.0, 2.0)
    box = [(0.5, 8.0), (-2.0, 2.0)]
    for grid in (16, 32):
        num = find_roots(lambda z: average_second(sys, z, QUAD), box, grid)
        ref = find_roots(lambda z: g_closed(z[0], z[1], 1.0, 5.0, 2.0), box,
                         grid)
        assert len(num) == len(ref) == 3
        for a, b in zip(num, ref):
            assert np.allclose(a.z, b.z, atol=1e-8)


SHOWCASE_BOX = [(0.5, 8.0), (-2.0, 2.0)]
SHOWCASE_SYS = slice_system(1.0, 5.0, 2.0)


def counted(fun):
    """fun, with the number of its calls in the attribute calls."""
    def wrapped(z):
        wrapped.calls += 1
        return fun(z)

    wrapped.calls = 0
    return wrapped


@pytest.mark.parametrize("grid", [16, 32])
@pytest.mark.parametrize("numeric", [True, False])
def test_find_roots_makes_one_call_per_newton_round(grid, numeric):
    """Every seed iterates in the same call: a handful of calls in all.

    One Newton per seed took 76 to 119 calls here; all seeds together take
    9, the seeding grid included.
    """
    sys = slice_system(1.0, 5.0, 2.0)
    if numeric:
        fun = counted(lambda z: average_second(sys, z, QUAD))
    else:
        fun = counted(lambda z: g_closed(z[0], z[1], 1.0, 5.0, 2.0))
    roots = find_roots(fun, SHOWCASE_BOX, grid)
    assert len(roots) == 3
    assert fun.calls <= 20


def test_find_roots_drops_seeds_with_a_singular_jacobian():
    """Two seeds sit where the first component is flat; the others converge."""
    fun = lambda z: np.array([np.maximum(z[0], -0.5) - 0.5, z[1]])
    box = [(-1.0, 1.0), (-1.0, 1.0)]
    seeds = _grid_seeds(fun, box, [8, 8])
    _, jac = _value_and_jacobian(fun, seeds)
    assert len(seeds) == 7
    assert np.count_nonzero(np.linalg.det(jac) == 0.0) == 2
    roots = find_roots(fun, box, grid=8)
    assert len(roots) == 1
    assert np.allclose(roots[0].z, [0.5, 0.0], atol=1e-10)
    assert roots[0].degree_sign is DegreeSign.PLUS


def one_seed_newton(fun, seed):
    """The damped Newton that _damped_newton documents, for one seed alone.

    Each step tries the full Newton step, then its halvings until |fun|
    falls. The seed converges once |fun| < ROOT_TOL, and fails after
    NEWTON_MAX_ITER accepted steps, when the step would have to be halved
    to 2^-30, or when the step is singular or not finite. Returns
    (z, |fun(z)|, Jacobian at z) or None, as _damped_newton does per seed.
    """
    z = np.array(seed, dtype=float)
    f, jac = _value_and_jacobian(fun, z[None, :])
    f, jac, res = f[0], jac[0], float(np.linalg.norm(f[0]))
    for _ in range(NEWTON_MAX_ITER):
        if res < ROOT_TOL:
            break
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            return None
        if not np.isfinite(step).all():
            return None
        lam = 1.0
        while True:
            trial = z + lam * step
            f_new, jac_new = _value_and_jacobian(fun, trial[None, :])
            res_new = float(np.linalg.norm(f_new[0]))
            if res_new < res:
                z, f, jac, res = trial, f_new[0], jac_new[0], res_new
                break
            lam *= 0.5
            if lam == 0.5 ** 30:
                return None
    return (z, res, jac) if res < ROOT_TOL else None


#: base directions (a2, b2, delta) of the benchmark's average-grid workload
AVERAGE_GRID_BASES = [
    (-1.0447, -1.1085, 1.6091),
    (0.0624, -1.5801, 1.9986),
    (-0.2811, 1.9635, 2.1110),
    (-1.0408, -1.1476, 2.3395),
    (1.6924, 0.1387, 2.0129),
    (1.3749, 1.1865, 2.2304),
    (0.8178, 2.7230, 2.5378),
    (0.4949, -2.4112, 1.4750),
    (0.4572, -2.0926, 1.4793),
]


def numeric_g(a2, b2, delta):
    sys = slice_system(a2, b2, delta, c1=0.3, c2=-0.2)
    return lambda z: average_second(sys, z, QUAD)


@pytest.mark.parametrize("fun, box, grid", [
    (lambda z: g_closed(z[0], z[1], 1.0, 5.0, 2.0), SHOWCASE_BOX, 16),
    (lambda z: np.array([np.maximum(z[0], -0.5) - 0.5, z[1]]),
     [(-1.0, 1.0), (-1.0, 1.0)], 8),
    (lambda z: average_second(SHOWCASE_SYS, z, QUAD), SHOWCASE_BOX, 16),
    # no root: every seed stalls at the 2^-30 halving floor
    pytest.param(lambda z: np.array([z[0] ** 2 + 1.0, z[1] ** 2 + 1.0]),
                 [(-1.0, 1.0), (-1.0, 0.5)], 7, id="halving-floor"),
    # no root: |fun| falls by a factor 0.79 a step, to 5e-7 when the
    # seeds use up their NEWTON_MAX_ITER steps
    pytest.param(lambda z: np.array([(1.0 + z[0] ** 2) ** -0.05, z[1]]),
                 [(-1.0, 1.0), (-1.0, 1.0)], 8, id="step-cap"),
] + [pytest.param(numeric_g(*base), SHOWCASE_BOX, 16, id=f"average-grid-{i}")
     for i, base in enumerate(AVERAGE_GRID_BASES)])
def test_batched_newton_equals_one_newton_per_seed(fun, box, grid):
    """Every seed of one batched run ends, to the bit, where the same run
    from that seed alone ends, and where one_seed_newton ends. The run
    alone and one_seed_newton call fun once per trial point, the seed's
    included, so they also stop after the same trials."""
    seeds = _grid_seeds(fun, box, [grid, grid])
    together = _damped_newton(fun, seeds)
    assert len(together) == len(seeds)
    for seed, found in zip(seeds, together):
        alone_fun, plain_fun = counted(fun), counted(fun)
        (alone,) = _damped_newton(alone_fun, seed[None, :])
        plain = one_seed_newton(plain_fun, seed)
        assert alone_fun.calls == plain_fun.calls
        if alone is None or plain is None:
            assert found is alone is plain is None
            continue
        for other in (alone, plain):
            assert np.array_equal(found[0], other[0])
            assert found[1] == other[1]
            assert np.array_equal(found[2], other[2])


def test_find_roots_calls_fun_on_the_grid_then_on_newton_batches():
    """The seeding grid comes first, then one (n, k, 2n + 1) batch per
    round, k the seeds still iterating: all of them in the first round,
    never more in a later one."""
    shapes = []

    def fun(z):
        shapes.append(z.shape)
        return average_second(SHOWCASE_SYS, z, QUAD)

    roots = find_roots(fun, SHOWCASE_BOX, grid=[16, 12])
    assert len(roots) == 3
    assert shapes[0] == (2, 17, 13)
    rounds = shapes[1:]
    seeds = len(_grid_seeds(fun, SHOWCASE_BOX, [16, 12]))
    assert rounds and all(len(s) == 3 and s[0] == 2 and s[2] == 5
                          for s in rounds)
    active = [s[1] for s in rounds]
    assert active[0] == seeds
    assert active == sorted(active, reverse=True)


@pytest.mark.parametrize("fun, box, grid, zs, signs", [
    # n = 1: two corners per cell and one neighbour on each side
    (lambda z: z ** 2 - 0.25, [(-1.0, 1.0)], 16, [[-0.5], [0.5]],
     [DegreeSign.MINUS, DegreeSign.PLUS]),
    # n = 3: eight corners per cell, and a different cell count per axis
    (lambda z: z - np.reshape([0.1, -0.2, 0.3], (3,) + (1,) * (z.ndim - 1)),
     [(-1.0, 1.0)] * 3, [3, 4, 5], [[0.1, -0.2, 0.3]], [DegreeSign.PLUS]),
], ids=["line", "space"])
def test_find_roots_in_other_dimensions(fun, box, grid, zs, signs):
    roots = find_roots(fun, box, grid)
    assert [root.degree_sign for root in roots] == signs
    assert np.allclose([root.z for root in roots], zs, atol=1e-10)


@pytest.mark.parametrize("box, grid, message", [
    ([(1, -1), (1, -1)], 4, "box axis 0"),
    ([(-1.0, 1.0), (0.5, 0.5)], 4, "box axis 1"),
    ([(-1.0, 1.0), (0.0, np.inf)], 4, "box axis 1"),
    ([(np.nan, 1.0), (-1.0, 1.0)], 4, "box axis 0"),
    ([(-1.0, 1.0), (-1.0, 1.0)], [4], "1 entries for a box of 2 axes"),
    ([(-1.0, 1.0), (-1.0, 1.0)], [4, 4, 4], "3 entries for a box of 2 axes"),
    ([(-1.0, 1.0), (-1.0, 1.0)], 0, "grid axis 0"),
    ([(-1.0, 1.0), (-1.0, 1.0)], 2.5, "grid axis 0"),
    ([(-1.0, 1.0), (-1.0, 1.0)], [4, -2], "grid axis 1"),
    ([(-1.0, 1.0), (-1.0, 1.0)], np.array(4), "grid axis 0"),
    ([(-1.0, 1.0), (-1.0, 1.0)], True, "grid axis 0"),
    ([], 4, "no axes"),
], ids=["reversed", "empty", "infinite", "nan", "short-grid", "long-grid",
        "no-cells", "fractional-cells", "negative-cells", "array-cells",
        "bool-cells", "no-axes"])
def test_find_roots_rejects_a_bad_box_or_grid(box, grid, message):
    """A box or grid find_roots cannot seed from is refused before fun is
    called, with a ValueError naming the axis. Unchecked, the reversed box
    gives no root although (0.3, 0.3) lies in it, the short grid fails
    with an IndexError, the long one drops an entry, and 0 cells, or
    True, which Python counts as the integer 1, seed from one point."""
    fun = counted(lambda z: z - 0.3)
    with pytest.raises(ValueError, match=message):
        find_roots(fun, box, grid)
    assert fun.calls == 0


# margins from the boundaries in closed_form._degeneracies and from
# delta^2 = 3; the roots lie well inside the box of the test below
BOUNDARY_MARGIN = 0.5
DELTA_SQ_MARGIN = 0.4


@settings(max_examples=40)
@example(a2=1.0, b2=5.0, delta=2.0, near=None)
# one row per side of each boundary of closed_form._degeneracies, in order
@example(a2=1.0, b2=1.0, delta=2.0, near=(0, 0.5))
@example(a2=1.0, b2=1.0, delta=2.0, near=(0, -0.6))
@example(a2=1.0, b2=1.0, delta=2.0, near=(1, 0.6))
@example(a2=1.0, b2=1.0, delta=2.5, near=(1, -0.5))
@example(a2=1.0, b2=1.0, delta=2.0, near=(2, 0.5))
@example(a2=1.0, b2=1.0, delta=2.0, near=(2, -0.6))
@example(a2=1.0, b2=1.0, delta=2.0, near=(3, 0.6))
@example(a2=1.0, b2=1.0, delta=1.5, near=(3, -0.5))
@given(a2=st.floats(-3.0, 3.0), b2=st.floats(-3.0, 3.0),
       delta=st.floats(0.8, 2.6), near=st.none())
def test_find_roots_finds_the_predicted_roots(a2, b2, delta, near):
    """On the closed g, find_roots returns predicted_roots' count, and each
    root's degree sign is the sign of its closed-form determinant. A row
    with near = (boundary, offset) first moves its point to that offset,
    0.5 to 0.6 in size, from that boundary (test_cli.near_boundary)."""
    if near is not None:
        a2, b2, delta = near_boundary(near[0], a2, b2, delta, near[1])
    d2 = delta * delta
    assume(abs(3.0 - d2) >= DELTA_SQ_MARGIN)
    assume(min(abs(2.0 * a2 * d2 - b2), abs(a2 * d2 - b2),
               abs(a2 * d2 + 2.0 * b2)) >= BOUNDARY_MARGIN)
    pred = predicted_roots(a2, b2, delta)
    assume(all(0.5 <= r <= 8.0 and abs(w) <= 2.0 for r, w in pred.roots))
    fun = lambda z: g_closed(z[0], z[1], a2, b2, delta)
    roots = find_roots(fun, [(0.25, 10.0), (-3.0, 3.0)])
    assert len(roots) == len(pred.roots)
    for expected, det in zip(pred.roots, pred.jac_dets):
        (root,) = [root for root in roots
                   if np.max(np.abs(root.z - expected)) < 1e-6]
        sign = DegreeSign.PLUS if det > 0 else DegreeSign.MINUS
        assert root.degree_sign is sign
        assert np.sign(root.jac_det) == np.sign(det)
