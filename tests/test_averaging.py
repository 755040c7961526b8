"""Numeric averaging against the closed forms, plus root certification."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from averager import averaging
from averager.averaging import (
    DegreeSign,
    QuadratureAccuracyWarning,
    QuadratureNotConverged,
    QuadratureSpec,
    _damped_newton,
    _grid_seeds,
    _rule_nodes,
    _value_and_jacobian,
    average_first,
    average_second,
    find_roots,
)
from averager.closed_form import f_closed, g_closed, predicted_roots
from averager.normal_form import (
    StandardFormSystem,
    UnfoldingParams,
    jerk_standard_form,
)

QUAD = QuadratureSpec()


def toy_system(f1, f2):
    """2-pi periodic system with F1 independent of z, so DF1 is zero."""
    return StandardFormSystem(
        period=2.0 * np.pi, f1=f1, f2=f2,
        df1=lambda z, t: np.zeros((2, 2, np.size(t))),
    )


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
    val = average_first(sys, np.zeros(2), QUAD)
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
    val = average_second(sys, np.zeros(2), QUAD)
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


def test_batched_averages_match_per_point_calls():
    u = UnfoldingParams(a1=0.3, b1=-0.7, a2=1.2, b2=-0.9, c1=0.4, c2=-0.6,
                        delta=1.3)
    sys = jerk_standard_form(u)
    z = np.array(np.meshgrid(np.linspace(0.5, 8.0, 20),
                             np.linspace(-2.0, 2.0, 20), indexing="ij"))
    for average in (average_first, average_second):
        batch = average(sys, z, QUAD)
        assert batch.shape == (2, 20, 20)
        for i in range(20):
            for j in range(20):
                single = average(sys, z[:, i, j], QUAD)
                assert np.all(np.abs(batch[:, i, j] - single)
                              <= 1e-12 * np.maximum(1.0, np.abs(single)))


def test_batch_judges_each_point_at_its_own_scale():
    """A large point in a batch does not hide a small point's warning.

    With F1 = (r + w cos 4t, 0) the mean at N = 16 is off by 6e-11, which
    only warns for the point (0, 1). A threshold scaled by the batch's
    largest value, 1e8 at (1e8, 0), would let it pass silently.
    """
    def f1(z, t):
        r, w = np.asarray(z)[..., None]
        return np.array([r + w * np.cos(4.0 * t), 0.0 * w * t])

    sys = toy_system(f1, f2=None)
    q = QuadratureSpec(nodes=16)
    with pytest.warns(QuadratureAccuracyWarning,
                      match=r"z = \[0\.0, 1\.0\]"):
        val = average_first(sys, np.array([[1e8, 0.0], [0.0, 1.0]]), q)
    assert np.allclose(val[0], [1e8, 0.0], atol=1e-9)


def second_average_by_ode(sys, z):
    """g(z) from integrating I' = F1, G' = DF1 . I + F2 over one period.

    Independent of the engine's quadrature nodes and of its integration
    matrix for the inner integral: G(T) / T is the second averaged function.
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


def test_inner_integral_resolved_at_the_outer_nodes():
    """A fast inner integrand is resolved by the nodes that resolve DF1.

    With F1 = (cos 40t, 0) and DF1[1, 0] = sin 40t the mean of
    sin(40 s) * sin(40 s) / 40 is 1 / 80. A separate uniform inner grid of
    64 samples would alias cos 40t and return about 0 without a warning.
    """
    def df1(z, t):
        jac = np.zeros((2, 2, np.size(t)))
        jac[1, 0] = np.sin(40.0 * t)
        return jac

    sys = StandardFormSystem(
        period=2.0 * np.pi,
        f1=lambda z, t: np.array([np.cos(40.0 * t), np.zeros_like(t)]),
        f2=lambda z, t: np.zeros((2, np.size(t))),
        df1=df1,
    )
    val = average_second(sys, np.zeros(2), QuadratureSpec(nodes=256))
    assert np.max(np.abs(val - [0.0, 1.0 / 80.0])) < 1e-12


def test_quadrature_divergence_detection():
    sys = toy_system(
        f1=lambda z, t: np.array([np.cos(64.0 * t), np.zeros_like(t)]),
        f2=lambda z, t: np.zeros((2, np.size(t))),
    )
    with pytest.raises(QuadratureNotConverged):
        average_first(sys, np.zeros(2), QuadratureSpec(nodes=64))


def test_quadrature_spec_validates_node_floor():
    with pytest.raises(ValueError):
        QuadratureSpec(nodes=8)
    # the ceiling bounds the dense eigenproblem behind the Gauss-Legendre nodes
    with pytest.raises(ValueError, match="1024"):
        QuadratureSpec(nodes=1025)
    assert QuadratureSpec(nodes=1024).nodes == 1024


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


@pytest.mark.parametrize("fun, box, grid", [
    (lambda z: g_closed(z[0], z[1], 1.0, 5.0, 2.0), SHOWCASE_BOX, 16),
    (lambda z: np.array([np.maximum(z[0], -0.5) - 0.5, z[1]]),
     [(-1.0, 1.0), (-1.0, 1.0)], 8),
])
def test_batched_newton_equals_one_newton_per_seed(fun, box, grid):
    seeds = _grid_seeds(fun, box, [grid, grid])
    together = _damped_newton(fun, seeds)
    assert len(together) == len(seeds)
    for seed, found in zip(seeds, together):
        (alone,) = _damped_newton(fun, seed[None, :])
        if alone is None:
            assert found is None
            continue
        assert np.array_equal(found[0], alone[0])
        assert found[1] == alone[1]
        assert np.array_equal(found[2], alone[2])


# margins from the boundaries in closed_form._degeneracies and from
# delta^2 = 3; the roots lie well inside the box of the test below
BOUNDARY_MARGIN = 0.5
DELTA_SQ_MARGIN = 0.4


@settings(max_examples=40)
@example(a2=1.0, b2=5.0, delta=2.0)
@given(a2=st.floats(-3.0, 3.0), b2=st.floats(-3.0, 3.0),
       delta=st.floats(0.8, 2.6))
def test_find_roots_finds_the_predicted_roots(a2, b2, delta):
    """On the closed g, find_roots returns predicted_roots' count, and each
    root's degree sign is the sign of its closed-form determinant."""
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


# at N = 1024 the large-r points agree only to about 1.4e-12; this test
# is about memory, so that warning is beside the point
@pytest.mark.filterwarnings(
    "ignore::averager.averaging.QuadratureAccuracyWarning")
def test_large_batches_are_evaluated_in_bounded_chunks(monkeypatch):
    """The 400-point average grid at N = 1024 (2N = 2048 samples per point)
    splits into chunks: it peaked at 85 MB when evaluated whole."""
    sys = slice_system(1.0, 5.0, 2.0)
    q = QuadratureSpec(nodes=1024)
    z = np.array(np.meshgrid(np.linspace(0.5, 8.0, 20),
                             np.linspace(-2.0, 2.0, 20), indexing="ij"))
    for nodes in (1024, 2048):  # the cached rules are not batch memory
        _rule_nodes(nodes, sys.period)
    tracemalloc.start()
    try:
        chunked = average_second(sys, z, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6
    monkeypatch.setattr(averaging, "MAX_SAMPLES", z[0].size * 2048)
    whole = average_second(sys, z, q)
    scale = np.max(np.abs(whole), axis=0)
    assert np.all(np.abs(chunked - whole) <= 1e-15 * scale)
