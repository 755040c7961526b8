"""Numeric averaging against the closed forms, plus root certification."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from averager.averaging import (
    DegreeSign,
    QuadratureNotConverged,
    QuadratureSpec,
    average_first,
    average_second,
    find_roots,
)
from averager.closed_form import f_closed, g_closed
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
