"""Vector field, equilibria and eigenvalue classification of the jerk system."""

import numpy as np
import pytest

from averager.jerk import (
    EquilibriumKind,
    NotAnEquilibrium,
    SystemParams,
    char_poly,
    classify_equilibrium,
    equilibria,
    vector_field,
)
from reference import jacobian_at


def test_vector_field_origin_is_equilibrium():
    p = SystemParams(0.0, 0.0, -4.0)
    assert np.array_equal(vector_field(p, (0.0, 0.0, 0.0)), [0.0, 0.0, 0.0])


def test_vector_field_hand_values():
    p = SystemParams(0.0, 0.0, -4.0)
    assert np.allclose(vector_field(p, (1.0, 0.0, 0.0)), [0.0, 0.0, -1.0],
                       atol=1e-15)
    chaotic = SystemParams(3.6, 1.3, 0.1)
    assert np.allclose(vector_field(chaotic, (1.0, 1.0, 1.0)),
                       [1.0, 1.0, -4.8], atol=1e-15)


def test_jacobian_structure_and_values():
    p = SystemParams(0.0, 0.0, -4.0)
    jac = jacobian_at(p, (0.0, 0.0, 0.0))
    assert np.array_equal(jac[0], [0.0, 1.0, 0.0])
    assert np.array_equal(jac[1], [0.0, 0.0, 1.0])
    assert np.array_equal(jac[2], [0.0, -4.0, 0.0])
    jac = jacobian_at(SystemParams(1.0, 2.0, 3.0), (1.0, 1.0, 0.0))
    assert np.allclose(jac[2], [-4.0, 5.0, -1.0], atol=1e-15)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = SystemParams(*rng.uniform(-2.0, 2.0, 3))
        s = rng.uniform(-1.5, 1.5, 3)
        jac = jacobian_at(p, s)
        h = 1e-6
        for j in range(3):
            ds = np.zeros(3)
            ds[j] = h
            fd = (vector_field(p, s + ds) - vector_field(p, s - ds)) / (2 * h)
            assert np.allclose(jac[:, j], fd, atol=1e-8)


def test_equilibria_by_sign_of_b():
    assert [list(e) for e in equilibria(SystemParams(0.0, 0.0, -4.0))] == [
        [0.0, 0.0, 0.0]
    ]
    points = equilibria(SystemParams(0.0, -1.0, 0.0))
    assert [list(e) for e in points] == [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                                         [-1.0, 0.0, 0.0]]
    assert len(equilibria(SystemParams(0.0, 1.0, 0.0))) == 1


def test_equilibria_have_zero_field():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a, c = rng.uniform(-2.0, 2.0, 2)
        b = -rng.uniform(0.01, 2.0)
        p = SystemParams(a, b, c)
        for point in equilibria(p):
            assert np.max(np.abs(vector_field(p, point))) < 1e-12


def test_equilibria_classify_for_b_down_to_minus_1e12():
    """At x = +-sqrt(-b) the field's terms b x and x^3 grow like |b|^1.5,
    and their rounding alone leaves a residual far above 1e-9 (512 at
    b = -2e12); every equilibrium still classifies."""
    rng = np.random.default_rng(13)
    for decade in np.linspace(-2.0, 12.0, 15):
        for _ in range(20):
            a, c = rng.uniform(-2.0, 2.0, 2)
            b = -(10.0 ** rng.uniform(decade - 1.0, decade))
            p = SystemParams(a, b, c)
            points = equilibria(p)
            assert len(points) == 3
            for point in points:
                cls = classify_equilibrium(p, point)
                x = point[0]
                assert abs(np.prod(cls.eigenvalues) + (b + 3 * x**2)) <= (
                    1e-9 * max(1.0, abs(b)))


def test_char_poly_displays():
    delta = 2.0
    assert np.allclose(char_poly(SystemParams(0.0, 0.0, -delta**2), 0.0),
                       [-1.0, 0.0, -delta**2, 0.0], atol=1e-15)
    assert np.allclose(char_poly(SystemParams(1.0, 1.0, 1.0), 0.0),
                       [-1.0, -1.0, 1.0, -1.0], atol=1e-15)
    assert np.allclose(char_poly(SystemParams(0.0, -1.0, 0.0), 1.0),
                       [-1.0, 0.0, 0.0, -2.0], atol=1e-15)


def test_classify_zero_hopf_at_delta_two():
    cls = classify_equilibrium(SystemParams(0.0, 0.0, -4.0), (0.0, 0.0, 0.0))
    assert cls.kind is EquilibriumKind.ZERO_HOPF
    eigs = sorted(cls.eigenvalues, key=lambda lam: lam.imag)
    assert abs(eigs[0] - (-2j)) < 1e-12
    assert abs(eigs[1]) < 1e-12
    assert abs(eigs[2] - 2j) < 1e-12


def test_classify_needs_both_a_and_b_zero():
    cls = classify_equilibrium(SystemParams(1.0, 0.0, -4.0), (0.0, 0.0, 0.0))
    assert cls.kind is not EquilibriumKind.ZERO_HOPF


def test_classify_positive_c_is_not_zero_hopf():
    cls = classify_equilibrium(SystemParams(0.0, 0.0, 4.0), (0.0, 0.0, 0.0))
    assert cls.kind is EquilibriumKind.OTHER_NONHYPERBOLIC
    eigs = sorted(cls.eigenvalues, key=lambda lam: lam.real)
    assert abs(eigs[0] - (-2.0)) < 1e-12
    assert abs(eigs[1]) < 1e-12
    assert abs(eigs[2] - 2.0) < 1e-12


def test_classify_rejects_non_equilibrium():
    with pytest.raises(NotAnEquilibrium):
        classify_equilibrium(SystemParams(0.0, 0.0, -4.0), (1.0, 1.0, 1.0))
    # b x and x^3 overflow at x = sqrt(-b), so the residual is NaN
    with pytest.raises(NotAnEquilibrium, match="residual nan"):
        classify_equilibrium(SystemParams(0.0, -1e300, 1.0), (1e150, 0.0, 0.0))


def test_eigenvalues_satisfy_char_poly():
    rng = np.random.default_rng(23)
    for _ in range(50):
        a, c = rng.uniform(-2.0, 2.0, 2)
        b = -rng.uniform(0.01, 2.0)
        p = SystemParams(a, b, c)
        for point in equilibria(p):
            cls = classify_equilibrium(p, point)
            coeffs = char_poly(p, point[0])
            scale = np.max(np.abs(coeffs))
            for lam in cls.eigenvalues:
                assert abs(np.polyval(coeffs, lam)) < 1e-9 * max(
                    scale, abs(lam) ** 3
                )


def test_eigenvalue_sum_and_product():
    rng = np.random.default_rng(31)
    for _ in range(50):
        a, c = rng.uniform(-2.0, 2.0, 2)
        b = rng.uniform(-2.0, 2.0)
        p = SystemParams(a, b, c)
        for point in equilibria(p):
            cls = classify_equilibrium(p, point)
            x = point[0]
            assert abs(np.sum(cls.eigenvalues) + a) < 1e-9
            assert abs(np.prod(cls.eigenvalues) + (b + 3 * x**2)) < 1e-9


def test_zero_hopf_iff_a_b_vanish_and_c_negative():
    rng = np.random.default_rng(5)
    p_origin = np.zeros(3)
    for _ in range(300):
        a, b, c = rng.uniform(-2.0, 2.0, 3)
        for params in (
            SystemParams(a, b, c),
            SystemParams(0.0, 0.0, c),
            SystemParams(a, 0.0, c),
            SystemParams(0.0, b, c),
        ):
            if abs(params.b) > 1e-10:
                continue  # origin stays an equilibrium only for small b
            cls = classify_equilibrium(params, p_origin)
            expected = (abs(params.a) < 1e-10 and abs(params.b) < 1e-10
                        and params.c < -1e-10)
            assert (cls.kind is EquilibriumKind.ZERO_HOPF) == expected
