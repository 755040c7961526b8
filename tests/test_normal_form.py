"""Coordinate pipeline: unfolding, scaling, Jordan change, angular system."""

import numpy as np
import pytest

from averager.jerk import (MAX_DELTA, MIN_DELTA, UnfoldingParams, unfold,
                           vector_field)
from averager.normal_form import f2_monomials, jerk_standard_form
from reference import (
    DegenerateEpsilon,
    SingularDenominator,
    h1,
    h2,
    jordan_to_xyz,
    pointwise,
    scale_state,
    stacked_tables,
    theta_rhs,
    unscale_state,
    xyz_to_jordan,
)


def random_unfolding(rng, delta_range=(0.5, 3.0)):
    a1, a2, b1, b2, c1, c2 = rng.uniform(-2.0, 2.0, 6)
    delta = rng.uniform(*delta_range)
    return UnfoldingParams(a1=a1, a2=a2, b1=b1, b2=b2, c1=c1, c2=c2,
                           delta=delta)


def test_unfold_values():
    u = UnfoldingParams(a2=1.0, b2=5.0, delta=2.0)
    p = unfold(u, 0.1)
    assert np.allclose([p.a, p.b, p.c], [0.01, 0.05, -4.0], atol=1e-15)
    p0 = unfold(UnfoldingParams(a1=3.0, b1=-1.0, c1=2.0, delta=1.5), 0.0)
    assert (p0.a, p0.b, p0.c) == (0.0, 0.0, -1.5**2)
    p1 = unfold(UnfoldingParams(a1=1.0, delta=1.0), 0.5)
    assert np.allclose([p1.a, p1.b, p1.c], [0.5, 0.0, -1.0], atol=1e-15)


def test_unfolding_params_validate_delta():
    with pytest.raises(ValueError):
        UnfoldingParams(delta=0.0)
    with pytest.raises(ValueError):
        UnfoldingParams(delta=-1.0)
    with pytest.raises(ValueError):
        UnfoldingParams(delta=float("nan"))
    for delta in (MIN_DELTA, MAX_DELTA):
        assert UnfoldingParams(delta=delta).delta == delta
    for delta in (np.nextafter(MIN_DELTA, 0.0), np.nextafter(MAX_DELTA, 1e300)):
        with pytest.raises(ValueError, match="delta must be in"):
            UnfoldingParams(delta=delta)


def test_scale_state_examples():
    assert np.allclose(scale_state((0.2, 0.4, 0.0), 0.1), [2.0, 4.0, 0.0],
                       atol=1e-14)
    s = np.array([0.3, -0.7, 1.1])
    assert np.array_equal(scale_state(s, 1.0), s)
    assert np.allclose(unscale_state(scale_state(s, 0.05), 0.05), s,
                       atol=1e-15)
    with pytest.raises(DegenerateEpsilon):
        scale_state(s, 0.0)


def test_jordan_section_image():
    # at v = 0 the map gives (w, r, 0): the theta = 0 section seed
    assert np.allclose(jordan_to_xyz((3.0, 0.0, 0.5), 2.0), [0.5, 3.0, 0.0],
                       atol=1e-15)
    assert np.array_equal(jordan_to_xyz((0.0, 0.0, 0.0), 1.3), [0.0, 0.0, 0.0])


def test_jordan_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(30):
        j = rng.uniform(-2.0, 2.0, 3)
        delta = rng.uniform(0.5, 3.0)
        back = xyz_to_jordan(jordan_to_xyz(j, delta), delta)
        assert np.allclose(back, j, atol=1e-15)


def test_h1_h2_values():
    rng = np.random.default_rng(9)
    u = UnfoldingParams(c1=1.4, delta=1.7)  # a1 = b1 = 0
    for _ in range(10):
        j = rng.uniform(-2.0, 2.0, 3)
        assert np.isclose(h1(j, u), -1.4 * j[0] / 1.7**2, atol=1e-15)
    full = random_unfolding(rng)
    assert h1((0.0, 0.0, 0.0), full) == 0.0
    assert h2((0.0, 0.0, 0.0), full) == 0.0
    # only the v^3/delta^5 term survives
    assert h2((0.0, 1.0, 0.0), UnfoldingParams(delta=1.0)) == 1.0


def test_jordan_field_pushforward():
    """The scaled field conjugated by the linear change has the h1/h2 form.

    The Jordan-side field must be (-delta*v, delta*(u + eps*H), -eps*H)
    with H = h1 + eps*h2, which ties unfold, the linear change and both
    coupling terms together.
    """
    rng = np.random.default_rng(17)
    for _ in range(25):
        u = random_unfolding(rng)
        eps = rng.uniform(1e-3, 0.15)
        S = rng.uniform(-2.0, 2.0, 3)
        p = unfold(u, eps)
        scaled_field = np.divide(vector_field(p, unscale_state(S, eps)), eps)
        lhs = xyz_to_jordan(scaled_field, u.delta)
        ju, jv, jw = xyz_to_jordan(S, u.delta)
        big_h = h1((ju, jv, jw), u) + eps * h2((ju, jv, jw), u)
        rhs = np.array([
            -u.delta * jv,
            u.delta * (ju + eps * big_h),
            -eps * big_h,
        ])
        assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-10)


def test_theta_rhs_vanishes_at_eps_zero():
    u = UnfoldingParams(a1=1.0, b1=0.5, c1=-0.3, a2=2.0, delta=1.2)
    assert np.array_equal(theta_rhs((1.5, 0.7, -0.2), u, 0.0), [0.0, 0.0])


def test_theta_rhs_singular_guard():
    u = UnfoldingParams(delta=1.0)
    with pytest.raises(SingularDenominator):
        theta_rhs((1e-13, 0.3, 0.0), u, 0.0)


def test_theta_rhs_matches_quotient_assembly():
    rng = np.random.default_rng(29)
    for _ in range(25):
        u = random_unfolding(rng)
        eps = rng.uniform(1e-3, 0.1)
        r = rng.uniform(0.5, 4.0)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        w = rng.uniform(-2.0, 2.0)
        uu, vv = r * np.cos(theta), r * np.sin(theta)
        big_h = h1((uu, vv, w), u) + eps * h2((uu, vv, w), u)
        den = r + eps * np.cos(theta) * big_h
        expected = np.array([
            eps * big_h * r * np.sin(theta) / den,
            -eps * big_h * r / (u.delta * den),
        ])
        assert np.allclose(theta_rhs((r, theta, w), u, eps), expected,
                           rtol=1e-13, atol=1e-15)


def test_standard_form_is_first_two_expansion_orders():
    """theta_rhs - (eps F1 + eps^2 F2) must shrink like eps^3.

    This pins both expansion coefficients; an extra factor in F2 would
    leave an O(eps^2) remainder and the fitted slope would drop to 2.
    """
    rng = np.random.default_rng(41)
    u = random_unfolding(rng)
    sys = pointwise(jerk_standard_form(u))
    samples = [(rng.uniform(0.5, 3.0), rng.uniform(0.0, 2.0 * np.pi),
                rng.uniform(-1.5, 1.5)) for _ in range(12)]
    eps_values = np.array([4e-3, 2e-3, 1e-3])
    remainders = []
    for eps in eps_values:
        worst = 0.0
        for r, theta, w in samples:
            z = np.array([r, w])
            exact = theta_rhs((r, theta, w), u, eps)
            expansion = (eps * sys.f1(z, theta)
                         + eps * eps * sys.f2(z, theta))
            worst = max(worst, float(np.max(np.abs(exact - expansion))))
        remainders.append(worst)
    slope = np.polyfit(np.log(eps_values), np.log(remainders), 1)[0]
    assert slope > 2.6, f"remainder decays with slope {slope}, expected ~3"


def test_standard_form_periodicity():
    rng = np.random.default_rng(13)
    u = random_unfolding(rng)
    sys = pointwise(jerk_standard_form(u))
    assert np.isclose(sys.period, 2.0 * np.pi)
    z = np.array([1.5, -0.5])
    thetas = np.linspace(0.0, sys.period, 5)
    assert sys.f1(z, thetas).shape == (2, 5)
    assert sys.f2(z, thetas).shape == (2, 5)
    assert sys.df1(z, thetas).shape == (2, 2, 5)
    batch = z[:, None, None] * np.ones((3, 4))
    assert sys.f1(batch, thetas).shape == (2, 3, 4, 5)
    assert sys.f2(batch, thetas).shape == (2, 3, 4, 5)
    assert sys.f2(batch, thetas[0]).shape == (2, 3, 4)
    for _ in range(10):
        z = np.array([rng.uniform(0.5, 4.0), rng.uniform(-2.0, 2.0)])
        theta = rng.uniform(0.0, 2.0 * np.pi)
        assert np.allclose(sys.f1(z, theta), sys.f1(z, theta + sys.period),
                           atol=1e-14)
        assert np.allclose(sys.f2(z, theta), sys.f2(z, theta + sys.period),
                           atol=1e-13)


def test_f1_vanishes_where_h1_does():
    u = UnfoldingParams(c1=1.0, delta=1.0)  # h1 = -u
    sys = pointwise(jerk_standard_form(u))
    assert np.allclose(sys.f1(np.array([1.0, 0.0]), np.pi / 2.0), [0.0, 0.0],
                       atol=1e-15)


def test_f2_components_at_theta_zero():
    rng = np.random.default_rng(55)
    u = random_unfolding(rng)
    sys = pointwise(jerk_standard_form(u))
    r = 1.7
    z = np.array([r, 0.0])
    val = sys.f2(z, 0.0)
    assert val[0] == 0.0  # sin(theta) factor
    h1v = h1((r, 0.0, 0.0), u)
    h2v = h2((r, 0.0, 0.0), u)
    expected = -(h2v * r - h1v**2) / (r * u.delta)
    assert np.isclose(val[1], expected, rtol=1e-13)


def test_df1_matches_finite_differences():
    rng = np.random.default_rng(67)
    u = random_unfolding(rng)
    sys = pointwise(jerk_standard_form(u))
    for _ in range(10):
        z = np.array([rng.uniform(0.5, 4.0), rng.uniform(-2.0, 2.0)])
        theta = rng.uniform(0.0, 2.0 * np.pi)
        jac = np.asarray(sys.df1(z, theta), dtype=float)
        h = 1e-6
        for j in range(2):
            dz = np.zeros(2)
            dz[j] = h
            fd = (sys.f1(z + dz, theta) - sys.f1(z - dz, theta)) / (2 * h)
            assert np.allclose(jac[:, j], fd, atol=1e-8)


def test_polynomial_evaluators_match_the_reference_formulas():
    """The tables, evaluated as f1 and f2 by pointwise, against the
    reference h1 and h2 at (r cos, r sin, w)."""
    rng = np.random.default_rng(83)
    batch = np.array([rng.uniform(0.5, 4.0, (3, 4)),
                      rng.uniform(-2.0, 2.0, (3, 4))])
    thetas = rng.uniform(0.0, 2.0 * np.pi, 7)
    point = np.array([rng.uniform(0.5, 4.0), rng.uniform(-2.0, 2.0)])
    theta = rng.uniform(0.0, 2.0 * np.pi)
    for _ in range(20):
        u = random_unfolding(rng)
        sys = pointwise(jerk_standard_form(u))
        for z, th in [(batch, thetas), (point, theta)]:
            r, w = np.reshape(z, np.shape(z) + (1,) * np.ndim(th))
            jordan = (r * np.cos(th), r * np.sin(th), w)
            factor = np.array(np.broadcast_arrays(np.sin(th), -1.0 / u.delta))
            factor = factor.reshape((2,) + (1,) * (z.ndim - 1) + np.shape(th))
            h1v, h2v = h1(jordan, u), h2(jordan, u)
            for got, expected in [
                (sys.f1(z, th), h1v * factor),
                (sys.f2(z, th), (h2v * r - h1v ** 2 * np.cos(th)) / r * factor),
            ]:
                assert got.shape == expected.shape
                assert np.all(np.abs(got - expected)
                              <= 1e-13 * np.maximum(1.0, np.abs(expected)))


def test_monomials_are_formed_as_the_hand_written_products():
    """f2_monomials gives, to the bit, the products once written out by
    hand: the seven monomials of F2, whose last one divides by r."""
    rng = np.random.default_rng(29)
    r, w = rng.uniform(0.5, 8.0, 20), rng.uniform(-2.0, 2.0, 20)
    ww = w * w
    f2 = [r * r * r, r * r * w, r, r * ww, w, ww * w, ww / r]
    got, expected = f2_monomials(np.array([r, w])), np.array(f2)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


#: the unfoldings at the ends of the range: a1 = 1e307 overflows the
#: tables to inf and NaN, and delta runs to MIN_DELTA and MAX_DELTA
EXTREME_TABLES = [UnfoldingParams(a1=1e307, a2=1.0, b2=5.0, delta=2.0),
                  UnfoldingParams(a2=1.0, b2=5.0, c1=0.4, delta=MIN_DELTA),
                  UnfoldingParams(a1=-0.3, b1=0.7, c2=0.1, delta=MAX_DELTA)]


def test_tables_keep_the_bits_of_the_stacked_form():
    """C1 and C2, each written into one array, equal
    reference.stacked_tables to the bit: at 64 and 512 equispaced nodes,
    on 17 drawn angles and on one scalar angle, over 30 drawn unfoldings
    of every scale and the three extremes."""
    rng = np.random.default_rng(97)
    drawn = [UnfoldingParams(*rng.uniform(-1.0, 1.0, 6)
                             * 10.0 ** rng.uniform(-3.0, 3.0, 6),
                             delta=10.0 ** rng.uniform(-3.0, 3.0))
             for _ in range(30)]
    angles = [np.arange(m) * (2.0 * np.pi / m) for m in (64, 512)]
    angles += [rng.uniform(0.0, 2.0 * np.pi, 17), rng.uniform(0.0, 2.0 * np.pi)]
    overflowed = 0
    with np.errstate(all="ignore"):
        for u in drawn + EXTREME_TABLES:
            c1, _, c2 = jerk_standard_form(u).polynomials
            for theta in angles:
                for got, want in zip((c1(theta), c2(theta)),
                                     stacked_tables(u, theta)):
                    assert got.dtype == want.dtype == np.float64
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes()
                    overflowed += not np.isfinite(got).all()
    assert overflowed >= len(angles)


def test_f1_vectorized_over_theta():
    rng = np.random.default_rng(71)
    u = random_unfolding(rng)
    sys = pointwise(jerk_standard_form(u))
    z = np.array([2.0, -0.5])
    thetas = rng.uniform(0.0, 2.0 * np.pi, 16)
    batch = sys.f1(z, thetas)
    assert batch.shape == (2, 16)
    for k, theta in enumerate(thetas):
        assert np.allclose(batch[:, k], sys.f1(z, theta), atol=1e-15)
