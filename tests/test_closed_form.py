"""Closed-form averaged functions, root families and the case classifier."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from averager.closed_form import (
    HypothesisViolated,
    OrbitCount,
    f_closed,
    g_closed,
    g_jacobian,
    higher_averages,
    predicted_roots,
    root_corrections,
)
from averager.jerk import MAX_DELTA, MIN_DELTA, UnfoldingParams
from averager.normal_form import jerk_standard_form
from reference import (numpy_higher_averages, numpy_root_corrections,
                       pointwise, theta_rhs)

COUNT_OF = {OrbitCount.ZERO: 0, OrbitCount.ONE: 1, OrbitCount.TWO: 2,
            OrbitCount.THREE: 3}


def test_f_closed_values():
    rng = np.random.default_rng(2)
    for _ in range(10):
        r, w = rng.uniform(0.1, 5.0), rng.uniform(-3.0, 3.0)
        assert np.array_equal(f_closed(r, w, 0.0, 0.0, 1.7), [0.0, 0.0])
    assert np.allclose(f_closed(2.0, 5.0, 1.0, 0.0, 1.0), [-1.0, 0.0],
                       atol=1e-15)
    # b1 = a1*delta^2 kills the first component for every r
    for r in (0.3, 1.0, 7.5):
        val = f_closed(r, 0.8, 0.5, 0.5 * 2.1**2, 2.1)
        assert val[0] == 0.0


def test_g_closed_values():
    assert np.allclose(g_closed(4.0, 0.0, 1.0, 5.0, 2.0), [0.0, 0.0],
                       atol=1e-13)
    for r in (0.5, 2.0, 6.0):
        assert g_closed(r, 0.0, -1.3, 0.7, 1.4)[1] == 0.0
    root = g_closed(np.sqrt(224.0 / 5.0), np.sqrt(3.0 / 5.0), 1.0, 5.0, 2.0)
    assert np.max(np.abs(root)) < 1e-12


def test_g_closed_symmetry_in_w():
    rng = np.random.default_rng(19)
    for _ in range(20):
        r, w = rng.uniform(0.1, 5.0), rng.uniform(-3.0, 3.0)
        a2, b2 = rng.uniform(-2.0, 2.0, 2)
        delta = rng.uniform(0.5, 3.0)
        plus = g_closed(r, w, a2, b2, delta)
        minus = g_closed(r, -w, a2, b2, delta)
        assert np.allclose(minus, [plus[0], -plus[1]], rtol=1e-13, atol=1e-15)


def test_predicted_roots_three_orbit_case():
    pred = predicted_roots(1.0, 5.0, 2.0)
    assert pred.count is OrbitCount.THREE
    r2 = np.sqrt(224.0 / 5.0)
    w2 = np.sqrt(3.0 / 5.0)
    expected = [(4.0, 0.0), (r2, w2), (r2, -w2)]
    for (r, w), (er, ew) in zip(pred.roots, expected):
        assert abs(r - er) <= 1e-12 * abs(er)
        assert abs(w - ew) <= 1e-12 * max(abs(ew), 1.0)
    assert abs(pred.jac_dets[0] - 3.0 / 64.0) <= 1e-12 * (3.0 / 64.0)
    for det in pred.jac_dets[1:]:
        assert abs(det - (-21.0 / 80.0)) <= 1e-12 * (21.0 / 80.0)


def test_predicted_roots_zero_case():
    pred = predicted_roots(1.0, -10.0, 2.0)
    assert pred.count is OrbitCount.ZERO
    assert pred.roots == []


def test_predicted_roots_degenerate_delta():
    with pytest.raises(HypothesisViolated, match="delta"):
        predicted_roots(0.7, -0.9, np.sqrt(3.0))


def test_predicted_roots_rejects_bad_delta():
    """delta outside [MIN_DELTA, MAX_DELTA] is refused, as by
    UnfoldingParams: from 1e52 on, d2 ** 3 overflowed."""
    with pytest.raises(ValueError):
        predicted_roots(1.0, 1.0, -2.0)
    for delta in (np.nextafter(MIN_DELTA, 0.0), np.nextafter(MAX_DELTA, 1e300),
                  1e52):
        with pytest.raises(HypothesisViolated, match="delta must be in"):
            predicted_roots(1.0, 5.0, delta)
    assert predicted_roots(1.0, 5.0, MAX_DELTA).count is OrbitCount.TWO
    assert predicted_roots(1.0, 5.0, MIN_DELTA).count is OrbitCount.ZERO


def test_classify_examples():
    assert predicted_roots(1.0, 5.0, 2.0).count is OrbitCount.THREE
    # both sign ratios positive: only the w = 0 family is real
    assert predicted_roots(3.0, 1.0, 1.0).count is OrbitCount.ONE
    # first ratio positive, second negative: both families complex
    assert predicted_roots(1.0, 3.0, 1.0).count is OrbitCount.ZERO


def test_classify_hypothesis_gates():
    with pytest.raises(HypothesisViolated):
        predicted_roots(0.7, -0.9, np.sqrt(3.0))
    with pytest.raises(HypothesisViolated):
        predicted_roots(1.0, 2.0, 1.0 + 0.0)  # 2*a2*delta^2 = b2
    with pytest.raises(HypothesisViolated):
        predicted_roots(1.0, 1.0, float("nan"))


def test_classify_collapse_boundaries_are_degenerate():
    # a2*d^2 = b2, then a2*d^2 = -2*b2
    assert predicted_roots(1.0, 1.0, 1.0).count is OrbitCount.DEGENERATE
    assert predicted_roots(1.0, -0.5, 1.0).count is OrbitCount.DEGENERATE


def test_second_family_needs_real_w():
    """Sign conditions on r^2 alone overcount when w^2 < 0.

    At (a2, b2, delta) = (-1, -1.5, 1) both quadrant signs suggest the
    three-root region, but w^2 = (2*a2 - b2)/5 = -0.1, so only the w = 0
    family survives. At (-2, 0, 1) the paired-family r^2 is positive while
    w^2 = -0.8, leaving no real root at all.
    """
    pred = predicted_roots(-1.0, -1.5, 1.0)
    assert pred.count is OrbitCount.ONE
    assert pred.roots[0][1] == 0.0

    pred = predicted_roots(-2.0, 0.0, 1.0)
    assert pred.count is OrbitCount.ZERO


def test_roots_annihilate_g_closed():
    rng = np.random.default_rng(37)
    checked = 0
    while checked < 200:
        a2, b2 = rng.uniform(-2.0, 2.0, 2)
        delta = rng.uniform(0.5, 3.0)
        pred = predicted_roots(a2, b2, delta)
        if pred.count is OrbitCount.DEGENERATE or not pred.roots:
            continue
        scale = max(1.0, abs(a2), abs(b2)) * max(1.0, delta**2)
        for r, w in pred.roots:
            assert r > 0.0
            val = g_closed(r, w, a2, b2, delta)
            assert np.max(np.abs(val)) < 1e-12 * max(1.0, r**3) * scale
        checked += 1


def test_jacobian_determinants_match_finite_differences():
    rng = np.random.default_rng(43)
    checked = 0
    while checked < 100:
        a2, b2 = rng.uniform(-2.0, 2.0, 2)
        delta = rng.uniform(0.5, 3.0)
        pred = predicted_roots(a2, b2, delta)
        if pred.count is OrbitCount.DEGENERATE or not pred.roots:
            continue
        for (r, w), det in zip(pred.roots, pred.jac_dets):
            h = 1e-6 * (1.0 + max(abs(r), abs(w)))
            jac = np.empty((2, 2))
            for j, dz in enumerate(([h, 0.0], [0.0, h])):
                hi = g_closed(r + dz[0], w + dz[1], a2, b2, delta)
                lo = g_closed(r - dz[0], w - dz[1], a2, b2, delta)
                jac[:, j] = np.subtract(hi, lo) / (2.0 * h)
            fd_det = np.linalg.det(jac)
            assert abs(fd_det - det) < 1e-6 * max(1.0, abs(det))
        checked += 1


def test_classifier_count_consistency():
    rng = np.random.default_rng(53)
    checked = 0
    while checked < 2000:
        a2, b2 = rng.uniform(-2.0, 2.0, 2)
        delta = rng.uniform(0.5, 3.0)
        d2 = delta**2
        if (abs(3.0 - d2) <= 1e-3 or abs(2.0 * a2 * d2 - b2) <= 1e-3
                or abs(a2 * d2 - b2) <= 1e-3 or abs(a2 * d2 + 2.0 * b2) <= 1e-3):
            continue
        pred = predicted_roots(a2, b2, delta)
        assert COUNT_OF[pred.count] == len(pred.roots)
        # the order sweep_epsilon pairs by: a w = 0 root first, and each
        # root with w < 0 directly after its mirror
        assert all(w != 0.0 for _, w in pred.roots[1:])
        for i, (r, w) in enumerate(pred.roots):
            if w < 0.0:
                assert i > 0 and pred.roots[i - 1] == (r, -w)
        checked += 1


def test_g_jacobian_determinant_is_the_published_one():
    """det of the analytic Dg at each predicted root is its jac_det."""
    rng = np.random.default_rng(47)
    checked = 0
    while checked < 100:
        a2, b2 = rng.uniform(-2.0, 2.0, 2)
        delta = rng.uniform(0.5, 3.0)
        pred = predicted_roots(a2, b2, delta)
        if pred.count is OrbitCount.DEGENERATE or not pred.roots:
            continue
        for (r, w), det in zip(pred.roots, pred.jac_dets):
            got = np.linalg.det(g_jacobian(r, w, a2, b2, delta))
            assert abs(got - det) < 1e-12 * max(1.0, abs(det))
        checked += 1


def exact_root_dets(a2, b2, delta):
    """det Dg at each real root of g_closed, in predicted_roots' order,
    in exact rational arithmetic. Dg's diagonal depends on a root (r, w)
    through r^2 and w^2, and its off-diagonal product through r^2 w^2, so
    the determinant is rational in the rational r^2 and w^2 of each
    family."""
    a2, b2, delta = map(Fraction, (a2, b2, delta))
    d2 = delta * delta
    pref = 1 / (2 * d2 * d2 * delta)
    families = []
    r1sq = 4 * (a2 * d2 - b2) * d2 / (3 - d2)
    if r1sq > 0:
        families.append((r1sq, Fraction(0)))
    r2sq = -4 * (a2 * d2 + 2 * b2) * d2 / (5 * (3 - d2))
    w2sq = (2 * a2 * d2 - b2) / 5
    if r2sq > 0 and w2sq > 0:
        families += [(r2sq, w2sq)] * 2
    dets = []
    for rr, ww in families:
        j00 = pref * (3 * (3 - d2) * rr + 4 * b2 * d2 - 4 * a2 * d2 * d2
                      + 12 * d2 * ww) / 4
        j11 = -pref * ((3 - d2) * rr + 2 * b2 * d2 + 6 * d2 * ww)
        # -j01 j10 = pref^2 (6 d2 r w) (2 (3 - d2) r w)
        dets.append(j00 * j11 + pref * pref * 12 * d2 * (3 - d2) * rr * ww)
    return dets


@pytest.mark.parametrize("k", [10, 20, 30])
@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_jac_dets_stay_exact_at_the_pitchfork_boundary(k, side):
    """At (a2, b2, delta) = (1, 8 -+ 2^-k, 2), 2^-k from the boundary
    2 a2 delta^2 = b2, each jac_det of predicted_roots lies within one ulp
    of the exact determinant of Dg at its root: three roots below the
    boundary, one above. That is why the dets are written by hand: the
    determinant of g_jacobian's entries at the pair cancels, and misses
    the exact one by 9.0e-14, 3.7e-10 and 5.7e-7 relative at k = 10, 20
    and 30."""
    b2 = 8.0 + side * 2.0 ** -k
    pred = predicted_roots(1.0, b2, 2.0)
    exact = exact_root_dets(1.0, b2, 2.0)
    assert len(pred.jac_dets) == len(exact) == (3 if side < 0 else 1)
    for det, want in zip(pred.jac_dets, exact):
        assert abs(Fraction(det) - want) <= math.ulp(float(want))


#: the showcase direction without and with first-order c1
SHOWCASE = UnfoldingParams(a2=1.0, b2=5.0, delta=2.0)
WITH_C1 = UnfoldingParams(a2=1.0, b2=5.0, c1=0.5, c2=-0.3, delta=2.0)


def test_theta_rhs_has_no_third_order_term_without_c1():
    """At c1 = 0, F1 = F3 = 0: F1 vanishes, and theta_rhs - eps^2 F2
    shrinks like eps^4, 16 times per halving of eps, where with c1 it
    shrinks like eps^3, 8 times; higher_averages gives f3 = 0 and
    Df3 = 0 exactly."""
    rng = np.random.default_rng(59)
    samples = [(rng.uniform(0.5, 3.0), rng.uniform(0.0, 2.0 * np.pi),
                rng.uniform(-1.5, 1.5)) for _ in range(12)]
    ratios = {}
    for u in (UnfoldingParams(a2=1.0, b2=5.0, c2=-0.3, delta=2.0), WITH_C1):
        sys = pointwise(jerk_standard_form(u))
        worst = []
        for eps in (4e-3, 2e-3):
            remainder = 0.0
            for r, theta, w in samples:
                z = np.array([r, w])
                if u.c1 == 0.0:
                    assert np.array_equal(sys.f1(z, theta), [0.0, 0.0])
                rest = (theta_rhs((r, theta, w), u, eps)
                        - eps * sys.f1(z, theta)
                        - eps * eps * sys.f2(z, theta))
                remainder = max(remainder, float(np.max(np.abs(rest))))
            worst.append(remainder)
        ratios[u.c1] = worst[0] / worst[1]
    assert ratios[0.0] > 14.0 and 7.0 < ratios[0.5] < 9.0, ratios
    without = UnfoldingParams(a2=1.0, b2=5.0, c2=-0.3, delta=2.0)
    for z in ((3.0, 0.5), (5.0, -0.8), (1.2, 1.5)):
        f3, _, df3, _ = higher_averages(without, *z)
        assert not np.any(f3) and not np.any(df3)


def theta_map_coefficients(u, z):
    """f3 and f4 from the exact theta map, by DOP853 at 1e-13.

    The displacement over one turn from z is eps^2 f2 + eps^3 f3
    + eps^4 f4 + ..., with f2 = 2 pi g_closed; (d / eps^2 - f2) / eps is
    fitted by a cubic in eps at five eps in [0.01, 0.04], and its first
    two coefficients are f3 and f4.
    """
    from scipy.integrate import solve_ivp

    f2 = 2.0 * np.pi * np.asarray(g_closed(z[0], z[1], u.a2, u.b2, u.delta))
    eps_values = np.array([0.04, 0.03, 0.02, 0.015, 0.01])
    scaled = []
    for eps in eps_values:
        sol = solve_ivp(lambda th, y: theta_rhs((y[0], th, y[1]), u, eps),
                        (0.0, 2.0 * np.pi), z, method="DOP853",
                        rtol=1e-13, atol=1e-13)
        scaled.append(((sol.y[:, -1] - z) / eps ** 2 - f2) / eps)
    fit = np.linalg.lstsq(np.vander(eps_values, 4, increasing=True),
                          np.array(scaled), rcond=None)[0]
    return fit[0], fit[1]


@pytest.mark.parametrize("u", [SHOWCASE, WITH_C1])
def test_higher_averages_match_the_theta_map(u):
    """f3 and f4 agree with the coefficients of the exact theta map. The
    fit's own error, from its truncation and the 1e-13 tolerance divided
    by eps^3 and eps^4, is at most 5e-6 on f3 and 1e-3 on f4 (with c1, at
    z = (5, -0.8), where |f3| is 2.6 and |f4| 15); the bounds are 1e-5 and
    1e-3 relative to max(1, |f|)."""
    for z in (np.array([3.0, 0.5]), np.array([5.0, -0.8])):
        for got, fit, bound in zip(higher_averages(u, *z.tolist()),
                                   theta_map_coefficients(u, z),
                                   (1e-5, 1e-3)):
            got = np.array(got)
            scale = max(1.0, np.max(np.abs(got)))
            assert np.max(np.abs(got - fit)) < bound * scale


def test_df3_and_d2f2_are_the_derivatives_of_f3_and_f2():
    """Df3 and D^2f2, from one higher_averages call at each of three
    points, against central differences at c1 != 0: a five-point one of
    its f3, a cubic in (r, w), and a two-point one of 2 pi g_jacobian, a
    quadratic; both are exact up to round-off, at most 3.5e-14 relative
    here."""
    h = 1e-2
    for z in np.array([[3.0, 0.5], [5.0, -0.8], [1.2, 1.5]]):
        _, _, df3, d2f2 = map(np.array, higher_averages(WITH_C1, *z.tolist()))
        assert df3.shape == (2, 2) and d2f2.shape == (2, 2, 2)
        for j in range(2):
            step = h * np.eye(2)[j]
            f = [np.array(higher_averages(WITH_C1,
                                          *(z + k * step).tolist())[0])
                 for k in (-2, -1, 1, 2)]
            stencil = (f[0] - 8.0 * f[1] + 8.0 * f[2] - f[3]) / (12.0 * h)
            scale = np.max(np.abs(df3))
            assert np.max(np.abs(stencil - df3[:, j])) < 1e-12 * scale
            jac = [2.0 * np.pi * np.asarray(g_jacobian(
                       *(z + k * step), WITH_C1.a2, WITH_C1.b2, WITH_C1.delta))
                   for k in (-1, 1)]
            central = (jac[1] - jac[0]) / (2.0 * h)
            scale = np.max(np.abs(d2f2))
            assert np.max(np.abs(central - d2f2[:, :, j])) < 1e-12 * scale


def same_bits(got, want):
    return all(a.shape == b.shape and a.tobytes() == b.tobytes()
               for a, b in zip(got, want, strict=True))


def test_float_averages_keep_numpy_bits_and_corrections_its_accuracy():
    """higher_averages, evaluated in Python floats, gives the numpy
    float64 forms' bits: f3, f4, Df3 and D^2f2 at the predicted roots and
    at eight drawn points, on the showcase and on 200 drawn directions
    with c1 and c2 nonzero. root_corrections, a 2 x 2 elimination in
    floats, gives every root's (z1, z2) within 32 cond(Dg) eps of
    numpy_root_corrections, relative, and their bits at every w = 0 root
    with c1 = 0, the case of every benchmark direction, where Dg is
    diagonal: on the showcase and on each drawn direction with c1 set
    to 0. On directions so far out that Dg and the averages overflow,
    the corrections are not finite, and no warning escapes."""
    rng = np.random.default_rng(44)
    directions = [SHOWCASE, WITH_C1]
    while len(directions) < 202:
        a2, b2, c1, c2 = rng.uniform(-3.0, 3.0, 4)
        u = UnfoldingParams(a2=a2, b2=b2, c1=c1 / 6.0, c2=c2 / 6.0,
                            delta=rng.uniform(0.5, 3.0))
        roots = predicted_roots(u.a2, u.b2, u.delta).roots
        if roots and u.c1 != 0.0 and u.c2 != 0.0:
            directions.append(u)
    eps = np.finfo(float).eps
    w0_roots = 0
    for u in directions:
        roots = predicted_roots(u.a2, u.b2, u.delta).roots
        points = [np.array(roots).T]
        points += [rng.uniform(-3.0, 3.0, shape)
                   for shape in ((2,), (2, 3), (2, 2, 2))]
        for z in points:
            want = numpy_higher_averages(u, z)
            for k in np.ndindex(z.shape[1:]):
                got = higher_averages(u, *z[(slice(None), *k)].tolist())
                assert same_bits(map(np.array, got),
                                 [v[(..., *k)] for v in want])
        for root, got, want in zip(roots, (root_corrections(u, *root)
                                           for root in roots),
                                   numpy_root_corrections(u, roots),
                                   strict=True):
            cond = np.linalg.cond(g_jacobian(*root, u.a2, u.b2, u.delta))
            for z_got, z_want in zip(got, want, strict=True):
                assert (np.linalg.norm(np.subtract(z_got, z_want))
                        <= 32.0 * cond * eps * np.linalg.norm(z_want))
        flat = replace(u, c1=0.0)
        for root, want in zip(roots, numpy_root_corrections(flat, roots)):
            if root[1] == 0.0:
                w0_roots += 1
                got = root_corrections(flat, *root)
                assert same_bits(map(np.array, got), want)
    assert w0_roots > 100
    for far in (UnfoldingParams(a2=1e300, b2=5.0, delta=2.0),
                UnfoldingParams(a2=1e300, b2=-1e300, delta=1e10),
                UnfoldingParams(a2=-1.0, b2=-1e6, delta=1e-50, c1=-1e300,
                                c2=-0.3)):
        roots = predicted_roots(far.a2, far.b2, far.delta).roots
        got = root_corrections(far, *roots[0])
        assert not all(np.isfinite(np.concatenate(got)))
