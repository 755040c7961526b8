"""Closed-form averaged functions, root families and the case classifier."""

import numpy as np
import pytest

from averager.closed_form import (
    HypothesisViolated,
    OrbitCount,
    classify,
    f_closed,
    g_closed,
    predicted_roots,
)

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
    with pytest.raises(ValueError):
        predicted_roots(1.0, 1.0, -2.0)


def test_classify_examples():
    assert classify(1.0, 5.0, 2.0) is OrbitCount.THREE
    # both sign ratios positive: only the w = 0 family is real
    assert classify(3.0, 1.0, 1.0) is OrbitCount.ONE
    # first ratio positive, second negative: both families complex
    assert classify(1.0, 3.0, 1.0) is OrbitCount.ZERO


def test_classify_hypothesis_gates():
    with pytest.raises(HypothesisViolated):
        classify(0.7, -0.9, np.sqrt(3.0))
    with pytest.raises(HypothesisViolated):
        classify(1.0, 2.0, 1.0 + 0.0)  # 2*a2*delta^2 = b2
    with pytest.raises(HypothesisViolated):
        classify(1.0, 1.0, float("nan"))


def test_classify_collapse_boundaries_are_degenerate():
    assert classify(1.0, 1.0, 1.0) is OrbitCount.DEGENERATE  # a2*d^2 = b2
    assert classify(1.0, -0.5, 1.0) is OrbitCount.DEGENERATE  # a2*d^2 = -2*b2


def test_second_family_needs_real_w():
    """Sign conditions on r^2 alone overcount when w^2 < 0.

    At (a2, b2, delta) = (-1, -1.5, 1) both quadrant signs suggest the
    three-root region, but w^2 = (2*a2 - b2)/5 = -0.1, so only the w = 0
    family survives. At (-2, 0, 1) the paired-family r^2 is positive while
    w^2 = -0.8, leaving no real root at all.
    """
    pred = predicted_roots(-1.0, -1.5, 1.0)
    assert pred.count is OrbitCount.ONE
    assert classify(-1.0, -1.5, 1.0) is OrbitCount.ONE
    assert pred.roots[0][1] == 0.0

    pred = predicted_roots(-2.0, 0.0, 1.0)
    assert pred.count is OrbitCount.ZERO
    assert classify(-2.0, 0.0, 1.0) is OrbitCount.ZERO


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
                jac[:, j] = (hi - lo) / (2.0 * h)
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
        label = classify(a2, b2, delta)
        pred = predicted_roots(a2, b2, delta)
        assert COUNT_OF[label] == len(pred.roots)
        checked += 1
