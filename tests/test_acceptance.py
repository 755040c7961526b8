"""Acceptance suite: one test per shipped claim, tolerances pinned.

Each test prints a single PASS line with its runtime when it succeeds, so
a verbose run shows one verdict per criterion.
"""

import json
import time

import numpy as np

from averager.averaging import (QuadratureSpec, average_first, average_second,
                                find_roots)
from averager.cli import main
from averager.closed_form import (OrbitCount, classify, f_closed, g_closed,
                                  predicted_roots)
from averager.jerk import EquilibriumKind, SystemParams, classify_equilibrium
from averager.normal_form import UnfoldingParams, jerk_standard_form
from averager.shooting import IntegratorSpec, sweep_epsilon

QUAD = QuadratureSpec()
COUNT_OF = {OrbitCount.ZERO: 0, OrbitCount.ONE: 1, OrbitCount.TWO: 2,
            OrbitCount.THREE: 3}


def report(criterion: int, started: float, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({time.perf_counter() - started:.2f} s) "
          f"{detail}")


def test_criterion_1_zero_hopf_characterization():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    origin = np.zeros(3)
    draws = [tuple(rng.uniform(-2.0, 2.0, 3)) for _ in range(1000)]
    draws += [(0.0, 0.0, -4.0), (0.0, 0.0, -0.31), (0.0, 0.0, 2.0),
              (0.0, 0.0, 0.0), (1e-12, 0.0, -1.0), (0.0, 1e-12, -1.0)]
    for a, b, c in draws:
        cls = classify_equilibrium(SystemParams(a, b, c), origin)
        expected = abs(a) < 1e-10 and abs(b) < 1e-10 and c < 0.0
        assert (cls.kind is EquilibriumKind.ZERO_HOPF) == expected, (a, b, c)
    cls = classify_equilibrium(SystemParams(0.0, 0.0, -4.0), origin)
    eigs = sorted(cls.eigenvalues, key=lambda lam: lam.imag)
    for got, want in zip(eigs, (-2j, 0.0, 2j)):
        assert abs(got - want) < 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(1, started, f"{len(draws)} parameter draws, eigenvalues to 1e-12")


def test_criterion_2_averaging_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    r_grid = np.linspace(0.5, 8.0, 20)
    w_grid = np.linspace(-2.0, 2.0, 20)
    worst = 0.0
    for _ in range(10):
        delta = rng.uniform(0.5, 3.0)
        while abs(delta - np.sqrt(3.0)) < 0.05:
            delta = rng.uniform(0.5, 3.0)
        a1, b1, a2, b2, c1, c2 = rng.uniform(-2.0, 2.0, 6)
        first = jerk_standard_form(
            UnfoldingParams(a1=a1, b1=b1, a2=a2, b2=b2, c1=c1, c2=c2,
                            delta=delta))
        second = jerk_standard_form(
            UnfoldingParams(a2=a2, b2=b2, c1=c1, c2=c2, delta=delta))
        for r in r_grid:
            for w in w_grid:
                z = np.array([r, w])
                worst = max(worst, float(np.max(np.abs(
                    average_first(first, z, QUAD)
                    - f_closed(r, w, a1, b1, delta)))))
                worst = max(worst, float(np.max(np.abs(
                    average_second(second, z, QUAD)
                    - g_closed(r, w, a2, b2, delta)))))
    assert worst < 1e-9, f"worst oracle deviation {worst:.3e}"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(2, started, f"10 draws, 20x20 grid, worst deviation {worst:.2e}")


def test_criterion_3_root_formulas():
    started = time.perf_counter()
    pred = predicted_roots(1.0, 5.0, 2.0)
    r2, w2 = np.sqrt(224.0 / 5.0), np.sqrt(3.0 / 5.0)
    expected_roots = [(4.0, 0.0), (r2, w2), (r2, -w2)]
    expected_dets = [3.0 / 64.0, -21.0 / 80.0, -21.0 / 80.0]
    assert len(pred.roots) == 3
    for (r, w), (er, ew) in zip(pred.roots, expected_roots):
        assert abs(r - er) <= 1e-12 * abs(er)
        assert abs(w - ew) <= 1e-12 * max(abs(ew), 1.0)
    for det, want in zip(pred.jac_dets, expected_dets):
        assert abs(det - want) <= 1e-12 * abs(want)
    # cross-check against finite-difference Jacobians of the closed form
    for (r, w), det in zip(pred.roots, pred.jac_dets):
        h = 1e-6
        jac = np.empty((2, 2))
        for j, dz in enumerate(([h, 0.0], [0.0, h])):
            hi = g_closed(r + dz[0], w + dz[1], 1.0, 5.0, 2.0)
            lo = g_closed(r - dz[0], w - dz[1], 1.0, 5.0, 2.0)
            jac[:, j] = (hi - lo) / (2.0 * h)
        assert abs(np.linalg.det(jac) - det) < 1e-6
    report(3, started, "roots (4,0), (sqrt(224/5), +-sqrt(3/5)); "
                       "determinants 3/64 and -21/80")


def test_criterion_4_case_table():
    started = time.perf_counter()
    rng = np.random.default_rng(42)
    counts = {label: 0 for label in COUNT_OF}
    done = 0
    while done < 10000:
        a2, b2 = rng.uniform(-2.0, 2.0, 2)
        delta = rng.uniform(0.5, 3.0)
        d2 = delta**2
        if (abs(3.0 - d2) <= 0.05 or abs(2.0 * a2 * d2 - b2) <= 1e-6
                or abs(a2 * d2 - b2) <= 1e-6
                or abs(a2 * d2 + 2.0 * b2) <= 1e-6):
            continue
        label = classify(a2, b2, delta)
        pred = predicted_roots(a2, b2, delta)
        assert COUNT_OF[label] == len(pred.roots), (a2, b2, delta)
        counts[label] += 1
        done += 1
    for label, count in counts.items():
        assert count >= 100, f"case {label.value} only seen {count} times"
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    summary = ", ".join(f"{lab.value}={n}" for lab, n in counts.items())
    report(4, started, f"10000 draws consistent; {summary}")


def test_criterion_5_orbit_reproduction(tmp_path):
    started = time.perf_counter()
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "unfolding": {"a2": 1.0, "b2": 5.0, "delta": 2.0},
        "eps": 0.1,
    }), encoding="utf-8")
    out = tmp_path / "out"
    code = main(["orbits", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert code == 0
    doc = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert doc["located_count"] == 3 and doc["predicted_count"] == 3
    for orbit in doc["orbits"]:
        assert orbit["residual"] < 1e-10
        assert abs(orbit["period"] - np.pi) < 0.05 * np.pi
        r, w = orbit["root"]
        target = 0.1 * np.array([w, r])
        dist = np.linalg.norm(np.array(orbit["section_point"]) - target)
        assert dist < 0.25 * np.linalg.norm(target)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(5, started, "three orbits, residual < 1e-10, periods within "
                       "5% of pi")


def test_criterion_6_emanation():
    started = time.perf_counter()
    u = UnfoldingParams(a2=1.0, b2=5.0, delta=2.0)
    result = sweep_epsilon(u, [0.1, 0.05, 0.025, 0.0125], IntegratorSpec())
    for entry in result.entries:
        assert not entry.failures, entry.failures
    for i in range(len(result.prediction.roots)):
        assert 0.9 <= result.amp_slopes[i] <= 1.1, result.amp_slopes
        assert result.seed_error_slopes[i] > 1.0, result.seed_error_slopes
    assert result.monotone
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    amp = ", ".join(f"{result.amp_slopes[i]:.3f}" for i in range(3))
    report(6, started, f"amplitude slopes [{amp}], all max coordinates "
                       f"shrink monotonically")


def test_criterion_7_first_order_necessity():
    started = time.perf_counter()
    rng = np.random.default_rng(77)
    # with no first order coefficients the numeric mean vanishes outright
    sys = jerk_standard_form(
        UnfoldingParams(a2=1.3, b2=-0.4, c1=0.8, c2=-1.1, delta=1.7))
    for _ in range(25):
        z = np.array([rng.uniform(0.5, 8.0), rng.uniform(-2.0, 2.0)])
        assert np.max(np.abs(average_first(sys, z, QUAD))) < 1e-12
    # with b1 - a1*delta^2 != 0 every zero of f needs r = 0, outside the
    # positive-radius domain
    for a1, b1, delta in ((0.3, 1.1, 2.0), (0.0, 1.0, 1.0), (-0.7, 0.9, 0.8)):
        assert abs(b1 - a1 * delta**2) > 1e-6
        sys = jerk_standard_form(UnfoldingParams(a1=a1, b1=b1, delta=delta))
        fun = lambda z: average_first(sys, z, QUAD)
        roots = find_roots(fun, [(0.1, 10.0), (-3.0, 3.0)], grid=16)
        assert roots == [], [r.z for r in roots]
    report(7, started, "f vanishes when a1 = b1 = 0; no positive-radius "
                       "zero otherwise")


def test_criterion_8_determinism(tmp_path):
    started = time.perf_counter()
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "unfolding": {"a2": 1.0, "b2": 5.0, "delta": 2.0},
        "eps": 0.1,
    }), encoding="utf-8")
    blobs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main(["classify", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 0
        assert main(["orbits", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 0
        files = sorted(p.name for p in out.iterdir())
        blobs.append({name: (out / name).read_bytes() for name in files})
    assert blobs[0] == blobs[1]
    report(8, started, "classify and orbits reruns byte-identical")
