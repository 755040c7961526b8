"""Seeded workload generator and the benchmark's own closed-form oracle.

A workload is a list of operations. Each operation is one config file for
one CLI command (plus, on average-grid, one find_roots call on the numeric
second averaged function). The same (workload, seed) always yields the same
operations, byte for byte; the program under test only ever sees the
generated config files.

The root formulas and averaged functions below are written out again here,
from the published closed forms, so that a change to averager.closed_form
cannot move the oracle the benchmark checks against.
"""

from __future__ import annotations

import math
import random

#: the three-orbit showcase direction (a2, b2, delta), always in orbits-cold
SHOWCASE = (1.0, 5.0, 2.0)

#: perturbation strength for orbits-cold (the acceptance-suite value)
ORBITS_EPS = 0.1

#: decreasing eps list for eps-sweep (the first three values of the
#: acceptance-suite sweep; shorter commands give more samples per run)
SWEEP_EPS = [0.1, 0.05, 0.025]

#: evaluation box of the average command and of the find_roots call
GRID_R = (0.5, 8.0)
GRID_W = (-2.0, 2.0)
GRID_N = 20
FIND_ROOTS_GRID = 16

#: base unfolding directions (a2, b2, delta) of one pass, per workload, in
#: the order they run. They were drawn once, with the margins below, and
#: are fixed; the seed jitters each of them (see
#: JITTER). A run's cost therefore hardly depends on its seed, and runs of
#: different seeds compare. The shooting workloads keep commands of equal
#: cost together, so that the median and the tail of the command times
#: fall inside one cluster of samples and not at its edge: orbits-cold
#: runs, besides the showcase, one 1-orbit direction and five 2-orbit
#: directions whose commands each take about 35k right-hand-side
#: evaluations;
#: eps-sweep runs three 1-orbit directions and one 2-orbit direction. An
#: average command costs the same whatever the direction, so average-grid
#: holds two or three directions of each orbit count 0 to 3.
BASES = {
    "orbits-cold": [
        (-0.7193, -2.7382, 2.3281),
        (0.5776, 2.1019, 2.2395),
        (0.9016, -0.3270, 2.2653),
        (0.6594, 0.7337, 2.3045),
        (1.8046, -1.8468, 1.8949),
        (1.5543, 0.9341, 2.1864),
    ],
    "eps-sweep": [
        (-0.9591, -2.6053, 1.9233),
        (2.5125, 1.7489, 1.3641),
        (1.7245, -0.1227, 1.3294),
        (0.7871, 1.5272, 2.2192),
    ],
    "average-grid": [
        (-1.0447, -1.1085, 1.6091),
        (0.0624, -1.5801, 1.9986),
        (-0.2811, 1.9635, 2.1110),
        (-1.0408, -1.1476, 2.3395),
        (1.6924, 0.1387, 2.0129),
        (1.3749, 1.1865, 2.2304),
        (0.8178, 2.7230, 2.5378),
        (0.4949, -2.4112, 1.4750),
        (0.4572, -2.0926, 1.4793),
    ],
}

#: relative jitter the seed applies to each of a2, b2 and delta of a base
#: direction; a jittered direction keeps its orbit count and margins
JITTER = 0.01

#: seconds one pass takes, host speed probes included, on the reference
#: machine (2 vCPU Xeon, Python 3.11, numpy 2.4, scipy 1.17) at its usual
#: speed. A run makes as many whole passes as fit in its seconds, so the
#: number of
#: samples, and with it the tail percentile, is the same in every run and
#: on both sides of a comparison.
PASS_SECONDS = {"orbits-cold": 6.0, "eps-sweep": 5.4, "average-grid": 7.0}

WORKLOADS = tuple(BASES)

# Margins every direction keeps from the four degeneracy boundaries and
# from delta^2 = 3 (the bases were drawn from delta in [0.8, 2.6] and a2, b2
# in [-3, 3]). Roots stay inside the find_roots box with room to spare. The
# radius band bounds the orbit amplitude eps * r by 0.65 at eps = 0.1.
# Draws of the first-order coefficients of average-grid come from
# FIRST_ORDER_RANGE.
DELTA_SQ_MARGIN = 0.4
BOUNDARY_MARGIN = 0.5
ROOT_R = (2.5, 6.5)
ROOT_W = 1.8
FIRST_ORDER_RANGE = (-2.0, 2.0)


def closed_roots(a2: float, b2: float, delta: float):
    """Positive-radius zeros (r, w) of g and their Jacobian determinants.

    w = 0 family: r^2 = 4(a2 d^2 - b2) d^2 / (3 - d^2).
    Paired family: r^2 = -4(a2 d^2 + 2 b2) d^2 / (5 (3 - d^2)),
    w^2 = (2 a2 d^2 - b2) / 5, both signs of w.
    """
    d2 = delta * delta
    roots, dets = [], []
    r1sq = 4.0 * (a2 * d2 - b2) * d2 / (3.0 - d2)
    if r1sq > 0.0:
        roots.append((math.sqrt(r1sq), 0.0))
        dets.append(-(a2 * d2 - b2) * (2.0 * a2 * d2 - b2) / d2 ** 3)
    r2sq = -4.0 * (a2 * d2 + 2.0 * b2) * d2 / (5.0 * (3.0 - d2))
    w2sq = (2.0 * a2 * d2 - b2) / 5.0
    if r2sq > 0.0 and w2sq > 0.0:
        r2, w2 = math.sqrt(r2sq), math.sqrt(w2sq)
        det2 = -2.0 * (a2 * d2 + 2.0 * b2) * (2.0 * a2 * d2 - b2) / (5.0 * d2 ** 3)
        roots += [(r2, w2), (r2, -w2)]
        dets += [det2, det2]
    return roots, dets


def f_oracle(r, w, a1, b1, delta):
    """First averaged function (r (b1 - a1 d^2) / (2 d^3), -b1 w / d^3)."""
    return (r * (b1 - a1 * delta ** 2) / (2.0 * delta ** 3),
            -b1 * w / delta ** 3)


def g_oracle(r, w, a2, b2, delta):
    """Second averaged function on the slice a1 = b1 = 0."""
    d2 = delta ** 2
    pref = 1.0 / (2.0 * delta ** 5)
    g1 = pref * r * ((3.0 - d2) * r * r + 4.0 * b2 * d2 - 4.0 * a2 * d2 * d2
                     + 12.0 * d2 * w * w) / 4.0
    g2 = -pref * w * ((3.0 - d2) * r * r + 2.0 * b2 * d2 + 2.0 * d2 * w * w)
    return g1, g2


def _well_posed(a2, b2, delta):
    d2 = delta * delta
    return (abs(3.0 - d2) >= DELTA_SQ_MARGIN
            and min(abs(2.0 * a2 * d2 - b2), abs(a2 * d2 - b2),
                    abs(a2 * d2 + 2.0 * b2)) >= BOUNDARY_MARGIN)


def _admissible(a2, b2, delta, n_orbits) -> bool:
    if not _well_posed(a2, b2, delta):
        return False
    roots, _ = closed_roots(a2, b2, delta)
    return len(roots) == n_orbits and all(
        ROOT_R[0] <= r <= ROOT_R[1] and abs(w) <= ROOT_W for r, w in roots)


def jitter_direction(rng: random.Random, base):
    """The base direction, each coordinate scaled by 1 +- JITTER at most.

    The jittered direction predicts as many orbits as the base and keeps
    the margins.
    """
    n_orbits = len(closed_roots(*base)[0])
    while True:
        moved = tuple(x * (1.0 + rng.uniform(-JITTER, JITTER)) for x in base)
        if _admissible(*moved, n_orbits):
            return moved


def passes_for(workload: str, seconds: float, trace: bool) -> int:
    """Whole passes in a run; a traced run alternates, so it needs two."""
    return max(2 if trace else 1, int(seconds / PASS_SECONDS[workload]))


def _unfolding(a2, b2, delta, **first_order):
    doc = {"a2": a2, "b2": b2, "delta": delta}
    doc.update(first_order)
    return doc


def make_plan(workload: str, seed: int) -> list[dict]:
    """Operations of one pass of the workload, in the order they run.

    Each operation is {"command", "config", "find_roots", "expect"}; expect
    holds what the benchmark needs to check the outputs.
    """
    if workload not in BASES:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    directions = [jitter_direction(rng, base) for base in BASES[workload]]
    ops = []
    if workload == "orbits-cold":
        for a2, b2, delta in [SHOWCASE] + directions:
            ops.append({
                "command": "orbits",
                "config": {"unfolding": _unfolding(a2, b2, delta),
                           "eps": ORBITS_EPS},
                "find_roots": False,
            })
    elif workload == "eps-sweep":
        for a2, b2, delta in directions:
            ops.append({
                "command": "sweep",
                "config": {"unfolding": _unfolding(a2, b2, delta),
                           "eps_list": list(SWEEP_EPS)},
                "find_roots": False,
            })
    else:
        for a2, b2, delta in directions:
            first = {k: rng.uniform(*FIRST_ORDER_RANGE)
                     for k in ("a1", "b1", "c1", "c2")}
            ops.append({
                "command": "average",
                "config": {"unfolding": _unfolding(a2, b2, delta, **first)},
                "find_roots": bool(closed_roots(a2, b2, delta)[0]),
            })
    for op in ops:
        u = op["config"]["unfolding"]
        roots, dets = closed_roots(u["a2"], u["b2"], u["delta"])
        op["expect"] = {"roots": roots, "jac_dets": dets}
    return ops
