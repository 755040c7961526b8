"""Full-system confirmation: return map and its flow, shooting, sweep."""

import math
import re
from dataclasses import replace
from itertools import accumulate
from operator import mul

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from averager import config, shooting
from averager.cli import _jsonable
from averager.closed_form import root_corrections
from averager.jerk import (DegeneratePrediction, HypothesisViolated,
                           OrbitCount, SystemParams, UnfoldingParams,
                           equilibria, predicted_roots, unfold, vector_field)
from averager.shooting import (
    IntegratorSpec,
    SeedInvalid,
    ShootingDiverged,
    StepLimitExceeded,
    StepUnderflow,
    half_return,
    poincare_return,
    shoot_orbit,
    sweep_epsilon,
)
from reference import jacobian_at

THREE_ORBIT = UnfoldingParams(a2=1.0, b2=5.0, delta=2.0)
EPS = 0.1
SPEC = IntegratorSpec()


@pytest.fixture(scope="module")
def records():
    pred = predicted_roots(THREE_ORBIT.a2, THREE_ORBIT.b2, THREE_ORBIT.delta)
    return [shoot_orbit(THREE_ORBIT, EPS, root, SPEC) for root in pred.roots]


def dop853_states(p, s0, t, atol=1e-13):
    """(len(t), 3) states of the jerk flow from s0, by DOP853 at rtol
    1e-13 and atol."""
    from scipy.integrate import solve_ivp

    sol = solve_ivp(lambda _, s: vector_field(p, s), (0.0, t[-1]),
                    np.asarray(s0, dtype=float), method="DOP853", t_eval=t,
                    rtol=1e-13, atol=atol)
    return sol.y.T


def variational_rhs(p):
    """The flow and Phi' = J Phi on (x, y, z, Phi row-major), for DOP853."""
    def rhs(t, s):
        phi = jacobian_at(p, s[:3]) @ s[3:].reshape(3, 3)
        return np.concatenate([vector_field(p, s[:3]), phi.ravel()])

    return rhs


def dop853_return(p, q, t_end):
    """(return point, flight time, dP/dq, mirror) by DOP853.

    Integrates the flow and Phi' = J Phi from (q, 0) at tolerances 1e-13
    and takes the first downward z = 0 crossing with y > 0 after a third
    of t_end, which skips the start on the section. The mirror is (m,
    dM/dq) at the first upward z = 0 crossing m with y < 0 before it, or
    None; dM/dq, as dP/dq, is Phi projected along the field at its
    crossing.
    """
    from scipy.integrate import solve_ivp

    def down(t, s):
        return s[2]

    def up(t, s):
        return s[2]

    down.direction, up.direction = -1.0, 1.0
    s0 = np.concatenate([(q[0], q[1], 0.0), np.eye(3).ravel()])
    sol = solve_ivp(variational_rhs(p), (0.0, t_end), s0, method="DOP853",
                    events=(down, up), rtol=1e-13, atol=1e-13)

    def projected(s):
        f = vector_field(p, s[:3])
        phi = s[3:].reshape(3, 3)
        return (phi - np.outer(f, phi[2]) / f[2])[:2, :2]

    t, s = next((t, s) for t, s in zip(sol.t_events[0], sol.y_events[0])
                if t > t_end / 3.0 and s[1] > 0.0)
    mirror = next(((m[:2], projected(m))
                   for tm, m in zip(sol.t_events[1], sol.y_events[1])
                   if tm < t and m[1] < 0.0), None)
    return s[:2], t, projected(s), mirror


@pytest.mark.parametrize("unfolding, eps, q", [
    (THREE_ORBIT, EPS, (0.0, 0.4)),
    (THREE_ORBIT, EPS, (0.05, 0.35)),
    (THREE_ORBIT, EPS, (-0.08, 0.3)),
    (THREE_ORBIT, EPS, (0.12, 0.5)),
    (THREE_ORBIT, EPS, (0.0, 0.01)),
    (UnfoldingParams(a2=3.0, b2=1.0, delta=1.0), 0.05, (0.02, 0.12)),
    # the first downward crossing has y < 0 and is not a return
    (UnfoldingParams(a2=3.0, b2=1.0, delta=1.0), 0.05, (1.1, 0.377)),
])
def test_return_map_matches_dop853(unfolding, eps, q):
    """Return point, flight time, dP/dq, and the mirror crossing m with the
    first half's dT/dq = -dM/dq, of the Taylor integrator at the default
    budget agree with a DOP853 pass at 1e-13 on a fixed grid."""
    check_against_dop853(unfold(unfolding, eps), q, unfolding.delta)


def check_against_dop853(p, q, delta):
    ret = poincare_return(p, q, SPEC)
    ref_point, ref_flight, ref_jac, ref_mirror = dop853_return(
        p, q, 3.0 * np.pi / delta)
    assert np.max(np.abs(ret.point - ref_point)) < 1e-11
    assert abs(ret.flight - ref_flight) < 1e-10
    assert np.max(np.abs(ret.jac - ref_jac)) < 1e-10
    # every return crosses the mirrored section on the way, T(q) = -m
    assert ref_mirror is not None
    ref_m, ref_half_jac = ref_mirror
    assert np.max(np.abs(-ret.first.point - ref_m)) < 1e-11
    assert np.max(np.abs(-ret.first.jac - ref_half_jac)) < 1e-10


def check_odd_symmetry(p, q):
    """The field is odd, so the flow from -q is the reflected flow from q.
    The return from q is its two half returns composed by name, bit for
    bit: the one from q and the one from its point -m, whose dT/dq are
    -dM/dq, so that dP/dq = (-J2)(-J1) = J2 J1 is Phi projected along the
    field at the final crossing. Started on the mirrored section, the half
    return from -q first crosses it upward again at -P(q), after the
    whole flight of the return from q, whose flow, reflected, it follows
    on the way; and the return from -m, the reflected mirror crossing,
    crosses the mirrored section at -P(q)."""
    ret = poincare_return(p, q, SPEC)
    first = half_return(p, q, SPEC)
    second = half_return(p, first.point, SPEC)
    assert np.array_equal(ret.first.start, q)
    assert np.array_equal(ret.second.start, ret.first.point)
    assert np.array_equal(first.point, ret.first.point)
    assert np.array_equal(ret.point, second.point)
    assert ret.flight == first.flight + second.flight
    assert np.array_equal(ret.phi, ret.second.phi @ ret.first.phi)
    assert np.array_equal(ret.phi, second.phi @ first.phi)
    assert np.array_equal(ret.jac, ret.second.jac @ ret.first.jac)
    assert np.array_equal(ret.jac, (-second.jac) @ (-first.jac))
    assert ret.residual == float(np.linalg.norm(ret.point - q))
    f = vector_field(p, [*ret.point, 0.0])
    projected = (ret.phi - np.outer(f, ret.phi[2]) / f[2])[:2, :2]
    assert np.max(np.abs(ret.jac - projected)) < 1e-12
    from_minus_q = half_return(p, -q, SPEC)
    assert np.max(np.abs(ret.point - from_minus_q.point)) < 1e-9
    assert abs(from_minus_q.flight - ret.flight) < 1e-9
    t = np.linspace(0.0, min(ret.flight, from_minus_q.flight), 17)
    assert np.max(np.abs(from_minus_q.flow(t) + ret.flow(t))) < 1e-9
    assert np.max(np.abs(poincare_return(p, ret.first.point, SPEC).first.point
                         - ret.point)) < 1e-9


@settings(max_examples=20)
@given(x=st.floats(-0.15, 0.15), y=st.floats(0.05, 0.6))
def test_return_map_on_drawn_showcase_points(x, y):
    """On section points drawn from the showcase box, the return agrees
    with DOP853 at the bounds above, its mirror crossing included, and
    obeys the odd symmetry of the field."""
    p = unfold(THREE_ORBIT, EPS)
    check_against_dop853(p, (x, y), THREE_ORBIT.delta)
    check_odd_symmetry(p, np.array([x, y]))


def four_product_series(p, s, order):
    """The (3, order + 1) Taylor coefficients of the state at s and the
    (2, order) series of row 2 of J, by the recurrence that takes the four
    Cauchy products x^2, xy, y^2 and x (y^2 - x^2) at every order."""
    x, y, z = [s[0]], [s[1]], [s[2]]
    quad, jac_x, jac_y = [], [], []
    for k in range(order):
        xx = sum(x[j] * x[k - j] for j in range(k + 1))
        xy = sum(x[j] * y[k - j] for j in range(k + 1))
        yy = sum(y[j] * y[k - j] for j in range(k + 1))
        quad.append(yy - xx)
        jac_x.append(yy - 3.0 * xx - (p.b if k == 0 else 0.0))
        jac_y.append(2.0 * xy + (p.c if k == 0 else 0.0))
        z.append((p.c * y[k] - p.b * x[k] - p.a * z[k]
                  + sum(x[j] * quad[k - j] for j in range(k + 1))) / (k + 1))
        x.append(y[k] / (k + 1))
        y.append(z[k] / (k + 1))
    return np.array([x, y, z]), np.array([jac_x, jac_y])


def relative_gap(series, reference):
    """Largest gap between two series, each order against the magnitude of
    the reference at that order; series is read in the reference's shape,
    as the kernel gives the two J series in one list."""
    series = np.reshape(series, np.shape(reference))
    scale = np.maximum(np.max(np.abs(reference), axis=0),
                       np.finfo(float).tiny)
    return float(np.max(np.abs(series - reference) / scale))


#: every order the tol range gives, from MAX_TOL down to MIN_TOL
ORDERS = range(math.ceil(1.0 - 0.5 * math.log(config.MAX_TOL)),
               math.ceil(1.0 - 0.5 * math.log(config.MIN_TOL)) + 1)


coordinate = st.floats(-1.5, 1.5)


@settings(max_examples=20)
@given(states=st.lists(st.tuples(coordinate, coordinate, coordinate),
                       min_size=1, max_size=4),
       a=st.floats(-1.0, 1.0), b=st.floats(-8.0, 8.0),
       c=st.floats(-8.0, 8.0))
def test_two_product_recurrence_matches_the_four_product_one(states, a, b, c):
    """At every order the tol range allows, the state series of the two
    products per order, and the Jacobian series the kernel builds from
    x^2, match the four-product recurrence to 1e-13."""
    assert (ORDERS[0], ORDERS[-1]) == (8, 17)
    p = SystemParams(a, b, c)
    for order in ORDERS:
        kernel = shooting._taylor_kernel(order)
        for s in states:
            x, y, z, jac = kernel(a, b, c, list(s))
            ref_state, ref_jac = four_product_series(p, s, order)
            assert relative_gap(np.array([x, y, z]), ref_state) < 1e-13
            assert relative_gap(np.array(jac), ref_jac) < 1e-13


def left_to_right_series(p, s, order):
    """The state series of the two-product recurrence and the two rows of
    J's varying entries built from x^2, each Cauchy product accumulated
    left to right from 0.0: the summation order the generated kernel
    promises on every Python release. sum() is not the reference, since
    from Python 3.12 it compensates float sums."""
    def cauchy(u, v):
        acc = 0.0
        for a, b in zip(u, reversed(v)):
            acc += a * b
        return acc

    x, y, z = [s[0]], [s[1]], [s[2]]
    minus, plus, quad = [], [], []
    for k in range(order):
        minus.append(y[k] - x[k])
        plus.append(y[k] + x[k])
        quad.append(cauchy(minus, plus))
        inv = 1.0 / (k + 1)
        z.append((p.c * y[k] - p.b * x[k] - p.a * z[k] + cauchy(x, quad))
                 * inv)
        x.append(y[k] * inv)
        y.append(z[k] * inv)
    square = [cauchy(x[:k + 1], x[:k + 1]) for k in range(order + 1)]
    jac_x = [q - 2.0 * sq for q, sq in zip(quad, square)]
    jac_y = [(k + 1.0) * sq for k, sq in enumerate(square[1:])]
    jac_x[0] -= p.b
    jac_y[0] += p.c
    return x, y, z, jac_x, jac_y


def test_taylor_kernel_matches_the_left_to_right_recurrence_bit_for_bit():
    """At every order the tol range allows, the generated kernel gives the
    reference's coefficients, state and J rows, bit for bit (float.hex),
    on states from 1e-8 to 1e3 and on states so far out that the
    coefficients overflow to inf or NaN, the StepUnderflow path of a
    leg."""
    rng = np.random.default_rng(11)
    states = np.concatenate([
        rng.uniform(-1.0, 1.0, (60, 3)) * 10.0 ** rng.uniform(-8, 3, (60, 1)),
        rng.uniform(-1.0, 1.0, (10, 3)) * 10.0 ** rng.uniform(30, 120, (10, 1)),
    ]).tolist()
    params = rng.uniform((-1.0, -8.0, -8.0), (1.0, 8.0, 8.0), (70, 3)).tolist()
    overflowed = 0
    for order in ORDERS:
        kernel = shooting._taylor_kernel(order)
        for s, (a, b, c) in zip(states, params):
            x, y, z, jac = kernel(a, b, c, list(s))
            got = [x, y, z, jac[:order], jac[order:]]
            want = left_to_right_series(SystemParams(a, b, c), s, order)
            assert ([[v.hex() for v in series] for series in got]
                    == [[v.hex() for v in series] for series in want])
            overflowed += not all(map(math.isfinite, got[2]))
    assert overflowed >= len(ORDERS)


@pytest.mark.parametrize("amplitude", [1e-6, 1e-12, 1e-100])
def test_integrate_linearized_rotation(amplitude):
    """Tiny amplitudes follow y(t) = y0 cos(2t) for c = -4 at the default
    tol: each step is sized against the state itself, so the return is as
    accurate at 1e-100 as at 1e-6."""
    p = SystemParams(0.0, 0.0, -4.0)
    ret = poincare_return(p, (0.0, amplitude), SPEC)
    assert abs(ret.flight - np.pi) < 1e-12
    y = ret.flow(np.array([np.pi / 2.0, np.pi]))[:, 1]
    assert abs(y[0] + amplitude) < 1e-12 * amplitude
    assert abs(y[1] - amplitude) < 1e-12 * amplitude


def test_integrate_tolerance_convergence():
    p = SystemParams(0.01, 0.05, -4.0)
    q = (0.05, 0.3)
    t = np.linspace(0.0, 3.0, 31)
    loose = poincare_return(p, q, IntegratorSpec(tol=1e-9))
    tight = poincare_return(p, q, IntegratorSpec(tol=1e-12))
    assert min(loose.flight, tight.flight) > t[-1]
    assert np.max(np.abs(loose.flow(t) - tight.flow(t))) < 1e-7


def test_integrator_budget_errors(monkeypatch):
    """A leg longer than MAX_STEPS, and a finite-time blow-up whose steps
    shrink below double resolution, raise instead of returning."""
    p = unfold(THREE_ORBIT, EPS)
    with monkeypatch.context() as patched:
        patched.setattr(shooting, "MAX_STEPS", 2)
        with pytest.raises(StepLimitExceeded):
            poincare_return(p, (0.0, 0.4), SPEC)
    with pytest.raises(StepUnderflow):
        poincare_return(p, (3.0, 30.0), SPEC)


def test_a_non_finite_phi_is_a_step_underflow(monkeypatch):
    monkeypatch.setattr(shooting, "_leg_transition",
                        lambda *args: np.full((3, 3), np.inf))
    with pytest.raises(StepUnderflow, match="non-finite Phi"):
        poincare_return(unfold(THREE_ORBIT, EPS), (0.05, 0.35), SPEC)


def test_a_leg_from_an_equilibrium_is_a_step_underflow():
    """At (a, b, c) = (0.1, -1, -1) the field vanishes exactly at every
    equilibrium, the origin and (+-1, 0, 0): a leg from one has no Taylor
    coefficient beyond order 0, so its first step is infinite. Next to
    (1, 0, 0), at y = 1e-300, the step is finite but its powers overflow.
    Either way half_return and poincare_return fail at t = 0 with
    StepUnderflow, the field named."""
    p = SystemParams(0.1, -1.0, -1.0)
    starts = [e[:2] for e in equilibria(p)] + [(1.0, 1e-300)]
    assert len(starts) == 4
    assert not any(any(vector_field(p, [*q, 0.0])) for q in starts[:3])
    for q in starts:
        for integrate in (half_return, poincare_return):
            with pytest.raises(StepUnderflow, match=re.escape(
                    "infinite step at t = 0: the field vanishes there")):
                integrate(p, q, SPEC)


#: (1, -1, delta) directions at an eps where the three orbits are
#: located, each half return flying about pi / delta
SMALL_DELTA = [(UnfoldingParams(a2=1.0, b2=-1.0, delta=0.003), 2e-5),
               (UnfoldingParams(a2=1.0, b2=-1.0, delta=0.01), 2e-4),
               (UnfoldingParams(a2=1.0, b2=-1.0, delta=0.02), 5e-4),
               (UnfoldingParams(a2=1.0, b2=-1.0, delta=0.1), 1e-2)]


@pytest.mark.parametrize("u, eps", SMALL_DELTA[1:3])
def test_orbits_below_delta_pi_over_100_close_under_dop853(u, eps):
    """A half return flies about pi / delta, beyond t = 100 here, and a
    leg is bounded by its step count alone, so all three orbits are
    located. Each closes under DOP853, from its section point over its
    period, to 1e-7 of its size, and its period lies within 1e-3 of
    2 pi / delta, relative."""
    entry = sweep_epsilon(u, [eps], SPEC).entries[0]
    assert not entry.failures and len(entry.records) == 3
    p = unfold(u, eps)
    for rec in entry.records.values():
        size = np.max(np.abs(rec.trace[1]))
        start = np.array([*rec.section_point, 0.0])
        end = dop853_states(p, start, [0.0, rec.period], 1e-13 * size)[-1]
        assert np.max(np.abs(end - start)) < 1e-7 * size
        assert abs(rec.period * u.delta / (2.0 * np.pi) - 1.0) < 1e-3


@pytest.mark.parametrize("u, eps", SMALL_DELTA + [(THREE_ORBIT, EPS)])
def test_every_accepted_half_return_is_a_short_leg(u, eps):
    """MAX_STEPS is a leg's one bound because the steps are relative to
    the state: from delta = 0.003 to the showcase, each half of every
    accepted return holds at most 27 steps, the longest completed leg
    that MAX_STEPS' comment cites, whatever its flight."""
    p = unfold(u, eps)
    entry = sweep_epsilon(u, [eps], SPEC).entries[0]
    assert len(entry.records) == 3
    for rec in entry.records.values():
        # the first half of the accepted return is the leg from its start
        first = half_return(p, rec.section_point, SPEC)
        assert len(first.lengths) <= 27
        assert len(rec.mirror_leg.lengths) <= 27


@pytest.mark.parametrize("tol", [config.MIN_TOL, 1e-11, config.MAX_TOL])
def test_no_step_holds_two_sign_changes_of_z(tol, monkeypatch):
    """half_return reads a crossing off the signs of z at a step's two
    ends, which needs every step to hold at most one sign change of z. On
    every leg that shooting integrates, Newton iterates included, for the
    showcase, (3, 1, 1) and (0.25, -1.5, 1.3) with c2 = 0.4 at eps 0.1 and
    1e-12, z sampled densely over each step changes sign at most once, and
    each step is shorter than pi / sqrt(-c), the spacing of the zeros of z
    in the linear flow. A leg that starts on an equilibrium off the
    origin, within 1e-6 of its size, is skipped: its z is round-off."""
    legs = []

    def spy(p, q, spec):
        legs.append((p, half_return(p, q, spec)))
        return legs[-1][1]

    monkeypatch.setattr(shooting, "half_return", spy)
    fractions = np.linspace(0.0, 1.0, 257)
    for u in (THREE_ORBIT, UnfoldingParams(a2=3.0, b2=1.0, delta=1.0),
              UnfoldingParams(a2=0.25, b2=-1.5, delta=1.3, c2=0.4)):
        result = sweep_epsilon(u, [0.1, 1e-12], IntegratorSpec(tol))
        assert all(entry.records for entry in result.entries)
    for p, half in legs:
        start = np.array([*half.start, 0.0])
        if any(np.linalg.norm(start - e) <= 1e-6 * np.linalg.norm(e)
               for e in equilibria(p)):
            continue
        for length, (_, _, z) in zip(half.lengths, half.polys):
            assert length < np.pi / np.sqrt(-p.c)
            signs = np.sign(np.polynomial.polynomial.polyval(
                fractions * length, z))
            signs = signs[signs != 0.0]
            assert np.count_nonzero(signs[1:] != signs[:-1]) <= 1


def test_return_flight_time_near_linear_period():
    p = SystemParams(0.0, 0.0, -4.0)
    flight = poincare_return(p, (0.001, 0.001), SPEC).flight
    assert abs(flight - np.pi) < 1e-3


def test_return_flight_time_perturbed():
    p = unfold(THREE_ORBIT, EPS)
    flight = poincare_return(p, (0.2, 0.4), SPEC).flight
    assert abs(flight - np.pi) < 0.02 * np.pi


def test_return_map_equivariance():
    """The field is odd, so the mirrored section gives the mirrored map."""
    check_odd_symmetry(unfold(THREE_ORBIT, EPS), np.array([0.05, 0.35]))


def test_shoot_first_root(records):
    rec = records[0]
    assert rec.residual < 1e-10
    assert abs(rec.period - np.pi) < 0.05 * np.pi
    assert rec.seed == (4.0, 0.0)
    assert rec.section_point[1] > 0.0
    # the section image of the averaged root is eps*(w, r)
    target = EPS * np.array([0.0, 4.0])
    assert np.linalg.norm(rec.section_point - target) < 0.25 * np.linalg.norm(
        target)


def test_shoot_three_distinct_orbits(records):
    assert len(records) == 3
    for i in range(3):
        for j in range(i + 1, 3):
            dist = np.linalg.norm(records[i].section_point
                                  - records[j].section_point)
            assert dist > 1e-3


def test_mirrored_seed_orbits_are_reflections(records):
    """The +w and -w orbits are point reflections of each other.

    The +w orbit's crossing m of the mirrored section, reflected, is the
    -w orbit's section point, and the half return the record keeps, the
    second half of its return, starts there.
    """
    p = unfold(THREE_ORBIT, EPS)
    q_plus = records[1].section_point
    q_minus = records[2].section_point
    ret = poincare_return(p, q_plus, SPEC)
    kept = records[1].mirror_leg
    assert np.array_equal(kept.start, ret.first.point)
    assert np.array_equal(kept.flow(np.array([0.0]))[0],
                          [*ret.first.point, 0.0])
    # the crossing lies on the section
    t_half = half_return(p, q_plus, SPEC).flight
    assert abs(ret.flow(np.array([t_half]))[0, 2]) < 1e-12
    assert np.max(np.abs(ret.first.point - q_minus)) < 1e-8


def test_trivial_floquet_multiplier(records):
    p = unfold(THREE_ORBIT, EPS)
    for rec in records:
        mono = poincare_return(p, rec.section_point, SPEC).phi
        mults = np.linalg.eigvals(mono)
        assert np.min(np.abs(mults - 1.0)) < 1e-6
        assert rec.floquet.shape == (2,)


def test_floquet_matches_independent_monodromy(records):
    """The multipliers agree with a separate DOP853 variational pass.

    The reference integrates Phi' = jacobian_at(p, s) Phi over one period
    from the identity, at tolerances far below the default budget, and
    drops the eigenvalue closest to 1.
    """
    from scipy.integrate import solve_ivp

    p = unfold(THREE_ORBIT, EPS)
    for rec in records:
        s0 = np.concatenate([(rec.section_point[0], rec.section_point[1], 0.0),
                             np.eye(3).ravel()])
        sol = solve_ivp(variational_rhs(p), (0.0, rec.period), s0,
                        method="DOP853", rtol=1e-12, atol=1e-12)
        mults = np.linalg.eigvals(sol.y[3:, -1].reshape(3, 3))
        rest = np.delete(mults, np.argmin(np.abs(mults - 1.0)))
        rest = rest[np.lexsort((rest.imag, rest.real))]
        assert np.max(np.abs(rest - rec.floquet)) < 1e-8


def test_return_jacobian_matches_central_differences(records):
    """dP/dq from the variational pass agrees with central differences."""
    p = unfold(THREE_ORBIT, EPS)
    h = 1e-5
    for rec in records:
        q = rec.section_point + np.array([2e-3, -1e-3])
        jac = poincare_return(p, q, SPEC).jac
        fd = np.empty((2, 2))
        for j in range(2):
            dq = np.zeros(2)
            dq[j] = h
            hi = poincare_return(p, q + dq, SPEC).point
            lo = poincare_return(p, q - dq, SPEC).point
            fd[:, j] = (hi - lo) / (2.0 * h)
        assert np.max(np.abs(jac - fd)) < 1e-7


@pytest.mark.parametrize("eps", [EPS, 0.025])
def test_monodromy_determinant_obeys_liouville(eps):
    """Tr J = -a everywhere, so det Phi = exp(-a * flight) on every return;
    checked on the returns from the three showcase section images."""
    p = unfold(THREE_ORBIT, eps)
    roots = predicted_roots(THREE_ORBIT.a2, THREE_ORBIT.b2,
                            THREE_ORBIT.delta).roots
    for r, w in roots:
        ret = poincare_return(p, (eps * w, eps * r), SPEC)
        assert abs(np.linalg.det(ret.phi) - np.exp(-p.a * ret.flight)) < 1e-11


def test_leg_transition_matches_dop853():
    """Phi of a return, Phi2 Phi1 over its two legs, each the product of
    the batched step transitions, matches one DOP853 variational pass over
    the whole flight: from the three showcase section images and from two
    points off the orbits."""
    from scipy.integrate import solve_ivp

    p = unfold(THREE_ORBIT, EPS)
    roots = predicted_roots(THREE_ORBIT.a2, THREE_ORBIT.b2,
                            THREE_ORBIT.delta).roots
    starts = [(EPS * w, EPS * r) for r, w in roots] + [(0.0, 0.447),
                                                       (0.12, 0.5)]
    for q in starts:
        ret = poincare_return(p, q, SPEC)
        s0 = np.concatenate([(q[0], q[1], 0.0), np.eye(3).ravel()])
        sol = solve_ivp(variational_rhs(p), (0.0, ret.flight), s0,
                        method="DOP853", rtol=1e-13, atol=1e-13)
        assert np.max(np.abs(sol.y[3:, -1].reshape(3, 3) - ret.phi)) < 1e-10


def test_shoot_reports_the_return_at_the_fixed_point(records):
    """Period and residual are those of the return map at the fixed point."""
    p = unfold(THREE_ORBIT, EPS)
    for rec in records:
        ret = poincare_return(p, rec.section_point, SPEC)
        assert rec.period == ret.flight
        assert rec.residual == float(np.linalg.norm(ret.point
                                                    - rec.section_point))


def test_orbit_closes_after_one_period(records):
    p = unfold(THREE_ORBIT, EPS)
    for rec in records:
        s0 = np.array([rec.section_point[0], rec.section_point[1], 0.0])
        end = dop853_states(p, s0, np.array([0.0, rec.period]))[-1]
        assert np.linalg.norm(end - s0) < 1e-9


def test_period_trace_sampling(records):
    t, states = records[0].trace
    assert t.shape == (512,)
    assert states.shape == (512, 3)
    assert t[0] == 0.0
    assert np.isclose(t[-1], records[0].period)
    assert abs(states[0, 2]) < 1e-12


def test_trace_matches_dop853(records):
    """Every sample of every showcase trace lies on the DOP853 flow from
    the orbit's section point."""
    p = unfold(THREE_ORBIT, EPS)
    for rec in records:
        t, states = rec.trace
        oracle = dop853_states(p, [*rec.section_point, 0.0], t)
        assert np.max(np.abs(states - oracle)) < 1e-10


def test_flow_starts_on_the_section_and_joins_its_steps(records,
                                                        monkeypatch):
    """flow(0) is (q, 0) exactly, and at every step start, the start of
    the second leg included, the flow agrees with the end of the step
    before."""
    lengths = []
    leg_transition = shooting._leg_transition

    def recorded(p, step_lengths, jacs):
        lengths.extend(step_lengths)
        return leg_transition(p, step_lengths, jacs)

    monkeypatch.setattr(shooting, "_leg_transition", recorded)
    p = unfold(THREE_ORBIT, EPS)
    for q in [rec.section_point for rec in records] + [(0.05, 0.35)]:
        lengths.clear()
        flow = poincare_return(p, q, SPEC).flow
        assert np.array_equal(flow(np.array([0.0]))[0], [q[0], q[1], 0.0])
        starts = np.array(list(accumulate(lengths[:-1])))
        assert len(starts) > 5
        before = flow(np.nextafter(starts, 0.0))
        assert np.max(np.abs(flow(starts) - before)) < 1e-12


def horner_state(half, t):
    """The state of a half return's leg at time t, step by step in Python
    floats: the step is the last whose start, the running sum of the
    lengths before it, is at or before t, and each coordinate is its
    polynomial at the time since that start by Horner's rule."""
    starts = list(accumulate(half.lengths[:-1], initial=0.0))
    step = max(i for i, start in enumerate(starts) if start <= t)
    tau = t - starts[step]
    state = []
    for coef in half.polys[step]:
        value = coef[-1]
        for c in reversed(coef[:-1]):
            value = value * tau + c
        state.append(value)
    return state


def test_flow_is_one_horner_pass_over_the_stored_steps(records):
    """HalfReturn.flow and Return.flow equal the step-by-step Horner
    evaluation bit for bit: at t = 0, at each step start and one ulp
    before it, at the first half's flight and at the whole flight. The
    second half of a return is its leg's states negated. Each half's
    point and jac are, bit for bit, -state[:2] of its crossing state and
    the projection of phi along the field f there,
    -(phi - outer(f, phi[2]) / f[2])[:2, :2]; the crossing state is the
    last step's series at its length, with z = 0."""
    p = unfold(THREE_ORBIT, EPS)
    for rec in records:
        ret = poincare_return(p, rec.section_point, SPEC)
        first = ret.first.flight
        times = [0.0, first, ret.flight]
        for half, offset in ((ret.first, 0.0), (ret.second, first)):
            tau = half.lengths[-1]
            state = [sum(map(mul, coef, [tau ** k for k in range(len(coef))]))
                     for coef in half.polys[-1]]
            state[2] = 0.0
            f = vector_field(p, state)
            assert half.point.tobytes() == (-np.array(state[:2])).tobytes()
            projected = -(half.phi - np.outer(f, half.phi[2]) / f[2])[:2, :2]
            assert half.jac.tobytes() == projected.tobytes()
            starts = np.array(list(accumulate(half.lengths[:-1])))
            assert len(starts) > 5
            t = np.concatenate([[0.0], starts, np.nextafter(starts, 0.0),
                                [half.flight]])
            expected = [horner_state(half, tk) for tk in t]
            assert half.flow(t).tobytes() == np.array(expected).tobytes()
            times += [*(offset + starts), *np.nextafter(offset + starts, 0.0)]
        t = np.array(times)
        expected = [horner_state(ret.first, tk) if tk < first else
                    [-v for v in horner_state(ret.second, tk - first)]
                    for tk in t]
        assert ret.flow(t).tobytes() == np.array(expected).tobytes()


def test_a_return_of_two_orders_samples_each_half_at_its_own(records):
    """A return whose halves were integrated at two tols, as from a
    partner shot at another one, samples each half at its own order."""
    p = unfold(THREE_ORBIT, EPS)
    first = half_return(p, records[0].section_point, IntegratorSpec(1e-7))
    ret = poincare_return(p, first.start, SPEC, first)
    assert len(first.polys[0][0]) < len(ret.second.polys[0][0])
    t = np.linspace(0.0, ret.flight, 33)
    late = t >= first.flight
    expected = np.where(late[:, None], -ret.second.flow(t - late * first.flight),
                        first.flow(t))
    assert ret.flow(t).tobytes() == expected.tobytes()


def test_shoot_rejects_bad_input():
    with pytest.raises(SeedInvalid):
        shoot_orbit(THREE_ORBIT, EPS, (-1.0, 0.0), SPEC)
    with pytest.raises(ValueError):
        shoot_orbit(THREE_ORBIT, 0.5, (4.0, 0.0), SPEC)


@pytest.mark.parametrize("u", [
    THREE_ORBIT,
    UnfoldingParams(a2=1.0, b2=5.0, c1=0.5, c2=-0.3, delta=2.0),
])
def test_section_image_seed_misses_by_order_eps4(u, monkeypatch):
    """The section-image seed, the image of z0 + eps z1 + eps^2 z2, misses
    the orbit by O(eps^4): on every showcase root, with and without c1,
    the miss falls at least 8 times per halving of eps from 0.1 to 0.025,
    half the 16 of eps^4. The orbit is the located one polished by two
    Newton steps on returns at tol 1e-13."""
    tight = IntegratorSpec(tol=1e-13)
    starts = []

    def first_start(p, q, spec):
        starts.append(np.array(q))
        return half_return(p, q, spec)

    monkeypatch.setattr(shooting, "half_return", first_start)
    for root in predicted_roots(u.a2, u.b2, u.delta).roots:
        misses = []
        for eps in (0.1, 0.05, 0.025):
            starts.clear()
            q = shoot_orbit(u, eps, root, tight).section_point
            seed = starts[0]
            p = unfold(u, eps)
            for _ in range(2):
                ret = poincare_return(p, q, tight)
                q = q + np.linalg.solve(ret.jac - np.eye(2), q - ret.point)
            misses.append(np.linalg.norm(q - seed))
        assert misses[0] > 8.0 * misses[1] > 64.0 * misses[2], (root, misses)


def first_seed(u, eps, seed, monkeypatch):
    """The start of the first leg shoot_orbit integrates, which raises."""
    starts = []

    def no_return(p, q, spec):
        starts.append(np.array(q))
        raise StepUnderflow("not integrated")

    monkeypatch.setattr(shooting, "half_return", no_return)
    with pytest.raises(ShootingDiverged, match="section-image"):
        shoot_orbit(u, eps, seed, SPEC)
    return starts[0]


def test_a_correction_beyond_the_expansion_falls_back_to_eps_w_r(
        monkeypatch):
    """Close to delta^2 = 3 the root is far out and its correction
    longer than MAX_SEED_SHIFT * r, and at (1, 0) of (0, -1, 1) Dg is
    singular, so that both corrections are NaN: either way the
    section-image seed is eps (w, r) itself."""
    u = UnfoldingParams(a2=1.0, b2=-1.0, delta=math.sqrt(3.0 - 1e-3))
    (root,) = predicted_roots(u.a2, u.b2, u.delta).roots
    z1, z2 = map(np.array, root_corrections(u, *root))
    eps = 0.05
    shift = np.linalg.norm(eps * (z1 + eps * z2))
    assert shift > shooting.MAX_SEED_SHIFT * root[0]
    assert np.array_equal(first_seed(u, eps, root, monkeypatch),
                          [eps * root[1], eps * root[0]])
    singular = UnfoldingParams(b2=-1.0, delta=1.0)
    assert np.all(np.isnan(root_corrections(singular, 1.0, 0.0)))
    assert np.array_equal(first_seed(singular, eps, (1.0, 0.0), monkeypatch),
                          [0.0, eps])


def test_failed_trial_return_halves_the_newton_step(records, monkeypatch):
    """A trial point whose return raises is a trial that does not descend:
    the step is halved and Newton goes on to the same orbit. The other
    path stops at another point with residual below SHOOT_TOL; with
    multipliers near 1 those lie up to about 1e-9 apart. Checked on
    Newton on the half map, which the w = 0 orbit runs, and on Newton on
    the full return, which the +w orbit runs."""
    for rec, name, original in [(records[0], "half_return", half_return),
                                (records[1], "poincare_return",
                                 poincare_return)]:
        calls = []

        def first_trial_blows_up(p, q, *args, original=original):
            calls.append(q)
            if len(calls) == 2:
                raise StepUnderflow("blow-up on the first trial")
            return original(p, q, *args)

        with monkeypatch.context() as patched:
            patched.setattr(shooting, name, first_trial_blows_up)
            again = shoot_orbit(THREE_ORBIT, EPS, rec.seed, SPEC)
        assert np.allclose(calls[2] - calls[0], 0.5 * (calls[1] - calls[0]),
                           rtol=0.0, atol=1e-15)
        assert np.max(np.abs(again.section_point
                             - rec.section_point)) < 1e-8


def test_every_candidate_failing_names_the_integrator_error(monkeypatch):
    monkeypatch.setattr(shooting, "MAX_STEPS", 2)
    with pytest.raises(ShootingDiverged,
                       match="section-image: StepLimitExceeded"):
        shoot_orbit(THREE_ORBIT, EPS, (4.0, 0.0), SPEC)


def test_the_equilibrium_at_the_origin_is_not_an_orbit():
    """Off a1 = b1 = 0, Newton from each predicted seed settles on the
    origin, an equilibrium with section point about 1e-15 and a flight time
    of integrator noise; every candidate fails and shooting raises."""
    off_slice = UnfoldingParams(a1=-0.3, b1=0.5, a2=0.25, b2=-1.5, delta=1.3)
    roots = predicted_roots(off_slice.a2, off_slice.b2, off_slice.delta).roots
    assert len(roots) == 3
    for root in roots:
        with pytest.raises(ShootingDiverged):
            shoot_orbit(off_slice, 0.1, root, SPEC)


#: a direction whose pair roots (8.19, +-0.92) lie next to the
#: equilibria (+-sqrt(-b), 0, 0), and whose w = 0 root (20.66, 0) Newton
#: on the half map does not locate at eps 0.1: Newton on the full return
#: carries it onto the +w orbit, |m + q| = 0.185
NEAR_EQUILIBRIA = UnfoldingParams(a2=0.42, b2=-1.801, delta=1.708)


def test_an_equilibrium_off_the_origin_is_not_an_orbit(monkeypatch):
    """From eps (w, r), Newton on the +w pair root at eps 0.2 walks onto
    the equilibrium (sqrt(-b), 0, 0), not onto the origin; the candidate
    is failed and the equilibrium named at the first return that would
    start within eps r / 10 of it, so no leg is integrated from there."""
    eps = 0.2
    roots = predicted_roots(NEAR_EQUILIBRIA.a2, NEAR_EQUILIBRIA.b2,
                            NEAR_EQUILIBRIA.delta).roots
    p = unfold(NEAR_EQUILIBRIA, eps)
    x = math.sqrt(-p.b)
    starts = []

    def spy(p, q, spec):
        starts.append(np.asarray(q, dtype=float))
        return half_return(p, q, spec)

    monkeypatch.setattr(shooting, "half_return", spy)
    monkeypatch.setattr(shooting, "root_corrections",
                        lambda u, r, w: ((0.0, 0.0), (0.0, 0.0)))
    with pytest.raises(ShootingDiverged, match=re.escape(
            f"section-image: Newton's next return would start within "
            f"eps r / 10 of the equilibrium ({x!r}, 0.0, 0.0)")):
        shoot_orbit(NEAR_EQUILIBRIA, eps, roots[1], SPEC)
    assert starts
    assert all(np.linalg.norm(q - e[:2]) >= 0.1 * eps * roots[1][0]
               for q in starts for e in equilibria(p))


def test_a_w0_root_accepts_only_an_orbit_that_is_its_own_reflection():
    """Newton runs on the half map alone for the w = 0 root of
    NEAR_EQUILIBRIA, so it never reaches the +w orbit: it does not
    converge, and the candidate fails with that reason named. The located
    orbits are distinct and each w = 0 one is its own reflection."""
    entry = sweep_epsilon(NEAR_EQUILIBRIA, [EPS], SPEC).entries[0]
    points = [rec.section_point for rec in entry.records.values()]
    assert all(np.max(np.abs(a - b)) > 1e-6
               for i, a in enumerate(points) for b in points[:i])
    for rec in entry.records.values():
        if rec.seed[1] == 0.0:
            check_symmetric_orbit(unfold(NEAR_EQUILIBRIA, EPS), rec)
    assert entry.failures[0].endswith(
        "section-image: Newton on the half map did not converge")


def test_one_orbit_region():
    u = UnfoldingParams(a2=3.0, b2=1.0, delta=1.0)
    pred = predicted_roots(u.a2, u.b2, u.delta)
    assert [tuple(r) for r in pred.roots] == [(2.0, 0.0)]
    rec = shoot_orbit(u, 0.05, pred.roots[0], SPEC)
    assert rec.residual < 1e-10
    assert abs(rec.period - 2.0 * np.pi) < 0.1 * 2.0 * np.pi


def test_sweep_two_eps():
    result = sweep_epsilon(THREE_ORBIT, [0.1, 0.05], SPEC)
    assert result.prediction == predicted_roots(
        THREE_ORBIT.a2, THREE_ORBIT.b2, THREE_ORBIT.delta)
    assert len(result.entries) == 2
    for entry in result.entries:
        assert not entry.failures
        assert len(entry.records) == 3
        for rec in entry.records.values():
            assert abs(rec.period - np.pi) < 0.5 * entry.eps
    assert result.monotone
    assert set(result.amp_slopes) == {0, 1, 2}
    for k, entry in enumerate(result.entries):
        p = unfold(THREE_ORBIT, entry.eps)
        for i, rec in entry.records.items():
            t, states = rec.trace
            assert t[0] == 0.0 and t[-1] == rec.period
            assert np.array_equal(states[0], [*rec.section_point, 0.0])
            oracle = dop853_states(p, states[0], t)
            assert np.max(np.abs(states - oracle)) < 1e-9
            assert result.max_coords[i][k] == np.max(np.abs(states))


def test_sweep_validates_input(monkeypatch):
    with pytest.raises(ValueError):
        sweep_epsilon(THREE_ORBIT, [0.05, 0.1], SPEC)
    with pytest.raises(ValueError):
        sweep_epsilon(THREE_ORBIT, [], SPEC)
    # every eps outside (0, MAX_EPS] is refused before anything is shot,
    # also on a direction with no orbit to shoot
    monkeypatch.setattr(shooting, "shoot_orbit", None)
    no_orbit = UnfoldingParams(a2=-1.0, b2=5.0, delta=1.0)
    assert not predicted_roots(no_orbit.a2, no_orbit.b2, no_orbit.delta).roots
    for u, eps_list in [(no_orbit, [0.5, 0.3]), (no_orbit, [math.nan, 0.1]),
                        (no_orbit, [math.inf]), (THREE_ORBIT, [0.5, 0.3]),
                        (THREE_ORBIT, [0.1, -0.05])]:
        with pytest.raises(ValueError,
                           match=re.escape(f"(0, {shooting.MAX_EPS}]")):
            sweep_epsilon(u, eps_list, SPEC)
    degenerate = UnfoldingParams(a2=1.0, b2=1.0, delta=1.0)
    with pytest.raises(HypothesisViolated):
        sweep_epsilon(degenerate, [0.1, 0.05], SPEC)


def test_sweep_on_a_collapse_boundary_is_a_degenerate_prediction():
    """predicted_roots predicts DEGENERATE on a2*delta^2 = b2; the sweep
    says so."""
    with pytest.raises(DegeneratePrediction, match="collapses to r = 0"):
        sweep_epsilon(UnfoldingParams(a2=1.0, b2=1.0, delta=1.0), [0.1])
    off_hypotheses = UnfoldingParams(a2=1.0, b2=1.0, delta=np.sqrt(3.0))
    with pytest.raises(HypothesisViolated) as raised:
        sweep_epsilon(off_hypotheses, [0.1])
    assert type(raised.value) is HypothesisViolated


def test_sweep_refuses_nonzero_first_order_coefficients():
    """With a1 or b1 nonzero the second-order roots are no orbits."""
    off_slice = UnfoldingParams(a1=-0.3, b1=0.5, a2=0.25, b2=-1.5, delta=1.3)
    with pytest.raises(HypothesisViolated, match="a1 = b1 = 0"):
        sweep_epsilon(off_slice, [0.1])


def test_the_mirror_orbit_is_seeded_from_its_partner(records):
    """In a sweep the -w orbit starts from the reflected partner crossing:
    one return, and the orbit that a shot without a partner locates."""
    entry = sweep_epsilon(THREE_ORBIT, [EPS], SPEC).entries[0]
    assert [rec.seed_candidate for rec in entry.records.values()] == [
        "section-image", "section-image", "mirror"]
    mirror = entry.records[2]
    assert mirror.returns == 1
    assert mirror.residual < 1e-10
    assert np.max(np.abs(mirror.section_point
                         - records[2].section_point)) < 1e-9
    assert abs(mirror.period - records[2].period) < 1e-9


def test_the_mirror_orbit_integrates_one_new_leg(records, monkeypatch):
    """The first return from the mirror seed reuses the second leg of the
    partner's accepted return, which starts at exactly that seed, Phi
    included, and integrates only its own second leg: its state and its
    variational equations, over that leg's steps alone."""
    legs, transitions = [], []
    leg_transition = shooting._leg_transition

    def counted(p, q, spec):
        legs.append((q, half_return(p, q, spec)))
        return legs[-1][1]

    def solved(p, *steps):
        transitions.append(steps)
        return leg_transition(p, *steps)

    monkeypatch.setattr(shooting, "half_return", counted)
    monkeypatch.setattr(shooting, "_leg_transition", solved)
    rec = shoot_orbit(THREE_ORBIT, EPS, records[2].seed, SPEC,
                      partner=records[1])
    assert rec.seed_candidate == "mirror"
    assert (rec.returns, len(legs), len(transitions)) == (1, 1, 1)
    (start, new_leg), = legs
    assert np.array_equal(start, rec.mirror_leg.start)
    assert transitions[0][0] is new_leg.lengths
    assert np.array_equal(rec.section_point, records[1].mirror_leg.start)


def check_symmetric_orbit(p, rec):
    """A w = 0 orbit is its own point reflection: it crosses the mirrored
    section at m, minus its section point q to |m + q| < SHOOT_TOL / 2, the
    bound of Newton on the half map (m is minus the start of the record's
    mirror_leg), and by DOP853 from that point the state half a period on
    is the reflected state, at 16 times over the first half period."""
    assert rec.seed[1] == 0.0
    assert np.linalg.norm(rec.section_point - rec.mirror_leg.start) \
        < shooting.SHOOT_TOL / 2
    half = 0.5 * rec.period
    t = np.linspace(0.0, half, 16, endpoint=False)
    states = dop853_states(p, [*rec.section_point, 0.0],
                           np.concatenate([t, t + half]))
    assert np.max(np.abs(states[16:] + states[:16])) < 1e-9


def test_the_w0_orbit_is_its_own_reflection(records):
    check_symmetric_orbit(unfold(THREE_ORBIT, EPS), records[0])


def test_half_map_newton_stops_at_half_the_shooting_tolerance(records,
                                                              monkeypatch):
    """A w = 0 start whose half displacement |T(q) - q| lies between
    SHOOT_TOL / 2 and SHOOT_TOL is not accepted on the half map: Newton on
    T takes one more step, and the full return from its last leg and one
    new leg then passes SHOOT_TOL, with no second full return."""
    rec = records[0]
    p = unfold(THREE_ORBIT, EPS)
    jac = half_return(p, rec.section_point, SPEC).jac
    # T(q) - q is about (dT/dq - I)(q - q*)
    start = rec.section_point + np.linalg.solve(
        jac - np.eye(2), [0.75 * shooting.SHOOT_TOL, 0.0])
    displacement = half_return(p, start, SPEC).residual
    assert shooting.SHOOT_TOL / 2 < displacement < shooting.SHOOT_TOL
    full, halves = [], []

    def counted(p, q, spec, first=None):
        full.append(q)
        return poincare_return(p, q, spec, first)

    def counted_half(p, q, spec):
        halves.append(q)
        return half_return(p, q, spec)

    monkeypatch.setattr(shooting, "poincare_return", counted)
    monkeypatch.setattr(shooting, "half_return", counted_half)
    # the correction that puts the section-image seed at start
    root = np.array(rec.seed)
    monkeypatch.setattr(shooting, "root_corrections", lambda u, r, w: (
        (0.0, 0.0), tuple((start[::-1] / EPS - root) / EPS ** 2)))
    seeded = shoot_orbit(THREE_ORBIT, EPS, rec.seed, SPEC)
    assert np.max(np.abs(halves[0] - start)) < 1e-16
    assert seeded.seed_candidate == "section-image"
    assert (seeded.returns, len(full)) == (3, 1)
    assert seeded.residual < shooting.SHOOT_TOL
    assert np.max(np.abs(seeded.section_point - rec.section_point)) < 1e-9


def test_a_w0_candidate_runs_one_newton_and_at_most_one_full_return(
        monkeypatch):
    """Newton runs on the half map alone for a root with w = 0: each w = 0
    shot of these sweeps, whose one candidate is its section image, makes
    one _newton_return call and then the one full return, or none where
    Newton on T fails, as on root 0 of NEAR_EQUILIBRIA."""
    shots = []
    shoot = shooting.shoot_orbit

    def counted(name, original):
        def call(*args):
            shots[-1][1].append(name)
            return original(*args)
        return call

    def shot(u, eps, seed, *args):
        shots.append((seed, []))
        return shoot(u, eps, seed, *args)

    monkeypatch.setattr(shooting, "shoot_orbit", shot)
    monkeypatch.setattr(shooting, "_newton_return",
                        counted("newton", shooting._newton_return))
    monkeypatch.setattr(shooting, "poincare_return",
                        counted("full", poincare_return))
    sweep_epsilon(THREE_ORBIT, [EPS, 0.05], SPEC)
    sweep_epsilon(NEAR_EQUILIBRIA, [EPS], SPEC)
    assert [calls for seed, calls in shots if seed[1] == 0.0] == [
        ["newton", "full"], ["newton", "full"], ["newton"]]


def shifted_returns(monkeypatch, shift):
    """Move the point of every full return by (0, shift); returns the list
    of the starts of the full returns made from then on."""
    starts = []

    def shifted(p, q, spec, first=None):
        starts.append(q)
        ret = poincare_return(p, q, spec, first)
        moved = ret.second._replace(point=ret.second.point + [0.0, shift])
        return ret._replace(second=moved)

    monkeypatch.setattr(shooting, "poincare_return", shifted)
    return starts


@pytest.mark.parametrize("shift", [0.0, 1e-9])
def test_a_located_w0_orbit_is_its_own_reflection_to_half_the_tolerance(
        shift, monkeypatch):
    """A w = 0 orbit is accepted on the full return whose first leg is the
    last half return of Newton on T, from its section point q, so the
    crossing m of that leg has |m + q| = |T(q) - q| < SHOOT_TOL / 2,
    however far the full return itself lands: with every full return
    moved by 1e-9 no w = 0 orbit is located off that bound either."""
    shifted_returns(monkeypatch, shift)
    located = [rec for u, eps_list in ((THREE_ORBIT, [EPS, 0.05]),
                                       (NEAR_EQUILIBRIA, [EPS]))
               for entry in sweep_epsilon(u, eps_list, SPEC).entries
               for rec in entry.records.values() if rec.seed[1] == 0.0]
    for rec in located:
        # m + q, for m minus the start of the second half
        assert np.linalg.norm(rec.section_point - rec.mirror_leg.start) \
            < shooting.SHOOT_TOL / 2
    assert len(located) == (2 if shift == 0.0 else 0)


def test_a_w0_full_return_that_misses_fails_the_candidate(records,
                                                          monkeypatch):
    """Where the one full return after Newton on T misses SHOOT_TOL, here
    moved by 1e-9, the w = 0 candidate fails with that return's residual
    named, after that single return, from the point Newton on T found."""
    starts = shifted_returns(monkeypatch, 1e-9)
    with pytest.raises(ShootingDiverged, match=re.escape(
            "section-image: the full return after Newton on the half map "
            "misses by |P(q) - q| = ")):
        shoot_orbit(THREE_ORBIT, EPS, records[0].seed, SPEC)
    assert len(starts) == 1
    assert np.array_equal(starts[0], records[0].section_point)


def test_returns_count_every_return_spent_on_the_orbit(monkeypatch):
    """returns counts the full returns and the half returns of Newton on
    the half map, not the legs a full return integrates."""
    calls, inside = [], []

    def counted(p, q, spec, first=None):
        calls.append(q)
        inside.append(q)
        try:
            return poincare_return(p, q, spec, first)
        finally:
            inside.pop()

    def counted_half(p, q, spec):
        if not inside:
            calls.append(q)
        return half_return(p, q, spec)

    monkeypatch.setattr(shooting, "poincare_return", counted)
    monkeypatch.setattr(shooting, "half_return", counted_half)
    result = sweep_epsilon(THREE_ORBIT, [EPS, 0.05], SPEC)
    spent = [rec.returns for entry in result.entries
             for rec in entry.records.values()]
    assert sum(spent) == len(calls)
    # a mirror seed costs no return of its own
    assert [entry.records[2].returns for entry in result.entries] == [1, 1]


def test_record_reports_newton_step_and_trivial_defect(records):
    """newton_step is the norm of the Newton step at the accepted point and
    the trivial defect is the distance of the multiplier nearest 1 from 1,
    both from the return at the fixed point."""
    p = unfold(THREE_ORBIT, EPS)
    for rec in records:
        q = rec.section_point
        # a w = 0 orbit is accepted on the return that completes the last
        # half return of Newton on T, from q
        first = half_return(p, q, SPEC) if rec.seed[1] == 0.0 else None
        ret = poincare_return(p, q, SPEC, first)
        step = np.linalg.solve(ret.jac - np.eye(2), q - ret.point)
        assert rec.newton_step == float(np.linalg.norm(step))
        assert rec.trivial_multiplier_defect == float(
            np.min(np.abs(np.linalg.eigvals(ret.phi) - 1.0)))
        assert rec.trivial_multiplier_defect < 1e-6


def test_a_failed_partner_leaves_the_mirror_orbit_to_its_other_seeds(
        records, monkeypatch):
    original = shooting.shoot_orbit
    partners = []

    def plus_w_fails(u, eps, seed, spec=None, partner=None):
        partners.append(partner)
        if seed[1] > 0.0:
            raise ShootingDiverged("the +w orbit is not located")
        return original(u, eps, seed, spec, partner)

    monkeypatch.setattr(shooting, "shoot_orbit", plus_w_fails)
    entry = sweep_epsilon(THREE_ORBIT, [EPS], SPEC).entries[0]
    assert list(entry.failures) == [1]
    assert partners == [None, None, None]
    rec = entry.records[2]
    assert rec.seed_candidate == "section-image"
    assert np.array_equal(rec.section_point, records[2].section_point)


def test_an_orbit_located_for_two_roots_is_recorded_once(records,
                                                         monkeypatch):
    """A record whose section point lies within DUPLICATE_TOL * eps of an
    earlier record's at the same eps is that orbit again: its root fails
    as a duplicate, so no orbit is counted twice. Just beyond the bound
    the record stands."""
    for shift, duplicate in ((0.9 * shooting.DUPLICATE_TOL * EPS, True),
                             (2.0 * shooting.DUPLICATE_TOL * EPS, False)):
        moved = replace(records[1], section_point=records[1].section_point
                        + np.array([shift, 0.0]))

        def minus_w_finds_plus_w(u, eps, seed, *args):
            # root 2, (r, -w), returns root 1's orbit moved by shift
            return moved if seed[1] < 0.0 else records[int(seed[1] > 0.0)]

        monkeypatch.setattr(shooting, "shoot_orbit", minus_w_finds_plus_w)
        entry = sweep_epsilon(THREE_ORBIT, [EPS], SPEC).entries[0]
        if duplicate:
            assert sorted(entry.records) == [0, 1]
            assert entry.failures == {2: "duplicate of orbit 1"}
        else:
            assert sorted(entry.records) == [0, 1, 2]
            assert entry.failures == {}


def test_every_candidate_failing_names_the_mirror_failure(records,
                                                          monkeypatch):
    with monkeypatch.context() as patched:
        patched.setattr(shooting, "MAX_STEPS", 2)
        with pytest.raises(ShootingDiverged, match="mirror: StepLimitExceeded"
                           ".*section-image: StepLimitExceeded"):
            shoot_orbit(THREE_ORBIT, EPS, records[2].seed, SPEC,
                        partner=records[1])

    def unconverged(*args):
        raise shooting._CandidateFailed("Newton did not converge")

    monkeypatch.setattr(shooting, "_newton_return", unconverged)
    with pytest.raises(ShootingDiverged, match="mirror: Newton did not "
                       "converge; section-image: Newton did not converge"):
        shoot_orbit(THREE_ORBIT, EPS, records[2].seed, SPEC,
                    partner=records[1])


def test_a_singular_newton_system_fails_the_candidate(monkeypatch):
    """With dP/dq = I, the Newton system dP/dq - I is singular: Newton
    fails where the first return misses SHOOT_TOL."""
    root = predicted_roots(THREE_ORBIT.a2, THREE_ORBIT.b2,
                           THREE_ORBIT.delta).roots[1]
    monkeypatch.setattr(shooting.Return, "jac",
                        property(lambda self: np.eye(2)))
    with pytest.raises(ShootingDiverged,
                       match="section-image: Newton did not converge"):
        shoot_orbit(THREE_ORBIT, EPS, root)


def test_a_singular_newton_system_at_the_orbit_reports_an_infinite_step(
        records, monkeypatch):
    """The -w orbit is accepted on its mirror seed's first return; with
    dP/dq = I there, its Newton step is inf, which the summary writes as
    null."""
    monkeypatch.setattr(shooting.Return, "jac",
                        property(lambda self: np.eye(2)))
    rec = shoot_orbit(THREE_ORBIT, EPS, records[2].seed, SPEC,
                      partner=records[1])
    assert (rec.seed_candidate, rec.returns) == ("mirror", 1)
    assert rec.newton_step == math.inf
    assert _jsonable(rec.newton_step) is None


def test_partner_from_another_eps_is_rejected(records):
    with pytest.raises(ValueError, match="partner"):
        shoot_orbit(THREE_ORBIT, 0.05, records[2].seed, SPEC,
                    partner=records[1])


def paired_direction(r, w, delta):
    """(a2, b2) whose paired roots are (r, +-w); see predicted_roots."""
    d2 = delta * delta
    a2 = (10.0 * w * w - 5.0 * r * r * (3.0 - d2) / (4.0 * d2)) / (5.0 * d2)
    return a2, 2.0 * a2 * d2 - 5.0 * w * w


def far_from_the_boundaries(a2, b2, delta):
    """At least 0.5 from every boundary of closed_form._degeneracies."""
    d2 = delta * delta
    return min(abs(3.0 - d2), abs(2.0 * a2 * d2 - b2), abs(a2 * d2 - b2),
               abs(a2 * d2 + 2.0 * b2)) >= 0.5


#: the band of root radii the benchmark directions keep, which bounds the
#: orbit amplitude eps * r by 0.65 at eps = 0.1
ROOT_R = (2.5, 6.5)


@settings(max_examples=8)
@given(r=st.floats(2.5, 6.5), w=st.floats(0.3, 1.8),
       delta=st.floats(0.8, 2.6))
def test_odd_symmetry_maps_the_plus_w_orbit_onto_the_minus_w_orbit(r, w,
                                                                   delta):
    """On two-orbit directions with paired roots (r, +-w), kept at least
    0.5 from the boundaries of closed_form._degeneracies, the reflected
    crossing of the +w orbit with the mirrored section is the located -w
    orbit, and the mirror-seeded -w orbit is the one its section image
    alone locates."""
    a2, b2 = paired_direction(r, w, delta)
    assume(far_from_the_boundaries(a2, b2, delta))
    assume(predicted_roots(a2, b2, delta).count is OrbitCount.TWO)
    u = UnfoldingParams(a2=a2, b2=b2, delta=delta)
    result = sweep_epsilon(u, [EPS], SPEC)
    plus, minus = result.entries[0].records[0], result.entries[0].records[1]
    assert minus.seed_candidate == "mirror"
    p = unfold(u, EPS)
    reflected = poincare_return(p, plus.section_point, SPEC).first.point
    assert np.max(np.abs(reflected - minus.section_point)) < 1e-9
    alone = shoot_orbit(u, EPS, minus.seed, SPEC)
    assert alone.seed_candidate == "section-image"
    assert np.max(np.abs(alone.section_point - minus.section_point)) < 1e-9


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 15: an orbit is accepted on an absolute residual, so an "
    "orbit 5e-9 short of its fixed point passes and the symmetry misses "
    "by more than 1e-9"))
@pytest.mark.parametrize("r, w, delta", [(5.65625, 1.59375, 2.3125),
                                         (5.625, 1.625, 2.328125),
                                         (4.1875, 1.75, 2.0859375),
                                         (2.75, 1.75, 1.875)])
def test_odd_symmetry_on_directions_that_item_15_must_mend(r, w, delta):
    """Paired-root directions on which the odd-symmetry property fails
    today. At (5.65625, 1.59375, 2.3125), (a2, b2) about (1.6066, 4.4826),
    the +w orbit is accepted at |P(q) - q| < 1e-10 with newton_step
    5.3e-9, and its reflected crossing misses the located -w orbit by
    5.28e-9; at (4.1875, 1.75, 2.0859375), (a2, b2) about
    (1.7205, -0.3399), newton_step 6.16e-9 and the miss 6.23e-9. At
    (5.625, 1.625, 2.328125) the mirror-seeded -w orbit is accepted with
    newton_step 5.14e-9, and the -w orbit its section image alone locates
    misses it by 5.04e-9. At (2.75, 1.75, 1.875), (a2, b2) about
    (1.8211, -2.5079), the mirror-seeded -w orbit is accepted with
    newton_step 7.90e-9 and the one its section image alone locates, with
    newton_step 9.07e-9, misses it by 1.17e-9. Each runs the property
    test's own body. ROADMAP item 15's acceptance on location is to turn
    all four into passes and drop this marker."""
    a2, b2 = paired_direction(r, w, delta)
    assert far_from_the_boundaries(a2, b2, delta)
    assert predicted_roots(a2, b2, delta).count is OrbitCount.TWO
    body = (test_odd_symmetry_maps_the_plus_w_orbit_onto_the_minus_w_orbit
            .hypothesis.inner_test)
    body(r, w, delta)


def check_the_theorem(a2, b2, delta, count):
    """On a direction far from the boundaries whose roots keep r in ROOT_R,
    the sweep at eps = 0.1 locates exactly the predicted orbits, and each
    w = 0 orbit among them is its own point reflection."""
    assume(far_from_the_boundaries(a2, b2, delta))
    prediction = predicted_roots(a2, b2, delta)
    assume(prediction.count is count)
    assume(all(ROOT_R[0] <= r <= ROOT_R[1] for r, _ in prediction.roots))
    u = UnfoldingParams(a2=a2, b2=b2, delta=delta)
    entry = sweep_epsilon(u, [EPS], SPEC).entries[0]
    assert not entry.failures
    assert sorted(entry.records) == list(range(len(prediction.roots)))
    for rec in entry.records.values():
        if rec.seed[1] == 0.0:
            check_symmetric_orbit(unfold(u, EPS), rec)


@settings(max_examples=10)
@given(r=st.floats(*ROOT_R), b2=st.floats(-3.0, 3.0),
       delta=st.floats(0.8, 2.6))
def test_one_orbit_directions_locate_one_orbit(r, b2, delta):
    """The theorem on drawn ONE directions, built from their root (r, 0)."""
    d2 = delta * delta
    # a2 whose w = 0 root is (r, 0); see predicted_roots
    a2 = (r * r * (3.0 - d2) / (4.0 * d2) + b2) / d2
    check_the_theorem(a2, b2, delta, OrbitCount.ONE)


@settings(max_examples=10)
@given(r=st.floats(*ROOT_R), w=st.floats(0.3, 1.8),
       delta=st.floats(0.8, 2.6))
@example(r=6.0, w=1.0135, delta=0.8952)
def test_three_orbit_directions_locate_three_orbits(r, w, delta):
    """The theorem on drawn THREE directions, built from their paired
    roots (r, +-w)."""
    check_the_theorem(*paired_direction(r, w, delta), delta, OrbitCount.THREE)
