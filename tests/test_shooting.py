"""Full-system confirmation: return map and its flow, shooting, sweep."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from averager.closed_form import (DegeneratePrediction, HypothesisViolated,
                                  predicted_roots)
from averager.jerk import SystemParams, jacobian_at, vector_field
from averager.normal_form import UnfoldingParams, unfold
from averager.shooting import (
    IntegratorSpec,
    SeedInvalid,
    StepLimitExceeded,
    StepUnderflow,
    _first_crossing,
    poincare_return,
    shoot_orbit,
    sweep_epsilon,
)

THREE_ORBIT = UnfoldingParams(a2=1.0, b2=5.0, delta=2.0)
EPS = 0.1
SPEC = IntegratorSpec()


@pytest.fixture(scope="module")
def records():
    pred = predicted_roots(THREE_ORBIT.a2, THREE_ORBIT.b2, THREE_ORBIT.delta)
    return [shoot_orbit(THREE_ORBIT, EPS, root, SPEC) for root in pred.roots]


def dop853_states(p, s0, t):
    """(len(t), 3) states of the jerk flow from s0, by DOP853 at 1e-13."""
    from scipy.integrate import solve_ivp

    sol = solve_ivp(lambda _, s: vector_field(p, s), (0.0, t[-1]),
                    np.asarray(s0, dtype=float), method="DOP853", t_eval=t,
                    rtol=1e-13, atol=1e-13)
    return sol.y.T


def variational_rhs(p):
    """The flow and Phi' = J Phi on (x, y, z, Phi row-major), for DOP853."""
    def rhs(t, s):
        phi = jacobian_at(p, s[:3]) @ s[3:].reshape(3, 3)
        return np.concatenate([vector_field(p, s[:3]), phi.ravel()])

    return rhs


def dop853_return(p, q, t_end):
    """(return point, flight time, dP/dq) of the section map by DOP853.

    Integrates the flow and Phi' = J Phi from (q, 0) at tolerances 1e-13
    and takes the first downward z = 0 crossing with y > 0 after a third
    of t_end, which skips the start on the section.
    """
    from scipy.integrate import solve_ivp

    def section(t, s):
        return s[2]

    section.direction = -1.0
    s0 = np.concatenate([(q[0], q[1], 0.0), np.eye(3).ravel()])
    sol = solve_ivp(variational_rhs(p), (0.0, t_end), s0, method="DOP853",
                    events=section, rtol=1e-13, atol=1e-13)
    t, s = next((t, s) for t, s in zip(sol.t_events[0], sol.y_events[0])
                if t > t_end / 3.0 and s[1] > 0.0)
    f = vector_field(p, s[:3])
    phi = s[3:].reshape(3, 3)
    return s[:2], t, (phi - np.outer(f, phi[2]) / f[2])[:2, :2]


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
    """Return point, flight time and dP/dq of the Taylor integrator at the
    default budget agree with a DOP853 pass at 1e-13 on a fixed grid."""
    check_against_dop853(unfold(unfolding, eps), q, unfolding.delta)


def check_against_dop853(p, q, delta):
    point, flight, jac, _, _ = poincare_return(p, q, SPEC)
    ref_point, ref_flight, ref_jac = dop853_return(p, q, 3.0 * np.pi / delta)
    assert np.max(np.abs(point - ref_point)) < 1e-11
    assert abs(flight - ref_flight) < 1e-10
    assert np.max(np.abs(jac - ref_jac)) < 1e-10


@settings(max_examples=20)
@given(x=st.floats(-0.15, 0.15), y=st.floats(0.05, 0.6))
def test_return_map_on_drawn_showcase_points(x, y):
    """On section points drawn from the showcase box, the return agrees
    with DOP853 at the bounds above, and the mirrored section gives the
    mirrored map: P+(-q) = -P-(q)."""
    p = unfold(THREE_ORBIT, EPS)
    check_against_dop853(p, (x, y), THREE_ORBIT.delta)
    fwd = poincare_return(p, (x, y), SPEC)[0]
    mir = poincare_return(p, (-x, -y), SPEC, orientation=+1)[0]
    assert np.max(np.abs(mir + fwd)) < 1e-9


def test_integrate_linearized_rotation():
    """Tiny amplitudes follow y(t) = y0 cos(2t) for c = -4.

    The 1e-12 comparison needs a budget below the default 1e-11, which
    would otherwise dominate the 1e-6 amplitude.
    """
    p = SystemParams(0.0, 0.0, -4.0)
    tight = IntegratorSpec(abs_tol=1e-14, rel_tol=1e-13)
    _, flight, _, _, flow = poincare_return(p, (0.0, 1e-6), tight)
    assert abs(flight - np.pi) < 1e-9
    y = flow(np.array([np.pi / 2.0, np.pi]))[:, 1]
    assert abs(y[0] + 1e-6) < 1e-12
    assert abs(y[1] - 1e-6) < 1e-12


def test_integrate_tolerance_convergence():
    p = SystemParams(0.01, 0.05, -4.0)
    q = (0.05, 0.3)
    t = np.linspace(0.0, 3.0, 31)
    loose = poincare_return(p, q, IntegratorSpec(abs_tol=1e-9, rel_tol=1e-9))
    tight = poincare_return(p, q, IntegratorSpec(abs_tol=1e-12, rel_tol=1e-12))
    assert min(loose[1], tight[1]) > t[-1]
    assert np.max(np.abs(loose[4](t) - tight[4](t))) < 1e-7


def test_integrator_budget_errors():
    """A leg longer than max_steps, and a finite-time blow-up whose steps
    shrink below double resolution, raise instead of returning."""
    p = unfold(THREE_ORBIT, EPS)
    with pytest.raises(StepLimitExceeded):
        poincare_return(p, (0.0, 0.4), IntegratorSpec(max_steps=2))
    with pytest.raises(StepUnderflow):
        poincare_return(p, (3.0, 30.0), SPEC)


def test_return_flight_time_near_linear_period():
    p = SystemParams(0.0, 0.0, -4.0)
    _, flight, _, _, _ = poincare_return(p, (0.001, 0.001), SPEC)
    assert abs(flight - np.pi) < 1e-3


def test_return_flight_time_perturbed():
    p = unfold(THREE_ORBIT, EPS)
    _, flight, _, _, _ = poincare_return(p, (0.2, 0.4), SPEC)
    assert abs(flight - np.pi) < 0.02 * np.pi


def test_return_map_equivariance():
    """The field is odd, so the mirrored section gives the mirrored map."""
    p = unfold(THREE_ORBIT, EPS)
    q = np.array([0.05, 0.35])
    fwd, t_fwd, _, _, _ = poincare_return(p, q, SPEC, orientation=-1)
    mir, t_mir, _, _, _ = poincare_return(p, -q, SPEC, orientation=+1)
    assert np.max(np.abs(mir + fwd)) < 1e-9
    assert abs(t_mir - t_fwd) < 1e-9


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

    Following the +w orbit to its opposite-direction section crossing and
    reflecting lands on the -w orbit's section point.
    """
    p = unfold(THREE_ORBIT, EPS)
    q_plus = records[1].section_point
    q_minus = records[2].section_point
    s0 = np.column_stack([(q_plus[0], q_plus[1], 0.0), np.eye(3)])
    crossing = _first_crossing(p, s0, SPEC, +1)
    assert crossing is not None
    point = crossing[1][:, 0]
    assert abs(point[2]) < 1e-12  # the crossing lies on the section
    assert np.max(np.abs(-point[:2] - q_minus)) < 1e-8


def test_trivial_floquet_multiplier(records):
    p = unfold(THREE_ORBIT, EPS)
    for rec in records:
        _, _, _, mono, _ = poincare_return(p, rec.section_point, SPEC)
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
        _, _, jac, _, _ = poincare_return(p, q, SPEC)
        fd = np.empty((2, 2))
        for j in range(2):
            dq = np.zeros(2)
            dq[j] = h
            hi = poincare_return(p, q + dq, SPEC)[0]
            lo = poincare_return(p, q - dq, SPEC)[0]
            fd[:, j] = (hi - lo) / (2.0 * h)
        assert np.max(np.abs(jac - fd)) < 1e-7


def test_shoot_reports_the_return_at_the_fixed_point(records):
    """Period and residual are those of the return map at the fixed point."""
    p = unfold(THREE_ORBIT, EPS)
    for rec in records:
        returned, flight, _, _, _ = poincare_return(p, rec.section_point,
                                                    SPEC)
        assert rec.period == flight
        assert rec.residual == float(np.linalg.norm(returned
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


def test_shoot_rejects_bad_input():
    with pytest.raises(SeedInvalid):
        shoot_orbit(THREE_ORBIT, EPS, (-1.0, 0.0), SPEC)
    with pytest.raises(ValueError):
        shoot_orbit(THREE_ORBIT, 0.5, (4.0, 0.0), SPEC)


def test_one_orbit_region():
    u = UnfoldingParams(a2=3.0, b2=1.0, delta=1.0)
    pred = predicted_roots(u.a2, u.b2, u.delta)
    assert [tuple(r) for r in pred.roots] == [(2.0, 0.0)]
    rec = shoot_orbit(u, 0.05, pred.roots[0], SPEC)
    assert rec.residual < 1e-10
    assert abs(rec.period - 2.0 * np.pi) < 0.1 * 2.0 * np.pi


def test_sweep_two_eps():
    result = sweep_epsilon(THREE_ORBIT, [0.1, 0.05], SPEC)
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


def test_sweep_validates_input():
    with pytest.raises(ValueError):
        sweep_epsilon(THREE_ORBIT, [0.05, 0.1], SPEC)
    with pytest.raises(ValueError):
        sweep_epsilon(THREE_ORBIT, [], SPEC)
    degenerate = UnfoldingParams(a2=1.0, b2=1.0, delta=1.0)
    with pytest.raises(HypothesisViolated):
        sweep_epsilon(degenerate, [0.1, 0.05], SPEC)


def test_sweep_on_a_collapse_boundary_is_a_degenerate_prediction():
    """classify returns DEGENERATE on a2*delta^2 = b2; the sweep says so."""
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
