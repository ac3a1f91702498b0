import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rainbow_greedy.ode_theory import (
    HALF_CROSSOVER,
    ColorDepletionError,
    IntegrationFailure,
    OdeTrajectory,
    TheoryParams,
    convexity_second_differences,
    f_kappa,
    greedy_rhs,
    integrate_greedy,
    integrate_modified,
    integrate_modified_full,
    m_closed_general,
    m_closed_half,
    m_from_n,
    modified_rhs,
    modified_upper_bound,
    q_fraction,
    tau0_closed_half,
    tau0_general,
    theory_summary,
    trajectory_csv,
)

# First zeros computed two independent ways (bisection on the closed form
# and the z-space fixed-point iteration in _tau0_fixed_point below) before
# being frozen here.
TAU0_FROZEN = {
    (1.0, 1.0): 0.23066482387500634,
    (3.0, 2.0): 0.3615565064717692,
    (3.0, 10.0): 0.3724457434888862,
    (6.0, 0.075): 0.07499999999998458,
}


def _tau0_fixed_point(c, kappa):
    # z = beta + log(z)/(2 kappa) is a contraction for the parameters used
    # here; iterate it to convergence and map back to tau
    beta = c * ((2 * kappa - 1) / (2 * kappa)) ** 2 + 1.0
    z = beta
    for _ in range(300):
        z = beta + math.log(z) / (2 * kappa)
    return kappa * (z - 1.0) / (2 * kappa * z - 1.0)


class TestParams:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            TheoryParams(0.0, 0.5)
        with pytest.raises(ValueError):
            TheoryParams(1.0, -1.0)


class TestGreedyRhs:
    def test_initial_slope_at_half(self):
        assert greedy_rhs(0.0, 0.5, 1.0, 0.5) == -4.0

    def test_interior_value(self):
        assert greedy_rhs(0.1, 0.3, 1.0, 0.5) == pytest.approx(-3.25, abs=1e-12)

    def test_zero_m_slope(self):
        assert greedy_rhs(0.3, 0.0, 2.0, 1.0) == -1.0

    def test_domain_violations(self):
        with pytest.raises(ValueError):
            greedy_rhs(0.5, 0.1, 1.0, 0.6)
        with pytest.raises(ValueError):
            greedy_rhs(0.4, 0.1, 1.0, 0.3)
        with pytest.raises(ValueError):
            greedy_rhs(-0.1, 0.1, 1.0, 0.5)


class TestClosedHalf:
    def test_initial_value(self):
        assert m_closed_half(0.0, 3.0) == pytest.approx(1.5, abs=1e-15)

    def test_boundary_zero(self):
        assert m_closed_half(0.5, 3.0) == 0.0

    def test_tau0_values(self):
        assert tau0_closed_half(0.0) == 0.0
        assert tau0_closed_half(4.0) == pytest.approx(1 / 3, abs=1e-15)
        assert tau0_closed_half(1.0) == pytest.approx(0.21132486540518708, abs=1e-15)

    def test_root_consistency(self):
        for c in (0.5, 1.0, 2.5, 5.0):
            assert m_closed_half(tau0_closed_half(c), c) == pytest.approx(0.0, abs=1e-9)

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            tau0_closed_half(-1.0)


class TestIntegrateGreedy:
    def test_matches_closed_form_at_half(self):
        for c in (1.0, 4.0):
            traj = integrate_greedy(TheoryParams(c, 0.5), step=1e-4)
            assert traj.tau0 == pytest.approx(tau0_closed_half(c), abs=1e-6)
            closed = np.array([m_closed_half(t, c) for t in traj.taus])
            assert np.max(np.abs(traj.values - closed)) < 1e-6

    def test_trajectory_shape(self):
        traj = integrate_greedy(TheoryParams(2.0, 0.7), step=1e-4)
        assert traj.values[0] == 1.0            # c/2
        assert np.all(np.diff(traj.taus) > 0)
        assert 0 < traj.tau0 <= min(0.5, 0.7)
        assert abs(traj.values[-1]) < 1e-9
        assert traj.mu_over_n == traj.tau0

    def test_matches_general_closed_form(self):
        for kappa in (0.3, 1.0, 2.0):
            traj = integrate_greedy(TheoryParams(1.0, kappa), step=1e-4)
            closed = np.array([m_closed_general(t, 1.0, kappa)
                               for t in traj.taus[:-1]])
            assert np.max(np.abs(traj.values[:-1] - closed)) < 1e-6

    def test_root_beyond_reach_raises(self):
        # scarce colors push the zero exponentially close to kappa, within
        # one step of the domain boundary
        with pytest.raises(IntegrationFailure):
            integrate_greedy(TheoryParams(6.0, 0.075), step=1e-4)

    def test_step_validation(self):
        with pytest.raises(ValueError):
            integrate_greedy(TheoryParams(1.0, 0.5), step=0.0)


class TestClosedGeneral:
    def test_f_kappa_at_zero(self):
        assert f_kappa(0.0, 1.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_f_kappa_initial_formula(self):
        for (c, kappa) in ((2.0, 0.8), (0.5, 2.0), (4.0, 0.3)):
            want = c * (2 * kappa - 1) ** 2 / (2 * kappa)
            assert f_kappa(0.0, c, kappa) == pytest.approx(want, abs=1e-12)

    def test_f_kappa_crossover_rejected(self):
        with pytest.raises(ValueError):
            f_kappa(0.1, 1.0, 0.50001)

    def test_f_kappa_domain_rejected(self):
        with pytest.raises(ValueError):
            f_kappa(0.35, 1.0, 0.3)

    def test_initial_value(self):
        for (c, kappa) in ((1.0, 1.0), (3.0, 2.0), (0.5, 0.3)):
            assert m_closed_general(0.0, c, kappa) == pytest.approx(c / 2, abs=1e-12)

    def test_near_half_continuity(self):
        at_half = m_closed_half(0.1, 1.0)
        for kappa in (0.499, 0.501):
            assert m_closed_general(0.1, 1.0, kappa) == pytest.approx(at_half, abs=1e-3)

    def test_sign_of_f_matches_m(self):
        # the prefactor is positive on the open domain
        for (tau, c, kappa) in ((0.1, 1.0, 1.0), (0.22, 1.0, 1.0),
                                (0.3, 3.0, 2.0), (0.05, 0.5, 0.3)):
            f = f_kappa(tau, c, kappa)
            m = m_closed_general(tau, c, kappa)
            assert math.copysign(1, f) == math.copysign(1, m)


class TestTau0General:
    def test_frozen_values(self):
        for (c, kappa), want in TAU0_FROZEN.items():
            assert tau0_general(TheoryParams(c, kappa)) == pytest.approx(want, abs=1e-12)

    def test_agrees_with_fixed_point_oracle(self):
        for (c, kappa) in ((1.0, 1.0), (3.0, 2.0), (3.0, 10.0), (3.0, 50.0)):
            assert tau0_general(TheoryParams(c, kappa)) == pytest.approx(
                _tau0_fixed_point(c, kappa), abs=1e-12)

    def test_root_consistency(self):
        for (c, kappa) in ((1.0, 1.0), (1.0, 0.3), (3.0, 2.0)):
            t0 = tau0_general(TheoryParams(c, kappa))
            assert m_closed_general(t0, c, kappa) == pytest.approx(0.0, abs=1e-9)

    def test_delegates_inside_crossover(self):
        assert tau0_general(TheoryParams(1.0, 0.5 + 4e-5)) == tau0_closed_half(1.0)

    def test_continuous_through_crossover(self):
        t_half = tau0_closed_half(1.0)
        for kappa in (0.499, 0.501):
            assert tau0_general(TheoryParams(1.0, kappa)) == pytest.approx(t_half, abs=1e-2)

    def test_degenerate_small_kappa_root(self):
        # the zero is within float spacing of kappa itself here
        assert tau0_general(TheoryParams(8.0, 0.05625)) == 0.05625


class TestModifiedRhs:
    def test_initial_value(self):
        assert modified_rhs(0.0, 1.0, 1.0, 0.5) == pytest.approx(
            math.exp(-1) - 2, abs=1e-15)

    def test_depleted_vertices_slope(self):
        assert modified_rhs(0.7, 0.0, 2.0, 0.5) == -1.0

    def test_range(self):
        for (tau, nv, c, kappa) in ((0.1, 0.9, 1.0, 0.5), (0.5, 0.4, 3.0, 1.0),
                                    (0.2, 0.7, 0.5, 2.0)):
            assert -2.0 <= modified_rhs(tau, nv, c, kappa) <= -1.0

    def test_m_from_n_and_q_fraction(self):
        p = TheoryParams(1.0, 0.5)
        assert m_from_n(0.0, 1.0, p) == pytest.approx(0.5, abs=1e-15)
        assert q_fraction(0.0, 1.0, 0.5) == pytest.approx(0.5, abs=1e-15)
        assert q_fraction(0.3, 0.5, 0.5) == pytest.approx(0.3, abs=1e-15)


class TestIntegrateModified:
    def test_basic_shape(self):
        traj = integrate_modified(TheoryParams(1.0, 0.5), step=1e-4)
        assert traj.values[0] == 1.0
        assert 0.5 <= traj.tau0 <= 1.0
        assert traj.mu_over_n == pytest.approx(1.0 - traj.tau0, abs=1e-15)
        assert np.all(np.diff(traj.values) < 0)
        assert abs(traj.values[-1]) < 1e-9

    def test_frozen_value(self):
        traj = integrate_modified(TheoryParams(1.0, 0.5), step=1e-4)
        assert traj.mu_over_n == pytest.approx(0.215839, abs=2e-6)

    def test_respects_upper_bound(self):
        for c in (0.5, 1.0, 3.0, 5.0):
            traj = integrate_modified(TheoryParams(c, 0.5), step=1e-4)
            assert traj.mu_over_n <= modified_upper_bound(c)

    def test_color_depletion_raises(self):
        with pytest.raises(ColorDepletionError):
            integrate_modified(TheoryParams(8.0, 0.05), step=1e-4)

    def test_reduced_matches_full_system(self):
        step = 1e-4
        for kappa in (0.5, 1.0):
            reduced = integrate_modified(TheoryParams(1.0, kappa), step=step)
            taus, ms, ns = integrate_modified_full(TheoryParams(1.0, kappa), step=step)
            k = len(taus)
            assert np.max(np.abs(reduced.values[:k] - ns)) < 10 * step
            implied = np.array([m_from_n(t, nv, TheoryParams(1.0, kappa))
                                for t, nv in zip(taus, ns)])
            assert np.max(np.abs(ms - implied)) < 10 * step

    def test_convexity_of_color_product(self):
        for kappa in (0.5, 1.0, 2.0):
            traj = integrate_modified(TheoryParams(1.0, kappa), step=1e-4)
            d2 = convexity_second_differences(traj, kappa)
            assert d2.min() >= -1e-6


class TestUpperBound:
    def test_values(self):
        assert modified_upper_bound(1.0) == pytest.approx(0.2689414213699951, abs=1e-12)
        assert modified_upper_bound(5.0) == pytest.approx(0.44486005594667855, abs=1e-12)

    def test_limit(self):
        assert modified_upper_bound(1e6) == pytest.approx(0.5, abs=1e-5)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            modified_upper_bound(0.0)


class TestSummariesAndExport:
    def test_summary_keys_and_consistency(self):
        s = theory_summary(TheoryParams(1.0, 0.5), step=1e-4)
        assert set(s) == {"tau0_greedy", "tau0_modified", "mu_greedy",
                          "mu_modified", "upper_bound"}
        assert s["mu_greedy"] == s["tau0_greedy"]
        assert s["mu_modified"] == pytest.approx(1.0 - s["tau0_modified"], abs=1e-15)
        assert s["mu_modified"] <= s["upper_bound"]

    def test_summary_flags_unavailable_modified(self):
        s = theory_summary(TheoryParams(8.0, 0.05), step=1e-4)
        assert s["tau0_modified"] is None
        assert s["mu_modified"] is None
        assert s["tau0_greedy"] > 0

    def test_trajectory_csv(self):
        traj = integrate_greedy(TheoryParams(1.0, 0.5), step=1e-3)
        lines = trajectory_csv(traj).strip().split("\n")
        assert lines[0] == "tau,value"
        assert lines[1] == "0.0,0.5"
        assert len(lines) == 1 + len(traj.taus)


@settings(max_examples=30, deadline=None)
@given(c=st.floats(0.2, 6.0), kappa=st.floats(0.4, 4.0))
def test_modified_trajectory_monotone(c, kappa):
    traj = integrate_modified(TheoryParams(c, kappa), step=1e-3)
    assert np.all(np.diff(traj.values) < 0)
    assert 0.5 - 1e-6 <= traj.tau0 <= 1.0 + 1e-6


# -- reference loops ------------------------------------------------------------
#
# The integrators as plain sequential loops, one RK4 step and one check at a
# time, and the closed-form root scan as a scalar loop. The package's
# vectorised and inlined versions must reproduce them.

def _rk4(rhs, t, y, h):
    k1 = rhs(t, y)
    k2 = rhs(t + h / 2, y + h * k1 / 2)
    k3 = rhs(t + h / 2, y + h * k2 / 2)
    k4 = rhs(t + h, y + h * k3)
    return y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def _bisect_last_step(rhs, tau, y, step, y_next):
    s_lo, s_hi = 0.0, step
    tau0, y0 = tau + step, y_next
    for _ in range(200):
        s_mid = (s_lo + s_hi) / 2
        if s_mid <= s_lo or s_mid >= s_hi:
            break
        y_mid = _rk4(rhs, tau, y, s_mid)
        if abs(y_mid) < 1e-10:
            return tau + s_mid, y_mid
        if y_mid > 0:
            s_lo = s_mid
        else:
            s_hi = s_mid
            tau0, y0 = tau + s_mid, y_mid
    return tau0, y0


def _greedy_loop(params, step):
    c, kap = params.c, params.kappa
    guard = min(0.5, kap) - 1e-9

    def rhs(t, y):
        return -1.0 - 4.0 * y / (1.0 - 2.0 * t) - y / (kap - t)

    taus, vals = [0.0], [c / 2.0]
    tau, m = 0.0, c / 2.0
    while True:
        if tau + step > guard:
            raise IntegrationFailure(
                f"M did not cross zero before the domain boundary "
                f"{min(0.5, kap)} (c={c}, kappa={kap}); the root is closer "
                f"to the boundary than one step")
        nxt = _rk4(rhs, tau, m, step)
        if nxt <= 0.0:
            break
        tau += step
        m = nxt
        taus.append(tau)
        vals.append(m)
    tau0, m0 = _bisect_last_step(rhs, tau, m, step, nxt)
    return OdeTrajectory(kind="greedy", taus=np.array(taus + [tau0]),
                         values=np.array(vals + [m0]), tau0=tau0, step=step,
                         mu_over_n=tau0)


def _modified_loop(params, step):
    c, kap = params.c, params.kappa
    ratio = c / kap

    def rhs(t, y):
        return math.exp(-ratio * y * (y + t + kap - 1.0)) - 2.0

    taus, vals = [0.0], [1.0]
    tau, nv = 0.0, 1.0
    while True:
        if tau > 1.2:
            raise IntegrationFailure(f"runaway integration for params {params}")
        nxt = _rk4(rhs, tau, nv, step)
        if nxt <= 0.0:
            break
        tau += step
        nv = nxt
        if nv + tau + kap - 1.0 <= 0.0:
            raise ColorDepletionError(
                f"color budget exhausted at tau={tau:.4f} with N={nv:.4f} "
                f"still positive (c={c}, kappa={kap}); the prediction needs "
                f"a larger color density")
        taus.append(tau)
        vals.append(nv)
    tau0, n0 = _bisect_last_step(rhs, tau, nv, step, nxt)
    t_arr = np.array(taus + [tau0])
    n_arr = np.array(vals + [n0])
    g = np.exp(-ratio * n_arr * (n_arr + t_arr + kap - 1.0))
    integral = np.concatenate(([0.0], np.cumsum(0.5 * (g[1:] + g[:-1])
                                               * np.diff(t_arr))))
    resid = float(np.max(np.abs(n_arr - (1.0 - 2.0 * t_arr + integral))))
    if resid > 10.0 * step:
        raise IntegrationFailure(
            f"integral-form residual {resid:.3e} exceeds {10 * step:.1e} "
            f"for params {params}")
    if not 0.5 - 1e-6 <= tau0 <= 1.0 + 1e-6:
        raise IntegrationFailure(f"tau0={tau0} outside [1/2, 1] for {params}")
    return OdeTrajectory(kind="modified", taus=t_arr, values=n_arr, tau0=tau0,
                         step=step, mu_over_n=1.0 - tau0)


def _tau0_scan(params):
    c, kap = params.c, params.kappa
    if abs(2.0 * kap - 1.0) < HALF_CROSSOVER:
        return tau0_closed_half(c)
    T = min(0.5, kap)

    def signed(t):
        if kap - t <= 0.0 or 1.0 - 2.0 * t <= 0.0:
            return -math.inf
        return f_kappa(t, c, kap)

    assert signed(0.0) > 0.0
    lo, hi = 0.0, None
    for i in range(1, 10_001):
        t = T * i / 10_000
        if signed(t) <= 0.0:
            hi = t
            break
        lo = t
    for _ in range(200):
        mid = (lo + hi) / 2
        if mid <= lo or mid >= hi:
            break
        if signed(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi


GRID_C = (0.5, 1.0, 3.0, 5.0, 8.0)
GRID_KAPPA = (0.05, 0.1, 0.25, 0.52, 1.0, 2.0, 10.0)


def assert_same_as_loop(integrate, loop, params, step):
    """Same exception and message, or bitwise-equal taus and values, tau0
    and mu_over_n within 1e-12. Returns the exception class or None."""
    try:
        want = loop(params, step)
    except (IntegrationFailure, OverflowError) as exc:
        with pytest.raises(type(exc)) as got:
            integrate(params, step=step)
        assert type(got.value) is type(exc)
        assert str(got.value) == str(exc)
        return type(exc)
    got = integrate(params, step=step)
    assert (got.kind, got.step) == (want.kind, want.step)
    assert np.array_equal(got.taus, want.taus)
    assert got.values.shape == want.values.shape
    assert np.max(np.abs(got.values - want.values)) <= 1e-12
    assert type(got.tau0) is float and type(got.mu_over_n) is float
    assert got.tau0 == pytest.approx(want.tau0, abs=1e-12)
    assert got.mu_over_n == pytest.approx(want.mu_over_n, abs=1e-12)
    return None


@pytest.mark.parametrize("step", [1e-3, 1e-4, 1e-5])
class TestSameAsSequentialLoops:
    """The integrators give what the sequential RK4 loops give, on a grid
    that takes in the greedy refusals at small kappa and color depletion."""

    def test_integrate_greedy(self, step):
        refused = {(c, kappa) for c in GRID_C for kappa in GRID_KAPPA
                   if assert_same_as_loop(integrate_greedy, _greedy_loop,
                                          TheoryParams(c, kappa), step)}
        assert {(3.0, 0.1), (5.0, 0.1), (8.0, 0.1)} <= refused
        assert not any(kappa >= 0.25 for _, kappa in refused)

    def test_integrate_modified(self, step):
        raised = {(c, kappa): assert_same_as_loop(
                      integrate_modified, _modified_loop, TheoryParams(c, kappa), step)
                  for c in GRID_C for kappa in GRID_KAPPA}
        depleted = {cell for cell, exc in raised.items() if exc}
        assert {raised[cell] for cell in depleted} <= {ColorDepletionError}
        assert all(kappa <= 0.1 for _, kappa in depleted)
        assert (8.0, 0.05) in depleted or step == 1e-3


@pytest.mark.parametrize("c, kappa, step, raised", [
    (100.0, 0.01, 1e-2, IntegrationFailure),    # runaway: too stiff for the step
    (8.0, 0.05, 1e-2, ColorDepletionError),
    (1000.0, 0.001, 1e-3, OverflowError),       # e^-lambda overflows in a stage
])
def test_integrate_modified_stiff_corners(c, kappa, step, raised):
    assert assert_same_as_loop(integrate_modified, _modified_loop,
                               TheoryParams(c, kappa), step) is raised


def test_tau0_general_same_as_scalar_scan():
    for c in GRID_C:
        for kappa in GRID_KAPPA + (0.3, 0.499, 0.5 + 4e-5, 0.501, 50.0):
            got = tau0_general(TheoryParams(c, kappa))
            assert type(got) is float
            assert got == pytest.approx(_tau0_scan(TheoryParams(c, kappa)),
                                        abs=1e-12)
