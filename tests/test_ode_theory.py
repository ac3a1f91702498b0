import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rainbow_greedy import ode_theory
from rainbow_greedy.ode_theory import (
    IntegrationFailure,
    OdeTrajectory,
    TheoryParams,
    integrate_greedy,
    integrate_modified,
    modified_upper_bound,
    tau0_closed_half,
    tau0_general,
)
from rainbow_greedy.asymptotics import tau0_small_kappa_bounds
from rainbow_greedy.colored_graph import generate
from rainbow_greedy.experiment_harness import theory_mu_over_n
from rainbow_greedy.greedy_engines import run_greedy, run_modified_greedy
from theory_oracles import (
    convexity_second_differences,
    f_kappa,
    m_closed_general,
    m_closed_half,
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


# First zeros of f_kappa in (0, min(1/2, kappa)), each the nearest float to
# the root of tests/freeze_tau0_roots.py: bisection of the original f_kappa
# in tau at 100 digits, the same float at 150. They take in small c (down to
# 1e-300), kappa next to 1/2 on both sides (down to 1/2 +- 1e-10, and
# 3.75e-12 at c = 2.2e-6), kappa up to 1e8, and the cells where
# c (2 kappa - 1)^2 / (2 kappa) overflows (1e150 <= kappa <= 1e200 and
# c = 1e308).
TAU0_MPMATH_FULL = {
    (1.0, 0.3): 0.18634764131103723,
    (3.0, 0.1): 0.09999556377364682,
    (0.5, 0.05): 0.04928835664358934,
    (6.0, 0.075): 0.07499999999998458,
    (20.0, 0.02): 0.02,
    (2.0, 0.45): 0.26943242669691636,
    (1.0, 1.0): 0.2306648238750063,
    (3.0, 2.0): 0.3615565064717692,
    (3.0, 10.0): 0.3724457434888862,
    (5.0, 0.7): 0.373775709567422,
    (0.5, 2.0): 0.1614599436781889,
    (50.0, 20.0): 0.48996982824961877,
    (1e6, 3.0): 0.4999994000026569,
    (20.0, 1e5): 0.47619038007063724,
    (1.0, 1e8): 0.249999999808217,
    (3.0, 1e6): 0.3749999747858461,
    (8.0, 1e7): 0.44444444265346433,
    (1e-6, 1e8): 4.999995000004988e-07,
    (0.5, 1e200): 0.16666666666666666,
    (3.0, 1e160): 0.375,
    (1e5, 1e152): 0.4999950000499995,
    (1e10, 1e150): 0.49999999995,
    (1e308, 10.0): 0.5,
    # small c
    (1e-3, 0.7): 0.000499322445676975,
    (1e-6, 0.7): 4.999993214295901e-07,
    (1e-9, 0.7): 4.999999993214286e-10,
    (1e-12, 0.7): 4.999999999993214e-13,
    (1e-3, 0.2): 0.0004988776808062326,
    (1e-9, 0.2): 4.999999988750001e-10,
    (1e-5, 1e200): 4.999950000499995e-06,
    (1e-300, 0.7): 5e-301,
    (1e-300, 0.2): 5e-301,
    (1e-300, 0.5000001): 5e-301,
    (1e-300, 1e8): 5e-301,
    # kappa next to 1/2
    (0.5, 0.499): 0.14640783010236255,
    (1.0, 0.499): 0.21124798222079733,
    (3.0, 0.499): 0.3108640653944695,
    (5.0, 0.499): 0.3490567029821069,
    (8.0, 0.499): 0.3785171159170739,
    (0.5, 0.501): 0.1464852413966537,
    (1.0, 0.501): 0.21140144922169354,
    (3.0, 0.501): 0.3111707673729272,
    (5.0, 0.501): 0.3494309972342988,
    (8.0, 0.501): 0.3789460057988915,
    (1.0, 0.4998): 0.2113095127728174,
    (1e-6, 0.49996): 4.999992499812484e-07,
    (1e-6, 0.50004): 4.999992500212484e-07,
    (1e-6, 0.4999999): 4.999992500011999e-07,
    (1e-6, 0.5000001): 4.999992500013e-07,
    (1e-6, 0.4999999999): 4.999992500012499e-07,
    (1e-6, 0.5000000001): 4.9999925000125e-07,
    (0.5, 0.49996): 0.14644506106855262,
    (0.5, 0.50004): 0.14644815750919757,
    (0.5, 0.4999999): 0.14644660553617472,
    (0.5, 0.5000001): 0.1464466132772763,
    (0.5, 0.4999999999): 0.1464466094028557,
    (0.5, 0.5000000001): 0.14644660941059678,
    (1.0, 0.49996): 0.21132179583712757,
    (1.0, 0.50004): 0.21132793449425977,
    (1.0, 0.4999999): 0.21132485773186424,
    (1.0, 0.5000001): 0.21132487307850698,
    (1.0, 0.4999999999): 0.2113248653975138,
    (1.0, 0.5000000001): 0.21132486541286044,
    (8.0, 0.49996): 0.37872360874629496,
    (8.0, 0.50004): 0.3787407642121871,
    (8.0, 0.4999999): 0.37873216603749515,
    (8.0, 0.5000001): 0.37873220892615933,
    (8.0, 0.4999999999): 0.37873218746038917,
    (8.0, 0.5000000001): 0.37873218750327786,
    (2.2e-6, 0.50000000000375): 1.09999637001331e-06,
}

# The cells of the 40 x 60 log grid over c in [0.05, 20] x kappa in
# [0.005, 0.49] where the zero lies closer to kappa than float resolution
# and the last point of a 10^4-point scan over [0, kappa] rounds below kappa,
# so the scan finds no sign change.
STARVED_KAPPA = 0.02986831190748335
STARVED = [(float(c), STARVED_KAPPA) for c in np.geomspace(0.05, 20.0, 40)[-14:]]


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

    @pytest.mark.parametrize("c, kappa, name", [
        (math.inf, 0.5, "c"), (math.nan, 0.5, "c"),
        (1.0, math.inf, "kappa"), (1.0, math.nan, "kappa")])
    def test_rejects_non_finite(self, c, kappa, name):
        bad = c if name == "c" else kappa
        with pytest.raises(ValueError, match=f"{name} must be positive and "
                                             f"finite, got {bad}"):
            TheoryParams(c, kappa)


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
        for step in (0.0, 1e-7, 0.02):
            with pytest.raises(ValueError):
                integrate_greedy(TheoryParams(1.0, 0.5), step=step)

    def test_default_step(self):
        p = TheoryParams(1.0, 0.7)
        got, want = integrate_greedy(p), integrate_greedy(p, step=1e-5)
        assert got.taus[1] == 1e-5
        assert np.array_equal(got.values, want.values)


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

    @pytest.mark.parametrize("c", [1e-300, 1e-6, 0.5, 1.0, 2.5, 8.0, 1e308])
    def test_exact_half_is_the_closed_form(self, c):
        # f vanishes identically at kappa = 1/2; tau0 is the cubic's root
        assert tau0_general(TheoryParams(c, 0.5)) == tau0_closed_half(c)

    def test_continuous_through_crossover(self):
        t_half = tau0_closed_half(1.0)
        for kappa in (0.499, 0.501):
            assert tau0_general(TheoryParams(1.0, kappa)) == pytest.approx(t_half, abs=1e-2)

    def test_degenerate_small_kappa_root(self):
        # the zero is within float spacing of kappa itself here
        assert tau0_general(TheoryParams(8.0, 0.05625)) == 0.05625

    def test_near_half_against_frozen_roots(self):
        # kappa = 1/2 -+ 1e-3, on both sides of the one special case: each
        # root to 2 ulps, and the pair brackets the kappa = 1/2 closed form
        for c in (0.5, 1.0, 3.0, 5.0, 8.0):
            below, above = (tau0_general(TheoryParams(c, k)) for k in (0.499, 0.501))
            for kappa, got in ((0.499, below), (0.501, above)):
                want = TAU0_MPMATH_FULL[c, kappa]
                assert abs(got - want) <= 2 * math.ulp(want)
            assert below < tau0_closed_half(c) < above

    @pytest.mark.parametrize("c, kappa", TAU0_MPMATH_FULL)
    def test_full_float_precision(self, c, kappa):
        want = TAU0_MPMATH_FULL[c, kappa]
        got = tau0_general(TheoryParams(c, kappa))
        assert abs(got - want) <= 2 * math.ulp(want)

    @pytest.mark.parametrize("c, kappa, want", [
        (1.0, 1e200, 0.25), (1.0, 1e308, 0.25),   # kappa -> inf: c / (2 (c + 1))
        (3.0, 1e308, 0.375),
        (1e308, 2.0, 0.5),                          # c -> inf, kappa > 1/2: 1/2
        (1.7e308, 2.0, 0.5), (1e308, 1e308, 0.5),   # root z beyond 9e307
        (1e308, 0.1, 0.1)])                         # c -> inf, kappa < 1/2: kappa
    def test_overflowing_base_gives_the_limit(self, c, kappa, want):
        # c (2 kappa - 1)^2 / (2 kappa) overflows; this used to return nan,
        # or never return at kappa = 1e308
        assert tau0_general(TheoryParams(c, kappa)) == pytest.approx(want, abs=1e-12)

    def test_overflowing_base_continues_the_finite_one(self):
        # kappa = 1e15 keeps a finite base, 1e200 does not
        near = tau0_general(TheoryParams(2.0, 1e15))
        assert near == pytest.approx(tau0_general(TheoryParams(2.0, 1e200)), abs=1e-12)
        assert near == pytest.approx(_tau0_fixed_point(2.0, 1e15), abs=1e-12)

    @pytest.mark.parametrize("c, kappa", STARVED)
    def test_color_starved_cells(self, c, kappa):
        # every color gets used: the root is kappa to float resolution, and
        # so is the small-kappa estimate on the cells its gate admits
        p = TheoryParams(c, kappa)
        assert tau0_general(p) == kappa
        if c > 5.0 and kappa < 1.0 / (2.0 * c):
            assert tau0_small_kappa_bounds(p).estimate == kappa

    def test_color_starved_cell_matches_simulation(self):
        c, kappa = STARVED[0]
        n = 20_000
        mus = [run_greedy(generate(n, round(c * n / 2), round(kappa * n), seed),
                          seed + 1).mu / n
               for seed in (0, 10, 20)]
        assert abs(sum(mus) / len(mus) - tau0_general(TheoryParams(c, kappa))) < 1e-4


def m_from_n(tau, n_density, params):
    """Alive-edge density M = (c / (2 kappa)) N^2 (N + tau + kappa - 1)
    implied by N on the modified trajectory."""
    return (params.c / (2.0 * params.kappa)) * n_density ** 2 \
        * (n_density + tau + params.kappa - 1.0)


def _modified_full_system(params, step):
    """RK4 for the coupled (M, N) system, the oracle for the reduced form.

    Integrates until N <= max(10 * step, 1e-3); the floor keeps
    lambda = 2M/N away from 0/0 at the very end. Returns
    (taus, m_values, n_values) as arrays.
    """
    c, kap = params.c, params.kappa
    floor = max(10.0 * step, 1e-3)

    def rhs(t, m, nv):
        q = nv + t + kap - 1.0
        if q <= 0.0:
            raise IntegrationFailure(
                f"color budget exhausted at tau={t:.4f} (c={c}, kappa={kap})")
        lam = 2.0 * m / nv
        e = math.exp(-lam)
        return lam * (e - 2.0) - m * (1.0 - e) / q, e - 2.0

    taus = [0.0]
    ms = [c / 2.0]
    ns = [1.0]
    tau, m, nv = 0.0, c / 2.0, 1.0
    while nv > floor:
        k1m, k1n = rhs(tau, m, nv)
        k2m, k2n = rhs(tau + step / 2, m + step * k1m / 2, nv + step * k1n / 2)
        k3m, k3n = rhs(tau + step / 2, m + step * k2m / 2, nv + step * k2n / 2)
        k4m, k4n = rhs(tau + step, m + step * k3m, nv + step * k3n)
        m += step / 6 * (k1m + 2 * k2m + 2 * k3m + k4m)
        nv += step / 6 * (k1n + 2 * k2n + 2 * k3n + k4n)
        tau += step
        if nv <= floor:
            break
        taus.append(tau)
        ms.append(m)
        ns.append(nv)
    return np.asarray(taus), np.asarray(ms), np.asarray(ns)


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

    @pytest.mark.parametrize("c, kappa", [(3.0, 0.05), (8.0, 0.05), (20.0, 0.005)])
    def test_color_starved_cells_predict_kappa(self, c, kappa):
        # every color gets used: the prediction is kappa up to the root
        # tolerance at steps where RK4 is stable, and simulation uses all
        # q colors too
        for step in (1e-4, 1e-5):
            traj = integrate_modified(TheoryParams(c, kappa), step=step)
            assert abs(traj.mu_over_n - kappa) < 1e-9
        n = 20_000
        mus = [run_modified_greedy(generate(n, round(c * n / 2), round(kappa * n),
                                            seed), seed + 1).mu / n
               for seed in (0, 10, 20)]
        assert abs(sum(mus) / len(mus) - traj.mu_over_n) < 1e-4

    def test_reduced_matches_full_system(self):
        step = 1e-4
        for kappa in (0.5, 1.0):
            reduced = integrate_modified(TheoryParams(1.0, kappa), step=step)
            taus, ms, ns = _modified_full_system(TheoryParams(1.0, kappa), step=step)
            k = len(taus)
            assert np.max(np.abs(reduced.values[:k] - ns)) < 10 * step
            implied = np.array([m_from_n(t, nv, TheoryParams(1.0, kappa))
                                for t, nv in zip(taus, ns)])
            assert np.max(np.abs(ms - implied)) < 10 * step

    def test_step_validation(self):
        for step in (0.0, 1e-7, 0.02):
            with pytest.raises(ValueError):
                integrate_modified(TheoryParams(1.0, 0.5), step=step)

    def test_convexity_of_color_product(self):
        for kappa in (0.5, 1.0, 2.0):
            traj = integrate_modified(TheoryParams(1.0, kappa), step=1e-4)
            d2 = convexity_second_differences(traj, kappa)
            assert d2.min() >= -1e-6


# Zeros of the reduced modified ODE N' = e^(-(c/kappa) N (N + tau + kappa - 1))
# - 2, N(0) = 1, computed once with mpmath 1.3.0 at 30 digits and frozen
# here, rounded to the nearest float: Taylor series (mpmath's ode_taylor)
# with each step capped at min(1e-2, kappa/c), the zero found on the last
# series polynomial. The cap keeps the series' radius estimate from
# stepping over the layer where e^-lambda turns on, as odefun alone does
# at (2000, 1/2). odefun agrees to 22 digits on the first four cells, and
# halving the cap changes no digit at (2000, 1/2).
MODIFIED_TAU0_MPMATH = {
    (1.0, 0.5): 0.7841612534901526,
    (5.0, 0.5): 0.6390079138065663,
    (3.0, 0.1): 0.9000021648029064,
    (0.5, 2.0): 0.8369465873549755,
    (2000.0, 0.5): 0.5069555194056007,   # stiff: default step kappa/c = 2.5e-4
    (8.0, 0.05): 0.95,                   # color-starved: mu/n = kappa
    (20.0, 0.005): 0.995,                # both
}


@pytest.mark.parametrize("c, kappa", MODIFIED_TAU0_MPMATH)
def test_integrate_modified_against_mpmath(c, kappa):
    # The last step is bisected until |N| < 1e-10, and N' = e^0 - 2 = -1 at
    # the zero, so that leaves tau0 within 1e-10 of the RK4 run's zero; the
    # RK4 error at the default step gets as much again. The default step
    # is 2.1e-11 to 6.0e-11 off on these cells.
    got = integrate_modified(TheoryParams(c, kappa)).tau0
    assert abs(got - MODIFIED_TAU0_MPMATH[c, kappa]) <= 2e-10


class TestDefaultStep:
    """integrate_modified's default step, min(1e-3, kappa/c), on a 40 x 40
    log grid over c in [0.05, 20] x kappa in [0.005, 20]."""

    GRID = [(float(c), float(kappa)) for c in np.geomspace(0.05, 20.0, 40)
            for kappa in np.geomspace(0.005, 20.0, 40)]
    # the benchmark's theory grid
    THEORY_CELLS = [(c, kappa) for c in (0.5, 1.0, 2.0, 3.0, 5.0, 8.0)
                    for kappa in (0.1, 0.25, 0.52, 0.75, 1.0, 2.0, 5.0, 10.0)]

    def test_grid(self):
        trajs = {cell: integrate_modified(TheoryParams(*cell)) for cell in self.GRID}
        for (c, kappa), traj in trajs.items():
            assert traj.taus[1] == max(1e-6, min(1e-3, kappa / c))
        # a flat 1e-3 fails the residual check on exactly these four
        stiffest = sorted(trajs, key=lambda cell: cell[0] / cell[1])[-4:]
        assert all(c / kappa > 2780 for c, kappa in stiffest)
        for cell in stiffest:
            with pytest.raises(IntegrationFailure, match="residual"):
                integrate_modified(TheoryParams(*cell), step=1e-3)
        # an explicit step below the default takes the Newton refinement
        for cell in self.THEORY_CELLS:
            trajs[cell] = integrate_modified(TheoryParams(*cell))
        for cell, default in trajs.items():
            fine = integrate_modified(TheoryParams(*cell), step=1e-4)
            assert abs(default.tau0 - fine.tau0) < 1e-9

    def test_harness_uses_the_default(self):
        for c, kappa in self.THEORY_CELLS[::7] + [(20.0, 0.005)]:
            p = TheoryParams(c, kappa)
            assert theory_mu_over_n(c, kappa, "modified") == \
                integrate_modified(p).mu_over_n

    def test_floor(self):
        # kappa/c = 5e-7 is below the smallest step allowed
        assert integrate_modified(TheoryParams(1000.0, 0.0005)).taus[1] == 1e-6


# modified_upper_bound over c in [1e-300, 1.7e308], each the nearest float
# to the value of tests/freeze_upper_bound.py at 60 digits, the same float at
# 80; dense where 1 + expm1(-c)/c cancels (c below 1).
UPPER_BOUND_MPMATH = {
    1e-300: 5e-301,
    1e-280: 5e-281,
    1e-260: 5e-261,
    1e-240: 5e-241,
    1e-220: 5e-221,
    1e-200: 5e-201,
    1e-180: 5e-181,
    1e-160: 5e-161,
    1e-140: 5e-141,
    1e-120: 5e-121,
    1e-100: 5e-101,
    1e-80: 5e-81,
    1e-60: 5e-61,
    1e-40: 5e-41,
    1e-20: 5e-21,
    1e-18: 5e-19,
    3e-18: 1.5e-18,
    1e-17: 5e-18,
    3e-17: 1.5e-17,
    1e-16: 4.999999999999999e-17,
    3e-16: 1.4999999999999995e-16,
    1e-15: 4.999999999999996e-16,
    3e-15: 1.4999999999999962e-15,
    1e-14: 4.999999999999958e-15,
    3e-14: 1.4999999999999624e-14,
    1e-13: 4.9999999999995836e-14,
    3e-13: 1.4999999999996248e-13,
    1e-12: 4.999999999995834e-13,
    3e-12: 1.49999999999625e-12,
    1e-11: 4.999999999958333e-12,
    3e-11: 1.4999999999625e-11,
    1e-10: 4.999999999583334e-11,
    3e-10: 1.499999999625e-10,
    1e-09: 4.999999995833333e-10,
    3e-09: 1.49999999625e-09,
    1e-08: 4.9999999583333336e-09,
    3e-08: 1.4999999625000007e-08,
    1e-07: 4.9999995833333664e-08,
    3e-07: 1.49999962500009e-07,
    1e-06: 4.999995833336667e-07,
    3e-06: 1.499996250009e-06,
    1e-05: 4.999958333666665e-06,
    3e-05: 1.4999625008999786e-05,
    0.0001: 4.999583366664014e-05,
    0.0003: 0.00014996250899785175,
    0.001: 0.0004995836664015999,
    0.003: 0.0014962589785636779,
    0.01: 0.004958664034833304,
    0.03: 0.01463379013536808,
    0.1: 0.04614209436463156,
    0.3: 0.11976537111211857,
    0.5: 0.17563936464993593,
    0.9: 0.2540836803459061,
    0.99: 0.2675221416763453,
    1.0: 0.2689414213699951,
    1.01: 0.27034666125395895,
    1.5: 0.32527567351258874,
    3.0: 0.40591554467867363,
    10.0: 0.4736854681390937,
    30.0: 0.49152542372881436,
    100.0: 0.49748743718592964,
    300.0: 0.4991652754590985,
    1e+20: 0.5,
    1e+40: 0.5,
    1e+60: 0.5,
    1e+80: 0.5,
    1e+100: 0.5,
    1e+120: 0.5,
    1e+140: 0.5,
    1e+160: 0.5,
    1e+180: 0.5,
    1e+200: 0.5,
    1e+220: 0.5,
    1e+240: 0.5,
    1e+260: 0.5,
    1e+280: 0.5,
    1e+300: 0.5,
    1e+305: 0.5,
    1e+308: 0.5,
    1.7e+308: 0.5,
}


class TestUpperBound:
    def test_full_float_precision(self):
        far = {c: (modified_upper_bound(c) - want) / math.ulp(want)
               for c, want in UPPER_BOUND_MPMATH.items()
               if abs(modified_upper_bound(c) - want) > 4 * math.ulp(want)}
        assert far == {}   # c: error in ulps

    def test_values(self):
        assert modified_upper_bound(1.0) == pytest.approx(0.2689414213699951, abs=1e-12)
        assert modified_upper_bound(5.0) == pytest.approx(0.44486005594667855, abs=1e-12)

    def test_limit(self):
        assert modified_upper_bound(1e6) == pytest.approx(0.5, abs=1e-5)

    @pytest.mark.parametrize("c, want", [(1e308, 0.5), (1.7e308, 0.5),
                                         (1e-8, 5e-9), (1e-300, 5e-301)])
    def test_extreme_c(self, c, want):
        # 2c used to overflow to a bound of 0.0, 2c - 1 + e^-c to cancel to
        # a division by zero, and c - 1 + e^-c to cancel to a bound of 0.0
        # below c = 1e-16; the bound is about c/2 for small c
        assert modified_upper_bound(c) == pytest.approx(want, rel=1e-7, abs=0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            modified_upper_bound(0.0)


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
    return OdeTrajectory(taus=np.array(taus + [tau0]),
                         values=np.array(vals + [m0]), tau0=tau0,
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
    return OdeTrajectory(taus=t_arr, values=n_arr, tau0=tau0,
                         mu_over_n=1.0 - tau0)


def _tau0_scan(params):
    c, kap = params.c, params.kappa
    if abs(2.0 * kap - 1.0) < 1e-4:   # f_kappa's guard; see TAU0_MPMATH_FULL
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
    and mu_over_n within 1e-12. Where the loop's math.exp overflows, an
    IntegrationFailure naming the cell. Returns the exception class or
    None."""
    try:
        want = loop(params, step)
    except OverflowError:
        msg = f"overflows in an RK4 stage for params {params}"
        with pytest.raises(IntegrationFailure, match=re.escape(msg)):
            integrate(params, step=step)
        return IntegrationFailure
    except IntegrationFailure as exc:
        with pytest.raises(type(exc)) as got:
            integrate(params, step=step)
        assert type(got.value) is type(exc)
        assert str(got.value) == str(exc)
        return type(exc)
    got = integrate(params, step=step)
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
    that takes in the greedy refusals and the color-starved modified cells
    at small kappa."""

    def test_integrate_greedy(self, step):
        refused = {(c, kappa) for c in GRID_C for kappa in GRID_KAPPA
                   if assert_same_as_loop(integrate_greedy, _greedy_loop,
                                          TheoryParams(c, kappa), step)}
        assert {(3.0, 0.1), (5.0, 0.1), (8.0, 0.1)} <= refused
        assert not any(kappa >= 0.25 for _, kappa in refused)

    def test_integrate_modified(self, step):
        raised = [cell for cell in ((c, kappa) for c in GRID_C for kappa in GRID_KAPPA)
                  if assert_same_as_loop(integrate_modified, _modified_loop,
                                         TheoryParams(*cell), step)]
        assert raised == []


@pytest.mark.parametrize("c, kappa, step, raised", [
    (100.0, 0.01, 1e-2, IntegrationFailure),    # runaway: too stiff for the step
    (8.0, 0.05, 1e-2, None),                    # color-starved, integrates
    (1000.0, 0.001, 1e-3, IntegrationFailure),  # e^-lambda overflows in a stage
    # stiff cells refined below their default steps, 2.5e-4 and 5e-5
    (2000.0, 0.5, 1e-4, None),
    (2000.0, 0.5, 1e-5, None),
    (1e4, 0.5, 2e-5, None),
])
def test_integrate_modified_stiff_corners(c, kappa, step, raised):
    assert assert_same_as_loop(integrate_modified, _modified_loop,
                               TheoryParams(c, kappa), step) is raised


def test_tau0_general_same_as_scalar_scan():
    for c in GRID_C:
        # next to kappa = 1/2 the scan loses digits; see TAU0_MPMATH_FULL
        for kappa in GRID_KAPPA + (0.3, 50.0):
            got = tau0_general(TheoryParams(c, kappa))
            assert type(got) is float
            assert got == pytest.approx(_tau0_scan(TheoryParams(c, kappa)),
                                        abs=1e-12)


@pytest.mark.parametrize("step", [None, 1e-3])
def test_integrate_modified_at_default_step_or_above_is_the_loop(step):
    # no refinement: the scalar loop at the step itself, bit for bit
    for c in GRID_C:
        for kappa in GRID_KAPPA:
            p = TheoryParams(c, kappa)
            got = integrate_modified(p, step=step)
            used = max(1e-6, min(1e-3, kappa / c)) if step is None else step
            want = _modified_loop(p, used)
            assert got.taus[1] == used
            assert np.array_equal(got.taus, want.taus)
            assert np.array_equal(got.values, want.values)
            assert got.tau0 == want.tau0


def test_refinement_that_does_not_converge_raises(monkeypatch):
    p = TheoryParams(1.0, 0.5)
    monkeypatch.setattr(ode_theory, "_NEWTON_ITERS", 0)
    with pytest.raises(IntegrationFailure, match="Newton refinement"):
        integrate_modified(p, step=1e-4)
    integrate_modified(p)   # the default step runs no refinement


def _affine_blocks():
    rng = np.random.default_rng(3)
    b = rng.normal(size=1000)
    # the product of the a's underflows: recursive doubling
    yield rng.uniform(0.0, 1.2, 1000), b
    # a's next to 1, as Newton's J is far from the stiffness limit:
    # P = cumprod(a) stays a normal float and d = P cumsum(b / P)
    yield 1.0 - rng.uniform(-1e-3, 1e-2, 1000), b
    # a J <= 0, as in a block whose step is past kappa/c: doubling
    a = 1.0 - rng.uniform(-1e-3, 1e-2, 1000)
    a[[10, 500]] = (-0.5, 0.0)
    yield a, b


@pytest.mark.parametrize("a, b", _affine_blocks(),
                         ids=["underflow", "near_one", "nonpositive"])
def test_affine_scan_matches_the_recurrence(a, b):
    want, d = [], 0.0
    for ak, bk in zip(a, b):
        d = ak * d + bk
        want.append(d)
    got = ode_theory._affine_scan(a.copy(), b.copy())
    assert np.max(np.abs(got - want)) < 1e-13


def test_affine_scan_blocks_take_both_branches():
    (under, _), (near_one, _), (nonpositive, _) = _affine_blocks()
    assert np.cumprod(under).min() < np.finfo(float).tiny
    assert np.cumprod(near_one).min() >= np.finfo(float).tiny and near_one.min() > 0.0
    assert nonpositive.min() <= 0.0


def test_refinement_peak_memory_below_the_loop():
    # blocks bound the refinement's temporaries, so a step of 1e-5 peaks
    # below the sequential loop, whose Python lists cost 32 B a step each
    # (a Newton over the whole trajectory at once peaks well above it)
    p = TheoryParams(1.0, 0.5)
    peaks = []
    for integrate in (integrate_modified, _modified_loop):
        tracemalloc.start()
        try:
            integrate(p, 1e-5)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < peaks[1]


def _one_pass_residual(traj, params):
    """integrate_modified's integral-form residual in one pass over the
    whole returned trajectory."""
    ratio, kap = params.c / params.kappa, params.kappa
    t_arr, n_arr = traj.taus, traj.values
    g = np.exp(-ratio * n_arr * (n_arr + t_arr + kap - 1.0))
    integral = np.concatenate(([0.0], np.cumsum(0.5 * (g[1:] + g[:-1])
                                               * np.diff(t_arr))))
    return float(np.max(np.abs(n_arr - (1.0 - 2.0 * t_arr + integral))))


@pytest.mark.parametrize("step", [None, 1e-4, 1e-5])
@pytest.mark.parametrize("c, kappa", [
    (1.0, 0.5), (0.5, 0.1), (3.0, 0.25), (8.0, 0.52), (5.0, 2.0), (2.0, 10.0),
    (2000.0, 0.5), (5.0, 0.05), (20.0, 0.005), (8.0, 0.05),
])
def test_residual_is_the_one_pass_formula(c, kappa, step):
    # accumulated block by block, with the e^-lambda of Newton's last check
    # on refined runs, it is the same float as one pass over the trajectory
    p = TheoryParams(c, kappa)
    used = ode_theory._modified_default_step(c, kappa) if step is None else step
    traj, resid = ode_theory._modified_run(p, used)
    assert type(resid) is float
    assert resid == _one_pass_residual(traj, p)


@pytest.mark.parametrize("c, kappa, step", [
    (1.0, 0.5, 1e-5),       # refined, about 78,000 steps
    (0.5, 0.1, 1e-5),       # refined, color-starved, about 91,000 steps
    # the scalar loop at its default step 1e-5, 10^5 steps (at the 1e-6
    # floor, (100, 1e-4) peaks at 17 bytes a step, but tracemalloc makes its
    # 10^6 steps of Python floats take about 45 s)
    (10.0, 1e-4, None),
])
def test_peak_memory_per_step(c, kappa, step):
    # 8 bytes a step for the returned taus and as much for the values;
    # everything else is a block long (one pass with a list of values
    # peaked at 64 bytes a step refined and at 88 bytes in the loop)
    tracemalloc.start()
    try:
        traj = integrate_modified(TheoryParams(c, kappa), step=step)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * len(traj.taus)


def test_refinement_goes_past_its_arrays_to_a_later_fine_zero():
    # a coarse run cut one node short puts its "zero" up to a coarse step
    # early, so the fine zero lies past the arrays sized from it and the
    # blocks go on _PAST steps at a time; the values stay the refined run's
    p, step = TheoryParams(1.0, 0.5), 1e-5
    want = integrate_modified(p, step=step)
    coarse = integrate_modified(p)
    nodes, ys = coarse.taus[:-1].copy(), coarse.values[:-1].copy()
    assert want.tau0 - nodes[-1] > (ode_theory._PAST + 1) * step
    res = ode_theory._IntegralResidual(-p.c / p.kappa, p.kappa)
    taus, values, tau, nv, nxt = ode_theory._refine_modified(
        p, step, coarse.taus[1], nodes, ys, res)
    assert len(taus) > int(nodes[-1] / step) + ode_theory._PAST + 1
    assert np.array_equal(taus[:-1], want.taus[:-1])
    assert np.max(np.abs(values[:-1] - want.values[:-1])) <= 1e-15
    assert (tau, nv) == (taus[-2], values[-2]) and nv > 0.0 >= nxt


# sha256 of integrate_greedy's taus then values (little-endian float64),
# tau0 as float.hex and the number of points, for (c, kappa, step); the
# values of blocks collected in lists and concatenated at the end, which the
# arrays allocated once must match bit for bit
GREEDY_FROZEN = [
    ((1, 0.5, None), "41aa97451f40e71d333110cb5e220aada7fd28790a2c3c7ba7e8fe89e96efc30",
     "0x1.b0cb174e665d8p-3", 21134),
    ((5, 2, None), "f14c067e16cc34032e7e860e05958378f287deaefe1076e4024958ac13d3ba34",
     "0x1.9e06e728641e6p-2", 40434),
    ((0.5, 0.1, 0.0001), "a1ab2d10f70aa946145676ffa501407c3c1d0ce1f9304d0dd2878335829429db",
     "0x1.5f907ad42c431p-4", 860),
    ((8, 10, 0.001), "a65078eb02de749b7ee96324bd04f2b4218359b7b63d0c7181de0441d2ceb2cd",
     "0x1.c53a389ba5e3bp-2", 444),
    ((2000, 0.5, None), "f48da5a9e7bd0efc161c04a1908fc2a1cd6e77ba6c585677ccf55860d9e9bf67",
     "0x1.f7e7d426fffd2p-2", 49211),
    ((3, 0.25, None), "6ceac2fba5240a66db9c1626b3517ee0b78d96ede195d6b07ebd73cefa500d2c",
     "0x1.d7d070b8d0899p-3", 23039),
    ((1, 0.5, 1e-06), "4ae4d10c617d766e2a6549a9ae61da2add70300a73fa9796ecb564d6efdcbd74",
     "0x1.b0cb1750804afp-3", 211326),
]


@pytest.mark.parametrize("cell, digest, tau0, points", GREEDY_FROZEN,
                         ids=[f"{c}-{kappa}-{step}" for (c, kappa, step), *_ in GREEDY_FROZEN])
def test_integrate_greedy_output_frozen(cell, digest, tau0, points):
    c, kappa, step = cell
    traj = integrate_greedy(TheoryParams(c, kappa), step=step)
    data = (np.ascontiguousarray(traj.taus, "<f8").tobytes()
            + np.ascontiguousarray(traj.values, "<f8").tobytes())
    assert (hashlib.sha256(data).hexdigest(), traj.tau0.hex(), len(traj.taus)) == (
        digest, tau0, points)
    assert traj.mu_over_n == traj.tau0


@pytest.mark.parametrize("early", [0.0, 0.5])
def test_integrate_greedy_grows_past_a_short_estimate(monkeypatch, early):
    # an estimate at 0 or at half the zero sizes the arrays short, so they
    # grow a block at a time; the trajectory stays the same
    p = TheoryParams(1.0, 0.5)
    want = integrate_greedy(p, step=1e-5)
    monkeypatch.setattr(ode_theory, "tau0_general", lambda params: early * want.tau0)
    got = integrate_greedy(p, step=1e-5)
    assert len(got.taus) > 2 * ode_theory._BLOCK
    assert np.array_equal(got.taus, want.taus)
    assert np.array_equal(got.values, want.values)
    assert got.tau0 == want.tau0


@pytest.mark.parametrize("c, kappa", [(1.0, 0.5), (5.0, 2.0)])
def test_integrate_greedy_peak_memory_per_step(c, kappa):
    # 8 bytes a step for the taus and as much for the values, allocated once;
    # the rest is a block long: 19.1 and 17.6 bytes a step measured (block
    # lists concatenated at the end peaked at 33-34)
    tracemalloc.start()
    try:
        traj = integrate_greedy(TheoryParams(c, kappa), step=1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 22 * len(traj.taus)
