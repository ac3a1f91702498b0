import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from rainbow_greedy.asymptotics import (
    Bracket,
    RegimeError,
    large_kappa_threshold,
    near_half_alpha,
    tau0_large_kappa,
    tau0_near_half,
    tau0_small_kappa_bounds,
)
from rainbow_greedy.ode_theory import TheoryParams, tau0_closed_half, tau0_general
from test_ode_theory import TAU0_MPMATH_FULL
from theory_oracles import (
    epsilon_kappa,
    large_kappa_leading_estimate,
    near_half_alpha_series,
)


def z_of_tau(tau, kappa):
    return (kappa - tau) / (kappa * (1.0 - 2.0 * tau))


class TestBracket:
    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            Bracket(lower=0.3, upper=0.2, estimate=0.25, regime="x")

    def test_rejects_outside_estimate(self):
        with pytest.raises(ValueError):
            Bracket(lower=0.2, upper=0.3, estimate=0.4, regime="x")

    def test_contains_and_width(self):
        b = Bracket(lower=0.2, upper=0.3, estimate=0.25, regime="x")
        assert b.contains(0.2) and b.contains(0.3) and not b.contains(0.31)
        assert b.upper - b.lower == pytest.approx(0.1, abs=1e-15)


class TestAlpha:
    def test_zero_at_half(self):
        assert near_half_alpha(TheoryParams(1.0, 0.5)) == 0.0

    def test_frozen_value(self):
        # direct evaluation of the defining expression at c=1, kappa=0.55
        assert near_half_alpha(TheoryParams(1.0, 0.55)) == pytest.approx(
            0.013780729286584206, abs=1e-12)

    def test_series_agreement(self):
        # relative error under 10 eps^2 for |eps| <= 0.1, down to |eps| =
        # 1e-8, where a difference of logs would have lost every digit;
        # 1e-14 allows for rounding
        for c in (0.5, 1.0, 3.0):
            for eps in (-0.1, -0.05, -0.01, -1e-5, -1e-6, -1e-8,
                        1e-8, 1e-6, 1e-5, 0.01, 0.05, 0.1):
                p = TheoryParams(c, (1 + eps) / 2)
                exact = near_half_alpha(p)
                series = near_half_alpha_series(p)
                assert abs(exact - series) <= (10 * eps * eps + 1e-14) * abs(exact)

    def test_positive_off_half(self):
        for kappa in (0.45, 0.48, 0.52, 0.55, 0.7):
            assert near_half_alpha(TheoryParams(1.0, kappa)) > 0


class TestNearHalf:
    def test_containment_above_half(self):
        for kappa in (0.52, 0.55, 0.6):
            p = TheoryParams(1.0, kappa)
            b = tau0_near_half(p)
            assert b.contains(tau0_general(p)), (kappa, b)

    def test_containment_below_half(self):
        for kappa in (0.45, 0.48):
            p = TheoryParams(1.0, kappa)
            b = tau0_near_half(p)
            assert b.contains(tau0_general(p)), (kappa, b)

    def test_estimate_side(self):
        above = tau0_near_half(TheoryParams(1.0, 0.55))
        assert above.estimate == above.lower
        below = tau0_near_half(TheoryParams(1.0, 0.45))
        assert below.estimate == below.upper

    @pytest.mark.parametrize("c, kappa", [
        cell for cell in TAU0_MPMATH_FULL if 0 < abs(2 * cell[1] - 1) < 1e-5])
    def test_contains_frozen_roots_next_to_half(self, c, kappa):
        # the gate admits every frozen cell within 1e-5 of kappa = 1/2, and
        # the bracket holds its 100-digit root
        b = tau0_near_half(TheoryParams(c, kappa))
        assert b.contains(TAU0_MPMATH_FULL[c, kappa])

    def test_collapses_to_half_limit(self):
        b = tau0_near_half(TheoryParams(1.0, 0.5 + 1e-5))
        assert b.upper - b.lower < 1e-3
        assert b.estimate == pytest.approx(tau0_closed_half(1.0), abs=1e-3)

    def test_rejects_exact_half(self):
        with pytest.raises(RegimeError):
            tau0_near_half(TheoryParams(1.0, 0.5))

    def test_rejects_far_above(self):
        with pytest.raises(RegimeError):
            tau0_near_half(TheoryParams(1.0, 2.0))

    def test_rejects_far_below(self):
        with pytest.raises(RegimeError):
            tau0_near_half(TheoryParams(1.0, 0.05))

    def test_regime_label(self):
        assert tau0_near_half(TheoryParams(1.0, 0.55)).regime == "near-half"


class TestLargeKappa:
    def test_threshold_value(self):
        # (e-1) * (20/19)^2 at kappa = 10
        assert large_kappa_threshold(10.0) == pytest.approx(
            (math.e - 1.0) * (20.0 / 19.0) ** 2, abs=1e-12)

    def test_containment(self):
        for (c, kappa) in ((3.0, 5.0), (3.0, 10.0), (3.0, 50.0), (5.0, 2.0)):
            p = TheoryParams(c, kappa)
            b = tau0_large_kappa(p)
            assert b.contains(tau0_general(p)), (c, kappa, b)

    def test_borderline_degree_cell(self):
        # c=3, kappa=2 sits just below the nominal threshold (~3.055); the
        # gate slack admits it and containment still holds
        p = TheoryParams(3.0, 2.0)
        b = tau0_large_kappa(p)
        assert b.contains(0.3615565064717692)

    def test_bracket_tightness(self):
        b = tau0_large_kappa(TheoryParams(3.0, 10.0))
        assert b.upper - b.lower < 1e-3

    def test_infinite_color_limit(self):
        # estimate approaches (1 - 1/(c+1))/2 as kappa grows
        b = tau0_large_kappa(TheoryParams(3.0, 1e6))
        assert b.estimate == pytest.approx(0.375, abs=1e-5)

    @pytest.mark.parametrize("c, kappa", [
        (1e307, 10.0), (1e154, 1e154),     # read [0, 0]
        (2e307, 10.0), (1e308, 10.0), (1e300, 1e300),   # read nan
        (1.7e308, 1.7e308),                # 2 kappa overflows as well
    ])
    def test_huge_degree(self, c, kappa):
        # 2 kappa z passes the float range; the root is 1/2 to the float
        p = TheoryParams(c, kappa)
        b = tau0_large_kappa(p)
        assert all(math.isfinite(x) for x in (b.lower, b.estimate, b.upper))
        assert b.contains(tau0_general(p))

    def test_rejects_low_degree(self):
        with pytest.raises(RegimeError):
            tau0_large_kappa(TheoryParams(1.0, 2.0))
        with pytest.raises(RegimeError):   # 2 kappa past the float range
            tau0_large_kappa(TheoryParams(1.0, 1.7e308))

    def test_rejects_kappa_below_one(self):
        with pytest.raises(RegimeError):
            tau0_large_kappa(TheoryParams(3.0, 0.8))

    def test_z_residual_self_consistency(self):
        # mapping the bracket back to z-space, the estimate's fixed-point
        # residual cannot exceed the bracket's own z-width
        for (c, kappa) in ((3.0, 2.0), (3.0, 5.0), (3.0, 10.0), (3.0, 50.0)):
            b = tau0_large_kappa(TheoryParams(c, kappa))
            beta = c * ((2 * kappa - 1) / (2 * kappa)) ** 2 + 1.0
            z0 = z_of_tau(b.estimate, kappa)
            z_width = z_of_tau(b.upper, kappa) - z_of_tau(b.lower, kappa)
            resid = abs(z0 - beta - math.log(z0) / (2 * kappa))
            assert resid <= z_width + 1e-15


class TestSmallKappa:
    def test_containment(self):
        for (c, kappa) in ((6.0, 0.075), (6.0, 0.08), (8.0, 0.05625)):
            p = TheoryParams(c, kappa)
            b = tau0_small_kappa_bounds(p)
            assert b.contains(tau0_general(p)), (c, kappa, b)

    def test_frozen_endpoints(self):
        b = tau0_small_kappa_bounds(TheoryParams(6.0, 0.075))
        assert b.lower == pytest.approx(0.075 * (1 - math.exp(-(40.0 - 12.0))), abs=1e-18)
        assert b.upper == pytest.approx(0.075 * (1 - math.exp(-40.0)), abs=1e-18)
        assert b.estimate == b.upper

    def test_bounds_collapse_to_kappa(self):
        # both exponentials underflow well below float spacing
        b = tau0_small_kappa_bounds(TheoryParams(20.0, 0.02))
        assert b.lower == 0.02 and b.upper == 0.02

    def test_rejects_degree_five_exactly(self):
        with pytest.raises(RegimeError):
            tau0_small_kappa_bounds(TheoryParams(5.0, 0.05))

    def test_rejects_large_kappa(self):
        with pytest.raises(RegimeError):
            tau0_small_kappa_bounds(TheoryParams(6.0, 0.2))


class TestCaseDCorrection:
    def test_epsilon_kappa_value(self):
        want = math.log(4.0) / 19.0 - 0.15
        assert epsilon_kappa(TheoryParams(3.0, 10.0)) == pytest.approx(want, abs=1e-15)

    def test_epsilon_vanishes_at_infinity(self):
        assert abs(epsilon_kappa(TheoryParams(3.0, 1e9))) < 1e-8

    def test_leading_estimate(self):
        # frozen: 0.5 * (1 - 1/(4 + epsilon)) at c=3, kappa=10
        est = large_kappa_leading_estimate(TheoryParams(3.0, 10.0))
        assert est == pytest.approx(0.3725453, abs=1e-6)
        # close to the exact root but not necessarily inside the bracket
        assert abs(est - 0.3724457434888862) < 5e-4


@settings(max_examples=40, deadline=None)
@given(c=st.floats(0.5, 4.0), kappa=st.floats(0.42, 0.58))
def test_near_half_containment_property(c, kappa):
    assume(abs(2 * kappa - 1) > 1e-3)
    p = TheoryParams(c, kappa)
    try:
        b = tau0_near_half(p)
    except RegimeError:
        assume(False)
        return
    assert b.lower <= b.estimate <= b.upper
    assert b.contains(tau0_general(p))


@settings(max_examples=60, deadline=None)
@given(c=st.floats(5.0, 40.0, exclude_min=True),
       frac=st.floats(1e-6, 1.0, exclude_max=True))
def test_small_kappa_containment_property(c, frac):
    # the kappa the gate admits, kappa < 1/(2c), down to 1e-6 of the bound
    kappa = frac / (2.0 * c)
    assume(kappa < 1.0 / (2.0 * c))   # frac just under 1 can round up to it
    p = TheoryParams(c, kappa)
    b = tau0_small_kappa_bounds(p)
    assert b.lower <= b.estimate <= b.upper <= p.kappa
    assert b.contains(tau0_general(p))


@settings(max_examples=200, deadline=None)
@given(log_c=st.floats(math.log(0.01), math.log(100.0)),
       log_kappa=st.floats(math.log(1e-3), math.log(1e3)))
def test_regime_gates_are_disjoint(log_c, log_kappa):
    p = TheoryParams(math.exp(log_c), math.exp(log_kappa))
    accepted = []
    for op in (tau0_near_half, tau0_large_kappa, tau0_small_kappa_bounds):
        try:
            accepted.append(op(p).regime)
        except RegimeError:
            pass
    assert len(accepted) <= 1, accepted
