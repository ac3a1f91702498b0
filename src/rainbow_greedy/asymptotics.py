"""Regime-specific brackets for the edge-greedy stopping time tau0.

tau0 is the first zero of the factor of the closed-form M that carries
its sign (see ode_theory), f(tau) = c (2 kappa - 1)^2 / (2 kappa) +
log((kappa - tau) / (kappa (1 - 2 tau))) - 2 (2 kappa - 1) tau / (1 - 2 tau).
Three parameter regimes admit two-sided elementary bounds, each obtained
by a change of variables that turns the stopping condition into a
perturbed fixed-point equation:

* near half color density: substitute h = (2 kappa - 1)/(1 - 2 tau); the
  stopping condition becomes h - log(1 + h) = alpha with alpha -> 0 as
  kappa -> 1/2, and sqrt(2 alpha) pins h on both sides.
* large kappa (many colors): substitute z = (kappa - tau)/(kappa (1 - 2 tau));
  the condition becomes z = beta + log(z)/(2 kappa), a contraction whose
  fixed point is trapped by perturbing beta with delta in
  [1/(2 kappa beta), 1/(2 kappa beta - 1)].
* small kappa (scarce colors): the root sits exponentially close to kappa
  itself, squeezed between kappa (1 - e^{-(c/(2 kappa) - 2c)}) and
  kappa (1 - e^{-c/(2 kappa)}).

Each constructor raises RegimeError outside its validity gate.
experiment_harness.asymptotics_report checks each bracket that accepts a
(c, kappa) against the exact root ode_theory.tau0_general.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ode_theory import TheoryParams, _psi

# tau0_large_kappa admits c down to this fraction of the nominal threshold
# large_kappa_threshold(kappa), so that useful parameter points just below
# it are bracketed too. The slack is a heuristic, and the threshold itself
# does not guarantee containment: at c = 8, kappa = 5 and kappa = 10, far
# above the gate (about 1.9 and 1.7), the exact root lies below the lower
# endpoint, and asymptotics --c 8 --kappa 5,10 --check exits 1. On an
# 80 x 80 log grid over c in [1, 200] x kappa in [1, 1e4] the root lies
# outside the bracket in 3425 of the 5683 admitted cells: 3064 below the
# lower endpoint, and 361 above an upper endpoint that is often less than
# one float step from the lower one.
LARGE_KAPPA_GATE_SLACK = 0.9


class RegimeError(ValueError):
    """Parameters outside the validity gate of an asymptotic regime."""


@dataclass(frozen=True)
class Bracket:
    """Two-sided bound with a point estimate, lower <= estimate <= upper."""
    lower: float
    upper: float
    estimate: float
    regime: str

    def __post_init__(self):
        if not self.lower <= self.upper + 1e-12:
            raise ValueError(f"inverted bracket: {self.lower} > {self.upper}")
        if not (self.lower - 1e-12 <= self.estimate <= self.upper + 1e-12):
            raise ValueError(f"estimate {self.estimate} outside "
                             f"[{self.lower}, {self.upper}]")

    def contains(self, x: float) -> bool:
        return self.lower <= x <= self.upper


def near_half_alpha(params: TheoryParams) -> float:
    """Constant term of the transformed stopping condition near kappa = 1/2:
    c (2 kappa - 1)^2 / (2 kappa) + log(1/(2 kappa)) + (2 kappa - 1).

    Vanishes quadratically at kappa = 1/2: to leading order it is
    eps^2 (c + 1/2) - eps^3 (c + 1/3) with eps = 2 kappa - 1. Evaluated as
    eps^2 (c / (2 kappa) + psi(eps)) with ode_theory._psi, which does not cancel.
    """
    c, kap = params.c, params.kappa
    e = 2.0 * kap - 1.0
    return e * e * (c / (2.0 * kap) + _psi(e, 2.0 * kap))


def tau0_near_half(params: TheoryParams) -> Bracket:
    """Bracket tau0 for kappa near 1/2 via h = (2 kappa - 1)/(1 - 2 tau).

    For kappa > 1/2 the root h is trapped in
    [sqrt(2 alpha), sqrt(2 alpha / (1 - sqrt(2 alpha)))] (gate
    sqrt(2 alpha) < 0.9); for kappa < 1/2, |h| lies in
    [sqrt(2 alpha / (1 + sqrt(2 alpha))), sqrt(2 alpha)] (gate <= 1/3).
    The estimate is the sqrt(2 alpha) endpoint, the leading-order root.
    """
    c, kap = params.c, params.kappa
    eps = 2.0 * kap - 1.0
    if eps == 0.0:
        raise RegimeError("kappa is exactly 1/2; tau0_closed_half is exact there")
    a = near_half_alpha(params)
    if a <= 0.0:
        raise RegimeError(f"transformed constant alpha={a} is not positive")
    s = math.sqrt(2.0 * a)

    def tau_of_h(h: float) -> float:
        return 0.5 * (1.0 - eps / h)

    if eps > 0:
        if not s < 0.9:
            raise RegimeError(f"sqrt(2 alpha)={s:.4f} >= 0.9; kappa too far "
                              f"above 1/2 for the near-half bracket")
        lower = tau_of_h(s)
        upper = tau_of_h(math.sqrt(2.0 * a / (1.0 - s)))
        estimate = lower
    else:
        if not s <= 1.0 / 3.0:
            raise RegimeError(f"sqrt(2 alpha)={s:.4f} > 1/3; kappa too far "
                              f"below 1/2 for the near-half bracket")
        lower = tau_of_h(-math.sqrt(2.0 * a / (1.0 + s)))
        upper = tau_of_h(-s)
        estimate = upper
    return Bracket(lower=lower, upper=upper, estimate=estimate,
                   regime="near-half")


def large_kappa_threshold(kappa: float) -> float:
    """Smallest average degree the large-kappa bracket nominally requires:
    (e - 1) (2 kappa / (2 kappa - 1))^2."""
    if kappa <= 0.5:
        raise ValueError(f"kappa must exceed 1/2, got {kappa}")
    r = kappa / (kappa - 0.5)   # 2 kappa / (2 kappa - 1), with no 2 kappa to overflow
    return (math.e - 1.0) * r * r


def tau0_large_kappa(params: TheoryParams) -> Bracket:
    """Bracket tau0 for many colors via z = (kappa - tau)/(kappa (1 - 2 tau)).

    The stopping condition reads z = beta + log(z)/(2 kappa) with
    beta = c ((2 kappa - 1)/(2 kappa))^2 + 1. Perturbing beta by
    delta in [1/(2 kappa beta), 1/(2 kappa beta - 1)] traps the fixed point;
    mapping back through the increasing tau(z) gives the bracket. The
    estimate uses the midpoint delta. Gate: kappa >= 1 and
    c >= LARGE_KAPPA_GATE_SLACK * large_kappa_threshold(kappa).
    """
    c, kap = params.c, params.kappa
    if kap < 1.0:
        raise RegimeError(f"kappa={kap} < 1; large-kappa bracket needs kappa >= 1")
    gate = LARGE_KAPPA_GATE_SLACK * large_kappa_threshold(kap)
    if c < gate:
        raise RegimeError(f"c={c} below the large-kappa degree gate {gate:.4f}")
    # (2 kappa - 1)/(2 kappa) and log(beta)/(2 kappa) without forming
    # 2 kappa, which overflows for kappa above about 9e307
    beta = c * ((kap - 0.5) / kap) ** 2 + 1.0
    logb = math.log(beta)
    d_lo = 1.0 / (2.0 * kap * beta)
    d_hi = 1.0 / (2.0 * kap * beta - 1.0)

    def tau_of_delta(d: float) -> float:
        z = beta + (1.0 + d) * logb / 2.0 / kap
        den = 2.0 * kap * z - 1.0
        if den < math.inf:
            return kap * (z - 1.0) / den
        # 2 kappa z is past the float range: divided through by kappa z
        return (1.0 - 1.0 / z) / (2.0 - 1.0 / kap / z)

    return Bracket(lower=tau_of_delta(d_lo), upper=tau_of_delta(d_hi),
                   estimate=tau_of_delta(0.5 * (d_lo + d_hi)),
                   regime="large-kappa")


def tau0_small_kappa_bounds(params: TheoryParams) -> Bracket:
    """Bracket tau0 for scarce colors (kappa < 1/(2c), c > 5).

    The process is color-starved: almost every color is consumed, so tau0
    hugs kappa from below, within a factor exponentially small in c/kappa:
    kappa (1 - e^{-(c/(2 kappa) - 2c)}) <= tau0 <= kappa (1 - e^{-c/(2 kappa)}).
    The estimate is the upper endpoint (the tighter side).
    """
    c, kap = params.c, params.kappa
    if not c > 5.0:
        raise RegimeError(f"c={c} not above 5; small-kappa bounds need c > 5")
    if not kap < 1.0 / (2.0 * c):
        raise RegimeError(f"kappa={kap} not below 1/(2c)={1.0 / (2.0 * c):.4f}")
    lower = kap * (1.0 - math.exp(-(c / (2.0 * kap) - 2.0 * c)))
    upper = kap * (1.0 - math.exp(-c / (2.0 * kap)))
    return Bracket(lower=lower, upper=upper, estimate=upper,
                   regime="small-kappa")

