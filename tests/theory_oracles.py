"""Closed forms, series and shape checks that only the tests use.

Each is an independent statement of a result that the package computes
another way: the closed forms of the edge-greedy ODE (the package bisects
their root in tau and integrates the ODE by RK4), the leading
series of the near-half constant, the large-kappa correction and its
leading root estimate, and the convexity of N * Q along a modified
trajectory.
"""

from __future__ import annotations

import math

import numpy as np

from rainbow_greedy.ode_theory import OdeTrajectory, TheoryParams


# -- edge greedy closed forms ---------------------------------------------------

def m_closed_half(tau: float, c: float) -> float:
    """Closed-form M(tau) at color density kappa = 1/2."""
    s = 1.0 - 2.0 * tau
    return ((2.0 * c + 1.0) * s ** 3 - s) / 4.0


def f_kappa(tau: float, c: float, kappa: float) -> float:
    """Sign-carrying factor of the general closed form for M.

    m_closed_general(tau) = (kappa - tau)(1 - 2 tau)^2 / (2 kappa - 1)^2
                            * f_kappa(tau),
    so M and f_kappa vanish together. Both cancel next to kappa = 1/2, so
    |2 kappa - 1| < 1e-4 is refused.
    """
    if abs(2.0 * kappa - 1.0) < 1e-4:
        raise ValueError("kappa is within 5e-5 of 1/2; use m_closed_half")
    if not 0 <= tau < min(0.5, kappa):
        raise ValueError(f"tau={tau} outside [0, min(1/2, kappa))")
    e = 2.0 * kappa - 1.0
    return (c * e * e / (2.0 * kappa)
            + math.log((kappa - tau) / (kappa * (1.0 - 2.0 * tau)))
            - 2.0 * e * tau / (1.0 - 2.0 * tau))


def m_closed_general(tau: float, c: float, kappa: float) -> float:
    """Closed-form M(tau) for kappa away from 1/2."""
    e = 2.0 * kappa - 1.0
    pref = (kappa - tau) * (1.0 - 2.0 * tau) ** 2 / (e * e)
    return pref * f_kappa(tau, c, kappa)


# -- asymptotic series ------------------------------------------------------------

def near_half_alpha_series(params: TheoryParams) -> float:
    """Leading expansion of asymptotics.near_half_alpha in eps = 2 kappa - 1:
    eps^2 (c + 1/2) - eps^3 (c + 1/3)."""
    c = params.c
    e = 2.0 * params.kappa - 1.0
    return e * e * (c + 0.5) - e ** 3 * (c + 1.0 / 3.0)


def epsilon_kappa(params: TheoryParams) -> float:
    """First-order color-finiteness correction in the large-kappa regime:
    log(c + 1)/(2 kappa - 1) - c/(2 kappa). Vanishes as kappa -> infinity."""
    c, kap = params.c, params.kappa
    return math.log(c + 1.0) / (2.0 * kap - 1.0) - c / (2.0 * kap)


def large_kappa_leading_estimate(params: TheoryParams) -> float:
    """Explicit leading form of tau0 for many colors:
    (1 - 1/(c + 1 + epsilon_kappa)) / 2.

    Not guaranteed to land inside the large-kappa bracket (the bracket's
    own estimate is)."""
    c = params.c
    return 0.5 * (1.0 - 1.0 / (c + 1.0 + epsilon_kappa(params)))


# -- modified trajectory shape ----------------------------------------------------

def convexity_second_differences(traj: OdeTrajectory, kappa: float,
                                 samples: int = 500) -> np.ndarray:
    """Raw second differences of F = N * Q along a modified trajectory.

    Subsamples the uniform part of the grid (the refined final point is
    dropped) so the differences are taken at equal tau spacing. F convex
    means these are nonnegative up to discretization noise.
    """
    taus = traj.taus[:-1]
    nvals = traj.values[:-1]
    if len(taus) < 3:
        return np.empty(0)
    stride = max(1, len(taus) // samples)   # uniform spacing, or the second
    idx = np.arange(0, len(taus), stride)   # differences pick up slope terms
    t = taus[idx]
    nv = nvals[idx]
    f = nv * (nv + t + kappa - 1.0)
    return f[2:] - 2.0 * f[1:-1] + f[:-2]
