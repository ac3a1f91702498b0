"""Differential-equation predictions for both greedy processes.

All quantities are densities against n: time tau = t/n, alive edges
M(tau) = mu_edges/n, alive vertices N(tau) = nu/n, colors kappa = q/n,
average initial degree c = 2m/n.

Edge greedy:
    M' = -1 - 4M/(1 - 2 tau) - M/(kappa - tau),  M(0) = c/2.
The process dies at tau0, the first zero of M, and matches tau0 * n + o(n)
edges. At kappa = 1/2 the solution is the cubic in m_closed_half; away from
1/2 it factors as m_closed_general = prefactor * f_kappa where the sign
lives entirely in f_kappa.

Vertex greedy (modified): with lambda = 2M/N the pair (M, N) evolves as
    M' = lambda (e^-lambda - 2) - M (1 - e^-lambda) / (N + tau + kappa - 1)
    N' = e^-lambda - 2
but on the trajectory M = (c / (2 kappa)) N^2 (N + tau + kappa - 1), which
collapses everything into the single reduced equation in modified_rhs.
N hits zero at tau0 in [1/2, 1] and the matching density is 1 - tau0.
The color budget Q = N + tau + kappa - 1 must stay positive; when colors
run out first (small kappa) the integrator raises ColorDepletionError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class IntegrationFailure(RuntimeError):
    """The integrator could not produce a trusted trajectory."""


class ColorDepletionError(IntegrationFailure):
    """The color budget hit zero while vertices remained."""


@dataclass(frozen=True)
class TheoryParams:
    """Average degree c = 2m/n and color density kappa = q/n."""
    c: float
    kappa: float

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError(f"c must be positive, got {self.c}")
        if not self.kappa > 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")


@dataclass(eq=False)
class OdeTrajectory:
    kind: str                # "greedy" or "modified"
    taus: np.ndarray
    values: np.ndarray       # M for greedy, N for modified
    tau0: float
    step: float
    mu_over_n: float         # tau0 for greedy, 1 - tau0 for modified


# Crossover width around kappa = 1/2 inside which the general closed form is
# ill-conditioned (it divides by (2 kappa - 1)^2) and the half-density cubic
# is used instead.
HALF_CROSSOVER = 1e-4

_ROOT_TOL = 1e-10


# RK4 steps per numpy block in integrate_greedy. Blocks stop the work and
# the temporaries at most one block past the zero; 4096 was the fastest of
# 1024 to 16384 over the theory grid.
_BLOCK = 4096


def _validate_step(step: float) -> None:
    if not 0 < step <= 0.01:
        raise ValueError(f"step must be in (0, 0.01], got {step}")


def _grid(start: float, steps: int, step: float) -> np.ndarray:
    """start and the next `steps` values of a scalar loop's tau += step,
    bit for bit: cumsum adds in order."""
    t = np.full(steps + 1, step)
    t[0] = start
    return np.cumsum(t)


def _rk4(rhs, t, y, h):
    k1 = rhs(t, y)
    k2 = rhs(t + h / 2, y + h * k1 / 2)
    k3 = rhs(t + h / 2, y + h * k2 / 2)
    k4 = rhs(t + h, y + h * k3)
    return y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def _last_step_zero(rhs, tau: float, y: float, step: float,
                    y_next: float) -> tuple[float, float]:
    """Zero of y on the RK4 step from (tau, y > 0) that lands on
    y_next <= 0: bisects the step length until |y| < 1e-10 and returns
    (tau0, y(tau0))."""
    s_lo, s_hi = 0.0, step
    tau0, y0 = tau + step, y_next
    for _ in range(200):
        s_mid = (s_lo + s_hi) / 2
        if s_mid <= s_lo or s_mid >= s_hi:
            break
        y_mid = _rk4(rhs, tau, y, s_mid)
        if abs(y_mid) < _ROOT_TOL:
            return tau + s_mid, y_mid
        if y_mid > 0:
            s_lo = s_mid
        else:
            s_hi = s_mid
            tau0, y0 = tau + s_mid, y_mid
    return tau0, y0


# -- edge greedy ------------------------------------------------------------

def greedy_rhs(tau: float, m: float, c: float, kappa: float) -> float:
    """Slope of the alive-edge density M at (tau, m).

    c only fixes the initial condition M(0) = c/2; it is accepted here so
    all right-hand sides share a signature.
    """
    if not 0 <= tau < min(0.5, kappa):
        raise ValueError(f"tau={tau} outside [0, min(1/2, kappa))")
    return -1.0 - 4.0 * m / (1.0 - 2.0 * tau) - m / (kappa - tau)


def integrate_greedy(params: TheoryParams, step: float = 1e-5) -> OdeTrajectory:
    """Fixed-step RK4 for the edge-greedy ODE up to the first zero of M.

    The final partial step is bisected until |M| < 1e-10, so tau0 is far
    more accurate than the step size. Raises IntegrationFailure if M never
    crosses zero before the domain boundary min(1/2, kappa); that happens
    only in extreme corners (very small kappa) where the zero sits closer
    to the boundary than one step.

    The ODE is linear in M, M' = -1 - a(tau) M, so one RK4 step is an
    affine map M_{k+1} = A_k M_k + B_k. The steps are taken in blocks of
    _BLOCK: numpy computes A and B over the block's grid and solves the
    recurrence with P = cumprod(A), M_{k+1} = P_k (M_0 + sum_{j<=k} B_j/P_j).
    """
    _validate_step(step)
    c, kap = params.c, params.kappa
    guard = min(0.5, kap) - 1e-9
    h = step

    def rhs(t, y):
        return -1.0 - 4.0 * y / (1.0 - 2.0 * t) - y / (kap - t)

    def slope(t):
        return 4.0 / (1.0 - 2.0 * t) + 1.0 / (kap - t)

    taus, vals = [], []
    tau, m = 0.0, c / 2.0
    while True:
        t = _grid(tau, _BLOCK, step)
        t = t[:np.searchsorted(t, guard, side="right")]   # steps that end <= guard
        a = slope(t)
        a_mid = slope(t[:-1] + h / 2)
        # A is the RK4 step of M' = -a M from 1, B that of M' = -1 - a M from 0
        p1 = -a[:-1]
        p2 = -a_mid * (1.0 + h / 2 * p1)
        p3 = -a_mid * (1.0 + h / 2 * p2)
        p4 = -a[1:] * (1.0 + h * p3)
        q2 = -1.0 + a_mid * (h / 2)
        q3 = -1.0 - a_mid * (h / 2 * q2)
        q4 = -1.0 - a[1:] * (h * q3)
        A = 1.0 + h / 6 * (p1 + 2 * p2 + 2 * p3 + p4)
        B = h / 6 * (-1.0 + 2 * q2 + 2 * q3 + q4)
        P = np.cumprod(A)
        ms = P * (m + np.cumsum(B / P))
        hit = np.flatnonzero(ms <= 0.0)
        if hit.size:
            k = hit[0]
            taus.append(t[1:k + 1])
            vals.append(ms[:k])
            if k:
                tau, m = float(t[k]), float(ms[k - 1])
            nxt = float(ms[k])
            break
        if len(t) <= _BLOCK:
            raise IntegrationFailure(
                f"M did not cross zero before the domain boundary "
                f"{min(0.5, kap)} (c={c}, kappa={kap}); the root is closer "
                f"to the boundary than one step")
        taus.append(t[1:])
        vals.append(ms)
        tau, m = float(t[-1]), float(ms[-1])

    tau0, m0 = _last_step_zero(rhs, tau, m, step, nxt)
    return OdeTrajectory(kind="greedy",
                         taus=np.concatenate([[0.0], *taus, [tau0]]),
                         values=np.concatenate([[c / 2.0], *vals, [m0]]),
                         tau0=tau0, step=step, mu_over_n=tau0)


def m_closed_half(tau: float, c: float) -> float:
    """Closed-form M(tau) at color density kappa = 1/2."""
    s = 1.0 - 2.0 * tau
    return ((2.0 * c + 1.0) * s ** 3 - s) / 4.0


def tau0_closed_half(c: float) -> float:
    """First zero of m_closed_half: (1 - 1/sqrt(2c + 1)) / 2."""
    if c < 0:
        raise ValueError(f"c must be nonnegative, got {c}")
    return 0.5 * (1.0 - 1.0 / math.sqrt(2.0 * c + 1.0))


def f_kappa(tau: float, c: float, kappa: float) -> float:
    """Sign-carrying factor of the general closed form for M.

    m_closed_general(tau) = (kappa - tau)(1 - 2 tau)^2 / (2 kappa - 1)^2
                            * f_kappa(tau),
    so M and f_kappa vanish together; the root scan works on f_kappa
    because it stays well-scaled where the prefactor crushes M to zero.
    """
    if abs(2.0 * kappa - 1.0) < HALF_CROSSOVER:
        raise ValueError("kappa is inside the half-density crossover; use "
                         "m_closed_half")
    if not 0 <= tau < min(0.5, kappa):
        raise ValueError(f"tau={tau} outside [0, min(1/2, kappa))")
    return _f_kappa(tau, c, kappa, math.log)


def _f_kappa(tau, c: float, kappa: float, log):
    """f_kappa without its checks, for a float tau with log = math.log or
    an array with log = np.log."""
    e = 2.0 * kappa - 1.0
    return (c * e * e / (2.0 * kappa)
            + log((kappa - tau) / (kappa * (1.0 - 2.0 * tau)))
            - 2.0 * e * tau / (1.0 - 2.0 * tau))


def m_closed_general(tau: float, c: float, kappa: float) -> float:
    """Closed-form M(tau) for kappa away from 1/2."""
    e = 2.0 * kappa - 1.0
    pref = (kappa - tau) * (1.0 - 2.0 * tau) ** 2 / (e * e)
    return pref * f_kappa(tau, c, kappa)


def tau0_general(params: TheoryParams) -> float:
    """First positive zero of M via the closed form, to full float precision.

    Scans f_kappa on a 10^4-point grid over [0, min(1/2, kappa)] for the
    first sign change (the boundary itself counts as negative since M -> 0
    from above there only in degenerate corners), then bisects. Near
    kappa = 1/2 this delegates to the exact half-density formula.
    """
    c, kap = params.c, params.kappa
    if abs(2.0 * kap - 1.0) < HALF_CROSSOVER:
        return tau0_closed_half(c)
    T = min(0.5, kap)

    def signed(t: float) -> float:
        if kap - t <= 0.0 or 1.0 - 2.0 * t <= 0.0:
            return -math.inf
        return _f_kappa(t, c, kap, math.log)

    if signed(0.0) <= 0.0:
        raise IntegrationFailure(f"no alive edges at tau=0 for params {params}")

    grid = 10_000
    t = T * np.arange(1, grid + 1) / grid
    inside = (kap - t > 0.0) & (1.0 - 2.0 * t > 0.0)
    f = np.full(grid, -math.inf)
    f[inside] = _f_kappa(t[inside], c, kap, np.log)
    i = int(np.argmax(f <= 0.0))
    if not f[i] <= 0.0:   # unreachable: signed(T) is -inf
        raise IntegrationFailure(f"no sign change located for params {params}")
    lo, hi = (float(t[i - 1]) if i else 0.0), float(t[i])

    for _ in range(200):
        mid = (lo + hi) / 2
        if mid <= lo or mid >= hi:
            break
        if signed(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi


# -- vertex greedy (modified) ------------------------------------------------

def modified_rhs(tau: float, n_density: float, c: float, kappa: float) -> float:
    """Slope of the alive-vertex density N in the reduced one-equation form.

    Uses the on-trajectory identity lambda = (c/kappa) N (N + tau + kappa - 1)
    to eliminate M; always lies in [-2, -1] for nonnegative arguments.
    """
    lam = (c / kappa) * n_density * (n_density + tau + kappa - 1.0)
    return math.exp(-lam) - 2.0


def m_from_n(tau: float, n_density: float, params: TheoryParams) -> float:
    """Alive-edge density implied by N on the modified trajectory."""
    return (params.c / (2.0 * params.kappa)) * n_density ** 2 \
        * (n_density + tau + params.kappa - 1.0)


def q_fraction(tau: float, n_density: float, kappa: float) -> float:
    """Unconsumed color density Q = N + tau + kappa - 1 (Q(0) = kappa)."""
    return n_density + tau + kappa - 1.0


def integrate_modified(params: TheoryParams, step: float = 1e-5) -> OdeTrajectory:
    """Fixed-step RK4 for the reduced modified-greedy ODE, N(0) = 1.

    Stops at the first zero of N (refined by bisection to |N| < 1e-10) and
    reports mu_over_n = 1 - tau0. Two self-checks run on every call:

    * ColorDepletionError if the color budget Q = N + tau + kappa - 1
      reaches zero while vertices remain (low color density regime; the
      prediction is not valid there).
    * IntegrationFailure if the trajectory drifts from the equivalent
      integral form N = 1 - 2 tau + integral of e^-lambda by more than
      10 * step, or if tau0 leaves [1/2, 1].
    """
    _validate_step(step)
    c, kap = params.c, params.kappa
    ratio = c / kap

    def rhs(t, y):
        return math.exp(-ratio * y * (y + t + kap - 1.0)) - 2.0

    # _rk4 over rhs, inlined with the same rounding: this loop is the hot path
    exp, neg, half, sixth = math.exp, -ratio, step / 2, step / 6
    vals = [1.0]
    append = vals.append
    tau, nv = 0.0, 1.0
    while tau <= 1.2:   # N' <= -1 forces a zero by tau = 1
        mid, end = tau + half, tau + step
        k1 = exp(neg * nv * (nv + tau + kap - 1.0)) - 2.0
        y = nv + half * k1
        k2 = exp(neg * y * (y + mid + kap - 1.0)) - 2.0
        y = nv + half * k2
        k3 = exp(neg * y * (y + mid + kap - 1.0)) - 2.0
        y = nv + step * k3
        k4 = exp(neg * y * (y + end + kap - 1.0)) - 2.0
        nxt = nv + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if nxt <= 0.0:
            break
        tau, nv = end, nxt
        append(nv)

    # the first point with no colors left ends the trajectory, runaway or not
    t_arr = _grid(0.0, len(vals) - 1, step)
    n_arr = np.asarray(vals)
    depleted = np.flatnonzero(n_arr + t_arr + kap - 1.0 <= 0.0)
    if depleted.size:
        i = depleted[0]
        raise ColorDepletionError(
            f"color budget exhausted at tau={t_arr[i]:.4f} with N={n_arr[i]:.4f} "
            f"still positive (c={c}, kappa={kap}); the prediction needs "
            f"a larger color density")
    if tau > 1.2:
        raise IntegrationFailure(f"runaway integration for params {params}")

    tau0, n0 = _last_step_zero(rhs, tau, nv, step, nxt)
    t_arr = np.append(t_arr, tau0)
    n_arr = np.append(n_arr, n0)
    g = np.exp(-ratio * n_arr * (n_arr + t_arr + kap - 1.0))
    increments = 0.5 * (g[1:] + g[:-1]) * np.diff(t_arr)
    integral = np.concatenate(([0.0], np.cumsum(increments)))
    resid = float(np.max(np.abs(n_arr - (1.0 - 2.0 * t_arr + integral))))
    if resid > 10.0 * step:
        raise IntegrationFailure(
            f"integral-form residual {resid:.3e} exceeds {10 * step:.1e} "
            f"for params {params}")
    if not 0.5 - 1e-6 <= tau0 <= 1.0 + 1e-6:
        raise IntegrationFailure(f"tau0={tau0} outside [1/2, 1] for {params}")

    return OdeTrajectory(kind="modified", taus=t_arr, values=n_arr,
                         tau0=tau0, step=step, mu_over_n=1.0 - tau0)


def integrate_modified_full(params: TheoryParams, step: float = 1e-5,
                            n_floor: float | None = None):
    """RK4 for the coupled (M, N) system, for cross-checking the reduced form.

    Integrates until N <= n_floor (default max(10 * step, 1e-3)); the floor
    keeps lambda = 2M/N away from 0/0 at the very end. Returns
    (taus, m_values, n_values) as arrays.
    """
    _validate_step(step)
    c, kap = params.c, params.kappa
    floor = max(10.0 * step, 1e-3) if n_floor is None else n_floor

    def rhs(t, m, nv):
        q = nv + t + kap - 1.0
        if q <= 0.0:
            raise ColorDepletionError(
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


def modified_upper_bound(c: float) -> float:
    """Ceiling on the modified-greedy matching density for any kappa:
    (c - 1 + e^-c) / (2c - 1 + e^-c)."""
    if not c > 0:
        raise ValueError(f"c must be positive, got {c}")
    e = math.exp(-c)
    return (c - 1.0 + e) / (2.0 * c - 1.0 + e)


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


# -- summaries and export -----------------------------------------------------

def theory_summary(params: TheoryParams, step: float = 1e-5) -> dict:
    """All point predictions for one (c, kappa): stopping times, matching
    densities for both algorithms, and the modified-greedy ceiling.

    Modified entries are None when the integrator rejects the regime.
    """
    tau0_g = tau0_general(params)
    try:
        traj = integrate_modified(params, step=step)
        tau0_m: float | None = traj.tau0
        mu_m: float | None = traj.mu_over_n
    except IntegrationFailure:
        tau0_m = None
        mu_m = None
    return {
        "tau0_greedy": tau0_g,
        "tau0_modified": tau0_m,
        "mu_greedy": tau0_g,
        "mu_modified": mu_m,
        "upper_bound": modified_upper_bound(params.c),
    }


def trajectory_csv(traj: OdeTrajectory) -> str:
    lines = ["tau,value"]
    lines.extend(f"{float(t)!r},{float(v)!r}" for t, v in zip(traj.taus, traj.values))
    return "\n".join(lines) + "\n"
