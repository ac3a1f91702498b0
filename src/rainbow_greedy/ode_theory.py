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
collapses everything into the single reduced equation
    N' = e^(-(c/kappa) N (N + tau + kappa - 1)) - 2,  N(0) = 1.
N hits zero at tau0 in [1/2, 1] and the matching density is 1 - tau0.
The color budget Q = N + tau + kappa - 1 never reaches zero: Q' =
e^-lambda - 1 >= -lambda = -(c/kappa) N Q, so Q decays at most
exponentially. When colors are scarce, Q ends up below float resolution
and the subtraction may round it to about -1e-16, which moves lambda by
that much and nothing else; such cells end with mu/n = kappa to within
the root tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class IntegrationFailure(RuntimeError):
    """The integrator could not produce a trusted trajectory."""


@dataclass(frozen=True)
class TheoryParams:
    """Average degree c = 2m/n and color density kappa = q/n."""
    c: float
    kappa: float

    def __post_init__(self):
        if not 0 < self.c < math.inf:
            raise ValueError(f"c must be positive and finite, got {self.c}")
        if not 0 < self.kappa < math.inf:
            raise ValueError(f"kappa must be positive and finite, got {self.kappa}")


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


# RK4 steps per numpy block in integrate_greedy and _refine_modified. Blocks
# stop the work and the temporaries at most one block past the zero; 4096
# was the fastest of 1024 to 16384 over the theory grid for integrate_greedy.
_BLOCK = 4096


def _validate_step(step: float) -> None:
    if not 1e-6 <= step <= 0.01:
        raise ValueError(f"step must be in [1e-6, 0.01], got {step}")


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

def integrate_greedy(params: TheoryParams,
                     step: float | None = None) -> OdeTrajectory:
    """Fixed-step RK4 for the edge-greedy ODE up to the first zero of M.

    The default step is 1e-5: at 1e-3 the trajectory is up to 1.2e-6 off
    the closed form, and the integration is cheap. The final partial step
    is bisected until |M| < 1e-10, so tau0 is far more accurate than the
    step size. Raises IntegrationFailure if M never crosses zero before the
    domain boundary min(1/2, kappa); that happens only in extreme corners
    (very small kappa) where the zero sits closer to the boundary than one
    step.

    The ODE is linear in M, M' = -1 - a(tau) M, so one RK4 step is an
    affine map M_{k+1} = A_k M_k + B_k. The steps are taken in blocks of
    _BLOCK: numpy computes A and B over the block's grid and solves the
    recurrence with P = cumprod(A), M_{k+1} = P_k (M_0 + sum_{j<=k} B_j/P_j).
    """
    if step is None:
        step = 1e-5
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
    so M and f_kappa vanish together; tau0_general solves f_kappa = 0
    because it stays well-scaled where the prefactor crushes M to zero.
    """
    if abs(2.0 * kappa - 1.0) < HALF_CROSSOVER:
        raise ValueError("kappa is inside the half-density crossover; use "
                         "m_closed_half")
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


def tau0_general(params: TheoryParams) -> float:
    """First positive zero of M via the closed form, to full float precision.

    In the gap variable z = (kappa - tau) / (kappa (1 - 2 tau)), with
    tau = kappa (1 - z) / (1 - 2 z kappa), f_kappa is
        g(z) = log z + 2 kappa (1 - z) + c (2 kappa - 1)^2 / (2 kappa),
    and g(1) = f_kappa(0) > 0. For kappa < 1/2, z falls from 1 to 0 as tau
    runs to kappa, and g increases on (0, 1]; for kappa > 1/2, z grows
    without bound as tau runs to 1/2, and g decreases on [1, inf). So g has
    one zero, which a bisection in z finds down to adjacent floats. When
    colors are scarce that zero is below float resolution and tau0 rounds
    to kappa. Near kappa = 1/2 this delegates to the exact half-density
    formula.

    When c (2 kappa - 1)^2 / (2 kappa) overflows, kappa > 1/2 bisects
    g / (2 kappa) instead, whose terms stay finite: tau0 tends to 1/2 as c
    grows and to c / (2 (c + 1)) as kappa grows; tau0 is then taken from
    w = 1/z, which stays finite however large z is.
    """
    c, kap = params.c, params.kappa
    e = 2.0 * kap - 1.0
    if abs(e) < HALF_CROSSOVER:
        return tau0_closed_half(c)
    base = c * e * e / (2.0 * kap)
    # g <= 0 at `past` (tau at or beyond the zero) and g > 0 at `before`.
    # For kappa < 1/2, 0 < 2 kappa (1 - z) < 2 kappa on (0, 1) puts the zero
    # in [e^(-base - 2 kappa), e^(-base)]; the extra factor e^-1 keeps
    # g(past) < 0 through rounding, and an overflowing base gives tau0 =
    # kappa. For kappa > 1/2, log z <= z - 1 gives g <= -e at 2 + base / e.
    if e > 0.0 and not math.isfinite(base):
        # g / (2 kappa), with e / (2 kappa) = 1 - 1 / (2 kappa)
        shrink = 1.0 - 0.5 / kap
        past = _bisect(lambda z: math.log(z) / (2.0 * kap) + 1.0 - z
                       + c * shrink * shrink > 0.0, 2.0 + c * shrink, 1.0)
        # tau = (1/z - 1) / (1/(kappa z) - 2): finite for every finite z >= 1
        return (1.0 / past - 1.0) / (1.0 / (kap * past) - 2.0)
    if e < 0.0:
        past, before = math.exp(-base - 2.0 * kap - 1.0), math.exp(-base)
    else:
        past, before = 2.0 + base / e, 1.0
    past = _bisect(lambda z: math.log(z) + 2.0 * kap * (1.0 - z) + base > 0.0,
                   past, before)
    return kap * (1.0 - past) / (1.0 - 2.0 * past * kap)


def _bisect(positive, past: float, before: float) -> float:
    """Shrink the bracket of the sign change of `positive`, false at past
    and true at before, to adjacent floats and return past. Halving gets
    there from any two finite floats in under 2200 steps."""
    for _ in range(2200):
        mid = past + (before - past) / 2
        if mid == past or mid == before:
            break
        if positive(mid):
            before = mid
        else:
            past = mid
    return past


# -- vertex greedy (modified) ------------------------------------------------

def integrate_modified(params: TheoryParams,
                       step: float | None = None) -> OdeTrajectory:
    """Fixed-step RK4 for the reduced modified-greedy ODE, N(0) = 1.

    Stops at the first zero of N (refined by bisection to |N| < 1e-10) and
    reports mu_over_n = 1 - tau0, so tau0 is no more accurate than about
    1e-10 at any step.

    The default step is min(1e-3, kappa/c), at least 1e-6; an explicit
    step is used as given. The kappa/c term is for stability: with
    Q = N + tau + kappa - 1, |dN'/dN| = e^-lambda (c/kappa)(N + Q) is at
    most c/kappa + c, and explicit RK4 diverges once the step times that
    slope exceeds about 2.78.

    A scalar loop takes the steps at max(step, default). A step below the
    default is not stepped through one at a time: _refine_modified solves
    its recurrence from that coarse run by blocked Newton. Its values are
    within 1e-12 of the scalar loop's at that step on the test grid, and
    the taus are the same.

    Raises IntegrationFailure if N has no zero by tau = 1.2 (the step is
    too coarse for the stiffness c/kappa), if e^-lambda overflows in an RK4
    stage (likewise too coarse), if the trajectory drifts from
    the equivalent integral form N = 1 - 2 tau + integral of e^-lambda by
    more than 10 * step, or if tau0 leaves [1/2, 1].
    """
    c, kap = params.c, params.kappa
    default = _modified_default_step(c, kap)
    if step is None:
        step = default
    _validate_step(step)
    ratio = c / kap

    def rhs(t, y):
        return math.exp(-ratio * y * (y + t + kap - 1.0)) - 2.0

    # _rk4 over rhs, inlined with the same rounding: this loop is the hot path
    coarse = max(step, default)
    exp, neg, half, sixth = math.exp, -ratio, coarse / 2, coarse / 6
    vals = [1.0]
    append = vals.append
    tau, nv = 0.0, 1.0
    try:
        while tau <= 1.2:   # N' <= -1 forces a zero by tau = 1
            mid, end = tau + half, tau + coarse
            k1 = exp(neg * nv * (nv + tau + kap - 1.0)) - 2.0
            y = nv + half * k1
            k2 = exp(neg * y * (y + mid + kap - 1.0)) - 2.0
            y = nv + half * k2
            k3 = exp(neg * y * (y + mid + kap - 1.0)) - 2.0
            y = nv + coarse * k3
            k4 = exp(neg * y * (y + end + kap - 1.0)) - 2.0
            nxt = nv + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if nxt <= 0.0:
                break
            tau, nv = end, nxt
            append(nv)

        if tau > 1.2:
            raise IntegrationFailure(f"runaway integration for params {params}")

        if step < coarse:
            vals, tau, nv, nxt = _refine_modified(
                params, step, coarse, vals, *_last_step_zero(rhs, tau, nv, coarse, nxt))
        tau0, n0 = _last_step_zero(rhs, tau, nv, step, nxt)
    except OverflowError:   # math.exp of a stage's -lambda
        raise IntegrationFailure(f"e^-lambda overflows in an RK4 stage for "
                                 f"params {params}") from None
    t_arr = np.append(_grid(0.0, len(vals) - 1, step), tau0)
    n_arr = np.append(vals, n0)
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


def _modified_default_step(c: float, kappa: float) -> float:
    """integrate_modified's default step: min(1e-3, kappa/c), at least 1e-6."""
    return max(1e-6, min(1e-3, kappa / c))


# Newton updates allowed per block in _refine_modified, the residual at
# which a block has converged, and how many steps the blocks run past the
# coarse zero (past the zero N < 0, where Newton may not converge).
_NEWTON_ITERS = 8
_NEWTON_TOL = 2.0 ** -52
_PAST = 4


def _modified_step(t, x, step: float, neg: float, kap: float,
                   jac: bool = False):
    """The scalar loop's RK4 step Phi(t_k, x_k) for each k, with its
    arithmetic in the same order; with jac, also the exact derivative
    dPhi/dN by the chain rule through the four stages."""
    half = step / 2
    mid = t + half
    # each stage is e^(neg y w) - 2 with w = y + s + kap - 1, so its
    # derivative in y is e^(neg y w) neg (y + w)
    w = x + t + kap - 1.0
    e1 = np.exp(neg * x * w)
    k1 = e1 - 2.0
    y2 = x + half * k1
    w2 = y2 + mid + kap - 1.0
    e2 = np.exp(neg * y2 * w2)
    k2 = e2 - 2.0
    y3 = x + half * k2
    w3 = y3 + mid + kap - 1.0
    e3 = np.exp(neg * y3 * w3)
    k3 = e3 - 2.0
    y4 = x + step * k3
    w4 = y4 + (t + step) + kap - 1.0
    e4 = np.exp(neg * y4 * w4)
    phi = x + step / 6 * (k1 + 2.0 * k2 + 2.0 * k3 + (e4 - 2.0))
    if not jac:
        return phi
    d1 = e1 * neg * (x + w)
    d2 = e2 * neg * (y2 + w2) * (1.0 + half * d1)
    d3 = e3 * neg * (y3 + w3) * (1.0 + half * d2)
    d4 = e4 * neg * (y4 + w4) * (1.0 + step * d3)
    return phi, 1.0 + step / 6 * (d1 + 2.0 * d2 + 2.0 * d3 + d4)


def _affine_scan(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """d with d_0 = b_0 and d_k = a_k d_(k-1) + b_k, by recursive doubling
    (Hillis-Steele): after the pass at offset s, (a_k, b_k) is the
    composition of the maps k-2s+1 .. k. Overwrites a and b. No division
    by a product of the a's, which underflows when the a's are small."""
    s = 1
    while s < len(b):
        b[s:] += a[s:] * b[:-s]
        a[s:] *= a[:-s]
        s *= 2
    return b


def _refine_modified(params: TheoryParams, step: float, coarse: float,
                     coarse_vals: list, tau0: float, n0: float):
    """The scalar loop's run at `step` from its run at `coarse` > step.

    The guess is the cubic Hermite interpolant of the coarse run, with the
    ODE's slopes at its nodes and its bisected zero (tau0, n0) as the last
    node; past that node it goes on along the last slope. Blocks of _BLOCK
    fine steps, each from the converged end of the one before, are then
    corrected to the recurrence x_(k+1) = Phi(tau_k, x_k) by Newton on the
    whole block: the update d solves d_(k+1) = J_k d_k + Phi(tau_k, x_k) -
    x_(k+1), J_k = dPhi/dN, by _affine_scan. A block has converged when
    every |Phi(tau_k, x_k) - x_(k+1)| <= _NEWTON_TOL. The blocks stop
    _PAST steps past the coarse zero, and go on _PAST steps at a time if
    the fine zero lies further.

    Returns what the scalar loop ends with: the values before the zero,
    the last tau and value, and the first value <= 0.
    """
    c, kap = params.c, params.kappa
    neg = -c / kap
    nodes = np.append(_grid(0.0, len(coarse_vals) - 1, coarse), tau0)
    ys = np.append(coarse_vals, n0)
    slopes = np.exp(neg * ys * (ys + nodes + kap - 1.0)) - 2.0
    # the cubic on each interval as ys + u (slopes + u (a2 + u a3)), u = t - node
    h = np.diff(nodes)
    dy = np.diff(ys) / h
    a2 = (3.0 * dy - 2.0 * slopes[:-1] - slopes[1:]) / h
    a3 = (slopes[:-1] + slopes[1:] - 2.0 * dy) / (h * h)

    def guess(t):
        i = np.minimum((t / coarse).astype(np.intp), len(h) - 1)
        u = np.minimum(t - nodes[i], h[i])
        return (ys[i] + u * (slopes[i] + u * (a2[i] + u * a3[i]))
                + np.maximum(t - tau0, 0.0) * slopes[-1])

    chunks = [np.array([1.0])]
    remaining = int(tau0 / step) + _PAST
    tau, nv = 0.0, 1.0
    while True:
        m = min(_BLOCK, remaining) if remaining > 0 else _PAST
        remaining -= m
        t = _grid(tau, m, step)
        x = guess(t)
        x[0] = nv
        ts, xs = t[:-1], x[:-1]   # views: updates to x show in xs
        phi, jac = _modified_step(ts, xs, step, neg, kap, jac=True)
        for _ in range(_NEWTON_ITERS):
            x[1:] += _affine_scan(jac, phi - x[1:])
            # one update usually converges; only then is J not needed
            if np.max(np.abs(_modified_step(ts, xs, step, neg, kap) - x[1:])) \
                    <= _NEWTON_TOL:
                break
            phi, jac = _modified_step(ts, xs, step, neg, kap, jac=True)
        else:
            raise IntegrationFailure(
                f"Newton refinement at step {step} did not converge in "
                f"{_NEWTON_ITERS} updates for params {params}")
        hit = np.flatnonzero(x[1:] <= 0.0)
        if hit.size:
            k = hit[0]
            chunks.append(x[1:k + 1])
            return np.concatenate(chunks), float(t[k]), float(x[k]), float(x[k + 1])
        chunks.append(x[1:])
        tau, nv = float(t[-1]), float(x[-1])
        if tau > 1.2:
            raise IntegrationFailure(f"runaway integration for params {params}")


def modified_upper_bound(c: float) -> float:
    """Ceiling on the modified-greedy matching density for any kappa:
    (c - 1 + e^-c) / (2c - 1 + e^-c), divided through by c so that neither
    a tiny nor a huge c overflows or divides by zero."""
    if not c > 0:
        raise ValueError(f"c must be positive, got {c}")
    r = math.expm1(-c) / c
    return (1.0 + r) / (2.0 + r)


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
