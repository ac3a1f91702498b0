"""Differential-equation predictions for both greedy processes.

All quantities are densities against n: time tau = t/n, alive edges
M(tau) = mu_edges/n, alive vertices N(tau) = nu/n, colors kappa = q/n,
average initial degree c = 2m/n.

Edge greedy:
    M' = -1 - 4M/(1 - 2 tau) - M/(kappa - tau),  M(0) = c/2.
The process dies at tau0, the first zero of M, and matches tau0 * n + o(n)
edges. At kappa = 1/2 the solution is the cubic
    M = ((2c + 1)(1 - 2 tau)^3 - (1 - 2 tau)) / 4,
so tau0 = (1 - 1/sqrt(2c + 1)) / 2. Away from 1/2 it factors as
    M = (kappa - tau)(1 - 2 tau)^2 / (2 kappa - 1)^2 * f(tau),
    f(tau) = c (2 kappa - 1)^2 / (2 kappa)
             + log((kappa - tau) / (kappa (1 - 2 tau)))
             - 2 (2 kappa - 1) tau / (1 - 2 tau),
where the prefactor is positive on [0, min(1/2, kappa)), so the sign of M
lives entirely in f.

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
from array import array
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
    taus: np.ndarray
    values: np.ndarray       # M for greedy, N for modified
    tau0: float
    mu_over_n: float         # tau0 for greedy, 1 - tau0 for modified


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
    return np.cumsum(t, out=t)


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

    # the zero lies next to the closed form's, so tau and M are allocated
    # once, one block past it and with room for the zero, and grow by a
    # block only if the zero lies further
    taus = np.empty(int(tau0_general(params) / step) + _BLOCK + 2)
    vals = np.empty_like(taus)
    taus[0], vals[0] = 0.0, c / 2.0
    filled = 1
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
        k = hit[0] if hit.size else len(ms)
        if filled + k >= len(taus):
            taus = np.concatenate((taus, np.empty(_BLOCK)))
            vals = np.concatenate((vals, np.empty(_BLOCK)))
        taus[filled:filled + k] = t[1:k + 1]
        vals[filled:filled + k] = ms[:k]
        filled += k
        if hit.size:
            if k:
                tau, m = float(t[k]), float(ms[k - 1])
            nxt = float(ms[k])
            break
        if len(t) <= _BLOCK:
            raise IntegrationFailure(
                f"M did not cross zero before the domain boundary "
                f"{min(0.5, kap)} (c={c}, kappa={kap}); the root is closer "
                f"to the boundary than one step")
        tau, m = float(t[-1]), float(ms[-1])

    tau0, m0 = _last_step_zero(rhs, tau, m, step, nxt)
    taus[filled], vals[filled] = tau0, m0
    return OdeTrajectory(taus=taus[:filled + 1], values=vals[:filled + 1],
                         tau0=tau0, mu_over_n=tau0)


def tau0_closed_half(c: float) -> float:
    """First zero of M at kappa = 1/2: (1 - 1/sqrt(2c + 1)) / 2."""
    if c < 0:
        raise ValueError(f"c must be nonnegative, got {c}")
    return 0.5 * (1.0 - 1.0 / math.sqrt(2.0 * c + 1.0))


def tau0_general(params: TheoryParams) -> float:
    """First positive zero of M via the closed form, within a few ulps.

    M has the sign of f (module docstring). With u = tau / (1 - 2 tau),
    z = (kappa - tau) / (kappa (1 - 2 tau)) and y = z - 1 = (2 kappa - 1) u
    / kappa, kappa f / (2 kappa - 1)^2 = c/2 - u - u^2 psi(y) / kappa with
    psi(y) = (y - log z) / y^2 > 0. The subtracted terms grow with tau and
    never cancel, so one bisection in tau over [0, min(1/2, kappa, c/2)]
    (u >= c/2 at tau = c/2) finds the zero to adjacent floats, next to
    kappa = 1/2 too; only at 1/2 itself does f vanish, and tau0 is the
    cubic's root. Scarce colors put the zero closer to kappa than float
    resolution, and tau0 is kappa. z is computed directly, not as 1 + y,
    and u^2 / kappa as u (u / kappa), so extreme c or kappa neither
    overflow nor lose bits.
    """
    c, kap = params.c, params.kappa
    if kap == 0.5:
        return tau0_closed_half(c)
    e = 2.0 * kap - 1.0
    half_c = c / 2.0

    def positive(tau):
        s = 1.0 - 2.0 * tau
        u = tau / s
        y = e * (u / kap) if kap <= 1.0 else (2.0 - 1.0 / kap) * u
        z = (kap - tau) / (kap * s)
        return half_c > u + u * (u / kap) * _psi(y, z)

    return _bisect(positive, min(0.5, kap, half_c), 0.0)


def _psi(y: float, z: float) -> float:
    """(y - log z) / y^2 for z = 1 + y. Where that cancels, |y| < 1/2, it is
    r (1 - 2 s r sum_(k>=0) s^(2k) / (2k + 3)) with r = 1 / (2 + y) and
    s = y r (log z = 2 atanh(s)), summed until a term no longer changes
    the sum: at most 17 of the 19 terms, as |s| < 1/3."""
    if abs(y) >= 0.5:
        return (y - math.log(z)) / (y * y)
    r = 1.0 / (2.0 + y)
    s = y * r
    s2 = s * s
    total, power = 0.0, 1.0
    for k in range(3, 41, 2):
        nxt = total + power / k
        if nxt == total:
            break
        total, power = nxt, power * s2
    return r * (1.0 - 2.0 * s * r * total)


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

    A scalar loop takes the steps at max(step, default), holding its
    values at 8 bytes a step. A step below the default is not stepped
    through one at a time: _refine_modified solves its recurrence from
    that coarse run by blocked Newton. Its values are within 1e-12 of the
    scalar loop's at that step on the test grid, and the taus are the
    same. Either way the integral-form residual below is accumulated block
    by block, and the returned taus and values are the only arrays as long
    as the trajectory.

    Raises IntegrationFailure if N has no zero by tau = 1.2 (the step is
    too coarse for the stiffness c/kappa), if e^-lambda overflows in an RK4
    stage (likewise too coarse), if the trajectory drifts from
    the equivalent integral form N = 1 - 2 tau + integral of e^-lambda by
    more than 10 * step, or if tau0 leaves [1/2, 1].
    """
    if step is None:
        step = _modified_default_step(params.c, params.kappa)
    _validate_step(step)
    traj, resid = _modified_run(params, step)
    if resid > 10.0 * step:
        raise IntegrationFailure(
            f"integral-form residual {resid:.3e} exceeds {10 * step:.1e} "
            f"for params {params}")
    if not 0.5 - 1e-6 <= traj.tau0 <= 1.0 + 1e-6:
        raise IntegrationFailure(f"tau0={traj.tau0} outside [1/2, 1] for {params}")
    return traj


def _modified_default_step(c: float, kappa: float) -> float:
    """integrate_modified's default step: min(1e-3, kappa/c), at least 1e-6."""
    return max(1e-6, min(1e-3, kappa / c))


def _modified_run(params: TheoryParams,
                  step: float) -> tuple[OdeTrajectory, float]:
    """integrate_modified's trajectory at `step` and its integral-form
    residual, before the residual and tau0 checks."""
    c, kap = params.c, params.kappa
    ratio = c / kap

    def rhs(t, y):
        return math.exp(-ratio * y * (y + t + kap - 1.0)) - 2.0

    # _rk4 over rhs, inlined with the same rounding: this loop is the hot
    # path. Each value goes to a list, whose append costs about a third of
    # array.append's; after about _BLOCK steps (`span` in tau) the list
    # moves on to the array, at 8 bytes a value. The inner loop's bound
    # also stops it at tau > 1.2, so each step compares tau only once.
    coarse = max(step, _modified_default_step(c, kap))
    exp, neg, half, sixth = math.exp, -ratio, coarse / 2, coarse / 6
    span = _BLOCK * coarse
    vals = array("d", [1.0])
    tau, nv = 0.0, 1.0
    res = _IntegralResidual(neg, kap)
    try:
        while True:
            if tau > 1.2:   # N' <= -1 forces a zero by tau = 1
                raise IntegrationFailure(f"runaway integration for params {params}")
            block = []
            append = block.append
            limit = min(1.2, tau + span)
            while tau <= limit:
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
            vals.fromlist(block)
            if nxt <= 0.0:
                break
        vals.append(0.0)   # room for the zero
        taus, values = _grid(0.0, len(vals) - 1, coarse), np.frombuffer(vals)

        done = 0   # points already handed to res
        if step < coarse:
            taus[-1], values[-1] = _last_step_zero(rhs, tau, nv, coarse, nxt)
            taus, values, tau, nv, nxt = _refine_modified(
                params, step, coarse, taus, values, res)
            done = len(values) - 1
        tau0, n0 = _last_step_zero(rhs, tau, nv, step, nxt)
    except OverflowError:   # math.exp of a stage's -lambda
        raise IntegrationFailure(f"e^-lambda overflows in an RK4 stage for "
                                 f"params {params}") from None
    taus[-1], values[-1] = tau0, n0
    for i in range(done, len(values), _BLOCK):
        res.add(taus[i:i + _BLOCK], values[i:i + _BLOCK])
    return (OdeTrajectory(taus=taus, values=values, tau0=tau0,
                          mu_over_n=1.0 - tau0),
            float(res.value))


class _IntegralResidual:
    """max |N - (1 - 2 tau + integral of e^-lambda from 0 to tau)| over a
    trajectory handed over in consecutive blocks, the integral by the
    trapezoid rule. The integral is carried from block to block and each
    block's sum starts from it, so the additions run in the order of one
    pass over the whole trajectory and the result is the same float."""

    def __init__(self, neg: float, kap: float):
        self._neg, self._kap = neg, kap
        self.value = np.float64(0.0)
        self._last = None   # (tau, e^-lambda, integral) at the last point

    def add(self, t: np.ndarray, n: np.ndarray, g: np.ndarray | None = None):
        """Take the next points (t, n); g is e^-lambda there, if known."""
        if g is None:
            g = np.exp(self._neg * n * (n + t + self._kap - 1.0))
        integral = np.empty(len(t))
        if self._last is None:
            integral[0] = 0.0
        else:
            t0, g0, i0 = self._last
            integral[0] = i0 + 0.5 * (g[0] + g0) * (t[0] - t0)
        rest = integral[1:]
        np.add(g[1:], g[:-1], out=rest)
        rest *= 0.5
        rest *= t[1:] - t[:-1]
        np.cumsum(integral, out=integral)
        self._last = t[-1], g[-1], integral[-1]
        integral += 1.0 - 2.0 * t
        np.subtract(n, integral, out=integral)
        # np.maximum, unlike max, keeps a nan as one pass's np.max does
        self.value = np.maximum(self.value, np.max(np.abs(integral, out=integral)))


# Newton updates allowed per block in _refine_modified, the residual at
# which a block has converged, and how many steps the blocks run past the
# coarse zero (past the zero N < 0, where Newton may not converge).
_NEWTON_ITERS = 8
_NEWTON_TOL = 2.0 ** -52
_PAST = 4


def _modified_step(t, x, step: float, neg: float, kap: float,
                   jac: bool = False):
    """The scalar loop's RK4 step Phi(t_k, x_k) for each k, with its
    arithmetic in the same order, and e^-lambda at (t_k, x_k); with jac,
    also the exact derivative dPhi/dN by the chain rule through the four
    stages. Works in place on a few arrays of the block's length."""
    # each stage is e^(neg y w) - 2 with w = y + s + kap - 1, so its
    # derivative in y is e^(neg y w) neg (y + w)
    w = x + t
    w += kap
    w -= 1.0
    g = np.multiply(x, neg)
    g *= w
    np.exp(g, out=g)
    k = g - 2.0
    phi = k.copy()   # k1 + 2 k2 + 2 k3 + k4, added in that order
    if jac:
        w += x
        d = np.multiply(g, neg)
        d *= w
        dphi = d.copy()   # d1 + 2 d2 + 2 d3 + d4 likewise
    y, e = np.empty_like(x), np.empty_like(x)
    half = step / 2
    for h, weight in ((half, 2.0), (half, 2.0), (step, 1.0)):
        # y = x + h k, w = y + (t + h) + kap - 1, k = e^(neg y w) - 2
        np.multiply(k, h, out=y)
        y += x
        np.add(t, h, out=w)
        w += y
        w += kap
        w -= 1.0
        np.multiply(y, neg, out=e)
        e *= w
        np.exp(e, out=e)
        np.subtract(e, 2.0, out=k)
        if jac:   # d = e neg (y + w) (1 + h d)
            w += y
            e *= neg
            e *= w
            d *= h
            d += 1.0
            d *= e
        if weight == 1.0:
            phi += k
            if jac:
                dphi += d
        else:
            phi += np.multiply(k, weight, out=w)
            if jac:
                dphi += np.multiply(d, weight, out=w)
    phi *= step / 6
    phi += x
    if not jac:
        return phi, g
    dphi *= step / 6
    dphi += 1.0
    return phi, g, dphi


_TINY, _HUGE = np.finfo(float).tiny, np.finfo(float).max


def _affine_scan(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """d with d_0 = b_0 and d_k = a_k d_(k-1) + b_k. May overwrite a and b.

    When every a is positive and P = cumprod(a) stays a normal float,
    d = P cumsum(b/P). Otherwise, or if that sum overflows, by recursive
    doubling (Hillis-Steele): after the pass at offset s, (a_k, b_k) is the
    composition of the maps k-2s+1 .. k. The doubling never divides by a
    product of the a's, which underflows when the a's are small."""
    if a.min() > 0.0:
        p = np.cumprod(a)
        if p.min() >= _TINY and p.max() <= _HUGE:
            d = np.divide(b, p)
            np.cumsum(d, out=d)
            if math.isfinite(d[-1]):
                d *= p
                return d
    s = 1
    while s < len(b):
        b[s:] += a[s:] * b[:-s]
        a[s:] *= a[:-s]
        s *= 2
    return b


def _refine_modified(params: TheoryParams, step: float, coarse: float,
                     nodes: np.ndarray, ys: np.ndarray, res: _IntegralResidual):
    """The scalar loop's run at `step` from its run (nodes, ys) at
    `coarse` > step, whose last node is its bisected zero.

    The guess is the cubic Hermite interpolant of the coarse run, with the
    ODE's slopes at its nodes; past the last node it goes on along the last
    slope. Blocks of _BLOCK fine steps, each from the converged end of the
    one before, are then corrected to the recurrence x_(k+1) =
    Phi(tau_k, x_k) by Newton on the whole block: the update d solves
    d_(k+1) = J_k d_k + Phi(tau_k, x_k) - x_(k+1), J_k = dPhi/dN, by
    _affine_scan. A block has converged when every
    |Phi(tau_k, x_k) - x_(k+1)| <= _NEWTON_TOL. The blocks stop _PAST steps
    past the coarse zero, and go on _PAST steps at a time if the fine zero
    lies further.

    Each block is written in place into the fine taus and values, which
    are allocated once with room for the zero, and handed to `res` with
    the e^-lambda of its last convergence check; after that nothing reads
    its steps again. Returns the taus and values up to the zero, whose
    last entry is the caller's to fill, the last tau and value before the
    zero, and the first value <= 0.
    """
    c, kap = params.c, params.kappa
    neg = -c / kap
    slopes = np.exp(neg * ys * (ys + nodes + kap - 1.0)) - 2.0
    # the cubic on each interval as ys + u (slopes + u (a2 + u a3)), u = t - node
    h = np.diff(nodes)
    dy = np.diff(ys) / h
    a2 = (3.0 * dy - 2.0 * slopes[:-1] - slopes[1:]) / h
    a3 = (slopes[:-1] + slopes[1:] - 2.0 * dy) / (h * h)
    tau0 = nodes[-1]

    def guess(t, out):
        i = (t / coarse).astype(np.intp)
        np.minimum(i, len(h) - 1, out=i)
        u = t - nodes[i]
        np.minimum(u, h[i], out=u)
        np.multiply(u, a3[i], out=out)
        out += a2[i]
        out *= u
        out += slopes[i]
        out *= u
        out += ys[i]
        # past the last node, along its slope
        np.subtract(t, tau0, out=u)
        np.maximum(u, 0.0, out=u)
        u *= slopes[-1]
        out += u

    steps = int(tau0 / step) + _PAST
    taus = _grid(0.0, steps, step)
    vals = np.empty(steps + 1)
    vals[0] = 1.0
    start = 0   # index of the block's first point
    while True:
        if start == steps:   # the fine zero lies past the arrays: grow them
            steps += _PAST
            taus = _grid(0.0, steps, step)
            vals = np.concatenate((vals, np.empty(_PAST)))
        m = min(_BLOCK, steps - start)
        t, x = taus[start:start + m + 1], vals[start:start + m + 1]
        guess(t[1:], x[1:])
        ts, xs = t[:-1], x[:-1]   # views: updates to x show in xs
        phi, g, jac = _modified_step(ts, xs, step, neg, kap, jac=True)
        for _ in range(_NEWTON_ITERS):
            x[1:] += _affine_scan(jac, phi - x[1:])
            # one update usually converges; only then is J not needed
            phi, g = _modified_step(ts, xs, step, neg, kap)
            if np.max(np.abs(phi - x[1:])) <= _NEWTON_TOL:
                break
            phi, g, jac = _modified_step(ts, xs, step, neg, kap, jac=True)
        else:
            raise IntegrationFailure(
                f"Newton refinement at step {step} did not converge in "
                f"{_NEWTON_ITERS} updates for params {params}")
        hit = np.flatnonzero(x[1:] <= 0.0)
        if hit.size:
            k = hit[0]
            res.add(ts[:k + 1], xs[:k + 1], g[:k + 1])
            return (taus[:start + k + 2], vals[:start + k + 2],
                    float(t[k]), float(x[k]), float(x[k + 1]))
        res.add(ts, xs, g)
        start += m
        if t[-1] > 1.2:
            raise IntegrationFailure(f"runaway integration for params {params}")


def modified_upper_bound(c: float) -> float:
    """Ceiling on the modified-greedy matching density for any kappa:
    (c - 1 + e^-c) / (2c - 1 + e^-c), divided through by c so that neither
    a tiny nor a huge c overflows or divides by zero."""
    if not c > 0:
        raise ValueError(f"c must be positive, got {c}")
    if c >= 1.0:
        r = math.expm1(-c) / c
        return (1.0 + r) / (2.0 + r)
    # 1 + expm1(-c)/c cancels as c falls (643 ulps off at c = 1e-3);
    # its series c/2 (1 - c/3 (1 - c/4 (1 - ...))) does not, and 20 terms
    # reach the float's precision below c = 1
    s = 1.0
    for k in range(21, 2, -1):
        s = 1.0 - c / k * s
    r = 0.5 * c * s   # (c - 1 + e^-c) / c
    return r / (1.0 + r)

