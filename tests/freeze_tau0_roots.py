"""First zeros of f_kappa at high precision, for the frozen tau0 tables.

Run as a script; pytest does not collect it, and mpmath is needed only here:

    PYTHONPATH=src python tests/freeze_tau0_roots.py            # every frozen cell
    PYTHONPATH=src python tests/freeze_tau0_roots.py 1,0.52 ...  # the given cells

Each root is the zero of the original
    f(tau) = c (2 kappa - 1)^2 / (2 kappa)
             + log((kappa - tau) / (kappa (1 - 2 tau)))
             - 2 (2 kappa - 1) tau / (1 - 2 tau)
in (0, min(1/2, kappa)), found by bisection in tau at DIGITS significant
digits and again at CONFIRM_DIGITS. Both roots must round to the same float,
which is printed. f cancels about |log10(c)| digits at small c and
2 |log10|2 kappa - 1|| next to kappa = 1/2, so the working precision adds
those digits: at (2.2e-6, 1/2 + 3.75e-12) a 40-digit bisection without them
is wrong from the 14th digit on. With no arguments the script recomputes every
cell of test_ode_theory.TAU0_MPMATH_FULL and lists each one whose frozen
value is not the rounded root.
"""

from __future__ import annotations

import math
import sys

import mpmath

DIGITS, CONFIRM_DIGITS = 100, 150


def mp_root(c: float, kappa: float, digits: int) -> mpmath.mpf:
    """Zero of f_kappa at c, kappa (floats, taken exactly) to `digits`."""
    extra = 20 + max(0.0, -math.log10(c))
    if kappa != 0.5:
        extra += 2 * max(0.0, -math.log10(abs(2 * kappa - 1)))
    with mpmath.workdps(digits + int(extra)):
        c_, k = mpmath.mpf(c), mpmath.mpf(kappa)
        e = 2 * k - 1
        if e == 0:   # f vanishes identically; the cubic's root
            return (1 - 1 / mpmath.sqrt(2 * c_ + 1)) / 2

        def f(t):
            return (c_ * e * e / (2 * k) + mpmath.log((k - t) / (k * (1 - 2 * t)))
                    - 2 * e * t / (1 - 2 * t))

        lo, hi = mpmath.mpf(0), min(mpmath.mpf(0.5), k)
        tol = mpmath.mpf(10) ** -(digits + 5)
        while hi - lo > tol * hi:
            mid = (lo + hi) / 2
            if f(mid) > 0:
                lo = mid
            else:
                hi = mid
        return +hi


def nearest_float(x: mpmath.mpf) -> float:
    f = float(x)
    return min((f, math.nextafter(f, -math.inf), math.nextafter(f, math.inf)),
               key=lambda g: abs(mpmath.mpf(g) - x))


def frozen_root(c: float, kappa: float) -> float:
    """The root rounded to the nearest float, the same at both precisions."""
    a, b = (nearest_float(mp_root(c, kappa, d)) for d in (DIGITS, CONFIRM_DIGITS))
    if a != b:
        raise AssertionError(f"({c!r}, {kappa!r}): {a!r} at {DIGITS} digits, "
                             f"{b!r} at {CONFIRM_DIGITS}")
    return a


def main(argv: list[str]) -> int:
    if argv:
        for arg in argv:
            c, kappa = (float(v) for v in arg.split(","))
            print(f"    ({c!r}, {kappa!r}): {frozen_root(c, kappa)!r},")
        return 0
    from test_ode_theory import TAU0_MPMATH_FULL
    bad = 0
    for (c, kappa), want in TAU0_MPMATH_FULL.items():
        got = frozen_root(c, kappa)
        if got != want:
            bad += 1
            print(f"({c!r}, {kappa!r}): frozen {want!r}, root {got!r}")
    print(f"{bad} frozen values differ from the rounded root")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
