"""modified_upper_bound at high precision, for the frozen reference table.

Run as a script; pytest does not collect it, and mpmath is needed only here:

    PYTHONPATH=src python tests/freeze_upper_bound.py             # every frozen c
    PYTHONPATH=src python tests/freeze_upper_bound.py 1e-3 5 ...   # the given c

Each reference is (c - 1 + e^-c) / (2c - 1 + e^-c) at c (a float, taken
exactly), evaluated at DIGITS significant digits and again at
CONFIRM_DIGITS. Both must round to the same float, which is printed.
c - 1 + e^-c cancels about 2 |log10(c)| digits at small c, so the working
precision adds those digits. With no arguments the script recomputes every
entry of test_ode_theory.UPPER_BOUND_MPMATH and lists each one whose frozen
value is not the rounded reference.
"""

from __future__ import annotations

import math
import sys

import mpmath

from freeze_tau0_roots import nearest_float

DIGITS, CONFIRM_DIGITS = 60, 80


def mp_bound(c: float, digits: int) -> mpmath.mpf:
    """The bound at c to `digits` significant digits."""
    extra = 20 + 2 * max(0.0, -math.log10(c))
    with mpmath.workdps(digits + int(extra)):
        x = mpmath.mpf(c)
        g = x - 1 + mpmath.exp(-x)
        return g / (x + g)


def frozen_bound(c: float) -> float:
    """The bound rounded to the nearest float, the same at both precisions."""
    a, b = (nearest_float(mp_bound(c, d)) for d in (DIGITS, CONFIRM_DIGITS))
    if a != b:
        raise AssertionError(f"{c!r}: {a!r} at {DIGITS} digits, "
                             f"{b!r} at {CONFIRM_DIGITS}")
    return a


def main(argv: list[str]) -> int:
    if argv:
        for arg in argv:
            c = float(arg)
            print(f"    {c!r}: {frozen_bound(c)!r},")
        return 0
    from test_ode_theory import UPPER_BOUND_MPMATH
    bad = 0
    for c, want in UPPER_BOUND_MPMATH.items():
        got = frozen_bound(c)
        if got != want:
            bad += 1
            print(f"{c!r}: frozen {want!r}, reference {got!r}")
    print(f"{bad} frozen values differ from the rounded reference")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
