"""Seed derivation for reproducible experiments.

Every random draw in this package comes from a numpy Generator seeded
with an integer. Independent streams (one per Monte Carlo cell and rep,
one per purpose) are derived from a single master seed with mix(), a
splitmix64 finalizer pass per index. Changing mix() would silently change every published number, so
the constants are pinned here.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One splitmix64 step: advance by the golden-gamma and finalize."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def mix(master_seed: int, *indices: int) -> int:
    """Derive a 64-bit child seed from a master seed and stream indices.

    Deterministic, order-sensitive, and well spread even for small
    consecutive indices.
    """
    s = master_seed & _MASK64
    for ix in indices:
        s = splitmix64(s ^ (ix & _MASK64))
    return s
