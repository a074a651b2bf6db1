"""Seed derivation and generator construction.

All randomness in the package flows from 64-bit seeds through numpy's PCG64.
Ensemble members derive their own seed from a single base seed with
``derive_seed`` (XOR with the member index, pushed through the SplitMix64
finalizer), so serial and vectorized execution consume identical streams and
results are reproducible across machines.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def mix64(x: int) -> int:
    """SplitMix64 finalizer: bijective 64-bit mixer with full avalanche."""
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(base_seed: int, index: int) -> int:
    """Seed of ensemble member ``index``: mix64(base_seed XOR index)."""
    return mix64((base_seed ^ index) & _MASK64)


def generator_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def member_streams(base_seed: int, count: int, steps: int, draw: str) -> np.ndarray:
    """Per-member streams, one row per member: row j holds ``steps`` draws of
    the Generator method ``draw`` ("random" or "standard_normal") from
    generator_for(derive_seed(base_seed, j))."""
    out = np.empty((count, steps))
    for j in range(count):
        out[j] = getattr(generator_for(derive_seed(base_seed, j)), draw)(steps)
    return out
