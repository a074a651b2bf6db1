"""Seed derivation and stream construction.

All randomness in the package flows from 64-bit seeds through numpy's PCG64
(O'Neill, "PCG: A Family of Simple Fast Space-Efficient Statistically Good
Algorithms for Random Number Generation", HMC-CS-2014-0905). A command
derives one seed per independent stream from its master seed with
``derive_seed`` (XOR with an index such as a purpose tag, pushed through
the SplitMix64 finalizer), and reads that seed's Generator in order.

An ensemble of M members over K steps is one block of its seed's stream
(``member_streams``): the (K, M) array of the first K M draws, step-major,
given as its (M, K) transpose. So member j is column j of the block; step k
of every member is one contiguous run; K' < K steps are the first K' steps
of the same seed's K; and an ensemble of one is the single path of its seed.
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
    """Seed of stream ``index`` under ``base_seed``: mix64(base_seed XOR index)."""
    return mix64((base_seed ^ index) & _MASK64)


def generator_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def member_streams(gen: np.random.Generator, count: int, steps: int,
                   draw: str) -> np.ndarray:
    """(count, steps) streams, one row per member: the transpose of one
    (steps, count) block of the Generator method ``draw`` ("random" or
    "standard_normal") on ``gen``, so column k, step k of every member, is
    C-contiguous (see the module docstring)."""
    return getattr(gen, draw)((steps, count)).T
