"""Seed derivation and stream construction.

All randomness in the package flows from 64-bit seeds through numpy's PCG64
(O'Neill, "PCG: A Family of Simple Fast Space-Efficient Statistically Good
Algorithms for Random Number Generation", HMC-CS-2014-0905). A command
derives one seed per independent stream from its master seed with
``derive_seed`` (XOR with an index such as a purpose tag, pushed through
the SplitMix64 finalizer), and reads that seed's Generator in order.

An ensemble of M members over K steps reads the first K M draws of its
seed's stream, step-major: the (K, M) array whose row k is step k of every
member. ``step_blocks`` reads it as consecutive blocks of rows, each drawn
when the reader reaches it and at most BLOCK_DRAWS draws long, so an
ensemble's increments take bounded memory whatever K; ``member_streams``
draws it as one block, given as its (M, K) transpose, for a single path,
whose record keeps every draw, and a chain pass, whose ``drive_ensemble``
takes its uniforms as one array. Both give the same bits: a Generator
fills an array in draw order. So member j is column j of the array; step k
of every member is one contiguous run; K' < K steps are the first K' steps
of the same seed's K; and an ensemble of one is the single path of its
seed.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

_MASK64 = (1 << 64) - 1
# draws in one block of step_blocks: 512 KiB of doubles, of which a reader
# holds two while it moves on. An Euler ensemble of M = 1000 over 1000 steps
# peaks at 1.15 MiB under tracemalloc with them, and at 8.0 MiB with its
# whole (K, M) block; on the 2-vCPU Xeon VM its median wall time, and that
# of M = 5000, stayed inside the whole block's quartiles from 2^12 to 2^20
# draws (7 interleaved rounds)
BLOCK_DRAWS = 2 ** 16


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


def step_blocks(gen: np.random.Generator, count: int, steps: int,
                draw: str) -> Iterator[np.ndarray]:
    """The first ``steps`` steps of ``count`` members on ``gen`` as
    consecutive step-major (b, count) blocks of the Generator method
    ``draw`` ("random" or "standard_normal"), each drawn when it is asked
    for: b = max(1, BLOCK_DRAWS // count) steps, fewer in the last block.
    Row i of a block is one step of every member, C-contiguous."""
    size = max(1, BLOCK_DRAWS // max(count, 1))
    for start in range(0, steps, size):
        yield getattr(gen, draw)((min(size, steps - start), count))


def member_streams(gen: np.random.Generator, count: int, steps: int,
                   draw: str) -> np.ndarray:
    """(count, steps) streams, one row per member: the ``step_blocks`` of
    ``gen`` drawn as one (steps, count) block and transposed, so column k,
    step k of every member, is C-contiguous (see the module docstring)."""
    return getattr(gen, draw)((steps, count)).T
