"""Seed derivation and generator construction.

All randomness in the package flows from 64-bit seeds through numpy's PCG64.
Ensemble members derive their own seed from a single base seed with
``derive_seed`` (XOR with the member index, pushed through the SplitMix64
finalizer), so serial and vectorized execution consume identical streams and
results are reproducible across machines.

``member_streams`` builds no Generator per member. It computes every
member's PCG64 state in bulk, in wrapping numpy integer arithmetic that
transcribes numpy's own seeding (``SeedSequence`` in bit_generator.pyx, then
``pcg64_set_seed`` in pcg64.h), and fills every row from one reused
Generator whose state it sets. Row j is therefore bit-identical to the
stream of PCG64(derive_seed(base, j)). This rests on the stability of the
SeedSequence and PCG64 streams that NEP 19 ("Random number generator
policy") promises; the tests compare the bulk states with numpy's own
objects on edge seeds, so a change in numpy fails loudly.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

# SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_PCG_MULT_HI = np.uint64(0x2360ED051FC65DA4)
_PCG_MULT_LO = np.uint64(0x4385DF649FCCF645)


def mix64(x: int) -> int:
    """SplitMix64 finalizer: bijective 64-bit mixer with full avalanche.
    Also applies elementwise to a uint64 array, whose arithmetic wraps."""
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(base_seed: int, index: int) -> int:
    """Seed of ensemble member ``index``: mix64(base_seed XOR index). A
    uint64 array of indices gives the uint64 array of their seeds."""
    return mix64((base_seed ^ index) & _MASK64)


def generator_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _hash_steps(init: int, mult: int, count: int) -> list[tuple[np.uint32, np.uint32]]:
    """(xor, multiplier) of SeedSequence's first ``count`` hash steps. Its
    hash constant h runs init, init * mult, ... whatever the data, and a
    step maps v -> ((v ^ h) * (h * mult)) with h then advanced."""
    steps, h = [], init
    for _ in range(count):
        nxt = (h * mult) & _MASK32
        steps.append((np.uint32(h), np.uint32(nxt)))
        h = nxt
    return steps


_HASHMIX = _hash_steps(_INIT_A, _MULT_A, 16)    # 4 entropy words, 12 pool mixes
_GENERATE = _hash_steps(_INIT_B, _MULT_B, 8)    # generate_state(4, uint64)


def _xorshift16(v: np.ndarray) -> np.ndarray:
    return v ^ (v >> np.uint32(16))


def _seed_words(seeds: np.ndarray) -> list[np.ndarray]:
    """SeedSequence(seed).generate_state(4, np.uint64) for every seed of a
    uint64 array, as four uint64 arrays w0..w3. A seed's entropy is its
    little-endian uint32 words, zero-padded to the pool size of 4. Each hash
    takes the next of the hash steps, in numpy's order of calls."""
    hashmix = iter(_HASHMIX)

    def hashed(v):
        xor, mult = next(hashmix)
        return _xorshift16((v ^ xor) * mult)

    zero = np.zeros(len(seeds), dtype=np.uint32)
    entropy = ((seeds & _MASK32).astype(np.uint32),
               (seeds >> np.uint64(32)).astype(np.uint32), zero, zero)
    pool = [hashed(e) for e in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _xorshift16(np.uint32(_MIX_MULT_L) * pool[dst]
                                        - np.uint32(_MIX_MULT_R) * hashed(pool[src]))
    half = [_xorshift16((pool[i % 4] ^ xor) * mult).astype(np.uint64)
            for i, (xor, mult) in enumerate(_GENERATE)]
    return [half[i] | (half[i + 1] << np.uint64(32)) for i in range(0, 8, 2)]


def _mulhi(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """High 64 bits of the 128-bit products a * b, from 32-bit halves."""
    u32 = np.uint64(32)
    a0, a1 = a & _MASK32, a >> u32
    b0, b1 = b & _MASK32, b >> u32
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> u32) + (p01 & _MASK32) + (p10 & _MASK32)
    return a1 * b1 + (p01 >> u32) + (p10 >> u32) + (mid >> u32)


def _pcg64_states(seeds: np.ndarray) -> tuple[list[int], list[int]]:
    """The 128-bit (state, inc) of np.random.PCG64(seed) for every seed of a
    uint64 array, as two lists of Python ints. From the seed words,
    pcg64_set_seed takes initstate = w0 << 64 | w1 and inc = (w2 << 64 | w3)
    << 1 | 1, and steps the LCG twice from 0 with initstate added between:
    state = ((inc + initstate) MULT + inc) mod 2^128. The sums and the
    product are taken on (high, low) pairs of uint64 arrays."""
    w0, w1, w2, w3 = _seed_words(seeds)
    one = np.uint64(1)
    inc_hi = (w2 << one) | (w3 >> np.uint64(63))
    inc_lo = (w3 << one) | one
    lo = inc_lo + w1
    hi = inc_hi + w0 + (lo < inc_lo)
    hi = _mulhi(lo, _PCG_MULT_LO) + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO
    lo = lo * _PCG_MULT_LO
    state_lo = lo + inc_lo
    state_hi = hi + inc_hi + (state_lo < lo)

    def join(high, low):
        return [(h << 64) | l for h, l in zip(high.tolist(), low.tolist())]

    return join(state_hi, state_lo), join(inc_hi, inc_lo)


def member_streams(base_seed: int, count: int, steps: int, draw: str) -> np.ndarray:
    """Per-member streams, one row per member: row j holds ``steps`` draws of
    the Generator method ``draw`` ("random" or "standard_normal"), bit for
    bit those of generator_for(derive_seed(base_seed, j)). The members'
    PCG64 states are computed in bulk (see the module docstring), and each
    row is drawn in place from one Generator set to its member's state."""
    seeds = derive_seed(base_seed, np.arange(count, dtype=np.uint64))
    states, incs = _pcg64_states(seeds)
    out = np.empty((count, steps))
    bit_gen = np.random.PCG64(0)
    fill = getattr(np.random.Generator(bit_gen), draw)
    value = bit_gen.state
    for j in range(count):
        value["state"] = {"state": states[j], "inc": incs[j]}
        bit_gen.state = value
        fill(out=out[j])
    return out
