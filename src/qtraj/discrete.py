"""Repeated-interaction measurement chain for the two-level system.

One step: entangle the system with a fresh field qubit through the
interaction unitary, measure the two-outcome field observable, collapse, and
trace the field out. The post-measurement states form a Markov chain. The
centered, normalized outcome variables

    x_{k+1} = (outcome_{k+1} - q_{k+1}) / sqrt(p_{k+1} q_{k+1})

have conditional mean 0 and variance 1 by construction, and for a
nondiagonal observable the chain decomposes per step as

    rho_{k+1} - rho_k = L(rho_k)/n - B(rho_k) x_{k+1}/sqrt(n) + remainder,

with the Lindblad drift L and diffusive backaction B of :mod:`qtraj.sde`.
Sign note: with this package's conventions (first eigenvector
cos(phi/2) f0 + sin(phi/2) f1, emission block +c/sqrt(n)) the noise couples
through -B; the chain is distributionally identical to the +B form (x -> -x).

Stepping core: the two branch maps are linear in rho. Expanding the field
partial trace, branch i is sum_{c,d} P_i[d,c] L_c0 rho L_d0+ with P_i the
outcome projector and L_c0 the field-sector blocks of the unitary, so in the
row-major Liouville layout of :mod:`qtraj.linalg` it is one 4x4 matrix

    S_i = sum_{c,d} P_i[d,c] kron(L_c0, conj(L_d0)).T,   vec(m_i) = vec(rho) @ S_i.

Both maps keep Hermiticity, so in the Bloch coordinates of
:mod:`qtraj.linalg`, rho = (I + r.sigma)/2, they are the real 4x4 matrices
``bloch_superop(S_i)``, and B = [bloch_superop(S_0) | bloch_superop(S_1)] is
built once per configuration. An ensemble is held as a (3, M) array of
Bloch rows r and each step is one product w = (1, r) @ B, taken row by row
by ``linalg.bloch_apply`` into an (8, M) buffer allocated once per pass.
Column 0 of each half is the branch trace, so p = w[0] and q = w[4], and the
next state is the chosen half's rows 1-3 divided in place by its weight;
Hermiticity and unit trace hold by construction. Each member's half is
picked by integer bit masks on the int64 views of the two halves, not by
``np.where``: the outcomes are near-fair coin flips, and numpy's where loop
branches once per element, so most of its time on them goes to branch
misprediction (see ``drive_ensemble``).

A single recorded trajectory (``run_trajectory``) is not a batch of one:
with M = 1 the numpy calls of a step are all overhead. ``_scalar_chain``
steps it in Python floats, reading B through ``tolist()`` and taking the
operations of ``bloch_apply`` and ``drive_ensemble`` in the same order, so
every recorded number has the bits of the ensemble row (the products of
B's exact zeros, which ``bloch_apply`` may skip, change no bit; the default
model's B has none). The tests check this step by step against
``drive_ensemble``; it does not hold by construction.
The caller fixes which loop runs: a recorded path or an ensemble. The loop
fills a record table that a ``csvio.RowFeed`` provides and publishes each
checked block of rows to it, so the CLI can format the CSV beside the loop;
the CSV columns of any row range come from ``_record`` and ``_csv_columns``,
the functions ``run_trajectory`` and ``trajectory_to_csv`` use.

Sampling convention: outcome 1 is taken iff the step's uniform draw is < q,
and each trajectory consumes exactly one uniform per step. An ensemble's
uniforms are one step-major block of its seed's PCG64 stream
(``ensemble_streams``, ``rng.member_streams``), and a single trajectory is
the ensemble of one, so it reads the stream of its own seed.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from math import nan, sqrt
from typing import Iterator

import numpy as np

from .csvio import IN_PROCESS, STATE_HEADER, RowFeed, state_columns, write_csv
from .linalg import (adjoint, bloch_apply, bloch_norm_sq, bloch_superop, bloch_terms,
                     bloch_to_density, density_to_bloch, sandwich_superop)
from .model import (STATE_TOL, VALIDATE_EVERY, DensityMatrix, InteractionUnitary,
                    ModelConfig, Observable, build_unitary, validate_batch)
from .rng import generator_for, member_streams

DEGENERATE_PROB = 1e-12
NULL_BRANCH = 1e-14
# cost of one _scalar_chain step in %.17g cells formatted, which places the
# split of a table formatted beside the loop (cli._FormattedAhead). On the
# 2-vCPU Xeon VM at n = 20000 a step costs 2.7 cells in one process (27.9 ms
# of stepping, 0.52 us a cell); with a child formatting beside the loop both
# lanes run slower, and they end together at 2.5 (the median lane ends of
# 21 runs at 1.5, 2.5 and 3 cells differ by -17, 0 and +9 ms)
CHAIN_STEP_CELLS = 2.5


class DegenerateProbability(ValueError):
    """A branch with vanishing probability was requested."""


@dataclass(frozen=True)
class TrajectoryRecord:
    """One trajectory: states rho_0..rho_K plus per-step outcome data."""

    states: np.ndarray        # (steps+1, 2, 2) complex
    outcomes: np.ndarray      # (steps,) int
    x_increments: np.ndarray  # (steps,) float
    probabilities: np.ndarray  # (steps, 2) float, columns (p, q)
    n: int
    seed: int

    @property
    def steps(self) -> int:
        return len(self.outcomes)


def branch_superops(u: InteractionUnitary, a: Observable) -> np.ndarray:
    """(4, 8) matrix [S_0 | S_1] of the two unnormalized branch maps on
    row-major vec'd states (see the module docstring)."""
    blocks = (u.l00, u.l10)
    return np.hstack([
        sum(proj[d, c] * sandwich_superop(blocks[c], adjoint(blocks[d]))
            for c in (0, 1) for d in (0, 1))
        for proj in (a.p0, a.p1)])


def _chain_matrix(cfg: ModelConfig) -> np.ndarray:
    """Real (4, 8) matrix B = [bloch_superop(S_0) | bloch_superop(S_1)] of
    the two branch maps, acting on u = (1, r)."""
    s = branch_superops(build_unitary(cfg), cfg.observable)
    return np.hstack([bloch_superop(s[:, :4]), bloch_superop(s[:, 4:])])


def drive_ensemble(cfg: ModelConfig, rho0: DensityMatrix, uniforms: np.ndarray,
                   ) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray,
                                       np.ndarray, np.ndarray]]:
    """Advance a batch of trajectories in lock-step.

    ``uniforms`` is (num_traj, steps), one stream row per trajectory. Yields
    (k, r, outcomes, x, p, q) after each step, with r the (num_traj, 3) Bloch
    vectors of the states, the transposed view of the (3, num_traj) rows the
    loop steps. Every yielded array is new at each step. The initial
    state is checked against the invariants first, and the states every
    VALIDATE_EVERY steps and after the last one: by the cheap test of
    ``_scalar_chain`` first, max x^2 + y^2 + z^2 <= 1 + STATE_TOL, and by
    ``validate_batch`` on the whole batch only where that fails, so the same
    batches fail with the same message. The numpy calls take array operands
    and reused buffers, as in ``linalg.bloch_apply``.

    Outcome 1 is taken iff the step's uniform is < q, and x is
    sqrt(other trace / chosen trace), negated for outcome 0. A trajectory
    with min(p, q) < DEGENERATE_PROB instead takes the dominant branch
    (outcome 0 when p >= q) and records x = 0; this rule runs only on a step
    that has a degenerate trajectory, and before the pick. A NaN p or q
    makes no trajectory degenerate (fmin skips it). A chosen branch whose
    trace is below NULL_BRANCH raises DegenerateProbability.

    The pick: with keep = outcome - 1, all ones where the outcome is 0, and
    lo, hi the int64 views of (p, branch-0 rows) and (q, branch-1 rows),
    d = (lo ^ hi) & keep gives the (4, M) array chosen = hi ^ d, weight and
    next state, and other = lo[0] ^ d[0]; x takes its minus sign as the XOR
    of keep's sign bit. These copy bits, as ``np.where`` and ``np.negative``
    do, NaN, +-0 and inf included, so the bits are those of the where step
    kept in the tests' oracles. On near-fair outcomes, where's per-element
    branch mispredicts: at M = 2000 one call takes about 12 us on a fresh
    mask against 3 us on a repeated one (2-vCPU Xeon VM, numpy 2.4.6).
    """
    validate_batch(rho0.m, None)
    terms = bloch_terms(_chain_matrix(cfg))
    num_traj, steps = uniforms.shape
    r = np.repeat(density_to_bloch(rho0.m)[:, None], num_traj, axis=1)
    w = np.empty((8, num_traj))
    # the bits of the two halves, (p, branch-0 rows) and (q, branch-1 rows)
    lo, hi = w[:4].view(np.int64), w[4:].view(np.int64)
    # reused buffers and 0-d constants (see linalg.bloch_terms)
    one, least, low = np.empty(num_traj, bool), np.empty(num_traj), np.empty(num_traj, bool)
    keep, flip, d = (np.empty(num_traj, np.int64), np.empty(num_traj, np.int64),
                     np.empty((4, num_traj), np.int64))
    unit, sign = np.array(1), np.array(np.iinfo(np.int64).min)
    degenerate_prob = np.array(DEGENERATE_PROB)
    for k in range(steps):
        bloch_apply(r, terms, w)
        # w is overwritten next step; every yielded array is fresh
        p, q = w[0].copy(), w[4].copy()
        np.less(uniforms[:, k], q, one)
        # fmin skips NaN: a NaN trace makes no member degenerate
        rare = np.fmin.reduce(np.minimum(p, q, out=least)) < DEGENERATE_PROB
        if rare:
            degenerate = np.less(least, degenerate_prob, low)
            one = np.where(degenerate, q > p, one)
        outcome = one.astype(np.int64)
        # all ones where the outcome is 0: there d = lo ^ hi and chosen = lo,
        # elsewhere d = 0 and chosen = hi; its sign bit is x's sign
        np.subtract(outcome, unit, keep)
        np.bitwise_and(np.bitwise_xor(lo, hi, d), keep, d)
        chosen = np.bitwise_xor(hi, d).view(float)
        other = np.bitwise_xor(lo[0], d[0]).view(float)
        weight, r = chosen[0], chosen[1:]
        if rare:
            # NULL_BRANCH < DEGENERATE_PROB: only a degenerate step can
            # choose a null branch
            if np.any(weight < NULL_BRANCH):
                j = int(np.argmin(weight))
                raise DegenerateProbability(
                    f"step {k}, trajectory {j}: branch trace {weight[j]:.3e}")
            other[degenerate] = 0.0     # the minor trace may round below 0
        x = np.sqrt(np.divide(other, weight, other), other)
        bits = x.view(np.int64)
        np.bitwise_xor(bits, np.bitwise_and(keep, sign, flip), bits)
        if rare:
            x[degenerate] = 0.0         # +0.0, not the -0.0 of -x
        np.divide(r, weight, r)
        if (k + 1) % VALIDATE_EVERY == 0 or k + 1 == steps:
            # a cheap test first: a batch inside it passes the full check
            if not bloch_norm_sq(r, w[1:4], w[0]).max() <= 1.0 + STATE_TOL:
                validate_batch(bloch_to_density(r.T), k)
        yield k, r.T, outcome, x, p, q


def _scalar_chain(b: np.ndarray, r0: np.ndarray, uniforms: np.ndarray,
                  table: np.ndarray | None = None, publish=IN_PROCESS.publish,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The steps of ``drive_ensemble`` for one trajectory, in Python floats.

    Takes the (4, 8) matrix of ``_chain_matrix``, the initial Bloch vector
    and the (steps,) uniforms, and returns ``_fields`` of its record table:
    (Bloch vectors (steps+1, 3), outcomes, x, (p, q) columns). Each number
    comes from the operations that ``bloch_apply`` and ``drive_ensemble``
    take on a member, in the same order, so it has the same bits; the tests
    check this step by step. Only the chosen branch's state is computed. The
    degenerate-branch rule, its +0.0 x, the DegenerateProbability raise and
    the invariant checks every VALIDATE_EVERY steps and after the last one
    are those of ``drive_ensemble``. A NaN p or q makes no step degenerate,
    as ``np.minimum`` propagates it.

    A check tests x^2 + y^2 + z^2 <= 1 + STATE_TOL in Python floats first
    and calls ``validate_batch`` only where that fails, NaN and inf
    included. A state that passes the cheap test passes the full one: its
    smallest eigenvalue (1 - |r|)/2 is at least -STATE_TOL/4 up to
    rounding, and ``bloch_to_density`` makes it exactly Hermitian with trace
    1 to an ulp. So the same states fail, with the same message.

    The record table is ``table`` ((steps+1, 7), a new one by default): row
    0 holds r0 and NaN, row k + 1 the state after step k and that step's
    (p, q, x, outcome). A block's rows go into it once its last state is
    checked, and then ``publish`` gets the number of rows filled.
    """
    (e0, e1, e2, e3, e4, e5, e6, e7), (x0, x1, x2, x3, x4, x5, x6, x7), \
        (y0, y1, y2, y3, y4, y5, y6, y7), (z0, z1, z2, z3, z4, z5, z6, z7) = b.tolist()
    x, y, z = r0.tolist()
    # a memoryview yields Python floats without holding a list of them
    draws = memoryview(np.ascontiguousarray(uniforms, dtype=float))
    steps = len(draws)
    if table is None:
        table = np.empty((steps + 1, 7))
    table[0] = x, y, z, nan, nan, nan, nan
    for start in range(0, steps, VALIDATE_EVERY):
        block = array("d")
        put = block.extend
        for k in range(start, min(start + VALIDATE_EVERY, steps)):
            p = e0 + x * x0 + y * y0 + z * z0
            q = e4 + x * x4 + y * y4 + z * z4
            one = draws[k] < q
            degenerate = (p < DEGENERATE_PROB or q < DEGENERATE_PROB) and p == p and q == q
            if degenerate:
                one = q > p
            weight, other = (q, p) if one else (p, q)
            if degenerate:
                if weight < NULL_BRANCH:
                    raise DegenerateProbability(
                        f"step {k}, trajectory 0: branch trace {weight:.3e}")
                xs = 0.0
            else:
                xs = sqrt(other / weight)
                if not one:
                    xs = -xs
            if one:
                x, y, z = ((e5 + x * x5 + y * y5 + z * z5) / weight,
                           (e6 + x * x6 + y * y6 + z * z6) / weight,
                           (e7 + x * x7 + y * y7 + z * z7) / weight)
            else:
                x, y, z = ((e1 + x * x1 + y * y1 + z * z1) / weight,
                           (e2 + x * x2 + y * y2 + z * z2) / weight,
                           (e3 + x * x3 + y * y3 + z * z3) / weight)
            put((x, y, z, p, q, xs, one))
        # a cheap test first: a state inside it passes the full check
        if not x * x + y * y + z * z <= 1.0 + STATE_TOL:
            validate_batch(bloch_to_density(np.array([x, y, z])), k)
        table[start + 1:k + 2] = np.frombuffer(block).reshape(-1, 7)
        publish(k + 2)
    return _fields(table)


def _fields(table: np.ndarray, lo: int = 0,
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(Bloch vectors, outcomes, x, (p, q) columns) of the rows [lo, lo +
    len(table)) of a ``_scalar_chain`` record table; row 0 holds no step."""
    steps = table[1:] if lo == 0 else table
    return table[:, :3], steps[:, 6].astype(np.int64), steps[:, 5], steps[:, 3:5]


def _record(table: np.ndarray, n: int, seed: int, lo: int = 0) -> TrajectoryRecord:
    """The record of the rows [lo, lo + len(table)) of a ``_scalar_chain``
    record table; with lo = 0 and the whole table, the trajectory's."""
    bloch, outcomes, x, probs = _fields(table, lo)
    return TrajectoryRecord(states=bloch_to_density(bloch), outcomes=outcomes,
                            x_increments=x, probabilities=probs, n=n, seed=seed)


def run_trajectory(cfg: ModelConfig, rho0: DensityMatrix, seed: int,
                   feed: RowFeed = IN_PROCESS) -> TrajectoryRecord:
    """Simulate floor(n * t_horizon) measurement steps; deterministic in seed.
    The initial state is checked first; the steps are ``_scalar_chain``'s,
    in the record table of ``feed``, which gets each checked block."""
    uniforms = ensemble_streams(seed, 1, cfg.steps)[0]
    validate_batch(rho0.m, None)

    def columns(rows, lo):
        return _csv_columns(_record(rows, cfg.n, seed, lo), lo)

    table = feed.table((cfg.steps + 1, 7), columns, CHAIN_STEP_CELLS)
    _scalar_chain(_chain_matrix(cfg), density_to_bloch(rho0.m), uniforms, table,
                  feed.publish)
    return _record(table, cfg.n, seed)


def ensemble_streams(base_seed: int, num_traj: int, steps: int) -> np.ndarray:
    """(num_traj, steps) uniforms of an ensemble: row j is column j of one
    (steps, num_traj) block drawn from generator_for(base_seed)."""
    return member_streams(generator_for(base_seed), num_traj, steps, "random")


def _csv_columns(record: TrajectoryRecord, lo: int = 0) -> list:
    """The CSV columns of a record whose first state is row ``lo``: step,
    time, outcome, p, q, x and the rho entries, the per-step columns one
    shorter when lo = 0."""
    k = np.arange(lo, lo + len(record.states))
    return [k, k / record.n, record.outcomes, *record.probabilities.T,
            record.x_increments, *state_columns(record.states)]


def trajectory_to_csv(record: TrajectoryRecord, stream, timestamp: str | None = None,
                      feed: RowFeed = IN_PROCESS) -> None:
    """CSV dump: step, time, outcome, p, q, x, rho entries (row 0 has empty
    outcome fields); the rows ``feed`` formatted ahead come from it, as in
    ``write_csv``."""
    write_csv(stream, "step,time,outcome,p,q,x," + STATE_HEADER, _csv_columns(record),
              timestamp, feed)
