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
built once per configuration. An ensemble is held as an (M, 3) array r and
each step is one product w = (1, r) @ B, taken by ``linalg.bloch_apply`` as
an (8, M) array. Column 0 of each half is the branch trace, so p = w[0] and
q = w[4], and the next state is the chosen half's rows 1-3 divided by its
weight; Hermiticity and unit trace hold by construction.

A single recorded trajectory (``run_trajectory``) is not a batch of one:
with M = 1 the numpy calls of a step are all overhead. ``_scalar_chain``
steps it in Python floats, reading B through ``tolist()`` and taking the
operations of ``bloch_apply`` and ``drive_ensemble`` in the same order, so
every recorded number has the bits of the ensemble row. The tests check this
step by step against ``drive_ensemble``; it does not hold by construction.
The caller fixes which loop runs: a recorded path or an ensemble.

Sampling convention: outcome 1 is taken iff the step's uniform draw is < q.
Each trajectory owns one PCG64 stream seeded with its 64-bit seed and
consumes exactly one uniform per step.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from math import nan, sqrt
from typing import Iterator

import numpy as np

from .csvio import STATE_HEADER, in_turn, state_columns, write_csv
from .linalg import (adjoint, bloch_apply, bloch_superop, bloch_to_density,
                     density_to_bloch, sandwich_superop)
from .model import (VALIDATE_EVERY, DensityMatrix, InteractionUnitary, ModelConfig,
                    Observable, build_unitary, validate_batch)
from .rng import generator_for, member_streams

DEGENERATE_PROB = 1e-12
NULL_BRANCH = 1e-14


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
    vectors of the states; consumers must copy what they keep. The initial
    state is checked against the invariants first, and the states every
    VALIDATE_EVERY steps and after the last one.

    Outcome 1 is taken iff the step's uniform is < q, and x is
    sqrt(other trace / chosen trace), negated for outcome 0. A trajectory
    with min(p, q) < DEGENERATE_PROB instead takes the dominant branch
    (outcome 0 when p >= q) and records x = 0; this rule runs only on a step
    that has a degenerate trajectory. A chosen branch whose trace is below
    NULL_BRANCH raises DegenerateProbability.
    """
    validate_batch(rho0.m, None)
    b = _chain_matrix(cfg)
    num_traj, steps = uniforms.shape
    r = np.broadcast_to(density_to_bloch(rho0.m), (num_traj, 3))
    for k in range(steps):
        w = bloch_apply(r, b)
        p, q = w[0], w[4]
        one = uniforms[:, k] < q
        degenerate = np.minimum(p, q) < DEGENERATE_PROB
        rare = degenerate.any()
        if rare:
            one = np.where(degenerate, q > p, one)
        weight, other = np.where(one, q, p), np.where(one, p, q)
        if rare:
            # NULL_BRANCH < DEGENERATE_PROB: only a degenerate step can
            # choose a null branch
            if np.any(weight < NULL_BRANCH):
                j = int(np.argmin(weight))
                raise DegenerateProbability(
                    f"step {k}, trajectory {j}: branch trace {weight[j]:.3e}")
            other[degenerate] = 0.0     # the minor trace may round below 0
        x = np.sqrt(other / weight)
        x = np.where(one, x, -x)
        if rare:
            x[degenerate] = 0.0         # +0.0, not the -0.0 of -x
        r = (np.where(one, w[5:], w[1:4]) / weight).T
        outcome = one.astype(np.int64)
        if (k + 1) % VALIDATE_EVERY == 0 or k + 1 == steps:
            validate_batch(bloch_to_density(r), k)
        yield k, r, outcome, x, p, q


def _scalar_chain(b: np.ndarray, r0: np.ndarray, uniforms: np.ndarray,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The steps of ``drive_ensemble`` for one trajectory, in Python floats.

    Takes the (4, 8) matrix of ``_chain_matrix``, the initial Bloch vector
    and the (steps,) uniforms, and returns (Bloch vectors (steps+1, 3),
    outcomes, x, (p, q) columns). Each number comes from the operations that
    ``bloch_apply`` and ``drive_ensemble`` take on a row, in the same order,
    so it has the same bits; the tests check this step by step. Only the
    chosen branch's state is computed. The degenerate-branch rule, its +0.0
    x, the DegenerateProbability raise and the invariant checks every
    VALIDATE_EVERY steps and after the last one are those of
    ``drive_ensemble``. A NaN p or q makes no step degenerate, as
    ``np.minimum`` propagates it.
    """
    (e0, e1, e2, e3, e4, e5, e6, e7), (x0, x1, x2, x3, x4, x5, x6, x7), \
        (y0, y1, y2, y3, y4, y5, y6, y7), (z0, z1, z2, z3, z4, z5, z6, z7) = b.tolist()
    x, y, z = r0.tolist()
    # a memoryview yields Python floats without holding a list of them
    draws = memoryview(np.ascontiguousarray(uniforms, dtype=float))
    steps = len(draws)
    # row 0 holds r0 (and no step data), row k + 1 the state after step k
    # and that step's (p, q, x, outcome)
    rec = array("d", (x, y, z, nan, nan, nan, nan))
    put = rec.extend
    for start in range(0, steps, VALIDATE_EVERY):
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
        validate_batch(bloch_to_density(np.array([x, y, z])), k)
    table = np.frombuffer(rec).reshape(steps + 1, 7)
    return (table[:, :3], table[1:, 6].astype(np.int64), table[1:, 5],
            table[1:, 3:5])


def run_trajectory(cfg: ModelConfig, rho0: DensityMatrix, seed: int) -> TrajectoryRecord:
    """Simulate floor(n * t_horizon) measurement steps; deterministic in seed.
    The initial state is checked first; the steps are ``_scalar_chain``'s."""
    uniforms = generator_for(seed).random(cfg.steps)
    validate_batch(rho0.m, None)
    bloch, outcomes, x, probs = _scalar_chain(_chain_matrix(cfg),
                                              density_to_bloch(rho0.m), uniforms)
    return TrajectoryRecord(states=bloch_to_density(bloch), outcomes=outcomes,
                            x_increments=x, probabilities=probs, n=cfg.n, seed=seed)


def ensemble_streams(base_seed: int, num_traj: int, steps: int) -> np.ndarray:
    """Uniform streams for an ensemble: row j comes from derive_seed(base, j)."""
    return member_streams(base_seed, num_traj, steps, "random")


def trajectory_to_csv(record: TrajectoryRecord, stream, timestamp: str | None = None,
                      run=in_turn) -> None:
    """CSV dump: step, time, outcome, p, q, x, rho entries (row 0 has empty
    outcome fields); ``run`` runs the text's parts, as in ``write_csv``."""
    k = np.arange(record.steps + 1)
    write_csv(stream, "step,time,outcome,p,q,x," + STATE_HEADER,
              [k, k / record.n, record.outcomes, *record.probabilities.T,
               record.x_increments, *state_columns(record.states)], timestamp, run)
