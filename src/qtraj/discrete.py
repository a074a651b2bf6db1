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

Sampling convention: outcome 1 is taken iff the step's uniform draw is < q.
Each trajectory owns one PCG64 stream seeded with its 64-bit seed and
consumes exactly one uniform per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .csvio import STATE_HEADER, state_columns, table_rows, write_csv
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
    s = branch_superops(build_unitary(cfg), cfg.observable)
    b = np.hstack([bloch_superop(s[:, :4]), bloch_superop(s[:, 4:])])
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


def run_trajectory(cfg: ModelConfig, rho0: DensityMatrix, seed: int) -> TrajectoryRecord:
    """Simulate floor(n * t_horizon) measurement steps; deterministic in seed."""
    steps = cfg.steps
    uniforms = generator_for(seed).random(steps)[None, :]
    bloch = np.empty((steps + 1, 3))
    bloch[0] = density_to_bloch(rho0.m)
    outcomes = np.empty(steps, dtype=np.int64)
    x = np.empty(steps)
    probs = np.empty((steps, 2))
    for k, r, out, xs, p, q in drive_ensemble(cfg, rho0, uniforms):
        bloch[k + 1] = r[0]
        outcomes[k] = out[0]
        x[k] = xs[0]
        probs[k, 0] = p[0]
        probs[k, 1] = q[0]
    return TrajectoryRecord(states=bloch_to_density(bloch), outcomes=outcomes,
                            x_increments=x, probabilities=probs, n=cfg.n, seed=seed)


def ensemble_streams(base_seed: int, num_traj: int, steps: int) -> np.ndarray:
    """Uniform streams for an ensemble: row j comes from derive_seed(base, j)."""
    return member_streams(base_seed, num_traj, steps, "random")


def trajectory_to_csv(record: TrajectoryRecord, stream, timestamp: str | None = None) -> None:
    """CSV dump: step, time, outcome, p, q, x, rho entries (row 0 has empty
    outcome fields)."""
    k = np.arange(record.steps + 1)
    rows = table_rows(k, k / record.n, record.outcomes, *record.probabilities.T,
                      record.x_increments, *state_columns(record.states))
    write_csv(stream, "step,time,outcome,p,q,x," + STATE_HEADER, rows, timestamp)
