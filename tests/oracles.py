"""The paper's literal constructions, kept as references for the tests.

The package steps real Bloch coordinates of maps built once per
configuration. The constructions here follow the paper step by step instead:
the joint Hamiltonian, the joint state after one interaction, the field
partial trace, the branch maps, the sampled measurement step and its
increment form, and the diffusive SME in 2x2 matrix form. The tests compare
the package's stepping cores against them; nothing in ``qtraj`` calls them.
The single paths taken as a batch of one through the ensemble cores are
here too: the package steps single paths in Python floats, and these are the
references their bits are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import qtraj.discrete as discrete_mod
from qtraj.discrete import (DEGENERATE_PROB, NULL_BRANCH, DegenerateProbability,
                            TrajectoryRecord, drive_ensemble, ensemble_streams)
from qtraj.linalg import (adjoint, bloch_apply, bloch_terms, bloch_to_density,
                          density_to_bloch, project_ball, tensor)
from qtraj.model import (
    _FIELD_LOWER,
    _FIELD_RAISE,
    FIELD_HAMILTONIANS,
    ID2,
    STATE_TOL,
    DensityMatrix,
    InteractionUnitary,
    ModelConfig,
    Observable,
    WaveFunction,
    validate_batch,
    validate_norms,
)
from qtraj.sde import (SdePath, WavePath, _density_steps, _ensemble_noise, _euler_steps,
                       _real_parts, _wave_steps)

FIELD_GROUND = np.array([[1, 0], [0, 0]], dtype=complex)   # |f0><f0|


def apply_superop(v: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Row-vector product v @ s of a (..., 4) stack of vec'd states with a
    (4, k) block of superoperator columns.

    Written as a fixed sequence of elementwise products and sums, so every
    entry of a row is computed by the same operations whatever the number of
    rows: ensemble rows are bit-identical to single runs by construction. A
    BLAS product promises no such thing (gemv for one row and gemm for many
    may round differently).
    """
    return (v[..., 0:1] * s[0] + v[..., 1:2] * s[1]
            + v[..., 2:3] * s[2] + v[..., 3:4] * s[3])


def bloch_apply_broadcast(r: np.ndarray, a: np.ndarray) -> np.ndarray:
    """(k, M) array whose column j is (1, r_j) @ a, for an (M, 3) stack of
    Bloch vectors and a real (4, k) matrix: the broadcast form of
    ``linalg.bloch_apply``, with all of its products and sums in the same
    order, the +-0 products it skips on finite states included."""
    col = a[:, :, None]
    return col[0] + r[:, 0] * col[1] + r[:, 1] * col[2] + r[:, 2] * col[3]


def partial_trace_system(m: np.ndarray) -> np.ndarray:
    """Trace the field qubit out of a 4x4 operator, keeping the system.

    In the block layout of :mod:`qtraj.linalg` this is the sum of the
    diagonal field blocks; it is the unique linear map with
    Tr[out @ x] = Tr[m @ tensor(x, I)] for every system operator x.
    """
    return m[:2, :2] + m[2:, 2:]


def check_state(m: np.ndarray) -> None:
    """Raise NotAState unless m is Hermitian, trace-one, positive to STATE_TOL
    (``validate_batch`` on a single state, labelled step 0)."""
    validate_batch(np.asarray(m), 0)


def make_density(m: np.ndarray) -> DensityMatrix:
    """Validated state constructor: rejects anything farther than STATE_TOL
    from a state, then symmetrizes, renormalizes the trace and clips the
    eigenvalues at zero by projecting the Bloch vector onto the unit ball.
    """
    m = np.asarray(m, dtype=complex)
    check_state(m)
    r = density_to_bloch(m) / m.trace().real
    return DensityMatrix(bloch_to_density(project_ball(r)))


def make_wave(v: np.ndarray) -> WaveFunction:
    """Validated wave-function constructor (norm within STATE_TOL of 1)."""
    v = np.asarray(v, dtype=complex)
    nrm = float(np.linalg.norm(v))
    if not abs(nrm - 1.0) <= STATE_TOL:
        raise ValueError(f"norm deviates from 1 by {abs(nrm - 1.0):.3e}")
    return WaveFunction(v / nrm)


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2), in [1/2, 1]; equals 1 exactly on pure states."""
    return float((rho.m @ rho.m).trace().real)


def build_total_hamiltonian(cfg: ModelConfig) -> np.ndarray:
    """Joint Hamiltonian with the 1/sqrt(n)-weighted exchange coupling."""
    c = cfg.coupling()
    h_field = FIELD_HAMILTONIANS[cfg.field_hamiltonian]
    coupling = (tensor(c, _FIELD_RAISE) + tensor(adjoint(c), _FIELD_LOWER))
    return (tensor(cfg.h0, ID2) + tensor(ID2, h_field)
            + coupling / np.sqrt(cfg.n))


def field_ground_energy(cfg: ModelConfig) -> float:
    """Energy of the field ground level; sets the global phase of L00."""
    return float(FIELD_HAMILTONIANS[cfg.field_hamiltonian][0, 0].real)


@dataclass(frozen=True)
class StepOutcome:
    """Result of one measurement step."""

    outcome: int
    p: float
    q: float
    x: float
    next_state: DensityMatrix


def interaction_state(rho: DensityMatrix, u: InteractionUnitary) -> np.ndarray:
    """Joint state after one interaction, U (rho (x) |f0><f0|) U+."""
    joint = tensor(rho.m, FIELD_GROUND)
    return u.matrix @ joint @ adjoint(u.matrix)


def nonnormalized_maps(rho: DensityMatrix, u: InteractionUnitary,
                       a: Observable) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized post-measurement branches.

    Sandwiches the joint state with I (x) p_i and traces the field out;
    both outputs are positive and their traces sum to one.
    """
    mu = interaction_state(rho, u)
    branches = []
    for proj in (a.p0, a.p1):
        sandwich = tensor(ID2, proj)
        branches.append(partial_trace_system(sandwich @ mu @ sandwich))
    return branches[0], branches[1]


def measurement_step(rho: DensityMatrix, u: InteractionUnitary, a: Observable,
                     uniform_draw: float) -> StepOutcome:
    """One indirect measurement: sample the outcome, collapse, renormalize.

    Outcome 1 iff uniform_draw < q. If min(p, q) < 1e-12 the step is taken
    deterministically on the dominant branch with x recorded as 0.
    """
    m0, m1 = nonnormalized_maps(rho, u, a)
    p = float(m0.trace().real)
    q = float(m1.trace().real)
    if min(p, q) < DEGENERATE_PROB:
        outcome = 0 if p >= q else 1
        x = 0.0
    else:
        outcome = 1 if uniform_draw < q else 0
        x = float(np.sqrt(p / q)) if outcome == 1 else -float(np.sqrt(q / p))
    branch, weight = ((m1, q) if outcome == 1 else (m0, p))
    if weight < NULL_BRANCH:
        raise DegenerateProbability(
            f"branch {outcome} has trace {weight:.3e} < {NULL_BRANCH:g}")
    nxt = branch / weight
    check_state(nxt)
    return StepOutcome(outcome=outcome, p=p, q=q, x=x,
                       next_state=DensityMatrix(nxt))


def increment_update(rho: DensityMatrix, u: InteractionUnitary, a: Observable,
                     outcome: int) -> np.ndarray:
    """Increment-form update for the given outcome,

        m0 + m1 + [-sqrt(q/p) m0 + sqrt(p/q) m1] * x,

    algebraically identical to the normalized branch m_outcome / weight.
    """
    m0, m1 = nonnormalized_maps(rho, u, a)
    p = float(m0.trace().real)
    q = float(m1.trace().real)
    if min(p, q) < DEGENERATE_PROB:
        raise DegenerateProbability(
            f"branch probabilities ({p:.3e}, {q:.3e}) below {DEGENERATE_PROB:g}")
    x = np.sqrt(p / q) if outcome == 1 else -np.sqrt(q / p)
    return m0 + m1 + (-np.sqrt(q / p) * m0 + np.sqrt(p / q) * m1) * x


def _trace(m: np.ndarray) -> np.ndarray:
    return np.trace(m, axis1=-2, axis2=-1)


def lindblad(rho: np.ndarray, h0: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Lindblad drift; traceless, Hermiticity-preserving; broadcasts over
    leading axes of ``rho``."""
    anti = adjoint(c) @ c
    return (-1j * (h0 @ rho - rho @ h0)
            - 0.5 * (anti @ rho + rho @ anti)
            + c @ rho @ adjoint(c))


def backaction(rho: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Diffusive measurement backaction c rho + rho c+ - Tr[rho (c+c+)] rho.

    Traceless whenever Tr rho = 1; Hermitian output for Hermitian input.
    Broadcasts over leading axes.
    """
    g = _trace(rho @ (c + adjoint(c)))
    return c @ rho + rho @ adjoint(c) - g[..., None, None] * rho


def _clip_negative(eigs: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    eigs = np.clip(eigs, 0.0, None)
    m = (vecs * eigs) @ adjoint(vecs)
    return m / m.trace().real


def project_positive(m: np.ndarray) -> np.ndarray:
    """Eigen-clip negative weight at zero and renormalize the trace."""
    m = 0.5 * (m + adjoint(m))
    eigs, vecs = np.linalg.eigh(m)
    if eigs[0] >= 0.0:
        return m
    return _clip_negative(eigs, vecs)


def euler_step_density(rho: DensityMatrix, h: float, dw: float,
                       h0: np.ndarray, c: np.ndarray,
                       project: bool = True) -> DensityMatrix:
    """One Euler iterate rho + h L(rho) + dW B(rho), optionally projected."""
    if not (h > 0 and math.isfinite(h)):
        raise ValueError("step size must be positive and finite")
    raw = rho.m + h * lindblad(rho.m, h0, c) + dw * backaction(rho.m, c)
    out = project_positive(raw) if project else raw
    if project:
        check_state(out)
    return DensityMatrix(out)


def wavefunction_step(psi: WaveFunction, h: float, dw: float,
                      h0: np.ndarray, c: np.ndarray) -> WaveFunction:
    """One Euler iterate of the wave form, renormalized to unit norm."""
    if not (h > 0 and math.isfinite(h)):
        raise ValueError("step size must be positive and finite")
    v = psi.v
    nu = 0.5 * np.vdot(v, (c + adjoint(c)) @ v).real
    drift = (-1j * h0 - 0.5 * (adjoint(c) @ c - 2.0 * nu * c + nu * nu * ID2))
    raw = v + dw * ((c @ v) - nu * v) + h * (drift @ v)
    return WaveFunction(raw / np.linalg.norm(raw))


def innovation_path(path: SdePath, c: np.ndarray) -> np.ndarray:
    """Innovation values W~_k = W_k - sum_{i<k} g_i h reconstructed from a
    reference-measure path (bookkeeping inverse of the companion relation)."""
    g = _trace(path.states[:-1] @ (c + adjoint(c))).real
    out = np.empty(len(path.grid))
    out[0] = 0.0
    out[1:] = np.cumsum(path.noise - g * path.h)
    return out


def girsanov_weights(path: SdePath, c: np.ndarray) -> np.ndarray:
    """Exponential reweighting sequence along a path (left-point rule):
    Z_0 = 1, Z_{k+1} = Z_k exp(g_k dW_k - g_k^2 h / 2). All entries positive.
    """
    g = _trace(path.states[:-1] @ (c + adjoint(c))).real
    incr = g * path.noise - 0.5 * g * g * path.h
    out = np.empty(len(path.grid))
    out[0] = 1.0
    out[1:] = np.exp(np.cumsum(incr))
    return out


def drive_ensemble_where(cfg: ModelConfig, rho0: DensityMatrix, uniforms: np.ndarray):
    """The steps of ``discrete.drive_ensemble`` with each member's branch
    picked by ``np.where``, as the package did before it picked it by bit
    masks, yielding the same (k, r, outcomes, x, p, q). The product is
    ``bloch_apply``'s on the module's ``_chain_matrix`` (which a test may
    patch); the invariant checks are left out, so a test may step states
    that fail them."""
    terms = bloch_terms(discrete_mod._chain_matrix(cfg))
    num_traj, steps = uniforms.shape
    r = np.repeat(density_to_bloch(rho0.m)[:, None], num_traj, axis=1)
    w = np.empty((8, num_traj))
    for k in range(steps):
        bloch_apply(r, terms, w)
        p, q = w[0].copy(), w[4].copy()
        one = uniforms[:, k] < q
        degenerate = np.minimum(p, q) < DEGENERATE_PROB
        rare = degenerate.any()
        if rare:
            one = np.where(degenerate, q > p, one)
        weight, other = np.where(one, q, p), np.where(one, p, q)
        if rare:
            if np.any(weight < NULL_BRANCH):
                j = int(np.argmin(weight))
                raise DegenerateProbability(
                    f"step {k}, trajectory {j}: branch trace {weight[j]:.3e}")
            other[degenerate] = 0.0
        x = np.sqrt(other / weight)
        x = np.where(one, x, np.negative(x))
        if rare:
            x[degenerate] = 0.0
        r = np.where(one, w[5:], w[1:4])
        r /= weight
        yield k, r.T, one.astype(np.int64), x, p, q


def member_streams_step_by_step(gen: np.random.Generator, count: int, steps: int,
                                draw: str) -> np.ndarray:
    """``rng.member_streams`` built literally, one call of ``draw`` on
    ``gen`` per step: column k holds the next ``count`` draws, step k of
    members 0..count-1."""
    out = np.empty((count, steps))
    for k in range(steps):
        out[:, k] = getattr(gen, draw)(count)
    return out


def run_trajectory_batch_of_one(cfg: ModelConfig, rho0: DensityMatrix,
                                seed: int, feed=None) -> TrajectoryRecord:
    """``discrete.run_trajectory`` as a batch of one through
    ``drive_ensemble``, recording every step. It asks ``feed`` for no table,
    so a command's CSV is formatted in one process."""
    steps = cfg.steps
    uniforms = ensemble_streams(seed, 1, steps)
    bloch = np.empty((steps + 1, 3))
    bloch[0] = density_to_bloch(rho0.m)
    outcomes = np.empty(steps, dtype=np.int64)
    x = np.empty(steps)
    probs = np.empty((steps, 2))
    for k, r, out, xs, p, q in drive_ensemble(cfg, rho0, uniforms):
        bloch[k + 1] = r[0]
        outcomes[k] = out[0]
        x[k] = xs[0]
        probs[k] = p[0], q[0]
    return TrajectoryRecord(states=bloch_to_density(bloch), outcomes=outcomes,
                            x_increments=x, probabilities=probs, n=cfg.n, seed=seed)


def density_path_batch_of_one(cfg: ModelConfig, rho0: DensityMatrix, h: float,
                              seed: int, physical: bool, feed=None) -> SdePath:
    """``sde._density_path`` as a batch of one through ``_density_steps``,
    recording every state and checking the path once recorded. It asks
    ``feed`` for no table, so a command's CSV is formatted in one process."""
    steps = _euler_steps(cfg, h)
    noise = np.concatenate(list(_ensemble_noise(seed, None, 1, steps, h)))
    bloch = np.empty((steps + 1, 3))
    bloch[0] = density_to_bloch(rho0.m)
    g = np.empty(steps)
    for k, r, g_k, _ in _density_steps(cfg, rho0, h, 1, steps, noise[:, None], physical):
        bloch[k + 1] = r[0]
        g[k] = g_k[0]
    states = bloch_to_density(bloch)
    validate_batch(states, steps)
    companion = np.concatenate([[0.0], np.cumsum(noise + g * h)]) if physical else None
    return SdePath(grid=np.arange(steps + 1) * h, states=states, noise=noise,
                   companion=companion)


def wave_path_batch_of_one(cfg: ModelConfig, psi0: WaveFunction, h: float,
                           seed: int, feed=None) -> WavePath:
    """``sde.simulate_wave`` as a batch of one through ``_wave_steps``,
    recording every vector and checking the path's norms once recorded. It
    asks ``feed`` for no table, so a command's CSV is formatted in one
    process."""
    steps = _euler_steps(cfg, h)
    noise = np.concatenate(list(_ensemble_noise(seed, None, 1, steps, h)))
    parts = np.empty((steps + 1, 4))
    parts[0] = _real_parts(psi0.v)
    for k, v in _wave_steps(cfg, psi0, h, 1, steps, noise[:, None]):
        parts[k + 1] = v[:, 0]
    vectors = parts.view(complex)
    validate_norms(vectors, steps)
    return WavePath(grid=np.arange(steps + 1) * h, vectors=vectors, noise=noise)
