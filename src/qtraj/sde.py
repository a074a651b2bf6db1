"""Diffusive stochastic master equation for the monitored two-level system.

Density form (reference measure):

    d rho = L(rho) dt + B(rho) dW,
    L(rho) = -i[h0, rho] - 1/2 {c+c, rho} + c rho c+,
    B(rho) = c rho + rho c+ - Tr[rho (c + c+)] rho.

Both coefficients are traceless, so raw Euler iterates keep unit trace up to
rounding; Hermiticity is preserved step by step because dW is real and both
coefficients map Hermitian to Hermitian. Positivity is not preserved by Euler,
so density paths are projected every step (eigen-clip at zero, trace
renormalization).

Wave form (pure states):

    d psi = (c - nu) psi dW + (-i h0 - 1/2 (c+c - 2 nu c + nu^2)) psi dt,
    nu = 1/2 <psi, (c + c+) psi>.

The exact flow preserves the norm (the Ito drift of |psi|^2 vanishes at
norm one), so each Euler step is renormalized, which removes the O(h) scheme
drift without biasing the direction. The projector onto psi then solves the
density equation, which is how pure states propagate without leaving the
pure manifold.

Physical (innovation) form: substituting W = W~ + int Tr[rho (c+c+)] dt turns
the density equation into

    d rho = [L(rho) + g(rho) B(rho)] dt + B(rho) dW~,   g(rho) = Tr[rho (c+c+)],

where W~ is the innovation process, a Brownian motion under the physical
measure. The exponential weights

    Z_t: Z_0 = 1,  Z_{k+1} = Z_k exp(g_k dW_k - 1/2 g_k^2 h)

(left-point, Ito) convert reference-measure averages into physical ones:
E[Z_T f(rho_T)] over reference paths estimates the physical-form mean of f.

Stepping core: density paths and the master equation are stepped in the
row-major Liouville layout of :mod:`qtraj.linalg` (an (M, 4) array v whose
``reshape(M, 2, 2)`` is the state stack) with matrices built once per
configuration,

    S_L = kron(-i h0 - A/2, I).T + kron(I, (i h0 - A/2).T).T + kron(c, conj(c)).T,
    S_B = kron(c, I).T + kron(I, conj(c)).T,      g = vec((c + c+).T),

with A = c+c, so vec L(rho) = v @ S_L, vec B(rho) = v @ S_B - (v @ g) v and
Tr[rho (c + c+)] = v @ g. ``sde_coefficients`` lays the three side by side
as one (4, 9) matrix [S_L | S_B | g] and ``split_sde_products`` reads a
product with it back as (drift, backaction, g). One Euler step is
v @ (I + h S_L) + dW (v @ S_B - g v).

Each equation has one Euler loop, a generator over an (M, steps) noise
array: ``_density_steps`` (density and innovation forms) and ``_wave_steps``.
The ensembles keep the last step; ``simulate_*`` run a batch of one and
record every state. ``lindblad``, ``backaction``, ``project_positive``,
``euler_step_density`` and ``wavefunction_step`` remain as the matrix-form
oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .csvio import STATE_HEADER, state_columns, table_rows, write_csv
from .linalg import adjoint, apply_superop, herm_eigen2, sandwich_superop
from .model import (
    ID2,
    VALIDATE_EVERY,
    DensityMatrix,
    ModelConfig,
    WaveFunction,
    check_state,
    validate_batch,
    validate_norms,
)
from .rng import generator_for, member_streams

MAX_SDE_STEP = 1e-2


@dataclass(frozen=True)
class SdePath:
    """Density-matrix path with its driving noise increments."""

    grid: np.ndarray            # (steps+1,)
    states: np.ndarray          # (steps+1, 2, 2)
    noise: np.ndarray           # (steps,) increments dW
    companion: np.ndarray | None = None   # (steps+1,) reconstructed W values

    @property
    def h(self) -> float:
        return float(self.grid[1] - self.grid[0])


@dataclass(frozen=True)
class WavePath:
    """Wave-function path with its driving noise increments."""

    grid: np.ndarray     # (steps+1,)
    vectors: np.ndarray  # (steps+1, 2)
    noise: np.ndarray    # (steps,)


@dataclass(frozen=True)
class MasterPath:
    """Deterministic averaged-evolution path."""

    grid: np.ndarray
    states: np.ndarray


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


def lindblad_superop(h0: np.ndarray, c: np.ndarray) -> np.ndarray:
    """4x4 S_L with vec(lindblad(rho, h0, c)) = vec(rho) @ S_L."""
    anti = adjoint(c) @ c
    return (sandwich_superop(-1j * h0 - 0.5 * anti, ID2)
            + sandwich_superop(ID2, 1j * h0 - 0.5 * anti)
            + sandwich_superop(c, adjoint(c)))


def backaction_superop(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(S_B, g): the linear part of the backaction, vec(c rho + rho c+) =
    vec(rho) @ S_B, and the row g with Tr[rho (c + c+)] = vec(rho) @ g."""
    s_b = sandwich_superop(c, ID2) + sandwich_superop(ID2, adjoint(c))
    return s_b, np.transpose(c + adjoint(c)).reshape(4)


def sde_coefficients(h0: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(4, 9) matrix [S_L | S_B | g] of the density equation's coefficients;
    read products with it through ``split_sde_products``."""
    s_b, g_row = backaction_superop(c)
    return np.hstack([lindblad_superop(h0, c), s_b, g_row[:, None]])


def split_sde_products(v: np.ndarray, w: np.ndarray,
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split w = apply_superop(v, sde_coefficients(...)) for an (M, 4) state
    array v into (vec L(rho), vec B(rho), Tr[rho (c + c+)]). The first block
    is whatever the caller put in the S_L columns."""
    return w[:, :4], w[:, 4:8] - w[:, 8:] * v, w[:, 8].real


def _clip_negative(eigs: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    eigs = np.clip(eigs, 0.0, None)
    m = (vecs * eigs) @ adjoint(vecs)
    return m / m.trace().real


def project_positive(m: np.ndarray) -> np.ndarray:
    """Eigen-clip negative weight at zero and renormalize the trace."""
    m = 0.5 * (m + adjoint(m))
    eigs, vecs = herm_eigen2(m)
    if eigs[-1] >= 0.0:
        return m
    return _clip_negative(eigs, vecs)


def _project_positive_batch(m: np.ndarray) -> np.ndarray:
    """Vectorized positivity projection on a (..., 2, 2) Hermitian stack.

    Uses the closed form: clipping the negative eigenvalue and renormalizing
    lands on (m - lo*I)/(tr - 2*lo), the projector onto the top eigenvector.
    """
    m = 0.5 * (m + adjoint(m))
    a = m[..., 0, 0].real
    d = m[..., 1, 1].real
    rad = np.sqrt(0.25 * (a - d) ** 2 + np.abs(m[..., 0, 1]) ** 2)
    lo = 0.5 * (a + d) - rad
    bad = lo < 0.0
    if not np.any(bad):
        return m
    denom = np.where(bad, (a + d) - 2.0 * lo, 1.0)[..., None, None]
    shifted = m - lo[..., None, None] * ID2
    projected = shifted / denom
    return np.where(bad[..., None, None], projected, m)


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


def _euler_steps(cfg: ModelConfig, h: float) -> int:
    """Number of Euler steps of size h on [0, T], after checking h."""
    if not 0 < h <= MAX_SDE_STEP:
        raise ValueError(f"step size must be in (0, {MAX_SDE_STEP:g}], got {h:g}")
    return int(round(cfg.t_horizon / h))


def _ensemble_noise(base_seed: int | None, noise: np.ndarray | None,
                    num_paths: int, steps: int, h: float) -> np.ndarray:
    """(num_paths, steps) increments: row j from derive_seed(base_seed, j),
    or the supplied array after a shape and finiteness check."""
    if noise is None:
        if base_seed is None:
            raise ValueError("either base_seed or noise is required")
        noise = member_streams(base_seed, num_paths, steps, "standard_normal")
        noise *= np.sqrt(h)
        return noise
    noise = np.asarray(noise, dtype=float)
    if noise.shape != (num_paths, steps):
        raise ValueError(f"noise must have shape {(num_paths, steps)}, "
                         f"got {noise.shape}")
    if not np.all(np.isfinite(noise)):
        raise ValueError("noise must be finite")
    return noise


def _noise_for(seed: int | None, shared_noise: np.ndarray | None,
               steps: int, h: float) -> np.ndarray:
    """(1, steps) increments of a single path: the first ``steps`` entries
    of ``shared_noise``, or a stream drawn from generator_for(seed)."""
    if shared_noise is not None:
        noise = np.asarray(shared_noise, dtype=float)[None, :steps]
        return _ensemble_noise(None, noise, 1, steps, h)
    if seed is None:
        raise ValueError("either seed or shared_noise is required")
    return generator_for(seed).standard_normal((1, steps)) * np.sqrt(h)


def _density_steps(cfg: ModelConfig, rho0: DensityMatrix, h: float,
                   noise: np.ndarray, physical: bool,
                   ) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Euler steps of the density equation, one path per row of the
    (M, steps) increments ``noise``. Yields (k, v, g) after step k: v the
    (M, 4) states after it, g = Tr[rho (c + c+)] of the states before it.
    Rows do not depend on M (see ``apply_superop``). With ``physical`` the
    kick is dW + h g (innovation form). Every step is projected onto the
    positive states, and the states are checked against the invariants
    every VALIDATE_EVERY steps.
    """
    num_paths, steps = noise.shape
    coeffs = sde_coefficients(cfg.h0, cfg.coupling())
    coeffs[:, :4] = np.eye(4) + h * coeffs[:, :4]
    v = np.broadcast_to(rho0.m.reshape(4), (num_paths, 4)).copy()
    for k in range(steps):
        euler, back, g = split_sde_products(v, apply_superop(v, coeffs))
        dw = noise[:, k]
        kick = dw + h * g if physical else dw
        v = euler + kick[:, None] * back
        v = _project_positive_batch(v.reshape(num_paths, 2, 2))
        if (k + 1) % VALIDATE_EVERY == 0:
            v = validate_batch(v, k)
        v = v.reshape(num_paths, 4)
        yield k, v, g


def _wave_steps(cfg: ModelConfig, psi0: WaveFunction, h: float,
                noise: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Euler steps of the wave form, one path per row of the (M, steps)
    increment array ``noise``, renormalized each step. Yields (k, psi) after
    step k with psi the (M, 2) vectors; their norms are checked every
    VALIDATE_EVERY steps."""
    num_paths, steps = noise.shape
    c = cfg.coupling()
    cpc = c + adjoint(c)
    csc = adjoint(c) @ c
    psi = np.broadcast_to(psi0.v, (num_paths, 2)).copy()
    for k in range(steps):
        nu = 0.5 * np.einsum("ji,ji->j", psi.conj(), psi @ cpc.T).real
        dw = noise[:, k][:, None]
        drift = (psi @ (-1j * cfg.h0 - 0.5 * csc).T
                 + nu[:, None] * (psi @ c.T) - 0.5 * (nu * nu)[:, None] * psi)
        raw = psi + dw * (psi @ c.T - nu[:, None] * psi) + h * drift
        psi = raw / np.linalg.norm(raw, axis=1)[:, None]
        if (k + 1) % VALIDATE_EVERY == 0:
            validate_norms(psi, k)
        yield k, psi


def _density_path(cfg: ModelConfig, rho0: DensityMatrix, h: float,
                  seed: int | None, shared_noise: np.ndarray | None,
                  physical: bool) -> SdePath:
    """``_density_steps`` on a batch of one, recording every state (and, in
    the physical form, the companion W path). The path is checked state by
    state against the invariants once recorded."""
    steps = _euler_steps(cfg, h)
    noise = _noise_for(seed, shared_noise, steps, h)
    states = np.empty((steps + 1, 4), dtype=complex)
    states[0] = rho0.m.reshape(4)
    g = np.empty(steps)
    for k, v, g_k in _density_steps(cfg, rho0, h, noise, physical):
        states[k + 1] = v[0]
        g[k] = g_k[0]
    states = states.reshape(steps + 1, 2, 2)
    validate_batch(states, steps)
    noise = noise[0]
    companion = np.concatenate([[0.0], np.cumsum(noise + g * h)]) if physical else None
    return SdePath(grid=np.arange(steps + 1) * h, states=states, noise=noise,
                   companion=companion)


def simulate_belavkin(cfg: ModelConfig, rho0: DensityMatrix, h: float,
                      seed: int | None = None,
                      shared_noise: np.ndarray | None = None) -> SdePath:
    """Euler path of the reference-measure density equation on [0, T]."""
    return _density_path(cfg, rho0, h, seed, shared_noise, False)


def simulate_physical(cfg: ModelConfig, rho0: DensityMatrix, h: float,
                      seed: int | None = None,
                      shared_noise: np.ndarray | None = None) -> SdePath:
    """Euler path of the innovation form, driven by the physical noise.

    The drift carries the correction g(rho) B(rho); the companion W path
    W_{k+1} = W_k + dW~_k + g_k h is reconstructed and stored.
    """
    return _density_path(cfg, rho0, h, seed, shared_noise, True)


def simulate_wave(cfg: ModelConfig, psi0: WaveFunction, h: float,
                  seed: int | None = None,
                  shared_noise: np.ndarray | None = None) -> WavePath:
    """Euler path of the wave form on [0, T], renormalized each step, with
    every norm checked."""
    steps = _euler_steps(cfg, h)
    noise = _noise_for(seed, shared_noise, steps, h)
    vectors = np.empty((steps + 1, 2), dtype=complex)
    vectors[0] = psi0.v
    for k, psi in _wave_steps(cfg, psi0, h, noise):
        vectors[k + 1] = psi[0]
    validate_norms(vectors, steps)
    return WavePath(grid=np.arange(steps + 1) * h, vectors=vectors, noise=noise[0])


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


def master_evolve(cfg: ModelConfig, rho0: DensityMatrix, h: float) -> MasterPath:
    """Classical RK4 on the averaged equation d nu/dt = L(nu).

    L is linear, so one RK4 step is exactly v -> v + v @ D with the
    degree-4 increment D = hS + (hS)^2/2 + (hS)^3/6 + (hS)^4/24, S = S_L.
    The c+c drift is traceless, S[:, 3] = -S[:, 0], so D[:, 3] = -D[:, 0]
    in exact arithmetic; pinning it exactly makes the two diagonal
    increments cancel, so the trace stays one to rounding.
    """
    if not (h > 0 and math.isfinite(h)):
        raise ValueError("step size must be positive and finite")
    steps = int(round(cfg.t_horizon / h))
    return MasterPath(grid=np.arange(steps + 1) * h,
                      states=_rk4_states(cfg, rho0, h, steps))


def _rk4_states(cfg: ModelConfig, rho0: DensityMatrix, h: float,
                steps: int) -> np.ndarray:
    """(steps + 1, 2, 2) RK4 states of the averaged equation at step h."""
    a = h * lindblad_superop(cfg.h0, cfg.coupling())
    a2 = a @ a
    d = a + a2 / 2.0 + (a2 @ a) / 6.0 + (a2 @ a2) / 24.0
    d[:, 3] = -d[:, 0]
    states = np.empty((steps + 1, 4), dtype=complex)
    v = states[0] = rho0.m.reshape(4)
    for k in range(steps):
        v = v + apply_superop(v, d)
        states[k + 1] = v
    return states.reshape(steps + 1, 2, 2)


def master_on_grid(cfg: ModelConfig, rho0: DensityMatrix, n: int,
                   refine: int = 10) -> np.ndarray:
    """Averaged evolution sampled on the grid k/n, k = 0..floor(n T): every
    ``refine``-th state of ``master_evolve`` at the step 1/(refine*n), run
    for exactly floor(n T) * refine steps."""
    m = int(np.floor(n * cfg.t_horizon))
    states = _rk4_states(cfg, rho0, 1.0 / (refine * n), m * refine)
    return states[::refine]


def sde_ensemble_final(cfg: ModelConfig, rho0: DensityMatrix, h: float,
                       num_paths: int, base_seed: int | None = None,
                       noise: np.ndarray | None = None,
                       physical: bool = False, with_weights: bool = False,
                       ) -> tuple[np.ndarray, np.ndarray | None]:
    """Vectorized ensemble integration keeping only final states.

    Path j draws its noise from derive_seed(base_seed, j) unless an explicit
    (num_paths, steps) increment array is supplied. Returns (final states,
    final weights or None); with ``physical`` the innovation-form drift is
    used and asking for weights raises ValueError. The states are checked
    against the invariants every VALIDATE_EVERY steps.
    """
    if physical and with_weights:
        raise ValueError("weights are unavailable in the physical form")
    noise = _ensemble_noise(base_seed, noise, num_paths, _euler_steps(cfg, h), h)
    v = np.broadcast_to(rho0.m.reshape(4), (num_paths, 4)).copy()
    log_z = np.zeros(num_paths)
    for k, v, g in _density_steps(cfg, rho0, h, noise, physical):
        if with_weights:
            log_z += g * noise[:, k] - 0.5 * g * g * h
    weights = np.exp(log_z) if with_weights else None
    return v.reshape(num_paths, 2, 2), weights


def wave_ensemble_final(cfg: ModelConfig, psi0: WaveFunction, h: float,
                        num_paths: int, base_seed: int | None = None,
                        noise: np.ndarray | None = None) -> np.ndarray:
    """Vectorized wave-form ensemble, final vectors only."""
    noise = _ensemble_noise(base_seed, noise, num_paths, _euler_steps(cfg, h), h)
    psi = np.broadcast_to(psi0.v, (num_paths, 2)).copy()
    for _, psi in _wave_steps(cfg, psi0, h, noise):
        pass
    return psi


_PATH_HEADER = "time,dW," + STATE_HEADER


def sde_path_to_csv(path: SdePath, stream, timestamp: str | None = None) -> None:
    """CSV dump: time, dW, rho entries."""
    write_csv(stream, _PATH_HEADER,
              table_rows(path.grid, path.noise, *state_columns(path.states)), timestamp)


def wave_path_to_csv(wave: WavePath, stream, timestamp: str | None = None) -> None:
    """CSV dump of a wave path; rho columns come from the outer product."""
    v = wave.vectors
    rho = v[:, :, None] * v.conj()[:, None, :]
    write_csv(stream, _PATH_HEADER + ",psi_0_re,psi_0_im,psi_1_re,psi_1_im",
              table_rows(wave.grid, wave.noise, *state_columns(rho),
                         v[:, 0].real, v[:, 0].imag, v[:, 1].real, v[:, 1].imag),
              timestamp)
