"""Diffusive stochastic master equation for the monitored two-level system.

Density form (reference measure):

    d rho = L(rho) dt + B(rho) dW,
    L(rho) = -i[h0, rho] - 1/2 {c+c, rho} + c rho c+,
    B(rho) = c rho + rho c+ - Tr[rho (c + c+)] rho.

Both coefficients are traceless, so raw Euler iterates keep unit trace up to
rounding; Hermiticity is preserved step by step because dW is real and both
coefficients map Hermitian to Hermitian. Positivity is not preserved by Euler,
so density paths are projected every step (eigen-clip at zero, trace
renormalization; r / max(1, |r|) in the Bloch coordinates below).

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

Stepping core: ``sde_coefficients`` builds the density equation's
coefficients [S_L | S_B | g] once per configuration, in the row-major
Liouville layout of :mod:`qtraj.linalg` (v = vec(rho) = rho.reshape(4)),

    S_L = kron(-i h0 - A/2, I).T + kron(I, (i h0 - A/2).T).T + kron(c, conj(c)).T,
    S_B = kron(c, I).T + kron(I, conj(c)).T,      g = vec((c + c+).T),

with A = c+c, so vec L(rho) = v @ S_L, vec B(rho) = v @ S_B - (v @ g) v and
Tr[rho (c + c+)] = v @ g. Density paths are stepped in Bloch coordinates,
rho = (I + r.sigma)/2 (Jacobs & Steck, "A straightforward introduction to
continuous quantum measurement", Contemp. Phys. 47, 279 (2006)): every map
above keeps Hermiticity, so ``bloch_coefficients`` turns [I + h S_L | S_B | g]
into one real (4, 7) matrix A, and a step of the (M, 3) array r is
w = (1, r) @ A, r' = w[:, :3] + dW (w[:, 3:6] - w[:, 6] r), with w taken by
``linalg.bloch_apply`` as a (7, M) array. Hermiticity and
unit trace hold by construction, and the positivity projection (eigen-clip
at zero, trace renormalization) is exactly ``linalg.project_ball``,
r / max(1, |r|).

Each equation has one ensemble Euler loop, a generator over an (M, steps)
noise array: ``_density_steps`` (density and innovation forms) and
``_wave_steps``. The ensembles keep the last step. The wave form is stepped
in real arithmetic: psi is held as v = (Re psi_0, Im psi_0, Re psi_1,
Im psi_1), and ``_wave_matrix`` turns the complex 2x2 matrices
A = I + h (-i h0 - c+c/2) and c into one real (4, 8) matrix [A | C] with
v @ A the real form of A psi. Every product of both loops is a fixed
sequence of elementwise products and sums, so an ensemble row is
bit-identical to the same member run alone, by construction. A recorded
path is stepped in Python floats instead: ``_scalar_density`` for
``simulate_belavkin`` and ``simulate_physical``, with the operations of
``_bloch_step`` in the same order, and ``_scalar_wave`` for
``simulate_wave``, with those of ``_wave_steps``. So a single path has the
bits of the ensemble row; the tests check this step by step, as it does not
hold by construction. The 2x2 matrix forms of L, B, the projection and both
Euler steps are test oracles in ``tests/oracles.py``, not package code.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .csvio import STATE_HEADER, in_turn, state_columns, write_csv
from .linalg import (adjoint, bloch_apply, bloch_superop, bloch_to_density,
                     density_to_bloch, project_ball, sandwich_superop)
from .model import (ID2, VALIDATE_EVERY, DensityMatrix, ModelConfig, WaveFunction,
                    validate_batch, validate_norms)
from .rng import generator_for, member_streams

MAX_SDE_STEP = 1e-2
RK4_GROWTH_TOL = 1e-12
# |r|^2 at or below this leaves the projection's scale exactly 1: the
# rounding of the sum and of hypot is far below the margin
_INSIDE = 1.0 - 1e-12


class StepOutOfRange(ValueError):
    """A step size outside the domain of the integrator it is given to."""


class UnstableStep(StepOutOfRange):
    """An RK4 step size outside the method's stability region."""


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
    """(4, 9) matrix [S_L | S_B | g] of the density equation's coefficients."""
    s_b, g_row = backaction_superop(c)
    return np.hstack([lindblad_superop(h0, c), s_b, g_row[:, None]])


def _check_step(h: float, bound: float) -> None:
    if not 0 < h <= bound:
        raise StepOutOfRange(f"step size must be in (0, {bound:g}], got {h:g}")


def _euler_steps(cfg: ModelConfig, h: float) -> int:
    """Number of Euler steps of size h on [0, T], after checking that h is
    in (0, min(MAX_SDE_STEP, T)], so that a run takes at least one step."""
    _check_step(h, min(MAX_SDE_STEP, cfg.t_horizon))
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


def _noise_for(seed: int, steps: int, h: float) -> np.ndarray:
    """(1, steps) increments of a single path, drawn from generator_for(seed)."""
    return generator_for(seed).standard_normal((1, steps)) * np.sqrt(h)


def bloch_coefficients(drift: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Real (4, 7) Bloch form [D | S_B | g] of a 4x4 drift block D (S_L, or
    I + h S_L for an Euler step) and the (4, 9) ``sde_coefficients``: for
    u = (1, r), u @ A = [r-part of vec(rho) @ D | r-part of c rho + rho c+ |
    Tr[rho (c + c+)]]. The u_0 columns are dropped: D's is the trace of the
    image (0 or 1, as L keeps the trace), and S_B's is g."""
    back = bloch_superop(coeffs[:, 4:8])
    return np.hstack([bloch_superop(drift)[:, 1:], back[:, 1:],
                      bloch_superop(coeffs[:, 8])[:, None]])


def _bloch_sde_matrix(cfg: ModelConfig, h: float) -> np.ndarray:
    """Real (4, 7) matrix A of one Euler step in Bloch coordinates."""
    coeffs = sde_coefficients(cfg.h0, cfg.coupling())
    return bloch_coefficients(np.eye(4) + h * coeffs[:, :4], coeffs)


def _bloch_step(a: np.ndarray, r: np.ndarray, dw: np.ndarray, h: float,
                physical: bool) -> tuple[np.ndarray, np.ndarray]:
    """One projected Euler step of (M, 3) Bloch vectors with the matrix of
    ``_bloch_sde_matrix``; returns (r after the step, g before it). With
    ``physical`` the kick is dW + h g (innovation form)."""
    w = bloch_apply(r, a)
    g = w[6]
    kick = dw + h * g if physical else dw
    r = w[:3] + kick * (w[3:6] - g * r.T)
    return project_ball(r.T), g


def _density_steps(cfg: ModelConfig, rho0: DensityMatrix, h: float,
                   noise: np.ndarray, physical: bool,
                   ) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Euler steps of the density equation, one path per row of the
    (M, steps) increments ``noise``. Yields (k, r, g) after step k: r the
    (M, 3) Bloch vectors after it, g = Tr[rho (c + c+)] of the states before
    it. Every step is projected onto the positive states. The initial state
    is checked against the invariants first, and the states every
    VALIDATE_EVERY steps and after the last one.
    """
    validate_batch(rho0.m, None)
    num_paths, steps = noise.shape
    a = _bloch_sde_matrix(cfg, h)
    r = np.broadcast_to(density_to_bloch(rho0.m), (num_paths, 3)).copy()
    for k in range(steps):
        r, g = _bloch_step(a, r, noise[:, k], h, physical)
        if (k + 1) % VALIDATE_EVERY == 0 or k + 1 == steps:
            validate_batch(bloch_to_density(r), k)
        yield k, r, g


def _real_form(m: np.ndarray) -> np.ndarray:
    """Real 4x4 matrix R of a complex 2x2 matrix m acting on column vectors:
    v @ R holds the real and imaginary parts of m psi, in the layout
    v = (Re psi_0, Im psi_0, Re psi_1, Im psi_1)."""
    t = m.T
    out = np.empty((4, 4))
    out[0::2, 0::2] = t.real
    out[0::2, 1::2] = t.imag
    out[1::2, 0::2] = -t.imag
    out[1::2, 1::2] = t.real
    return out


def _wave_matrix(cfg: ModelConfig, h: float) -> np.ndarray:
    """Real (4, 8) matrix [A | C] of one wave Euler step: the real forms of
    A = I + h (-i h0 - c+c/2) and of c."""
    c = cfg.coupling()
    a = ID2 + h * (-1j * cfg.h0 - 0.5 * adjoint(c) @ c)
    return np.hstack([_real_form(a), _real_form(c)])


def _real_parts(psi: np.ndarray) -> np.ndarray:
    """(4,) real layout (Re psi_0, Im psi_0, Re psi_1, Im psi_1) of a vector."""
    return np.ascontiguousarray(psi, dtype=complex).view(float)


def _complex_rows(v: np.ndarray) -> np.ndarray:
    """(M, 2) complex vectors of the (4, M) real parts, as a float view."""
    return np.ascontiguousarray(v.T).view(complex)


def _wave_steps(cfg: ModelConfig, psi0: WaveFunction, h: float,
                noise: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Euler steps of the wave form, one path per row of the (M, steps)
    increment array ``noise``, renormalized each step. Yields (k, v) after
    step k, with v the (4, M) real parts: column j is member j's
    (Re psi_0, Im psi_0, Re psi_1, Im psi_1). The norm of psi0 is checked
    first, and the norms every VALIDATE_EVERY steps and after the last one.

    With w = v @ [A | C] from ``_wave_matrix`` and nu = Re<psi, c psi> =
    v . (v @ C), a step is raw = v @ A + (dW + h nu) (v @ C) -
    (dW nu + (0.5 h) nu nu) v over sqrt(raw_0^2 + raw_1^2 + raw_2^2 +
    raw_3^2). Every product is four elementwise products summed in a fixed
    order, as in ``linalg.bloch_apply``, and w is an (8, M) array, so a
    column is computed by the same operations whatever M.
    """
    validate_norms(psi0.v, None)
    num_paths, steps = noise.shape
    col = _wave_matrix(cfg, h)[:, :, None]
    v = np.broadcast_to(_real_parts(psi0.v)[:, None], (4, num_paths)).copy()
    for k in range(steps):
        w = v[0] * col[0] + v[1] * col[1] + v[2] * col[2] + v[3] * col[3]
        nu = v[0] * w[4] + v[1] * w[5] + v[2] * w[6] + v[3] * w[7]
        dw = noise[:, k]
        raw = w[:4] + (dw + h * nu) * w[4:] - (dw * nu + 0.5 * h * nu * nu) * v
        v = raw / np.sqrt(raw[0] * raw[0] + raw[1] * raw[1] + raw[2] * raw[2]
                          + raw[3] * raw[3])
        if (k + 1) % VALIDATE_EVERY == 0 or k + 1 == steps:
            validate_norms(_complex_rows(v), k)
        yield k, v


def _scalar_density(a: np.ndarray, r0: np.ndarray, h: float, noise: np.ndarray,
                    physical: bool) -> tuple[np.ndarray, np.ndarray]:
    """The steps of ``_density_steps`` for one path, in Python floats.

    Takes the (4, 7) matrix of ``_bloch_sde_matrix``, the initial Bloch
    vector and the (steps,) increments, and returns (Bloch vectors
    (steps+1, 3), g (steps,)). Each number comes from the operations that
    ``_bloch_step`` takes on a row, in the same order, so it has the same
    bits; the tests check this step by step. The projection takes |r| from
    nested ``np.hypot``, as ``project_ball`` does (``math.hypot`` rounds
    differently), and skips it when x^2 + y^2 + z^2 <= _INSIDE, where the
    scale is exactly 1. A non-finite |r| makes the state NaN. The states are
    checked every VALIDATE_EVERY steps and after the last one.
    """
    (e0, e1, e2, e3, e4, e5, e6), (x0, x1, x2, x3, x4, x5, x6), \
        (y0, y1, y2, y3, y4, y5, y6), (z0, z1, z2, z3, z4, z5, z6) = a.tolist()
    x, y, z = r0.tolist()
    kicks, h = memoryview(np.ascontiguousarray(noise, dtype=float)), float(h)
    steps = len(kicks)
    # row 0 holds r0, row k + 1 the state after step k and g before it
    rec = array("d", (x, y, z, math.nan))
    put = rec.extend
    for start in range(0, steps, VALIDATE_EVERY):
        for k in range(start, min(start + VALIDATE_EVERY, steps)):
            g = e6 + x * x6 + y * y6 + z * z6
            kick = kicks[k] + h * g if physical else kicks[k]
            x, y, z = (e0 + x * x0 + y * y0 + z * z0
                       + kick * (e3 + x * x3 + y * y3 + z * z3 - g * x),
                       e1 + x * x1 + y * y1 + z * z1
                       + kick * (e4 + x * x4 + y * y4 + z * z4 - g * y),
                       e2 + x * x2 + y * y2 + z * z2
                       + kick * (e5 + x * x5 + y * y5 + z * z5 - g * z))
            if not x * x + y * y + z * z <= _INSIDE:
                norm = float(np.hypot(np.hypot(x, y), z))
                if not norm <= 1.0:
                    if not norm < math.inf:
                        norm = math.nan
                    x, y, z = x / norm, y / norm, z / norm
            put((x, y, z, g))
        validate_batch(bloch_to_density(np.array([x, y, z])), k)
    table = np.frombuffer(rec).reshape(steps + 1, 4)
    return table[:, :3], table[1:, 3]


def _density_path(cfg: ModelConfig, rho0: DensityMatrix, h: float,
                  seed: int, physical: bool) -> SdePath:
    """``_scalar_density`` on one path, recording every state (and, in the
    physical form, the companion W path). The initial state is checked
    first, and the path state by state once recorded."""
    steps = _euler_steps(cfg, h)
    noise = _noise_for(seed, steps, h)[0]
    validate_batch(rho0.m, None)
    bloch, g = _scalar_density(_bloch_sde_matrix(cfg, h), density_to_bloch(rho0.m),
                               h, noise, physical)
    states = bloch_to_density(bloch)
    validate_batch(states, steps)
    companion = np.concatenate([[0.0], np.cumsum(noise + g * h)]) if physical else None
    return SdePath(grid=np.arange(steps + 1) * h, states=states, noise=noise,
                   companion=companion)


def simulate_belavkin(cfg: ModelConfig, rho0: DensityMatrix, h: float,
                      seed: int) -> SdePath:
    """Euler path of the reference-measure density equation on [0, T]."""
    return _density_path(cfg, rho0, h, seed, False)


def simulate_physical(cfg: ModelConfig, rho0: DensityMatrix, h: float,
                      seed: int) -> SdePath:
    """Euler path of the innovation form, driven by the physical noise.

    The drift carries the correction g(rho) B(rho); the companion W path
    W_{k+1} = W_k + dW~_k + g_k h is reconstructed and stored.
    """
    return _density_path(cfg, rho0, h, seed, True)


def _scalar_wave(m: np.ndarray, v0: np.ndarray, h: float,
                 noise: np.ndarray) -> np.ndarray:
    """The steps of ``_wave_steps`` for one path, in Python floats.

    Takes the (4, 8) matrix of ``_wave_matrix``, the (4,) real parts of the
    initial vector and the (steps,) increments, and returns the real parts
    (steps+1, 4) of every vector. Each number comes from the operations that
    ``_wave_steps`` takes on a column, in the same order, so it has the same
    bits; the tests check this step by step. A zero norm divides through
    numpy, so 0/0 gives NaN as in the ensemble rather than raising. The
    norms are checked every VALIDATE_EVERY steps and after the last one.
    """
    (a00, a01, a02, a03, c00, c01, c02, c03), \
        (a10, a11, a12, a13, c10, c11, c12, c13), \
        (a20, a21, a22, a23, c20, c21, c22, c23), \
        (a30, a31, a32, a33, c30, c31, c32, c33) = m.tolist()
    x0, x1, x2, x3 = v0.tolist()
    kicks, h = memoryview(np.ascontiguousarray(noise, dtype=float)), float(h)
    half_h = 0.5 * h
    steps = len(kicks)
    # row 0 holds the real parts of psi0, row k + 1 those after step k
    rec = array("d", (x0, x1, x2, x3))
    put = rec.extend
    for start in range(0, steps, VALIDATE_EVERY):
        for k in range(start, min(start + VALIDATE_EVERY, steps)):
            dw = kicks[k]
            w4 = x0 * c00 + x1 * c10 + x2 * c20 + x3 * c30
            w5 = x0 * c01 + x1 * c11 + x2 * c21 + x3 * c31
            w6 = x0 * c02 + x1 * c12 + x2 * c22 + x3 * c32
            w7 = x0 * c03 + x1 * c13 + x2 * c23 + x3 * c33
            nu = x0 * w4 + x1 * w5 + x2 * w6 + x3 * w7
            kick = dw + h * nu
            damp = dw * nu + half_h * nu * nu
            y0 = x0 * a00 + x1 * a10 + x2 * a20 + x3 * a30 + kick * w4 - damp * x0
            y1 = x0 * a01 + x1 * a11 + x2 * a21 + x3 * a31 + kick * w5 - damp * x1
            y2 = x0 * a02 + x1 * a12 + x2 * a22 + x3 * a32 + kick * w6 - damp * x2
            y3 = x0 * a03 + x1 * a13 + x2 * a23 + x3 * a33 + kick * w7 - damp * x3
            norm = math.sqrt(y0 * y0 + y1 * y1 + y2 * y2 + y3 * y3)
            if norm:
                x0, x1, x2, x3 = y0 / norm, y1 / norm, y2 / norm, y3 / norm
            else:
                x0, x1, x2, x3 = (np.array([y0, y1, y2, y3]) / norm).tolist()
            put((x0, x1, x2, x3))
        validate_norms(np.array([x0, x1, x2, x3]).view(complex), k)
    return np.frombuffer(rec).reshape(steps + 1, 4)


def simulate_wave(cfg: ModelConfig, psi0: WaveFunction, h: float,
                  seed: int) -> WavePath:
    """Euler path of the wave form on [0, T], renormalized each step, with
    every norm checked: ``_scalar_wave`` on one path. The norm of psi0 is
    checked first, and the recorded path once at the end."""
    steps = _euler_steps(cfg, h)
    noise = _noise_for(seed, steps, h)[0]
    validate_norms(psi0.v, None)
    vectors = _scalar_wave(_wave_matrix(cfg, h), _real_parts(psi0.v), h,
                           noise).view(complex)
    validate_norms(vectors, steps)
    return WavePath(grid=np.arange(steps + 1) * h, vectors=vectors, noise=noise)


def master_evolve(cfg: ModelConfig, rho0: DensityMatrix, h: float) -> MasterPath:
    """Classical RK4 on the averaged equation d nu/dt = L(nu).

    L is linear, so one RK4 step is exactly v -> v + v @ D with the
    degree-4 increment D = hS + (hS)^2/2 + (hS)^3/6 + (hS)^4/24, S = S_L;
    ``_rk4_states`` takes these steps in Bloch coordinates, with the trace
    held at exactly one. A step outside (0, T] raises StepOutOfRange.
    """
    _check_step(h, cfg.t_horizon)
    steps = int(round(cfg.t_horizon / h))
    return MasterPath(grid=np.arange(steps + 1) * h,
                      states=_rk4_states(cfg, rho0, h, steps))


def _rk4_states(cfg: ModelConfig, rho0: DensityMatrix, h: float,
                steps: int) -> np.ndarray:
    """(steps + 1, 2, 2) RK4 states of the averaged equation at step h.

    A step is u -> u (I + d) on u = (1, r), with d = bloch_superop(D). L is
    traceless, so column 0 of d vanishes in exact arithmetic; it is pinned
    to 0, and u_0, the trace, stays exactly 1. The steps go in blocks of
    B = isqrt(steps): with the increments E_j = (I + d)^j - I, taken as
    E_j = E_{j-1} + d + E_{j-1} d, the states after a block start s are
    u_{s+j} = u_s + u_s E_j, one stacked product per block. The increment
    form keeps d's low bits, which the plain powers (I + d)^j round away.
    The initial state is checked against the invariants, and the step
    against RK4's stability region: UnstableStep is raised before any step
    if max |R(h lam)| over the eigenvalues lam of S_L exceeds
    1 + RK4_GROWTH_TOL, with R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 the
    growth factor of one step. The whole path is checked once at the end.
    """
    validate_batch(rho0.m, None)
    a = h * lindblad_superop(cfg.h0, cfg.coupling())
    z = np.linalg.eigvals(a)
    growth = float(np.max(np.abs(1.0 + z + z ** 2 / 2.0 + z ** 3 / 6.0 + z ** 4 / 24.0)))
    if not growth <= 1.0 + RK4_GROWTH_TOL:
        raise UnstableStep(f"step size {h:g} is outside RK4's stability region: "
                           f"one step grows a mode by {growth:.6g}")
    a2 = a @ a
    d = bloch_superop(a + a2 / 2.0 + (a2 @ a) / 6.0 + (a2 @ a2) / 24.0)
    d[:, 0] = 0.0
    block = max(1, math.isqrt(steps))
    incr = np.empty((block, 4, 4))
    incr[0] = d
    for j in range(1, block):
        incr[j] = incr[j - 1] + d + incr[j - 1] @ d
    u = np.empty((steps + 1, 4))
    u[0] = 1.0, *density_to_bloch(rho0.m)
    for s in range(0, steps, block):
        n = min(block, steps - s)
        u[s + 1:s + 1 + n] = u[s] + u[s] @ incr[:n]
    states = bloch_to_density(u[:, 1:])
    validate_batch(states, steps)
    return states


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
    against the invariants every VALIDATE_EVERY steps and after the last one.
    """
    if physical and with_weights:
        raise ValueError("weights are unavailable in the physical form")
    noise = _ensemble_noise(base_seed, noise, num_paths, _euler_steps(cfg, h), h)
    log_z = np.zeros(num_paths)
    for k, r, g in _density_steps(cfg, rho0, h, noise, physical):
        if with_weights:
            log_z += g * noise[:, k] - 0.5 * g * g * h
    weights = np.exp(log_z) if with_weights else None
    return bloch_to_density(r), weights


def wave_ensemble_final(cfg: ModelConfig, psi0: WaveFunction, h: float,
                        num_paths: int, base_seed: int | None = None,
                        noise: np.ndarray | None = None) -> np.ndarray:
    """Vectorized wave-form ensemble, final (M, 2) vectors only."""
    noise = _ensemble_noise(base_seed, noise, num_paths, _euler_steps(cfg, h), h)
    for _, v in _wave_steps(cfg, psi0, h, noise):
        pass
    return _complex_rows(v)


_PATH_HEADER = "time,dW," + STATE_HEADER


def sde_path_to_csv(path: SdePath, stream, timestamp: str | None = None,
                    run=in_turn) -> None:
    """CSV dump: time, dW, rho entries; ``run`` runs the text's parts, as in
    ``write_csv``."""
    write_csv(stream, _PATH_HEADER,
              [path.grid, path.noise, *state_columns(path.states)], timestamp, run)


def wave_path_to_csv(wave: WavePath, stream, timestamp: str | None = None,
                     run=in_turn) -> None:
    """CSV dump of a wave path; rho columns come from the outer product.
    ``run`` runs the text's parts, as in ``write_csv``."""
    v = wave.vectors
    rho = v[:, :, None] * v.conj()[:, None, :]
    write_csv(stream, _PATH_HEADER + ",psi_0_re,psi_0_im,psi_1_re,psi_1_im",
              [wave.grid, wave.noise, *state_columns(rho),
               v[:, 0].real, v[:, 0].imag, v[:, 1].real, v[:, 1].imag], timestamp, run)
