"""Diffusive stochastic master equation for the monitored two-level system.

Density form:

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

Which law each form samples. Driven by a Brownian W, the density form is
the Belavkin filter: W is the innovation, Brownian under the physical
measure P, and the ensemble mean solves the master equation (the names here
call it the reference form). The form they call physical (innovation),

    d rho = [L(rho) + g(rho) B(rho)] dt + B(rho) dW~,   g(rho) = Tr[rho (c+c+)],

with W~ Brownian, samples the law Q~ with dQ~/dP = Z_T, Z_0 = 1, Z_{k+1} =
Z_k exp(g_k dW_k - 1/2 g_k^2 h) (left-point, Ito): E[Z_T f(rho_T)] over dW
paths estimates the Q~ mean of f (criterion 08). Q~ is not physical: with h0
halved, from the excited state, M = 4000 and h = 1e-3, the final <sigma_z>
was 0.2818 (+2.2 SE from ``master_evolve``'s 0.2642) for the dW form,
0.5585 reweighted and 0.5775 (+53 SE) for the physical form. The reference
measure of filtering, under which the record Y = W + int g dt is Brownian,
gives d rho = [L - g B] dt + B dY (Bouten, van Handel & James, SIAM J.
Control Optim. 46 (2007)).

Stepping core: ``sde_coefficients`` builds the density equation's
coefficients [S_L | S_B | g] once per configuration, in the row-major
Liouville layout of :mod:`qtraj.linalg` (v = vec(rho) = rho.reshape(4)),

    S_L = kron(-i h0 - A/2, I).T + kron(I, (i h0 - A/2).T).T + kron(c, conj(c)).T,
    S_B = kron(c, I).T + kron(I, conj(c)).T,      g = vec((c + c+).T),

with A = c+c, so vec L(rho) = v @ S_L, vec B(rho) = v @ S_B - (v @ g) v and
Tr[rho (c + c+)] = v @ g. Density paths are stepped in Bloch coordinates,
rho = (I + r.sigma)/2 (Jacobs & Steck, "A straightforward introduction to
continuous quantum measurement", Contemp. Phys. 47, 279 (2006)): every map
above keeps Hermiticity, so ``_bloch_sde_matrix`` turns [I + h S_L | S_B | g]
into one real (4, 7) matrix A. An ensemble is a (3, M) array r of Bloch
rows, and a step (``_bloch_euler``, which the convergence residual reads
too) is w = (1, r) @ A, r' = w[:3] + dW (w[3:6] - w[6] r), with w taken row
by row by ``linalg.bloch_apply`` into a (7, M) buffer allocated once per
pass. The drift rotates (x, y) and relaxes z, and the backaction and g read
few components, so A is sparse: the default model's has 13
exact zeros among its 21 state coefficients, whose products ``bloch_apply``
skips while the states are finite, without changing a bit. Hermiticity and
unit trace hold by construction, and the positivity projection (eigen-clip
at zero, trace renormalization) is exactly ``linalg.project_ball``,
r / max(1, |r|). Both density loops share one projection rule: a member is
projected only when x^2 + y^2 + z^2 <= _INSIDE is false (NaN included), as
inside that bound the scale is exactly 1. ``_project`` sends those
members through ``project_ball``, after one max of the sums has said
whether any goes; a finite max also tells the next product that every
component is finite, so it takes its sparse plan untested.
``_scalar_density`` takes the same |r| and division in Python floats.
Every numpy call of a density ensemble step (not yet of ``_wave_steps``)
takes array operands and writes into an array given positionally: the plan
holds A's entries, and the loops h, 0.5 and _INSIDE, as 0-d float64 arrays,
because numpy 2 converts a Python-float operand anew on every call (NEP
50), about 30 % of a call's cost at M = 1000. A 0-d array of the float64
the Python float converts to gives the same IEEE operations on the same
operands in the same order, so the bits do not change.

Each equation has one ensemble Euler loop, a generator that reads the
(M,) increments of each step as it takes it: ``_density_steps`` (density
and innovation forms) and ``_wave_steps``. A seeded ensemble draws them
from its seed's stream in blocks of at most ``rng.BLOCK_DRAWS`` draws
(``_ensemble_noise``), so its memory grows with M but not with the steps;
a single path draws all of its own at once, as its record keeps them. The
ensembles keep the last step. The wave form is stepped
in real arithmetic: psi is held as v = (Re psi_0, Im psi_0, Re psi_1,
Im psi_1), and ``_wave_matrix`` turns the complex 2x2 matrices
A = I + h (-i h0 - c+c/2) and c into one real (4, 8) matrix [A | C] with
v @ A the real form of A psi. Every product of both loops is a fixed
sequence of elementwise products and sums, less the +-0 products that
``bloch_apply`` skips as they change no bit, so an ensemble row is
bit-identical to the same member run alone, whatever M. A recorded path is
stepped in Python floats instead: ``_scalar_density`` for
``simulate_belavkin`` and ``simulate_physical``, with the operations of
``_bloch_step`` in the same order, skipped products included, and
``_scalar_wave`` for ``simulate_wave``, with those of ``_wave_steps``. So a
single path has the bits of the ensemble row; the tests check this step by
step, as it does not hold by construction. Each fills a record table that
a ``csvio.RowFeed`` provides and publishes each checked block of rows to
it, so the CLI can format the CSV beside the loop; the CSV columns of any
row range come from ``_density_range`` or ``_wave_range`` and the writers'
column functions.
The 2x2 matrix forms of L, B, the projection and both Euler steps are test
oracles in ``tests/oracles.py``, not package code.
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

import numpy as np

from .csvio import IN_PROCESS, STATE_HEADER, RowFeed, check_rows, state_columns, write_csv
from .linalg import (adjoint, bloch_apply, bloch_norm_sq, bloch_superop, bloch_terms,
                     bloch_to_density, density_to_bloch, project_ball, sandwich_superop)
from .model import (ID2, STATE_TOL, VALIDATE_EVERY, DensityMatrix, ModelConfig,
                    WaveFunction, validate_batch, validate_norms)
from .rng import generator_for, member_streams, step_blocks

MAX_SDE_STEP = 1e-2
# steps h ||S_L|| (= T ||S_L||, max row sum) past which the exact master
# path is refused. The squarings in _expm1 leave the step of a fast rotation
# a norm error of order eps h ||S_L||, and the steps compound it: a closed
# system's |r| drifted from 1 by up to 1.8e-16 steps h ||S_L|| (140 random
# rotation rates w in [1e3, 1e7] at h = 1e-2, 1e-3 and 1e-4), so at this
# bound by at most 4e-11, below STATE_TOL
MAX_TURN = 2e5
# a step divides the horizon T when T / h is this close (relative) to an integer
STEP_DIVIDES_TOL = 1e-9
# |r|^2 at or below this leaves the projection's scale exactly 1: the
# rounding of the sum and of hypot is far below the margin
_INSIDE = 1.0 - 1e-12
# cost of one _scalar_density or _scalar_wave step in %.17g cells formatted,
# which places the split of a table formatted beside the loop
# (cli._FormattedAhead). On the 2-vCPU Xeon VM at h = 1e-4 a step costs
# 9.4-9.8 (density) and 10.8-12.9 (wave) cells in one process; with a child
# formatting beside the loop both lanes run slower, and they end together at
# 6 and 9 (the median lane ends of 21 runs differ by -6, 0 and 0 ms at 4, 6
# and 8 density cells, where from 6 on the child formats every row, and by
# -6, 0 and +5 ms at 7, 9 and 11 wave cells)
DENSITY_STEP_CELLS = 6.0
WAVE_STEP_CELLS = 9.0


class StepOutOfRange(ValueError):
    """A step size outside the domain of the integrator it is given to."""


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


def _whole_steps(t: float, h: float) -> int | None:
    """round(t / h) if t / h is within STEP_DIVIDES_TOL (relative) of that
    integer, so that steps of size h end at t, else None."""
    ratio = t / h
    if not math.isfinite(ratio):
        return None
    steps = round(ratio)
    return steps if abs(ratio - steps) <= STEP_DIVIDES_TOL * abs(ratio) else None


def _steps_to(t: float, h: float) -> int:
    """Number of steps of size h on [0, t]; StepOutOfRange unless h divides t."""
    steps = _whole_steps(t, h)
    if steps is None:
        raise StepOutOfRange(f"step size {h:g} does not divide the horizon {t:g} "
                             f"(t / h = {t / h:.12g})")
    return steps


def dividing_step(t: float, h: float) -> float:
    """The largest step not above h that divides t: h itself when it does,
    else t / ceil(t / h)."""
    return h if _whole_steps(t, h) is not None else t / math.ceil(t / h)


@np.errstate(over="ignore", invalid="ignore")
def _euler_steps(cfg: ModelConfig, h: float) -> int:
    """Number of Euler steps of size h on [0, T], after checking that h is
    in (0, min(MAX_SDE_STEP, T)], so that a run takes at least one step;
    that h ||S_L|| <= 2 in the max row sum, past which Euler's damping
    factor 1 - h gamma of a rate-gamma decay goes negative (NaN and overflow
    fail too); and that h divides T, so that the last step ends at T."""
    _check_step(h, min(MAX_SDE_STEP, cfg.t_horizon))
    s_l = lindblad_superop(cfg.h0, cfg.coupling())
    norm = h * float(np.max(np.sum(np.abs(s_l), axis=1)))
    if not norm <= 2.0:
        raise StepOutOfRange(f"step size {h:g} is too large for the generator S_L: "
                             f"h ||S_L|| = {norm:.6g} > 2")
    return _steps_to(cfg.t_horizon, h)


def _path_noise(seed: int, steps: int, h: float) -> np.ndarray:
    """(steps,) increments of the single path of ``seed``, all drawn at once
    as its record keeps them: the ensemble of one's, bit for bit."""
    noise = member_streams(generator_for(seed), 1, steps, "standard_normal")[0]
    noise *= np.sqrt(h)
    return noise


def _scaled_rows(blocks: Iterator[np.ndarray], scale: float) -> Iterator[np.ndarray]:
    """The rows of each block in turn, the block scaled in place when reached."""
    for block in blocks:
        block *= scale
        yield from block


def _ensemble_noise(base_seed: int | None, noise: np.ndarray | None,
                    num_paths: int, steps: int, h: float) -> Iterator[np.ndarray]:
    """The (num_paths,) increments of each step of an ensemble in turn,
    after checking that num_paths is an integer >= 1 and that exactly one
    of base_seed and noise is given.

    Seeded, step k of member j is element j of row k of the step-major
    normals of generator_for(base_seed), times sqrt(h), read in the
    ``rng.step_blocks`` of at most ``rng.BLOCK_DRAWS`` draws, each drawn
    when the loop reaches it: the increments held at once, two blocks, stay
    below 1 MiB whatever the steps. Supplied, the (num_paths, steps) array
    is checked for its shape and finiteness and read column by column,
    stored column-major so that a column is one run."""
    try:
        operator.index(num_paths)
    except TypeError:
        raise ValueError(f"num_paths must be an integer, got {num_paths!r}") from None
    if num_paths < 1:
        raise ValueError(f"num_paths must be at least 1, got {num_paths}")
    if (base_seed is None) == (noise is None):
        raise ValueError("exactly one of base_seed and noise is required")
    if noise is None:
        blocks = step_blocks(generator_for(base_seed), num_paths, steps, "standard_normal")
        return _scaled_rows(blocks, np.sqrt(h))
    noise = np.asfortranarray(noise, dtype=float)
    if noise.shape != (num_paths, steps):
        raise ValueError(f"noise must have shape {(num_paths, steps)}, "
                         f"got {noise.shape}")
    if not np.all(np.isfinite(noise)):
        raise ValueError("noise must be finite")
    return iter(noise.T)


def _bloch_sde_matrix(cfg: ModelConfig, h: float) -> np.ndarray:
    """Real (4, 7) matrix A of one Euler step in Bloch coordinates, the Bloch
    form [D | S_B | g] of D = I + h S_L and the ``sde_coefficients``: for
    u = (1, r), u @ A = [r-part of vec(rho) @ D | r-part of c rho + rho c+ |
    Tr[rho (c + c+)]]. The u_0 columns are dropped: D's is the trace of the
    image, 1 as L keeps the trace, and S_B's is g."""
    coeffs = sde_coefficients(cfg.h0, cfg.coupling())
    drift = np.eye(4) + h * coeffs[:, :4]
    back = bloch_superop(coeffs[:, 4:8])
    return np.hstack([bloch_superop(drift)[:, 1:], back[:, 1:],
                      bloch_superop(coeffs[:, 8])[:, None]])


def _bloch_euler(terms: tuple, r: np.ndarray, dw: np.ndarray, h: np.ndarray | float,
                 physical: bool, w: np.ndarray, finite: bool | None = None,
                 ) -> tuple[np.ndarray, np.ndarray]:
    """One Euler step, not projected, of the (3, M) Bloch rows r, with the
    plan ``bloch_terms`` of ``_bloch_sde_matrix`` and a (7, M) buffer w.
    Returns (r', g), both new arrays; r is not written. With ``physical``
    the kick is dW + h g (innovation form). The loops pass h as a 0-d array,
    and ``finite`` on to ``bloch_apply``."""
    bloch_apply(r, terms, w, finite)
    g = w[6].copy()
    kick = np.add(dw, np.multiply(h, g, w[6]), w[6]) if physical else dw
    r = np.multiply(g, r)
    np.subtract(w[3:6], r, r)
    np.multiply(r, kick, r)
    np.add(r, w[:3], r)
    return r, g


def _project(r: np.ndarray, w: np.ndarray, inside: np.ndarray) -> bool:
    """Send the members of the (3, M) Bloch rows r with x^2 + y^2 + z^2 <=
    inside false (NaN included) through ``project_ball``, in place, as the
    scale of the others is exactly 1 (``_scalar_density``'s rule); inside is
    _INSIDE as a 0-d array, and w[:4] is scratch. One max of the sums
    decides whether any member goes. Returns whether that max is finite:
    then every component was finite, and ``project_ball`` keeps a row of
    finite components and finite |r| finite, so every component of r is."""
    sq = bloch_norm_sq(r, w[:3], w[3])
    top = sq.max()
    if not top <= inside:
        out = np.less_equal(sq, inside)
        j = np.logical_not(out, out).nonzero()[0]
        r[:, j] = project_ball(r[:, j].T).T
    return top < math.inf


def _bloch_step(terms: tuple, r: np.ndarray, dw: np.ndarray, h: np.ndarray | float,
                physical: bool, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_bloch_euler``, then ``_project``: one step of ``_density_steps``,
    which takes the two itself to carry the finite flag to the next step."""
    r, g = _bloch_euler(terms, r, dw, h, physical, w)
    _project(r, w, np.array(_INSIDE))
    return r, g


def _density_steps(cfg: ModelConfig, rho0: DensityMatrix, h: float,
                   num_paths: int, steps: int, noise: Iterable[np.ndarray],
                   physical: bool,
                   ) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Euler steps of num_paths density paths, driven by ``noise``: the
    (num_paths,) increments of each of the ``steps`` steps in turn, read
    when the step is taken. Yields (k, r, g, dw) after step k: r the
    (M, 3) Bloch vectors after it, the transposed view of the (3, M) rows
    the loop steps, g = Tr[rho (c + c+)] of the states before it, both new
    at each step, and dw the increments it read. Every step is projected
    onto the positive states. The initial state is checked against the
    invariants first, and the states every VALIDATE_EVERY steps and after
    the last one: by the cheap test of ``_scalar_density`` first, max
    x^2 + y^2 + z^2 <= 1 + STATE_TOL, and by ``validate_batch`` on the whole
    batch only where that fails, so the same batches fail with the same
    message.
    """
    validate_batch(rho0.m, None)
    terms = bloch_terms(_bloch_sde_matrix(cfg, h))
    r = np.repeat(density_to_bloch(rho0.m)[:, None], num_paths, axis=1)
    w = np.empty((7, num_paths))
    h, inside, finite = np.array(h), np.array(_INSIDE), None
    for k, dw in zip(range(steps), noise):
        r, g = _bloch_euler(terms, r, dw, h, physical, w, finite)
        finite = _project(r, w, inside)
        if (k + 1) % VALIDATE_EVERY == 0 or k + 1 == steps:
            if not bloch_norm_sq(r, w[:3], w[3]).max() <= 1.0 + STATE_TOL:
                validate_batch(bloch_to_density(r.T), k)
        yield k, r.T, g, dw


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


def _wave_steps(cfg: ModelConfig, psi0: WaveFunction, h: float, num_paths: int,
                steps: int, noise: Iterable[np.ndarray]) -> Iterator[tuple[int, np.ndarray]]:
    """Euler steps of num_paths wave paths, driven by ``noise`` as in
    ``_density_steps``, renormalized each step. Yields (k, v) after
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
    col = _wave_matrix(cfg, h)[:, :, None]
    v = np.broadcast_to(_real_parts(psi0.v)[:, None], (4, num_paths)).copy()
    for k, dw in zip(range(steps), noise):
        w = v[0] * col[0] + v[1] * col[1] + v[2] * col[2] + v[3] * col[3]
        nu = v[0] * w[4] + v[1] * w[5] + v[2] * w[6] + v[3] * w[7]
        raw = w[:4] + (dw + h * nu) * w[4:] - (dw * nu + 0.5 * h * nu * nu) * v
        v = raw / np.sqrt(raw[0] * raw[0] + raw[1] * raw[1] + raw[2] * raw[2]
                          + raw[3] * raw[3])
        if (k + 1) % VALIDATE_EVERY == 0 or k + 1 == steps:
            validate_norms(_complex_rows(v), k)
        yield k, v


def _scalar_density(a: np.ndarray, r0: np.ndarray, h: float, noise: np.ndarray,
                    physical: bool, table: np.ndarray | None = None,
                    publish=IN_PROCESS.publish) -> tuple[np.ndarray, np.ndarray]:
    """The steps of ``_density_steps`` for one path, in Python floats.

    Takes the (4, 7) matrix of ``_bloch_sde_matrix``, the initial Bloch
    vector and the (steps,) increments, and returns (Bloch vectors
    (steps+1, 3), g (steps,)). Each number comes from the operations that
    ``_bloch_step`` takes on a member, in the same order, and the +-0
    products ``bloch_apply`` skips, which change no bit, so it has the same
    bits; the tests check this step by step. The projection takes |r| from
    nested ``np.hypot``, as ``project_ball`` does (``math.hypot`` rounds
    differently), and skips it when x^2 + y^2 + z^2 <= _INSIDE, where the
    scale is exactly 1: the rule of ``_bloch_step``. A non-finite |r| makes
    the state NaN. The states are checked every VALIDATE_EVERY steps and
    after the last one, by the cheap test of ``discrete._scalar_chain``
    first, x^2 + y^2 + z^2 <= 1 + STATE_TOL, and by ``validate_batch`` only
    where that fails.

    The record table is ``table`` ((steps+1, 4), a new one by default): row
    0 holds r0 and NaN, row k + 1 the state after step k and g before it. A
    block's rows go into it once its last state is checked, and then
    ``publish`` gets the number of rows filled.
    """
    (e0, e1, e2, e3, e4, e5, e6), (x0, x1, x2, x3, x4, x5, x6), \
        (y0, y1, y2, y3, y4, y5, y6), (z0, z1, z2, z3, z4, z5, z6) = a.tolist()
    x, y, z = r0.tolist()
    kicks, h = memoryview(np.ascontiguousarray(noise, dtype=float)), float(h)
    steps = len(kicks)
    if table is None:
        table = np.empty((steps + 1, 4))
    table[0] = x, y, z, math.nan
    for start in range(0, steps, VALIDATE_EVERY):
        block = array("d")
        put = block.extend
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
        # a cheap test first: a state inside it passes the full check
        if not x * x + y * y + z * z <= 1.0 + STATE_TOL:
            validate_batch(bloch_to_density(np.array([x, y, z])), k)
        table[start + 1:k + 2] = np.frombuffer(block).reshape(-1, 4)
        publish(k + 2)
    return table[:, :3], table[1:, 3]


def _rows(noise: np.ndarray, h: float, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """The times of the rows [lo, hi) of a path of step h driven by the
    increments ``noise``, and the increments that lead to them (none to
    row 0)."""
    return np.arange(lo, hi) * h, noise[max(lo - 1, 0):hi - 1]


def _density_range(table: np.ndarray, noise: np.ndarray, h: float, lo: int = 0) -> SdePath:
    """The path, without companion, of the rows [lo, lo + len(table)) of a
    ``_scalar_density`` record table driven by ``noise``."""
    grid, kicks = _rows(noise, h, lo, lo + len(table))
    return SdePath(grid=grid, states=bloch_to_density(table[:, :3]), noise=kicks)


def _density_path(cfg: ModelConfig, rho0: DensityMatrix, h: float,
                  seed: int, physical: bool, feed: RowFeed = IN_PROCESS) -> SdePath:
    """``_scalar_density`` on one path, recording every state (and, in the
    physical form, the companion W path) in the record table of ``feed``,
    which gets each checked block. A path of more than csvio.MAX_ROWS rows
    is refused first; the initial state is checked next, and the path state
    by state once recorded."""
    steps = _euler_steps(cfg, h)
    check_rows(steps + 1)
    noise = _path_noise(seed, steps, h)
    validate_batch(rho0.m, None)

    def columns(rows, lo):
        return _path_columns(_density_range(rows, noise, h, lo))

    table = feed.table((steps + 1, 4), columns, DENSITY_STEP_CELLS)
    _, g = _scalar_density(_bloch_sde_matrix(cfg, h), density_to_bloch(rho0.m),
                           h, noise, physical, table, feed.publish)
    path = _density_range(table, noise, h)
    validate_batch(path.states, steps)
    if not physical:
        return path
    return replace(path, companion=np.concatenate([[0.0], np.cumsum(noise + g * h)]))


def simulate_belavkin(cfg: ModelConfig, rho0: DensityMatrix, h: float,
                      seed: int, feed: RowFeed = IN_PROCESS) -> SdePath:
    """Euler path of the density equation on [0, T], which samples the
    physical law (see the module docstring); its record table is
    ``feed``'s (see ``_density_path``)."""
    return _density_path(cfg, rho0, h, seed, False, feed)


def simulate_physical(cfg: ModelConfig, rho0: DensityMatrix, h: float,
                      seed: int, feed: RowFeed = IN_PROCESS) -> SdePath:
    """Euler path of the form named physical in the module docstring, which
    samples the tilted law Q~, not the physical one. The companion W path
    W_{k+1} = W_k + dW~_k + g_k h is reconstructed and stored. The record
    table is ``feed``'s (see ``_density_path``)."""
    return _density_path(cfg, rho0, h, seed, True, feed)


def _scalar_wave(m: np.ndarray, v0: np.ndarray, h: float, noise: np.ndarray,
                 table: np.ndarray | None = None,
                 publish=IN_PROCESS.publish) -> np.ndarray:
    """The steps of ``_wave_steps`` for one path, in Python floats.

    Takes the (4, 8) matrix of ``_wave_matrix``, the (4,) real parts of the
    initial vector and the (steps,) increments, and returns the record
    table: the real parts (steps+1, 4) of every vector, row 0 those of the
    initial one. Each number comes from the operations that ``_wave_steps``
    takes on a column, in the same order, so it has the same bits; the
    tests check this step by step. A zero norm divides through numpy, so 0/0
    gives NaN as in the ensemble rather than raising. The norms are checked
    every VALIDATE_EVERY steps and after the last one, by a cheap test first:
    |psi|^2 within STATE_TOL of 1 in Python floats, which leaves |psi|
    within STATE_TOL/2 of 1 up to rounding, and by ``validate_norms`` only
    where that fails (NaN and inf included). The table is ``table`` (a new
    one by default); a block's rows go into it once its last norm is
    checked, and then ``publish`` gets the number of rows filled.
    """
    (a00, a01, a02, a03, c00, c01, c02, c03), \
        (a10, a11, a12, a13, c10, c11, c12, c13), \
        (a20, a21, a22, a23, c20, c21, c22, c23), \
        (a30, a31, a32, a33, c30, c31, c32, c33) = m.tolist()
    x0, x1, x2, x3 = v0.tolist()
    kicks, h = memoryview(np.ascontiguousarray(noise, dtype=float)), float(h)
    half_h = 0.5 * h
    steps = len(kicks)
    if table is None:
        table = np.empty((steps + 1, 4))
    table[0] = x0, x1, x2, x3
    for start in range(0, steps, VALIDATE_EVERY):
        block = array("d")
        put = block.extend
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
        # a cheap test first: a vector inside it passes the full check
        if not abs(x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3 - 1.0) <= STATE_TOL:
            validate_norms(np.array([x0, x1, x2, x3]).view(complex), k)
        table[start + 1:k + 2] = np.frombuffer(block).reshape(-1, 4)
        publish(k + 2)
    return table


def _wave_range(table: np.ndarray, noise: np.ndarray, h: float, lo: int = 0) -> WavePath:
    """The path of the rows [lo, lo + len(table)) of a ``_scalar_wave``
    record table driven by ``noise``."""
    grid, kicks = _rows(noise, h, lo, lo + len(table))
    return WavePath(grid=grid, vectors=table.view(complex), noise=kicks)


def simulate_wave(cfg: ModelConfig, psi0: WaveFunction, h: float,
                  seed: int, feed: RowFeed = IN_PROCESS) -> WavePath:
    """Euler path of the wave form on [0, T], renormalized each step, with
    every norm checked: ``_scalar_wave`` on one path, in the record table of
    ``feed``, which gets each checked block. A path of more than
    csvio.MAX_ROWS rows is refused first; the norm of psi0 is checked next,
    and the recorded path once at the end."""
    steps = _euler_steps(cfg, h)
    check_rows(steps + 1)
    noise = _path_noise(seed, steps, h)
    validate_norms(psi0.v, None)

    def columns(rows, lo):
        return _wave_columns(_wave_range(rows, noise, h, lo))

    table = feed.table((steps + 1, 4), columns, WAVE_STEP_CELLS)
    _scalar_wave(_wave_matrix(cfg, h), _real_parts(psi0.v), h, noise, table, feed.publish)
    wave = _wave_range(table, noise, h)
    validate_norms(wave.vectors, steps)
    return wave


def master_evolve(cfg: ModelConfig, rho0: DensityMatrix, h: float) -> MasterPath:
    """The averaged equation d nu/dt = L(nu) on the grid of step h, stepped
    exactly: L is linear, so a step is v -> v @ exp(h S_L), and none in
    (0, T] is unstable. A step outside (0, T], or one that does not divide
    T, raises StepOutOfRange, and a path of more than csvio.MAX_ROWS rows
    TableTooLarge, before anything is allocated."""
    _check_step(h, cfg.t_horizon)
    steps = _steps_to(cfg.t_horizon, h)
    check_rows(steps + 1)
    return MasterPath(grid=np.arange(steps + 1) * h,
                      states=_master_states(cfg, rho0, h, steps))


@np.errstate(over="ignore", invalid="ignore")
def _expm1(s_l: np.ndarray, h: float) -> np.ndarray:
    """exp(h S_L) - I by scaling and squaring (Higham, SIAM J. Matrix Anal.
    Appl. 26 (2005)): the degree-16 Taylor series of x = h S_L / 2^s, |x| <=
    1/2 in the max row sum, then s squarings d -> 2d + d d, which keep d's
    low bits. StepOutOfRange first if h S_L or its norm is not finite, and
    after if the result is not: a finite h S_L of norm near the float
    maximum takes about a thousand squarings, which can overflow."""
    a = h * s_l
    norm = float(np.max(np.sum(np.abs(a), axis=1)))
    if not math.isfinite(norm):
        raise StepOutOfRange(f"step size {h:g} is too large: h S_L is not finite")
    s = max(0, math.frexp(norm)[1] + 1)
    x = a * 2.0 ** -s
    d = np.zeros_like(x)
    for k in range(16, 0, -1):
        d = (x + x @ d) / k
    for _ in range(s):
        d = 2.0 * d + d @ d
    if not np.isfinite(d).all():
        raise StepOutOfRange(f"step size {h:g} is too large: exp(h S_L) overflows")
    return d


def _master_states(cfg: ModelConfig, rho0: DensityMatrix, h: float,
                   steps: int) -> np.ndarray:
    """(steps + 1, 2, 2) states of the averaged equation at step h.

    A step is u -> u (I + d) on u = (1, r), d the Bloch form of ``_expm1``,
    with column 0 pinned to 0 (L is traceless), so u_0 = 1 exactly. With
    E_j = (I + d)^j - I, taken as E_j = E_{j-1} + d + E_{j-1} d to keep d's
    low bits, a block of B = isqrt(steps) steps from s is one stacked
    product u_{s+j} = u_s + u_s E_j. The initial state and the whole path
    are checked against the invariants. StepOutOfRange if steps h ||S_L||
    exceeds MAX_TURN, past which rounding alone moves |r| by more than
    STATE_TOL."""
    validate_batch(rho0.m, None)
    s_l = lindblad_superop(cfg.h0, cfg.coupling())
    d = bloch_superop(_expm1(s_l, h))
    turn = steps * h * float(np.max(np.sum(np.abs(s_l), axis=1)))
    if not turn <= MAX_TURN:
        raise StepOutOfRange(f"{steps} steps of size {h:g} are too many for the generator "
                             f"S_L: steps h ||S_L|| = {turn:.6g} > {MAX_TURN:g}, past which "
                             "rounding moves |r| by more than the state tolerance")
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
    states = _master_states(cfg, rho0, 1.0 / (refine * n), m * refine)
    return states[::refine]


def sde_ensemble_final(cfg: ModelConfig, rho0: DensityMatrix, h: float,
                       num_paths: int, base_seed: int | None = None,
                       noise: np.ndarray | None = None,
                       physical: bool = False, with_weights: bool = False,
                       ) -> tuple[np.ndarray, np.ndarray | None]:
    """Vectorized ensemble integration keeping only final states.

    Path j draws its noise from member j of base_seed's stream, read in
    blocks of at most 512 KiB as the loop reaches them, so the memory of a
    run grows with num_paths but not with its steps: at 1000 paths it
    peaks near 1.2 MiB (see ``_ensemble_noise``); or from row
    j of an explicit (num_paths, steps) increment array, exactly one of the
    two. Returns (final states, final weights or None), the weights read
    from the increments each step used; with ``physical`` the
    innovation-form drift is used and asking for weights raises ValueError,
    as does a num_paths that is not an integer >= 1. The states are checked
    against the invariants every VALIDATE_EVERY steps and after the last
    one.
    """
    if physical and with_weights:
        raise ValueError("weights are unavailable in the physical form")
    steps = _euler_steps(cfg, h)
    noise = _ensemble_noise(base_seed, noise, num_paths, steps, h)
    # log Z += g dW - ((0.5 g) g) h, in reused buffers with 0-d constants
    log_z, gdw, tail = np.zeros(num_paths), np.empty(num_paths), np.empty(num_paths)
    half, h_arr = np.array(0.5), np.array(h)
    for _, r, g, dw in _density_steps(cfg, rho0, h, num_paths, steps, noise, physical):
        if with_weights:
            np.multiply(np.multiply(np.multiply(half, g, tail), g, tail), h_arr, tail)
            np.add(log_z, np.subtract(np.multiply(g, dw, gdw), tail, gdw), log_z)
    weights = np.exp(log_z) if with_weights else None
    return bloch_to_density(r), weights


def wave_ensemble_final(cfg: ModelConfig, psi0: WaveFunction, h: float,
                        num_paths: int, base_seed: int | None = None,
                        noise: np.ndarray | None = None) -> np.ndarray:
    """Vectorized wave-form ensemble, final (M, 2) vectors only. The noise
    and its checks are those of ``sde_ensemble_final``: base_seed's stream
    in blocks of at most 512 KiB, or an explicit array, exactly one."""
    steps = _euler_steps(cfg, h)
    noise = _ensemble_noise(base_seed, noise, num_paths, steps, h)
    for _, v in _wave_steps(cfg, psi0, h, num_paths, steps, noise):
        pass
    return _complex_rows(v)


_PATH_HEADER = "time,dW," + STATE_HEADER


def _path_columns(path: SdePath) -> list:
    """The CSV columns of a density path: time, dW (one shorter when the
    path starts at t = 0) and the rho entries."""
    return [path.grid, path.noise, *state_columns(path.states)]


def _wave_columns(wave: WavePath) -> list:
    """The CSV columns of a wave path: time, dW, the rho entries of its
    projectors (the outer product) and the real parts of psi."""
    v = wave.vectors
    rho = v[:, :, None] * v.conj()[:, None, :]
    return [wave.grid, wave.noise, *state_columns(rho),
            v[:, 0].real, v[:, 0].imag, v[:, 1].real, v[:, 1].imag]


def sde_path_to_csv(path: SdePath, stream, timestamp: str | None = None,
                    feed: RowFeed = IN_PROCESS) -> None:
    """CSV dump: time, dW, rho entries; the rows ``feed`` formatted ahead
    come from it, as in ``write_csv``."""
    write_csv(stream, _PATH_HEADER, _path_columns(path), timestamp, feed)


def wave_path_to_csv(wave: WavePath, stream, timestamp: str | None = None,
                     feed: RowFeed = IN_PROCESS) -> None:
    """CSV dump of a wave path; rho columns come from the outer product.
    The rows ``feed`` formatted ahead come from it, as in ``write_csv``."""
    write_csv(stream, _PATH_HEADER + ",psi_0_re,psi_0_im,psi_1_re,psi_1_im",
              _wave_columns(wave), timestamp, feed)
