"""Shared test fixtures: random model inputs and state validity checks."""

from __future__ import annotations

import numpy as np

from qtraj import DensityMatrix, ModelConfig, make_observable
from qtraj.model import SIGMA_Z

LOWERING = np.array([[0, 1], [0, 0]], dtype=complex)

GROUND = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
EXCITED = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
_plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
PLUS = DensityMatrix(np.outer(_plus, _plus.conj()))
PLUS_VEC = _plus
# Bloch vector (-0, -0, 0.6): exact zeros with the sign bit set
SIGNED_ZEROS = DensityMatrix(np.array([[0.8, complex(-0.0, 0.0)],
                                       [complex(-0.0, -0.0), 0.2]]))


def assert_same_bits(got: np.ndarray, want: np.ndarray, equal_nan: bool = False,
                     name: str | None = None) -> None:
    """Equal arrays, with the same sign bits outside NaN: +0 == -0 alone
    would let a sign slip through."""
    assert got.shape == want.shape, name
    assert np.array_equal(got, want, equal_nan=equal_nan), name
    signed = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[signed]), np.signbit(want[signed])), name


def rand_herm(rng: np.random.Generator) -> np.ndarray:
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return 0.5 * (m + m.conj().T)


def rand_cmat(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def rand_state_matrix(rng: np.random.Generator) -> np.ndarray:
    a = rand_cmat(rng)
    m = a @ a.conj().T
    return m / m.trace().real


def rand_density(rng: np.random.Generator) -> DensityMatrix:
    return DensityMatrix(rand_state_matrix(rng))


def rand_config(rng: np.random.Generator, n_low: int = 10, n_high: int = 2000,
                phi_margin: float = 0.2) -> ModelConfig:
    phi = rng.uniform(phi_margin, np.pi - phi_margin)
    return ModelConfig(h0=rand_herm(rng), c=rand_cmat(rng),
                       observable=make_observable(phi, 1.0, -1.0),
                       n=int(rng.integers(n_low, n_high)), t_horizon=1.0)


def damping_cfg(n: int = 100, phi: float = np.pi / 2, c_scale: float = 1.0,
                h0_scale: float = 0.0, t_horizon: float = 1.0) -> ModelConfig:
    """Amplitude damping, optionally with a sigma_z level splitting."""
    return ModelConfig(h0=h0_scale * SIGMA_Z, c=c_scale * LOWERING,
                       observable=make_observable(phi, 1.0, -1.0),
                       n=n, t_horizon=t_horizon)


def trivial_cfg(n: int = 100, phi: float = np.pi / 2) -> ModelConfig:
    """No coupling, no free Hamiltonian: nothing moves."""
    return ModelConfig(h0=np.zeros((2, 2)), c=np.zeros((2, 2)),
                       observable=make_observable(phi, 1.0, -1.0),
                       n=n, t_horizon=1.0)


def assert_valid_states(states: np.ndarray, herm_tol: float = 1e-10,
                        trace_tol: float = 1e-10, eig_tol: float = 1e-10) -> None:
    """Hermiticity, unit trace, positivity on a (..., 2, 2) stack."""
    states = np.asarray(states)
    herm = np.max(np.abs(states - np.conjugate(np.swapaxes(states, -1, -2))))
    assert herm <= herm_tol, f"hermiticity deviation {herm:.3e}"
    traces = np.trace(states, axis1=-2, axis2=-1)
    tdev = np.max(np.abs(traces - 1.0))
    assert tdev <= trace_tol, f"trace deviation {tdev:.3e}"
    a = states[..., 0, 0].real
    d = states[..., 1, 1].real
    rad = np.sqrt(0.25 * (a - d) ** 2 + np.abs(states[..., 0, 1]) ** 2)
    eig_min = np.min(0.5 * (a + d) - rad)
    assert eig_min >= -eig_tol, f"min eigenvalue {eig_min:.3e}"
