"""Domain types for the monitored two-level system.

States are 2x2 density matrices on the system qubit; measurements act on a
fresh field qubit after each interaction. The measured observable has two
outcomes with rank-one eigenprojectors; its eigenbasis is rotated from the
field basis by a mixing angle, and the rotation is what turns the measurement
record into a diffusive signal.

Scaling convention for the per-interaction unitary: with n interactions per
unit time (h = 1/n) the exponent carries the free Hamiltonians at order h and
the exchange coupling at order 1/sqrt(n),

    U(n) = exp(-i h (h0 (x) I + I (x) h_field) + (c (x) raise - c+ (x) lower)/sqrt(n)),

the unique normalization with a nontrivial continuum limit. The field phase
is fixed so the emission block of U is +c/sqrt(n) to leading order:

    L10(n) = c/sqrt(n) + O(n^-3/2),
    L00(n) = phase * (I + (-i h0 - c+c/2)/n) + O(n^-2),

where phase = exp(-i h E0) and E0 is the field ground-level energy (0 for the
default "excited_energy" choice of field Hamiltonian, 1 for "ground_energy").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    HERMITICITY_TOL,
    adjoint,
    max_abs,
    tensor,
)

STATE_TOL = 1e-10
VALIDATE_EVERY = 100   # ensemble steps between invariant checks
UNITARITY_TOL = 1e-12

ID2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

_FIELD_RAISE = np.array([[0, 0], [1, 0]], dtype=complex)   # |f1><f0|
_FIELD_LOWER = np.array([[0, 1], [0, 0]], dtype=complex)   # |f0><f1|

FIELD_HAMILTONIANS = {
    "ground_energy": np.diag([1.0, 0.0]).astype(complex),
    "excited_energy": np.diag([0.0, 1.0]).astype(complex),
}


class NotAState(ValueError):
    """Matrix is not a density matrix within tolerance."""


class DegenerateSpectrum(ValueError):
    """Observable eigenvalues coincide."""


@dataclass(frozen=True)
class DensityMatrix:
    """System state: 2x2 Hermitian, positive, trace one."""

    m: np.ndarray


@dataclass(frozen=True)
class WaveFunction:
    """Pure-state representative: norm-one vector in C^2."""

    v: np.ndarray


@dataclass(frozen=True)
class Observable:
    """Two-outcome field observable lam0*p0 + lam1*p1 with rank-one projectors."""

    lam0: float
    lam1: float
    p0: np.ndarray
    p1: np.ndarray
    mixing_angle: float


@dataclass(frozen=True)
class InteractionUnitary:
    """Joint unitary of one interaction, with its field-sector blocks."""

    matrix: np.ndarray
    l00: np.ndarray
    l01: np.ndarray
    l10: np.ndarray
    l11: np.ndarray

    @classmethod
    def from_matrix(cls, u: np.ndarray) -> "InteractionUnitary":
        u = np.asarray(u, dtype=complex)
        if not max_abs(u @ adjoint(u) - np.eye(4)) <= UNITARITY_TOL:
            raise ValueError("matrix is not unitary to tolerance "
                             f"{UNITARITY_TOL:g}")
        return cls(matrix=u, l00=u[:2, :2], l01=u[:2, 2:],
                   l10=u[2:, :2], l11=u[2:, 2:])


@dataclass(frozen=True)
class ModelConfig:
    """Everything that determines the dynamics.

    theta is a phase folded into the coupling (c -> exp(i theta) c) before
    anything else uses it; every routine reads the coupling through
    ``coupling()``.
    """

    h0: np.ndarray
    c: np.ndarray
    observable: Observable
    n: int
    t_horizon: float
    theta: float = 0.0
    field_hamiltonian: str = "excited_energy"

    def __post_init__(self):
        h0 = np.asarray(self.h0, dtype=complex)
        c = np.asarray(self.c, dtype=complex)
        object.__setattr__(self, "h0", h0)
        object.__setattr__(self, "c", c)
        with np.errstate(all="ignore"):
            finite = all(np.all(np.isfinite(m)) for m in (h0, c, adjoint(c) @ c))
        if not (finite and np.isfinite(self.theta)):
            raise ValueError("h0, c, c+c and theta must be finite")
        if not self.n >= 1:
            raise ValueError("n must be a positive integer")
        try:    # floor(n T) steps are taken in floats
            span = self.n * self.t_horizon
        except OverflowError:   # an int n past the float range
            span = np.inf
        if not (0 < self.t_horizon < np.inf and span < np.inf):
            raise ValueError("t_horizon and n * t_horizon must be positive and finite")
        if not max_abs(h0 - adjoint(h0)) <= HERMITICITY_TOL:
            raise ValueError("h0 must be Hermitian to tolerance "
                             f"{HERMITICITY_TOL:g}")
        if self.field_hamiltonian not in FIELD_HAMILTONIANS:
            raise ValueError("field_hamiltonian must be one of "
                             f"{sorted(FIELD_HAMILTONIANS)}")

    def coupling(self) -> np.ndarray:
        """Effective coupling exp(i theta) * c."""
        return np.exp(1j * self.theta) * self.c

    @property
    def steps(self) -> int:
        return int(np.floor(self.n * self.t_horizon))


def _where(step: int | None) -> str:
    """Error-message label of a check after step ``step``, or with None of
    the initial state."""
    return "in the initial state" if step is None else f"by step {step}"


def validate_batch(states: np.ndarray, step: int | None) -> np.ndarray:
    """Check a (..., 2, 2) stack for Hermiticity, unit trace and positivity
    to STATE_TOL, then return it symmetrized. The smallest eigenvalue of each
    symmetrized state is (a + d)/2 - sqrt((a - d)^2/4 + |b|^2). ``step`` only
    labels the error message; None names the initial state."""
    herm_dev = max_abs(states - adjoint(states))
    traces = np.trace(states, axis1=-2, axis2=-1)
    trace_dev = float(np.max(np.abs(traces - 1.0)))
    sym = 0.5 * (states + adjoint(states))
    a = sym[..., 0, 0].real
    d = sym[..., 1, 1].real
    rad = np.sqrt(0.25 * (a - d) ** 2 + np.abs(sym[..., 0, 1]) ** 2)
    eig_min = float(np.min(0.5 * (a + d) - rad))
    if not (herm_dev <= STATE_TOL and trace_dev <= STATE_TOL
            and eig_min >= -STATE_TOL):
        raise NotAState(
            f"invariant violated {_where(step)}: hermiticity {herm_dev:.3e}, "
            f"trace {trace_dev:.3e}, min eigenvalue {eig_min:.3e}")
    return sym


def validate_norms(vectors: np.ndarray, step: int | None) -> None:
    """Check that every row of a (..., 2) stack of wave functions has unit
    norm to STATE_TOL. ``step`` only labels the error message; None names
    the initial state."""
    norm_dev = float(np.max(np.abs(np.linalg.norm(vectors, axis=-1) - 1.0)))
    if not norm_dev <= STATE_TOL:
        raise NotAState(f"wave-function norm deviates from 1 by {norm_dev:.3e} "
                        f"{_where(step)}")


def make_observable(phi: float, lam0: float, lam1: float) -> Observable:
    """Two-outcome observable whose first eigenvector is
    cos(phi/2)*f0 + sin(phi/2)*f1; phi in (0, pi) makes it nondiagonal."""
    if not np.all(np.isfinite([phi, lam0, lam1])):
        raise ValueError("phi, lambda0 and lambda1 must be finite")
    if lam0 == lam1:
        raise DegenerateSpectrum("observable eigenvalues must differ")
    u = np.array([np.cos(phi / 2.0), np.sin(phi / 2.0)], dtype=complex)
    p0 = np.outer(u, u.conj())
    p1 = ID2 - p0
    return Observable(lam0=float(lam0), lam1=float(lam1),
                      p0=p0, p1=p1, mixing_angle=float(phi))


def build_unitary(cfg: ModelConfig) -> InteractionUnitary:
    """Per-interaction unitary with the scaling stated in the module docstring.

    The exponent is -i G with the Hermitian generator G = h free +
    i exchange/sqrt(n): free Hamiltonians enter at order h = 1/n, the
    exchange coupling at order 1/sqrt(n) in the anti-Hermitian combination
    exchange = c (x) raise - c+ (x) lower, whose phase makes the leading
    emission block +c/sqrt(n). With G = V diag(lam) V+ from ``eigh``,
    U = V diag(exp(-i lam)) V+.
    """
    h = 1.0 / cfg.n
    c = cfg.coupling()
    h_field = FIELD_HAMILTONIANS[cfg.field_hamiltonian]
    free = tensor(cfg.h0, ID2) + tensor(ID2, h_field)
    exchange = tensor(c, _FIELD_RAISE) - tensor(adjoint(c), _FIELD_LOWER)
    lam, v = np.linalg.eigh(h * free + 1j * exchange / np.sqrt(cfg.n))
    return InteractionUnitary.from_matrix((v * np.exp(-1j * lam)) @ adjoint(v))
