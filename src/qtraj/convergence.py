"""Statistical verification that the measurement chain converges to the
diffusive limit at desk scale.

Four diagnostics, each swept over a list of discretizations n:

* ensemble mean against the averaged (master) evolution, sup over the grid
  in max-entry norm;
* L2 deviation of the quadratic variation of the scaled record sum from its
  compensator, plus the largest jump size (both must shrink with n);
* two-sample Kolmogorov-Smirnov distance between scalar functionals of the
  chain at a fixed time and of an independently simulated diffusion ensemble;
* mean sup-norm of the per-step drift-diffusion remainder.

All statistics are deterministic functions of (spec, seeds): ensemble member
j of purpose P at discretization n draws from
derive_seed(derive_seed(derive_seed(base, P), n), j), and reductions run in
fixed index order, so re-running a report reproduces it bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .csvio import write_csv
from .discrete import drive_ensemble, ensemble_streams
from .linalg import apply_superop
from .model import SIGMA_X, SIGMA_Y, SIGMA_Z, DensityMatrix, ModelConfig
from .rng import derive_seed
from .sde import (
    master_on_grid,
    sde_coefficients,
    sde_ensemble_final,
    split_sde_products,
)

# purpose tags for seed derivation, one per diagnostic
_PURPOSE_MEAN = 1
_PURPOSE_QV = 2
_PURPOSE_KS_DISCRETE = 3
_PURPOSE_KS_SDE = 4
_PURPOSE_RESIDUAL = 5

DEFAULT_FUNCTIONALS = (("sigma_x", SIGMA_X), ("sigma_y", SIGMA_Y),
                       ("sigma_z", SIGMA_Z))


class DiagonalObservable(ValueError):
    """The diagnostic requires a nondiagonal observable."""


@dataclass(frozen=True)
class EnsembleSpec:
    """What to simulate: model, initial state, ensemble size, seed, sweep."""

    cfg: ModelConfig
    rho0: DensityMatrix
    num_trajectories: int
    base_seed: int
    n_values: tuple[int, ...]
    sde_step: float = 5e-4

    def __post_init__(self):
        object.__setattr__(self, "n_values", tuple(int(v) for v in self.n_values))
        if self.num_trajectories < 2:
            raise ValueError("need at least 2 trajectories")
        if len(self.n_values) == 0:
            raise ValueError("n_values must be nonempty")
        if any(b <= a for a, b in zip(self.n_values, self.n_values[1:])):
            raise ValueError("n_values must be strictly increasing")


@dataclass
class ConvergenceReport:
    """Collected statistics of one full diagnostic run."""

    n_values: tuple[int, ...]
    num_trajectories: int
    base_seed: int
    mean_errors: list[float] = field(default_factory=list)
    qv_deviations: list[float] = field(default_factory=list)
    qv_means: list[float] = field(default_factory=list)
    qv_max_jumps: list[float] = field(default_factory=list)
    ks_stats: dict[int, list[tuple[str, float, float]]] = field(default_factory=dict)
    residual_sups: list[float] = field(default_factory=list)

    def summary(self) -> str:
        lines = [f"ensemble: M={self.num_trajectories}, seed={self.base_seed}"]
        for i, n in enumerate(self.n_values):
            parts = [f"n={n}"]
            if self.mean_errors:
                parts.append(f"mean-vs-master sup error {self.mean_errors[i]:.3e}")
            if self.qv_deviations:
                parts.append(f"QV L2 deviation {self.qv_deviations[i]:.3e}")
            if self.qv_max_jumps:
                parts.append(f"max jump {self.qv_max_jumps[i]:.3e}")
            if self.residual_sups:
                parts.append(f"mean sup residual {self.residual_sups[i]:.3e}")
            lines.append("  " + ", ".join(parts))
            for name, stat, crit in self.ks_stats.get(n, []):
                verdict = "ok" if stat < crit else "REJECT"
                lines.append(f"    KS {name}: {stat:.4f} (critical {crit:.4f}) {verdict}")
        return "\n".join(lines)

    def to_csv(self, stream, timestamp: str | None = None) -> None:
        rows = []
        for i, n in enumerate(self.n_values):
            for name, values in (("mean_vs_master_sup_error", self.mean_errors),
                                 ("qv_l2_deviation", self.qv_deviations),
                                 ("qv_mean", self.qv_means),
                                 ("qv_max_jump", self.qv_max_jumps),
                                 ("residual_sup_mean", self.residual_sups)):
                if values:
                    rows.append((n, name, values[i]))
            for name, stat, crit in self.ks_stats.get(n, []):
                rows += [(n, f"ks_{name}", stat), (n, f"ks_{name}_critical", crit)]
        write_csv(stream, "n,statistic,value", rows, timestamp)


def ks_2samp(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    both = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, both, side="right") / len(a)
    cdf_b = np.searchsorted(b, both, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_critical_value(m: int, mp: int, alpha: float) -> float:
    """Asymptotic two-sided critical value c(alpha) sqrt((m+m')/(m m'))."""
    c = np.sqrt(-0.5 * np.log(alpha / 2.0))
    return float(c * np.sqrt((m + mp) / (m * mp)))


def _with_n(spec: EnsembleSpec, n: int) -> ModelConfig:
    return replace(spec.cfg, n=n)


def _streams(spec: EnsembleSpec, purpose: int, n: int, steps: int) -> np.ndarray:
    base = derive_seed(derive_seed(spec.base_seed, purpose), n)
    return ensemble_streams(base, spec.num_trajectories, steps)


def mean_vs_master(spec: EnsembleSpec) -> np.ndarray:
    """Per-n sup over the grid of |ensemble mean - averaged evolution| in
    max-entry norm."""
    errors = np.empty(len(spec.n_values))
    for i, n in enumerate(spec.n_values):
        cfg = _with_n(spec, n)
        steps = cfg.steps
        uniforms = _streams(spec, _PURPOSE_MEAN, n, steps)
        means = np.empty((steps + 1, 2, 2), dtype=complex)
        means[0] = spec.rho0.m
        for k, states, *_ in drive_ensemble(cfg, spec.rho0, uniforms):
            means[k + 1] = states.mean(axis=0)
        reference = master_on_grid(cfg, spec.rho0, n)
        errors[i] = np.max(np.abs(means - reference))
    return errors


def quadratic_variation_stats(spec: EnsembleSpec, t: float) -> dict[str, np.ndarray]:
    """Per-n sample E[([w,w]_t - floor(nt)/n)^2], the QV sample mean, and the
    largest normalized jump max |x| / sqrt(n)."""
    phi = spec.cfg.observable.mixing_angle
    if min(abs(phi), abs(phi - np.pi)) < 1e-12:
        raise DiagonalObservable("quadratic-variation diagnostic needs a "
                                 "nondiagonal observable (mixing angle in (0, pi))")
    if t > spec.cfg.t_horizon:
        raise ValueError("t exceeds the configured horizon")
    deviations = np.empty(len(spec.n_values))
    qv_means = np.empty(len(spec.n_values))
    max_jumps = np.empty(len(spec.n_values))
    for i, n in enumerate(spec.n_values):
        cfg = _with_n(spec, n)
        m = int(np.floor(n * t))
        uniforms = _streams(spec, _PURPOSE_QV, n, cfg.steps)
        qv = np.zeros(spec.num_trajectories)
        max_abs_x = 0.0
        for k, _, _, x, _, _ in drive_ensemble(cfg, spec.rho0, uniforms):
            if k < m:
                qv += x * x / n
                max_abs_x = max(max_abs_x, float(np.max(np.abs(x))))
        compensator = m / n
        deviations[i] = np.mean((qv - compensator) ** 2)
        qv_means[i] = np.mean(qv)
        max_jumps[i] = max_abs_x / np.sqrt(n)
    return {"l2_deviation": deviations, "qv_mean": qv_means,
            "max_jump": max_jumps}


def _discrete_finals(spec: EnsembleSpec, cfg: ModelConfig, t: float,
                     purpose: int) -> np.ndarray:
    m = int(np.floor(cfg.n * t))
    uniforms = _streams(spec, purpose, cfg.n, m)
    finals = None
    for k, states, *_ in drive_ensemble(cfg, spec.rho0, uniforms):
        if k == m - 1:
            finals = states.copy()
    if finals is None:  # t < 1/n: nothing happened yet
        finals = np.broadcast_to(spec.rho0.m, (spec.num_trajectories, 2, 2)).copy()
    return finals


def distributional_test(spec: EnsembleSpec, functionals=None, t: float = 1.0,
                        alpha: float = 0.01) -> dict[int, list[tuple[str, float, float]]]:
    """Per-n KS statistics between chain and diffusion ensembles at time t.

    Functionals are (name, hermitian matrix) pairs evaluated as
    Re Tr[rho F]; the diffusion ensemble is integrated independently at the
    spec's sde_step. Returns {n: [(name, statistic, critical value)]}.
    """
    if functionals is None:
        functionals = DEFAULT_FUNCTIONALS
    if t > spec.cfg.t_horizon:
        raise ValueError("t exceeds the configured horizon")
    sde_cfg = replace(spec.cfg, t_horizon=t)
    sde_seed = derive_seed(spec.base_seed, _PURPOSE_KS_SDE)
    sde_finals, _ = sde_ensemble_final(sde_cfg, spec.rho0, spec.sde_step,
                                       spec.num_trajectories, sde_seed)
    m = spec.num_trajectories
    critical = ks_critical_value(m, m, alpha)
    out: dict[int, list[tuple[str, float, float]]] = {}
    for n in spec.n_values:
        cfg = _with_n(spec, n)
        finals = _discrete_finals(spec, cfg, t, _PURPOSE_KS_DISCRETE)
        rows = []
        for name, op in functionals:
            fa = np.einsum("jab,ba->j", finals, op).real
            fb = np.einsum("jab,ba->j", sde_finals, op).real
            rows.append((name, ks_2samp(fa, fb), critical))
        out[n] = rows
    return out


def residual_decay(spec: EnsembleSpec) -> np.ndarray:
    """Per-n ensemble mean of sup_t |remainder| in max-entry norm.

    The remainder subtracts the Lindblad drift and the noise term
    -B(rho) x/sqrt(n) realized by this package's conventions from the raw
    state increments; it collects everything the diffusive limit discards.
    Both are read off one product of the (M, 4) states with [S_L | S_B | g].
    """
    coeffs = sde_coefficients(spec.cfg.h0, spec.cfg.coupling())
    rho0 = spec.rho0.m.reshape(4)
    num = spec.num_trajectories
    out = np.empty(len(spec.n_values))
    for i, n in enumerate(spec.n_values):
        cfg = _with_n(spec, n)
        uniforms = _streams(spec, _PURPOSE_RESIDUAL, n, cfg.steps)
        prev = np.broadcast_to(rho0, (num, 4)).copy()
        partial = np.zeros((num, 4), dtype=complex)
        sup = np.zeros(num)
        for k, states, _, x, _, _ in drive_ensemble(cfg, spec.rho0, uniforms):
            drift, back, _ = split_sde_products(prev, apply_superop(prev, coeffs))
            partial += drift / n - back * (x / np.sqrt(n))[:, None]
            v = states.reshape(num, 4)
            sup = np.maximum(sup, np.abs(v - rho0 - partial).max(axis=1))
            prev = v.copy()
        out[i] = float(np.mean(sup))
    return out


def run_full_report(spec: EnsembleSpec, t: float = 1.0,
                    functionals=None) -> ConvergenceReport:
    """All four diagnostics in one report (used by the CLI)."""
    report = ConvergenceReport(n_values=spec.n_values,
                               num_trajectories=spec.num_trajectories,
                               base_seed=spec.base_seed)
    report.mean_errors = list(mean_vs_master(spec))
    qv = quadratic_variation_stats(spec, t)
    report.qv_deviations = list(qv["l2_deviation"])
    report.qv_means = list(qv["qv_mean"])
    report.qv_max_jumps = list(qv["max_jump"])
    report.ks_stats = distributional_test(spec, functionals=functionals, t=t)
    report.residual_sups = list(residual_decay(spec))
    return report
