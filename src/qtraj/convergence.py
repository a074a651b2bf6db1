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

Each diagnostic is a reducer fed by ``_chain_sweep``, which drives one chain
ensemble per n. ``run_full_report`` feeds all four reducers from one pass on
the purpose-1 streams; the standalone functions run their own pass on
purposes 1 (mean), 2 (QV), 3 (KS) and 5 (residual), and the QV and KS passes
stop at the statistic's time t. Purpose 4 is the KS diffusion ensemble.
Member j of purpose P at discretization n draws from
derive_seed(derive_seed(derive_seed(base, P), n), j), and reductions run in
fixed index order, so every statistic is a deterministic function of
(spec, seeds) and re-running a report reproduces it bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .csvio import write_csv
from .discrete import drive_ensemble, ensemble_streams
from .linalg import bloch_apply, bloch_to_density, density_to_bloch
from .model import SIGMA_X, SIGMA_Y, SIGMA_Z, DensityMatrix, ModelConfig
from .rng import derive_seed
from .sde import (bloch_coefficients, master_on_grid, sde_coefficients,
                  sde_ensemble_final)

# purpose tags for seed derivation (see the module docstring)
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
        if self.n_values[0] < 1:
            raise ValueError("n_values must be positive")
        if any(b <= a for a, b in zip(self.n_values, self.n_values[1:])):
            raise ValueError("n_values must be strictly increasing")


@dataclass
class ConvergenceReport:
    """Collected statistics of one full diagnostic run."""

    n_values: tuple[int, ...]
    num_trajectories: int
    base_seed: int
    mean_errors: list[float]
    qv_deviations: list[float]
    qv_means: list[float]
    qv_max_jumps: list[float]
    ks_stats: dict[int, list[tuple[str, float, float]]]
    residual_sups: list[float]

    def summary(self) -> str:
        lines = [f"ensemble: M={self.num_trajectories}, seed={self.base_seed}"]
        for i, n in enumerate(self.n_values):
            lines.append(f"  n={n}, mean-vs-master sup error {self.mean_errors[i]:.3e}, "
                         f"QV L2 deviation {self.qv_deviations[i]:.3e}, "
                         f"max jump {self.qv_max_jumps[i]:.3e}, "
                         f"mean sup residual {self.residual_sups[i]:.3e}")
            for name, stat, crit in self.ks_stats[n]:
                verdict = "ok" if stat < crit else "REJECT"
                lines.append(f"    KS {name}: {stat:.4f} (critical {crit:.4f}) {verdict}")
        return "\n".join(lines)

    def to_csv(self, stream, timestamp: str | None = None) -> None:
        ns, names, values = [], [], []
        for i, n in enumerate(self.n_values):
            cells = {"mean_vs_master_sup_error": self.mean_errors[i],
                     "qv_l2_deviation": self.qv_deviations[i],
                     "qv_mean": self.qv_means[i],
                     "qv_max_jump": self.qv_max_jumps[i],
                     "residual_sup_mean": self.residual_sups[i]}
            for name, stat, crit in self.ks_stats[n]:
                cells.update({f"ks_{name}": stat, f"ks_{name}_critical": crit})
            ns += [n] * len(cells)
            names += cells
            values += cells.values()
        write_csv(stream, "n,statistic,value", [ns, names, values], timestamp)


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


def _chain_sweep(spec: EnsembleSpec, purpose: int, reducers,
                 t: float | None = None) -> list[list]:
    """One chain pass per n, floor(n t) steps long (t defaults to the
    horizon), on the ``purpose`` streams.

    ``reducers`` are factories cfg -> (update, result): update(k, r, x) sees
    every step's (M, 3) Bloch vectors and centered outcomes, result() gives
    the statistic for that n. Returns one list of per-n results per factory.
    """
    t = spec.cfg.t_horizon if t is None else t
    results = [[] for _ in reducers]
    for n in spec.n_values:
        cfg = replace(spec.cfg, n=n)
        active = [make(cfg) for make in reducers]
        base = derive_seed(derive_seed(spec.base_seed, purpose), n)
        uniforms = ensemble_streams(base, spec.num_trajectories, int(np.floor(n * t)))
        for k, r, _, x, _, _ in drive_ensemble(cfg, spec.rho0, uniforms):
            for update, _ in active:
                update(k, r, x)
        for out, (_, result) in zip(results, active):
            out.append(result())
    return results


def _mean_reducer(spec: EnsembleSpec, cfg: ModelConfig):
    """Sup over the grid of |ensemble mean - averaged evolution|; the mean
    is taken of the Bloch vectors and converted once."""
    means = np.empty((cfg.steps + 1, 3))
    means[0] = density_to_bloch(spec.rho0.m)

    def update(k, r, x):
        means[k + 1] = r.mean(axis=0)
    return update, lambda: np.max(np.abs(bloch_to_density(means)
                                         - master_on_grid(cfg, spec.rho0, cfg.n)))


def _qv_reducer(spec: EnsembleSpec, t: float, cfg: ModelConfig):
    """QV deviation from floor(nt)/n, QV mean and largest jump at time t."""
    n, m = cfg.n, int(np.floor(cfg.n * t))
    qv = np.zeros(spec.num_trajectories)
    max_abs_x = 0.0

    def update(k, r, x):
        nonlocal qv, max_abs_x
        if k < m:
            qv += x * x / n
            max_abs_x = max(max_abs_x, float(np.max(np.abs(x))))
    return update, lambda: (np.mean((qv - m / n) ** 2), np.mean(qv),
                            max_abs_x / np.sqrt(n))


def _ks_reducer(spec: EnsembleSpec, t: float, alpha: float):
    """Factory of the KS reducer, which keeps the chain states after floor(nt)
    steps (the initial state if that is 0) and compares the
    DEFAULT_FUNCTIONALS; integrates the diffusion ensemble once, on its own
    purpose."""
    sde_finals, _ = sde_ensemble_final(replace(spec.cfg, t_horizon=t), spec.rho0,
                                       spec.sde_step, spec.num_trajectories,
                                       derive_seed(spec.base_seed, _PURPOSE_KS_SDE))
    sde_values = [np.einsum("jab,ba->j", sde_finals, op).real
                  for _, op in DEFAULT_FUNCTIONALS]
    m = spec.num_trajectories
    critical = ks_critical_value(m, m, alpha)

    def make(cfg):
        last = int(np.floor(cfg.n * t)) - 1
        finals = np.broadcast_to(spec.rho0.m, (m, 2, 2))

        def update(k, r, x):
            nonlocal finals
            if k == last:
                finals = bloch_to_density(r)
        return update, lambda: [
            (name, ks_2samp(np.einsum("jab,ba->j", finals, op).real, fb), critical)
            for (name, op), fb in zip(DEFAULT_FUNCTIONALS, sde_values)]
    return make


def _residual_reducer(spec: EnsembleSpec, cfg: ModelConfig):
    """Ensemble mean of the per-member sup of the drift-diffusion remainder;
    drift and backaction come from one product with the real Bloch form of
    [S_L | S_B | g]. The remainder e.sigma/2 is Hermitian and traceless, so
    its max-entry norm is max(|e_z|, hypot(e_x, e_y)) / 2."""
    coeffs = sde_coefficients(cfg.h0, cfg.coupling())
    a = bloch_coefficients(coeffs[:, :4], coeffs)
    num, r0 = spec.num_trajectories, density_to_bloch(spec.rho0.m)[:, None]
    prev = np.broadcast_to(r0.T, (num, 3))
    partial_sum = np.zeros((3, num))
    sup = np.zeros(num)

    def update(k, r, x):
        nonlocal prev, partial_sum, sup
        w = bloch_apply(prev, a)
        partial_sum += w[:3] / cfg.n - (w[3:6] - w[6] * prev.T) * (x / np.sqrt(cfg.n))
        e = r.T - r0 - partial_sum
        sup = np.maximum(sup, 0.5 * np.maximum(np.abs(e[2]), np.hypot(e[0], e[1])))
        prev = r.copy()
    return update, lambda: np.mean(sup)


def _check_nondiagonal(spec: EnsembleSpec) -> None:
    phi = spec.cfg.observable.mixing_angle
    if min(abs(phi), abs(phi - np.pi)) < 1e-12:
        raise DiagonalObservable("quadratic-variation diagnostic needs a "
                                 "nondiagonal observable (mixing angle in (0, pi))")


def _check_horizon(spec: EnsembleSpec, t: float) -> None:
    if not 0 < t <= spec.cfg.t_horizon:
        raise ValueError(f"t must be in (0, horizon {spec.cfg.t_horizon:g}], got {t}")


def mean_vs_master(spec: EnsembleSpec) -> np.ndarray:
    """Per-n sup over the grid of |ensemble mean - averaged evolution| in
    max-entry norm."""
    (errors,) = _chain_sweep(spec, _PURPOSE_MEAN, [partial(_mean_reducer, spec)])
    return np.array(errors)


def quadratic_variation_stats(spec: EnsembleSpec, t: float) -> dict[str, np.ndarray]:
    """Per-n sample E[([w,w]_t - floor(nt)/n)^2], the QV sample mean, and the
    largest normalized jump max |x| / sqrt(n)."""
    _check_nondiagonal(spec)
    _check_horizon(spec, t)
    (rows,) = _chain_sweep(spec, _PURPOSE_QV, [partial(_qv_reducer, spec, t)], t)
    return dict(zip(("l2_deviation", "qv_mean", "max_jump"), map(np.array, zip(*rows))))


def distributional_test(spec: EnsembleSpec, t: float = 1.0,
                        alpha: float = 0.01) -> dict[int, list[tuple[str, float, float]]]:
    """Per-n KS statistics between chain and diffusion ensembles at time t.

    The DEFAULT_FUNCTIONALS are (name, hermitian matrix) pairs evaluated as
    Re Tr[rho F]; the diffusion ensemble is integrated independently at the
    spec's sde_step. Returns {n: [(name, statistic, critical value)]}.
    """
    _check_horizon(spec, t)
    ks = _ks_reducer(spec, t, alpha)
    (rows,) = _chain_sweep(spec, _PURPOSE_KS_DISCRETE, [ks], t)
    return dict(zip(spec.n_values, rows))


def residual_decay(spec: EnsembleSpec) -> np.ndarray:
    """Per-n ensemble mean of sup_t |remainder| in max-entry norm.

    The remainder subtracts the Lindblad drift and the noise term
    -B(rho) x/sqrt(n) realized by this package's conventions from the raw
    state increments; it collects everything the diffusive limit discards.
    """
    (sups,) = _chain_sweep(spec, _PURPOSE_RESIDUAL, [partial(_residual_reducer, spec)])
    return np.array(sups)


def run_full_report(spec: EnsembleSpec, t: float = 1.0) -> ConvergenceReport:
    """All four diagnostics in one report (used by the CLI): input checks,
    then the KS diffusion ensemble, then one chain pass per n on the
    purpose-1 streams that feeds all four reducers."""
    _check_nondiagonal(spec)
    _check_horizon(spec, t)
    reducers = [partial(_mean_reducer, spec), partial(_qv_reducer, spec, t),
                _ks_reducer(spec, t, 0.01),
                partial(_residual_reducer, spec)]
    mean, qv, ks, residual = _chain_sweep(spec, _PURPOSE_MEAN, reducers)
    deviations, qv_means, max_jumps = map(list, zip(*qv))
    return ConvergenceReport(
        n_values=spec.n_values, num_trajectories=spec.num_trajectories,
        base_seed=spec.base_seed, mean_errors=mean, qv_deviations=deviations,
        qv_means=qv_means, qv_max_jumps=max_jumps,
        ks_stats=dict(zip(spec.n_values, ks)), residual_sups=residual)
