"""Statistical verification that the measurement chain converges to the
diffusive limit at desk scale. Four diagnostics, each swept over a list of
discretizations n: the ensemble mean against the averaged (master)
evolution, sup over the grid in max-entry norm; the L2 deviation of the
quadratic variation of the scaled record sum from its compensator, and the
largest jump (both must shrink with n); two-sample Kolmogorov-Smirnov
distances between functionals of the chain at time t and of an independent
diffusion ensemble; and the mean sup-norm of the chain's summed one-step
defect against ``sde``'s Euler step at h = 1/n, the drift-diffusion remainder.

Each is a reducer fed by ``_chain_pass``: one chain ensemble at one n, on
one step-major block of the stream of derive_seed(derive_seed(base, 1), n),
of which a pass that stops at t reads the first floor(n t) steps, so each
standalone diagnostic gives its report row bit for bit. A report's parts:
(a) the KS diffusion ensemble on derive_seed(base, 4), costing round(t/h)
Euler path-steps per member; (b) one pass per n feeding all four reducers,
costing CHAIN_STEP_COST floor(n T); (c) their assembly. ``run_full_report``
runs them in turn, the CLI in two lanes. t defaults to min(1, T), and h to
the spec's sde_step or, if None, the largest step not above
min(5e-4, 1/(10 max n)) that divides t. Reductions run in fixed index
order, so re-running a report reproduces it bitwise.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .csvio import write_csv
from .discrete import drive_ensemble, ensemble_streams
from .linalg import bloch_terms, bloch_to_density, density_to_bloch
from .model import SIGMA_X, SIGMA_Y, SIGMA_Z, DensityMatrix, ModelConfig
from .rng import derive_seed
from .sde import (_bloch_euler, _bloch_sde_matrix, _euler_steps, dividing_step,
                  master_on_grid, sde_ensemble_final)

# purpose tags for seed derivation (see the module docstring)
_PURPOSE_CHAIN = 1
_PURPOSE_KS_SDE = 4

DEFAULT_FUNCTIONALS = (("sigma_x", SIGMA_X), ("sigma_y", SIGMA_Y),
                       ("sigma_z", SIGMA_Z))

# per path-step at M = 2000 (2-vCPU Xeon VM, best of 15), a chain pass with
# its four reducers takes 0.11 us at n = 200 and 0.12 us at n = 50 (its fixed
# costs included), and the KS Euler ensemble at h = 1e-2 0.050 us; over both
# passes, the median ratio of 15 interleaved rounds is 2.2 (2.10-2.28 in ten
# processes; 1.97-2.34, median 2.0, with Python-float operands, which cost
# the Euler step more than the chain's)
CHAIN_STEP_COST = 2.2


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
    sde_step: float | None = None   # None: see the module docstring

    def __post_init__(self):
        try:    # integers, as the CLI's parsers require
            for name in ("num_trajectories", "base_seed"):
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            object.__setattr__(self, "n_values", tuple(map(operator.index, self.n_values)))
        except TypeError as exc:
            raise ValueError(f"spec counts and seed must be integers: {exc}") from None
        if not 0 <= self.base_seed < 2 ** 64:
            raise ValueError(f"base_seed must be in [0, 2**64), got {self.base_seed}")
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


def _chain_pass(spec: EnsembleSpec, reducers, n: int, t: float | None = None):
    """One chain pass at discretization n on the chain stream of n, floor(n t)
    steps long (t defaults to the horizon). ``reducers`` are factories cfg ->
    (update, result): update(k, r, x) sees every step's (M, 3) Bloch vectors
    and centered outcomes, result() gives the statistic for that n. Returns
    each factory's result."""
    t = spec.cfg.t_horizon if t is None else t
    cfg = replace(spec.cfg, n=n)
    active = [make(cfg) for make in reducers]
    base = derive_seed(derive_seed(spec.base_seed, _PURPOSE_CHAIN), n)
    uniforms = ensemble_streams(base, spec.num_trajectories, int(np.floor(n * t)))
    for k, r, _, x, _, _ in drive_ensemble(cfg, spec.rho0, uniforms):
        for update, _ in active:
            update(k, r, x)
    return [result() for _, result in active]


def _chain_sweep(spec: EnsembleSpec, reducer, t: float | None = None) -> list:
    """The per-n results of one reducer, from a ``_chain_pass`` per n."""
    return [_chain_pass(spec, [reducer], n, t)[0] for n in spec.n_values]


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


def _functional_values(states: np.ndarray) -> np.ndarray:
    """(3, M) Re Tr[rho F] of (M, 2, 2) states; Tr[rho sigma_z] is not bit-equal to r_z."""
    return np.array([np.einsum("jab,ba->j", states, op).real
                     for _, op in DEFAULT_FUNCTIONALS])


def _sde_step(spec: EnsembleSpec, t: float) -> float:
    """The KS diffusion ensemble's Euler step (see the module docstring)."""
    return spec.sde_step if spec.sde_step is not None else dividing_step(
        t, min(5e-4, 1.0 / (10.0 * spec.n_values[-1])))


def _diffusion_values(spec: EnsembleSpec, t: float) -> np.ndarray:
    """Part (a): the functional values of the KS diffusion ensemble at t."""
    return _functional_values(sde_ensemble_final(
        replace(spec.cfg, t_horizon=t), spec.rho0, _sde_step(spec, t), spec.num_trajectories,
        derive_seed(spec.base_seed, _PURPOSE_KS_SDE))[0])


def _ks_reducer(spec: EnsembleSpec, t: float, cfg: ModelConfig):
    """The chain's functional values after floor(nt) steps (of rho0 if 0)."""
    last = int(np.floor(cfg.n * t)) - 1
    finals = np.broadcast_to(spec.rho0.m, (spec.num_trajectories, 2, 2))

    def update(k, r, x):
        nonlocal finals
        if k == last:
            finals = bloch_to_density(r)
    return update, lambda: _functional_values(finals)


def _ks_rows(spec: EnsembleSpec, chain_values, sde_values, alpha: float) -> dict:
    """{n: [(name, KS statistic, critical value)]}, chain against diffusion."""
    critical = ks_critical_value(spec.num_trajectories, spec.num_trajectories, alpha)
    return {n: [(name, ks_2samp(a, b), critical)
                for (name, _), a, b in zip(DEFAULT_FUNCTIONALS, values, sde_values)]
            for n, values in zip(spec.n_values, chain_values)}


def _residual_reducer(spec: EnsembleSpec, cfg: ModelConfig):
    """Ensemble mean of the per-member sup of e_k, the chain's summed defect
    e_{k+1} = e_k + r_{k+1} - E(r_k) against ``sde``'s unprojected Euler
    step E at h = 1/n driven by dW = -x/sqrt(n) (``discrete``'s sign). It
    telescopes to the remainder (r_k - r_0) - sum_j (L/n - B x/sqrt(n))(r_j).
    e.sigma/2 is Hermitian and traceless, so its max-entry norm is
    max(|e_z|, hypot(e_x, e_y)) / 2."""
    h, num = 1.0 / cfg.n, spec.num_trajectories
    terms = bloch_terms(_bloch_sde_matrix(cfg, h))
    # 0-d operands and reused buffers (see linalg.bloch_terms); dW = x / -sqrt(n)
    h, neg_root_n = np.array(h), np.array(-np.sqrt(cfg.n))
    prev = np.repeat(density_to_bloch(spec.rho0.m)[:, None], num, axis=1)
    w, e, dw = np.empty((7, num)), np.zeros((3, num)), np.empty(num)
    # the sup of max(|e_z|, hypot(e_x, e_y)), halved once in result():
    # x -> fl(0.5 x) is monotone, so max_k fl(0.5 m_k) = fl(0.5 max_k m_k),
    # and np.maximum propagates a NaN in either form
    sup = np.zeros(num)

    def update(k, r, x):
        nonlocal prev       # r.T: the chain's new (3, M) rows, written by no one
        step, _ = _bloch_euler(terms, prev, np.divide(x, neg_root_n, dw), h, False, w)
        prev = r.T
        np.add(e, np.subtract(prev, step, step), e)
        m = np.abs(e[2], w[0])
        np.maximum(m, np.hypot(e[0], e[1], w[1]), out=m)
        np.maximum(sup, m, out=sup)
    return update, lambda: np.mean(0.5 * sup)


def _check_nondiagonal(spec: EnsembleSpec) -> None:
    phi = spec.cfg.observable.mixing_angle
    if min(abs(phi), abs(phi - np.pi)) < 1e-12:
        raise DiagonalObservable("quadratic-variation diagnostic needs a "
                                 "nondiagonal observable (mixing angle in (0, pi))")


def _report_time(spec: EnsembleSpec, t: float | None) -> float:
    """t, by default min(1, horizon), after checking that it is in (0, horizon]."""
    t = min(1.0, spec.cfg.t_horizon) if t is None else t
    if not 0 < t <= spec.cfg.t_horizon:
        raise ValueError(f"t must be in (0, horizon {spec.cfg.t_horizon:g}], got {t}")
    return t


def mean_vs_master(spec: EnsembleSpec) -> np.ndarray:
    """Per-n sup over the grid of |ensemble mean - averaged evolution| in
    max-entry norm."""
    return np.array(_chain_sweep(spec, partial(_mean_reducer, spec)))


def quadratic_variation_stats(spec: EnsembleSpec, t: float | None = None,
                              ) -> dict[str, np.ndarray]:
    """Per-n sample E[([w,w]_t - floor(nt)/n)^2], the QV sample mean, and the
    largest normalized jump max |x| / sqrt(n); t defaults to min(1, horizon)."""
    _check_nondiagonal(spec)
    t = _report_time(spec, t)
    rows = _chain_sweep(spec, partial(_qv_reducer, spec, t), t)
    return dict(zip(("l2_deviation", "qv_mean", "max_jump"), map(np.array, zip(*rows))))


def distributional_test(spec: EnsembleSpec, t: float | None = None,
                        alpha: float = 0.01) -> dict[int, list[tuple[str, float, float]]]:
    """Per-n KS statistics between chain and diffusion ensembles at time t
    (by default min(1, horizon)), {n: [(name, statistic, critical value)]}.
    The DEFAULT_FUNCTIONALS are (name, hermitian matrix) pairs evaluated as
    Re Tr[rho F]; the diffusion ensemble's step is the module docstring's.
    """
    t = _report_time(spec, t)
    sde_values = _diffusion_values(spec, t)
    chain_values = _chain_sweep(spec, partial(_ks_reducer, spec, t), t)
    return _ks_rows(spec, chain_values, sde_values, alpha)


def residual_decay(spec: EnsembleSpec) -> np.ndarray:
    """Per-n ensemble mean of sup_t |remainder| in max-entry norm: the
    chain's one-step defects against ``sde``'s Euler step driven by the
    record, summed (``_residual_reducer``), which the diffusive limit discards."""
    return np.array(_chain_sweep(spec, partial(_residual_reducer, spec)))


def report_parts(spec: EnsembleSpec, t: float | None = None) -> list[tuple[float, partial]]:
    """Check a report's inputs, the diffusion ensemble's step included, and
    return (a), (b) as (cost, call); t defaults to min(1, horizon)."""
    _check_nondiagonal(spec)
    t = _report_time(spec, t)
    euler_steps = _euler_steps(replace(spec.cfg, t_horizon=t), _sde_step(spec, t))
    reducers = [partial(_mean_reducer, spec), partial(_qv_reducer, spec, t),
                partial(_ks_reducer, spec, t), partial(_residual_reducer, spec)]
    return [(euler_steps, partial(_diffusion_values, spec, t))] + [
        (CHAIN_STEP_COST * np.floor(n * spec.cfg.t_horizon),
         partial(_chain_pass, spec, reducers, n)) for n in spec.n_values]


def assemble_report(spec: EnsembleSpec, results: list) -> ConvergenceReport:
    """Part (c): the report from the results of report_parts' calls."""
    sde_values, *passes = results
    mean, qv, chain_values, residual = map(list, zip(*passes))
    deviations, qv_means, max_jumps = map(list, zip(*qv))
    return ConvergenceReport(
        n_values=spec.n_values, num_trajectories=spec.num_trajectories,
        base_seed=spec.base_seed, mean_errors=mean, qv_deviations=deviations,
        qv_means=qv_means, qv_max_jumps=max_jumps,
        ks_stats=_ks_rows(spec, chain_values, sde_values, 0.01), residual_sups=residual)


def run_full_report(spec: EnsembleSpec, t: float | None = None) -> ConvergenceReport:
    """All four diagnostics in one report, all parts run in this process;
    with the library defaults (t = min(1, horizon), sde_step None) it is the
    report of ``qtraj converge`` on the same config, seed and flags."""
    return assemble_report(spec, [call() for _, call in report_parts(spec, t)])
