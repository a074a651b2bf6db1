"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and runtimes. Statistical criteria use fixed seeds and batch voting so
reruns are reproducible.
"""

import time

import numpy as np

from qtraj import (
    ModelConfig,
    WaveFunction,
    build_unitary,
    make_observable,
    master_evolve,
    run_trajectory,
    simulate_belavkin,
    simulate_physical,
)
from qtraj.convergence import (
    EnsembleSpec,
    distributional_test,
    ks_critical_value,
    mean_vs_master,
    quadratic_variation_stats,
)
from qtraj.discrete import drive_ensemble, ensemble_streams
from qtraj.linalg import adjoint, bloch_to_density, max_abs
from qtraj.model import ID2, SIGMA_Z
from qtraj.rng import derive_seed, generator_for
from qtraj.sde import sde_ensemble_final, wave_ensemble_final

from helpers import (
    EXCITED,
    PLUS,
    PLUS_VEC,
    assert_valid_states,
    damping_cfg,
    rand_config,
    rand_density,
)
from oracles import field_ground_energy, increment_update, measurement_step


def _report(num, text, t0):
    print(f"ACCEPTANCE {num}: PASS - {text} [{time.perf_counter() - t0:.1f}s]")


def test_criterion_01_branch_and_increment_forms_agree():
    # normalized-branch update == increment-form update, 1e4 random triples
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(10_000):
        cfg = rand_config(rng)
        u = build_unitary(cfg)
        rho = rand_density(rng)
        step = measurement_step(rho, u, cfg.observable, rng.random())
        rhs = increment_update(rho, u, cfg.observable, step.outcome)
        worst = max(worst, max_abs(rhs - step.next_state.m))
    assert worst <= 1e-12
    _report(1, f"max discrepancy {worst:.2e} <= 1e-12 over 10^4 triples", t0)


def test_criterion_02_probability_normalization():
    # p + q = 1 to 1e-12 at every step of 100 trajectories of 1000 steps
    t0 = time.perf_counter()
    cfg = damping_cfg(n=1000, h0_scale=0.5)
    uniforms = ensemble_streams(202, 100, cfg.steps)
    worst = 0.0
    for _, _, _, _, p, q in drive_ensemble(cfg, EXCITED, uniforms):
        worst = max(worst, float(np.max(np.abs(p + q - 1.0))))
    assert worst <= 1e-12
    _report(2, f"max |p+q-1| = {worst:.2e} over 100 x 1000 steps", t0)


def test_criterion_03_unitary_block_asymptotics():
    # emission block sqrt(n) L10 -> c with n-stable scaled error; survival
    # block matches I + (-i h0 - c+c/2)/n modulo the field phase at slope ~2
    t0 = time.perf_counter()
    base = damping_cfg(h0_scale=0.5)
    ns = (100, 1000, 10_000)
    scaled = []
    residuals = []
    for n in ns:
        cfg = ModelConfig(h0=base.h0, c=base.c, observable=base.observable,
                          n=n, t_horizon=1.0)
        u = build_unitary(cfg)
        h = 1.0 / n
        err10 = max_abs(np.sqrt(n) * u.l10 - cfg.c)
        assert err10 <= 2.0 / np.sqrt(n)
        scaled.append(n * err10)
        phase = np.exp(1j * h * field_ground_energy(cfg))
        ref = ID2 + h * (-1j * cfg.h0 - 0.5 * adjoint(cfg.c) @ cfg.c)
        residuals.append(max_abs(phase * u.l00 - ref))
    assert max(scaled) / min(scaled) < 1.5  # fitted constant stable across n
    slope = -np.polyfit(np.log(ns), np.log(residuals), 1)[0]
    assert 1.7 <= slope <= 2.3
    _report(3, f"scaled emission errors {[f'{s:.3f}' for s in scaled]} stable; "
               f"survival-block slope {slope:.2f} in [1.7, 2.3]", t0)


def test_criterion_04_master_equation_decay_oracle():
    # amplitude damping: excited population at t=1 equals exp(-1) to 1e-6
    t0 = time.perf_counter()
    path = master_evolve(damping_cfg(), EXCITED, 1e-3)
    err = abs(path.states[-1][1, 1].real - np.exp(-1.0))
    assert err < 1e-6
    _report(4, f"excited population off exp(-1) by {err:.2e} < 1e-6", t0)


def test_criterion_05_ensemble_mean_tracks_master():
    # M = 5000, T = 1: sup-grid error strictly smaller at n=80 than n=20 and
    # below 0.05 at n=80 (damping rate 9 so the n=20 discretization bias,
    # about 0.03, clears the Monte Carlo sup-noise floor of roughly 0.01)
    t0 = time.perf_counter()
    cfg = damping_cfg(c_scale=3.0)
    spec = EnsembleSpec(cfg=cfg, rho0=EXCITED, num_trajectories=5000,
                        base_seed=505, n_values=(20, 80))
    errs = mean_vs_master(spec)
    assert errs[1] < errs[0]
    assert errs[1] < 0.05
    _report(5, f"sup errors: n=20 -> {errs[0]:.4f}, n=80 -> {errs[1]:.4f}", t0)


def test_criterion_06_quadratic_variation_rate():
    # E[([w,w]_1 - floor(n)/n)^2] ratio between n=50 and n=200 near the
    # theoretical 4 (observable mixing angle pi/3 keeps the per-step
    # fourth-moment bounded away from zero)
    t0 = time.perf_counter()
    cfg = damping_cfg(phi=np.pi / 3)
    spec = EnsembleSpec(cfg=cfg, rho0=EXCITED, num_trajectories=5000,
                        base_seed=606, n_values=(50, 200))
    stats = quadratic_variation_stats(spec, 1.0)
    dev = stats["l2_deviation"]
    ratio = dev[0] / dev[1]
    assert 2.5 <= ratio <= 6.0
    _report(6, f"QV deviation ratio 50/200 = {ratio:.2f} in [2.5, 6]", t0)


def test_criterion_07_distributional_convergence():
    # two-sample KS on the three Pauli expectations at t=1, chain n=200 vs
    # Euler h=5e-4, M=2000 each: below the 1% critical value for all three
    # functionals in >= 8 of 10 fixed seed batches
    t0 = time.perf_counter()
    cfg = damping_cfg(n=200, h0_scale=0.5)
    crit = ks_critical_value(2000, 2000, 0.01)
    passes = 0
    worst = 0.0
    for batch in range(10):
        spec = EnsembleSpec(cfg=cfg, rho0=EXCITED, num_trajectories=2000,
                            base_seed=7000 + batch, n_values=(200,),
                            sde_step=5e-4)
        rows = distributional_test(spec, t=1.0, alpha=0.01)[200]
        stats = [s for _, s, _ in rows]
        worst = max(worst, max(stats))
        passes += all(s < crit for s in stats)
    assert passes >= 8
    _report(7, f"{passes}/10 batches below critical {crit:.4f} "
               f"(worst statistic {worst:.4f})", t0)


def test_criterion_08_measure_change_consistency():
    # E[Z_1] = 1 within 3 SE over 5000 paths, and the reweighted mean of
    # Tr[rho sigma_z] matches the innovation-form mean within 3 combined SE
    t0 = time.perf_counter()
    cfg = damping_cfg(h0_scale=0.5)
    m = 5000
    finals, weights = sde_ensemble_final(cfg, EXCITED, 1e-3, m,
                                         derive_seed(808, 1), with_weights=True)
    phys, _ = sde_ensemble_final(cfg, EXCITED, 1e-3, m,
                                 derive_seed(808, 2), physical=True)
    se_z = weights.std(ddof=1) / np.sqrt(m)
    assert abs(weights.mean() - 1.0) <= 3.0 * se_z
    f_ref = np.einsum("jab,ba->j", finals, SIGMA_Z).real
    f_phys = np.einsum("jab,ba->j", phys, SIGMA_Z).real
    reweighted = weights * f_ref
    gap = abs(reweighted.mean() - f_phys.mean())
    combined = np.hypot(reweighted.std(ddof=1), f_phys.std(ddof=1)) / np.sqrt(m)
    assert gap <= 3.0 * combined
    _report(8, f"E[Z] = {weights.mean():.4f} +- {se_z:.4f}; "
               f"reweighted-vs-physical gap {gap:.4f} <= {3 * combined:.4f}", t0)


def test_criterion_09_pure_state_embedding():
    # density and wave integrations share one Brownian path; their gap at
    # T=1 shrinks as h halves (2e-3 -> 1e-3 -> 5e-4, 100 paths) and the
    # density path stays nearly pure at h=1e-3
    t0 = time.perf_counter()
    cfg = damping_cfg(h0_scale=0.5)
    num, fine_steps = 100, 2000
    fine = np.empty((num, fine_steps))
    for j in range(num):
        fine[j] = generator_for(derive_seed(909, j)).standard_normal(fine_steps)
    fine *= np.sqrt(5e-4)
    gaps = {}
    impurity = {}
    for h, fold in ((2e-3, 4), (1e-3, 2), (5e-4, 1)):
        noise = fine.reshape(num, -1, fold).sum(axis=2)
        rho_f, _ = sde_ensemble_final(cfg, PLUS, h, num, noise=noise)
        psi_f = wave_ensemble_final(cfg, WaveFunction(PLUS_VEC), h, num,
                                    noise=noise)
        proj = np.einsum("ja,jb->jab", psi_f, psi_f.conj())
        gaps[h] = float(np.abs(rho_f - proj).max(axis=(1, 2)).mean())
        impurity[h] = float(np.mean(1.0 - np.einsum("jab,jba->j", rho_f, rho_f).real))
    assert gaps[2e-3] > gaps[1e-3] > gaps[5e-4]
    assert impurity[1e-3] < 5e-2
    _report(9, f"coupling gaps {gaps[2e-3]:.4f} > {gaps[1e-3]:.4f} > "
               f"{gaps[5e-4]:.4f}; 1 - purity = {impurity[1e-3]:.4f} < 0.05", t0)


def test_criterion_10_structural_invariants():
    # every emitted state: Hermitian to 1e-10, unit trace to 1e-10,
    # eigenvalues >= -1e-10
    t0 = time.perf_counter()
    checked = 0

    cfg = damping_cfg(n=500, h0_scale=0.5)
    record = run_trajectory(cfg, EXCITED, seed=1001)
    assert_valid_states(record.states)
    checked += len(record.states)

    uniforms = ensemble_streams(1002, 200, cfg.steps)
    for k, states, *_ in drive_ensemble(cfg, EXCITED, uniforms):
        if k % 50 == 0 or k == cfg.steps - 1:
            assert_valid_states(bloch_to_density(states))
            checked += len(states)

    bel = simulate_belavkin(cfg, EXCITED, 1e-3, seed=1003)
    phys = simulate_physical(cfg, EXCITED, 1e-3, seed=1004)
    mast = master_evolve(cfg, EXCITED, 1e-3)
    for states in (bel.states, phys.states, mast.states):
        assert_valid_states(states)
        checked += len(states)

    finals, _ = sde_ensemble_final(cfg, PLUS, 1e-3, 500, base_seed=1005)
    assert_valid_states(finals)
    checked += len(finals)

    rng = np.random.default_rng(1006)
    for _ in range(200):
        rho = rand_density(rng)
        out = measurement_step(rho, build_unitary(rand_config(rng)),
                               make_observable(rng.uniform(0.3, 2.8), 1.0, -1.0),
                               rng.random())
        assert_valid_states(out.next_state.m)
        checked += 1

    _report(10, f"{checked} states satisfy hermiticity/trace/positivity "
                f"at 1e-10", t0)
