import os
from functools import partial

import numpy as np
import pytest
import scipy.stats

from qtraj import (
    DiagonalObservable,
    EnsembleSpec,
    distributional_test,
    ks_2samp,
    ks_critical_value,
    mean_vs_master,
    quadratic_variation_stats,
    residual_decay,
    run_full_report,
)
from qtraj import convergence
from qtraj.discrete import drive_ensemble, ensemble_streams
from qtraj.linalg import bloch_to_density
from qtraj.rng import derive_seed

from helpers import EXCITED, damping_cfg, trivial_cfg


def spec_for(cfg, n_values, m=200, seed=5, sde_step=1e-3):
    return EnsembleSpec(cfg=cfg, rho0=EXCITED, num_trajectories=m,
                        base_seed=seed, n_values=n_values, sde_step=sde_step)


class TestSpecValidation:
    def test_requires_increasing_n(self):
        with pytest.raises(ValueError):
            spec_for(damping_cfg(), (80, 20))
        with pytest.raises(ValueError):
            spec_for(damping_cfg(), ())
        with pytest.raises(ValueError):
            spec_for(damping_cfg(), (20,), m=1)


class TestKs2Samp:
    def test_matches_scipy(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.normal(size=rng.integers(50, 400))
            b = rng.normal(loc=rng.uniform(-1, 1), size=rng.integers(50, 400))
            ours = ks_2samp(a, b)
            ref = scipy.stats.ks_2samp(a, b, method="asymp").statistic
            assert ours == pytest.approx(ref, abs=1e-12)

    def test_identical_samples_give_zero(self):
        a = np.arange(10.0)
        assert ks_2samp(a, a) == 0.0

    def test_critical_value_formula(self):
        # c(0.05) = sqrt(-ln(0.025)/2) = 1.35810...
        got = ks_critical_value(100, 100, 0.05)
        assert got == pytest.approx(1.3581015157406195 * np.sqrt(2.0 / 100.0),
                                    rel=1e-12)

    def test_self_test_rejection_rate(self):
        # same distribution, disjoint seeds: stay below the 5% critical value
        # in at least 90% of repetitions
        cfg = damping_cfg(n=50, h0_scale=0.5)
        crit = ks_critical_value(300, 300, 0.05)
        below = 0
        reps = 20
        for r in range(reps):
            fa = _final_sz(cfg, base_seed=1000 + 2 * r, m=300)
            fb = _final_sz(cfg, base_seed=1000 + 2 * r + 1, m=300)
            below += ks_2samp(fa, fb) < crit
        assert below >= 18


def _final_sz(cfg, base_seed, m):
    uniforms = ensemble_streams(base_seed, m, cfg.steps)
    finals = None
    for k, states, *_ in drive_ensemble(cfg, EXCITED, uniforms):
        if k == cfg.steps - 1:
            finals = bloch_to_density(states)
    return (finals[:, 0, 0] - finals[:, 1, 1]).real


class TestMeanVsMaster:
    def test_trivial_model_exact(self):
        spec = spec_for(trivial_cfg(), (10, 40), m=50)
        errs = mean_vs_master(spec)
        assert np.all(errs < 1e-12)

    def test_monte_carlo_floor_shrinks_with_m(self):
        # at large n the error is sampling noise ~ M^(-1/2)
        cfg = damping_cfg()
        err_small = mean_vs_master(spec_for(cfg, (80,), m=400, seed=3))[0]
        err_large = mean_vs_master(spec_for(cfg, (80,), m=6400, seed=3))[0]
        assert err_large < err_small


class TestQuadraticVariation:
    def test_diagonal_observable_rejected(self):
        spec = spec_for(damping_cfg(phi=0.0), (20,))
        with pytest.raises(DiagonalObservable):
            quadratic_variation_stats(spec, 1.0)

    def test_time_beyond_horizon_rejected(self):
        spec = spec_for(damping_cfg(), (20,))
        with pytest.raises(ValueError):
            quadratic_variation_stats(spec, 2.0)

    def test_qv_mean_near_compensator(self):
        spec = spec_for(damping_cfg(phi=np.pi / 3), (50,), m=2000, seed=8)
        stats = quadratic_variation_stats(spec, 1.0)
        # E[x^2] = 1 per step: sample mean of [w,w]_1 is 1 within 3 SE
        dev = abs(stats["qv_mean"][0] - 1.0)
        se = np.sqrt(stats["l2_deviation"][0] / spec.num_trajectories)
        assert dev <= 3.0 * se + 1e-3

    def test_jump_size_shrinks(self):
        spec = spec_for(damping_cfg(phi=np.pi / 3), (50, 800), m=200, seed=9)
        stats = quadratic_variation_stats(spec, 1.0)
        assert stats["max_jump"][1] < stats["max_jump"][0]

    def test_qv_mean_matches_record_sums(self):
        # the reducer against sum(x[:floor(n t)]**2)/n per member, on the
        # same streams, at a time below the horizon
        t, m, seed = 0.7, 30, 17
        spec = spec_for(damping_cfg(phi=np.pi / 3, h0_scale=0.5), (20, 50), m=m, seed=seed)
        qv_means = quadratic_variation_stats(spec, t)["qv_mean"]
        for i, n in enumerate(spec.n_values):
            cfg = damping_cfg(n=n, phi=np.pi / 3, h0_scale=0.5)
            base = derive_seed(derive_seed(seed, convergence._PURPOSE_QV), n)
            x = np.array([xs.copy() for _, _, _, xs, _, _ in drive_ensemble(
                cfg, EXCITED, ensemble_streams(base, m, cfg.steps))])
            expected = np.mean(np.sum(x[:int(np.floor(n * t))] ** 2, axis=0) / n)
            assert qv_means[i] == pytest.approx(expected, rel=1e-12)


class TestDistributional:
    def test_identical_point_masses(self):
        # no dynamics: both ensembles sit at the initial state, statistic 0
        spec = spec_for(trivial_cfg(), (20,), m=100)
        res = distributional_test(spec, t=1.0)
        for _, stat, _ in res[20]:
            assert stat == 0.0

    def test_reports_all_functionals(self):
        spec = spec_for(damping_cfg(n=50, h0_scale=0.5), (50,), m=200)
        res = distributional_test(spec, t=1.0)
        names = [name for name, _, _ in res[50]]
        assert names == ["sigma_x", "sigma_y", "sigma_z"]

    def test_time_beyond_horizon_rejected(self):
        spec = spec_for(damping_cfg(), (20,))
        with pytest.raises(ValueError):
            distributional_test(spec, t=2.0)


class TestTimeCheck:
    @pytest.mark.parametrize("t", [-0.5, 0.0, np.nan, 2.0])
    @pytest.mark.parametrize("diagnostic", ["quadratic_variation_stats",
                                            "distributional_test", "run_full_report"])
    def test_time_outside_horizon_rejected(self, monkeypatch, diagnostic, t):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulation started")

        for name in ("sde_ensemble_final", "ensemble_streams", "drive_ensemble"):
            monkeypatch.setattr(convergence, name, no_simulation)
        spec = spec_for(damping_cfg(), (20,))
        with pytest.raises(ValueError, match="horizon"):
            getattr(convergence, diagnostic)(spec, t=t)


class TestResidualDecay:
    def test_trivial_zero(self):
        spec = spec_for(trivial_cfg(), (20, 40), m=50)
        assert np.all(residual_decay(spec) < 1e-12)

    def test_decreasing_trend(self):
        spec = spec_for(damping_cfg(), (100, 400), m=100, seed=11)
        sups = residual_decay(spec)
        assert sups[1] < sups[0]


class TestCenteredIncrements:
    def test_ensemble_mean_of_x_is_small(self):
        # martingale increments: sample mean at each step ~ M^(-1/2)
        cfg = damping_cfg(n=50, h0_scale=0.5)
        m = 2000
        uniforms = ensemble_streams(123, m, cfg.steps)
        worst = 0.0
        for _, _, _, x, _, _ in drive_ensemble(cfg, EXCITED, uniforms):
            worst = max(worst, abs(float(np.mean(x))))
        assert worst <= 3.5 / np.sqrt(m)


class TestReportPlumbing:
    def test_bitwise_reproducible(self):
        spec = spec_for(damping_cfg(n=30, h0_scale=0.5), (10, 30), m=60, seed=21)
        r1 = run_full_report(spec, t=1.0)
        r2 = run_full_report(spec, t=1.0)
        assert r1.mean_errors == r2.mean_errors
        assert r1.qv_deviations == r2.qv_deviations
        assert r1.ks_stats == r2.ks_stats
        assert r1.residual_sups == r2.residual_sups

    def test_summary_and_csv(self, tmp_path):
        spec = spec_for(damping_cfg(n=30, h0_scale=0.5), (10, 30), m=60, seed=21)
        report = run_full_report(spec, t=1.0)
        text = report.summary()
        assert "n=30" in text and "KS sigma_z" in text
        out = tmp_path / "report.csv"
        with open(out, "w") as fh:
            report.to_csv(fh)
        lines = out.read_text().splitlines()
        assert lines[0] == "n,statistic,value"
        assert any(line.startswith("30,mean_vs_master_sup_error,") for line in lines)


def _reducers(spec, t):
    return [partial(convergence._mean_reducer, spec),
            partial(convergence._qv_reducer, spec, t),
            partial(convergence._ks_reducer, spec, t),
            partial(convergence._residual_reducer, spec)]


class TestReportParts:
    """run_full_report is report_parts' calls made in turn, in this process,
    and then assemble_report."""

    @staticmethod
    def spec():
        return spec_for(damping_cfg(phi=np.pi / 3, h0_scale=0.5, t_horizon=1.5),
                        (7, 20, 33), m=40, seed=2 ** 64 - 1, sde_step=1e-2)

    def test_library_never_forks(self, monkeypatch):
        def no_fork():
            raise AssertionError("the library forked")

        monkeypatch.setattr(os, "fork", no_fork, raising=False)
        run_full_report(self.spec(), t=0.7)
        distributional_test(self.spec(), t=0.7)

    def test_parts_in_reverse_order_assemble_the_same_report(self, tmp_path):
        spec = self.spec()
        parts = convergence.report_parts(spec, t=0.7)
        results = {i: call() for i, (_, call) in reversed(list(enumerate(parts)))}
        split = convergence.assemble_report(spec, [results[i] for i in range(len(parts))])
        whole = run_full_report(spec, t=0.7)
        assert split == whole
        texts = []
        for report in (split, whole):
            with open(tmp_path / "r.csv", "w") as fh:
                report.to_csv(fh)
            texts.append((tmp_path / "r.csv").read_bytes() + report.summary().encode())
        assert texts[0] == texts[1]

    def test_costs_in_euler_path_steps(self):
        costs = [cost for cost, _ in convergence.report_parts(self.spec(), t=0.7)]
        # per member: round(0.7 / 1e-2) Euler steps, then floor(n 1.5) chain
        # steps per n at CHAIN_STEP_COST each
        assert costs == pytest.approx([70, 1.6 * 10, 1.6 * 30, 1.6 * 49])

    def test_ks_runs_through_the_report_parts(self, monkeypatch):
        calls = []
        for name in ("_diffusion_values", "_ks_reducer", "_ks_rows"):
            original = getattr(convergence, name)

            def spy(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(convergence, name, spy)
        distributional_test(self.spec(), t=0.7)
        run_full_report(self.spec(), t=0.7)
        assert calls == (["_diffusion_values"] + ["_ks_reducer"] * 3 + ["_ks_rows"]) * 2


class TestSinglePass:
    def test_report_mean_errors_match_standalone(self):
        spec = spec_for(damping_cfg(n=30, h0_scale=0.5), (10, 30), m=60, seed=21)
        assert run_full_report(spec, t=1.0).mean_errors == list(mean_vs_master(spec))

    @pytest.mark.parametrize("index", range(4))
    def test_reducer_alone_matches_shared_pass(self, index):
        # t below the horizon, so QV and KS stop before the pass ends
        spec = spec_for(damping_cfg(phi=np.pi / 3, h0_scale=0.5, t_horizon=1.5),
                        (7, 20), m=40, seed=33, sde_step=1e-2)
        reducers = _reducers(spec, 0.7)
        purpose = convergence._PURPOSE_QV
        alone = convergence._chain_sweep(spec, purpose, reducers[index])
        shared = [convergence._chain_pass(spec, purpose, reducers, n)[index]
                  for n in spec.n_values]
        # the KS reducer gives each n's (3, M) functional values
        assert len(alone) == len(shared) == 2
        assert all(np.array_equal(a, b) for a, b in zip(alone, shared))

    def test_one_chain_pass_per_n(self, monkeypatch):
        calls = {"drive_ensemble": 0, "ensemble_streams": 0}
        for name in calls:
            original = getattr(convergence, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(convergence, name, counting)
        spec = spec_for(damping_cfg(n=30, h0_scale=0.5), (5, 10, 30), m=20, seed=4,
                        sde_step=1e-2)
        run_full_report(spec, t=1.0)
        assert calls == {"drive_ensemble": 3, "ensemble_streams": 3}

    @pytest.mark.parametrize("n_values", [(0, 10), (-5, 10)])
    def test_spec_rejects_non_positive_n(self, n_values):
        with pytest.raises(ValueError, match="positive"):
            spec_for(damping_cfg(), n_values)

    def test_report_checks_inputs_before_simulating(self, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulation started")

        monkeypatch.setattr(convergence, "sde_ensemble_final", no_simulation)
        monkeypatch.setattr(convergence, "ensemble_streams", no_simulation)
        with pytest.raises(DiagonalObservable):
            run_full_report(spec_for(damping_cfg(phi=0.0), (20,)), t=1.0)
        with pytest.raises(ValueError, match="horizon"):
            run_full_report(spec_for(damping_cfg(), (20,)), t=2.0)

    @pytest.mark.parametrize("diagnostic", [quadratic_variation_stats, distributional_test])
    def test_standalone_sweep_stops_at_t(self, monkeypatch, diagnostic):
        columns = []
        original = convergence.ensemble_streams

        def recording(base_seed, num_traj, steps):
            columns.append(steps)
            return original(base_seed, num_traj, steps)

        monkeypatch.setattr(convergence, "ensemble_streams", recording)
        spec = spec_for(damping_cfg(h0_scale=0.5), (21, 40), m=20, sde_step=1e-2)
        diagnostic(spec, t=0.5)
        assert columns == [10, 20]

    def test_ks_finals_match_a_run_that_stops_at_t(self, monkeypatch):
        # at t = 0.5 the KS reducer must see the states of a run of exactly
        # floor(n t) steps on the same streams
        n, m, seed, t = 30, 50, 12, 0.5
        spec = spec_for(damping_cfg(n=n, h0_scale=0.5), (n,), m=m, seed=seed,
                        sde_step=1e-2)
        seen = []
        original = convergence.ks_2samp

        def recording(a, b):
            seen.append(np.array(a))
            return original(a, b)

        monkeypatch.setattr(convergence, "ks_2samp", recording)
        distributional_test(spec, t=t)
        base = derive_seed(derive_seed(seed, convergence._PURPOSE_KS_DISCRETE), n)
        steps = int(np.floor(n * t))
        for k, states, *_ in drive_ensemble(spec.cfg, EXCITED,
                                            ensemble_streams(base, m, steps)):
            finals = bloch_to_density(states)
        assert k == steps - 1
        expected = [np.einsum("jab,ba->j", finals, op).real
                    for _, op in convergence.DEFAULT_FUNCTIONALS]
        assert len(seen) == len(expected)
        for got, want in zip(seen, expected):
            assert np.array_equal(got, want)
