import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from qtraj import (
    DensityMatrix,
    ModelConfig,
    WaveFunction,
    make_observable,
    master_evolve,
    master_on_grid,
    simulate_belavkin,
    simulate_physical,
    simulate_wave,
)
from qtraj.linalg import (
    BLOCH_BASIS,
    adjoint,
    bloch_superop,
    bloch_terms,
    bloch_to_density,
    density_to_bloch,
    max_abs,
    project_ball,
)
from qtraj.model import ID2, SIGMA_X, SIGMA_Z, NotAState
import qtraj.sde as sde_mod
from qtraj.sde import STEP_DIVIDES_TOL, StepOutOfRange, dividing_step
from qtraj.sde import (
    VALIDATE_EVERY,
    _bloch_sde_matrix,
    _bloch_step,
    _density_steps,
    _scalar_density,
    _scalar_wave,
    _wave_steps,
    backaction_superop,
    lindblad_superop,
    sde_coefficients,
    sde_ensemble_final,
    wave_ensemble_final,
)

from helpers import (
    EXCITED,
    GROUND,
    LOWERING,
    PLUS,
    PLUS_VEC,
    SIGNED_ZEROS,
    assert_same_bits,
    assert_valid_states,
    damping_cfg,
    rand_cmat,
    rand_config,
    rand_density,
    rand_herm,
    rand_state_matrix,
)
from oracles import (
    backaction,
    bloch_apply_broadcast,
    density_path_batch_of_one,
    euler_step_density,
    girsanov_weights,
    innovation_path,
    lindblad,
    member_streams_step_by_step,
    project_positive,
    purity,
    wave_path_batch_of_one,
    wavefunction_step,
)

ANTIHERM_C = 1j * SIGMA_X  # c + c+ = 0
EXCITED_VEC = np.array([0.0, 1.0], dtype=complex)


def antiherm_cfg(n: int = 100) -> ModelConfig:
    return ModelConfig(h0=0.5 * SIGMA_Z, c=ANTIHERM_C,
                       observable=make_observable(np.pi / 2, 1.0, -1.0),
                       n=n, t_horizon=1.0)


class TestLindblad:
    def test_zero_model(self):
        rho = rand_state_matrix(np.random.default_rng(0))
        assert max_abs(lindblad(rho, np.zeros((2, 2)), np.zeros((2, 2)))) == 0.0

    def test_damping_of_excited(self):
        # by hand: c rho c+ = diag(1,0), {c+c, rho} = 2 diag(0,1)
        got = lindblad(np.diag([0.0, 1.0]).astype(complex), np.zeros((2, 2)), LOWERING)
        assert max_abs(got - np.diag([1.0, -1.0])) < 1e-14

    def test_traceless_random(self):
        rng = np.random.default_rng(1)
        stack = np.stack([rand_state_matrix(rng) for _ in range(10_000)])
        out = lindblad(stack, rand_herm(rng), rand_cmat(rng))
        traces = np.trace(out, axis1=-2, axis2=-1)
        assert np.max(np.abs(traces)) < 1e-14

    def test_hermiticity_preserving(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            out = lindblad(rand_state_matrix(rng), rand_herm(rng), rand_cmat(rng))
            assert max_abs(out - adjoint(out)) < 1e-13


class TestBackaction:
    def test_maximally_mixed_with_sigma_x(self):
        # rho c+ + c rho = sigma_x, trace term vanishes
        got = backaction(0.5 * ID2, SIGMA_X)
        assert max_abs(got - SIGMA_X) < 1e-14

    def test_excited_with_lowering(self):
        # rho c+ + c rho = ((0,1),(1,0)), Tr[rho sigma_x] = 0
        got = backaction(np.diag([0.0, 1.0]).astype(complex), LOWERING)
        assert max_abs(got - SIGMA_X) < 1e-14

    def test_ground_is_dark(self):
        assert max_abs(backaction(np.diag([1.0, 0.0]).astype(complex), LOWERING)) == 0.0

    def test_traceless_random(self):
        rng = np.random.default_rng(6)
        stack = np.stack([rand_state_matrix(rng) for _ in range(10_000)])
        out = backaction(stack, rand_cmat(rng))
        assert np.max(np.abs(np.trace(out, axis1=-2, axis2=-1))) < 1e-14


class TestEulerStepDensity:
    def test_tiny_step_keeps_state(self):
        rng = np.random.default_rng(7)
        rho = rand_density(rng)
        out = euler_step_density(rho, 1e-14, 0.0, rand_herm(rng), rand_cmat(rng))
        assert max_abs(out.m - rho.m) < 1e-12

    def test_trace_preserved_raw(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            rho = rand_density(rng)
            out = euler_step_density(rho, 1e-3, rng.normal() * np.sqrt(1e-3),
                                     rand_herm(rng), rand_cmat(rng), project=False)
            assert abs(out.m.trace() - 1.0) < 1e-13

    def test_no_coupling_reduces_to_unitary_euler(self):
        rng = np.random.default_rng(9)
        rho = rand_density(rng)
        h0 = rand_herm(rng)
        out = euler_step_density(rho, 1e-3, 0.5, h0, np.zeros((2, 2)), project=False)
        expected = rho.m + 1e-3 * (-1j) * (h0 @ rho.m - rho.m @ h0)
        assert max_abs(out.m - expected) < 1e-14

    def test_projection_restores_positivity(self):
        out = euler_step_density(GROUND, 1e-3, 0.8, np.zeros((2, 2)), SIGMA_X)
        assert_valid_states(out.m)

    def test_batch_projection_matches_scalar(self):
        rng = np.random.default_rng(10)
        raws = []
        for _ in range(200):
            m = rand_herm(rng)
            m = m / m.trace().real if abs(m.trace().real) > 0.1 else m + ID2
            raws.append(m / m.trace().real)
        raws = np.stack(raws)
        batch = bloch_to_density(project_ball(density_to_bloch(raws)))
        for j in range(len(raws)):
            assert max_abs(batch[j] - project_positive(raws[j])) < 1e-12


class TestWavefunctionStep:
    def test_free_particle_unchanged(self):
        psi = WaveFunction(PLUS_VEC)
        out = wavefunction_step(psi, 1e-3, 0.02, np.zeros((2, 2)), np.zeros((2, 2)))
        assert max_abs(out.v - psi.v) < 1e-12

    def test_dark_state(self):
        # ground state with a lowering coupling: nu = 0, c psi = 0, c+c psi = 0
        psi = WaveFunction(np.array([1.0, 0.0], dtype=complex))
        out = wavefunction_step(psi, 1e-3, 0.5, np.zeros((2, 2)), LOWERING)
        assert max_abs(out.v - psi.v) < 1e-14

    def test_norm_one_after_step(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi = WaveFunction(v / np.linalg.norm(v))
            out = wavefunction_step(psi, 1e-3, rng.normal() * np.sqrt(1e-3),
                                    rand_herm(rng), rand_cmat(rng))
            assert abs(np.linalg.norm(out.v) - 1.0) < 1e-14

    def test_prenormalization_drift_second_order(self):
        # the Ito drift of |psi|^2 vanishes at norm one, so the mean squared
        # norm defect over many draws is O(h^2) plus sampling error
        h = 1e-3
        draws = np.random.default_rng(12).normal(scale=np.sqrt(h), size=100_000)
        c = LOWERING
        nu = 0.5 * np.vdot(PLUS_VEC, (c + adjoint(c)) @ PLUS_VEC).real
        drift = (-0.5 * (adjoint(c) @ c - 2 * nu * c + nu * nu * ID2)) @ PLUS_VEC
        kick = (c - nu * ID2) @ PLUS_VEC
        raw = PLUS_VEC[None, :] + draws[:, None] * kick[None, :] \
            + h * drift[None, :]
        defects = np.sum(np.abs(raw) ** 2, axis=1) - 1.0
        se = defects.std(ddof=1) / np.sqrt(len(defects))
        assert abs(defects.mean()) < 3.0 * se + 10.0 * h * h


class TestSimulatePaths:
    def test_step_guard(self):
        with pytest.raises(ValueError):
            simulate_belavkin(damping_cfg(), EXCITED, 0.5, seed=1)

    def test_determinism(self):
        cfg = damping_cfg(h0_scale=0.5)
        p1 = simulate_belavkin(cfg, EXCITED, 1e-3, seed=5)
        p2 = simulate_belavkin(cfg, EXCITED, 1e-3, seed=5)
        assert np.array_equal(p1.states, p2.states)
        assert np.array_equal(p1.noise, p2.noise)

    def test_no_coupling_is_deterministic_unitary(self):
        cfg = ModelConfig(h0=0.5 * SIGMA_Z, c=np.zeros((2, 2)),
                          observable=make_observable(np.pi / 2, 1.0, -1.0),
                          n=100, t_horizon=1.0)
        path = simulate_belavkin(cfg, PLUS, 1e-3, seed=6)
        # coherence rotates at the level splitting; Euler error O(h)
        final = path.states[-1]
        expected01 = 0.5 * np.exp(-1j * 1.0)
        assert abs(final[0, 1] - expected01) < 5e-3
        assert abs(purity(DensityMatrix(final)) - 1.0) < 5e-3

    def test_states_valid_with_projection(self):
        cfg = damping_cfg(h0_scale=0.5)
        path = simulate_belavkin(cfg, EXCITED, 1e-3, seed=7)
        assert_valid_states(path.states)

    def test_wave_norms(self):
        cfg = damping_cfg(h0_scale=0.5)
        wave = simulate_wave(cfg, WaveFunction(PLUS_VEC), 1e-3, seed=8)
        norms = np.linalg.norm(wave.vectors, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12


class TestPhysicalForm:
    def test_coincides_when_coupling_antihermitian(self):
        cfg = antiherm_cfg()
        pb = simulate_belavkin(cfg, EXCITED, 1e-3, seed=9)
        pp = simulate_physical(cfg, EXCITED, 1e-3, seed=9)
        assert np.array_equal(pb.states, pp.states)

    def test_innovation_bookkeeping(self):
        # W~ reconstructed from a reference path obeys the discrete relation
        cfg = damping_cfg(h0_scale=0.5)
        path = simulate_belavkin(cfg, EXCITED, 1e-3, seed=10)
        tilde = innovation_path(path, cfg.c)
        g = np.array([np.trace(path.states[k] @ (cfg.c + adjoint(cfg.c))).real
                      for k in range(len(path.noise))])
        direct = np.concatenate([[0.0], np.cumsum(path.noise) - np.cumsum(g) * path.h])
        assert np.max(np.abs(tilde - direct)) < 1e-12

    def test_companion_inverts_innovation(self):
        cfg = damping_cfg(h0_scale=0.5)
        path = simulate_physical(cfg, EXCITED, 1e-3, seed=11)
        # companion W minus the drift integral returns the driving noise sums
        tilde_direct = np.concatenate([[0.0], np.cumsum(path.noise)])
        g = np.array([np.trace(path.states[k] @ (cfg.c + adjoint(cfg.c))).real
                      for k in range(len(path.noise))])
        rebuilt = path.companion - np.concatenate([[0.0], np.cumsum(g) * path.h])
        assert np.max(np.abs(rebuilt - tilde_direct)) < 1e-12


class TestGirsanovWeights:
    def test_antihermitian_coupling_gives_unit_weights(self):
        cfg = antiherm_cfg()
        path = simulate_belavkin(cfg, EXCITED, 1e-3, seed=12)
        w = girsanov_weights(path, cfg.c)
        assert np.array_equal(w, np.ones_like(w))

    def test_positive_and_left_point(self):
        cfg = damping_cfg(h0_scale=0.5)
        path = simulate_belavkin(cfg, EXCITED, 1e-3, seed=13)
        w = girsanov_weights(path, cfg.c)
        assert np.all(w > 0.0)
        g0 = np.trace(path.states[0] @ (cfg.c + adjoint(cfg.c))).real
        expected1 = np.exp(g0 * path.noise[0] - 0.5 * g0 * g0 * path.h)
        assert w[1] == pytest.approx(expected1, rel=1e-12)

    def test_martingale_mean(self):
        cfg = damping_cfg(h0_scale=0.5)
        _, weights = sde_ensemble_final(cfg, EXCITED, 1e-3, 2000, base_seed=14,
                                        with_weights=True)
        se = weights.std(ddof=1) / np.sqrt(len(weights))
        assert abs(weights.mean() - 1.0) <= 3.0 * se

    def test_matches_ensemble_weights(self):
        # the path-level weights are the oracle of the ensemble's accumulation
        cfg = damping_cfg(h0_scale=0.5)
        path = simulate_belavkin(cfg, EXCITED, 1e-3, seed=15)
        _, weights = sde_ensemble_final(cfg, EXCITED, 1e-3, 1, noise=path.noise[None],
                                        with_weights=True)
        assert weights[0] == pytest.approx(girsanov_weights(path, cfg.coupling())[-1],
                                           rel=1e-12)


def _expm_bloch(cfg, rho0, h, steps):
    """(steps + 1, 3) Bloch vectors of the exact averaged evolution,
    u0 expm(k h A) for k = 0..steps, with A the Bloch form of S_L."""
    a = bloch_superop(lindblad_superop(cfg.h0, cfg.coupling()))
    u0 = np.array([1.0, *density_to_bloch(rho0.m)])
    return np.array([u0 @ scipy.linalg.expm(k * h * a) for k in range(steps + 1)])[:, 1:]


class TestMasterEvolve:
    def test_stationary_ground_state(self):
        # every drift term vanishes at the ground state of pure damping
        cfg = damping_cfg()
        path = master_evolve(cfg, GROUND, 1e-3)
        assert max_abs(path.states - GROUND.m) < 1e-14

    def test_exponential_decay_oracle(self):
        cfg = damping_cfg()
        path = master_evolve(cfg, EXCITED, 1e-3)
        assert abs(path.states[-1][1, 1].real - np.exp(-1.0)) < 1e-8

    def test_linearity(self):
        rng = np.random.default_rng(15)
        cfg = damping_cfg(h0_scale=0.5)
        r1, r2 = rand_density(rng), rand_density(rng)
        alpha = 0.3
        mix = DensityMatrix(alpha * r1.m + (1 - alpha) * r2.m)
        pm = master_evolve(cfg, mix, 1e-2)
        p1 = master_evolve(cfg, r1, 1e-2)
        p2 = master_evolve(cfg, r2, 1e-2)
        assert max_abs(pm.states - alpha * p1.states - (1 - alpha) * p2.states) < 1e-12

    @pytest.mark.parametrize("c_scale", [1.0, 0.5])
    def test_long_run_precision(self, c_scale):
        # 10^4 steps: rounding must not build up against the exact decay
        # e^(-c^2 t). At rate 1, 1 + d rounds by only ~1e-18, so a propagator
        # that forms I + d loses little; rate 0.25 exposes it.
        path = master_evolve(damping_cfg(c_scale=c_scale), EXCITED, 1e-4)
        exact = np.exp(-c_scale ** 2 * path.grid)
        assert np.max(np.abs(path.states[:, 1, 1].real - exact)) <= 1e-14
        assert np.all(np.trace(path.states, axis1=-2, axis2=-1) == 1.0)

    def test_trace_exactly_preserved(self):
        cfg = damping_cfg(h0_scale=0.5)
        path = master_evolve(cfg, EXCITED, 1e-3)
        traces = np.trace(path.states, axis1=-2, axis2=-1)
        assert np.max(np.abs(traces - 1.0)) < 1e-14

    def test_grid_sampling_matches_full_run(self):
        cfg = damping_cfg(n=20)
        grid_states = master_on_grid(cfg, EXCITED, 20, refine=10)
        full = master_evolve(cfg, EXCITED, 1.0 / 200.0)
        assert max_abs(grid_states - full.states[::10]) < 1e-12

    def test_propagator_matches_matrix_exponential(self):
        # u_k = u0 exp(k h A), A the Bloch form of S_L, on random models
        rng = np.random.default_rng(33)
        for _ in range(20):
            cfg = rand_config(rng)
            rho0 = rand_density(rng)
            path = master_evolve(cfg, rho0, 0.05)
            exact = _expm_bloch(cfg, rho0, 0.05, 20)
            assert max_abs(density_to_bloch(path.states) - exact) < 1e-13

    @pytest.mark.parametrize("h", [0.5, 0.25, 0.1])
    def test_coarse_steps_are_exact(self, h):
        # damping rate 9: steps far outside any explicit integrator's
        # stability region still give exp(k h A)
        cfg = damping_cfg(c_scale=3.0)
        path = master_evolve(cfg, EXCITED, h)
        exact = _expm_bloch(cfg, EXCITED, h, len(path.grid) - 1)
        assert max_abs(density_to_bloch(path.states) - exact) < 1e-13

    @pytest.mark.parametrize("rate", [1e-8, 1e-5])
    def test_squarings_keep_slow_rates(self, rate):
        # h S_L has norm 6 (s = 4 squarings), but its z-row decays at
        # rate: exp(h S_L) - I keeps e^-rate - 1 to full precision, where
        # squaring I + d rounds it to ~1e-16 absolute
        cfg = damping_cfg(c_scale=np.sqrt(rate), h0_scale=3.0)
        d = bloch_superop(sde_mod._expm1(lindblad_superop(cfg.h0, cfg.coupling()), 1.0))
        assert abs(d[3, 3] / np.expm1(-rate) - 1.0) < 1e-14

    def test_grid_sampling_stops_at_last_grid_point(self):
        # n T = 20.5 is not an integer: 20 grid intervals, 200 fine steps
        cfg = damping_cfg(n=20, t_horizon=1.025)
        grid_states = master_on_grid(cfg, EXCITED, 20, refine=10)
        assert grid_states.shape == (21, 2, 2)
        full = master_evolve(damping_cfg(n=20), EXCITED, 1.0 / 200.0)
        assert max_abs(grid_states - full.states[::10]) < 1e-12


class TestEnsembleConsistency:
    def test_density_ensemble_matches_scalar_path(self):
        cfg = damping_cfg(h0_scale=0.5)
        path = simulate_belavkin(cfg, EXCITED, 1e-3, seed=16)
        finals, _ = sde_ensemble_final(cfg, EXCITED, 1e-3, 1,
                                       noise=path.noise[None, :])
        assert np.array_equal(finals[0], path.states[-1])

    def test_physical_ensemble_matches_scalar_path(self):
        cfg = damping_cfg(h0_scale=0.5)
        path = simulate_physical(cfg, EXCITED, 1e-3, seed=17)
        finals, _ = sde_ensemble_final(cfg, EXCITED, 1e-3, 1,
                                       noise=path.noise[None, :], physical=True)
        assert np.array_equal(finals[0], path.states[-1])

    def test_wave_ensemble_matches_scalar_path(self):
        cfg = damping_cfg(h0_scale=0.5)
        wave = simulate_wave(cfg, WaveFunction(PLUS_VEC), 1e-3, seed=18)
        finals = wave_ensemble_final(cfg, WaveFunction(PLUS_VEC), 1e-3, 1,
                                     noise=wave.noise[None, :])
        assert np.array_equal(finals[0], wave.vectors[-1])

    def test_pure_density_coupling_shrinks_with_step(self):
        # density and wave paths share one Brownian path, refined across h
        cfg = damping_cfg(h0_scale=0.5)
        rng_noise = np.random.default_rng(19)
        fine = rng_noise.normal(scale=np.sqrt(5e-4), size=(40, 2000))
        gaps = []
        for h, fold in ((2e-3, 4), (1e-3, 2), (5e-4, 1)):
            noise = fine.reshape(40, -1, fold).sum(axis=2)
            rf, _ = sde_ensemble_final(cfg, PLUS, h, 40, noise=noise)
            pf = wave_ensemble_final(cfg, WaveFunction(PLUS_VEC), h, 40, noise=noise)
            proj = np.einsum("ja,jb->jab", pf, pf.conj())
            gaps.append(np.abs(rf - proj).max(axis=(1, 2)).mean())
        assert gaps[0] > gaps[2]
        assert gaps[1] > gaps[2]


class TestSuperoperators:
    def test_lindblad_superop_matches_oracle(self):
        rng = np.random.default_rng(30)
        for _ in range(200):
            cfg = rand_config(rng)
            rho = rand_density(rng).m
            c = cfg.coupling()
            s_l = lindblad_superop(cfg.h0, c)
            got = (rho.reshape(4) @ s_l).reshape(2, 2)
            assert max_abs(got - lindblad(rho, cfg.h0, c)) < 1e-13

    def test_backaction_superop_matches_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            cfg = rand_config(rng)
            rho = rand_density(rng).m
            c = cfg.coupling()
            s_b, g = backaction_superop(c)
            v = rho.reshape(4)
            trace_term = np.trace(rho @ (c + adjoint(c)))
            assert abs(v @ g - trace_term) < 1e-13
            got = (v @ s_b - (v @ g) * v).reshape(2, 2)
            assert max_abs(got - backaction(rho, c)) < 1e-13


class TestBlochCore:
    """The real (4, 7) Bloch step against the complex coefficients and the
    matrix-form Euler step."""

    def test_coefficients_are_real_in_bloch_basis(self):
        rng = np.random.default_rng(33)
        inv = 2.0 * BLOCH_BASIS.conj().T
        for _ in range(200):
            cfg = rand_config(rng)
            coeffs = sde_coefficients(cfg.h0, cfg.coupling())
            coeffs[:, :4] = np.eye(4) + 1e-3 * coeffs[:, :4]
            for block in (coeffs[:, :4], coeffs[:, 4:8]):
                assert max_abs((BLOCH_BASIS @ block @ inv).imag) < 1e-14
            assert max_abs((BLOCH_BASIS @ coeffs[:, 8]).imag) < 1e-14
            _bloch_sde_matrix(cfg, 1e-3)

    @pytest.mark.parametrize("physical", [False, True])
    def test_step_matches_euler_step_density(self, physical):
        rng = np.random.default_rng(34)
        h, projected = 1e-3, 0
        for _ in range(200):
            cfg = rand_config(rng)
            c = cfg.coupling()
            rho = rand_density(rng).m
            dw = rng.normal(scale=0.5, size=1)
            r, g = _bloch_step(bloch_terms(_bloch_sde_matrix(cfg, h)),
                               density_to_bloch(rho)[:, None], dw, h, physical,
                               np.empty((7, 1)))
            r = r.T
            g_oracle = np.trace(rho @ (c + adjoint(c))).real
            assert abs(g[0] - g_oracle) < 1e-13
            kick = dw[0] + h * g_oracle if physical else dw[0]
            raw = rho + h * lindblad(rho, cfg.h0, c) + kick * backaction(rho, c)
            projected += np.linalg.eigvalsh(raw)[0] < 0.0
            oracle = euler_step_density(DensityMatrix(rho), h, kick, cfg.h0, c)
            assert max_abs(bloch_to_density(r)[0] - oracle.m) < 1e-13
        assert projected > 20

    def test_round_trip(self):
        rng = np.random.default_rng(35)
        for _ in range(200):
            rho = rand_density(rng).m
            assert max_abs(bloch_to_density(density_to_bloch(rho)) - rho) < 1e-15

    def test_antihermitian_coupling_gives_zero_g_column(self):
        assert np.all(_bloch_sde_matrix(antiherm_cfg(), 1e-3)[:, 6] == 0.0)

    @pytest.mark.parametrize("scale", [1e160, 1e308])
    def test_huge_increments_stay_on_the_sphere(self, scale):
        # a finite iterate whose |r| overflows must not become r / inf = 0,
        # the maximally mixed state: 1e160 squares to inf but not under
        # hypot; 1e308 overflows hypot too and must be rejected instead
        noise = np.full((3, 100), scale)
        noise[1] *= -1.0
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                finals, _ = sde_ensemble_final(damping_cfg(h0_scale=0.5), PLUS, 1e-2,
                                               3, noise=noise)
        except NotAState:
            return
        norms = np.linalg.norm(density_to_bloch(finals), axis=1)
        assert np.all(np.abs(norms - 1.0) <= 1e-12)

    def test_unrepresentable_norm_is_not_mixed(self):
        # components of 1.5e308 are finite but |r| is not: the row must not
        # be scaled to the origin (a valid state) but flagged as NaN; 1e200
        # squares to inf, yet its |r| is representable and must be used
        r = np.array([[1.5e308, 1.5e308, 0.0], [1e200, 1e200, 0.0],
                      [3.0, 4.0, 0.0], [0.1, 0.0, 0.0]])
        with np.errstate(over="ignore"):
            out = project_ball(r)
        assert np.all(np.isnan(out[0]))
        assert np.allclose(out[1], [np.sqrt(0.5), np.sqrt(0.5), 0.0], rtol=0, atol=1e-15)
        assert np.allclose(out[2], [0.6, 0.8, 0.0], rtol=0, atol=1e-15)
        assert np.array_equal(out[3], r[3])


class TestEnsembleCore:
    def test_rows_match_single_path_runs(self):
        # per-row arithmetic of the stepping core does not depend on M
        cfg = damping_cfg(h0_scale=0.5)
        noise = np.random.default_rng(32).normal(scale=np.sqrt(1e-3), size=(5, 1000))
        for kwargs in ({}, {"physical": True}, {"with_weights": True}):
            finals, weights = sde_ensemble_final(cfg, PLUS, 1e-3, 5, noise=noise,
                                                 **kwargs)
            for j in range(5):
                one, w1 = sde_ensemble_final(cfg, PLUS, 1e-3, 1,
                                             noise=noise[j:j + 1], **kwargs)
                assert np.array_equal(finals[j], one[0])
                if weights is not None:
                    assert weights[j] == w1[0]

    def test_wave_rows_match_single_path_runs(self):
        # row j of the ensemble is the single-path loop run on column j
        from qtraj.cli import build_model

        cfg, h, psi0 = build_model({}, {}), 1e-3, WaveFunction(EXCITED_VEC)
        finals = wave_ensemble_final(cfg, psi0, h, 64, base_seed=7)
        noise = np.array(list(sde_mod._ensemble_noise(7, None, 64, 1000, h))).T
        for j in range(64):
            table = _scalar_wave(sde_mod._wave_matrix(cfg, h), sde_mod._real_parts(psi0.v),
                                 h, noise[j])
            assert np.array_equal(finals[j], table[-1].view(complex)), j

    def test_periodic_validation(self, monkeypatch):
        import qtraj.sde as sde_mod

        calls = []
        original = sde_mod.validate_batch

        def counting(states, step):
            calls.append(step)
            return original(states, step)

        monkeypatch.setattr(sde_mod, "validate_batch", counting)
        cfg = damping_cfg(h0_scale=0.5)
        # every batch passes the cheap test, so only the initial state
        # takes the full check; with none passing it, every check does
        finals, _ = sde_ensemble_final(cfg, EXCITED, 1e-3, 20, base_seed=3)
        assert calls == [None]
        calls.clear()
        monkeypatch.setattr(sde_mod, "STATE_TOL", -np.inf)
        finals, _ = sde_ensemble_final(cfg, EXCITED, 1e-3, 20, base_seed=3)
        # None is the initial state, checked once before the first step
        assert calls == [None, *range(VALIDATE_EVERY - 1, 1000, VALIDATE_EVERY)]
        assert_valid_states(finals)

    def test_last_step_validated(self):
        # 50 steps never reach a VALIDATE_EVERY boundary: the final states
        # must still be checked rather than returned as NaN
        noise = np.full((2, 50), 1e308)
        with np.errstate(all="ignore"), pytest.raises(NotAState, match="by step 49"):
            sde_ensemble_final(damping_cfg(h0_scale=0.5, t_horizon=0.5), PLUS, 1e-2, 2,
                               noise=noise)

    def test_seeded_noise_streams(self):
        # path j of a seeded run is driven by member j of its seed's stream,
        # drawn one step at a time here; at 1000 paths the run reads it in
        # 16 blocks of rng.step_blocks, the last one shorter
        from qtraj.rng import generator_for

        cfg, psi0 = damping_cfg(h0_scale=0.5), WaveFunction(PLUS_VEC)
        for num_paths, h in ((3, 1e-2), (1000, 1e-3)):
            noise = member_streams_step_by_step(generator_for(9), num_paths, round(1 / h),
                                                "standard_normal") * np.sqrt(h)
            for kwargs in ({"with_weights": True}, {"physical": True}):
                finals, weights = sde_ensemble_final(cfg, EXCITED, h, num_paths, base_seed=9,
                                                     **kwargs)
                explicit, explicit_weights = sde_ensemble_final(cfg, EXCITED, h, num_paths,
                                                                noise=noise, **kwargs)
                assert_same_bits(finals.view(float), explicit.view(float))
                if weights is not None:
                    assert_same_bits(weights, explicit_weights)
            assert_same_bits(wave_ensemble_final(cfg, psi0, h, num_paths, base_seed=9).view(float),
                             wave_ensemble_final(cfg, psi0, h, num_paths, noise=noise).view(float))

    @pytest.mark.parametrize("shape", [(3, 250), (5, 100), (3,)])
    def test_wave_noise_shape_checked(self, shape):
        cfg = damping_cfg()
        with pytest.raises(ValueError, match="noise must have shape"):
            wave_ensemble_final(cfg, WaveFunction(PLUS_VEC), 1e-2, 3,
                                noise=np.zeros(shape))


def _density_batch_of_one(cfg, rho, h, noise, physical):
    """``_density_steps`` on a batch of one, in ``_scalar_density``'s layout."""
    bloch, g = [density_to_bloch(rho.m)], []
    for _, r, g_k, _ in _density_steps(cfg, rho, h, 1, len(noise), noise[:, None], physical):
        bloch.append(r[0].copy())
        g.append(g_k[0])
    return np.array(bloch), np.array(g)


def _assert_density_paths_equal(cfg, rho, h, noise, physical, equal_nan=False):
    # the module attribute, which a test may patch for both cores
    a = sde_mod._bloch_sde_matrix(cfg, h)
    scalar = _scalar_density(a, density_to_bloch(rho.m), h, noise, physical)
    ensemble = _density_batch_of_one(cfg, rho, h, noise, physical)
    for name, got, want in zip(("states", "g"), scalar, ensemble):
        assert_same_bits(got, want, equal_nan, name)
    return scalar


class TestScalarDensity:
    """The single-path loop ``_scalar_density`` against ``_density_steps`` on a
    batch of one, bit for bit at every step."""

    @pytest.mark.parametrize("physical", [False, True])
    def test_matches_density_steps_with_projection(self, physical):
        # kicks of scale 0.1 push most steps out of the ball
        h = 1e-3
        noise = np.random.default_rng(37).normal(scale=0.1, size=300)
        bloch, _ = _assert_density_paths_equal(damping_cfg(h0_scale=0.5), PLUS, h,
                                               noise, physical)
        on_sphere = np.abs(np.linalg.norm(bloch, axis=1) - 1.0) < 1e-14
        assert on_sphere.sum() > 150

    @pytest.mark.parametrize("physical", [False, True])
    @pytest.mark.parametrize("h0_scale, rho, signed", [
        pytest.param(0.0, SIGNED_ZEROS, False, id="signed-zeros"),
        pytest.param(0.0, SIGNED_ZEROS, True, id="signed-zeros-negative-constants"),
        pytest.param(0.5, EXCITED, False, id="excited")])
    def test_matches_density_steps_from_zero_components(self, monkeypatch, physical,
                                                         h0_scale, rho, signed):
        # starts (-0, -0, 0.6) and (0, 0, -1): the zeros' signs must agree
        # too, where the sparse product skips +-0 terms. ``signed`` makes the
        # zero constants of the model's matrix -0.0, whose columns skip none
        h = 1e-3
        cfg = damping_cfg(h0_scale=h0_scale)
        if signed:
            a = sde_mod._bloch_sde_matrix(cfg, h)
            a[0, a[0] == 0.0] = -0.0
            monkeypatch.setattr(sde_mod, "_bloch_sde_matrix", lambda cfg, h: a)
        noise = np.random.default_rng(36).normal(scale=np.sqrt(h), size=300)
        _assert_density_paths_equal(cfg, rho, h, noise, physical)

    @pytest.mark.parametrize("physical", [False, True])
    def test_matches_density_steps_on_random_configs(self, physical):
        rng = np.random.default_rng(38)
        for _ in range(4):
            h = 1e-3
            noise = rng.normal(scale=np.sqrt(h), size=400)
            _assert_density_paths_equal(rand_config(rng), rand_density(rng), h, noise,
                                        physical)

    @pytest.mark.parametrize("physical", [False, True])
    def test_validates_at_the_steps_of_density_steps(self, monkeypatch, physical):
        # None is the initial state; then every VALIDATE_EVERY steps, the
        # last one and the recorded path as a whole. No state passes the
        # scalar loop's cheap test here, so each of its checks is the full one
        monkeypatch.setattr(sde_mod, "STATE_TOL", -np.inf)
        calls = []
        original = sde_mod.validate_batch

        def recording(states, step):
            calls.append((step, states.shape))
            return original(states, step)

        monkeypatch.setattr(sde_mod, "validate_batch", recording)
        cfg = damping_cfg(h0_scale=0.5, t_horizon=0.25)
        sde_mod._density_path(cfg, EXCITED, 1e-3, 5, physical)
        scalar = calls[:]
        calls.clear()
        density_path_batch_of_one(cfg, EXCITED, 1e-3, 5, physical)
        # the oracle checks the whole path through qtraj.model's own name
        assert [k for k, _ in scalar[:-1]] == [k for k, _ in calls] == [None, 99, 199, 249]
        assert scalar[-1] == (250, (251, 2, 2))

    @pytest.mark.parametrize("physical", [False, True])
    def test_huge_increments_stay_on_the_sphere(self, physical):
        # the squares overflow, |r| from nested hypot does not
        noise = 1e160 * np.random.default_rng(39).standard_normal(150)
        with np.errstate(over="ignore"):
            bloch, _ = _assert_density_paths_equal(damping_cfg(h0_scale=0.5), PLUS,
                                                   1e-2, noise, physical)
        assert np.all(np.abs(np.linalg.norm(bloch, axis=1) - 1.0) <= 1e-12)

    @pytest.mark.parametrize("physical", [False, True])
    def test_overflowing_increments_raise(self, monkeypatch, physical):
        # |r| overflows hypot: the state becomes NaN, never r / inf = 0
        cfg, h = damping_cfg(h0_scale=0.5), 1e-2
        r0 = density_to_bloch(PLUS.m)
        with np.errstate(all="ignore"):
            noise = 1e308 * np.random.default_rng(39).standard_normal(150)
            with pytest.raises(NotAState) as scalar:
                _scalar_density(_bloch_sde_matrix(cfg, h), r0, h, noise, physical)
            with pytest.raises(NotAState) as ensemble:
                _density_batch_of_one(cfg, PLUS, h, noise, physical)
            assert str(scalar.value) == str(ensemble.value)
            monkeypatch.setattr(sde_mod, "validate_batch", lambda states, step: states)
            bloch, _ = _assert_density_paths_equal(cfg, PLUS, h, noise, physical,
                                                   equal_nan=True)
        assert np.all(np.isnan(bloch[-1]))

    @pytest.mark.parametrize("kick, finite", [(1e200, True), (1.5e308, False)])
    def test_unrepresentable_norm_is_nan(self, monkeypatch, kick, finite):
        # a step to kick * (1, 1, 0): components of 1.5e308 are finite but
        # |r| is not, and the state must become NaN, not r / inf = 0
        a = np.zeros((4, 7))
        a[0, 3:5] = 1.0
        monkeypatch.setattr(sde_mod, "_bloch_sde_matrix", lambda cfg, h: a)
        monkeypatch.setattr(sde_mod, "validate_batch", lambda states, step: states)
        with np.errstate(over="ignore"):
            bloch, _ = _assert_density_paths_equal(damping_cfg(), PLUS, 1e-2,
                                                   np.array([kick]), False,
                                                   equal_nan=True)
        assert np.all(np.isfinite(bloch[1])) == finite
        assert np.all(np.isnan(bloch[1])) != finite

    def test_near_sphere_rows_keep_project_ball_bits(self, monkeypatch):
        # an identity step: a row with x^2 + y^2 + z^2 <= 1 whose nested hypot
        # rounds to 1 + ulp is still divided by it, as in project_ball, so
        # the projection may only be skipped well inside the ball
        a = np.zeros((4, 7))
        a[1:, :3] = np.eye(3)
        monkeypatch.setattr(sde_mod, "_bloch_sde_matrix", lambda cfg, h: a)
        v = np.random.default_rng(50).normal(size=(20000, 3))
        v = density_to_bloch(bloch_to_density(v / np.linalg.norm(v, axis=1)[:, None]))
        sums = v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1] + v[:, 2] * v[:, 2]
        norms = np.hypot(np.hypot(v[:, 0], v[:, 1]), v[:, 2])
        rows = v[(sums <= 1.0) & (norms > 1.0)][:10]
        assert len(rows) == 10
        for r0 in rows:
            rho = DensityMatrix(bloch_to_density(r0))
            bloch, _ = _assert_density_paths_equal(damping_cfg(), rho, 1e-3,
                                                   np.zeros(2), False)
            assert not np.array_equal(bloch[1], r0)


def _identity_step_batch(rows, dw):
    """``_bloch_step`` with an identity Euler matrix on the (M, 3) ``rows``
    and kicks ``dw`` along (1, 1, 1); returns (stepped rows, the unprojected
    rows from the broadcast form, the rows project_ball was called on)."""
    a = np.zeros((4, 7))
    a[1:, :3] = np.eye(3)
    a[0, 3:6] = 1.0
    w = bloch_apply_broadcast(rows, a)
    raw = (w[:3] + dw * (w[3:6] - w[6] * rows.T)).T
    seen = []

    def recording(r):
        seen.append(r.copy())
        return project_ball(r)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sde_mod, "project_ball", recording)
        r, _ = _bloch_step(bloch_terms(a), np.ascontiguousarray(rows.T), dw, 1e-3, False,
                           np.empty((7, len(rows))))
    return r.T, raw, seen


def _rows_summing_near(target, count):
    """Rows (x, y, 0) with x^2 + y^2 rounding to each float within ``count``
    ulps of ``target``."""
    near = {target}
    for _ in range(count):
        near |= {np.nextafter(v, d) for v in near for d in (0.0, 2.0)}
    found = {}
    for y in np.linspace(0.0, 0.5, 200):
        x = np.sqrt(target - y * y)
        for x in (x, *(np.nextafter(x, d) for d in (0.0, 2.0))):
            sq = x * x + y * y
            if sq in near and sq not in found:
                found[sq] = (x, y, 0.0)
    assert set(found) == near
    return np.array([found[v] for v in sorted(found)])


class TestProjectionRule:
    """``_bloch_step`` sends only the members with x^2 + y^2 + z^2 <=
    _INSIDE false through project_ball; the batch must keep project_ball's
    bits on every member."""

    def test_mixed_batch_keeps_project_ball_bits(self):
        v = np.random.default_rng(50).normal(size=(20000, 3))
        v = density_to_bloch(bloch_to_density(v / np.linalg.norm(v, axis=1)[:, None]))
        sums = v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1] + v[:, 2] * v[:, 2]
        norms = np.hypot(np.hypot(v[:, 0], v[:, 1]), v[:, 2])
        sphere = v[(sums <= 1.0) & (norms > 1.0)][:10]
        rows = np.vstack([
            [[0.1, 0.2, -0.3], [0.0, -0.0, 0.0], [5e-324, 0.5, -0.5]],    # well inside
            _rows_summing_near(sde_mod._INSIDE, 2),     # at _INSIDE and its neighbours
            sphere,                                     # hypot rounds to 1 + ulp
            [[1.5, 0.0, 0.0], [0.6, 0.7, 0.8], [-2.0, 3.0, -4.0]],        # outside
            [[1e200, -1e200, 3e199], [1e308, 1e308, 1e308]],             # near 1e200, inf
            [[np.inf, 0.0, 0.0], [np.nan, 0.0, 0.0]],                    # inf and NaN
        ])
        dw = np.zeros(len(rows))
        dw[-3] = 1e308          # (1e308, 1e308, 1e308) + 1e308 overflows to inf
        with np.errstate(all="ignore"):
            got, raw, seen = _identity_step_batch(rows, dw)
            want = project_ball(raw)
        assert np.isinf(raw).any() and np.isnan(raw).any()
        assert np.array_equal(got, want, equal_nan=True)
        with np.errstate(all="ignore"):
            inside = raw[:, 0] * raw[:, 0] + raw[:, 1] * raw[:, 1] \
                + raw[:, 2] * raw[:, 2] <= sde_mod._INSIDE
        assert 0 < inside.sum() < len(rows)
        assert len(seen) == 1
        assert np.array_equal(seen[0], raw[~inside], equal_nan=True)

    def test_all_inside_batch_makes_no_call(self):
        rows = np.random.default_rng(51).uniform(-0.5, 0.5, size=(64, 3))
        got, raw, seen = _identity_step_batch(rows, np.zeros(64))
        assert seen == []
        assert np.array_equal(got, project_ball(raw))

    def test_all_outside_batch(self):
        rows = np.random.default_rng(52).uniform(0.6, 3.0, size=(64, 3))
        got, raw, seen = _identity_step_batch(rows, np.zeros(64))
        assert len(seen) == 1 and len(seen[0]) == 64
        assert np.array_equal(got, project_ball(raw))


@pytest.mark.parametrize("physical", [False, True])
def test_density_steps_yield_new_arrays(physical):
    # the loop reuses its product buffer; every yielded array must be new
    cfg, h = damping_cfg(h0_scale=0.5, t_horizon=0.05), 1e-2
    noise = np.random.default_rng(53).normal(scale=0.3, size=(6, 5))
    kept = [(k, r, g) for k, r, g, _ in _density_steps(cfg, PLUS, h, 6, 5, noise.T, physical)]
    copied = [(k, r.copy(), g.copy())
              for k, r, g, _ in _density_steps(cfg, PLUS, h, 6, 5, noise.T, physical)]
    assert len(kept) == 5
    for (k, r, g), (k2, r2, g2) in zip(kept, copied):
        assert k == k2
        assert np.array_equal(r, r2) and np.array_equal(g, g2)


def _one_member_kicked(num_paths, bad, kick=1.7e308, step=150, steps=300):
    """(cfg, h, noise) of a damped model from EXCITED whose member ``bad``
    takes the increment ``kick`` at ``step``. With 1.7e308 and 1, 2 or 1000
    members, that member's state overflows there and is NaN from then on,
    in both density forms; the rest stay finite."""
    h = 1e-3
    noise = np.random.default_rng(60).normal(scale=np.sqrt(h), size=(num_paths, steps))
    noise[bad, step] = kick
    return damping_cfg(h0_scale=0.5, t_horizon=steps * h), h, noise


class TestFinitePlanSwitch:
    """A member turns NaN mid-path, so the Euler product leaves its sparse
    plan, which ``_project`` vouches for, for the dense one: every member
    keeps the bits of its batch-of-one run, and a path those of
    ``_scalar_density``, which takes every product."""

    @staticmethod
    def _spy(monkeypatch):
        # the finite flag each step passes to bloch_apply; no check raises
        flags, real = [], sde_mod.bloch_apply

        def recording(r, terms, out, finite=None):
            flags.append(finite)
            return real(r, terms, out, finite)

        monkeypatch.setattr(sde_mod, "bloch_apply", recording)
        monkeypatch.setattr(sde_mod, "validate_batch", lambda states, step: states)
        return flags

    @pytest.mark.parametrize("physical", [False, True])
    @pytest.mark.parametrize("num_paths", [2, 1000])
    def test_members_match_batch_of_one(self, monkeypatch, num_paths, physical):
        flags = self._spy(monkeypatch)
        bad = num_paths // 2
        cfg, h, noise = _one_member_kicked(num_paths, bad)
        assert bloch_terms(_bloch_sde_matrix(cfg, h))[1] is not None
        kwargs = {"physical": True} if physical else {"with_weights": True}
        with np.errstate(all="ignore"):
            finals, weights = sde_ensemble_final(cfg, EXCITED, h, num_paths, noise=noise,
                                                 **kwargs)
            assert flags == [None] + [True] * 150 + [False] * 149
            assert np.all(np.isnan(finals[bad]))
            assert np.all(np.isfinite(np.delete(finals, bad, axis=0)))
            members = sorted({0, bad - 1, bad, num_paths - 1} | set(range(0, num_paths, 97))
                             | ({bad + 1} if bad + 1 < num_paths else set()))
            for j in members:
                one, w1 = sde_ensemble_final(cfg, EXCITED, h, 1, noise=noise[j:j + 1],
                                             **kwargs)
                assert_same_bits(finals[j].view(float), one[0].view(float), True, j)
                if not physical:
                    assert_same_bits(weights[j:j + 1], w1, True, j)

    @pytest.mark.parametrize("physical", [False, True])
    def test_path_matches_scalar_density(self, monkeypatch, physical):
        flags = self._spy(monkeypatch)
        cfg, h, noise = _one_member_kicked(1, 0)
        with np.errstate(all="ignore"):
            bloch, _ = _assert_density_paths_equal(cfg, EXCITED, h, noise[0], physical,
                                                   equal_nan=True)
        assert flags == [None] + [True] * 150 + [False] * 149
        assert np.all(np.isfinite(bloch[:151])) and np.all(np.isnan(bloch[151:]))


@pytest.mark.parametrize("physical", [False, True])
def test_nan_member_fails_the_check_like_the_full_check(monkeypatch, physical):
    # the cheap test first, max |r|^2 <= 1 + STATE_TOL, fails on the NaN
    # member, and the whole batch takes the full check at the same step,
    # with the text of a loop that takes the full check every time
    cfg, h, noise = _one_member_kicked(5, 2, np.nan)
    texts = []
    for state_tol in (sde_mod.STATE_TOL, -np.inf):
        monkeypatch.setattr(sde_mod, "STATE_TOL", state_tol)
        with np.errstate(all="ignore"), pytest.raises(NotAState, match="by step 199") as err:
            for _ in _density_steps(cfg, EXCITED, h, 5, 300, noise.T, physical):
                pass
        texts.append(str(err.value))
    assert texts[0] == texts[1]


def _wave_batch_of_one(cfg, v, h, noise):
    """``_wave_steps`` on a batch of one, in ``_scalar_wave``'s layout."""
    parts = [sde_mod._real_parts(v)]
    for _, w in _wave_steps(cfg, WaveFunction(v), h, 1, len(noise), noise[:, None]):
        parts.append(w[:, 0].copy())
    return np.array(parts)


def _assert_wave_paths_equal(cfg, v, h, noise, equal_nan=False):
    # the module attribute, which a test may patch for both cores
    m = sde_mod._wave_matrix(cfg, h)
    scalar = _scalar_wave(m, sde_mod._real_parts(v), h, noise)
    ensemble = _wave_batch_of_one(cfg, v, h, noise)
    assert scalar.shape == ensemble.shape
    assert np.array_equal(scalar, ensemble, equal_nan=equal_nan)
    return scalar


class TestScalarWave:
    """The single-path loop ``_scalar_wave`` against ``_wave_steps`` on a
    batch of one, bit for bit at every step."""

    @pytest.mark.parametrize("v", [PLUS_VEC, EXCITED_VEC], ids=["plus", "excited"])
    def test_matches_wave_steps_on_random_configs(self, v):
        rng = np.random.default_rng(51)
        for _ in range(4):
            h = 1e-3
            noise = rng.normal(scale=np.sqrt(h), size=400)
            _assert_wave_paths_equal(rand_config(rng), v, h, noise)

    def test_validates_at_the_steps_of_wave_steps(self, monkeypatch):
        # None is the initial state; then every VALIDATE_EVERY steps, the
        # last one and the recorded path as a whole. No vector passes the
        # scalar loop's cheap test here, so each of its checks is the full one
        monkeypatch.setattr(sde_mod, "STATE_TOL", -np.inf)
        calls = []
        original = sde_mod.validate_norms

        def recording(vectors, step):
            calls.append((step, vectors.shape))
            return original(vectors, step)

        monkeypatch.setattr(sde_mod, "validate_norms", recording)
        cfg = damping_cfg(h0_scale=0.5, t_horizon=0.25)
        simulate_wave(cfg, WaveFunction(PLUS_VEC), 1e-3, 5)
        scalar = calls[:]
        calls.clear()
        wave_path_batch_of_one(cfg, WaveFunction(PLUS_VEC), 1e-3, 5)
        # the oracle checks the whole path through qtraj.model's own name
        assert [k for k, _ in scalar[:-1]] == [k for k, _ in calls] == [None, 99, 199, 249]
        assert scalar[-1] == (250, (251, 2))

    def test_overflowing_increments_raise(self, monkeypatch):
        # the norm overflows: the vector becomes NaN in both loops, and the
        # next check fails with the same message
        cfg, h = damping_cfg(h0_scale=0.5), 1e-2
        with np.errstate(all="ignore"):
            noise = 1e308 * np.random.default_rng(53).standard_normal(150)
            with pytest.raises(NotAState, match="by step 99") as scalar:
                _scalar_wave(sde_mod._wave_matrix(cfg, h), sde_mod._real_parts(PLUS_VEC),
                             h, noise)
            with pytest.raises(NotAState) as ensemble:
                _wave_batch_of_one(cfg, PLUS_VEC, h, noise)
            assert str(scalar.value) == str(ensemble.value)
            monkeypatch.setattr(sde_mod, "validate_norms", lambda vectors, step: None)
            parts = _assert_wave_paths_equal(cfg, PLUS_VEC, h, noise, equal_nan=True)
        assert np.all(np.isnan(parts[-1]))

    @pytest.mark.parametrize("scale, nan", [(0.0, True), (1e-200, False)])
    def test_zero_norm_divides_as_numpy(self, monkeypatch, scale, nan):
        # raw = scale * psi: a zero sum of squares divides through numpy, so
        # 0/0 is NaN and an underflowed nonzero part is inf, not an exception
        m = np.zeros((4, 8))
        m[:, :4] = scale * np.eye(4)
        monkeypatch.setattr(sde_mod, "_wave_matrix", lambda cfg, h: m)
        monkeypatch.setattr(sde_mod, "validate_norms", lambda vectors, step: None)
        with np.errstate(all="ignore"):
            parts = _assert_wave_paths_equal(damping_cfg(), PLUS_VEC, 1e-3, np.zeros(2),
                                             equal_nan=True)
        assert np.all(np.isnan(parts[1])) == nan
        assert not np.any(np.isfinite(parts[1]))


NOT_POSITIVE = DensityMatrix(np.diag([2.0, -1.0]).astype(complex))
ALL_NAN = DensityMatrix(np.full((2, 2), np.nan, dtype=complex))


class TestInitialStateRejected:
    """A bad initial state is rejected where it enters a core, by an error
    that names it rather than a later step."""

    DENSITY_ENTRIES = {
        "ensemble": lambda cfg, rho0: sde_ensemble_final(cfg, rho0, 1e-2, 3,
                                                         base_seed=1),
        "belavkin": lambda cfg, rho0: simulate_belavkin(cfg, rho0, 1e-2, seed=1),
        "physical": lambda cfg, rho0: simulate_physical(cfg, rho0, 1e-2, seed=1),
        "master": lambda cfg, rho0: master_evolve(cfg, rho0, 1e-2),
        "master_on_grid": lambda cfg, rho0: master_on_grid(cfg, rho0, 20),
    }
    WAVE_ENTRIES = {
        "ensemble": lambda cfg, psi0: wave_ensemble_final(cfg, psi0, 1e-2, 3,
                                                          base_seed=1),
        "path": lambda cfg, psi0: simulate_wave(cfg, psi0, 1e-2, seed=1),
    }

    @pytest.mark.parametrize("rho0", [NOT_POSITIVE, ALL_NAN], ids=["diag", "nan"])
    @pytest.mark.parametrize("entry", sorted(DENSITY_ENTRIES))
    def test_density_entries(self, entry, rho0):
        with pytest.raises(NotAState, match="in the initial state"):
            self.DENSITY_ENTRIES[entry](damping_cfg(h0_scale=0.5), rho0)

    @pytest.mark.parametrize("v", [[3.0, 0.0], [np.nan, np.nan]], ids=["norm3", "nan"])
    @pytest.mark.parametrize("entry", sorted(WAVE_ENTRIES))
    def test_wave_entries(self, entry, v):
        psi0 = WaveFunction(np.array(v, dtype=complex))
        with pytest.raises(NotAState, match="in the initial state"):
            self.WAVE_ENTRIES[entry](damping_cfg(h0_scale=0.5), psi0)

    def test_master_path_validated_whole(self, monkeypatch):
        import qtraj.sde as sde_mod

        shapes = []
        original = sde_mod.validate_batch

        def recording(states, step):
            shapes.append(states.shape)
            return original(states, step)

        monkeypatch.setattr(sde_mod, "validate_batch", recording)
        master_evolve(damping_cfg(h0_scale=0.5), EXCITED, 1e-2)
        assert shapes == [(2, 2), (101, 2, 2)]


class TestBatchOfOneOracles:
    """Single paths against step-by-step loops of the matrix-form oracles,
    on the same noise; every recorded state is compared."""

    CONFIGS = [damping_cfg(h0_scale=0.5),
               *(rand_config(np.random.default_rng(40 + i)) for i in range(2))]

    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_belavkin_matches_euler_step_loop(self, cfg):
        path = simulate_belavkin(cfg, PLUS, 1e-3, seed=41)
        state = PLUS
        for k, dw in enumerate(path.noise):
            state = euler_step_density(state, 1e-3, dw, cfg.h0, cfg.coupling())
            assert max_abs(path.states[k + 1] - state.m) < 1e-12

    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_physical_matches_matrix_loop(self, cfg):
        h = 1e-3
        path = simulate_physical(cfg, PLUS, h, seed=42)
        c = cfg.coupling()
        rho, w = PLUS.m, 0.0
        for k, dw in enumerate(path.noise):
            back = backaction(rho, c)
            g = np.trace(rho @ (c + adjoint(c))).real
            rho = project_positive(rho + h * (lindblad(rho, cfg.h0, c) + g * back)
                                   + dw * back)
            w += dw + g * h
            assert max_abs(path.states[k + 1] - rho) < 1e-12
            assert abs(path.companion[k + 1] - w) < 1e-12

    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_wave_matches_wavefunction_step_loop(self, cfg):
        wave = simulate_wave(cfg, WaveFunction(PLUS_VEC), 1e-3, seed=43)
        psi = WaveFunction(PLUS_VEC)
        for k, dw in enumerate(wave.noise):
            psi = wavefunction_step(psi, 1e-3, dw, cfg.h0, cfg.coupling())
            assert max_abs(wave.vectors[k + 1] - psi.v) < 1e-12

    @pytest.mark.parametrize("simulate", [simulate_belavkin, simulate_physical])
    def test_projected_path_validated_whole(self, monkeypatch, simulate):
        import qtraj.sde as sde_mod

        shapes = []
        original = sde_mod.validate_batch

        def recording(states, step):
            shapes.append(states.shape)
            return original(states, step)

        monkeypatch.setattr(sde_mod, "validate_batch", recording)
        cfg = damping_cfg(h0_scale=0.5)
        simulate(cfg, EXCITED, 1e-3, seed=44)
        assert shapes[-1] == (1001, 2, 2)


class TestWaveValidation:
    def test_periodic_norm_checks(self, monkeypatch):
        import qtraj.sde as sde_mod

        calls = []
        original = sde_mod.validate_norms

        def counting(vectors, step):
            calls.append(step)
            return original(vectors, step)

        monkeypatch.setattr(sde_mod, "validate_norms", counting)
        wave_ensemble_final(damping_cfg(), WaveFunction(PLUS_VEC), 1e-3, 4,
                            base_seed=5)
        assert calls == [None, *range(VALIDATE_EVERY - 1, 1000, VALIDATE_EVERY)]

    def test_overflowing_path_rejected(self):
        # finite but huge increments overflow the norm to inf or NaN
        noise = np.full((2, 100), 1e300)
        with np.errstate(all="ignore"), pytest.raises(NotAState, match="by step 99"):
            wave_ensemble_final(damping_cfg(), WaveFunction(PLUS_VEC), 1e-2, 2,
                                noise=noise)

    def test_last_step_validated(self):
        # 50 steps never reach a VALIDATE_EVERY boundary: the final vectors
        # must still be checked rather than returned as NaN
        noise = np.full((2, 50), 1e300)
        with np.errstate(all="ignore"), pytest.raises(NotAState, match="by step 49"):
            wave_ensemble_final(damping_cfg(t_horizon=0.5), WaveFunction(PLUS_VEC),
                                1e-2, 2, noise=noise)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_noise_rejected(self, bad):
        cfg = damping_cfg()
        noise = np.zeros((2, 100))
        noise[1, 50] = bad
        with pytest.raises(ValueError, match="noise must be finite"):
            wave_ensemble_final(cfg, WaveFunction(PLUS_VEC), 1e-2, 2, noise=noise)
        with pytest.raises(ValueError, match="noise must be finite"):
            sde_ensemble_final(cfg, EXCITED, 1e-2, 2, noise=noise)


class TestInputGuards:
    @pytest.mark.parametrize("num_paths", [0, -3, 2.5, "4", None])
    def test_ensemble_size_is_a_positive_integer(self, num_paths):
        psi0 = WaveFunction(PLUS_VEC)
        for kwargs in ({"base_seed": 1}, {"noise": np.zeros((1, 100))}):
            with pytest.raises(ValueError, match="num_paths must be"):
                sde_ensemble_final(damping_cfg(), EXCITED, 1e-2, num_paths, **kwargs)
            with pytest.raises(ValueError, match="num_paths must be"):
                wave_ensemble_final(damping_cfg(), psi0, 1e-2, num_paths, **kwargs)
        # numpy integers are integers
        finals, _ = sde_ensemble_final(damping_cfg(), EXCITED, 1e-2, np.int64(2), base_seed=1)
        assert finals.shape == (2, 2, 2)

    @pytest.mark.parametrize("given", [{"base_seed": 1, "noise": np.zeros((2, 100))}, {}],
                             ids=["both", "neither"])
    def test_exactly_one_noise_source(self, given):
        with pytest.raises(ValueError, match="exactly one of base_seed and noise"):
            sde_ensemble_final(damping_cfg(), EXCITED, 1e-2, 2, **given)
        with pytest.raises(ValueError, match="exactly one of base_seed and noise"):
            wave_ensemble_final(damping_cfg(), WaveFunction(PLUS_VEC), 1e-2, 2, **given)

    def test_physical_form_has_no_weights(self):
        with pytest.raises(ValueError, match="physical form"):
            sde_ensemble_final(damping_cfg(), EXCITED, 1e-2, 3, base_seed=1,
                               physical=True, with_weights=True)

    @pytest.mark.parametrize("h", [np.nan, np.inf])
    def test_master_evolve_step(self, h):
        with pytest.raises(ValueError, match="step size"):
            master_evolve(damping_cfg(), EXCITED, h)

    def test_master_evolve_unstable_step(self):
        # damping rate 9 at h = 0.5 is outside RK4's stability region
        # (|R(-4.5)| = 8.5); the exact propagator takes it: the excited
        # population after two steps is e^-9
        path = master_evolve(damping_cfg(c_scale=3.0), EXCITED, 0.5)
        assert path.states.shape == (3, 2, 2)
        assert abs(path.states[-1][1, 1].real - np.exp(-9.0)) < 1e-13

    def test_master_evolve_step_too_large_for_the_generator(self):
        # c+c = 1e300 is finite, but h S_L at h = T = 1e10 is not
        cfg = damping_cfg(c_scale=1e150, t_horizon=1e10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepOutOfRange, match="h S_L is not finite"):
                master_evolve(cfg, EXCITED, 1e10)
        for bad in (np.nan, np.inf):
            with pytest.raises(StepOutOfRange, match="h S_L is not finite"):
                sde_mod._expm1(np.full((4, 4), bad), 1.0)
        # h S_L is finite, h0 = 1e300 sigma_z's (norm 2e298) and a growth
        # rate's, but about a thousand squarings overflow, with no warning
        for s_l in (lindblad_superop(np.diag([1e300, -1e300]), np.zeros((2, 2))),
                    1e300 * np.eye(4)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(StepOutOfRange, match=r"exp\(h S_L\) overflows"):
                    sde_mod._expm1(s_l, 1e-2)

    def test_euler_step_too_large_for_the_rate(self, monkeypatch):
        # h ||S_L|| <= 2, i.e. h gamma <= 1 for damping at rate gamma
        for cfg, h in ((damping_cfg(c_scale=30.0), 1e-2), (damping_cfg(c_scale=11.0), 1e-2),
                       (damping_cfg(c_scale=1.3e154), 1e-3)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(StepOutOfRange, match="too large for the generator S_L"):
                    sde_ensemble_final(cfg, EXCITED, h, 2, base_seed=1)
                with pytest.raises(StepOutOfRange, match="too large for the generator S_L"):
                    simulate_belavkin(cfg, EXCITED, h, seed=1)
                with pytest.raises(StepOutOfRange, match="too large for the generator S_L"):
                    wave_ensemble_final(cfg, WaveFunction(PLUS_VEC), h, 2, base_seed=1)
        # h gamma = 1 is inside
        finals, _ = sde_ensemble_final(damping_cfg(c_scale=10.0), EXCITED, 1e-2, 2, base_seed=1)
        assert_valid_states(finals)
        monkeypatch.setattr(sde_mod, "lindblad_superop", lambda h0, c: np.full((4, 4), np.nan))
        with pytest.raises(StepOutOfRange, match="too large for the generator S_L"):
            sde_ensemble_final(damping_cfg(), EXCITED, 1e-3, 2, base_seed=1)

    @pytest.mark.parametrize("h", [1e-2, 5e-3])
    def test_euler_step_beyond_horizon(self, h):
        cfg = damping_cfg(t_horizon=0.004)
        with pytest.raises(ValueError, match=r"step size must be in \(0, 0.004\]"):
            sde_ensemble_final(cfg, EXCITED, h, 2, base_seed=1)
        with pytest.raises(ValueError, match="step size"):
            simulate_belavkin(cfg, EXCITED, h, seed=1)
        with pytest.raises(ValueError, match="step size"):
            wave_ensemble_final(cfg, WaveFunction(PLUS_VEC), h, 2, base_seed=1)

    @pytest.mark.parametrize("h", [0.006, 0.003, 7e-4])
    def test_step_must_divide_the_horizon(self, h):
        cfg = damping_cfg()
        with pytest.raises(StepOutOfRange, match="does not divide the horizon"):
            sde_ensemble_final(cfg, EXCITED, h, 2, base_seed=1)
        with pytest.raises(StepOutOfRange, match="does not divide the horizon"):
            simulate_belavkin(cfg, EXCITED, h, seed=1)
        with pytest.raises(StepOutOfRange, match="does not divide the horizon"):
            master_evolve(cfg, EXCITED, 2 * h)

    def test_step_within_tolerance_divides(self):
        # T / h a few ulps off an integer, as 1 / 1e-3 is, divides
        cfg = damping_cfg(t_horizon=0.3)
        assert len(master_evolve(cfg, EXCITED, 0.1).grid) == 4
        assert sde_mod._whole_steps(1.0, 1.0 / (1000 * (1 + 0.5 * STEP_DIVIDES_TOL))) == 1000
        assert sde_mod._whole_steps(1.0, 1.0 / (1000 * (1 + 2 * STEP_DIVIDES_TOL))) is None

    def test_dividing_step(self):
        for t, h in [(1.0, 5e-4), (0.5, 5e-4), (1.0, 1e-3), (0.3, 1e-3)]:
            assert dividing_step(t, h) == h
        third = 1.0 / 3.0
        assert dividing_step(third, 5e-4) == third / 667
        assert dividing_step(third, 5e-4) <= 5e-4
        assert dividing_step(1e-4, 5e-4) == 1e-4

    @pytest.mark.parametrize("h", [np.nan, np.inf])
    def test_euler_step_density_step(self, h):
        with pytest.raises(ValueError, match="step size"):
            euler_step_density(EXCITED, h, 0.0, np.zeros((2, 2)), LOWERING)

    @pytest.mark.parametrize("h", [np.nan, np.inf])
    def test_wavefunction_step_step(self, h):
        with pytest.raises(ValueError, match="step size"):
            wavefunction_step(WaveFunction(PLUS_VEC), h, 0.0, np.zeros((2, 2)), LOWERING)


def _traced_peak(run) -> int:
    """Bytes ``run()`` allocates at its peak above what was live before it,
    under tracemalloc."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


class TestEnsembleMemory:
    """A seeded ensemble reads its increments in bounded blocks, so its
    memory does not grow with the steps: 1000 paths over 1000 steps would
    hold 8 MB of increments as one block."""

    CALLS = {
        "weights": lambda cfg, h: sde_ensemble_final(cfg, EXCITED, h, 1000, base_seed=3,
                                                     with_weights=True),
        "physical": lambda cfg, h: sde_ensemble_final(cfg, EXCITED, h, 1000, base_seed=3,
                                                      physical=True),
        "wave": lambda cfg, h: wave_ensemble_final(cfg, WaveFunction(EXCITED_VEC), h, 1000,
                                                   base_seed=3),
    }

    @pytest.mark.parametrize("form", CALLS)
    def test_peak_is_bounded_and_flat_in_the_steps(self, form):
        from qtraj.cli import build_model

        cfg, call = build_model({}, {}), self.CALLS[form]
        call(cfg, 1e-2)     # first-call allocations (caches, lazy imports)
        peak = _traced_peak(lambda: call(cfg, 1e-3))
        assert peak < 2 * 2**20
        # ten times the steps: another 72 MB as one block
        assert _traced_peak(lambda: call(cfg, 1e-4)) <= peak + 2**16


class TestScalarLoopChecks:
    """The scalar density and wave loops check a state by a cheap test
    first and by ``validate_batch`` or ``validate_norms`` only where that
    fails: the same states pass and fail as in the ensemble loops, with the
    same message at the same step.
    The density matrix here steps every state to (s, 0, 0), with the
    projection switched off so that the state reaches the check."""

    @staticmethod
    def _to_one_state(monkeypatch, s):
        a = np.zeros((4, 7))
        a[0, 0] = s
        monkeypatch.setattr(sde_mod, "_bloch_sde_matrix", lambda cfg, h: a)
        monkeypatch.setattr(sde_mod, "_INSIDE", np.inf)
        return a

    @pytest.mark.parametrize("physical", [False, True])
    @pytest.mark.parametrize("s", [np.nan, np.inf, 1 + 3e-10],
                             ids=["nan", "inf", "past-tolerance"])
    def test_density_rejects_like_the_full_check(self, monkeypatch, s, physical):
        a = self._to_one_state(monkeypatch, s)
        noise = np.zeros(250)
        with np.errstate(all="ignore"):
            with pytest.raises(NotAState, match="by step 99") as scalar:
                _scalar_density(a, density_to_bloch(EXCITED.m), 1e-3, noise, physical)
            with pytest.raises(NotAState) as ensemble:
                _density_batch_of_one(damping_cfg(), EXCITED, 1e-3, noise, physical)
        assert str(scalar.value) == str(ensemble.value)

    @pytest.mark.parametrize("physical", [False, True])
    @pytest.mark.parametrize("s, full_checks", [(1 + 1e-10, [99, 199, 249]),
                                                (1 + 1e-11, []), (0.5, [])])
    def test_density_passes_like_the_full_check(self, monkeypatch, s, full_checks,
                                                physical):
        # |r|^2 = 1 + 2e-10 fails the cheap test, and the smallest eigenvalue
        # -5e-11 passes the full one; 1 + 2e-11 and 0.25 pass the cheap test
        self._to_one_state(monkeypatch, s)
        calls = []
        original = sde_mod.validate_batch

        def recording(states, step):
            calls.append(step)
            return original(states, step)

        monkeypatch.setattr(sde_mod, "validate_batch", recording)
        r0 = density_to_bloch(EXCITED.m)
        bloch, _ = _scalar_density(sde_mod._bloch_sde_matrix(None, 1e-3), r0, 1e-3,
                                   np.zeros(250), physical)
        assert calls == full_checks
        assert np.all(bloch[1:] == [s, 0.0, 0.0])
        _assert_density_paths_equal(damping_cfg(), EXCITED, 1e-3, np.zeros(250), physical)

    @pytest.mark.parametrize("scale", [0.0, 1e300], ids=["zero", "overflow"])
    def test_wave_rejects_like_the_full_check(self, monkeypatch, scale):
        # raw = scale * psi: a zero norm divides to NaN, an overflowing one
        # to zero and then NaN
        m = np.zeros((4, 8))
        m[:, :4] = scale * np.eye(4)
        monkeypatch.setattr(sde_mod, "_wave_matrix", lambda cfg, h: m)
        noise = np.zeros(250)
        with np.errstate(all="ignore"):
            with pytest.raises(NotAState, match="by step 99") as scalar:
                _scalar_wave(m, sde_mod._real_parts(PLUS_VEC), 1e-3, noise)
            with pytest.raises(NotAState) as ensemble:
                _wave_batch_of_one(damping_cfg(), PLUS_VEC, 1e-3, noise)
        assert str(scalar.value) == str(ensemble.value)

    def test_wave_path_passes_the_cheap_test(self, monkeypatch):
        # the renormalized vectors of a finite path have |psi|^2 = 1 to a
        # few ulps: no block needs the full check
        cfg, h = damping_cfg(h0_scale=0.5), 1e-3
        noise = np.random.default_rng(54).normal(scale=np.sqrt(h), size=250)
        calls = []
        monkeypatch.setattr(sde_mod, "validate_norms",
                            lambda vectors, step: calls.append(step))
        _scalar_wave(sde_mod._wave_matrix(cfg, h), sde_mod._real_parts(PLUS_VEC), h, noise)
        assert calls == []


@pytest.mark.parametrize("form", ["density", "physical", "wave"])
def test_scalar_loops_publish_checked_rows(monkeypatch, form):
    # a block's rows reach the table, and the feed hears of them, only after
    # its last state is checked; every block goes through the full check here
    monkeypatch.setattr(sde_mod, "STATE_TOL", -np.inf)
    events = []
    name = "validate_norms" if form == "wave" else "validate_batch"
    original = getattr(sde_mod, name)

    def check(states, step):
        events.append(("check", step))
        return original(states, step)

    monkeypatch.setattr(sde_mod, name, check)
    cfg, h = damping_cfg(h0_scale=0.5), 1e-3
    noise = np.random.default_rng(55).normal(scale=np.sqrt(h), size=250)
    table = np.full((251, 4), -7.0)
    done = []

    def publish(rows):
        assert np.all(table[done[-1] if done else 0:rows] != -7.0)
        assert np.all(table[rows:] == -7.0)
        done.append(rows)
        events.append(("publish", rows))

    if form == "wave":
        args = (sde_mod._wave_matrix(cfg, h), sde_mod._real_parts(PLUS_VEC), h, noise)
        loop = _scalar_wave
    else:
        args = (_bloch_sde_matrix(cfg, h), density_to_bloch(PLUS.m), h, noise,
                form == "physical")
        loop = _scalar_density
    loop(*args, table, publish)
    assert events == [e for k in (99, 199, 249) for e in (("check", k), ("publish", k + 2))]
    events.clear()
    own = np.full_like(table, -7.0)
    loop(*args, own)
    assert np.array_equal(table, own, equal_nan=True)
