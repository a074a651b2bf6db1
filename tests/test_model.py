import warnings

import numpy as np
import pytest

from qtraj import (
    DegenerateSpectrum,
    DensityMatrix,
    InteractionUnitary,
    ModelConfig,
    NotAState,
    build_unitary,
    make_observable,
)
from qtraj.linalg import adjoint, max_abs, tensor
from qtraj.model import (
    FIELD_HAMILTONIANS,
    ID2,
    validate_batch,
    validate_norms,
)

from helpers import LOWERING, damping_cfg, rand_config, trivial_cfg
from oracles import (
    build_total_hamiltonian,
    check_state,
    field_ground_energy,
    make_density,
    make_wave,
    purity,
)


class TestMakeDensity:
    def test_pure_ground(self):
        rho = make_density(np.diag([1.0, 0.0]))
        assert max_abs(rho.m - np.diag([1.0, 0.0])) < 1e-14

    def test_maximally_mixed(self):
        rho = make_density(0.5 * np.eye(2))
        assert abs(purity(rho) - 0.5) < 1e-14

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NotAState):
            make_density(np.diag([2.0, -1.0]))

    def test_bad_trace_rejected(self):
        with pytest.raises(NotAState):
            make_density(np.diag([1.0, 1.0]))

    def test_non_hermitian_rejected(self):
        with pytest.raises(NotAState):
            make_density(np.array([[0.5, 0.1], [0.3, 0.5]]))

    def test_tolerated_drift_is_cleaned(self):
        rho = make_density(np.diag([1.0 + 5e-11, -5e-11]))
        assert rho.m[1, 1].real >= 0.0
        assert abs(rho.m.trace() - 1.0) < 1e-15


class TestPurity:
    def test_pure(self):
        assert abs(purity(DensityMatrix(np.diag([1.0, 0.0]).astype(complex))) - 1.0) < 1e-14

    def test_mixed(self):
        assert abs(purity(DensityMatrix(0.5 * ID2)) - 0.5) < 1e-14

    def test_three_quarters(self):
        # Tr(rho^2) = (3/4)^2 + (1/4)^2 = 5/8
        rho = DensityMatrix(np.diag([0.75, 0.25]).astype(complex))
        assert abs(purity(rho) - 5.0 / 8.0) < 1e-14


class TestMakeObservable:
    def test_diagonal_at_zero_angle(self):
        obs = make_observable(0.0, 1.0, -1.0)
        assert max_abs(obs.p0 - np.diag([1.0, 0.0])) < 1e-14

    def test_half_pi(self):
        obs = make_observable(np.pi / 2, 1.0, -1.0)
        assert max_abs(obs.p0 - 0.5 * np.ones((2, 2))) < 1e-14

    def test_projector_algebra(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            obs = make_observable(rng.uniform(0, np.pi), 1.0, 2.0)
            assert max_abs(obs.p0 + obs.p1 - ID2) < 1e-12
            assert max_abs(obs.p0 @ obs.p1) < 1e-12
            assert max_abs(obs.p0 @ obs.p0 - obs.p0) < 1e-12
            assert max_abs(obs.p0 - adjoint(obs.p0)) < 1e-14

    def test_nondiagonal_entries_positive(self):
        # both diagonal projector entries stay away from zero inside (0, pi)
        for phi in np.linspace(0.05, np.pi - 0.05, 20):
            obs = make_observable(phi, 1.0, -1.0)
            assert obs.p0[0, 0].real > 0.0
            assert obs.p1[0, 0].real > 0.0

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateSpectrum):
            make_observable(0.3, 1.0, 1.0)


class TestModelConfig:
    def test_validation(self):
        obs = make_observable(np.pi / 2, 1.0, -1.0)
        with pytest.raises(ValueError):
            ModelConfig(h0=np.zeros((2, 2)), c=LOWERING, observable=obs,
                        n=0, t_horizon=1.0)
        with pytest.raises(ValueError):
            ModelConfig(h0=np.zeros((2, 2)), c=LOWERING, observable=obs,
                        n=10, t_horizon=0.0)
        with pytest.raises(ValueError):
            ModelConfig(h0=np.array([[0, 1], [0, 0]]), c=LOWERING,
                        observable=obs, n=10, t_horizon=1.0)
        with pytest.raises(ValueError):
            ModelConfig(h0=np.zeros((2, 2)), c=LOWERING, observable=obs,
                        n=10, t_horizon=1.0, field_hamiltonian="nope")

    def test_coupling_rate_must_be_finite(self):
        # every entry of c is finite, but c+c = 1e400 I is not
        obs = make_observable(np.pi / 2, 1.0, -1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"c\+c and theta must be finite"):
                ModelConfig(h0=np.zeros((2, 2)), c=1e200 * (LOWERING + LOWERING.T),
                            observable=obs, n=10, t_horizon=1.0)
        ModelConfig(h0=np.zeros((2, 2)), c=1e150 * LOWERING, observable=obs,
                    n=10, t_horizon=1.0)

    def test_theta_rotates_coupling(self):
        cfg = damping_cfg(n=50)
        rotated = ModelConfig(h0=cfg.h0, c=cfg.c, observable=cfg.observable,
                              n=50, t_horizon=1.0, theta=np.pi)
        negated = ModelConfig(h0=cfg.h0, c=-cfg.c, observable=cfg.observable,
                              n=50, t_horizon=1.0)
        assert max_abs(rotated.coupling() - negated.coupling()) < 1e-15
        u1 = build_unitary(rotated)
        u2 = build_unitary(negated)
        assert max_abs(u1.matrix - u2.matrix) < 1e-14


class TestMakeWave:
    def test_norm_enforced(self):
        w = make_wave(np.array([1.0, 0.0]))
        assert abs(np.linalg.norm(w.v) - 1.0) < 1e-15
        with pytest.raises(ValueError):
            make_wave(np.array([1.0, 1.0]))


class TestTotalHamiltonian:
    def test_free_field_only(self):
        cfg = ModelConfig(h0=np.zeros((2, 2)), c=np.zeros((2, 2)),
                          observable=make_observable(np.pi / 2, 1.0, -1.0),
                          n=10, t_horizon=1.0, field_hamiltonian="ground_energy")
        expected = tensor(ID2, FIELD_HAMILTONIANS["ground_energy"])
        assert max_abs(build_total_hamiltonian(cfg) - expected) < 1e-14

    def test_hermitian(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            h = build_total_hamiltonian(rand_config(rng))
            assert max_abs(h - adjoint(h)) < 1e-12

    def test_coupling_norm_scaling(self):
        rng = np.random.default_rng(2)
        cfg = rand_config(rng, n_low=100, n_high=101)
        cfg4 = ModelConfig(h0=cfg.h0, c=cfg.c, observable=cfg.observable,
                           n=4 * cfg.n, t_horizon=1.0)
        free = ModelConfig(h0=cfg.h0, c=np.zeros((2, 2)),
                           observable=cfg.observable, n=cfg.n, t_horizon=1.0)
        base = build_total_hamiltonian(free)
        dev1 = max_abs(build_total_hamiltonian(cfg) - base)
        dev4 = max_abs(build_total_hamiltonian(cfg4) - base)
        assert abs(dev4 - 0.5 * dev1) < 1e-12


class TestBuildUnitary:
    def test_trivial_model(self):
        u = build_unitary(trivial_cfg(n=37))
        assert max_abs(u.l00 - ID2) < 1e-14
        assert max_abs(u.l10) < 1e-14

    def test_unitarity_random(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            u = build_unitary(rand_config(rng))
            assert max_abs(u.matrix @ adjoint(u.matrix) - np.eye(4)) < 1e-12

    def test_block_reassembly(self):
        u = build_unitary(damping_cfg(n=100, h0_scale=0.5))
        rebuilt = np.block([[u.l00, u.l01], [u.l10, u.l11]])
        assert np.array_equal(rebuilt, u.matrix)

    def test_emission_block_rate(self):
        # sqrt(n) L10 -> c at rate 1/n: the n-scaled error is stable in n
        cfg0 = damping_cfg(h0_scale=0.5)
        scaled = []
        for n in (100, 1000, 10_000):
            cfg = ModelConfig(h0=cfg0.h0, c=cfg0.c, observable=cfg0.observable,
                              n=n, t_horizon=1.0)
            u = build_unitary(cfg)
            err = max_abs(np.sqrt(n) * u.l10 - cfg.c)
            assert err <= 2.0 / np.sqrt(n)
            scaled.append(n * err)
        assert max(scaled) <= 2.0 * max_abs(cfg0.c)
        assert max(scaled) / min(scaled) < 1.5
        assert scaled[0] >= scaled[1] >= scaled[2] - 1e-9

    @pytest.mark.parametrize("field", ["excited_energy", "ground_energy"])
    def test_survival_block_expansion(self, field):
        # exp(i h E0) L00 = I + (-i h0 - c+c/2)/n + O(1/n^2): slope ~ 2
        cfg0 = damping_cfg(h0_scale=0.5)
        residuals = []
        ns = (100, 1000, 10_000)
        for n in ns:
            cfg = ModelConfig(h0=cfg0.h0, c=cfg0.c, observable=cfg0.observable,
                              n=n, t_horizon=1.0, field_hamiltonian=field)
            u = build_unitary(cfg)
            h = 1.0 / n
            phase = np.exp(1j * h * field_ground_energy(cfg))
            ref = ID2 + h * (-1j * cfg.h0 - 0.5 * adjoint(cfg.c) @ cfg.c)
            residuals.append(max_abs(phase * u.l00 - ref))
        slope = np.polyfit(np.log(ns), np.log(residuals), 1)[0]
        assert 1.7 <= -slope <= 2.3

    def test_from_matrix_rejects_nonunitary(self):
        one_nan = np.eye(4)
        one_nan[1, 2] = np.nan
        for u in (np.eye(4) * 2.0, np.full((4, 4), np.nan), one_nan):
            with pytest.raises(ValueError):
                InteractionUnitary.from_matrix(u)


class TestInvariantGuardsRejectNan:
    def test_check_state(self):
        with pytest.raises(NotAState):
            check_state(np.full((2, 2), np.nan))

    def test_check_state_nan_trace(self):
        m = np.diag([np.nan, 1.0]).astype(complex)
        with pytest.raises(NotAState):
            check_state(m)

    def test_validate_batch(self):
        with pytest.raises(NotAState):
            validate_batch(np.full((3, 2, 2), np.nan, dtype=complex), step=0)

    def test_validate_batch_passes_and_symmetrizes(self):
        states = np.stack([np.diag([0.25, 0.75]).astype(complex)] * 3)
        states[:, 0, 1] = 0.1 + 1e-13
        states[:, 1, 0] = 0.1
        out = validate_batch(states, step=0)
        assert np.array_equal(out, np.conjugate(np.swapaxes(out, -1, -2)))

    def test_validate_norms(self):
        with pytest.raises(NotAState):
            validate_norms(np.full((3, 2), np.nan, dtype=complex), step=0)
        with pytest.raises(NotAState):
            validate_norms(np.array([[1.0, 1e-4]], dtype=complex), step=0)
        validate_norms(np.array([[0.6, 0.8j]]), step=0)

    def test_make_wave(self):
        with pytest.raises(ValueError):
            make_wave(np.array([np.nan, 1.0]))

    @pytest.mark.parametrize("field, value", [
        ("h0", np.diag([np.nan, 0.0])), ("c", np.full((2, 2), np.inf)),
        ("theta", np.nan), ("t_horizon", np.nan), ("t_horizon", np.inf)])
    def test_model_config(self, field, value):
        kwargs = dict(h0=np.zeros((2, 2)), c=LOWERING,
                      observable=make_observable(np.pi / 2, 1.0, -1.0),
                      n=10, t_horizon=1.0)
        kwargs[field] = value
        with pytest.raises(ValueError):
            ModelConfig(**kwargs)

    @pytest.mark.parametrize("args", [(np.nan, 1.0, -1.0), (0.3, np.inf, -1.0),
                                      (0.3, 1.0, np.nan)])
    def test_make_observable(self, args):
        with pytest.raises(ValueError):
            make_observable(*args)
