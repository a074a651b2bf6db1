import numpy as np
import pytest

from qtraj import (
    DegenerateProbability,
    DensityMatrix,
    InteractionUnitary,
    ModelConfig,
    build_unitary,
    make_observable,
    run_trajectory,
)
from qtraj import convergence
from qtraj.convergence import EnsembleSpec, residual_decay
import qtraj.discrete as discrete_mod
from qtraj.discrete import (
    _chain_matrix,
    _scalar_chain,
    branch_superops,
    drive_ensemble,
    ensemble_streams,
)
from qtraj.linalg import (adjoint, bloch_superop, bloch_terms, bloch_to_density,
                          density_to_bloch, max_abs, tensor)
from qtraj.model import NotAState
from qtraj.rng import derive_seed, generator_for
from qtraj.sde import master_on_grid

from helpers import (
    EXCITED,
    SIGNED_ZEROS,
    assert_same_bits,
    assert_valid_states,
    damping_cfg,
    rand_config,
    rand_density,
    trivial_cfg,
)
from oracles import (
    FIELD_GROUND,
    apply_superop,
    backaction,
    drive_ensemble_where,
    increment_update,
    interaction_state,
    lindblad,
    measurement_step,
    nonnormalized_maps,
    run_trajectory_batch_of_one,
)

IDENTITY_U = InteractionUnitary.from_matrix(np.eye(4, dtype=complex))
DIAG_OBS = make_observable(0.0, 1.0, -1.0)


class TestInteractionState:
    def test_identity_interaction(self):
        rng = np.random.default_rng(0)
        rho = rand_density(rng)
        mu = interaction_state(rho, IDENTITY_U)
        assert max_abs(mu - tensor(rho.m, FIELD_GROUND)) < 1e-14

    def test_block_identity(self):
        # the joint state assembles from the first-column blocks of U
        rng = np.random.default_rng(1)
        for _ in range(200):
            cfg = rand_config(rng)
            u = build_unitary(cfg)
            rho = rand_density(rng)
            mu = interaction_state(rho, u)
            blocks = np.block([
                [u.l00 @ rho.m @ adjoint(u.l00), u.l00 @ rho.m @ adjoint(u.l10)],
                [u.l10 @ rho.m @ adjoint(u.l00), u.l10 @ rho.m @ adjoint(u.l10)],
            ])
            assert max_abs(mu - blocks) < 1e-12

    def test_trace_one(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            mu = interaction_state(rand_density(rng), build_unitary(rand_config(rng)))
            assert abs(mu.trace() - 1.0) < 1e-12


def _branch_maps_batch(rho, u, a):
    """Branch maps on a (..., 2, 2) stack of states through the stepping
    core's superoperator; equal to ``nonnormalized_maps`` entrywise."""
    rho = np.asarray(rho, dtype=complex)
    m = apply_superop(rho.reshape(-1, 4), branch_superops(u, a))
    return m[:, :4].reshape(rho.shape), m[:, 4:].reshape(rho.shape)


class TestNonnormalizedMaps:
    def test_identity_unitary_diagonal_observable(self):
        rng = np.random.default_rng(3)
        rho = rand_density(rng)
        m0, m1 = nonnormalized_maps(rho, IDENTITY_U, DIAG_OBS)
        assert max_abs(m0 - rho.m) < 1e-14
        assert max_abs(m1) < 1e-14

    def test_traces_sum_to_one_and_psd(self):
        rng = np.random.default_rng(4)
        for _ in range(10_000):
            cfg = rand_config(rng)
            rho = rand_density(rng)
            m0, m1 = nonnormalized_maps(rho, build_unitary(cfg), cfg.observable)
            assert abs(m0.trace().real + m1.trace().real - 1.0) < 1e-12
            for m in (m0, m1):
                eigs = np.linalg.eigvalsh(0.5 * (m + adjoint(m)))
                assert eigs.min() > -1e-12

    def test_batch_matches_literal(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            cfg = rand_config(rng)
            u = build_unitary(cfg)
            rho = rand_density(rng)
            lit0, lit1 = nonnormalized_maps(rho, u, cfg.observable)
            fast0, fast1 = _branch_maps_batch(rho.m, u, cfg.observable)
            assert max_abs(lit0 - fast0) < 1e-13
            assert max_abs(lit1 - fast1) < 1e-13

    def test_branch_superops_match_literal(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            cfg = rand_config(rng)
            u = build_unitary(cfg)
            rho = rand_density(rng)
            s = branch_superops(u, cfg.observable)
            assert s.shape == (4, 8)
            for i, lit in enumerate(nonnormalized_maps(rho, u, cfg.observable)):
                got = (rho.m.reshape(4) @ s[:, 4 * i:4 * i + 4]).reshape(2, 2)
                assert max_abs(got - lit) < 1e-13

    def test_diagonal_observable_click_rate(self):
        # n * Tr[branch 1] approaches the jump rate Tr[c rho c+] as n grows
        rng = np.random.default_rng(6)
        rho = rand_density(rng)
        cfg0 = damping_cfg(phi=0.0, h0_scale=0.5)
        target = (cfg0.c @ rho.m @ adjoint(cfg0.c)).trace().real
        errs = []
        for n in (100, 1000, 10_000):
            cfg = ModelConfig(h0=cfg0.h0, c=cfg0.c, observable=cfg0.observable,
                              n=n, t_horizon=1.0)
            _, m1 = nonnormalized_maps(rho, build_unitary(cfg), cfg.observable)
            errs.append(abs(n * m1.trace().real - target))
        assert errs[0] > errs[1] > errs[2]
        assert errs[-1] < 1e-3


class TestMeasurementStep:
    def test_identity_unitary_is_deterministic(self):
        rng = np.random.default_rng(7)
        rho = rand_density(rng)
        for draw in (0.0, 0.3, 0.999):
            step = measurement_step(rho, IDENTITY_U, DIAG_OBS, draw)
            assert step.outcome == 0
            assert step.p == pytest.approx(1.0, abs=1e-12)
            assert step.x == 0.0
            assert max_abs(step.next_state.m - rho.m) < 1e-13

    def test_two_point_moments_exact(self):
        # closed form: p(-sqrt(q/p)) + q sqrt(p/q) = 0, p(q/p) + q(p/q) = 1
        rng = np.random.default_rng(8)
        for _ in range(300):
            cfg = rand_config(rng)
            u = build_unitary(cfg)
            rho = rand_density(rng)
            m0, m1 = nonnormalized_maps(rho, u, cfg.observable)
            p, q = m0.trace().real, m1.trace().real
            x0, x1 = -np.sqrt(q / p), np.sqrt(p / q)
            assert abs(p * x0 + q * x1) < 1e-12
            assert abs(p * x0 * x0 + q * x1 * x1 - 1.0) < 1e-12

    def test_sampling_convention(self):
        # outcome 1 iff draw < q
        rng = np.random.default_rng(9)
        cfg = rand_config(rng)
        u = build_unitary(cfg)
        rho = rand_density(rng)
        m0, m1 = nonnormalized_maps(rho, u, cfg.observable)
        q = m1.trace().real
        assert measurement_step(rho, u, cfg.observable, q - 1e-9).outcome == 1
        assert measurement_step(rho, u, cfg.observable, q + 1e-9).outcome == 0

    def test_branch_reconstruction(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            cfg = rand_config(rng)
            u = build_unitary(cfg)
            rho = rand_density(rng)
            m0, m1 = nonnormalized_maps(rho, u, cfg.observable)
            for draw, branch, weight in ((0.999, m0, m0.trace().real),
                                         (0.0, m1, m1.trace().real)):
                step = measurement_step(rho, u, cfg.observable, draw)
                assert max_abs(step.next_state.m * (step.p if step.outcome == 0
                                                    else step.q) - branch) < 1e-12

    def test_x_values(self):
        rng = np.random.default_rng(11)
        cfg = rand_config(rng)
        u = build_unitary(cfg)
        rho = rand_density(rng)
        s0 = measurement_step(rho, u, cfg.observable, 0.9999999)
        s1 = measurement_step(rho, u, cfg.observable, 0.0)
        assert s0.x == pytest.approx(-np.sqrt(s0.q / s0.p), abs=1e-12)
        assert s1.x == pytest.approx(np.sqrt(s1.p / s1.q), abs=1e-12)
        assert s0.p + s0.q == pytest.approx(1.0, abs=1e-12)


class TestIncrementUpdate:
    def test_closed_forms(self):
        # outcome 0 collapses the expression to branch0/p, outcome 1 to branch1/q
        rng = np.random.default_rng(12)
        for _ in range(200):
            cfg = rand_config(rng)
            u = build_unitary(cfg)
            rho = rand_density(rng)
            m0, m1 = nonnormalized_maps(rho, u, cfg.observable)
            p, q = m0.trace().real, m1.trace().real
            assert max_abs(increment_update(rho, u, cfg.observable, 0) - m0 / p) < 1e-12
            assert max_abs(increment_update(rho, u, cfg.observable, 1) - m1 / q) < 1e-12

    def test_matches_measurement_step(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            cfg = rand_config(rng)
            u = build_unitary(cfg)
            rho = rand_density(rng)
            draw = rng.random()
            step = measurement_step(rho, u, cfg.observable, draw)
            rhs = increment_update(rho, u, cfg.observable, step.outcome)
            assert max_abs(rhs - step.next_state.m) < 1e-12

    def test_null_branch_raises(self):
        rng = np.random.default_rng(14)
        rho = rand_density(rng)
        with pytest.raises(DegenerateProbability):
            increment_update(rho, IDENTITY_U, DIAG_OBS, 1)


class TestRunTrajectory:
    def test_trivial_dynamics_constant(self):
        record = run_trajectory(trivial_cfg(n=200), EXCITED, seed=1)
        assert max_abs(record.states - EXCITED.m) < 1e-12
        assert record.steps == 200

    def test_record_lengths(self):
        cfg = damping_cfg(n=64, t_horizon=0.77)
        record = run_trajectory(cfg, EXCITED, seed=3)
        steps = int(np.floor(64 * 0.77))
        assert len(record.states) == steps + 1
        assert len(record.outcomes) == steps
        assert len(record.x_increments) == steps
        assert record.probabilities.shape == (steps, 2)

    def test_determinism_and_seed_sensitivity(self):
        cfg = damping_cfg(n=100)
        r1 = run_trajectory(cfg, EXCITED, seed=42)
        r2 = run_trajectory(cfg, EXCITED, seed=42)
        assert np.array_equal(r1.states, r2.states)
        assert np.array_equal(r1.outcomes, r2.outcomes)
        r3 = run_trajectory(cfg, EXCITED, seed=43)
        assert not np.array_equal(r1.outcomes, r3.outcomes)

    def test_states_valid_along_path(self):
        cfg = damping_cfg(n=500, h0_scale=0.5)
        record = run_trajectory(cfg, EXCITED, seed=5)
        assert_valid_states(record.states)

    def test_per_step_validation_mode(self, monkeypatch):
        # validating every step (debug cadence) leaves the outcome word
        # unchanged and only re-symmetrizes at rounding level
        import qtraj.discrete as discrete_mod

        cfg = damping_cfg(n=300, h0_scale=0.5)
        release = run_trajectory(cfg, EXCITED, seed=12)
        monkeypatch.setattr(discrete_mod, "VALIDATE_EVERY", 1)
        debug = run_trajectory(cfg, EXCITED, seed=12)
        assert np.array_equal(release.outcomes, debug.outcomes)
        assert np.max(np.abs(release.states - debug.states)) < 1e-12
        assert_valid_states(debug.states)

    @pytest.mark.parametrize("m", [np.diag([2.0, -1.0]), np.full((2, 2), np.nan)],
                             ids=["diag", "nan"])
    def test_bad_initial_state_rejected_at_entry(self, m):
        rho0 = DensityMatrix(m.astype(complex))
        cfg = damping_cfg(h0_scale=0.5)
        with pytest.raises(NotAState, match="in the initial state"):
            run_trajectory(cfg, rho0, seed=1)
        with pytest.raises(NotAState, match="in the initial state"):
            next(drive_ensemble(cfg, rho0, np.zeros((3, cfg.steps))))

    def test_probability_normalization(self):
        cfg = damping_cfg(n=300, h0_scale=0.5)
        record = run_trajectory(cfg, EXCITED, seed=6)
        assert np.max(np.abs(record.probabilities.sum(axis=1) - 1.0)) < 1e-12

    def test_markov_replay(self):
        # the step depends only on (state, draw): replay from a copied state
        cfg = damping_cfg(n=50)
        seed = 11
        record = run_trajectory(cfg, EXCITED, seed=seed)
        uniforms = generator_for(seed).random(cfg.steps)
        u = build_unitary(cfg)
        k = 17
        rho_k = DensityMatrix(record.states[k].copy())
        step = measurement_step(rho_k, u, cfg.observable, uniforms[k])
        assert step.outcome == record.outcomes[k]
        assert max_abs(step.next_state.m - record.states[k + 1]) < 1e-12

    def test_ensemble_rows_match_single_runs(self):
        # row j of the ensemble is the single-path loop run on column j
        cfg = damping_cfg(n=80, h0_scale=0.5)
        num = 5
        uniforms = ensemble_streams(99, num, cfg.steps)
        for _, finals, *_ in drive_ensemble(cfg, EXCITED, uniforms):
            pass
        for j in range(num):
            bloch, *_ = _scalar_chain(_chain_matrix(cfg), density_to_bloch(EXCITED.m),
                                      uniforms[j])
            assert np.array_equal(finals[j], bloch[-1])


class TestBlochChain:
    """The real (4, 8) Bloch stepping core against the matrix-form step."""

    def test_branch_maps_are_real_in_bloch_basis(self):
        # bloch_superop raises unless both halves are real to its tolerance;
        # (1, r) @ B_i is (Tr m_i, Bloch vector of m_i)
        rng = np.random.default_rng(40)
        for _ in range(200):
            cfg = rand_config(rng)
            u = build_unitary(cfg)
            rho = rand_density(rng)
            s = branch_superops(u, cfg.observable)
            u_vec = np.concatenate([[1.0], density_to_bloch(rho.m)])
            for i, lit in enumerate(nonnormalized_maps(rho, u, cfg.observable)):
                w = u_vec @ bloch_superop(s[:, 4 * i:4 * i + 4])
                assert abs(w[0] - lit.trace().real) < 1e-13
                assert np.max(np.abs(w[1:] - density_to_bloch(lit))) < 1e-13

    def test_one_step_matches_measurement_step(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            cfg = rand_config(rng)
            rho = rand_density(rng)
            u = build_unitary(cfg)
            for draw in (0.0, np.nextafter(1.0, 0.0)):
                step = measurement_step(rho, u, cfg.observable, draw)
                ((_, r, out, x, p, q),) = drive_ensemble(cfg, rho, np.array([[draw]]))
                assert out[0] == step.outcome
                assert abs(p[0] - step.p) < 1e-13 and abs(q[0] - step.q) < 1e-13
                assert abs(x[0] - step.x) < 1e-13
                assert max_abs(bloch_to_density(r)[0] - step.next_state.m) < 1e-13

    @pytest.mark.parametrize("phi, draw, dominant",
                             [(1e-7, 0.0, 0), (np.pi - 1e-7, np.nextafter(1.0, 0.0), 1)])
    def test_degenerate_step_takes_dominant_branch(self, phi, draw, dominant):
        # the minor branch has trace ~2.5e-15, below NULL_BRANCH, and the
        # draw would pick it by the sampling rule alone
        cfg = trivial_cfg(n=50, phi=phi)
        rho = rand_density(np.random.default_rng(42))
        ((_, r, out, x, p, q),) = drive_ensemble(cfg, rho, np.array([[draw]]))
        assert 0.0 < min(p[0], q[0]) < 1e-12
        assert out[0] == dominant and x[0] == 0.0 and not np.signbit(x[0])
        assert max_abs(bloch_to_density(r)[0] - rho.m) < 1e-13

    def test_ensemble_rows_bit_equal_to_batches_of_one(self):
        cfg = damping_cfg(n=120, h0_scale=0.5)
        rho = rand_density(np.random.default_rng(43))
        uniforms = ensemble_streams(44, 5, cfg.steps)
        batch = [[a.copy() for a in item[1:]] for item in drive_ensemble(cfg, rho, uniforms)]
        for j in range(5):
            for k, *single in drive_ensemble(cfg, rho, uniforms[j:j + 1]):
                for whole, one in zip(batch[k], single):
                    assert np.array_equal(whole[j], one[0]), (j, k)

    def test_yields_new_arrays(self):
        # the loop reuses its product buffer; every yielded array must be new
        cfg = damping_cfg(n=40, h0_scale=0.5, t_horizon=0.1)
        uniforms = ensemble_streams(45, 6, cfg.steps)
        kept = list(drive_ensemble(cfg, EXCITED, uniforms))
        copied = [[k] + [a.copy() for a in rest]
                  for k, *rest in drive_ensemble(cfg, EXCITED, uniforms)]
        assert len(kept) == 4
        for item, copy in zip(kept, copied):
            assert item[0] == copy[0]
            for a, b in zip(item[1:], copy[1:]):
                assert np.array_equal(a, b)



# A chain whose members move between three kinds at shared steps. With
# p = (1 + x)/2 and q = 1/2 - (1/2 - 1e-13) x: at A = 0, p = q = 1/2, and
# outcome 0 leads to D = (1, 0, 0), outcome 1 back to A with y' = 1/2 +
# 2e60 y; at D, q = 1e-13 is degenerate, and the dominant outcome 0 leads
# back to A. Seven outcomes 1 in a row at A overflow y, and from the next
# step on the member's p and q are NaN (inf times a zero coefficient).
_KINDS_MATRIX = np.zeros((4, 8))
_KINDS_MATRIX[:, 0] = 0.5, 0.5, 0.0, 0.0
_KINDS_MATRIX[:, 1] = 0.5, -0.5, 0.0, 0.0
_KINDS_MATRIX[:, 4] = 0.5, -(0.5 - 1e-13), 0.0, 0.0
_KINDS_MATRIX[:, 6] = 0.25, 0.0, 1e60, 0.0


def _kinds_draws(num_traj, steps):
    """Member 0 goes A, D (drawing 0, which alone would pick the minor
    branch), A, ..., then outcome 1 at A until it is NaN; member 1 draws 0
    at every step and is NaN from step 7 on; the rest draw 0, 0.3 or 0.7."""
    draws = np.random.default_rng(49).choice([0.0, 0.3, 0.7], size=(num_traj, steps))
    draws[0] = 0.0
    draws[0, :12] = [0.7, 0.0] * 6
    draws[0, 12:16] = 0.3, 0.3, 0.3, 0.7
    if num_traj > 1:
        draws[1] = 0.0
    return draws


class TestBranchPick:
    """The bit-mask branch pick of ``drive_ensemble`` against the np.where
    step it replaced, bit for bit, NaN sign and payload included."""

    @pytest.mark.parametrize("num_traj", [1, 2, 1000])
    def test_yields_the_bits_of_the_where_step(self, monkeypatch, num_traj):
        monkeypatch.setattr(discrete_mod, "_chain_matrix", lambda cfg: _KINDS_MATRIX)
        monkeypatch.setattr(discrete_mod, "validate_batch", lambda states, step: states)
        cfg = damping_cfg(n=30)
        uniforms = _kinds_draws(num_traj, cfg.steps)
        kinds = set()
        with np.errstate(all="ignore"):
            for got, want in zip(drive_ensemble(cfg, EXCITED, uniforms),
                                 drive_ensemble_where(cfg, EXCITED, uniforms), strict=True):
                assert got[0] == want[0]
                for name, a, b in zip(("r", "outcome", "x", "p", "q"), got[1:], want[1:]):
                    assert a.dtype == b.dtype and a.shape == b.shape, name
                    assert np.array_equal(a.view(np.int64), b.view(np.int64)), (name, got[0])
                least = np.minimum(want[4], want[5])
                step = {"NaN" if np.isnan(v) else "degenerate" if v < 1e-12 else "ordinary"
                        for v in least}
                kinds |= step
                if num_traj == 1000:
                    assert step == {"NaN", "degenerate", "ordinary"} or got[0] < 7
        assert kinds == {"NaN", "degenerate", "ordinary"}
        # member 0: degenerate at the steps where its draw 0 alone would
        # pick outcome 1; x there is +0
        _, _, out, x, p, q = next(item for item in drive_ensemble(cfg, EXCITED, uniforms)
                                  if item[0] == 1)
        assert q[0] < 1e-12 and out[0] == 0 and x[0] == 0.0 and not np.signbit(x[0])


def _chain_batch_of_one(cfg, rho, uniforms):
    """``drive_ensemble`` on a batch of one, in ``_scalar_chain``'s layout."""
    bloch, outcomes, x, probs = [density_to_bloch(rho.m)], [], [], []
    for _, r, out, xs, p, q in drive_ensemble(cfg, rho, uniforms[None]):
        bloch.append(r[0].copy())
        outcomes.append(out[0])
        x.append(xs[0])
        probs.append((p[0], q[0]))
    return (np.array(bloch), np.array(outcomes, dtype=np.int64), np.array(x),
            np.array(probs).reshape(-1, 2))


def _assert_chains_equal(cfg, rho, uniforms, equal_nan=False):
    # the module attribute, which a test may patch for both cores
    b = discrete_mod._chain_matrix(cfg)
    scalar = _scalar_chain(b, density_to_bloch(rho.m), uniforms)
    ensemble = _chain_batch_of_one(cfg, rho, uniforms)
    for name, got, want in zip(("states", "outcomes", "x", "p, q"), scalar, ensemble):
        assert_same_bits(got, want, equal_nan, name)
    return scalar


class TestScalarChain:
    """The single-path loop ``_scalar_chain`` against ``drive_ensemble`` on a
    batch of one, bit for bit at every step."""

    def test_matches_drive_ensemble(self):
        rng = np.random.default_rng(46)
        cfgs = [damping_cfg(n=300, h0_scale=0.5)] + [rand_config(rng, n_high=400)
                                                     for _ in range(6)]
        for cfg in cfgs:
            _assert_chains_equal(cfg, rand_density(rng), rng.random(cfg.steps))

    @pytest.mark.parametrize("h0_scale, rho", [pytest.param(0.0, SIGNED_ZEROS, id="signed-zeros"),
                                               pytest.param(0.5, EXCITED, id="excited")])
    def test_matches_drive_ensemble_from_zero_components(self, h0_scale, rho):
        # starts (-0, -0, 0.6) and (0, 0, -1): the zeros' signs must agree too
        cfg = damping_cfg(n=300, h0_scale=h0_scale)
        _assert_chains_equal(cfg, rho, np.random.default_rng(45).random(cfg.steps))

    def test_validates_at_the_steps_of_drive_ensemble(self, monkeypatch):
        # None is the initial state; then every VALIDATE_EVERY steps and the
        # last one, each a (2, 2) state whatever the core. No state passes the
        # scalar loop's cheap test here, so each of its checks is the full one
        monkeypatch.setattr(discrete_mod, "STATE_TOL", -np.inf)
        calls = []
        original = discrete_mod.validate_batch

        def recording(states, step):
            calls.append((step, states.shape[-2:]))
            return original(states, step)

        monkeypatch.setattr(discrete_mod, "validate_batch", recording)
        cfg = damping_cfg(n=250, h0_scale=0.5)
        run_trajectory(cfg, EXCITED, seed=3)
        scalar = calls[:]
        calls.clear()
        run_trajectory_batch_of_one(cfg, EXCITED, seed=3)
        assert scalar == calls == [(k, (2, 2)) for k in (None, 99, 199, 249)]

    @pytest.mark.parametrize("phi, dominant", [(1e-7, 0), (np.pi - 1e-7, 1)])
    def test_degenerate_chain(self, phi, dominant):
        # every step is degenerate; the draws 0 and 1^- would pick the minor
        # branch by the sampling rule alone
        cfg = trivial_cfg(n=250, phi=phi)
        uniforms = np.random.default_rng(47).random(cfg.steps)
        uniforms[::3] = 0.0
        uniforms[1::3] = np.nextafter(1.0, 0.0)
        _, outcomes, x, probs = _assert_chains_equal(cfg, EXCITED, uniforms)
        assert np.all(probs.min(axis=1) < 1e-12)
        assert np.all(outcomes == dominant)
        assert np.all(x == 0.0) and not np.any(np.signbit(x))

    def test_null_branch_raises_like_drive_ensemble(self, monkeypatch):
        cfg = damping_cfg(n=50)
        b = 1e-15 * _chain_matrix(cfg)
        monkeypatch.setattr(discrete_mod, "_chain_matrix", lambda cfg: b)
        uniforms = np.full(cfg.steps, 0.5)
        with pytest.raises(DegenerateProbability) as scalar:
            _scalar_chain(b, density_to_bloch(EXCITED.m), uniforms)
        with pytest.raises(DegenerateProbability) as ensemble:
            next(drive_ensemble(cfg, EXCITED, uniforms[None]))
        assert str(scalar.value) == str(ensemble.value)
        with pytest.raises(DegenerateProbability, match="step 0, trajectory 0"):
            run_trajectory(cfg, EXCITED, seed=1)

    @pytest.mark.parametrize("nan_column, tiny_column", [(0, None), (4, None), (4, 0)],
                             ids=["p", "q", "q-with-tiny-p"])
    def test_nan_branch_trace_takes_the_core_branch(self, monkeypatch, nan_column,
                                                    tiny_column):
        # np.minimum propagates NaN, so a NaN p or q makes no step degenerate,
        # even when the other trace is below DEGENERATE_PROB
        cfg = damping_cfg(n=200, h0_scale=0.5)
        b = _chain_matrix(cfg)
        if tiny_column is not None:
            b[:, tiny_column] *= 1e-13
        b[:, nan_column] = np.nan
        monkeypatch.setattr(discrete_mod, "_chain_matrix", lambda cfg: b)
        monkeypatch.setattr(discrete_mod, "validate_batch", lambda states, step: states)
        uniforms = np.random.default_rng(48).random(cfg.steps)
        with np.errstate(invalid="ignore"):
            _, _, x, _ = _assert_chains_equal(cfg, EXCITED, uniforms, equal_nan=True)
        assert np.isnan(x).any()


class TestResidual:
    def test_trivial_dynamics_zero(self):
        # without coupling or Hamiltonian the state never moves and the drift
        # and noise terms vanish, so the remainder is zero along the record
        cfg = trivial_cfg(n=100)
        record = run_trajectory(cfg, EXCITED, seed=31)
        total = np.zeros((2, 2), dtype=complex)
        worst = 0.0
        for k in range(cfg.steps):
            rho_k = record.states[k]
            total = total + lindblad(rho_k, cfg.h0, cfg.c) / cfg.n \
                - backaction(rho_k, cfg.c) * record.x_increments[k] / np.sqrt(cfg.n)
            worst = max(worst, max_abs(record.states[k + 1] - record.states[0] - total))
        assert worst < 1e-12
        spec = EnsembleSpec(cfg=cfg, rho0=EXCITED, num_trajectories=5,
                            base_seed=31, n_values=(100,))
        assert residual_decay(spec)[0] < 1e-12

    def test_single_step_order(self):
        # one-step remainder after removing drift and noise terms is O(1/n)
        rng = np.random.default_rng(32)
        rho = rand_density(rng)
        sups = {}
        for n in (1000, 4000):
            cfg = damping_cfg(n=n, h0_scale=0.5)
            u = build_unitary(cfg)
            worst = 0.0
            for outcome, draw in ((0, 0.999999), (1, 0.0)):
                step = measurement_step(rho, u, cfg.observable, draw)
                pred = rho.m + lindblad(rho.m, cfg.h0, cfg.c) / n \
                    - backaction(rho.m, cfg.c) * step.x / np.sqrt(n)
                worst = max(worst, max_abs(step.next_state.m - pred))
            sups[n] = worst
        # O(1/n) is an upper envelope; decay can be faster for lucky states
        assert sups[1000] < 20.0 / 1000
        assert sups[4000] < 20.0 / 4000
        assert sups[1000] / sups[4000] > 3.0

    def test_residual_decays_with_n(self):
        spec = EnsembleSpec(cfg=damping_cfg(), rho0=EXCITED,
                            num_trajectories=100, base_seed=7,
                            n_values=(50, 100, 200))
        sups = residual_decay(spec)
        assert sups[0] > sups[1] > sups[2]

    def test_matches_streaming_computation(self):
        # the streaming reducer against the remainder summed step by step
        # with the matrix-form drift and backaction, on the same streams
        m, seed = 6, 33
        spec = EnsembleSpec(cfg=damping_cfg(h0_scale=0.5), rho0=EXCITED,
                            num_trajectories=m, base_seed=seed, n_values=(20, 40))
        sups = residual_decay(spec)
        c = spec.cfg.coupling()
        for i, n in enumerate(spec.n_values):
            cfg = damping_cfg(n=n, h0_scale=0.5)
            base = derive_seed(derive_seed(seed, convergence._PURPOSE_CHAIN), n)
            prev = np.broadcast_to(EXCITED.m, (m, 2, 2)).copy()
            total = np.zeros((m, 2, 2), dtype=complex)
            sup = np.zeros(m)
            for _, r, _, x, _, _ in drive_ensemble(
                    cfg, EXCITED, ensemble_streams(base, m, cfg.steps)):
                states = bloch_to_density(r)
                total += lindblad(prev, cfg.h0, c) / n \
                    - backaction(prev, c) * (x / np.sqrt(n))[:, None, None]
                eps = states - EXCITED.m - total
                sup = np.maximum(sup, np.abs(eps).max(axis=(1, 2)))
                prev = states.copy()
            assert abs(sups[i] - sup.mean()) < 1e-13


def exact_chain_mean(cfg: ModelConfig, rho0: DensityMatrix) -> np.ndarray:
    """E[rho_k], k = 0..steps: the conditional mean of one step is
    p (m0/p) + q (m1/q) = m0 + m1, so vec E[rho_k] = vec(rho0) @ (S_0 + S_1)^k
    (up to the degenerate-branch rule, an O(1e-12) change)."""
    s = branch_superops(build_unitary(cfg), cfg.observable)
    step = s[:, :4] + s[:, 4:]
    out = [rho0.m.reshape(4)]
    for _ in range(cfg.steps):
        out.append(out[-1] @ step)
    return np.array(out).reshape(-1, 2, 2)


class TestExactChainMean:
    """Criterion 05's configuration (damping rate 9) from the excited state."""

    def test_ensemble_mean_within_clt_bounds(self):
        cfg, m = damping_cfg(n=80, c_scale=3.0), 5000
        exact = density_to_bloch(exact_chain_mean(cfg, EXCITED))
        for k, r, *_ in drive_ensemble(cfg, EXCITED,
                                       ensemble_streams(505, m, cfg.steps)):
            se = r.std(axis=0, ddof=1) / np.sqrt(m)
            assert np.all(np.abs(r.mean(axis=0) - exact[k + 1]) <= 4.0 * se + 1e-12), k

    def test_gap_to_master_is_first_order(self):
        ns = [20, 40, 80, 160, 320]
        gaps = []
        for n in ns:
            cfg = damping_cfg(n=n, c_scale=3.0)
            gaps.append(max_abs(exact_chain_mean(cfg, EXCITED)
                                - master_on_grid(cfg, EXCITED, n)))
        slope = np.polyfit(np.log(ns), np.log(gaps), 1)[0]
        assert -1.1 <= slope <= -0.9


def _one_state_chain(s):
    """(4, 8) chain matrix whose every step takes the dominant branch
    (p = 1, q = 0 degenerate) to the Bloch vector (s, 0, 0)."""
    b = np.zeros((4, 8))
    b[0, 0] = 1.0
    b[0, 1] = s
    return b


class TestScalarChainCheck:
    """The scalar loop checks a state by a cheap test first, x^2 + y^2 + z^2
    <= 1 + STATE_TOL, and by ``validate_batch`` only where that fails: the
    same states pass and fail as in ``drive_ensemble``, which takes the
    cheap test on the largest sum of its batch, with the same message at the
    same step."""

    @pytest.mark.parametrize("s", [np.nan, np.inf, 1 + 3e-10],
                             ids=["nan", "inf", "past-tolerance"])
    def test_rejects_like_the_full_check(self, monkeypatch, s):
        b = _one_state_chain(s)
        monkeypatch.setattr(discrete_mod, "_chain_matrix", lambda cfg: b)
        uniforms = np.full(250, 0.5)
        with np.errstate(all="ignore"):
            with pytest.raises(NotAState, match="by step 99") as scalar:
                _scalar_chain(b, density_to_bloch(EXCITED.m), uniforms)
            with pytest.raises(NotAState) as ensemble:
                for _ in drive_ensemble(damping_cfg(), EXCITED, uniforms[None]):
                    pass
        assert str(scalar.value) == str(ensemble.value)

    @pytest.mark.parametrize("s, full_checks", [(1 + 1e-10, [99, 199, 249]),
                                                (1 + 1e-11, []), (0.5, [])])
    def test_passes_like_the_full_check(self, monkeypatch, s, full_checks):
        # |r|^2 = 1 + 2e-10 fails the cheap test, and the smallest eigenvalue
        # -5e-11 passes the full one; 1 + 2e-11 and 0.25 pass the cheap test
        b = _one_state_chain(s)
        monkeypatch.setattr(discrete_mod, "_chain_matrix", lambda cfg: b)
        calls = []
        original = discrete_mod.validate_batch

        def recording(states, step):
            calls.append(step)
            return original(states, step)

        monkeypatch.setattr(discrete_mod, "validate_batch", recording)
        uniforms = np.full(250, 0.5)
        bloch, *_ = _scalar_chain(b, density_to_bloch(EXCITED.m), uniforms)
        assert calls == full_checks
        assert np.all(bloch[1:] == [s, 0.0, 0.0])
        _assert_chains_equal(damping_cfg(), EXCITED, uniforms)


def _nan_branch_chain(monkeypatch, num_traj, bad, step=120):
    """(cfg, B, uniforms): the damped chain with a level splitting, whose
    matrix B has an exact zero, so that its product has a sparse plan,
    patched so that branch 1 sends z to NaN, and draws that take branch 0
    (q < 0.54 < 0.6) at every step but member ``bad``'s at ``step``. That
    member's z is NaN after it, where p's zero coefficient would drop it,
    and its whole state from the next step on; the rest stay finite."""
    cfg = damping_cfg(n=250, h0_scale=0.5)
    b = _chain_matrix(cfg)
    assert b[3, 0] == 0.0
    b[0, 7] = np.nan
    monkeypatch.setattr(discrete_mod, "_chain_matrix", lambda cfg: b)
    uniforms = np.random.default_rng(62).uniform(0.6, 1.0, size=(num_traj, cfg.steps))
    uniforms[bad, step] = 0.0
    return cfg, b, uniforms


class TestFinitePlanSwitch:
    """A member turns NaN mid-pass, so the chain product leaves its sparse
    plan for the dense one: every row keeps the bits of ``_scalar_chain``,
    which takes every product."""

    @pytest.mark.parametrize("num_traj", [1, 2, 1000])
    def test_rows_match_scalar_chain(self, monkeypatch, num_traj):
        bad = num_traj // 2
        cfg, b, uniforms = _nan_branch_chain(monkeypatch, num_traj, bad)
        assert bloch_terms(b)[1] is not None
        monkeypatch.setattr(discrete_mod, "validate_batch", lambda states, step: states)
        finite, real = [], discrete_mod.bloch_apply

        def recording(r, terms, out, *args):
            finite.append(bool(np.isfinite(r).all()))
            return real(r, terms, out, *args)

        monkeypatch.setattr(discrete_mod, "bloch_apply", recording)
        r0 = density_to_bloch(EXCITED.m)
        with np.errstate(all="ignore"):
            steps = [[a.copy() for a in item[1:]]
                     for item in drive_ensemble(cfg, EXCITED, uniforms)]
            assert finite == [True] * 121 + [False] * 129
            rows = [np.stack(field, axis=1) for field in zip(*steps)]
            assert np.all(np.isnan(rows[0][bad, 121:]))
            for j in range(num_traj):
                bloch, outcomes, x, probs = _scalar_chain(b, r0, uniforms[j])
                for name, got, want in zip(("states", "outcomes", "x", "p", "q"),
                                           (bloch[1:], outcomes, x, *probs.T),
                                           (row[j] for row in rows)):
                    assert_same_bits(got, want, True, (name, j))


def test_nan_member_fails_the_check_like_the_full_check(monkeypatch):
    # the cheap test first, max |r|^2 <= 1 + STATE_TOL, fails on the NaN
    # member, and the whole batch takes the full check at the same step,
    # with the text of a loop that takes the full check every time
    cfg, _, uniforms = _nan_branch_chain(monkeypatch, 5, 2)
    texts = []
    for state_tol in (discrete_mod.STATE_TOL, -np.inf):
        monkeypatch.setattr(discrete_mod, "STATE_TOL", state_tol)
        with np.errstate(all="ignore"), pytest.raises(NotAState, match="by step 199") as err:
            for _ in drive_ensemble(cfg, EXCITED, uniforms):
                pass
        texts.append(str(err.value))
    assert texts[0] == texts[1]


def test_scalar_chain_publishes_checked_rows(monkeypatch):
    # a block's rows reach the table, and the feed hears of them, only after
    # its last state is checked; every block goes through the full check here
    monkeypatch.setattr(discrete_mod, "STATE_TOL", -np.inf)
    events = []
    original = discrete_mod.validate_batch

    def check(states, step):
        events.append(("check", step))
        return original(states, step)

    monkeypatch.setattr(discrete_mod, "validate_batch", check)
    cfg = damping_cfg(n=250, h0_scale=0.5)
    table = np.full((cfg.steps + 1, 7), -7.0)
    done = []

    def publish(rows):
        assert np.all(table[done[-1] if done else 0:rows] != -7.0)
        assert np.all(table[rows:] == -7.0)
        done.append(rows)
        events.append(("publish", rows))

    scalar = _scalar_chain(_chain_matrix(cfg), density_to_bloch(EXCITED.m),
                           np.random.default_rng(48).random(cfg.steps), table, publish)
    assert events == [e for k in (99, 199, 249) for e in (("check", k), ("publish", k + 2))]
    for got, want in zip(scalar, _scalar_chain(_chain_matrix(cfg), density_to_bloch(EXCITED.m),
                                               np.random.default_rng(48).random(cfg.steps))):
        assert np.array_equal(got, want, equal_nan=True)
