import numpy as np
import pytest

from qtraj import WaveFunction
from qtraj.discrete import drive_ensemble, ensemble_streams, run_trajectory
from qtraj.linalg import bloch_to_density
import qtraj.rng as rng_mod
from qtraj.rng import generator_for, member_streams, step_blocks
from qtraj.sde import (_ensemble_noise, sde_ensemble_final, simulate_belavkin,
                       simulate_physical, simulate_wave, wave_ensemble_final)

from helpers import EXCITED, PLUS, PLUS_VEC, SIGNED_ZEROS, damping_cfg
from oracles import member_streams_step_by_step

DRAWS = ("random", "standard_normal")
SHAPES = ((4, 25), (0, 5), (1, 5), (3, 0), (3, 1), (50, 200))


@pytest.mark.parametrize("draw", DRAWS)
def test_members_are_the_columns_of_one_block(draw):
    for seed in (77, 0, 2**64 - 1):
        for count, steps in SHAPES:
            out = member_streams(generator_for(seed), count, steps, draw)
            assert out.shape == (count, steps)
            expected = member_streams_step_by_step(generator_for(seed), count, steps, draw)
            assert np.array_equal(out, expected)


@pytest.mark.parametrize("draw", DRAWS)
def test_shorter_run_is_a_prefix(draw):
    # a pass that stops at floor(n t) sees the first steps of the full run
    for seed in (77, 0, 2**64 - 1):
        for count, steps in SHAPES:
            whole = member_streams(generator_for(seed), count, steps, draw)
            for k in {0, min(1, steps), steps // 2}:
                part = member_streams(generator_for(seed), count, k, draw)
                assert np.array_equal(part, whole[:, :k])


@pytest.mark.parametrize("draw", DRAWS)
@pytest.mark.parametrize("block_draws", [1, 7, 64, 1500, rng_mod.BLOCK_DRAWS])
def test_step_blocks_stack_to_one_block(monkeypatch, draw, block_draws):
    # consecutive blocks are the rows of the one block, bit for bit; with
    # these sizes most step counts are no multiple of the block's steps
    monkeypatch.setattr(rng_mod, "BLOCK_DRAWS", block_draws)
    for seed in (77, 0, 2**64 - 1):
        for count, steps in (*SHAPES, (1000, 1000)):
            size = max(1, block_draws // max(count, 1))
            blocks = list(step_blocks(generator_for(seed), count, steps, draw))
            assert [len(b) for b in blocks] == [min(size, steps - s)
                                                for s in range(0, steps, size)]
            assert all(b.shape[1:] == (count,) and b.flags.c_contiguous for b in blocks)
            stacked = np.concatenate([np.empty((0, count)), *blocks])
            whole = member_streams(generator_for(seed), count, steps, draw)
            assert np.array_equal(stacked, whole.T)
            assert np.array_equal(np.signbit(stacked), np.signbit(whole.T))


def test_step_blocks_draw_when_reached():
    # a block is drawn when the reader asks for it, not before
    gen = generator_for(8)
    blocks = step_blocks(gen, 1000, 1000, "standard_normal")
    assert gen.bit_generator.state == generator_for(8).bit_generator.state
    size = rng_mod.BLOCK_DRAWS // 1000
    assert next(blocks).shape == (size, 1000)
    ref = generator_for(8)
    ref.standard_normal((size, 1000))
    assert gen.bit_generator.state == ref.bit_generator.state


def test_step_columns_are_contiguous():
    # every ensemble loop reads one step of all members at a time
    supplied = np.arange(60.0).reshape(3, 20)
    uniforms = ensemble_streams(3, 50, 20)
    assert all(uniforms[:, k].flags.c_contiguous for k in range(20))
    for num_paths, rows in ((50, _ensemble_noise(3, None, 50, 20, 1e-2)),
                            (3, _ensemble_noise(None, supplied, 3, 20, 1e-2))):
        rows = list(rows)
        assert len(rows) == 20
        assert all(row.shape == (num_paths,) and row.flags.c_contiguous for row in rows)
    assert np.array_equal(list(_ensemble_noise(None, supplied, 3, 20, 1e-2)), supplied.T)


def test_one_bit_generator_per_call(monkeypatch):
    built = []
    pcg64 = np.random.PCG64

    def counting(*args, **kwargs):
        built.append(args)
        return pcg64(*args, **kwargs)

    monkeypatch.setattr(np.random, "PCG64", counting)
    ensemble_streams(3, 500, 10)
    rows = _ensemble_noise(4, None, 500, 10, 1e-2)
    assert built == [(3,), (4,)]
    # a streamed ensemble reads all its blocks from that one generator
    assert len(list(rows)) == 10
    cfg = damping_cfg()
    sde_ensemble_final(cfg, PLUS, 1e-2, 1000, base_seed=5, with_weights=True)
    wave_ensemble_final(cfg, WaveFunction(PLUS_VEC), 1e-2, 1000, base_seed=6)
    assert built == [(3,), (4,), (5,), (6,)]


def test_ensemble_streams_are_uniform_member_streams():
    assert np.array_equal(ensemble_streams(5, 3, 40),
                          member_streams(generator_for(5), 3, 40, "random"))


# (h0 scale, density start, wave start). With h0 = 0 the density paths'
# y and the wave's imaginary parts stay exact zeros, here signed -0 at the
# start: Bloch vector (-0, -0, 0.6), psi = (sqrt(0.2) - 0i, sqrt(0.8) - 0i)
STARTS = {
    "excited": (0.5, EXCITED, WaveFunction(PLUS_VEC)),
    "negative zeros": (0.0, SIGNED_ZEROS, WaveFunction(np.array([complex(0.2 ** 0.5, -0.0),
                                                                 complex(0.8 ** 0.5, -0.0)]))),
}


def _chain_finals(seed, start):
    h0_scale, rho0, _ = STARTS[start]
    cfg = damping_cfg(n=200, h0_scale=h0_scale)
    record = run_trajectory(cfg, rho0, seed)
    outcomes = []
    for _, r, out, *_ in drive_ensemble(cfg, rho0, ensemble_streams(seed, 1, cfg.steps)):
        outcomes.append(out[0])
    assert np.array_equal(outcomes, record.outcomes)
    return bloch_to_density(r)[0], record.states[-1]


def _density_finals(physical):
    def finals(seed, start):
        h0_scale, rho0, _ = STARTS[start]
        cfg = damping_cfg(h0_scale=h0_scale)
        simulate = simulate_physical if physical else simulate_belavkin
        ensemble, _ = sde_ensemble_final(cfg, rho0, 1e-3, 1, seed, physical=physical)
        return ensemble[0], simulate(cfg, rho0, 1e-3, seed).states[-1]
    return finals


def _wave_finals(seed, start):
    h0_scale, _, psi0 = STARTS[start]
    cfg = damping_cfg(h0_scale=h0_scale)
    return (wave_ensemble_final(cfg, psi0, 1e-3, 1, seed)[0],
            simulate_wave(cfg, psi0, 1e-3, seed).vectors[-1])


FINALS = {"chain": _chain_finals, "belavkin": _density_finals(False),
          "physical": _density_finals(True), "wave": _wave_finals}


@pytest.mark.parametrize("form", FINALS)
@pytest.mark.parametrize("seed", [7, 2**64 - 1])
def test_ensemble_of_one_is_the_single_path(form, seed):
    for start in STARTS:
        ensemble, single = FINALS[form](seed, start)
        assert np.array_equal(ensemble, single)
        # the same zero signs too: a float equal to zero is +0 or -0
        assert np.array_equal(np.signbit(np.ascontiguousarray(ensemble).view(float)),
                              np.signbit(np.ascontiguousarray(single).view(float)))
