import numpy as np

from qtraj.discrete import ensemble_streams
from qtraj.rng import _pcg64_states, member_streams

from oracles import member_streams_per_generator

# the words of a seed change at 2^32; 2^64 - 1 sets every bit
EDGE_SEEDS = [0, 1, 5, 2**32 - 1, 2**32, 2**63 + 12345, 2**64 - 1]


def test_bulk_states_are_numpy_pcg64_states():
    # member_streams relies on numpy keeping SeedSequence and PCG64 seeding
    # stable (NEP 19): a change there fails here first
    states, incs = _pcg64_states(np.array(EDGE_SEEDS, dtype=np.uint64))
    for seed, state, inc in zip(EDGE_SEEDS, states, incs):
        ref = np.random.PCG64(seed).state["state"]
        assert (state, inc) == (ref["state"], ref["inc"])


def test_member_rows_are_member_generators():
    for draw in ("random", "standard_normal"):
        for base in (77, 0, 2**64 - 1):
            for count, steps in ((4, 25), (0, 5), (1, 5), (3, 0), (3, 1), (50, 200)):
                out = member_streams(base, count, steps, draw)
                assert out.shape == (count, steps)
                expected = member_streams_per_generator(base, count, steps, draw)
                assert np.array_equal(out, expected)


def test_one_bit_generator_per_call(monkeypatch):
    built = []
    pcg64 = np.random.PCG64

    def counting(*args, **kwargs):
        built.append(args)
        return pcg64(*args, **kwargs)

    monkeypatch.setattr(np.random, "PCG64", counting)
    out = member_streams(3, 500, 10, "standard_normal")
    assert len(built) <= 1
    monkeypatch.undo()
    assert np.array_equal(out, member_streams_per_generator(3, 500, 10, "standard_normal"))


def test_ensemble_streams_are_uniform_member_streams():
    assert np.array_equal(ensemble_streams(5, 3, 40), member_streams(5, 3, 40, "random"))
