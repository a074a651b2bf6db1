import numpy as np

from qtraj.discrete import ensemble_streams
from qtraj.rng import derive_seed, generator_for, member_streams


def test_member_rows_are_member_generators():
    for draw in ("random", "standard_normal"):
        out = member_streams(77, 4, 25, draw)
        assert out.shape == (4, 25)
        for j in range(4):
            expected = getattr(generator_for(derive_seed(77, j)), draw)(25)
            assert np.array_equal(out[j], expected)


def test_ensemble_streams_are_uniform_member_streams():
    assert np.array_equal(ensemble_streams(5, 3, 40), member_streams(5, 3, 40, "random"))
