"""The CSV writer's cells against Python's "%.17g" and its tables against
the row loop it replaced (``oracles.csv_rows_loop``).

The array formatter takes the 17 digits of |x| 10^k from Dekker's exact
product and lays each cell out in bytes; these families reach its edges:
every exponent (subnormals, NaN payloads and infinities included), the
exact decimal ties that round half to even, the neighbours of the powers of
ten where floor(log10 |x|) can be off by one, and the block boundaries of a
table.
"""

from __future__ import annotations

import os
import warnings

import numpy as np
import pytest

from oracles import csv_rows_loop
from qtraj import csvio


def cells(values) -> list[str]:
    """The cells of the one-column table of ``values``."""
    return "".join(csvio.csv_rows([np.asarray(values, dtype=float)])).split("\n")[:-1]


def assert_cells_are_percent_g(values):
    values = np.asarray(values, dtype=float)
    expected = ["%.17g" % x for x in values.tolist()]
    got = cells(values)
    wrong = [(x, g, e) for x, g, e in zip(values.tolist(), got, expected) if g != e]
    assert len(got) == len(expected)
    assert wrong == []


def test_random_bit_patterns():
    # every exponent, subnormals, NaN payloads and both infinities included
    rng = np.random.default_rng(27)
    bits = rng.integers(0, 2 ** 64, 10 ** 6, dtype=np.uint64)
    subnormal = rng.integers(1, 2 ** 52, 10 ** 4, dtype=np.uint64)
    assert_cells_are_percent_g(np.concatenate([bits, subnormal, subnormal | (1 << 63)])
                               .view(np.float64))


def test_random_values_in_the_array_range():
    # |x| in [1e-7, 1e18), 10^4 a decade, uniform in the digits
    rng = np.random.default_rng(28)
    x = rng.uniform(1.0, 10.0, 25 * 10 ** 4) * 10.0 ** np.repeat(np.arange(-7, 18), 10 ** 4)
    assert_cells_are_percent_g(np.where(rng.integers(0, 2, len(x)) == 1, -x, x))


def test_exact_ties_round_half_to_even():
    # m / 2^18 in [0.1, 1) has 18 significant digits, the last a 5 for odd m
    m = np.arange(26215, 262144)
    assert_cells_are_percent_g(m / 2.0 ** 18)
    assert cells([26215 / 2.0 ** 18]) == ["0.10000228881835938"]


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([10.0 ** k for k in range(-8, 19)])
    near = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    assert_cells_are_percent_g(np.concatenate([near, -near]))


def test_named_values():
    values = [9.9999999999999995e-07, 9999999999999999.0, 2.0 ** 53 - 1, 2.0 ** 53 + 1,
              2.0 ** 53, 1e17 - 16, 0.0, -0.0, np.inf, -np.inf, np.nan, 20000.0, 0.1,
              -0.012345, 1.5e-6, 5e-324]
    assert_cells_are_percent_g(values)
    assert cells(values[:1]) == ["9.9999999999999995e-07"]


def test_no_warning_escapes():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cells([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1e308, 5e-324, 1.0])


def test_tables_against_the_row_loop():
    # columns of every kind (floats, int64, a short column, a list, words,
    # a short word column) across block boundaries, from several first rows
    rng = np.random.default_rng(29)
    block = csvio.BLOCK_ROWS
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e16, 1e17, 9.9999999999999995e-07]
    for num_rows in (1, 2, block, block + 1, block + 2, 2 * block + 3):
        floats = rng.standard_normal(num_rows) * 10.0 ** rng.integers(-9, 19, num_rows)
        floats[rng.integers(0, num_rows, 3)] = rng.choice(special, 3)
        ints = rng.integers(-10 ** 6, 10 ** 6, num_rows)
        short = rng.uniform(-1.0, 1.0, num_rows - 1)
        plain = [float(v) for v in rng.standard_normal(num_rows)]
        words = np.resize(np.array(["x", "", "ks_stat", "a much longer label, with a comma"]),
                          num_rows)
        short_words = np.resize(np.array(["y", "é"]), num_rows - 1)
        columns = [floats, ints, short, plain, words, short_words]
        for start in sorted({0, 1, num_rows // 2, block, block + 1, num_rows} & set(
                range(num_rows + 1))):
            assert "".join(csvio.csv_rows(columns, start)) == \
                "".join(csv_rows_loop(columns, start, block))


def test_block_pieces():
    # one piece a block of BLOCK_ROWS rows, row 0 in the first
    columns = [np.arange(2 * csvio.BLOCK_ROWS + 1, dtype=float)]
    pieces = csvio.csv_rows(columns)
    assert [piece.count("\n") for piece in pieces] == [csvio.BLOCK_ROWS, csvio.BLOCK_ROWS, 1]
    assert csvio.csv_rows(columns, len(columns[0])) == []


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the platform has no os.fork")
def test_formatted_ahead_text_outgrowing_its_mapping():
    # the child's text goes into a mapping of CELL_BYTES a cell; a longer
    # text is an error, not an overrun
    import mmap

    from qtraj.cli import _format_published

    table = np.zeros((3, 1))
    read_fd, write_fd = os.pipe()
    os.write(write_fd, (3).to_bytes(8, "little"))
    os.close(write_fd)
    text = mmap.mmap(-1, 7)
    with open(read_fd, "rb", buffering=0) as notices:
        with pytest.raises(ValueError, match="outgrow their 7 bytes"):
            _format_published(notices, table, lambda rows, lo: [np.full(len(rows), 1 / 3)],
                              3, text)
    read_fd, write_fd = os.pipe()
    os.write(write_fd, (3).to_bytes(8, "little"))
    os.close(write_fd)
    with open(read_fd, "rb", buffering=0) as notices:
        assert _format_published(notices, table, lambda rows, lo: list(rows.T), 3, text) == 6
    assert text[:6] == b"0\n0\n0\n"
