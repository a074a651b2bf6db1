"""CSV output shared by every writer in the package: numbers with 17
significant digits, so floats read back exactly and integers below 10^17
print as integers; None is an empty cell and a string is written as is."""

from __future__ import annotations

import numpy as np

STATE_HEADER = "rho_00_re,rho_01_re,rho_01_im,rho_11_re"


def _cell(x) -> str:
    return "" if x is None else x if isinstance(x, str) else format(x, ".17g")


def write_csv(stream, header: str, rows, timestamp: str | None = None) -> None:
    """Write the optional ``# generated <timestamp>`` comment, the header and
    one line per row: a sequence of cells, or a line ``table_rows`` has
    already formatted."""
    if timestamp is not None:
        stream.write(f"# generated {timestamp}\n")
    stream.write(header + "\n")
    stream.writelines((row if isinstance(row, str) else ",".join(map(_cell, row))) + "\n"
                      for row in rows)


def table_rows(*columns: np.ndarray):
    """CSV lines of a table of real columns with as many rows as the longest
    column. A column one entry shorter starts in row 1, and its cell in row 0
    is empty (per-step data beside the states it leads to). Row 0 is
    formatted cell by cell; every later row is one %-format of its floats,
    which gives the same text as ``_cell``, converted one row at a time."""
    num_rows = max(map(len, columns))
    table = np.zeros((num_rows, len(columns)))
    for j, col in enumerate(columns):
        table[num_rows - len(col):, j] = col
    yield ",".join(map(_cell, [None if len(col) < num_rows else x
                               for col, x in zip(columns, table[0])]))
    line = ",".join(["%.17g"] * len(columns))
    for row in table[1:]:
        yield line % tuple(row.tolist())


def state_columns(states: np.ndarray) -> list[np.ndarray]:
    """The STATE_HEADER columns of a (K, 2, 2) state stack; Hermiticity
    makes these four real columns sufficient."""
    s = states.reshape(len(states), 4)
    return [s[:, 0].real, s[:, 1].real, s[:, 1].imag, s[:, 3].real]
