"""The one CSV writer of the package. A table is given as columns; a column
of strings is written as is, and every other cell with 17 significant
digits, so floats read back exactly and integers below 10^17 print as
integers. Every row is one %-format of its cells."""

from __future__ import annotations

import numpy as np

STATE_HEADER = "rho_00_re,rho_01_re,rho_01_im,rho_11_re"
# rows formatted per write: enough to amortize the per-block calls, few
# enough that a block's Python floats and text stay small
BLOCK_ROWS = 1024


def write_csv(stream, header: str, columns, timestamp: str | None = None) -> None:
    """Write the optional ``# generated <timestamp>`` comment, the header and
    the table of ``columns`` (arrays or lists), which has as many rows as the
    longest column. A column one entry shorter starts in row 1, and its cell
    in row 0 is empty (per-step data beside the states it leads to). Rows
    after row 0 go out in blocks of BLOCK_ROWS, each converted to Python
    values one column slice at a time."""
    if timestamp is not None:
        stream.write(f"# generated {timestamp}\n")
    stream.write(header + "\n")
    # numbers go out from float columns: "%.17g" formats an int through a
    # float anyway, and Python ints left more of the heap resident after a
    # write (peak RSS of a 20 001-row write and read-back, +0.3 MB)
    columns = [col if col.dtype.kind == "U" else col.astype(float, copy=False)
               for col in map(np.asarray, columns)]
    num_rows = max(map(len, columns))
    formats = ["%s" if col.dtype.kind == "U" else "%.17g" for col in columns]
    full = [len(col) == num_rows for col in columns]
    first = ",".join(f if whole else "" for f, whole in zip(formats, full)) + "\n"
    stream.write(first % tuple(col[0].item() for col, whole in zip(columns, full) if whole))
    line = ",".join(formats) + "\n"
    for start in range(1, num_rows, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, num_rows)
        cells = [col[start:stop] if whole else col[start - 1:stop - 1]
                 for col, whole in zip(columns, full)]
        stream.write("".join(map(line.__mod__, zip(*(c.tolist() for c in cells)))))


def state_columns(states: np.ndarray) -> list[np.ndarray]:
    """The STATE_HEADER columns of a (K, 2, 2) state stack; Hermiticity
    makes these four real columns sufficient."""
    s = states.reshape(len(states), 4)
    return [s[:, 0].real, s[:, 1].real, s[:, 1].imag, s[:, 3].real]
