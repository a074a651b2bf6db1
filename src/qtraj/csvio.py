"""The one CSV writer of the package. A table is given as columns; a column
of strings is written as is, and every other cell with 17 significant
digits, so floats read back exactly and integers below 10^17 print as
integers. Every row is one %-format of its cells.

A table's text comes in (cost, call) parts (``csv_parts``), each call
returning a list of text pieces; all pieces, joined in order, are the table.
There is one part below SPLIT_ROWS rows, else two row ranges. A writer runs
the parts through ``run``, by default one after the other in this process;
the CLI passes a runner that formats the second range in a forked child.
Pieces of at most BLOCK_ROWS rows keep the text out of one large string,
here and across the child's pipe."""

from __future__ import annotations

import numpy as np

STATE_HEADER = "rho_00_re,rho_01_re,rho_01_im,rho_11_re"
# rows formatted per write: enough to amortize the per-block calls, few
# enough that a block's Python floats and text stay small
BLOCK_ROWS = 1024
# rows from which a table comes in two parts. A fork and the pipe round trip
# of the second half's text cost several ms; on a 2-vCPU host two lanes broke
# even with one at 2000-3000 rows of the 10-column chain table and saved
# 10-15 ms at 5000. The 7-23-row converge and girsanov tables stay whole
SPLIT_ROWS = 4096


def in_turn(parts) -> list:
    """Results of the (cost, call) ``parts``, called in order here."""
    return [call() for _, call in parts]


def csv_parts(header: str, columns, timestamp: str | None = None) -> list:
    """The text of the optional ``# generated <timestamp>`` comment, the
    header and the table of ``columns`` (arrays or lists), as (row count,
    call) parts whose calls return lists of text pieces: the first holds the
    comment, the header and the first half of the rows, the second, at
    SPLIT_ROWS rows or more, the rest. The table has as many rows as the
    longest column. A column one entry shorter starts in row 1, and its cell
    in row 0 is empty (per-step data beside the states it leads to). Rows
    after row 0 are formatted in blocks of BLOCK_ROWS, each converted to
    Python values one column slice at a time."""
    # numbers go out from float columns: "%.17g" formats an int through a
    # float anyway, and Python ints left more of the heap resident after a
    # write (peak RSS of a 20 001-row write and read-back, +0.3 MB)
    columns = [col if col.dtype.kind == "U" else col.astype(float, copy=False)
               for col in map(np.asarray, columns)]
    num_rows = max(map(len, columns))
    formats = ["%s" if col.dtype.kind == "U" else "%.17g" for col in columns]
    full = [len(col) == num_rows for col in columns]
    line = ",".join(formats) + "\n"

    def rows(start: int, stop: int, blocks: list) -> list[str]:
        for lo in range(start, stop, BLOCK_ROWS):
            hi = min(lo + BLOCK_ROWS, stop)
            cells = [col[lo:hi] if whole else col[lo - 1:hi - 1]
                     for col, whole in zip(columns, full)]
            blocks.append("".join(map(line.__mod__, zip(*(c.tolist() for c in cells)))))
        return blocks

    def head(stop: int) -> list[str]:
        first = ",".join(f if whole else "" for f, whole in zip(formats, full)) + "\n"
        return rows(1, stop, [
            "" if timestamp is None else f"# generated {timestamp}\n", header + "\n",
            first % tuple(col[0].item() for col, whole in zip(columns, full) if whole)])

    if num_rows < SPLIT_ROWS:
        return [(num_rows, lambda: head(num_rows))]
    mid = (num_rows + 1) // 2
    return [(mid, lambda: head(mid)), (num_rows - mid, lambda: rows(mid, num_rows, []))]


def write_csv(stream, header: str, columns, timestamp: str | None = None,
              run=in_turn) -> None:
    """Write the table of ``csv_parts(header, columns, timestamp)`` to
    ``stream``, its parts run by ``run``: a callable that takes (cost, call)
    parts and returns their results in order."""
    for texts in run(csv_parts(header, columns, timestamp)):
        stream.writelines(texts)


def state_columns(states: np.ndarray) -> list[np.ndarray]:
    """The STATE_HEADER columns of a (K, 2, 2) state stack; Hermiticity
    makes these four real columns sufficient."""
    s = states.reshape(len(states), 4)
    return [s[:, 0].real, s[:, 1].real, s[:, 1].imag, s[:, 3].real]
