"""The one CSV writer of the package. A table is given as columns; a column
of strings is written as is, and every other cell with 17 significant
digits, so floats read back exactly and integers below 10^17 print as
integers. Every row is one %-format of its cells.

A single path's table can be formatted beside the loop that steps it. The
loop keeps its record table where a ``RowFeed`` puts it, and publishes each
checked block of rows to it. The feed of a library call (``IN_PROCESS``)
keeps the table in this process and formats nothing ahead, so the writer
formats every row. The CLI's feed shares the table of a path of SPLIT_ROWS
rows or more with a forked child, which formats rows [0, a) as they are
published while the loop goes on; the writer then formats only rows [a, K)
and writes the child's text before its own. Rows are formatted in blocks of
at most BLOCK_ROWS, and the text is kept as one string per block, here and
across the child's pipe, so no table is copied into one string."""

from __future__ import annotations

import numpy as np

STATE_HEADER = "rho_00_re,rho_01_re,rho_01_im,rho_11_re"
# rows formatted per write: enough to amortize the per-block calls, few
# enough that a block's Python floats and text stay small
BLOCK_ROWS = 1024
# rows from which a path's table is formatted beside its loop. A fork and the
# pipe round trip of the child's text cost several ms; on a 2-vCPU host two
# lanes broke even with one at 2000-3000 rows of the 10-column chain table
# and saved 10-15 ms at 5000. The 7-23-row converge and girsanov tables stay
# in one process
SPLIT_ROWS = 4096


def csv_rows(columns, start: int = 0) -> list[str]:
    """Text pieces of the rows of the table of ``columns`` (arrays or lists)
    from row ``start`` on. The table has as many rows as the longest column.
    A column one entry shorter starts in row 1, and its cell in row 0 is
    empty (per-step data beside the states it leads to). Row 0 is formatted
    alone and the rest in blocks of BLOCK_ROWS, each converted to Python
    values one column slice at a time."""
    # numbers go out from float columns: "%.17g" formats an int through a
    # float anyway, and Python ints left more of the heap resident after a
    # write (peak RSS of a 20 001-row write and read-back, +0.3 MB)
    columns = [col if col.dtype.kind == "U" else col.astype(float, copy=False)
               for col in map(np.asarray, columns)]
    num_rows = max(map(len, columns))
    formats = ["%s" if col.dtype.kind == "U" else "%.17g" for col in columns]
    full = [len(col) == num_rows for col in columns]
    line = ",".join(formats) + "\n"
    blocks = []
    if start == 0 < num_rows:
        first = ",".join(f if whole else "" for f, whole in zip(formats, full)) + "\n"
        blocks.append(first % tuple(col[0].item() for col, whole in zip(columns, full)
                                    if whole))
        start = 1
    for lo in range(start, num_rows, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, num_rows)
        cells = [col[lo:hi] if whole else col[lo - 1:hi - 1]
                 for col, whole in zip(columns, full)]
        blocks.append("".join(map(line.__mod__, zip(*(c.tolist() for c in cells)))))
    return blocks


class RowFeed:
    """Where a single path's loop keeps its record table, and the rows of
    its CSV formatted ahead of the writer. This feed keeps the table in
    process and formats nothing ahead; the CLI's feed formats the first rows
    in a forked child as the loop publishes them."""

    def table(self, shape: tuple[int, int], columns, step_cells: float) -> np.ndarray:
        """The float table of ``shape`` the loop fills, row 0 first.
        ``columns(rows, lo)`` gives the CSV columns of the table rows
        ``rows`` = table[lo:hi], and ``step_cells`` is the loop's cost per
        row in formatted cells, which places the split."""
        return np.empty(shape)

    def publish(self, rows: int) -> None:
        """Rows [0, rows) of the table are filled and their states checked."""

    def formatted(self) -> tuple[int, object]:
        """(a, call): ``call()`` returns the text pieces of the CSV rows
        [0, a) formatted ahead, or raises their error."""
        return 0, list


IN_PROCESS = RowFeed()


def write_csv(stream, header: str, columns, timestamp: str | None = None,
              feed: RowFeed = IN_PROCESS) -> None:
    """Write the optional ``# generated <timestamp>`` comment, the header and
    the rows of ``columns`` (see ``csv_rows``) to ``stream``. The rows that
    ``feed`` formatted ahead are not formatted again: their text comes from
    the feed, once this call has formatted the rest. Nothing is written
    unless every row's text is there."""
    ahead, text = feed.formatted()
    rest = csv_rows(columns, ahead)
    head = "" if timestamp is None else f"# generated {timestamp}\n"
    pieces = [head + header + "\n", *text()]
    stream.writelines(pieces)
    stream.writelines(rest)


def state_columns(states: np.ndarray) -> list[np.ndarray]:
    """The STATE_HEADER columns of a (K, 2, 2) state stack; Hermiticity
    makes these four real columns sufficient."""
    s = states.reshape(len(states), 4)
    return [s[:, 0].real, s[:, 1].real, s[:, 1].imag, s[:, 3].real]
