"""The one CSV writer of the package. A table is given as columns; a column
of strings is written as is, and every other cell with 17 significant
digits, the text of ``"%.17g" % x``, so floats read back exactly and
integers below 10^17 print as integers.

The cells of a block of rows are formatted as arrays, not one Python call a
cell. For a double x with 1e-6 <= |x| < 1e17 and e = floor(log10 |x|), its
17 significant digits are N = round-half-even(|x| 10^k) with k = 16 - e in
[0, 22], so 10^k is an exact double, and Dekker's exact product (Numer.
Math. 18, 1971: Veltkamp's split by 2^27 + 1, no fused multiply-add) gives
|x| 10^k = hi + lo exactly in float64. hi >= 10^16 > 2^53 is an even
integer, so N = hi + rint(lo), rint rounding half to even. The cell is
taken only where hi + lo is in [10^16, 10^17) (hi < 10^17, and lo >= 0 at
hi = 10^16), which also catches log10's off-by-one next to a power of ten.
The 17 digits are the leading one and two 8-digit words turned into bytes
by SWAR, and each cell is laid out in 24 bytes: sign, the "0.000" of
e in [-4, -1], the digits shifted past them with the point after digit e
(after the first in the "e-05" and "e-06" of e < -4), trailing zeros cut
by length, a separator; zero bytes pad it, and one ``bytes.translate``
drops them. Zero and -0 go this way too. Every other cell is formatted
by Python's "%.17g" alone: NaN, +-inf, |x| outside [1e-6, 1e17), the few
whose N leaves the range above, and the cells of string columns; a marker
byte holds its place.

A single path's table can be formatted beside the loop that steps it. The
loop keeps its record table where a ``RowFeed`` puts it, and publishes each
checked block of rows to it. The feed of a library call (``IN_PROCESS``)
keeps the table in this process and formats nothing ahead, so the writer
formats every row. The feed of simulate-discrete and simulate-sde shares the
table of a path of SPLIT_ROWS rows or more with a forked child, which
formats rows [0, a) as they are published while the loop goes on; the
writer then formats only rows [a, K) and writes the child's text before its
own. Rows are formatted in blocks of
at most BLOCK_ROWS, and the text is kept as one string per block (the
child's comes through a shared mapping and is decoded in pieces), so no
table is copied into one string."""

from __future__ import annotations

import numpy as np

STATE_HEADER = "rho_00_re,rho_01_re,rho_01_im,rho_11_re"
# rows formatted per write: enough to amortize the 150-odd numpy calls of a
# block, few enough that its buffers stay in cache (about 20 words a cell,
# 1.6 MB for the 10-column chain table); 512 and 2048 rows were slower
BLOCK_ROWS = 1024
# rows from which a path's table is formatted beside its loop. A fork and the
# child's reply cost several ms; on a 2-vCPU host, with cells formatted as
# arrays, two lanes broke even with one at 5000-6000 rows of the 10-column
# chain table (medians of 21 alternating runs: -2 ms at 5000, +2 ms at 6000,
# +4 ms at 8000, +6 ms at 12000). The 7-23-row converge and girsanov tables
# stay in one process
SPLIT_ROWS = 5000
# the most bytes a cell takes: a "%.17g" text has at most 24 characters,
# and its separator follows
CELL_BYTES = 25
# rows of a single path's record table, past which it is refused before
# anything is allocated: 10^7 rows of the 7-column chain table are 560 MB
MAX_ROWS = 10 ** 7


class TableTooLarge(ValueError):
    """A single path's record table would have more than MAX_ROWS rows."""


def check_rows(rows: int) -> None:
    """TableTooLarge if a path's record table of ``rows`` rows is too large."""
    if rows > MAX_ROWS:
        raise TableTooLarge(f"the path would have {rows} rows, more than {MAX_ROWS}")


def csv_rows(columns, start: int = 0) -> list[str]:
    """Text pieces of the rows of the table of ``columns`` (arrays or lists)
    from row ``start`` on. The table has as many rows as the longest column.
    A column one entry shorter starts in row 1, and its cell in row 0 is
    empty (per-step data beside the states it leads to). The rows go in
    blocks of BLOCK_ROWS, and each block's cells are formatted as arrays
    (see the module docstring): one float64 gather, one numpy pass, one
    compaction and one decode a block, and Python's "%.17g" or str only for
    the cells the array pass leaves out."""
    columns = [np.asarray(col) for col in columns]
    num_rows = max(map(len, columns))
    words = [j for j, col in enumerate(columns) if col.dtype.kind == "U"]
    short = [j for j, col in enumerate(columns) if len(col) < num_rows]
    cells = _Cells(min(BLOCK_ROWS, max(num_rows - start, 0)), len(columns))
    blocks = []
    for lo in range(start, num_rows, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, num_rows)
        values = cells.values[:hi - lo]
        strings = {}
        for j, col in enumerate(columns):
            part = col[lo:hi] if len(col) == num_rows else col[max(lo - 1, 0):hi - 1]
            empty = len(values) - len(part)     # 1 in row 0 of a short column
            if j in words:
                strings[j] = [""] * empty + part.tolist()
                values[:, j] = 0.0
            else:
                values[:empty, j] = 0.0
                values[empty:, j] = part
        blocks.append(cells.text(hi - lo, words, short if lo == 0 else [], strings).decode())
    return blocks


_MARK = 1                   # the byte that holds a Python-formatted cell's place
# classes of a cell: e + 6 for the 23 exponents e in [-6, 16], then these
_ZERO, _PYTHON, _EMPTY = 23, 24, 25
_CLASSES = 26
_U = np.uint64
_ASCII = _U(0x3030303030303030)
_POW10 = np.array([10.0 ** k for k in range(23)])   # exact
_SPLIT = 2.0 ** 27 + 1


def _halves(v):
    """Veltkamp's split v = hi + lo, each half of 26 bits or fewer."""
    c = _SPLIT * v
    hi = c - (c - v)
    return hi, v - hi


_POW10_HI, _POW10_LO = _halves(_POW10)


def _words(table) -> np.ndarray:
    """(3, len) uint64 words of a (len, 24) byte table, byte 0 lowest."""
    return np.ascontiguousarray(np.asarray(table, np.uint8).view(_U).T)


def _byte_range(starts, stops) -> np.ndarray:
    """(3, len) words with bytes [start, stop) of the 24 set, per pair."""
    table = np.zeros((len(starts), 24), np.uint8)
    for row, start, stop in zip(table, starts, stops):
        row[start:stop] = 0xFF
    return _words(table)


def _class_tables():
    """Per class of cell: the shift of its digits (8 times the byte of digit
    0), the digits before the point (17 where there is none), the fewest
    digits kept (the integer digits of e >= 0, the first digit, none in a
    cell laid out elsewhere), the bytes before and after the point, and the
    fixed bytes, (3, 4 x 26) words indexed by class + 26 (point kept) +
    52 (negative): the sign, "0." and zeros for e in [-4, -1], the point,
    "e-0X" for e < -4, the marker of a Python cell."""
    first = np.ones(_CLASSES, np.intp)
    before = np.full(_CLASSES, 17, np.intp)
    least = (np.arange(_CLASSES) <= _ZERO).astype(np.intp)
    fixed = np.zeros((2, 2, _CLASSES, 24), np.uint8)    # [negative, point kept]
    for e in range(-6, 17):
        c = e + 6
        if e >= 0:
            before[c] = least[c] = e + 1
        elif e >= -4:
            first[c] = 2 - e
            fixed[:, :, c, 1:2 - e] = list(b"0." + b"0" * (-e - 1))
        else:
            before[c] = 1
            fixed[:, :, c, 19:23] = list(b"e-0%d" % -e)
        if before[c] < 17:
            fixed[:, 1, c, first[c] + before[c]] = ord(".")
    fixed[1, :, :_PYTHON, 0] = ord("-")
    fixed[:, :, _PYTHON, 0] = _MARK
    point = first + before
    return ((8 * first).astype(_U), before, least, _byte_range([0] * _CLASSES, point),
            _byte_range(point + 1, [24] * _CLASSES), _words(fixed.reshape(-1, 24)))


_SHIFT, _BEFORE, _LEAST, _HEAD, _TAIL, _FIXED = _class_tables()
_KEEP = _byte_range([0] * 18, range(18))            # digits 0 .. keep - 1
_SEPARATORS = {False: _U(ord(",") << 56), True: _U(ord("\n") << 56)}


class _Cells:
    """The reused buffers of formatting the cells of blocks of up to
    ``rows`` rows of ``cols`` columns. Every step writes into them: numpy's
    temporaries, freed and allocated again, cost page faults that took
    about as long as the arithmetic."""

    def __init__(self, rows: int, cols: int):
        n = rows * cols
        self.values = np.empty((rows, cols))
        # the float steps of _classify and the integer ones of _lay_out take
        # turns in the same eleven words a cell
        self.u = np.empty((11, n), _U)
        self.f = self.u[:8].view(np.float64)
        self.i = np.empty((4, n), np.intp)
        self.b = np.empty((3, n), bool)
        self.out = np.empty((rows, cols, 3), _U)
        self.separators = np.array([_SEPARATORS[j == cols - 1] for j in range(cols)])

    def text(self, rows: int, words, empty, strings) -> bytes:
        """The text of the first ``rows`` rows of ``values``: the cells of the
        ``words`` columns are ``strings[j]``, and those of the ``empty``
        columns in row 0 are empty."""
        cols = self.values.shape[1]
        n = rows * cols
        x = self.values[:rows].reshape(n)
        cls = self._classify(x, n)
        grid = cls.reshape(rows, cols)
        grid[:, words] = _PYTHON
        grid[0, empty] = _EMPTY
        out = self.out[:rows]
        self._lay_out(x, cls, n, out.reshape(n, 3))
        out[:, :, 2] |= self.separators
        text = out.tobytes().translate(None, b"\0")
        python = np.flatnonzero(cls == _PYTHON)
        if not len(python):
            return text
        cells = [strings[j][r] if j in strings else "%.17g" % x[i]
                 for i, r, j in zip(python, *divmod(python, cols))]
        parts = text.split(bytes([_MARK]))
        return b"".join([parts[0], *(cell.encode() + part
                                     for cell, part in zip(cells, parts[1:]))])

    def _classify(self, x: np.ndarray, n: int) -> np.ndarray:
        """The class of each cell of ``x``, and N, its 17 digits as an
        integer, in ``i[1]`` (0 where the class is not an exponent's)."""
        f0, f1, f2, f3, f4, f5, f6, f7 = (f[:n] for f in self.f)
        i0, i1, i2 = (i[:n] for i in self.i[:3])
        b0, b1, b2 = (b[:n] for b in self.b)
        a = np.abs(x, out=f0)
        with np.errstate(divide="ignore"):      # log10(0) is -inf
            e = np.floor(np.log10(a, out=f1), out=f1)
        # e in [-6, 16], and |x| at most 1e17 where it is not (NaN included)
        clipped = np.fmin(np.fmax(e, -6.0, out=f2), 16.0, out=f2)
        fast = np.equal(e, clipped, out=b0)
        e = clipped
        np.fmin(a, 1e17, out=a)
        # 10^k, k = 16 - e, and 10^0 where e is not in range (NaN included)
        np.copyto(i0, np.multiply(np.subtract(16.0, e, out=f1), fast, out=f1), casting="unsafe")
        k = i0
        b, b_hi, b_lo = (np.take(table, k, out=buf, mode="clip") for table, buf in
                         ((_POW10, f1), (_POW10_HI, f3), (_POW10_LO, f4)))
        hi = np.multiply(a, b, out=f5)
        c = np.multiply(_SPLIT, a, out=f1)
        a_hi = np.subtract(c, np.subtract(c, a, out=f6), out=f6)
        a_lo = np.subtract(a, a_hi, out=f1)
        # Dekker: lo = a_lo b_lo - (((hi - a_hi b_hi) - a_lo b_hi) - a_hi b_lo)
        lo = np.subtract(hi, np.multiply(a_hi, b_hi, out=f7), out=f7)
        np.subtract(lo, np.multiply(a_lo, b_hi, out=f3), out=lo)
        np.subtract(lo, np.multiply(a_hi, b_lo, out=f3), out=lo)
        np.subtract(np.multiply(a_lo, b_lo, out=f3), lo, out=lo)
        # hi + lo in [10^16, 10^17)
        inside = np.logical_and(np.greater_equal(lo, 0.0, out=b1),
                                np.equal(hi, 1e16, out=b2), out=b1)
        np.logical_or(inside, np.greater(hi, 1e16, out=b2), out=inside)
        np.logical_and(inside, np.less(hi, 1e17, out=b2), out=inside)
        ok = np.logical_and(fast, inside, out=b0)
        np.copyto(i1, hi, casting="unsafe")
        np.copyto(i2, np.rint(lo, out=lo), casting="unsafe")
        np.multiply(np.add(i1, i2, out=i1), ok, out=i1)
        # e + 6 where ok, else _ZERO for 0 and -0 and _PYTHON
        np.multiply(np.add(e, 6.0 - _PYTHON, out=e), ok, out=e)
        np.subtract(e, np.equal(x, 0.0, out=b1), out=e)
        return np.add(e, _PYTHON, out=i2, casting="unsafe")

    def _lay_out(self, x: np.ndarray, cls: np.ndarray, n: int, out: np.ndarray) -> None:
        """The 24 bytes of each cell of ``x`` of class ``cls`` into the (n, 3)
        words ``out``, the separator's byte 0."""
        i0, i1, i3 = (self.i[j][:n] for j in (0, 1, 3))
        u0, u1, u2, u3, u4 = (u[:n] for u in self.u[:5])
        pair, q, y = (self.u[j:j + 2, :n] for j in (5, 7, 9))
        digits = i1.view(_U)
        # N = d0 10^16 + A 10^8 + B
        d0 = np.floor_divide(digits, _U(10 ** 16), out=u0)
        rest = np.subtract(digits, np.multiply(d0, _U(10 ** 16), out=u1), out=u1)
        np.floor_divide(rest, _U(10 ** 8), out=pair[0])
        np.subtract(rest, np.multiply(pair[0], _U(10 ** 8), out=pair[1]), out=pair[1])
        # SWAR: the 8 digits of A and of B, one a byte, the first lowest
        np.floor_divide(pair, _U(10000), out=q)
        np.subtract(pair, np.multiply(q, _U(10000), out=y), out=y)
        np.bitwise_or(np.left_shift(y, _U(32), out=y), q, out=y)
        for mul, shift, mask, base, width in ((10486, 20, 0x0000007F0000007F, 100, 16),
                                              (103, 10, 0x000F000F000F000F, 10, 8)):
            np.multiply(y, _U(mul), out=q)
            np.bitwise_and(np.right_shift(q, _U(shift), out=q), _U(mask), out=q)
            np.subtract(y, np.multiply(q, _U(base), out=pair), out=y)
            np.bitwise_or(np.left_shift(y, _U(width), out=y), q, out=y)
        # digits kept: to the last nonzero one, the top byte of A or B that
        # is not 0, read from the exponent of the word as a float (exact to
        # the byte, as a byte is at most 9), and at least _LEAST
        top = pair.view(np.int64)
        np.copyto(pair.view(np.float64), y)
        np.right_shift(np.subtract(np.right_shift(top, 52, out=top), 1023, out=top), 3, out=top)
        keep = np.add(top[1], 10, out=i0)
        np.maximum(keep, np.add(top[0], 2, out=top[0]), out=keep)
        np.maximum(keep, np.take(_LEAST, cls, out=i3, mode="clip"), out=keep)
        # the digits as ASCII in bytes 0-16 of three words, those past keep 0
        big, small = y
        s0 = np.bitwise_or(np.left_shift(big, _U(8), out=u1), d0, out=u1)
        s1 = np.bitwise_or(np.right_shift(big, _U(56), out=u0),
                           np.left_shift(small, _U(8), out=q[0]), out=u0)
        s2 = np.right_shift(small, _U(56), out=u2)
        for s, mask in zip((s0, s1, s2), _KEEP):
            np.bitwise_and(np.bitwise_or(s, _ASCII, out=s),
                           np.take(mask, keep, out=q[1], mode="clip"), out=s)
        # shifted to the class's first byte; the digits after the point go
        # one byte further (tail)
        shift = np.take(_SHIFT, cls, out=u3, mode="clip")
        back = np.subtract(_U(64), shift, out=u4)
        h0 = np.left_shift(s0, shift, out=pair[0])
        h1 = np.bitwise_or(np.left_shift(s1, shift, out=q[0]),
                           np.right_shift(s0, back, out=q[1]), out=q[0])
        h2 = np.bitwise_or(np.left_shift(s2, shift, out=u1),
                           np.right_shift(s1, back, out=q[1]), out=u1)
        point = np.greater(keep, np.take(_BEFORE, cls, out=i1, mode="clip"), out=self.b[1][:n])
        key = np.add(np.multiply(point, _CLASSES, out=i1), cls, out=i1)
        np.add(key, np.multiply(np.signbit(x, out=self.b[2][:n]), 2 * _CLASSES, out=i3), out=key)
        for j, word, below in ((2, h2, h1), (1, h1, h0), (0, h0, None)):
            tail = np.left_shift(word, _U(8), out=u0)
            if below is not None:
                np.bitwise_or(tail, np.right_shift(below, _U(56), out=u2), out=tail)
            np.bitwise_and(tail, np.take(_TAIL[j], cls, out=u2, mode="clip"), out=tail)
            np.bitwise_and(word, np.take(_HEAD[j], cls, out=u2, mode="clip"), out=word)
            np.bitwise_or(word, tail, out=word)
            np.bitwise_or(word, np.take(_FIXED[j], key, out=u2, mode="clip"), out=word)
            out[:, j] = word


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
        """(a, call): ``call()`` returns the text pieces (an iterable) of the
        CSV rows [0, a) formatted ahead, or raises their error."""
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
    pieces = text()
    head = "" if timestamp is None else f"# generated {timestamp}\n"
    stream.write(head + header + "\n")
    stream.writelines(pieces)
    stream.writelines(rest)


def state_columns(states: np.ndarray) -> list[np.ndarray]:
    """The STATE_HEADER columns of a (K, 2, 2) state stack; Hermiticity
    makes these four real columns sufficient."""
    s = states.reshape(len(states), 4)
    return [s[:, 0].real, s[:, 1].real, s[:, 1].imag, s[:, 3].real]
