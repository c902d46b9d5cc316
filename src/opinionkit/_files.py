"""The one module that reads and writes opinionkit's file formats.

A table is comma-separated text: a header line naming the columns, then
one line per row of nonnegative integer labels and, last, a float value
printed with 17 significant digits, so a read of a written table gives
back the same doubles bit for bit. Empty lines are skipped. A table is
written TABLE_CHUNK cells at a time: the label prefixes of the chunk's
rows (its observed cells, under a mask) are joined into one "%.17g"
template, filled by a single % with their values. A run of cells equal
bit for bit down a column is formatted once, and its text enters the
template as a literal for each of its cells (see table_text), so the
writer's cost is per formatted value, not per cell. Memory stays
O(TABLE_CHUNK + row width) with or without a mask.
Every other document is a JSON object. Readers raise ConfigError naming
the file.
"""

import json
import operator
import sys
import warnings
from itertools import chain, compress, cycle, islice, product, repeat
from pathlib import Path

import numpy as np

from .errors import ConfigError

# Cells per formatted piece of a written table: one template string and one
# tuple of values of at most this many rows are alive at a time.
TABLE_CHUNK = 4096


def is_int(value) -> bool:
    """Whether a decoded JSON value is an integer (true and false are not)."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    """Whether a decoded JSON value is a float or an integer within the float range."""
    return isinstance(value, float) or is_int(value) and abs(value) <= sys.float_info.max


def read_json(path, what: str, keys=None) -> dict:
    """The JSON object stored at path; what names the document in errors.
    When keys is given, the object must hold exactly those keys."""
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except FileNotFoundError:
        raise ConfigError(f"{what} {path} is missing") from None
    except ValueError as exc:  # invalid JSON or undecodable bytes
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} {path} does not hold a JSON object")
    if keys is not None and set(doc) != set(keys):
        raise ConfigError(f"{what} {path} has keys {sorted(doc)}, expected {sorted(keys)}")
    return doc


def write_json(path, doc: dict) -> None:
    Path(path).write_text(json_text(doc))


def json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def table_text(header: str, values, keys=None, mask=None):
    """Yield a table's header line, then its rows in chunks of at most
    TABLE_CHUNK rows: "keys[s],idx...,value" for values[s][idx] in
    row-major order (keys defaults to 0, 1, ...), only where mask is true
    when one is given.

    A chunk covers TABLE_CHUNK cells; it is one template of row prefixes
    joined with "%.17g" slots, filled by a single % with the chunk's
    values. A column is one idx, read down the rows s, and a run is two or
    more written cells in a row of a column whose values are equal bit
    for bit (so -0.0 and 0.0, or two NaN payloads, never share a run; a
    cell the mask leaves out ends a run). A run is formatted once: the
    text of its first cell goes into the template as a literal for every
    cell of the run, and only cells outside runs keep a slot, so a table
    without runs is written from the same templates as without this rule.
    Each column carries the text of its current run from chunk to chunk.
    Memory stays O(TABLE_CHUNK + row width), with or without a mask."""
    values = np.asarray(values, dtype=float)
    slots = [
        "".join(idx) + "%.17g\n"
        for idx in product(*([f"{i}," for i in range(size)] for size in values.shape[1:]))
    ]
    width = len(slots)
    # each column's slot, then the text of its current run once it has one
    known = np.array(slots + [None] * width, dtype=object)
    leads = (f"{s if keys is None else keys[s]}," for s in range(len(values)))
    heads = chain.from_iterable(repeat(lead, width) for lead in leads)
    cells = _row_major(values)
    if mask is not None:
        mask = _row_major(np.asarray(mask, dtype=bool))
    yield header + "\n"
    for lo in range(0, values.size, TABLE_CHUNK):
        hi = min(lo + TABLE_CHUNK, values.size)
        up, down, chunk = _equal_neighbours(cells, mask, lo, hi, width)
        literal = up | down
        tails = islice(cycle(slots), lo % width, None)
        if literal.any():
            tails = _run_tails(known, chunk, up, down, lo)
        piece = map(operator.add, islice(heads, hi - lo), tails)
        slotted = ~literal
        if mask is not None:
            keep = mask[lo:hi]
            piece = compress(piece, keep.tolist())
            slotted &= keep
        yield "".join(piece) % tuple(chunk[slotted].tolist())


def _run_tails(known, chunk, up, down, lo: int) -> list:
    """The text after the row lead of each cell of a chunk that starts at
    cell lo: its column's slot, or the literal text of the run it belongs
    to. known holds each column's slot, then its current run text: a run
    that starts in the chunk is formatted here, and its column's entry is
    updated for the next chunk."""
    width = len(known) // 2
    column = np.arange(lo, lo + len(chunk)) % width
    first = down & ~up
    starts = list(map(operator.mod, known[column[first]], chunk[first].tolist()))
    texts = np.concatenate([known, np.array(starts, dtype=object)])
    # the latest run start at or above each cell in its column, on a grid of
    # the whole rows that the chunk touches
    offset = lo % width
    grid = np.full((-(-(offset + len(chunk)) // width), width), -1)
    latest = grid.reshape(-1)[offset : offset + len(chunk)]
    latest[first] = np.arange(2 * width, len(texts))
    np.maximum.accumulate(grid, axis=0, out=grid)
    (ends,) = np.nonzero(grid[-1] >= 0)
    known[width + ends] = texts[grid[-1, ends]]
    return texts[np.where(up | down, np.where(latest < 0, width + column, latest), column)].tolist()


def _row_major(array):
    """The cells of array in row-major order, as a one-dimensional view
    when array is C-contiguous and else as its flat iterator: a slice of
    either copies at most the cells it holds."""
    return array.reshape(-1) if array.flags.c_contiguous else array.flat


def _equal_neighbours(cells, mask, lo: int, hi: int, width: int):
    """(up, down, chunk) for the cells lo:hi of a table's row-major cells:
    whether each cell's bits equal those of the cell one row above, and of
    the cell one row below, both cells written (true in the row-major
    mask, when one is given), and the cells' values. Reads the chunk's
    cells and their neighbours only."""
    chunk = cells[lo:hi]
    bits = chunk.view(np.int64)
    up = np.zeros(hi - lo, dtype=bool)
    down = np.zeros(hi - lo, dtype=bool)
    skip = min(max(width - lo, 0), hi - lo)  # cells in row 0 have no row above
    reach = min(max(len(cells) - width - lo, 0), hi - lo)  # cells with a row below
    above, below = slice(lo + skip - width, hi - width), slice(lo + width, lo + width + reach)
    up[skip:] = bits[skip:] == cells[above].view(np.int64)
    down[:reach] = bits[:reach] == cells[below].view(np.int64)
    if mask is not None:
        keep = mask[lo:hi]
        up[skip:] &= mask[above]
        down[:reach] &= mask[below]
        up &= keep
        down &= keep
    return up, down, chunk


def write_table(path, header: str, values, keys=None, mask=None) -> None:
    """Write a table to path (see table_text)."""
    with open(path, "w") as handle:
        handle.writelines(table_text(header, values, keys=keys, mask=mask))


def read_table(path, header: str, what: str):
    """(labels, values) of the table at path: one int64 array per label
    column and the float64 values, in file order. Raises ConfigError for a
    missing file, another header, and (naming the line) a malformed row, a
    negative label or a row repeating an earlier row's labels. A table whose
    label rows ascend strictly, as every written table's do, is not sorted."""
    names = header.split(",")
    dtype = [(name, np.int64) for name in names[:-1]] + [(names[-1], np.float64)]
    try:
        with open(path) as handle:
            found = handle.readline().strip()
            if found != header:
                raise ConfigError(
                    f"{path}: unexpected {what} header {found!r}, expected {header!r}"
                )
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                table = np.loadtxt(handle, delimiter=",", comments=None, dtype=dtype, ndmin=1)
    except FileNotFoundError:
        raise ConfigError(f"{what} file {path} is missing") from None
    except ValueError:
        lineno, line = _first_bad_line(path, dtype)
        raise ConfigError(f"{path}, line {lineno}: malformed {what} row {line!r}") from None
    labels = tuple(table[name] for name in names[:-1])
    for problem, rows in (
        ("negative label in", np.flatnonzero(np.any([c < 0 for c in labels], axis=0))),
        ("repeated", _repeated_rows(labels)),
    ):
        if rows.size:
            row = int(rows.min())
            cell = ", ".join(f"{name}={c[row]}" for name, c in zip(names, labels))
            lineno = next(islice(_data_lines(path), row, None))[0]
            raise ConfigError(f"{path}, line {lineno}: {problem} {what} row ({cell})")
    return labels, table[names[-1]]


def _repeated_rows(labels) -> np.ndarray:
    """The rows whose labels repeat an earlier row's. Every written table
    has its label rows in strictly ascending order, which one pass over
    neighbouring rows confirms; only other tables are sorted."""
    above = np.zeros(max(len(labels[0]) - 1, 0), dtype=bool)
    equal = np.ones_like(above)
    for column in labels:
        above |= equal & (column[1:] > column[:-1])
        equal &= column[1:] == column[:-1]
    if above.all():
        return np.empty(0, dtype=np.intp)
    order = np.lexsort(labels[::-1])  # stable: equal rows keep file order
    repeated = np.ones(max(order.size - 1, 0), dtype=bool)
    for column in labels:
        ranked = column[order]
        repeated &= ranked[1:] == ranked[:-1]
    return order[1:][repeated]


def _data_lines(path):
    """(line number, text) of every nonempty line after the header."""
    with open(path, errors="replace") as handle:
        handle.readline()
        for lineno, line in enumerate(handle, start=2):
            if line.rstrip("\r\n"):
                yield lineno, line


def _first_bad_line(path, dtype):
    """(line number, text) of the first line of path that loadtxt rejects,
    rescanned one line at a time after loadtxt rejected the table."""
    for lineno, line in _data_lines(path):
        try:
            np.loadtxt([line], delimiter=",", comments=None, dtype=dtype)
        except ValueError:
            return lineno, line.strip()
    with open(path, errors="replace") as handle:
        return 1, handle.readline().strip()  # only the header can be undecodable
