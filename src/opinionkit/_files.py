"""The one module that reads and writes opinionkit's file formats.

A table is comma-separated text: a header line naming the columns, then
one line per row of nonnegative integer labels and, last, a float value
printed with 17 significant digits, so a read of a written table gives
back the same doubles bit for bit. Empty lines are skipped. A table is
written in chunks of whole rows, about TABLE_CHUNK cells each: a row is
its label lead joined before the text of each written cell (a "%.17g"
slot, or under a mask only its observed cells), and the chunk's rows form
one template, filled by a single % with their values. A run of cells
equal bit for bit down a column is formatted once, and its text stands
in the row for each of its cells (see table_text), so the writer's cost
is per formatted value, not per cell. Memory stays O(TABLE_CHUNK + row
width) with or without a mask.
Every other document is a JSON object. Readers raise ConfigError naming
the file.
"""

import json
import operator
import sys
import warnings
from itertools import compress, islice, product, repeat
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
    """Yield a table's header line, then its rows in chunks of whole rows:
    "keys[s],idx...,value" for values[s][idx] in row-major order (keys
    defaults to 0, 1, ...), only where mask is true when one is given.

    A chunk holds max(1, TABLE_CHUNK // width) rows of width cells. Row s
    is written as lead + lead.join(tails), with lead "keys[s]," and one
    tail per written cell, its slot "idx...,%.17g" and a newline: masked
    cells are dropped, and a row without written cells writes nothing.
    The chunk's rows are one template, filled by a single % with its
    slotted values.
    A column is one idx, read down the rows s, and a run is two or more
    written cells in a row of a column whose values are equal bit for bit
    (so -0.0 and 0.0, or two NaN payloads, never share a run; a cell the
    mask leaves out ends a run). A run is formatted once: the text of its
    first cell is the tail of every cell of the run, and only cells
    outside runs keep a slot, so a chunk without runs reuses the one slot
    list for every row. Each column carries the text of its current run
    from chunk to chunk. Memory stays O(TABLE_CHUNK + row width), with or
    without a mask."""
    values = np.asarray(values, dtype=float)
    slots = [
        "".join(idx) + "%.17g\n"
        for idx in product(*([f"{i}," for i in range(size)] for size in values.shape[1:]))
    ]
    width, count = len(slots), len(values)
    # each column's slot, then the text of its current run once it has one
    known = np.array(slots + [None] * width, dtype=object)
    step = max(1, TABLE_CHUNK // max(width, 1))
    yield header + "\n"
    for lo in range(0, count, step):
        hi = min(lo + step, count)
        # the chunk's rows and their neighbours; equal[t] tells which cells
        # of row lo + t equal, bit for bit, the written cell above them
        first, last = max(lo - 1, 0), min(hi + 1, count)
        window = np.ascontiguousarray(values[first:last]).reshape(last - first, width)
        bits = window.view(np.int64)
        equal = np.zeros((hi - lo + 1, width), dtype=bool)
        equal[first + 1 - lo : last - lo] = bits[1:] == bits[:-1]
        if mask is not None:
            seen = np.asarray(mask[first:last], dtype=bool).reshape(last - first, width)
            equal[first + 1 - lo : last - lo] &= seen[1:] & seen[:-1]
        block, literal = window[lo - first : hi - first], equal[:-1] | equal[1:]
        rows = _run_tails(known, block, equal).tolist() if literal.any() else repeat(slots)
        slotted = ~literal
        if mask is not None:
            seen = seen[lo - first : hi - first]
            rows = map(list, map(compress, rows, seen.tolist()))
            slotted &= seen
        leads = (f"{s if keys is None else keys[s]}," for s in range(lo, hi))
        template = "".join(lead + lead.join(tails) for lead, tails in zip(leads, rows) if tails)
        yield template % tuple(block[slotted].tolist())


def _run_tails(known, block, equal):
    """The tails of a chunk's (rows, width) block: each cell's slot, or the
    text of the run it belongs to; equal[t] and equal[t + 1] tell which
    cells of row t equal the cell above and the cell below. known holds
    each column's slot, then its current run text: a run that starts in
    the chunk is formatted here, and its column's entry is updated for the
    next chunk."""
    up, down = equal[:-1], equal[1:]
    width = block.shape[1]
    column = np.arange(width)
    first = down & ~up
    starts = list(map(operator.mod, known[np.nonzero(first)[1]], block[first].tolist()))
    texts = np.concatenate([known, np.array(starts, dtype=object)])
    # the latest run start at or above each cell in its column
    latest = np.full(block.shape, -1)
    latest[first] = np.arange(2 * width, len(texts))
    np.maximum.accumulate(latest, axis=0, out=latest)
    (ends,) = np.nonzero(latest[-1] >= 0)
    known[width + ends] = texts[latest[-1, ends]]
    return texts[np.where(up | down, np.where(latest < 0, width + column, latest), column)]


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
