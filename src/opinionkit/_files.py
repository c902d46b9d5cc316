"""The one module that reads and writes opinionkit's file formats.

A table is comma-separated text: a header line naming the columns, then
one line per row of nonnegative integer labels and, last, a float value
printed with 17 significant digits, so a read of a written table gives
back the same doubles bit for bit. Empty lines are skipped. A table is
written TABLE_CHUNK cells at a time: the label prefixes of the chunk's
rows (its observed cells, under a mask) are joined into one "%.17g"
template, filled by a single % with their values.
Every other document is a JSON object. Readers raise ConfigError naming
the file.
"""

import json
import operator
import sys
import warnings
from itertools import chain, compress, cycle, islice, repeat
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
    when one is given. A chunk covers TABLE_CHUNK cells; it is one template
    of row prefixes joined with "%.17g" slots, filled by a single % with
    the chunk's values, so memory stays O(TABLE_CHUNK) with or without a
    mask."""
    values = np.asarray(values, dtype=float)
    slots = ["".join(f"{i}," for i in idx) + "%.17g\n" for idx in np.ndindex(values.shape[1:])]
    leads = (f"{s if keys is None else keys[s]}," for s in range(len(values)))
    rows = map(
        operator.add,
        chain.from_iterable(repeat(lead, len(slots)) for lead in leads),
        cycle(slots),
    )
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
    yield header + "\n"
    for lo in range(0, values.size, TABLE_CHUNK):
        chunk = values.flat[lo : lo + TABLE_CHUNK]  # copies this chunk only
        piece = islice(rows, len(chunk))
        if mask is not None:
            keep = mask.flat[lo : lo + TABLE_CHUNK]
            piece, chunk = compress(piece, keep.tolist()), chunk[keep]
        yield "".join(piece) % tuple(chunk.tolist())


def write_table(path, header: str, values, keys=None, mask=None) -> None:
    """Write a table to path (see table_text)."""
    with open(path, "w") as handle:
        handle.writelines(table_text(header, values, keys=keys, mask=mask))


def read_table(path, header: str, what: str):
    """(labels, values) of the table at path: one int64 array per label
    column and the float64 values, in file order. Raises ConfigError for a
    missing file, another header, and (naming the line) a malformed row, a
    negative label or a row repeating an earlier row's labels."""
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
    order = np.lexsort(labels[::-1])  # stable: equal rows keep file order
    repeated = np.ones(max(order.size - 1, 0), dtype=bool)
    for column in labels:
        ranked = column[order]
        repeated &= ranked[1:] == ranked[:-1]
    for problem, rows in (
        ("negative label in", np.flatnonzero(np.any([c < 0 for c in labels], axis=0))),
        ("repeated", order[1:][repeated]),
    ):
        if rows.size:
            row = int(rows.min())
            cell = ", ".join(f"{name}={c[row]}" for name, c in zip(names, labels))
            lineno = next(islice(_data_lines(path), row, None))[0]
            raise ConfigError(f"{path}, line {lineno}: {problem} {what} row ({cell})")
    return labels, table[names[-1]]


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
