"""The one module that reads and writes opinionkit's file formats.

A table is comma-separated text: a header line naming the columns, then
one line per row of nonnegative integer labels and, last, a float value
printed as "%.17g" prints it, so a read of a written table gives back the
same doubles bit for bit. Empty lines are skipped. A table is written in
chunks of whole rows, about TABLE_CHUNK cells each, and each chunk's text
is assembled in one byte matrix (see table_text), so memory stays
O(TABLE_CHUNK + row width) with or without a mask.

Every "%.17g" text of the package comes from one vectorised kernel,
_number_rows (number_texts serves the writers outside this module). For
each value x it finds the 17-digit integer D and the decimal exponent X
of x rounded to 17 significant digits by multiplying |x| by 10^(16 - X)
in double-double arithmetic: Dekker's exact product (1971) of |x| and the
double nearest the power, plus |x| times the power's remainder, from a
table built at import with exact integer arithmetic. The product r lies
in [10^16, 10^17) and within 2^-104 * r < 2^-47 of its true value, so
rounding r to D is certain wherever its remainder lies farther than
ROUND_MARGIN from one half. The values the kernel cannot settle (ties and
near-ties, zeros, NaNs, infinities and magnitudes outside FAST_EXPONENTS)
are printed by "%" in place, as Grisu3 (Loitsch, PLDI 2010) hands its
failures to an exact printer. The bound rests on float64 ufuncs that
round to nearest and never fuse a multiply and an add, as numpy's do.

Every other document is a JSON object. Readers raise ConfigError naming
the file.
"""

import json
import math
import sys
import warnings
from itertools import islice, product
from pathlib import Path

import numpy as np

from .errors import ConfigError

# Cells per chunk of a written table, a chunk being at least one whole row:
# the byte matrix of one chunk's cells is alive at a time.
TABLE_CHUNK = 4096

# A value's 17 digits are certified where the remainder of its scaled
# product lies farther than this from one half. The product's error is
# below 2^-47 (see the module docstring), so the margin leaves a factor of
# 2^17 to spare and hands about one in 5 * 10^8 uniform remainders to "%".
ROUND_MARGIN = 2.0**-30

# The kernel prints magnitudes in [10^-FAST_EXPONENTS, 10^FAST_EXPONENTS).
# There every power 10^(16 - X) it uses, and each power's remainder, is a
# normal double, and Veltkamp's split of |x| cannot overflow.
FAST_EXPONENTS = 290


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


_SPLIT = 2.0**27 + 1  # Veltkamp's constant: halves of 26 bits or fewer


def _halves(a):
    """Veltkamp's split of a into a high and a low half, a = high + low."""
    scaled = _SPLIT * a
    high = scaled - (scaled - a)
    return high, a - high


def _power_table():
    """Rows (nearest, high half, low half, rest) of 10^(16 - X) for X from
    _LOWEST to FAST_EXPONENTS + 2: the nearest double to the power, its
    two Veltkamp halves and the nearest double to the power less it, from
    exact integer arithmetic (a quotient of two ints rounds correctly)."""
    rows = []
    for X in range(-FAST_EXPONENTS - 2, FAST_EXPONENTS + 3):
        top, bottom = (10 ** (16 - X), 1) if X <= 16 else (1, 10 ** (X - 16))
        nearest = top / bottom
        near_top, near_bottom = nearest.as_integer_ratio()
        rest = (top * near_bottom - near_top * bottom) / (bottom * near_bottom)
        mantissa, scale = math.frexp(nearest)  # split unscaled: no overflow
        halves = [math.ldexp(half, scale) for half in _halves(mantissa)]
        rows.append([nearest, *halves, rest])
    return np.array(rows).T.copy()


_LOWEST = -FAST_EXPONENTS - 2
_POWER, _POWER_HIGH, _POWER_LOW, _POWER_REST = _power_table()


def _product(magnitudes, exponents):
    """magnitudes * 10^(16 - exponents) as an unnormalised double-double
    (product, error): Dekker's exact product of each magnitude and the
    power's nearest double, plus the magnitude times the power's rest."""
    at = exponents - _LOWEST
    product_ = magnitudes * _POWER[at]
    high, low = _halves(magnitudes)
    error = high * _POWER_HIGH[at] - product_
    error += high * _POWER_LOW[at]
    error += low * _POWER_HIGH[at]
    error += low * _POWER_LOW[at]
    error += magnitudes * _POWER_REST[at]
    return product_, error


def _scaled(magnitudes, exponents):
    """(floor, remainder) of magnitudes * 10^(16 - exponents) in
    double-double arithmetic: the floor as int64, the remainder in [0, 1]."""
    product_, error = _product(magnitudes, exponents)
    total = product_ + error
    product_ -= total
    error += product_  # the tail: now total + error is the product, exactly (fast two-sum)
    below = np.floor(error)
    error -= below
    whole = total.astype(np.int64)
    whole += below.astype(np.int64)
    return whole, error


def _decimal(values):
    """(D, X, certified) of the 1-D values: where certified, |x| rounded
    to 17 significant digits is D * 10^(X - 16) with D in [10^16, 10^17)."""
    magnitudes = np.abs(values)
    certified = (magnitudes >= 10.0**-FAST_EXPONENTS) & (magnitudes < 10.0**FAST_EXPONENTS)
    magnitudes[~certified] = 1.0  # any magnitude the tables cover
    exponents = np.floor(np.log10(magnitudes)).astype(np.int64)
    whole, part = _scaled(magnitudes, exponents)
    # log10 can miss X by one next to a power of ten; the product, before
    # it is rounded, says which way, and is formed again there
    miss = (whole >= 10**17).astype(np.int64) - (whole < 10**16)
    (again,) = np.nonzero(miss)
    if again.size:
        exponents[again] += miss[again]
        whole[again], part[again] = _scaled(magnitudes[again], exponents[again])
        certified[again] &= (whole[again] >= 10**16) & (whole[again] < 10**17)
    certified &= np.abs(part - 0.5) > ROUND_MARGIN
    whole += part > 0.5
    carry = whole == 10**17  # a round-up to 10^17 carries into X + 1
    whole[carry] = 10**16
    exponents += carry
    return whole, exponents, certified


# A value's text is written into a row of 13 four-byte words: its sign,
# "0." and three zeros for the fixed layouts below 1, the 17 digits, a
# point, digits 1 to 16 again, then "e", the exponent's sign and three
# digits, and a newline. A row of _KEEP, picked by (sign, last nonzero
# digit, layout), masks the row down to the text: the layouts are the
# fixed ones for X = -4 ... 16, then the exponent ones with two and three
# exponent digits. Digits are written four at a time, as whole words.
_NUMBER = np.frombuffer(
    b"-0.000\0" + b"0" * 17 + b".\0\0\0" + b"0" * 16 + b"e+000\n\0\0", dtype=np.uint8
)
_LEAD, _POINT, _TAIL, _EXPONENT = 7, 24, 27, 44  # digit i at _LEAD + i, and at _TAIL + i
_LAYOUTS = 23


def _keep_table():
    columns = np.arange(_NUMBER.size)
    lead, tail = columns - _LEAD, columns - _TAIL  # digit indices in the two copies
    last = np.arange(17)[:, None]
    keep = np.zeros((2, 17, _LAYOUTS, _NUMBER.size), dtype=bool)
    for layout in range(_LAYOUTS):
        X = layout - 4
        if X < 0:  # "0.", -X - 1 zeros and the digits through the last nonzero one
            kept = (columns >= 1) & (columns < 2 - X) | (lead >= 0) & (lead <= last)
        elif X <= 16:  # the integer digits, then a point and the fraction's digits
            kept = (lead >= 0) & (lead <= X) | (last > X) & (
                (columns == _POINT) | (tail > X) & (tail <= last)
            )
        else:  # the first digit, a point and the others, then the exponent
            digits = X - 15  # exponent digits: 2 for layout 21, 3 for layout 22
            kept = (lead == 0) | (last > 0) & ((columns == _POINT) | (tail >= 1) & (tail <= last))
            kept |= (columns == _EXPONENT) | (columns == _EXPONENT + 1)
            kept |= (columns >= _EXPONENT + 5 - digits) & (columns < _EXPONENT + 5)
        keep[:, :, layout] = kept | (columns == _EXPONENT + 5)  # the newline
    keep[1, :, :, 0] = True
    return (keep * np.uint8(255)).reshape(-1, _NUMBER.size).view(np.uint32)


_KEEP = _keep_table()
_NUMBER = _NUMBER.view(np.uint32)


def _digit_tables():
    """The text "%04d" % g of each g < 10^4 as one word, and, for the
    group of digits 1 + 4 i to 4 + 4 i, the index of its last nonzero
    digit (negative for none)."""
    groups = np.arange(10**4)
    digits = np.stack([groups // 10 ** (3 - i) % 10 + 48 for i in range(4)], axis=1)
    last = np.where(groups > 0, 3 - np.argmax(digits[:, ::-1] != 48, axis=1), -17)
    return (
        digits.astype(np.uint8).view(np.uint32).ravel(),
        [(1 + 4 * i + last).astype(np.int8) for i in range(4)],
    )


_DIGITS4, _LAST4 = _digit_tables()
# for each exponent X from _LOWEST up, its layout and its last two words
_EXPONENTS = np.arange(_LOWEST, FAST_EXPONENTS + 3)
_LAYOUT = np.where(
    (_EXPONENTS >= -4) & (_EXPONENTS <= 16),
    _EXPONENTS + 4,
    np.where(np.abs(_EXPONENTS) < 100, 21, 22),
)
_EXPONENT_WORDS = np.frombuffer(
    b"".join(b"e%+04d\n\0\0" % X for X in _EXPONENTS.tolist()), dtype=np.uint32
).reshape(-1, 2)
_TEXT = 24  # the longest "%.17g" text, "-2.2250738585072014e-308"


def _number_rows(values, words) -> None:
    """Write the text "%.17g" % x and a newline of each x of the 1-D values
    into words, len(values) rows of 13 contiguous uint32 words, with NUL in
    the bytes the text does not use."""
    whole, exponents, certified = _decimal(values)
    words[:, :2], words[:, 6] = _NUMBER[:2], _NUMBER[6]  # the others are written below
    last = _digit_words(whole, words)
    at = exponents - _LOWEST
    words[:, 11:] = _EXPONENT_WORDS.take(at, axis=0)
    words &= _KEEP.take((np.signbit(values) * 17 + last) * _LAYOUTS + _LAYOUT[at], axis=0)
    (fallback,) = np.nonzero(~certified)
    if fallback.size:
        texts = np.array([b"%.17g" % x for x in values[fallback].tolist()], dtype=f"S{_TEXT}")
        rows = words.view(np.uint8)
        rows[fallback, :_TEXT] = texts.view(np.uint8).reshape(-1, _TEXT)
        rows[fallback, _TEXT : _EXPONENT + 5] = 0


def _digit_words(whole, words):
    """Write the 17 digits of each D of whole into both copies in its row
    of words, and return the index of each D's last nonzero digit."""
    high = whole // 10**8
    low = whole - high * 10**8
    first = high // 10**8
    words.view(np.uint8)[:, _LEAD] = first + 48
    high -= first * 10**8
    last = np.zeros(len(whole), dtype=np.int8)
    for j, eight in enumerate((high, low)):
        top = eight // 10**4
        for i, group in enumerate((top, eight - top * 10**4), start=2 * j):
            words[:, 2 + i] = words[:, 7 + i] = _DIGITS4[group]
            np.maximum(last, _LAST4[i][group], out=last)
    return last


def number_texts(values) -> list:
    """The text "%.17g" % x of each x of the 1-D values, from the kernel
    that prints table values, TABLE_CHUNK values at a time."""
    values = np.asarray(values, dtype=float)
    texts = []
    for lo in range(0, len(values), TABLE_CHUNK):
        chunk = values[lo : lo + TABLE_CHUNK]
        words = np.empty((len(chunk), _NUMBER.size), dtype=np.uint32)
        _number_rows(chunk, words)
        texts += words.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]
    return texts


def table_text(header: str, values, keys=None, mask=None):
    """Yield a table's header line, then its rows in chunks of whole rows:
    "keys[s],idx...,value" for values[s][idx] in row-major order (keys
    defaults to 0, 1, ...), only where mask is true when one is given.

    A chunk holds max(1, TABLE_CHUNK // width) rows of width cells. Its
    written cells (under a mask, its observed ones) are assembled in one
    uint32 matrix, a row per cell: the lead "keys[s],", the slot "idx...,"
    of the cell's column, then the words of the value's text and newline
    from _number_rows, with NUL in the bytes a row does not use. Dropping
    the NULs gives the chunk's text; a row without written cells writes
    nothing. Memory stays O(TABLE_CHUNK + row width), with or without a
    mask."""
    values = np.asarray(values, dtype=float)
    count, width = len(values), math.prod(values.shape[1:])
    slots = _slot_words(values.shape[1:])
    step = max(1, TABLE_CHUNK // max(width, 1))
    yield header + "\n"
    for lo in range(0, count, step):
        hi = min(lo + step, count)
        block = values[lo:hi].reshape(hi - lo, width)
        if mask is None:
            written = np.ones(block.shape, dtype=bool)
        else:
            written = np.asarray(mask[lo:hi], dtype=bool).reshape(block.shape)
        labels = np.asarray(range(lo, hi) if keys is None else keys[lo:hi])
        text = _chunk_text(labels, slots, block, written)
        if text:
            yield text


def _chunk_text(labels, slots, block, written) -> str:
    """The text of a chunk's written cells (see table_text)."""
    rows, columns = np.nonzero(written)
    if not rows.size:
        return ""
    labels = _label_words(labels)
    text = np.empty((rows.size, labels.shape[1] + slots.shape[1] + _NUMBER.size), dtype=np.uint32)
    text[:, : labels.shape[1]] = labels.take(rows, axis=0)
    text[:, labels.shape[1] : -_NUMBER.size] = slots.take(columns, axis=0)
    _number_rows(block[written], text[:, -_NUMBER.size :])
    data = text.tobytes()
    del text  # each copy of the text is dropped before the next is made
    return data.translate(None, b"\0").decode("ascii")


def _slot_words(shape):
    """The slot "idx...," of each cell of a row of the given shape, in
    row-major order, as the rows of a uint32 matrix, NUL-padded to whole
    words."""
    indices = product(*([f"{i}," for i in range(size)] for size in shape))
    rows = np.array(["".join(idx).encode() for idx in indices], dtype=bytes)
    size = -(-rows.itemsize // 4) * 4
    return np.asarray(rows, dtype=f"S{size}").view(np.uint32).reshape(len(rows), size // 4)


def _label_words(labels):
    """The texts "label," of nonnegative integer labels as the rows of a
    uint32 matrix, NUL-padded on the left to whole words."""
    size = -(-(len(str(labels.max())) + 1) // 4) * 4
    powers = 10 ** np.arange(size - 2, -1, -1)
    digits = labels[:, None] // powers
    rows = np.empty((len(labels), size), dtype=np.uint8)
    rows[:, :-1] = np.where((digits > 0) | (powers == 1), digits % 10 + 48, 0)
    rows[:, -1] = ord(",")
    return rows.view(np.uint32)


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
