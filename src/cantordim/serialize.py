"""Lossless JSON/CSV serialization of interval sets.

Floats are written with 17 significant decimal digits, which round-trips
binary64 exactly; importing validates the interval-set invariants and the
JSON types of every field. All documents are UTF-8 text with LF line
endings.

Text is made and read in blocks of ``_BLOCK`` rows rather than one value at
a time. Export (``format_rows``, shared with the grid CSV of ``render``)
lays a block out as one (rows x bytes) character matrix and a mask of the
bytes to keep, and decodes it with one boolean compress: literal runs are
constant columns, and every float column is a fixed 28-byte field written by
``put_f17``, whose kept bytes are ``'%.17g' % x``. JSON import checks the
row and value types of the whole list at C level, and CSV import parses
each block with one split and one ``map(float, ...)``. The bytes written and
the arrays read are the same as with a per-value loop.

``put_f17`` gets the 17 significant digits D and the decimal exponent k of
each x in 1e-280 < x < 1 with numpy array operations. With k from
``floor(log10(x))`` and p = 16 - k, y = x * 10**p lies in [1e16, 1e17) <
2**57. The table holds 10**p = hi + lo + e with hi = fl(10**p) and
lo = fl(10**p - hi), made from exact Python ints, so |e| <= 2**-106 hi.
Dekker's two-product ("A floating-point technique for extending the
available precision", 1971) gives x * hi = ph + pl exactly: the partial
products neither overflow (hi < 1e299) nor underflow (x > 1e-280). ph is an
integer, as y > 2**53, and |pl| <= ulp(ph)/2 <= 8. Then r = fl(pl + fl(x*lo))
misses y - ph by less than 3 * 2**-49: fl(x*lo) has |x*lo| < 2**4 and
rounds by at most 2**-49, the sum (below 24 in magnitude) by at most 2**-49,
and x*e is below 2**-106 * y < 2**-49. The fraction f = r - floor(r) is exact
for r >= 1 and within 2**-53 below, so the computed fraction is within
about 2**-46 of that of y, modulo 1. D = floor(y) + (f > 1/2) is therefore
the correctly rounded value wherever f lies at least 2**-30 from 1/2 (near
an integer a wrong floor is undone by the rounding). An entry whose fraction
lies closer, such as the exact decimal tie 26215/2**18, takes
``'%.17g' % x``; so do x <= 1e-280, x >= 1, zeros, negatives and infinities,
an entry whose floor(y) falls outside [1e16, 1e17) (where log10 puts k one
off near a power of ten), and one that rounds up to 1e17. NaN is written as
``nan`` on the fast path.
"""

from __future__ import annotations

import json
from itertools import chain, repeat

import numpy as np

from ._kernels_py import BLOCK as _BLOCK
from .errors import DomainError, InvariantError, ParseError
from .geometry import CantorParams, IntervalSet, check_intervals

_FORMATS = ("json", "csv")
# header fields: the JSON types each accepts, how an error names them, how export writes them
_HEADER = {
    "n": ((int,), "an integer", "%d"),
    "gamma": ((int, float), "a number", "%.17g"),
    "epsilon": ((int, float), "a number", "%.17g"),
    "stage": ((int,), "an integer", "%d"),
}


# ---------------------------------------------------------------------------
# '%.17g' in numpy blocks

#: bytes of one float field: the widest fast layout (a fallback text has at most 24)
_W = 28
#: the fast path takes _X_MIN < x < 1, so it needs 10**p for p = 16 - k in [15, 298]
_X_MIN = 1e-280
_P_MAX = 300
#: a fraction this close to 1/2 may belong to a decimal tie, which the fallback rounds
_TIE = 2.0**-30
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant
_E16, _E17 = 10**16, 10**17
# field layout: 0 "0", 1 ".", 2-4 "000", 5 d0, 6 ".", 7-22 d1..d16, 23 "e",
# 24-27 "-" and the three digits of -k. A shape picks the bytes kept: 0-3 fixed
# notation for k = -1..-4 ("0." then -k-1 zeros, d0, the rest), 4 and 5
# exponent notation with two and three exponent digits (d0 "." the rest "e-"
# -k); a digit count of 1 drops the ".". Mask row shape * 17 + digits - 1; the
# last row keeps the "nan" written over bytes 0-2.
_TEMPLATE = np.frombuffer(b"0.000?.????????????????e-???", np.uint8)
_NAN = 6 * 17
_NAN_TEXT = np.frombuffer(b"nan", np.uint8)


def _tables():
    """10**p as (hi, the halves of hi, lo); digit, exponent and trailing-zero tables; masks."""
    exact = [10**p for p in range(_P_MAX + 1)]
    hi = np.array([float(v) for v in exact])
    lo = np.array([float(v - int(h)) for v, h in zip(exact, hi.tolist())])
    t = _SPLIT * hi
    hi_h = t - (t - hi)
    d = np.arange(10000, dtype=np.int16)
    digits = np.empty((10000, 4), np.uint8)
    for i in range(4):
        digits[:, i] = d // 10 ** (3 - i) % 10 + ord("0")
    text4 = digits.view(np.uint32).ravel()  # "0000".."9999", 4 bytes each
    digits = digits.copy()
    digits[:, 0] = ord("-")
    exp4 = digits.view(np.uint32).ravel()  # "-000".."-999"
    zeros4 = sum((d % 10**j == 0).astype(np.int8) for j in range(1, 5))  # 4 for 0
    j = np.arange(1000)  # -k
    shape = (np.minimum(j, 5) - 1 + (j >= 100)) * 17 + 16  # the mask row of 17 digits
    keep = np.zeros((_NAN + 1, _W), bool)
    for nd in range(1, 18):
        for s in range(4):
            row = keep[s * 17 + nd - 1]
            row[[0, 1, 5]] = True
            row[2:s + 2] = True
            row[7:6 + nd] = True
        for s in (4, 5):
            row = keep[s * 17 + nd - 1]
            row[[5, 23, 24, 26, 27]] = True
            row[6], row[25] = nd > 1, s == 5
            row[7:6 + nd] = True
    keep[_NAN, :3] = True
    return hi, hi_h, hi - hi_h, lo, text4, exp4, zeros4, shape, keep.view(np.uint32)


_HI, _HI_H, _HI_L, _LO, _TEXT4, _EXP4, _ZEROS4, _SHAPE, _KEEP = _tables()


def _digits(x, k):
    """floor(x * 10**(16 - k)) as int64 and its fraction (bounds in the module docstring)."""
    p = 16 - k
    hi_h, hi_l = _HI_H.take(p), _HI_L.take(p)
    ph = x * _HI.take(p)
    t = _SPLIT * x
    xh = t - (t - x)
    xl = x - xh
    pl = ((xh * hi_h - ph) + xh * hi_l + xl * hi_h) + xl * hi_l
    r = pl + x * _LO.take(p)
    f = np.floor(r)
    return ph.astype(np.int64) + f.astype(np.int64), r - f


def put_f17(x, chars, keep) -> None:
    """Write ``'%.17g' % v`` of each float ``v`` of ``x`` into its row of ``chars``.

    ``chars`` (uint8) and ``keep`` (bool) are (len(x), ``_W``) views; a row's
    text is its bytes where ``keep`` is set, in order. The entries the fast
    path cannot prove (see the module docstring) take ``'%.17g' % v``.
    """
    fast = (x > _X_MIN) & (x < 1.0)
    xs = np.where(fast, x, 0.5)
    k = np.floor(np.log10(xs)).astype(np.int64)
    digits, frac = _digits(xs, k)
    fast &= (digits >= _E16) & (np.abs(frac - 0.5) >= _TIE)
    digits += frac > 0.5
    fast &= digits < _E17
    j = -k

    lead = digits // _E16
    high = digits // 10**8 - lead * 10**8
    low = digits % 10**8
    groups = np.empty((len(x), 4), np.int64)  # d1..d16 in four groups of 4 digits
    np.floor_divide(high, 10**4, out=groups[:, 0])
    np.floor_divide(low, 10**4, out=groups[:, 2])
    groups[:, 1] = high - groups[:, 0] * 10**4
    groups[:, 3] = low - groups[:, 2] * 10**4
    chars[:] = _TEMPLATE
    chars[:, 5] = lead + ord("0")
    chars[:, 7:23] = _TEXT4.take(groups).view(np.uint8)
    chars[:, 24:28] = _EXP4.take(j)[:, None].view(np.uint8)
    z, empty = _ZEROS4.take(groups), groups == 0
    zeros = z[:, 3] + empty[:, 3] * (z[:, 2] + empty[:, 2] * (z[:, 1] + empty[:, 1] * z[:, 0]))
    index = _SHAPE.take(j) - zeros
    nan = np.isnan(x)
    index[nan] = _NAN
    keep[:] = _KEEP.take(index, axis=0).view(bool)
    chars[nan, :3] = _NAN_TEXT

    slow = np.flatnonzero(~(fast | nan))
    if len(slow):
        texts = ["%.17g" % v for v in x[slow].tolist()]
        padded = "".join(t.ljust(_W) for t in texts).encode()
        chars[slow] = np.frombuffer(padded, np.uint8).reshape(len(slow), _W)
        keep[slow] = np.arange(_W) < np.array(list(map(len, texts)))[:, None]


def row_matrix(row: str, sep: str, k: int):
    """(chars, keep, fields) for k rows of ``row + sep``: the literals written, a slice per field.

    Each ``%.17g`` of ``row`` is a field of ``_W`` bytes, for ``put_f17``.
    """
    parts = [part.encode() for part in (row + sep).split("%.17g")]
    width = sum(map(len, parts)) + _W * (len(parts) - 1)
    chars = np.empty((k, width), np.uint8)
    keep = np.empty((k, width), bool)
    fields, at = [], 0
    for i, part in enumerate(parts):
        chars[:, at:at + len(part)] = np.frombuffer(part, np.uint8)
        keep[:, at:at + len(part)] = True
        at += len(part)
        if i < len(parts) - 1:
            fields.append(slice(at, at + _W))
            at += _W
    return chars, keep, fields


def matrix_text(chars, keep, sep: str) -> str:
    """The kept bytes of the rows as one string, without the ``sep`` that ends the last row."""
    end = chars.size - len(sep)
    return chars.ravel()[:end][keep.ravel()[:end]].tobytes().decode("ascii")


def format_rows(row: str, sep: str, *columns) -> list[str]:
    """``sep.join(row % values for values in zip(*columns))``, in blocks of ``_BLOCK`` rows.

    ``row`` holds one ``%.17g`` per column, and the columns are equal-length
    float64 arrays. Each block is one string; the blocks are returned for
    the caller to join with ``sep``. Every block reuses one matrix, whose
    literals are written once.
    """
    n = len(columns[0])
    chars, keep, fields = row_matrix(row, sep, min(_BLOCK, n))
    blocks = []
    for i in range(0, n, _BLOCK):
        k = min(_BLOCK, n - i)
        for column, field in zip(columns, fields):
            put_f17(column[i:i + k], chars[:k, field], keep[:k, field])
        blocks.append(matrix_text(chars[:k], keep[:k], sep))
    return blocks


def export_intervals(intervals: IntervalSet, format: str = "json") -> str:
    """Serialize a set; round-trips bit-identically through import_intervals.

    The document is one join of the row blocks, with the header and footer
    on the first and last block, so at most the blocks and the document are
    held at once.
    """
    if format not in _FORMATS:
        raise DomainError(f"format must be one of {_FORMATS}, got {format!r}")
    check_intervals(intervals)
    if format == "csv":
        rows = format_rows("%.17g,%.17g", "\n", intervals.starts, intervals.ends)
        return "\n".join(["start,end", *rows, ""])
    p = intervals.params
    fields = (f'  "{key}": {fmt % getattr(p, key) if p else "null"},\n'
              for key, (_, _, fmt) in _HEADER.items())
    head = "{\n" + "".join(fields) + '  "intervals": '
    if not len(intervals):
        return head + "[]\n}\n"
    rows = format_rows("    [%.17g, %.17g]", ",\n", intervals.starts, intervals.ends)
    rows[0] = head + "[\n" + rows[0]
    rows[-1] += "\n  ]\n}\n"
    return ",\n".join(rows)


def _parse_json(text: str) -> IntervalSet:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", f"line {exc.lineno}, column {exc.colno}")
    if not isinstance(doc, dict) or "intervals" not in doc:
        raise ParseError("document must be an object with an 'intervals' field")
    raw = doc["intervals"]
    # whole-list checks at C level: rows are lists of 2, values exactly int or
    # float (exact types: JSON true/false load as bool, which is an int subclass)
    if not (
        type(raw) is list
        and set(map(type, raw)) <= {list}
        and set(map(len, raw)) <= {2}
        and set(map(type, chain.from_iterable(raw))) <= {int, float}
    ):
        raise ParseError("'intervals' must be a list of [start, end] number pairs")
    for key, (types, kind, _) in _HEADER.items():
        value = doc.get(key)
        if value is not None and type(value) not in types:
            raise ParseError(f"'{key}' must be {kind} or null, got {json.dumps(value)}")
    params = None
    fields = [doc.get(k) for k in _HEADER]
    if all(v is not None for v in fields):
        try:
            params = CantorParams(*fields)
        except DomainError as exc:
            raise InvariantError(f"invalid construction parameters in document: {exc}")
    try:
        values = np.fromiter(chain.from_iterable(raw), np.float64, 2 * len(raw))
    except OverflowError:  # an integer too large for binary64; 1e999 loads as inf
        raise InvariantError("interval endpoints must be finite") from None
    return IntervalSet(values[0::2], values[1::2], params)


def _parse_csv(text: str) -> IntervalSet:
    lines = text.splitlines()
    if not lines or lines[0].strip() != "start,end":
        raise ParseError("first line must be the header 'start,end'", "line 1")
    rows = list(filter(str.strip, lines[1:]))
    values = np.empty(2 * len(rows))
    for i in range(0, len(rows), _BLOCK):
        block = rows[i:i + _BLOCK]
        try:
            if set(map(str.count, block, repeat(","))) != {1}:
                raise ValueError
            values[2 * i:2 * (i + len(block))] = list(map(float, ",".join(block).split(",")))
        except ValueError:
            raise _csv_error(lines) from None
    return IntervalSet(values[0::2], values[1::2], None)


def _csv_error(lines: list[str]) -> ParseError:
    """The error of the first malformed row, named by its line number."""
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            return ParseError(f"expected 2 fields, got {len(parts)}", f"line {lineno}")
        try:
            float(parts[0]), float(parts[1])
        except ValueError:
            return ParseError(f"non-numeric field in {line!r}", f"line {lineno}")
    raise AssertionError("a block failed but every row parses")


def import_intervals(data, format: str = "json") -> IntervalSet:
    """Parse a document produced by export_intervals, validating all invariants."""
    if format not in _FORMATS:
        raise DomainError(f"format must be one of {_FORMATS}, got {format!r}")
    if not isinstance(data, (str, bytes)):
        raise DomainError(f"data must be str or bytes, got {type(data).__name__}")
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        raise ParseError(f"document is not UTF-8: {exc.reason}", f"byte {exc.start}") from None
    return _parse_json(text) if format == "json" else _parse_csv(text)
