"""Lossless JSON/CSV serialization of interval sets.

Floats are written with 17 significant decimal digits, which round-trips
binary64 exactly; importing validates the interval-set invariants and the
JSON types of every field. All documents are UTF-8 text with LF line
endings.

Text is made and read in blocks of ``_BLOCK`` rows rather than one value at
a time: export formats each block with a single ``str % tuple``
(``format_rows``, shared with the grid CSV of ``render``), JSON import checks
the row and value types of the whole list at C level, and CSV import parses
each block with one split and one ``map(float, ...)``. The bytes written and
the arrays read are the same as with a per-value loop.
"""

from __future__ import annotations

import json
from itertools import chain, repeat

import numpy as np

from ._kernels_py import BLOCK as _BLOCK
from .errors import DomainError, InvariantError, ParseError
from .geometry import CantorParams, IntervalSet, check_intervals

_FORMATS = ("json", "csv")
# header fields: the JSON types each accepts, and how an error names them
_HEADER = {
    "n": ((int,), "an integer"),
    "gamma": ((int, float), "a number"),
    "epsilon": ((int, float), "a number"),
    "stage": ((int,), "an integer"),
}


def format_rows(row: str, sep: str, *columns) -> list[str]:
    """Format ``row % (c[i] for c in columns)`` for every row ``i``, joined by ``sep``.

    Each block of up to ``_BLOCK`` rows takes one ``str % tuple``; the
    blocks are returned for the caller to join with ``sep``. Columns are
    equal-length numpy arrays (float or object). ``%.17g`` writes the same
    bytes as ``format(float(x), ".17g")`` (both call
    ``PyOS_double_to_string(x, 'g', 17)``), NaN included, which prints
    ``nan``.
    """
    width, n = len(columns), len(columns[0])
    blocks = []
    for i in range(0, n, _BLOCK):
        k = min(_BLOCK, n - i)
        args = [None] * (k * width)
        for j, column in enumerate(columns):
            args[j::width] = column[i:i + k].tolist()
        blocks.append(sep.join([row] * k) % tuple(args))
    return blocks


def export_intervals(intervals: IntervalSet, format: str = "json") -> str:
    """Serialize a set; round-trips bit-identically through import_intervals."""
    if format not in _FORMATS:
        raise DomainError(f"format must be one of {_FORMATS}, got {format!r}")
    check_intervals(intervals)
    if format == "csv":
        rows = format_rows("%.17g,%.17g", "\n", intervals.starts, intervals.ends)
        return "\n".join(["start,end", *rows]) + "\n"
    p = intervals.params
    rows = ",\n".join(format_rows("    [%.17g, %.17g]", ",\n", intervals.starts, intervals.ends))
    body = f"[\n{rows}\n  ]" if len(intervals) else "[]"
    return (
        "{\n"
        f'  "n": {p.n if p else "null"},\n'
        f'  "gamma": {"%.17g" % p.gamma if p else "null"},\n'
        f'  "epsilon": {"%.17g" % p.epsilon if p else "null"},\n'
        f'  "stage": {p.stage if p else "null"},\n'
        f'  "intervals": {body}\n'
        "}\n"
    )


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
    for key, (types, kind) in _HEADER.items():
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
