"""Lossless JSON/CSV serialization of interval sets.

Floats are written with 17 significant decimal digits, which round-trips
binary64 exactly; importing validates the interval-set invariants. All
documents are UTF-8 text with LF line endings.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import DomainError, InvariantError, ParseError
from .geometry import CantorParams, IntervalSet

_FORMATS = ("json", "csv")


def _f17(x: float) -> str:
    return format(float(x), ".17g")


def export_intervals(intervals: IntervalSet, format: str = "json") -> str:
    """Serialize a set; round-trips bit-identically through import_intervals."""
    if format not in _FORMATS:
        raise DomainError(f"format must be one of {_FORMATS}, got {format!r}")
    if format == "csv":
        lines = ["start,end"]
        lines += [f"{_f17(s)},{_f17(e)}" for s, e in zip(intervals.starts, intervals.ends)]
        return "\n".join(lines) + "\n"
    p = intervals.params
    rows = ",\n".join(
        f"    [{_f17(s)}, {_f17(e)}]" for s, e in zip(intervals.starts, intervals.ends)
    )
    body = f"[\n{rows}\n  ]" if len(intervals) else "[]"
    return (
        "{\n"
        f'  "n": {p.n if p else "null"},\n'
        f'  "gamma": {_f17(p.gamma) if p else "null"},\n'
        f'  "epsilon": {_f17(p.epsilon) if p else "null"},\n'
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
    # exact types: JSON true/false load as bool, which isinstance counts as int
    if not isinstance(raw, list) or not all(
        isinstance(r, list) and len(r) == 2 and all(type(v) in (int, float) for v in r)
        for r in raw
    ):
        raise ParseError("'intervals' must be a list of [start, end] number pairs")
    params = None
    fields = [doc.get(k) for k in ("n", "gamma", "epsilon", "stage")]
    if all(v is not None for v in fields):
        try:
            params = CantorParams(fields[0], float(fields[1]), float(fields[2]), fields[3])
        except DomainError as exc:
            raise InvariantError(f"invalid construction parameters in document: {exc}")
    arr = np.array(raw, dtype=np.float64).reshape(-1, 2)
    return IntervalSet(arr[:, 0].copy(), arr[:, 1].copy(), params)


def _parse_csv(text: str) -> IntervalSet:
    lines = text.splitlines()
    if not lines or lines[0].strip() != "start,end":
        raise ParseError("first line must be the header 'start,end'", "line 1")
    starts, ends = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"expected 2 fields, got {len(parts)}", f"line {lineno}")
        try:
            starts.append(float(parts[0]))
            ends.append(float(parts[1]))
        except ValueError:
            raise ParseError(f"non-numeric field in {line!r}", f"line {lineno}")
    return IntervalSet(np.array(starts), np.array(ends), None)


def import_intervals(data, format: str = "json") -> IntervalSet:
    """Parse a document produced by export_intervals, validating all invariants."""
    if format not in _FORMATS:
        raise DomainError(f"format must be one of {_FORMATS}, got {format!r}")
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    return _parse_json(text) if format == "json" else _parse_csv(text)
