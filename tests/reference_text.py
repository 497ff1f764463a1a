"""The seed's per-value text loops, kept as the slow reference for block I/O.

Each function writes or reads one value at a time with ``format(float(x),
".17g")`` or ``float()``. The block formatter, the bulk-checked JSON
parser and the one-pass CSV parser in ``serialize`` and ``render`` must
give exactly the same bytes, arrays and errors; see test_block_text.py.
"""

import numpy as np

from cantordim import IntervalSet, ParseError


def f17(x) -> str:
    return format(float(x), ".17g")


def export_csv(intervals) -> str:
    lines = ["start,end"]
    lines += [f"{f17(s)},{f17(e)}" for s, e in zip(intervals.starts, intervals.ends)]
    return "\n".join(lines) + "\n"


def export_json(intervals) -> str:
    p = intervals.params
    rows = ",\n".join(
        f"    [{f17(s)}, {f17(e)}]" for s, e in zip(intervals.starts, intervals.ends)
    )
    body = f"[\n{rows}\n  ]" if len(intervals) else "[]"
    return (
        "{\n"
        f'  "n": {p.n if p else "null"},\n'
        f'  "gamma": {f17(p.gamma) if p else "null"},\n'
        f'  "epsilon": {f17(p.epsilon) if p else "null"},\n'
        f'  "stage": {p.stage if p else "null"},\n'
        f'  "intervals": {body}\n'
        "}\n"
    )


def grid_csv(sheet) -> str:
    lines = ["da,db,dc"]
    for i in range(sheet.resolution):
        ai = f17(sheet.centers[i])
        row = sheet.values[i]
        for j in range(sheet.resolution):
            v = row[j]
            lines.append(f"{ai},{f17(sheet.centers[j])},{'nan' if np.isnan(v) else f17(v)}")
    return "\n".join(lines) + "\n"


def intervals_field_ok(raw) -> bool:
    """The seed's per-row check of a JSON 'intervals' field."""
    return isinstance(raw, list) and all(
        isinstance(r, list) and len(r) == 2 and all(type(v) in (int, float) for v in r)
        for r in raw
    )


def import_csv(text: str) -> IntervalSet:
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
