"""Lossless JSON/CSV serialization of interval sets, and the CSV of grid sheets.

Floats are written with 17 significant decimal digits, which round-trips
binary64 exactly; importing validates the interval-set invariants and the
JSON types of every field. All documents are UTF-8 text with LF line
endings.

Text is made in blocks of ``_BLOCK`` rows and read in spans of at most about
``_SCAN`` bytes rather than one value at a time. Export (``format_rows``,
and ``format_grid`` for grid sheets) lays a block out as one (rows x bytes)
character matrix and decodes it with one boolean compress of its non-NUL
bytes: literal runs are constant columns, and every float column is a fixed
24-byte field written by ``put_f17``, ``'%.17g' % x`` from its first byte
and then NULs. So each field's text runs on from the literal before it, and
a row is one run of kept bytes per field (a grid row three, a JSON row two,
as the literal after a row's last field runs on into the next row's first).
Import reads a document in the exporter's own layout with
numpy (``_read_exported``) and gives every other document to ``json.loads``
or ``float`` (``_parse_json``, which checks the row and value types of the
whole list at C level, and ``_parse_csv``, which reads the text row by row
in one pass, one ``partition`` and two ``float`` calls a row). The bytes
written and the arrays read are the same as with a per-value loop.

The rows of export, the grid rows of the grid CSV and the row bytes of import
run on every usable CPU (``_cpus``, ``_in_shares``): they split into one
contiguous share per CPU, at most one per block or span, and numpy releases
the interpreter lock inside their kernels. Export's shares are near-equal
runs of rows, each cut into pieces of at most ``_BLOCK`` rows from its own
start, and import's are near-equal runs of bytes, each moved on to row
starts and cut into near-equal spans. A document of one block or span, or
a process with one usable CPU, starts no thread.
Each share holds its own scratch: one character matrix for export and the
grid, and for import one buffer for a span's copy of its text and its mask
of row marks. A str document is encoded one span at a time, so no copy of
the whole document is made.

``put_f17`` gets the 17 significant digits D and the decimal exponent k of
each x in 1e-280 < x < 1 with numpy array operations. With k from
``floor(log10(x))`` and p = 16 - k, y = x * 10**p lies in [1e16, 1e17) <
2**57. Export and import share one table, ``_TEN``, of 10**q for q in
[-292, 300]: hi = fl(10**q), its halves, and lo = fl(10**q - hi), quotients
of exact ints (``hi.as_integer_ratio()`` gives hi's). So 10**p = hi + lo + e
with |e| <= 2**-106 hi.
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
``nan`` on the fast path. The digits are written without a branch on the
notation or on NaN: every field is three uint64 words, the digits' bytes
shifted into place and ORed with one table row per shape and count of kept
digits (the layout is set out at ``_FIELD``).

The exporter's layouts are written once, in ``_LAYOUTS``, for export and
the block reader. Every field is d[.d+][e-dd[d]], with at most 24 fraction
digits. The rows are cut into spans just after a newline. A span counts its
row marks first and declines more than two per shortest row (two one-digit
fields), so a span of marks builds no 8-byte offsets. It then finds the
marks and checks the literal after each field: ``mid`` after a row's first,
and after its second ``after``, ``sep`` and the next row's ``before`` (8
bytes in JSON, one in CSV). A span checks its own first ``before`` once,
must end where its last row's ``sep`` ends (the last, where the tail
starts) and writes a ``before`` after it: so every byte between head and
tail lies in a checked field or a checked literal. The
head runs to the first copy of the exporter head's last line; its values,
read by ``json.loads`` of the head closed by ``']}'``, meet the checks of
``_params`` once the rows are read (so the whole document loads with the
same header) and must print back as the same head. Any other document
declines whole to the ``json.loads`` or ``float`` path, so
its values, errors, messages and line numbers are that path's: one that is
not ASCII, has a CR, a blank line or a missing final newline, another
header (keys, order, spacing), an empty list, a field with a sign, a space,
a tab, an ``E``, an ``_``, ``inf`` or ``nan``, a one- or four-digit
exponent, more than 24 fraction digits, or any byte out of place.

A span gathers one window for each field, the 32 bytes from 24 before its
end, as four uint64: the last word is the literal after the field, and an
``e`` 5 or 4 bytes before the end starts an exponent. The fraction digits of
a field without one end where the window's first 24 bytes end; a field with
one takes the 24 bytes that end where its mantissa ends in their place (a
span of mostly such fields reads all its fields there). The window keeps the
f fraction digits, zeros the rest and reads them as three uint64 of eight
ASCII digits, each in three multiply-shift steps, on all four words: numpy
runs a step on contiguous rows far faster than on three words of each. With
the lead digit d they make D = d * 10**f + fraction, and the value is
y = D * 10**-m, m = f plus the exponent. An entry with D >= 10**17 (more
than 17 significant digits) or m > 292 takes ``float()`` of its own text.
Otherwise D < 2**57 splits into dh = fl(D) and the integer dl = D - dh,
|dl| <= 2**-53 D. The table holds 10**-m = hi + lo + e with |e| <= 2**-104 hi
for m <= 292, where hi >= 2**-971 keeps lo's rounding (at most 2**-1075 once
lo is subnormal) that small, and not at m = 293. Dekker's two-product gives
dh * hi = ph + pl, and tail = fl(fl(pl + fl(dh * lo)) + fl(dl * hi)) adds
terms below 2**-51 y with roundings of at most 2**-104 y each; dl * lo and
D * e are below 2**-104 y, and each partial product or sum that underflows
errs by at most 2**-1075 < 2**-104 y. So s = ph + tail is within 2**-99 y of
y. r = fl(s) is s correctly rounded, and e = fl((ph - r) + tail), with ph - r
exact, is within 2**-45 ulp(r) of y - r. So r is y correctly rounded unless a
rounding midpoint lies within 2**-45 ulp(r) of y. The midpoint above r lies
ulp(r)/2 up, and the one below ulp(r)/2 down except at the binade edge:
when r is a power of two, the spacing below r is half the spacing above, and
that midpoint lies ulp(r)/4 down. An entry whose |e| lies within
``_GUARD`` = 2**-40 ulp(r) of the distance to the midpoint on its side takes
``float()``; so does D = 0, whose ulp reads 0.
"""

from __future__ import annotations

import json
import os
import re
import threading
from array import array
from collections import namedtuple
from itertools import chain

import numpy as np

from .errors import DomainError, InvariantError, ParseError
from .geometry import CantorParams, IntervalSet, check_intervals

_CSV_HEADER = "start,end"
# header fields: the JSON types each accepts, how an error names them, how export writes them
_HEADER = {
    "n": ((int,), "an integer", "%d"),
    "gamma": ((int, float), "a number", "%.17g"),
    "epsilon": ((int, float), "a number", "%.17g"),
    "stage": ((int,), "an integer", "%d"),
}


def _json_head(params) -> str:
    """The JSON lines export writes before the first row: the header fields, the list opened."""
    fields = (f'  "{key}": {fmt % getattr(params, key) if params else "null"},\n'
              for key, (_, _, fmt) in _HEADER.items())
    return "{\n" + "".join(fields) + '  "intervals": [\n'


# A format's document as export writes it and the block reader reads it back: head(params),
# then rows "before a mid b after" joined by sep, then tail; a set without rows is the head
# with empty in place of its last byte. mark(byte, ord(mid[0])) holds at the first byte of
# mid and of sep and at no other byte of a row; loads(head) gives the fields of a head.
_Layout = namedtuple("_Layout", "head empty loads before mid after sep tail mark")
_LAYOUTS = {
    "json": _Layout(
        head=_json_head, empty="]\n}\n", loads=lambda head: json.loads(head + "]}"),
        before="    [", mid=", ", after="]", sep=",\n", tail="\n  ]\n}\n", mark=np.equal,
    ),
    "csv": _Layout(
        head=lambda params: _CSV_HEADER + "\n", empty="\n", loads=lambda head: {},
        before="", mid=",", after="", sep="\n", tail="\n", mark=np.less_equal,
    ),
}


def _layout(format) -> _Layout:
    """The layout of a format name; any other value, unhashable ones too, is a DomainError."""
    if isinstance(format, str) and format in _LAYOUTS:
        return _LAYOUTS[format]
    raise DomainError(f"format must be one of {tuple(_LAYOUTS)}, got {format!r}")


def _after_words(layout: _Layout):
    """uint64 (mask, value) of the literal after a row's first field and after its second.

    A literal starts the 8 bytes from where its field ends. The one after the
    second field runs on through ``sep`` and the next row's ``before`` to
    where that row's first field starts, so it must fit in 8 bytes.
    """
    literals = [x.encode() for x in (layout.mid, layout.after + layout.sep + layout.before)]
    return [(np.uint64(int.from_bytes(b"\xff" * len(x), "little")),
             np.uint64(int.from_bytes(x, "little"))) for x in literals]


_AFTER_WORDS = {layout: _after_words(layout) for layout in _LAYOUTS.values()}


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _in_shares(work, n: int, block: int) -> list:
    """``[work(lo, hi) for each share]`` of ``range(n)``, the shares run on threads at once.

    There is one share per usable CPU (``_cpus``), at most one per ``block``
    items; the shares are contiguous runs of items, as equal as can be. This
    thread runs the first share and each other share gets a thread of its
    own, joined before the call returns; one share starts no thread. numpy
    releases the interpreter lock in the block kernels, so the shares run in
    parallel. An exception raised in any share is raised here, the first
    share's first.
    """
    blocks = -(-n // block)
    workers = min(_cpus(), blocks) if blocks > 1 else 1
    cuts = [n * j // workers for j in range(workers + 1)]
    results, errors = [None] * workers, [None] * workers

    def run(j):
        try:
            results[j] = work(cuts[j], cuts[j + 1])
        except BaseException as exc:  # re-raised on the calling thread
            errors[j] = exc

    started = []
    try:
        for j in range(1, workers):
            thread = threading.Thread(target=run, args=(j,))
            thread.start()
            started.append(thread)
        results[0] = work(cuts[0], cuts[1])
    finally:
        for thread in started:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


# ---------------------------------------------------------------------------
# '%.17g' in numpy blocks

#: rows per text block: many per numpy call, and a block's matrix stays about 1 MB
_BLOCK = 16384
#: bytes of one float field: the longest '%.17g' of a binary64 is "-2.2250738585072014e-308"
_W = 24
#: the fast path takes _X_MIN < x < 1, so it needs 10**p for p = 16 - k in [15, 298]
_X_MIN = 1e-280
_P_MAX = 300
#: the table of 10**-m holds hi + lo within 2**-104 hi up to here; lo underflows beyond
_M_MAX = 292
#: a fraction this close to 1/2 may belong to a decimal tie, which the fallback rounds
_TIE = 2.0**-30
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant
_E16, _E17 = 10**16, 10**17
# The field layout. A fast field holds the text of x and then NULs, in three little-endian
# uint64 words. With d0 the lead digit, d1..d16 the digits after it and j = -k, the text
# is "0." + (j - 1) zeros + d0 d1..d16 for j = 1..4 and d0 "." d1..d16 "e-" j (two or
# three digits) for j >= 5, less its trailing zero digits (and the "." when d1..d16 are
# all zeros). put_f17 shifts the byte values 0-9 of d0 to bit _LEAD_AT[j] and those of
# d1..d16 to bit _DIGITS_AT[j], so a dropped digit is a NUL byte, and ORs in row
# 17 * j + (digits of d1..d16 kept) of _FIELD: the "0" bits of d0 and of each kept digit,
# "0." and its zeros, the "." and the exponent. No finite x < 1 has j = 0: that shape is
# NaN's, whose row is "nan" and whose shifts of 192 bits move every digit out of the field
# (numpy shifts a uint64 by 64 bits or more to 0). A _FIELD row ends in a fourth word of
# NULs, as numpy's take copies rows of 32 bytes fastest.
_J = _P_MAX - 15  # shapes j = 0..284: p = 16 + j <= _P_MAX


def _split(x):
    """(high, low) with x = high + low, each of at most 26 significant bits: Veltkamp's split."""
    t = _SPLIT * x
    high = t - (t - x)
    return high, x - high


def _powers_of_ten():
    """10**q for q in [-_M_MAX, _P_MAX] as rows hi, the halves of hi, lo; column q + _M_MAX."""
    rows = []
    for q in range(-_M_MAX, _P_MAX + 1):
        num, den = 10 ** max(q, 0), 10 ** max(-q, 0)
        hi = num / den
        a, b = hi.as_integer_ratio()
        rows.append((hi, (num * b - a * den) / (den * b)))  # lo = fl(10**q - hi)
    hi, lo = np.array(rows).T
    return np.stack([hi, *_split(hi), lo])


def _field_tables():
    """The _FIELD rows of every shape j and number of digits kept, and the digit shifts of j."""
    kept = np.arange(17)
    # where the mantissa ends: "0." + (j - 1) zeros + d0 and the kept digits for j = 1..4,
    # then d0 "." and the kept digits (d0 alone when none is) for every j >= 5
    end = np.vstack([np.arange(3, 7)[:, None] + kept, np.where(kept > 0, kept + 2, 1)])
    mantissa = np.greater.outer(end, np.arange(_W)).view(np.uint8) * np.uint8(ord("0"))
    mantissa[..., 1] = np.where(end > 1, ord("."), 0)
    j = np.arange(_J)
    text = mantissa.take(np.clip(j, 1, 5) - 1, axis=0)
    exponent = b"".join((b"e-%02d" % v).ljust(5, b"\0") for v in range(5, _J))
    for k, at in enumerate(end[4]):
        text[5:, k, at:at + 5] = np.frombuffer(exponent, np.uint8).reshape(-1, 5)
    text[0] = 0
    text[0, :, :3] = np.frombuffer(b"nan", np.uint8)
    field = np.zeros((_J * 17, 4), np.uint64)
    field[:, :3] = text.reshape(-1, _W).view(np.uint64)
    fixed = (j >= 1) & (j <= 4)
    digits_at = np.where(fixed, 8 * j + 16, 16).astype(np.uint64)
    lead_at = np.where(fixed, 8 * j + 8, 0).astype(np.uint64)
    digits_at[0] = lead_at[0] = 192
    return field, digits_at, lead_at


_TEN = _powers_of_ten()
_FIELD, _DIGITS_AT, _LEAD_AT = _field_tables()


def _two_product(x, hi, hi_h, hi_l):
    """(ph, pl) with x * hi = ph + pl exactly: Dekker's two-product, hi split as hi_h + hi_l."""
    ph = x * hi
    xh, xl = _split(x)
    pl = ((xh * hi_h - ph) + xh * hi_l + xl * hi_h) + xl * hi_l
    return ph, pl


def _digits(x, k):
    """floor(x * 10**(16 - k)) as int64 and its fraction (bounds in the module docstring)."""
    hi, hi_h, hi_l, lo = _TEN.take(16 - k + _M_MAX, axis=1)
    ph, pl = _two_product(x, hi, hi_h, hi_l)
    r = pl + x * lo
    f = np.floor(r)
    return ph.astype(np.int64) + f.astype(np.int64), r - f


def _digit_bytes(v):
    """Each uint64 of ``v``, a number below 10**8, as its eight digits: byte values, first lowest.

    The inverse of ``_eight_digits``: each step splits every lane into a
    quotient q (low half) and remainder r (high half) by a multiply-shift,
    as (v << half) - q * ((divisor << half) - 1).
    """
    q = v * np.uint64(109951163)  # ceil(2**40 / 10**4): v // 10**4 for v < 10**8
    q >>= np.uint64(40)
    v <<= np.uint64(32)
    q *= np.uint64((10**4 << 32) - 1)
    v -= q
    np.multiply(v, np.uint64(10486), out=q)  # ceil(2**20 / 100): // 100 for lanes < 10**4
    q >>= np.uint64(20)
    q &= np.uint64(0x0000007F0000007F)
    v <<= np.uint64(16)
    q *= np.uint64((100 << 16) - 1)
    v -= q
    np.multiply(v, np.uint64(103), out=q)  # ceil(2**10 / 10): // 10 for lanes < 100
    q >>= np.uint64(10)
    q &= np.uint64(0x000F000F000F000F)
    v <<= np.uint64(8)
    q *= np.uint64((10 << 8) - 1)
    v -= q
    return v


def put_f17(x, chars) -> None:
    """Write ``'%.17g' % v`` of each float ``v`` of ``x`` into its row of ``chars``, then NULs.

    ``chars`` is a (len(x), ``_W``) uint8 view; a row's text is its bytes
    before the first NUL. The entries the fast path cannot prove (see the
    module docstring) take ``'%.17g' % v``.
    """
    fast = (x > _X_MIN) & (x < 1.0)
    xs = np.where(fast, x, 0.5)
    k = np.floor(np.log10(xs)).astype(np.int64)
    digits, frac = _digits(xs, k)
    fast &= (digits >= _E16) & (np.abs(frac - 0.5) >= _TIE)
    digits += frac > 0.5
    fast &= digits < _E17
    nan = np.isnan(x)
    j = np.where(nan, 0, -k)

    lead = digits // _E16
    digits -= lead * _E16
    words = np.empty((2, len(x)), np.int64)  # d1..d8 and d9..d16
    np.floor_divide(digits, 10**8, out=words[0])
    np.subtract(digits, words[0] * 10**8, out=words[1])
    a, b = _digit_bytes(words.view(np.uint64))
    # the digits kept end at the highest nonzero byte of b * 2**64 + a: its float has
    # that bit length, as no byte exceeds 9 and so no rounding carries into the next
    kept = (np.frexp(b * 2.0**64 + a)[1] + 7) // 8
    field = _FIELD.take(j * 17 + kept, axis=0)
    at = _DIGITS_AT.take(j)
    field[:, 0] |= lead.view(np.uint64) << _LEAD_AT.take(j)
    field[:, 0] |= a << at
    field[:, 1] |= b << at
    at = np.subtract(np.uint64(64), at, out=at)
    field[:, 1] |= a >> at
    field[:, 2] |= b >> at
    chars.view(np.uint64)[:] = field[:, :3]

    slow = np.flatnonzero(~(fast | nan))
    if len(slow):
        texts = "".join(("%.17g" % v).ljust(_W, "\0") for v in x[slow].tolist())
        chars[slow] = np.frombuffer(texts.encode(), np.uint8).reshape(len(slow), _W)


def row_matrix(row: str, sep: str, k: int):
    """(chars, fields) for k rows of ``row + sep``: the literals written, a slice per field.

    Each ``%.17g`` of ``row`` is a field of ``_W`` bytes, for ``put_f17``; the
    literals hold no NUL.
    """
    parts = [part.encode() for part in (row + sep).split("%.17g")]
    width = sum(map(len, parts)) + _W * (len(parts) - 1)
    chars = np.empty((k, width), np.uint8)
    fields, at = [], 0
    for i, part in enumerate(parts):
        chars[:, at:at + len(part)] = np.frombuffer(part, np.uint8)
        at += len(part)
        if i < len(parts) - 1:
            fields.append(slice(at, at + _W))
            at += _W
    return chars, fields


def matrix_text(chars, sep: str) -> str:
    """The rows' bytes but their NULs as one string, without the ``sep`` that ends the last row."""
    text = chars.ravel()[:chars.size - len(sep)]
    return str(text[text != 0].data, "ascii")


def format_rows(row: str, sep: str, *columns) -> list[str]:
    """``sep.join(row % values for values in zip(*columns))``, in blocks of ``_BLOCK`` rows.

    ``row`` holds one ``%.17g`` per column, and the columns are equal-length
    float64 arrays. The rows are shared out as in ``_in_shares``, and each
    share cuts its rows into pieces of at most ``_BLOCK`` from its start;
    the pieces, one string each, are returned for the caller to join with
    ``sep``. Every share reuses one matrix, whose literals are written once.
    """

    def share(lo, hi):
        chars, fields = row_matrix(row, sep, min(_BLOCK, hi - lo))
        pieces = []
        for i in range(lo, hi, _BLOCK):
            k = min(_BLOCK, hi - i)
            for column, field in zip(columns, fields):
                put_f17(column[i:i + k], chars[:k, field])
            pieces.append(matrix_text(chars[:k], sep))
        return pieces

    # the shares split rows, not whole blocks: 117,649 rows go 58,824 against 58,825
    return list(chain.from_iterable(_in_shares(share, len(columns[0]), _BLOCK)))


def format_grid(centers, values) -> str:
    """The ``da,db,dc`` CSV of a grid sheet: ``values[i, j]`` at ``(centers[i], centers[j])``.

    Each center is formatted once. The cells go in blocks of whole grid rows,
    at most ``_BLOCK`` cells. The grid rows are shared out as in
    ``_in_shares``, and each share writes through one matrix: its db fields
    (the centers in order, once per grid row) are written once, and each
    block writes the da fields of its grid rows and formats its dc values.
    """
    resolution = len(centers)
    center_chars, _ = row_matrix("%.17g", "", resolution)
    put_f17(centers, center_chars)
    rows_per_block = max(1, _BLOCK // resolution)

    def share(lo, hi):
        k = min(rows_per_block, hi - lo)
        chars, (a, b, c) = row_matrix("%.17g,%.17g,%.17g", "\n", k * resolution)
        grid = chars.reshape(k, resolution, -1)
        grid[:, :, b] = center_chars
        lines = []
        for i in range(lo, hi, rows_per_block):
            k = min(rows_per_block, hi - i)
            m = k * resolution
            grid[:k, :, a] = center_chars[i:i + k, None]
            put_f17(values[i:i + k].ravel(), chars[:m, c])
            lines.append(matrix_text(chars[:m], "\n"))
        return lines

    # shares of whole grid rows: res 192 (blocks of 85, 85, 22 rows) splits 96 against 96
    shares = _in_shares(share, resolution, rows_per_block)
    return "\n".join(["da,db,dc", *chain.from_iterable(shares), ""])


def export_intervals(intervals: IntervalSet, format: str = "json") -> str:
    """Serialize a set; round-trips bit-identically through import_intervals.

    The document is one join of the row blocks, with the head and tail on the
    first and last block, so at most the blocks and the document are held at
    once.
    """
    layout = _layout(format)
    check_intervals(intervals)
    head = layout.head(intervals.params)
    if not len(intervals):
        return head[:-1] + layout.empty
    row = "%.17g".join([layout.before, layout.mid, layout.after])
    rows = format_rows(row, layout.sep, intervals.starts, intervals.ends)
    rows[0] = head + rows[0]
    rows[-1] += layout.tail
    return layout.sep.join(rows)


def _params(doc: dict) -> CantorParams | None:
    """The construction parameters of a JSON document's header fields, type-checked."""
    for key, (types, kind, _) in _HEADER.items():
        value = doc.get(key)
        if value is not None and type(value) not in types:
            raise ParseError(f"'{key}' must be {kind} or null, got {json.dumps(value)}")
    fields = [doc.get(k) for k in _HEADER]
    if any(v is None for v in fields):
        return None
    try:
        return CantorParams(*fields)
    except DomainError as exc:
        raise InvariantError(f"invalid construction parameters in document: {exc}")


# ---------------------------------------------------------------------------
# The exporter's layouts read in numpy blocks

#: bytes of the fraction window: a field's fraction digits end at its right edge
_FRAC = 24
#: bytes each block's copy of the text keeps on either side of its fields
_PAD = 2 * _FRAC
#: bytes of text in a span, at most: each cut between spans moves on to the next row start
_SCAN = 1 << 19
#: an entry whose residual lies this many ulps from a rounding midpoint takes float()
_GUARD = 2.0**-40
_ZEROS = np.uint64(int.from_bytes(b"0" * 8, "little"))
_HIGH = np.uint64(int.from_bytes(b"\x80" * 8, "little"))
_TO_HIGH = np.uint64(int.from_bytes(b"\x76" * 8, "little"))  # a byte above 9 reaches 0x80


def _fraction_masks():
    """(f, word) -> the uint64 masks of the last f of a window's first 24 bytes."""
    at = np.arange(_FRAC + 8)
    keep = (at >= _FRAC - np.arange(_FRAC + 1)[:, None]) & (at < _FRAC)
    return (keep * np.uint8(0xFF)).view("<u8")


_FRAC_MASK = _fraction_masks()
_P10 = 10 ** np.arange(17, dtype=np.int64)


def _eight_digits(v):
    """The number each uint64 of eight digit bytes (0-9, first digit lowest) spells."""
    v *= np.uint64(2561)  # 10 * 256 + 1: pairs
    v >>= np.uint64(8)
    v &= np.uint64(0x00FF00FF00FF00FF)
    v *= np.uint64(6553601)  # 100 * 2**16 + 1: quads
    v >>= np.uint64(16)
    v &= np.uint64(0x0000FFFF0000FFFF)
    v *= np.uint64(42949672960001)  # 10**4 * 2**32 + 1: the eight
    v >>= np.uint64(32)
    return v.view(np.int64)


def _windows(buf, at):
    """The 32 bytes from each offset ``at`` of ``buf`` as a row of four uint64."""
    return np.ndarray((len(buf) - 31,), "V32", buf, strides=(1,))[at].view("<u8").reshape(-1, 4)


def _read_block(buf, s, t, window):
    """The values of the fields ``buf[s:t]`` and the mask of those to take float().

    ``window`` holds the 32 bytes from each ``t - 24`` (``_windows``), and
    the fraction digits are read in it. None when a field is not
    d[.d+][e-dd[d]] (see the module docstring).
    """
    e5, e4 = (window.view(np.uint8)[:, i] == ord("e") for i in (19, 20))  # at t - 5, t - 4
    ex = np.flatnonzero(e5 | e4)  # the fields that may have an exponent
    if 2 * len(ex) > len(t):  # mostly exponents: read every field at its mantissa end
        ex = slice(None)
    sx, tx = s[ex], t[ex]
    e3 = e5[ex] & (tx - 5 > sx)
    e2 = e4[ex] & (tx - 4 > sx) & ~e3
    end = tx - 4 * e2 - 5 * e3  # where the mantissa ends
    x1, x2, x3 = (buf[end + i] - np.uint8(ord("0")) for i in (2, 3, 4))
    exp_ok = ~(e2 | e3) | ((buf[end + 1] == ord("-")) & (x1 < 10) & (x2 < 10) & (~e3 | (x3 < 10)))
    size = t - s
    size[ex] = end - sx
    f = np.maximum(size - 2, 0)
    lead = buf[s] - np.uint8(ord("0"))
    ok = (lead < 10) & ((size == 1) | ((size >= 3) & (buf[s + 1] == ord(".")) & (f <= _FRAC)))
    if not (ok.all() and exp_ok.all()):
        return None
    window[ex] = _windows(buf, end - _FRAC)  # an exponent's fraction ends at its mantissa end
    window ^= _ZEROS
    window &= _FRAC_MASK.take(f, axis=0)  # zeros the word after the fraction too
    if np.bitwise_or.reduce((window + _TO_HIGH) | window, axis=None) & _HIGH:
        return None
    c = _eight_digits(window)
    two = x1 * 10 + x2
    m = f.copy()
    m[ex] += np.where(e3, two * np.int64(10) + x3, two * e2)
    slow = (c[:, 0] >= 10) | ((lead > 0) & (f > 16)) | (m > _M_MAX)
    # the slow entries' digits may not fit: keep them below 2**63 until float() replaces them
    high = np.minimum(c[:, 0], 9)
    digits = lead * _P10.take(np.minimum(f, 16)) + high * 10**16 + c[:, 1] * 10**8 + c[:, 2]
    hi, hi_h, hi_l, lo = _TEN.take(_M_MAX - np.minimum(m, _M_MAX), axis=1)
    dh = digits.astype(np.float64)
    dl = (digits - dh.astype(np.int64)).astype(np.float64)
    ph, pl = _two_product(dh, hi, hi_h, hi_l)
    tail = (pl + dh * lo) + dl * hi
    r = ph + tail
    e = (ph - r) + tail
    bits = r.view(np.int64)
    ulp = (bits & 0x7FF0000000000000).view(np.float64) * 2.0**-52
    below = (e < 0) & ((bits & 0x000FFFFFFFFFFFFF) == 0)  # a power of two: half the spacing below
    half = ulp * np.where(below, 0.25, 0.5)
    slow |= np.abs(np.abs(e) - half) <= _GUARD * ulp
    return r, slow


def _span(data, start: int, stop: int):
    """``data[start:stop]`` as uint8: a view of bytes, the encoded slice of an ASCII str.

    A str is encoded a span at a time, so no copy of the whole document is made.
    """
    if isinstance(data, str):
        return np.frombuffer(data[start:stop].encode(), np.uint8)
    return np.frombuffer(memoryview(data)[start:stop], np.uint8)


def _read_span(data, lo: int, hi: int, layout: _Layout, scratch):
    """The values a, b, a, ... of the rows that ``data[lo:hi]`` holds, or None.

    The span's text goes between ``_PAD`` zeros at the front of ``scratch``,
    its mask of marks at the back; the span that ends where the tail starts
    gets a ``sep`` in the tail's place. Each pair of marks gives a row's
    fields, whose literals (``_AFTER_WORDS``, read in each field's window)
    and syntax (``_read_block``) must hold; the first row's ``before`` must
    start the span, and the last row's ``sep`` must end it.
    """
    sep, before = layout.sep.encode(), layout.before.encode()
    last = hi == len(data) - len(layout.tail)
    size = hi - lo + len(sep) * last
    buf = scratch[:size + 2 * _PAD]
    text = buf[_PAD:_PAD + size]
    text[:hi - lo] = _span(data, lo, hi)
    if last:
        text[hi - lo:] = np.frombuffer(sep, np.uint8)
    buf[_PAD + size:] = 0  # what an earlier, longer span left
    buf[_PAD + size:_PAD + size + len(before)] = np.frombuffer(before, np.uint8)
    hit = layout.mark(text, ord(layout.mid[0]), out=scratch[len(scratch) - size:].view(bool))
    # each row holds two marks, and none is shorter than the row of two one-digit fields:
    # more marks than that cannot be rows, so decline before building their offsets
    shortest = len("0".join([layout.before, layout.mid, layout.after]) + layout.sep)
    if np.count_nonzero(hit) > 2 * (size // shortest):
        return None
    marks = np.flatnonzero(hit) + _PAD
    if not len(marks) or len(marks) % 2 or marks[-1] + len(sep) != _PAD + size:
        return None
    s, t = np.empty_like(marks), marks
    s[0], s[2::2] = _PAD, marks[1:-1:2] + len(sep)  # the row starts
    s[0::2] += len(layout.before)
    s[1::2] = marks[0::2] + len(layout.mid)
    t[1::2] -= len(layout.after)
    (mid_mask, mid), (after_mask, after) = _AFTER_WORDS[layout]
    window = _windows(buf, t - _FRAC)
    literal = window[:, 3]  # the 8 bytes from each field's end
    if not (text[:len(before)].tobytes() == before
            and ((literal[0::2] & mid_mask) == mid).all()
            and ((literal[1::2] & after_mask) == after).all()):
        return None
    block = _read_block(buf, s, t, window)
    if block is None:
        return None
    values, slow = block
    for j in np.flatnonzero(slow):
        values[j] = float(buf[s[j]:t[j]].tobytes())
    return values


def _read_exported(data, layout: _Layout) -> IntervalSet | None:
    """The set of a bytes or ASCII str document in ``export_intervals``' ``layout``, or None.

    The rows' bytes are shared out by ``_in_shares``; each share moves its
    ends on to row starts and reads near-equal spans (``_read_span``) of at
    most about ``_SCAN`` bytes, each cut moved on to a row start. The head
    is checked once the spans are read (see the module docstring).
    """
    find = data.find if isinstance(data, str) else lambda x, *at: data.find(x.encode(), *at)
    first = layout.head(None)
    line = first[first.rfind("\n", 0, -1) + 1:]
    end = find(line) + len(line)
    stop = len(data) - len(layout.tail)
    if not (len(line) <= end < stop
            and _span(data, stop, len(data)).tobytes() == layout.tail.encode()):
        return None
    head = _span(data, 0, end).tobytes()
    try:
        fields = layout.loads(head.decode("ascii"))
    except (RecursionError, ValueError):
        return None

    def row_start(at):  # the first row start from at on, or stop: find gives -1 past the last
        return find("\n", at - 1, stop) + 1 or stop

    def share(lo, hi):
        lo, hi = row_start(end + lo), row_start(end + hi)
        count = -(-(hi - lo) // _SCAN)
        cuts = [lo]
        for i in range(1, count + 1):
            at = row_start(lo + (hi - lo) * i // count)  # at most hi, a row start itself
            if at > cuts[-1]:  # else a long row has carried the cut before it past at
                cuts.append(at)
        scratch = np.zeros(2 * (max(np.diff(cuts), default=0) + len(layout.sep) + _PAD), np.uint8)
        spans = []
        for a, b in zip(cuts, cuts[1:]):
            spans.append(_read_span(data, a, b, layout, scratch))
            if spans[-1] is None:
                return None
        return spans

    shares = _in_shares(share, stop - end, _SCAN)
    if any(spans is None for spans in shares):
        return None
    params = _params(fields)
    if head != layout.head(params).encode():
        return None
    spans = list(chain.from_iterable(shares))
    return IntervalSet._owning(*(np.concatenate([v[i::2] for v in spans]) for i in (0, 1)), params)


def _parse_json(text: str) -> IntervalSet:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", f"line {exc.lineno}, column {exc.colno}")
    except (RecursionError, ValueError) as exc:  # nesting too deep, an integer too long
        raise ParseError(f"invalid JSON: {exc}") from None
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
    params = _params(doc)
    try:
        values = np.fromiter(chain.from_iterable(raw), np.float64, 2 * len(raw))
    except OverflowError:  # an integer too large for binary64; 1e999 loads as inf
        raise InvariantError("interval endpoints must be finite") from None
    return IntervalSet(values[0::2], values[1::2], params)


def _parse_csv(text: str) -> IntervalSet:
    lines = _lines(text)
    if next(lines, "").strip() != _CSV_HEADER:
        raise ParseError(f"first line must be the header '{_CSV_HEADER}'", "line 1")
    values = array("d")
    for lineno, line in enumerate(lines, start=2):
        if not line or line.isspace():
            continue
        start, _, end = line.partition(",")
        try:
            if "," in end:
                raise ValueError
            values.append(float(start))
            values.append(float(end))
        except ValueError:
            fields = line.count(",") + 1  # counted, not split: a line may hold millions
            if fields != 2:
                raise ParseError(f"expected 2 fields, got {fields}", f"line {lineno}") from None
            raise ParseError(f"non-numeric field in {line!r}", f"line {lineno}") from None
    values = np.frombuffer(values, np.float64)
    return IntervalSet(values[0::2], values[1::2], None)


def _lines(text: str):
    """``text.splitlines()``, one line at a time.

    The text is split a piece at a time, each up to the first line break at
    least ``_SCAN // 8`` characters on, so the lines held at once take at
    most about ``_SCAN`` bytes. The breaks are those of ``str.splitlines``,
    with CR LF as one.
    """
    breaks = re.compile(r"\r\n|[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")
    start = 0
    while start < len(text):
        found = breaks.search(text, start + _SCAN // 8)
        end = found.end() if found else len(text)
        yield from text[start:end].splitlines()
        start = end


def import_intervals(data, format: str = "json") -> IntervalSet:
    """Parse a document produced by export_intervals, validating all invariants."""
    layout = _layout(format)
    if not isinstance(data, (str, bytes)):
        raise DomainError(f"data must be str or bytes, got {type(data).__name__}")
    # any other layout, and any str not ASCII, takes the path below
    if isinstance(data, bytes) or data.isascii():
        intervals = _read_exported(data, layout)
        if intervals is not None:
            return intervals
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        raise ParseError(f"document is not UTF-8: {exc.reason}", f"byte {exc.start}") from None
    return _parse_json(text) if format == "json" else _parse_csv(text)
