"""Block formatting and parsing against the per-value reference.

``serialize.format_rows`` writes up to ``_BLOCK`` rows per character matrix,
each float by the numpy formatter ``put_f17``; these tests pin its bytes to
the seed's one-``format()``-per-value loops in ``reference_text.py``: on
random bit patterns, at powers of ten, on decimal ties and special values,
with the exponent estimate one off, at and around the block boundaries, and
where whole blocks take the fallback. They pin each field's layout too: its
text from the first byte of its slot, then NULs, on every shape of the text
and at slot offsets and row widths that leave its 8-byte words unaligned.
They also pin the JSON bulk check and the one-pass CSV parser
to the seed's per-row checks, messages and line numbers, and the block
parser of exporter layouts to the ``json.loads``/``float`` path: exporter
output is read by it bit-identically to ``float()``, and every document
mutated out of the layout declines to that path, with its arrays or errors.
"""

import json
import os
import random
from unittest import mock

import numpy as np
import pytest
import reference_text as ref
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cantordim import (
    CantorParams,
    InvariantError,
    IntervalSet,
    ParseError,
    construct_prefractal,
    emit_operator_grid,
    export_intervals,
    import_intervals,
)
from cantordim import serialize
from cantordim.serialize import _BLOCK, format_rows

SIZES = [0, 1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1]


def paramless(m, seed=0):
    """m disjoint intervals with awkward values: 0, subnormals, 1 and random reals."""
    x = np.sort(np.random.default_rng(seed).random(2 * m))
    if m:
        x[0], x[-1] = 0.0, 1.0
    if m > 1:
        x[1], x[2] = 5e-324, 2.5e-308
    return IntervalSet(x[0::2], x[1::2])


def constructed(m):
    """The first m intervals of a constructed set, its params kept."""
    full = construct_prefractal(CantorParams(7, 0.05, 0.01, 5))  # 16807 > _BLOCK + 1
    return IntervalSet(full.starts[:m], full.ends[:m], full.params)


def same_text(got: str, want: str) -> None:
    """Fail naming the first differing line: a full diff of 1e4 lines is too slow."""
    if got != want:
        g, w = got.split("\n"), want.split("\n")
        i = next((k for k, (a, b) in enumerate(zip(g, w)) if a != b), min(len(g), len(w)))
        pytest.fail(f"line {i}: {g[i:i + 1]!r} != {w[i:i + 1]!r} ({len(g)} vs {len(w)} lines)")


def same_bits(got: IntervalSet, want: IntervalSet) -> bool:
    return (got.starts.tobytes(), got.ends.tobytes()) == (want.starts.tobytes(), want.ends.tobytes())


def test_block_is_16384_rows():
    assert _BLOCK == 16384


class TestExportBytes:
    @pytest.mark.parametrize("m", SIZES)
    @pytest.mark.parametrize("make", [paramless, constructed])
    def test_csv_rows_match_per_value_format(self, make, m):
        s = make(m)
        text = export_intervals(s, "csv")
        same_text(text, ref.export_csv(s))
        assert text.count("\n") == m + 1

    @pytest.mark.parametrize("m", SIZES)
    @pytest.mark.parametrize("make", [paramless, constructed])
    def test_json_rows_match_per_value_format(self, make, m):
        s = make(m)
        same_text(export_intervals(s, "json"), ref.export_json(s))

    @pytest.mark.parametrize("params", [
        CantorParams(2, 1 / 3, 0.0, 14),  # exactly _BLOCK intervals
        CantorParams(5, 0.1, 0.125, 6),
        CantorParams(2, 0.3, 0.0, 0),
    ])
    def test_whole_constructed_sets(self, params):
        s = construct_prefractal(params)
        same_text(export_intervals(s, "csv"), ref.export_csv(s))
        same_text(export_intervals(s, "json"), ref.export_json(s))

    def test_special_values_match_format(self):
        values = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1e16, 1e17, 0.1])
        rows = "\n".join(format_rows("%.17g", "\n", values)).split("\n")
        assert rows == [ref.f17(v) for v in values]
        assert rows[:2] == ["nan", "nan"]

    @pytest.mark.parametrize("m", SIZES + [2 * _BLOCK + 3])
    def test_blocks_hold_at_most_block_rows(self, m, monkeypatch):
        # each share's rows in pieces of at most _BLOCK from the share's start: with two
        # usable CPUs, _BLOCK + 1 rows make two shares of one piece each, and 2 * _BLOCK + 3
        # rows make shares of _BLOCK + 1 and _BLOCK + 2 rows
        column = np.arange(m, dtype=np.float64)
        one_cpu_two_cpus = {
            0: ([], []),
            _BLOCK + 1: ([_BLOCK, 1], [_BLOCK // 2, _BLOCK // 2 + 1]),
            2 * _BLOCK + 3: ([_BLOCK, _BLOCK, 3], [_BLOCK, 1, _BLOCK, 2]),
        }
        for cpus, want in zip((1, 2), one_cpu_two_cpus.get(m, ([m], [m]))):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            pieces = format_rows("%.17g", "\n", column)
            assert [p.count("\n") + 1 for p in pieces] == want
            same_text("\n".join(pieces), "\n".join(ref.f17(v) for v in column))


def f17_rows(values) -> list[str]:
    return "\n".join(format_rows("%.17g", "\n", np.asarray(values, dtype=np.float64))).split("\n")


def neighbours(x, ulps=3):
    """x and the ``ulps`` floats on either side of it."""
    out, lo, hi = [x], x, x
    for _ in range(ulps):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return out


# exact binary fractions past 17 significant digits: the first two are decimal ties
# at 17 (they end in a 5 at the 18th), the third ends in 875
TIES = [26215 / 2**18, 26217 / 2**18, 131075 / 2**20]
SPECIAL = [
    0.0, -0.0, 5e-324, 2.5e-308, *neighbours(1e-280, 2), 1.0, 123.5, 1e16, 1e17,
    -0.5, -1e-300, -123.5, np.nan, -np.nan, np.inf, -np.inf, 0.1, 0.5, 1 - 2**-53,
]


class TestF17:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_random_bit_patterns(self, bits):
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        assert f17_rows(values) == [ref.f17(v) for v in values]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.floats(1e-300, 1.0, exclude_max=True), min_size=1, max_size=64))
    def test_random_fast_path_values(self, values):
        assert f17_rows(values) == [ref.f17(v) for v in values]

    def test_powers_of_ten_and_their_neighbours(self):
        values = [v for e in range(-300, 1) for v in neighbours(float(f"1e{e}"))]
        same_text("\n".join(f17_rows(values)), "\n".join(map(ref.f17, values)))

    def test_exact_ties_round_half_even(self):
        assert f17_rows(TIES) == [ref.f17(v) for v in TIES]
        assert f17_rows(TIES) == ["0.10000228881835938", "0.10000991821289062", "0.12500286102294922"]

    def test_special_values(self):
        assert f17_rows(SPECIAL) == [ref.f17(v) for v in SPECIAL]

    def test_a_block_where_every_entry_takes_the_fallback(self):
        rng = np.random.default_rng(5)
        values = np.concatenate([
            -rng.random(_BLOCK // 2), 1.0 + rng.random(_BLOCK // 4) * 1e6,
            rng.random(_BLOCK // 4 + 1) * 1e-290, [0.0, -0.0, np.inf, -np.inf, 1.0, 1e17],
        ])
        same_text("\n".join(f17_rows(values)), "\n".join(map(ref.f17, values)))

    @pytest.mark.parametrize("shift", [-1.0, 1.0])
    def test_an_exponent_one_off_takes_the_fallback(self, monkeypatch, shift):
        # with log10 moved by a whole unit, every entry's k is one off, so its
        # digits fall outside [1e16, 1e17) and it must take '%.17g' itself
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda x: log10(x) + shift)
        values = [v for e in range(-20, 1) for v in neighbours(float(f"1e{e}"))]
        values += np.random.default_rng(7).random(200).tolist()
        assert f17_rows(values) == [ref.f17(v) for v in values]

    def test_columns_mixing_nan_runs_fallback_and_fast_rows(self):
        rng = np.random.default_rng(6)
        a = rng.random(_BLOCK + 7)
        c = rng.random(_BLOCK + 7)
        c[100:3000] = np.nan  # a NaN run
        c[_BLOCK - 5:_BLOCK + 3] = np.nan  # one across the block boundary
        c[3000:3003] = TIES
        c[7::97] = 1.0
        c[11::89] = -c[11::89]
        text = "\n".join(format_rows("%.17g,%.17g,%.17g", "\n", a, a[::-1], c))
        want = "\n".join(f"{ref.f17(x)},{ref.f17(y)},{ref.f17(z)}" for x, y, z in zip(a, a[::-1], c))
        same_text(text, want)


# the shapes of a fast field's text by j = -k: fixed notation for k = -1..-4, then
# exponents of two and of three digits
SHAPES = {"k=-1": [1], "k=-2": [2], "k=-3": [3], "k=-4": [4],
          "e-dd": list(range(5, 100)), "e-ddd": list(range(100, 281))}
# row widths: a JSON row, a grid row, and odd ones
WIDTHS = [58, 75, 25, 49]


def shaped(shape, lead, kept, seed):
    """A float whose ``'%.17g'`` is of ``shape``, leads with ``lead`` and keeps ``kept`` of
    the 16 digits after it (the other 16 - kept are trailing zeros, dropped).

    None when 200 tries find none: no double prints some short fixed-notation
    texts, such as 0.3 (0.29999999999999999).
    """
    rng = random.Random(seed)
    for _ in range(200):
        j = rng.choice(SHAPES[shape])
        digits = "".join(rng.choices("0123456789", k=kept))
        if kept:  # the last kept digit is not a zero
            digits = digits[:-1] + rng.choice("123456789")
        if j <= 4:
            text = "0." + "0" * (j - 1) + str(lead) + digits
        else:
            text = f"{lead}{'.' if kept else ''}{digits}e-{j:02d}"
        if "%.17g" % float(text) == text:
            return float(text)
    return None


def slot_bytes(values, width, at):
    """Rows of ``width`` bytes of 0xFF with ``put_f17`` of ``values`` written at byte ``at``."""
    chars = np.full((len(values), width), 0xFF, np.uint8)
    serialize.put_f17(np.asarray(values, dtype=np.float64), chars[:, at:at + serialize._W])
    return chars


def assert_fields(values, chars, at):
    """Each row's slot holds the value's '%.17g' from its first byte, then NULs, and the
    bytes outside the slot are untouched."""
    w = serialize._W
    for v, row in zip(values, chars):
        text = ref.f17(v).encode()
        assert row[at:at + len(text)].tobytes() == text, (v, row[at:at + w].tobytes())
        assert not row[at + len(text):at + w].any(), (v, row[at:at + w].tobytes())
        assert (row[:at] == 0xFF).all() and (row[at + w:] == 0xFF).all()


class TestFieldLayout:
    def test_the_widest_text_fills_the_slot(self):
        widest = max(len(ref.f17(-v)) for v in (2.2250738585072014e-308, 5e-324))
        assert serialize._W == widest == 24

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        shapes=st.lists(st.tuples(st.sampled_from(list(SHAPES)), st.integers(1, 9),
                                  st.integers(0, 16), st.integers(0, 2**32)),
                        min_size=1, max_size=8),
        width=st.sampled_from(WIDTHS),
        data=st.data(),
    )
    def test_a_field_is_its_text_from_the_slot_start(self, shapes, width, data):
        values = [v for v in (shaped(*s) for s in shapes) if v is not None]
        assume(values)
        at = data.draw(st.integers(0, width - serialize._W), label="slot offset")
        assert_fields(values, slot_bytes(values, width, at), at)

    @pytest.mark.parametrize("width, at", [(58, 5), (58, 31), (75, 25), (75, 50), (25, 1),
                                           (49, 0), (49, 24)])
    def test_every_shape_lead_digit_and_count_of_trailing_zeros(self, width, at):
        found = {(shape, lead, kept): shaped(shape, lead, kept, seed=kept * 10 + lead)
                 for shape in SHAPES for lead in range(1, 10) for kept in range(17)}
        # every exponent shape is found; fixed notation lacks only texts no double prints
        missing = [key for key, v in found.items() if v is None]
        assert all(shape.startswith("k=") and kept <= 1 for shape, _, kept in missing), missing
        values = [v for v in found.values() if v is not None]
        assert len(values) > 0.95 * len(found)
        values += [np.nan, 0.5, 1.0, -0.25, 5e-324, 1e-280, *TIES]  # NaN and the fallback
        assert_fields(values, slot_bytes(values, width, at), at)

    def test_digit_bytes_are_the_decimal_digits(self):
        v = np.concatenate([
            [0, 1, 9, 10, 99, 100, 9999, 10**4, 10**7, 10**8 - 1, 12345678, 87654321],
            np.random.default_rng(9).integers(0, 10**8, 10_000),
        ]).astype(np.uint64)
        got = serialize._digit_bytes(v.copy()).view(np.uint8).reshape(-1, 8) + ord("0")
        assert [row.tobytes().decode() for row in got] == [f"{int(x):08d}" for x in v]


class TestGridBytes:
    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
    @pytest.mark.parametrize("res", [2, 4, 129])  # 129 rows split into uneven row blocks
    def test_grid_matches_per_value_loop(self, op, res):
        sheet, text = emit_operator_grid(op, res, 3)
        same_text(text, ref.grid_csv(sheet))

    @pytest.mark.parametrize("op", ["sub", "div"])
    def test_nan_cells_are_written(self, op):
        sheet, text = emit_operator_grid(op, 129, 2)
        rows = text.splitlines()[1:]
        nan_rows = [r for r in rows if r.endswith(",nan")]
        assert 0 < len(nan_rows) == int(np.isnan(sheet.values).sum())

    @pytest.mark.parametrize("res", [128, 200])
    def test_div_block_mixes_nan_runs_with_fallback_rows(self, res):
        # a/a = 1.0 takes the fallback on the diagonal; below it a/b > 1 is NaN
        sheet, text = emit_operator_grid("div", res, 2)
        block = sheet.values[: _BLOCK // res]
        assert (block == 1.0).any() and np.isnan(block).any()
        same_text(text, ref.grid_csv(sheet))


def csv_doc(lines):
    return "start,end\n" + "\n".join(lines) + "\n"


def good_lines(m):
    return ref.export_csv(paramless(m)).splitlines()[1:]


def same_error(text):
    """import_intervals raises the reference parser's error: same type and message."""
    with pytest.raises(ParseError) as want:
        ref.import_csv(text)
    with pytest.raises(ParseError) as got:
        import_intervals(text, "csv")
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    return str(got.value)


# the line breaks of str.splitlines, and none at the end
CSV_BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
              "\u2029", "\n\n", "\r\r\n", ""]


class TestCsvImport:
    @pytest.mark.parametrize("m", SIZES)
    def test_arrays_match_reference(self, m):
        text = export_intervals(paramless(m), "csv")
        assert same_bits(import_intervals(text, "csv"), ref.import_csv(text))

    @pytest.mark.parametrize("bad, message", [
        ("0.5", "expected 2 fields, got 1"),
        ("0.5,0.6,0.7", "expected 2 fields, got 3"),
        ("0.5,x", "non-numeric field in '0.5,x'"),
        ("0.5,", "non-numeric field in '0.5,'"),
    ])
    def test_bad_row_in_the_second_block(self, bad, message):
        lines = good_lines(_BLOCK + 10)
        lines[_BLOCK + 3] = bad
        text = csv_doc(lines)
        assert same_error(text) == f"{message} (line {_BLOCK + 5})"

    def test_first_bad_row_wins_across_kinds(self):
        lines = good_lines(_BLOCK + 10)
        lines[_BLOCK + 7] = "0.1,0.2,0.3"  # field count, later in the file
        lines[_BLOCK + 2] = "0.1,y"  # non-numeric, earlier
        assert same_error(csv_doc(lines)).endswith(f"(line {_BLOCK + 4})")

    def test_short_and_long_rows_in_one_block(self):
        # 1 + 3 fields make 2 per row on average; each row must have exactly 2
        lines = good_lines(_BLOCK + 10)
        lines[_BLOCK + 2], lines[_BLOCK + 6] = "0.5", "0.5,0.6,0.7"
        assert same_error(csv_doc(lines)) == f"expected 2 fields, got 1 (line {_BLOCK + 4})"

    def test_line_numbers_count_blank_lines(self):
        lines = good_lines(_BLOCK + 5)
        lines[_BLOCK + 1] = "bad"
        lines[10:10] = ["", "   ", "\t"]
        assert same_error(csv_doc(lines)) == f"expected 2 fields, got 1 (line {_BLOCK + 6})"

    def test_blank_lines_and_crlf_are_accepted(self):
        s = paramless(_BLOCK + 3, seed=4)
        lines = export_intervals(s, "csv").splitlines()
        lines[5:5] = ["", "  "]
        lines[_BLOCK:_BLOCK] = [""]
        text = "\r\n".join(lines) + "\r\n"
        assert same_bits(import_intervals(text, "csv"), s)
        assert same_bits(ref.import_csv(text), s)

    @pytest.mark.parametrize("row", [" 0.25 , 0.5 ", "2.5e-1,5E-1", "0_0.25,0.5"])
    def test_fields_parse_as_float_does(self, row):
        text = csv_doc([row])
        assert same_bits(import_intervals(text, "csv"), ref.import_csv(text))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        lines=st.lists(st.sampled_from(
            ["0.25,0.5", "0.5,0.75", "", "  ", "0.5", "0.1,0.2,0.3", "0.5,x", "x,0.5,y",
             "start,end"]
        ), max_size=12),
        breaks=st.lists(st.sampled_from(CSV_BREAKS), min_size=13, max_size=13),
        scan=st.sampled_from([8, 16, 24, 64]),
    )
    def test_lines_read_a_block_at_a_time_as_splitlines(self, lines, breaks, scan):
        # every line break of str.splitlines, CR LF among them, split into pieces of one
        # to a few lines: the same values, errors and line numbers as the reference; a
        # row that breaks both rules ("x,0.5,y") is reported for its field count
        text = "".join(map("".join, zip(["start,end", *lines], breaks)))
        with mock.patch.object(serialize, "_SCAN", scan):
            assert list(serialize._lines(text)) == text.splitlines()
            assert outcome(serialize._parse_csv, text) == outcome(ref.import_csv, text)


class TestJsonRowCheck:
    @pytest.mark.parametrize("intervals", [
        [], [[0, 1]], [[0, 0.5], [0.5, 1]], [[0, 0.25], [0.25, 0.5], [0.75, 1]],
        {}, "ab", 5, None, [[0]], [[0, 0.5, 1]], ["ab"], [{"a": 1, "b": 2}],
        [[0, "x"]], [[0, None]], [[0, [1]]], [[False, 1]], [[0, True]], [[0, 1], [0.5]],
        [[0, 0.5], "ab"], [[0, {}]], [5], [None], [[0, 1], 0.5], [True],
    ])
    def test_accepts_and_rejects_as_the_per_row_check(self, intervals):
        text = json.dumps({"intervals": intervals})
        raw = json.loads(text)["intervals"]
        if ref.intervals_field_ok(raw):
            want = np.array(raw, dtype=np.float64).reshape(-1, 2)
            assert same_bits(import_intervals(text), IntervalSet(want[:, 0], want[:, 1]))
        else:
            with pytest.raises(ParseError) as err:
                import_intervals(text)
            assert str(err.value) == "'intervals' must be a list of [start, end] number pairs"

    @pytest.mark.parametrize("m", SIZES)
    def test_arrays_match_reference(self, m):
        s = constructed(m)
        back = import_intervals(export_intervals(s, "json"))
        assert same_bits(back, s)
        assert back.params == s.params


class TestJsonOverflow:
    @pytest.mark.parametrize("literal", ["1" + "0" * 400, "-1" + "0" * 400, "1e999"])
    def test_coordinate_beyond_binary64_is_not_finite(self, literal):
        with pytest.raises(InvariantError, match="interval endpoints must be finite"):
            import_intervals(f'{{"intervals": [[0, 0.5], [0.75, {literal}]]}}')


# ---------------------------------------------------------------------------
# The exporter's layouts read in blocks against the present json.loads/float path


def present(text, fmt):
    """The per-document path every layout but the exporter's takes."""
    return (serialize._parse_json if fmt == "json" else serialize._parse_csv)(text)


def outcome(parse, *args):
    """The bits and params a parser returns, or the type and message of what it raises.

    None when the parser declines (the block parser alone does).
    """
    try:
        s = parse(*args)
    except (ParseError, InvariantError) as exc:
        return type(exc), str(exc)
    return None if s is None else (s.starts.tobytes(), s.ends.tobytes(), s.params)


def fast(text, fmt):
    """What the block parser alone makes of the document: None when it declines."""
    return serialize._read_exported(text.encode(), serialize._LAYOUTS[fmt])


def same_outcome(text, fmt):
    """str and bytes imports agree with the present path, and CSV with the per-row reference."""
    want = outcome(present, text, fmt)
    assert outcome(import_intervals, text, fmt) == want
    assert outcome(import_intervals, text.encode(), fmt) == want
    if fmt == "csv":
        assert outcome(ref.import_csv, text) == want


def mutate_field(text, fmt, literal, row=3, col=1):
    """The document with field ``col`` of interval ``row`` written as ``literal``."""
    lines = text.split("\n")
    at = row + (6 if fmt == "json" else 1)
    if fmt == "json":
        fields = lines[at].strip().rstrip(",")[1:-1].split(", ")
        fields[col] = literal
        lines[at] = f"    [{fields[0]}, {fields[1]}]" + ("," if lines[at].endswith(",") else "")
    else:
        fields = lines[at].split(",")
        fields[col] = literal
        lines[at] = ",".join(fields)
    return "\n".join(lines)


def swap_lines(i, j):
    def swap(text):
        lines = text.split("\n")
        lines[i], lines[j] = lines[j], lines[i]
        return "\n".join(lines)
    return swap


def in_rows(json_old, json_new, csv_old, csv_new, count=2):
    """Replace the format's ``old`` by ``new`` ``count`` times past the first line."""
    def mutate(text):
        at = text.index("\n")
        old, new = (json_old, json_new) if text.startswith("{") else (csv_old, csv_new)
        return text[:at] + text[at:].replace(old, new, count)
    return mutate


LAYOUT_BREAKS = {
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "blank line": lambda text: text.replace("\n", "\n\n", 3),
    "trailing blank line": lambda text: text + "\n",
    "bom": lambda text: "\ufeff" + text,
    "no final newline": lambda text: text[:-1],
    "truncated in a row": lambda text: text[: len(text) // 2],
    "row without its end": in_rows(", ", "]\n", ",", "\n", 1),
    "stray ]": in_rows("]", "]]", "\n", "]\n"),
    "stray ,": in_rows(", ", ",, ", ",", ",,"),
    "row on two lines": in_rows(", ", ",\n", ",", "\n,"),
    "indent": in_rows("    [", "   [", "\n", "\n "),
}
# header changes: the block parser declines the first four; the others keep the
# header's lines, so it reads the document and raises the present path's error
JSON_HEADER_BREAKS = {
    "reordered keys": swap_lines(1, 2),
    "duplicate key": lambda text: text.replace('  "n"', '  "n": 3,\n  "n"', 1),
    "intervals first": swap_lines(1, 5),
    "nested header value": lambda text: text.replace('"n": ', '"n": [1, ', 1),
    "wrong header type": lambda text: text.replace('"stage": 5', '"stage": true'),
    "header value out of its domain": lambda text: text.replace('"stage": 5', '"stage": -5'),
    "duplicate key on one line": lambda text: text.replace('"n": 7', '"n": 7, "n": 1.5'),
}
HEADER_ERRORS = ["wrong header type", "header value out of its domain", "duplicate key on one line"]
# fields the block parser declines: separators, signs, capitals, specials, other exponents
DECLINED_FIELDS = [
    "1_0", "+1e-05", "1E-05", "-0", "01", " 1", "1\t", "1 ", "inf", "nan", "NaN", "1e999",
    "1e-0005", "1e-5", "1e+05", "1.", ".5", "1.e-05", "0x1", "1e", "e-05", "", "1..5", "1.5.5",
    "0.1234567890123456789012345",  # 25 fraction digits: past the fraction window
]
# fields of the layout's syntax the block parser reads, float() taking those it cannot prove
TAKEN_FIELDS = [
    "0", "0.5", "5e-324", "1e-400", "0.123456789012345678", "0.1234567890123456789012",
    "9.9999999999999999e-02", "9.99999999999999999e-02", "1.23456789012345678e-05",
    "1.2e-05", "1.5e-100", "0.00010000000000000001",
]
# one row's literals changed, keeping the number of row marks: (format, old, new)
ROW_BREAKS = [
    ("json", "\n    [", "\n    ("), ("json", "\n    [", "\n   x["), ("json", "],\n", "),\n"),
    ("json", "],\n", "5,\n"), ("json", ", ", ",x"), ("json", ", ", " ,"),
    ("csv", ",", " "), ("csv", ",", "\t"), ("csv", ",", "+"), ("csv", "\n", "\r"),
]


def documents():
    """(name, format, text): constructed sets with their params, and paramless ones."""
    return [
        (f"{fmt} {name}", fmt, export_intervals(s, fmt))
        for fmt in ("json", "csv")
        for name, s in (("constructed", constructed(40)), ("paramless", paramless(40)))
    ]


class TestExporterLayoutOnly:
    @pytest.mark.parametrize("name, fmt, text", documents())
    def test_exporter_output_is_read_in_blocks(self, name, fmt, text):
        assert fast(text, fmt) is not None
        same_outcome(text, fmt)

    @pytest.mark.parametrize("mutation", list(LAYOUT_BREAKS))
    @pytest.mark.parametrize("name, fmt, text", documents())
    def test_other_layouts_decline(self, name, fmt, text, mutation):
        text = LAYOUT_BREAKS[mutation](text)
        if text.isascii():
            assert fast(text, fmt) is None
        same_outcome(text, fmt)

    @pytest.mark.parametrize("mutation", list(JSON_HEADER_BREAKS))
    def test_json_headers_decline_or_fail_as_the_present_path(self, mutation):
        text = JSON_HEADER_BREAKS[mutation](export_intervals(constructed(40), "json"))
        if mutation in HEADER_ERRORS:
            with pytest.raises((ParseError, InvariantError)):
                fast(text, "json")
        else:
            assert fast(text, "json") is None
        same_outcome(text, "json")

    @pytest.mark.parametrize("literal", DECLINED_FIELDS)
    @pytest.mark.parametrize("row, col", [(0, 0), (3, 1), (39, 1)])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_fields_outside_the_syntax_decline(self, fmt, row, col, literal):
        text = mutate_field(export_intervals(paramless(40), fmt), fmt, literal, row, col)
        assert fast(text, fmt) is None
        same_outcome(text, fmt)

    @pytest.mark.parametrize("literal", TAKEN_FIELDS)
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_fields_of_the_syntax_are_read(self, fmt, literal):
        text = mutate_field(export_intervals(IntervalSet([0.5], [1.0]), fmt), fmt, literal, 0, 0)
        assert fast(text, fmt) is not None
        assert import_intervals(text, fmt).starts.tolist() == [float(literal)]
        same_outcome(text, fmt)

    @pytest.mark.parametrize("fmt, old, new", ROW_BREAKS)
    def test_row_literals_out_of_place_decline(self, fmt, old, new):
        text = export_intervals(paramless(40), fmt)
        at = text.index(old, text.index("\n", 40))  # in a row, past the header
        text = text[:at] + new + text[at + len(old):]
        assert fast(text, fmt) is None
        same_outcome(text, fmt)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_empty_sets_decline(self, fmt):
        text = export_intervals(IntervalSet(np.array([]), np.array([])), fmt)
        assert fast(text, fmt) is None
        same_outcome(text, fmt)

    def test_a_bad_field_in_the_last_block(self):
        text = export_intervals(constructed(_BLOCK + 10), "csv")
        lines = text.split("\n")
        lines[-3] = lines[-3].replace(",", ",+")
        text = "\n".join(lines)
        assert fast(text, "csv") is None
        same_outcome(text, "csv")


# what an edit writes: bytes of the layouts and others, alone and as lines, which a span
# may end with
FRAGMENTS = ["", "9", "\n", ",", " ", "]", "e", "x", "9\n", "x]\n", "1,2\n", ",\n", "\n\n",
             "    [0, 1],\n"]
SPAN_DOCS = {fmt: export_intervals(paramless(12, seed=3), fmt) for fmt in ("json", "csv")}


class TestSpans:
    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_edited_documents_decline_or_read_as_the_present_path(self, data):
        # a few bytes replaced (inserted, deleted or substituted), read on one CPU in
        # spans of a few rows, of one row or less, or with a cut right after the edit:
        # the block parser declines or gives the present path's values, params or error
        fmt = data.draw(st.sampled_from(["json", "csv"]), label="format")
        text = SPAN_DOCS[fmt]
        line_starts = [i + 1 for i, c in enumerate(text) if c == "\n"]
        at = data.draw(st.sampled_from(line_starts) | st.integers(0, len(text)), label="at")
        removed = data.draw(st.sampled_from([0, 1, 3]), label="bytes removed")
        new = data.draw(st.sampled_from(FRAGMENTS), label="bytes written")
        text = text[:at] + new + text[at + removed:]
        rows = text.index("[\n") + 2 if fmt == "json" else text.index("\n") + 1
        # the rows' size bytes go into count = ceil(size / scan) spans, and cut i is the
        # first line end at or after rows + size * i // count - 1: aim some cut's search
        # from the edited row's start to the end of the bytes written
        size = len(text) - len(serialize._LAYOUTS[fmt].tail) - rows
        row_start = text.rfind("\n", 0, at) + 1
        right_after = []
        for count in range(2, size + 1):
            scan = -(-size // count)
            i = max(1, -(-(row_start + 1 - rows) * count // size))  # the first cut from there
            if (-(-size // scan) == count and i < count
                    and rows + size * i // count - 1 <= at + len(new)):
                right_after.append(scan)
        scan = data.draw(st.sampled_from([16, 64, 333, *right_after]), label="span bytes")
        with (mock.patch.object(serialize, "_SCAN", scan),
              mock.patch.object(serialize, "_cpus", lambda: 1)):
            block = outcome(fast, text, fmt)
            assert block is None or block == outcome(present, text, fmt)
            same_outcome(text, fmt)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_a_span_of_the_shortest_rows_is_read(self, fmt):
        # rows of two one-digit fields hold the most marks per byte that a span
        # admits: counting the marks before reading them must not decline such a span
        layout = serialize._LAYOUTS[fmt]
        pairs = [(i % 9, i % 9 + 1) for i in range(1000)]
        data = layout.sep.join(f"{layout.before}{a}{layout.mid}{b}{layout.after}"
                               for a, b in pairs) + layout.tail
        stop = len(data) - len(layout.tail)
        scratch = np.zeros(2 * (stop + len(layout.sep) + serialize._PAD), np.uint8)
        values = serialize._read_span(data, 0, stop, layout, scratch)
        assert values is not None and values.tolist() == [float(v) for pair in pairs for v in pair]

    @pytest.mark.parametrize("new", ["   x[", "    (", "[    ", "\t   [", "    ]"])
    def test_a_broken_before_on_the_first_row_of_a_span_declines(self, new):
        # the literal after a row's last field runs on to the next row's first field, so
        # it checks each row's "    [" but that of a span's first row, checked on its own
        text = SPAN_DOCS["json"]
        rows = text.index("[\n") + 2
        stop = len(text) - len(serialize._LAYOUTS["json"].tail)
        at = text.find("\n", rows + (stop - rows) // 2 - 1) + 1  # where the middle cut lands
        text = text[:at] + new + text[at + len(new):]
        starts = []

        def read_span(data, lo, *args):
            starts.append(lo)
            return serialize._read_span.__wrapped__(data, lo, *args)

        read_span.__wrapped__ = serialize._read_span
        with (mock.patch.object(serialize, "_SCAN", -(-(stop - rows) // 2)),
              mock.patch.object(serialize, "_cpus", lambda: 1),
              mock.patch.object(serialize, "_read_span", read_span)):
            assert fast(text, "json") is None
            assert starts == [rows, at]  # two spans, the second from the broken row
            same_outcome(text, "json")

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("fmt, old, new", [
        ("json", "]\n  ]\n}\n", ")\n  ]\n}\n"), ("json", "]\n  ]\n}\n", "] \n  ]\n}\n"),
        ("json", "]\n  ]\n}\n", "],\n  ]\n}\n"), ("json", "]\n  ]\n}\n", "]\n  ]}\n"),
        ("json", "]\n  ]\n}\n", "]\n  ]\n}\n\n"), ("json", "]\n  ]\n}\n", "]\n   ]\n}\n"),
        ("csv", "\n", " \n"), ("csv", "\n", ",\n"), ("csv", "\n", "\n\n"), ("csv", "\n", "]\n"),
    ])
    def test_a_broken_end_or_tail_after_the_last_row_declines(self, fmt, old, new, cpus):
        # the last row's literal after its last field takes a before written past the span
        text = SPAN_DOCS[fmt]
        text = text[:len(text) - len(old)] + new
        with (mock.patch.object(serialize, "_SCAN", 64),
              mock.patch.object(serialize, "_cpus", lambda: cpus)):
            assert fast(text, fmt) is None
            same_outcome(text, fmt)


def with_exponents(m, share, seed=5):
    """m intervals whose first ``share`` of values lie below 1e-4, so are written with exponents."""
    rng = np.random.default_rng(seed)
    k = round(2 * m * share)
    x = np.unique(np.concatenate([10 ** rng.uniform(-9, -5, k), rng.uniform(1e-3, 1, 2 * m - k)]))
    assert len(x) == 2 * m
    return IntervalSet(x[0::2], x[1::2])


class TestExponentFields:
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_spans_of_every_exponent_mix_take_the_block_parser(self, cpus):
        # a span reads a minority of exponent fields apart and a majority with all its
        # fields at their mantissa end: spans of none, a minority, a majority and only
        # exponent fields read as float() does. One CPU reads each document in one span,
        # two CPUs in two, which hold the exponent fields of the first 2/5 and 4/5 of
        # the values in a minority and a majority.
        mixes = set()

        def read_block(buf, s, t, window):
            exponents = sum(b"e" in buf[a:b].tobytes() for a, b in zip(s, t))
            mixes.add("none" if not exponents else "all" if exponents == len(t)
                      else "minority" if 2 * exponents < len(t) else "majority")
            return read_block.__wrapped__(buf, s, t, window)

        read_block.__wrapped__ = serialize._read_block
        for share in (0, 0.2, 0.8, 1):
            s = with_exponents(500, share)
            for fmt in ("json", "csv"):
                text = export_intervals(s, fmt)
                with (mock.patch.object(serialize, "_SCAN", len(text) // cpus + 1),
                      mock.patch.object(serialize, "_cpus", lambda: cpus),
                      mock.patch.object(serialize, "_read_block", read_block)):
                    assert fast(text, fmt) is not None
                    assert same_bits(import_intervals(text, fmt), s)
                    assert same_bits(import_intervals(text.encode(), fmt), s)
        assert mixes == {"none", "minority", "majority", "all"}


def roundtrip(values):
    """Export and import a paramless set of the distinct values in [0, 1], bit-identically."""
    x = np.unique(np.abs(np.asarray(values, dtype=np.float64)))  # abs: -0.0 as 0.0
    x = x[np.isfinite(x) & (x <= 1.0)]
    x = x[: len(x) // 2 * 2]
    s = IntervalSet(x[0::2], x[1::2])
    for fmt in ("json", "csv"):
        text = export_intervals(s, fmt)
        assert (fast(text, fmt) is not None) == (len(s) > 0)  # an empty set declines
        assert same_bits(import_intervals(text, fmt), s)
        assert same_bits(import_intervals(text.encode(), fmt), s)


def powers_of_two():
    """2**-k and the floats one ulp either side, for every k with 2**-k in (0, 1)."""
    return [v for k in range(1, 1075) for v in neighbours(2.0**-k, 1)]


class TestBlockConversion:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=2, max_size=64))
    def test_random_bit_patterns(self, bits):
        roundtrip(np.array(bits, dtype=np.uint64).view(np.float64))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.floats(1e-300, 1.0), min_size=2, max_size=64))
    def test_random_values_in_the_unit_interval(self, values):
        roundtrip(values)

    def test_powers_of_two_and_their_neighbours(self):
        roundtrip(powers_of_two())

    def test_exact_decimal_ties(self):
        roundtrip([0.0, *TIES, 1.0])

    def test_values_at_and_below_the_table(self):
        rng = np.random.default_rng(8)
        values = [*neighbours(1e-276, 3), *neighbours(1e-280, 3), *neighbours(2.5e-308), 5e-324]
        roundtrip(values + (10.0 ** rng.uniform(-323, -270, 500)).tolist())

    def test_a_set_where_every_entry_takes_float(self, monkeypatch):
        monkeypatch.setattr(serialize, "_GUARD", 1.0)  # every residual is within an ulp
        roundtrip(powers_of_two())
        s = constructed(_BLOCK + 1)
        for fmt in ("json", "csv"):
            back = import_intervals(export_intervals(s, fmt), fmt)
            assert same_bits(back, s)

    def test_exporter_output_takes_the_block_parser(self, monkeypatch):
        def refuse(text):
            raise AssertionError("an exporter document went to the per-document path")

        monkeypatch.setattr(serialize, "_parse_json", refuse)
        monkeypatch.setattr(serialize, "_parse_csv", refuse)
        for s in (constructed(_BLOCK + 1), paramless(_BLOCK + 1)):
            for fmt in ("json", "csv"):
                back = import_intervals(export_intervals(s, fmt), fmt)
                assert same_bits(back, s)
                assert back.params == (s.params if fmt == "json" else None)

    def test_the_table_holds_every_power_of_ten_within_its_bound(self):
        # export reads 10**p (p >= 0) within 2**-106, import 10**-m within 2**-104, and
        # Dekker's two-product takes hi as the exact sum of two halves of 26 bits each
        from fractions import Fraction

        def significant_bits(v):
            a = abs(v.as_integer_ratio()[0])
            return (a // (a & -a)).bit_length() if a else 0

        table = serialize._TEN
        assert table.shape == (4, serialize._M_MAX + serialize._P_MAX + 1)
        for column, (hi, hi_h, hi_l, lo) in enumerate(table.T.tolist()):
            q = column - serialize._M_MAX
            err = Fraction(10) ** q - Fraction(hi) - Fraction(lo)
            assert abs(err) <= Fraction(hi) / 2 ** (106 if q >= 0 else 104), q
            assert hi_h + hi_l == hi, q
            assert significant_bits(hi_h) <= 26 and significant_bits(hi_l) <= 26, q
        # one past the table lo has lost bits to underflow
        nxt = 1 / 10 ** (serialize._M_MAX + 1)
        a, b = nxt.as_integer_ratio()
        err = Fraction(1, 10 ** (serialize._M_MAX + 1)) - Fraction(nxt) - Fraction(
            (b - a * 10 ** (serialize._M_MAX + 1)) / (b * 10 ** (serialize._M_MAX + 1)))
        assert abs(err) > Fraction(nxt) / 2**104

    def test_the_guard_measures_the_spacing_below_a_power_of_two(self, monkeypatch):
        # 0.49999999999999998 rounds up to 0.5, 0.07 ulp(0.5) above the midpoint below
        # it, which lies a quarter ulp down; 0.50000000000000001 lies 0.41 ulp from the
        # midpoint above. A guard 0.1 ulp wide flags the first alone: one that put the
        # midpoint below half an ulp down would see it 0.32 ulp away and pass it.
        taken = []

        def traced(text):
            taken.append(text)
            return float(text)

        monkeypatch.setattr(serialize, "_GUARD", 0.1)
        monkeypatch.setattr(serialize, "float", traced, raising=False)
        below = import_intervals("start,end\n0.49999999999999998,0.75\n", "csv")
        above = import_intervals("start,end\n0.25,0.50000000000000001\n", "csv")
        assert below.starts[0] == above.ends[0] == 0.5
        assert taken == [b"0.49999999999999998"]
