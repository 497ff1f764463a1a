"""Block formatting and bulk-checked parsing against the per-value reference.

``serialize.format_rows`` writes up to ``_BLOCK`` rows per ``str % tuple``;
these tests pin its bytes to the seed's one-``format()``-per-value loops in
``reference_text.py`` at and around the block boundaries, and pin the bulk
import checks to the seed's per-row checks, messages and line numbers.
"""

import json

import numpy as np
import pytest
import reference_text as ref

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
from cantordim._kernels_py import BLOCK as KERNEL_BLOCK
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


def test_block_is_the_kernel_block():
    assert _BLOCK == KERNEL_BLOCK == 16384


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

    @pytest.mark.parametrize("m", SIZES)
    def test_blocks_hold_at_most_block_rows(self, m):
        column = np.arange(m, dtype=np.float64)
        blocks = format_rows("%.17g", "\n", column)
        assert [b.count("\n") + 1 for b in blocks] == [
            min(_BLOCK, m - i) for i in range(0, m, _BLOCK)
        ]
        same_text("\n".join(blocks), "\n".join(ref.f17(v) for v in column))


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
