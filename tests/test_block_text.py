"""Block formatting and bulk-checked parsing against the per-value reference.

``serialize.format_rows`` writes up to ``_BLOCK`` rows per character matrix,
each float by the numpy formatter ``put_f17``; these tests pin its bytes to
the seed's one-``format()``-per-value loops in ``reference_text.py``: on
random bit patterns, at powers of ten, on decimal ties and special values,
at and around the block boundaries, and where whole blocks take the
fallback. They also pin the bulk import checks to the seed's per-row checks,
messages and line numbers.
"""

import json

import numpy as np
import pytest
import reference_text as ref
from hypothesis import given, settings
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
