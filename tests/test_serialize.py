"""JSON/CSV round trips and malformed-document handling."""

import json
import sys

import numpy as np
import pytest

from cantordim import (
    CantorParams,
    InvariantError,
    IntervalSet,
    ParseError,
    construct_prefractal,
    export_intervals,
    import_intervals,
    lacunarity_bounds,
)


def triadic(stage):
    return construct_prefractal(CantorParams(2, 1 / 3, 0.0, stage))


class TestExport:
    def test_stage_zero_json(self):
        doc = export_intervals(triadic(0))
        assert '"n": 2' in doc and '"stage": 0' in doc
        assert "[0, 1]" in doc

    def test_csv_layout(self):
        doc = export_intervals(triadic(1), "csv")
        lines = doc.splitlines()
        assert lines[0] == "start,end"
        assert lines[1] == f"0,{format(1 / 3, '.17g')}"
        assert lines[2] == f"{format(1 - 1 / 3, '.17g')},1"

    def test_seventeen_digit_floats(self):
        doc = export_intervals(triadic(1))
        assert "0.33333333333333331" in doc

    def test_paramless_set_exports_nulls(self):
        bare = IntervalSet(np.array([0.25]), np.array([0.5]))
        doc = export_intervals(bare)
        assert '"n": null' in doc
        back = import_intervals(doc)
        assert back.params is None

    def test_rejects_unknown_format(self):
        with pytest.raises(Exception):
            export_intervals(triadic(0), "xml")


class TestRoundTrip:
    @pytest.mark.parametrize("format", ["json", "csv"])
    def test_bit_identical(self, format, rng):
        for _ in range(25):
            n = int(rng.integers(2, 8))
            gamma = float(rng.uniform(0.03, 1.0 / n - 1e-3))
            eps = (
                float(rng.uniform(0, 1)) * lacunarity_bounds(n, gamma).eps_max
                if n >= 4
                else 0.0
            )
            stage = int(rng.integers(0, 5))
            s = construct_prefractal(CantorParams(n, gamma, eps, stage))
            back = import_intervals(export_intervals(s, format), format)
            assert np.array_equal(back.starts, s.starts)
            assert np.array_equal(back.ends, s.ends)

    def test_json_restores_params(self):
        s = construct_prefractal(CantorParams(5, 0.1, 0.125, 3))
        back = import_intervals(export_intervals(s))
        assert back.params == s.params

    def test_bytes_input_accepted(self):
        s = triadic(2)
        back = import_intervals(export_intervals(s).encode("utf-8"))
        assert np.array_equal(back.starts, s.starts)


class TestImportErrors:
    def test_truncated_json(self):
        doc = export_intervals(triadic(2))
        with pytest.raises(ParseError):
            import_intervals(doc[: len(doc) // 2])

    def test_truncated_csv_row(self):
        with pytest.raises(ParseError) as err:
            import_intervals("start,end\n0,0.2\n0.4\n", "csv")
        assert "line 3" in str(err.value)

    def test_csv_bad_header(self):
        with pytest.raises(ParseError):
            import_intervals("a,b\n0,1\n", "csv")

    def test_csv_non_numeric(self):
        with pytest.raises(ParseError):
            import_intervals("start,end\n0,x\n", "csv")

    def test_overlapping_rows(self):
        with pytest.raises(InvariantError):
            import_intervals("start,end\n0,0.5\n0.4,0.9\n", "csv")

    def test_unsorted_rows(self):
        with pytest.raises(InvariantError):
            import_intervals("start,end\n0.5,0.6\n0,0.1\n", "csv")

    @pytest.mark.parametrize("format", ["json", "csv"])
    def test_nested_rows(self, format):
        # the second row lies inside the first, within OVERLAP_TOL of its end
        rows = [[0.1, 0.3], [0.2999999999995, 0.29999999999975], [0.6, 0.7]]
        doc = (json.dumps({"intervals": rows}) if format == "json"
               else "start,end\n" + "".join(f"{s!r},{e!r}\n" for s, e in rows))
        with pytest.raises(InvariantError, match="sorted by start and by end"):
            import_intervals(doc, format)

    def test_out_of_unit_range(self):
        with pytest.raises(InvariantError):
            import_intervals("start,end\n0.5,1.2\n", "csv")

    def test_invalid_params_in_json(self):
        doc = '{"n": 4, "gamma": 0.5, "epsilon": 0, "stage": 1, "intervals": [[0, 0.5]]}'
        with pytest.raises(InvariantError):
            import_intervals(doc)

    def test_malformed_intervals_field(self):
        with pytest.raises(ParseError):
            import_intervals('{"intervals": [[0, 0.5, 1]]}')

    @pytest.mark.parametrize("format", ["json", "csv"])
    @pytest.mark.parametrize("data", [b"\xff", b"start,end\n0,0.5\n\xe9\n", b'{"intervals": \xc3'])
    def test_undecodable_bytes(self, data, format):
        with pytest.raises(ParseError, match=r"not UTF-8.*\(byte \d+\)"):
            import_intervals(data, format)

    @pytest.mark.parametrize("row", ["[false, true]", "[0, true]", "[false, 0.5]"])
    def test_boolean_coordinates(self, row):
        with pytest.raises(ParseError):
            import_intervals(f'{{"intervals": [{row}]}}')


class TestHostileJson:
    """Documents on which the JSON decoder raises other errors than a syntax error."""

    DEEP = "[" * 100_000 + "]" * 100_000
    INT_DIGITS = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit

    @pytest.mark.parametrize("doc", [
        '{{"ignored": {}, "intervals": []}}', '{{"intervals": {}}}', '{{"n": {}, "intervals": []}}',
    ], ids=["ignored", "intervals", "n"])
    def test_nesting_past_the_recursion_limit(self, doc):
        with pytest.raises(ParseError, match="^invalid JSON: "):
            import_intervals(doc.format(self.DEEP))

    @pytest.mark.skipif(INT_DIGITS == 0, reason="integer strings have no digit limit")
    @pytest.mark.parametrize("doc", ['{{"intervals": [[0, {}]]}}', '{{"n": {}, "intervals": []}}'],
                             ids=["coordinate", "n"])
    def test_integer_past_the_digit_limit(self, doc):
        digits = "1" * (self.INT_DIGITS + 1)
        with pytest.raises(ParseError, match="^invalid JSON: "):
            import_intervals(doc.format(digits))

    @pytest.mark.skipif(INT_DIGITS == 0, reason="integer strings have no digit limit")
    def test_integer_at_the_digit_limit_is_read(self):
        # a coordinate of INT_DIGITS digits loads; it lies beyond binary64
        with pytest.raises(InvariantError, match="must be finite"):
            import_intervals('{"intervals": [[0, %s]]}' % ("1" * self.INT_DIGITS))


class TestJsonHeaderTypes:
    """n and stage must be JSON integers, gamma and epsilon JSON numbers, none bool."""

    @staticmethod
    def doc(**fields):
        header = {"n": 2, "gamma": 0.3, "epsilon": 0, "stage": 1, **fields}
        return json.dumps({**header, "intervals": [[0, 0.3], [0.7, 1]]})

    def test_gamma_list_is_a_parse_error(self):
        with pytest.raises(ParseError, match=r"'gamma' must be a number or null, got \[1\]"):
            import_intervals(self.doc(gamma=[1]))

    def test_gamma_string_is_a_parse_error(self):
        with pytest.raises(ParseError, match="'gamma' must be a number or null, got \"0.3\""):
            import_intervals(self.doc(gamma="0.3"))

    def test_epsilon_false_is_a_parse_error(self):
        with pytest.raises(ParseError, match="'epsilon' must be a number or null, got false"):
            import_intervals(self.doc(epsilon=False))

    @pytest.mark.parametrize("key, value", [("n", 2.0), ("n", True), ("stage", "1"), ("stage", 1.0)])
    def test_n_and_stage_must_be_integers(self, key, value):
        with pytest.raises(ParseError, match=f"'{key}' must be an integer or null"):
            import_intervals(self.doc(**{key: value}))

    def test_a_field_is_checked_without_the_others(self):
        with pytest.raises(ParseError, match="'n' must be an integer or null"):
            import_intervals('{"n": "2", "intervals": []}')

    def test_integer_gamma_and_epsilon_are_numbers(self):
        back = import_intervals(self.doc(gamma=0.3, epsilon=0))
        assert back.params == CantorParams(2, 0.3, 0.0, 1)

    def test_params_need_all_four_fields(self):
        assert import_intervals(self.doc(stage=None)).params is None

    def test_gamma_beyond_binary64_is_an_invariant_error(self):
        with pytest.raises(InvariantError, match="invalid construction parameters"):
            import_intervals(self.doc(gamma=10**400))
