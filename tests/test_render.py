"""SVG stage rendering and operator grid sheets."""

import math

import numpy as np
import pytest

from cantordim import (
    OPERATORS,
    CantorParams,
    CapExceeded,
    DomainError,
    OpDomainError,
    emit_operator_grid,
    render_stages_svg,
)
from cantordim.geometry import DEFAULT_CAP

#: the largest resolution whose R*R cells stay within DEFAULT_CAP
MAX_RESOLUTION = math.isqrt(DEFAULT_CAP)


class TestStageSvg:
    def test_single_full_bar_at_stage_zero(self):
        svg = render_stages_svg(CantorParams(5, 0.1, 0.125, 0), 0)
        assert svg.startswith('<?xml version="1.0"')
        # background plus exactly one interval rectangle
        assert svg.count("<rect") == 2
        assert "S = 0" in svg

    def test_pentadic_figure(self):
        svg = render_stages_svg(CantorParams(5, 0.1, 0.05, 2), 2)
        # 1 background + 1 + 5 + 25 interval bars over stages 0..2
        assert svg.count("<rect") == 32
        assert "&#947;" in svg  # gamma bracket on the stage-1 row
        assert "&#949;" in svg  # epsilon bracket on the outermost gap

    def test_no_epsilon_annotation_when_it_plays_no_role(self):
        svg = render_stages_svg(CantorParams(2, 1 / 3, 0.0, 2), 2)
        assert "&#947;" in svg
        assert "&#949;" not in svg

    def test_byte_deterministic(self):
        a = render_stages_svg(CantorParams(6, 0.12, 0.02, 2), 2)
        b = render_stages_svg(CantorParams(6, 0.12, 0.02, 2), 2)
        assert a.encode("utf-8") == b.encode("utf-8")

    def test_rejects_negative_stage(self):
        with pytest.raises(DomainError):
            render_stages_svg(CantorParams(2, 1 / 3, 0.0, 1), -1)

    @pytest.mark.parametrize("max_stage", [True, 2.0, "2"])
    def test_stage_must_be_an_integer(self, max_stage):
        with pytest.raises(DomainError):
            render_stages_svg(CantorParams(2, 1 / 3, 0.0, 1), max_stage)


class TestOperatorGrid:
    def test_add_values_match_formula(self):
        sheet, _ = emit_operator_grid("add", 16, 2)
        c = sheet.centers
        expected = c[:, None] * c[None, :] / (c[:, None] + c[None, :])
        assert np.array_equal(sheet.values, expected)

    def test_add_at_half(self):
        sheet, _ = emit_operator_grid("add", 5, 2)  # odd resolution hits 0.5
        i = list(sheet.centers).index(0.5)
        assert sheet.values[i, i] == pytest.approx(0.25, abs=1e-12)

    def test_sub_mask_matches_predicate(self):
        sheet, _ = emit_operator_grid("sub", 32, 2)
        for i, da in enumerate(sheet.centers):
            for j, db in enumerate(sheet.centers):
                defined = da < db / (1.0 + db)
                assert math.isnan(sheet.values[i, j]) != defined

    @pytest.mark.parametrize("op", ["sub", "div"])
    def test_cells_near_the_domain_boundary_equal_the_scalar_operator(self, op):
        sheet, _ = emit_operator_grid(op, 1000, 2)
        c = sheet.centers
        # distance of each cell from the boundary da = db/(1+db) or da = db
        edge = c / (1.0 + c) if op == "sub" else c
        near = np.argwhere(np.abs(c[:, None] - edge[None, :]) <= 1e-3)
        assert len(near) > 1000
        for i, j in near:
            value = sheet.values[i, j]
            try:
                expected = OPERATORS[op](c[i], c[j], 2).d
            except OpDomainError:
                assert math.isnan(value), (c[i], c[j])
            else:
                assert value == expected, (c[i], c[j])

    def test_div_diagonal_is_defined(self):
        sheet, _ = emit_operator_grid("div", 8, 2)
        assert (np.diag(sheet.values) == 1.0).all()
        assert math.isnan(sheet.values[3, 1])  # da > db cell

    def test_csv_stream_layout(self):
        _, csv_text = emit_operator_grid("sub", 4, 2)
        lines = csv_text.splitlines()
        assert lines[0] == "da,db,dc"
        assert len(lines) == 17
        assert lines[1] == "0.125,0.125,nan"
        # row-major: da varies slowest
        first_col = [line.split(",")[0] for line in lines[1:]]
        assert first_col == sorted(first_col)

    def test_csv_values_round_trip(self):
        sheet, csv_text = emit_operator_grid("mul", 8, 3)
        rows = [line.split(",") for line in csv_text.splitlines()[1:]]
        parsed = np.array([float(r[2]) for r in rows]).reshape(8, 8)
        assert np.array_equal(parsed, sheet.values)

    def test_deterministic(self):
        a = emit_operator_grid("div", 16, 5)[1]
        b = emit_operator_grid("div", 16, 5)[1]
        assert a == b

    @pytest.mark.parametrize("op", sorted(OPERATORS))
    def test_sheet_does_not_depend_on_the_arity(self, op):
        # n is only checked: the dimension algebra is the same at every arity
        texts = {emit_operator_grid(op, 24, n)[1] for n in (2, 7, 2**53)}
        assert len(texts) == 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            emit_operator_grid("pow", 8, 2)
        with pytest.raises(DomainError):
            emit_operator_grid("add", 1, 2)


class TestGridResolutionCap:
    @pytest.mark.parametrize("res", [True, 8.0, "8"])
    def test_resolution_must_be_an_integer(self, res):
        with pytest.raises(DomainError):
            emit_operator_grid("add", res, 2)

    def test_numpy_integer_resolution_is_accepted(self):
        assert emit_operator_grid("add", np.int64(4), 2)[1] == emit_operator_grid("add", 4, 2)[1]

    def test_over_the_cap_raises(self):
        with pytest.raises(CapExceeded):
            emit_operator_grid("add", MAX_RESOLUTION + 1, 2)

    def test_largest_allowed_resolution_passes_the_checks(self, monkeypatch):
        # stop at the first allocation, after every check, so no grid is built
        class Built(Exception):
            pass

        def stop(*args, **kwargs):
            raise Built

        monkeypatch.setattr(np, "arange", stop)
        with pytest.raises(Built):
            emit_operator_grid("add", MAX_RESOLUTION, 2)
