"""Box counting and the dimension estimator, including operator verification."""

import numpy as np
import pytest

from cantordim import (
    CantorParams,
    DomainError,
    FitDegenerate,
    IntervalSet,
    OpDomainError,
    box_count,
    check_gamma_consistency,
    construct_prefractal,
    emit_operator_grid,
    estimate_dimension,
    regular_epsilon,
    scale_ladder,
    verify_operator_geometrically,
)
from cantordim import arith, estimation

LN2_LN3 = 0.6309297535714574
LN5_LN10 = 0.6989700043360189


def triadic(stage):
    return construct_prefractal(CantorParams(2, 1 / 3, 0.0, stage))


class TestBoxCount:
    def test_full_segment_occupies_all_cells(self):
        assert box_count(triadic(0), 0.25) == 4

    def test_hand_count_on_aligned_grid(self):
        assert box_count(triadic(1), 1 / 3) == 2

    def test_empty_set(self):
        empty = IntervalSet(np.array([]), np.array([]))
        assert box_count(empty, 0.5) == 0

    def test_aligned_exactness_triadic(self):
        # grid gamma**k aligns with the copies: exactly N**k cells for k <= 3
        s = triadic(6)
        for k in (1, 2, 3):
            assert box_count(s, (1 / 3) ** k) == 2**k

    def test_touching_cell_not_counted(self):
        # [0, 1/3] only touches the cell starting at 1/3
        one = IntervalSet(np.array([0.0]), np.array([1 / 3]))
        assert box_count(one, 1 / 3) == 1

    @pytest.mark.parametrize("delta", [0.0, -0.5, 1.5, 1e-16])
    def test_rejects_bad_delta(self, delta):
        with pytest.raises(DomainError):
            box_count(triadic(1), delta)

    def test_matches_brute_force_enumeration(self, rng):
        # independent oracle: test every candidate cell against the overlap
        # rule directly instead of deriving index ranges
        from cantordim.estimation import SNAP_ETA

        def brute(starts, ends, delta):
            snap = SNAP_ETA * delta
            occupied = set()
            for a, b in zip(starts, ends):
                k0 = int(np.floor(a / delta)) - 2
                k1 = int(np.floor(b / delta)) + 2
                cells = [
                    k
                    for k in range(k0, k1 + 1)
                    if min(b, (k + 1) * delta) - max(a, k * delta) > snap
                ]
                if not cells:  # thinner than the snap band: midpoint cell
                    cells = [int(np.floor(((a + b) * 0.5) / delta))]
                occupied.update(cells)
            return len(occupied)

        for _ in range(150):
            m = int(rng.integers(1, 40))
            cuts = np.sort(rng.uniform(0.0, 1.0, size=2 * m))
            starts, ends = cuts[0::2], cuts[1::2]
            keep = ends - starts > 1e-9
            if not keep.any():
                continue
            s = IntervalSet(starts[keep], ends[keep])
            for delta in rng.uniform(0.005, 0.9, size=4):
                assert box_count(s, float(delta)) == brute(s.starts, s.ends, float(delta))

    def test_monotone_on_nested_grids(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 7))
            gamma = float(rng.uniform(0.05, 1.0 / n - 0.01))
            s = construct_prefractal(CantorParams(n, gamma, 0.0, 4))
            base = float(rng.uniform(0.05, 0.6))
            counts = [box_count(s, base), box_count(s, base / 2), box_count(s, base / 4)]
            assert counts[0] <= counts[1] <= counts[2]


class TestEstimate:
    def test_triadic_default_ladder(self):
        est = estimate_dimension(triadic(6))
        assert abs(est.d_hat - LN2_LN3) <= 0.02
        assert len(est.samples) == 6

    def test_pentadic_regular(self):
        s = construct_prefractal(CantorParams(5, 0.1, 0.125, 5))
        est = estimate_dimension(s)
        assert abs(est.d_hat - LN5_LN10) <= 0.035

    def test_full_segment_is_one_dimensional(self):
        est = estimate_dimension(triadic(0), deltas=[2.0**-k for k in range(1, 9)])
        assert est.d_hat == pytest.approx(1.0, abs=0.01)

    def test_estimate_stays_in_band(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            d = float(rng.uniform(0.3, 0.95))
            gamma = n ** (-1.0 / d)
            s = construct_prefractal(CantorParams(n, gamma, 0.0, 5))
            est = estimate_dimension(s)
            assert 0.0 <= est.d_hat <= 1.05

    def test_requires_three_distinct_deltas(self):
        with pytest.raises(DomainError):
            estimate_dimension(triadic(4), deltas=[0.5, 0.5, 0.5])
        with pytest.raises(DomainError):
            estimate_dimension(triadic(2))  # default ladder too short

    def test_requires_params_without_deltas(self):
        bare = IntervalSet(np.array([0.0]), np.array([0.5]))
        with pytest.raises(DomainError):
            estimate_dimension(bare)

    def test_degenerate_fit(self):
        one = IntervalSet(np.array([0.4]), np.array([0.45]))
        with pytest.raises(FitDegenerate):
            estimate_dimension(one, deltas=[0.5, 0.25, 0.125])

    def test_stderr_zero_for_exact_scaling(self):
        est = estimate_dimension(triadic(6))
        assert est.stderr == pytest.approx(0.0, abs=1e-12)

    def test_counts_one_size_per_box_count_call(self, monkeypatch):
        # estimate_dimension counts through the public box_count, one call per size
        calls = []
        counted = estimation.box_count
        monkeypatch.setattr(estimation, "box_count", lambda s, d: calls.append(d) or counted(s, d))
        deltas = [0.5, 0.1, 0.3, 0.1, 0.02]
        estimate = estimate_dimension(triadic(5), deltas)
        assert calls == deltas
        assert [s.count for s in estimate.samples] == [counted(triadic(5), d) for d in deltas]


class TestScaleLadder:
    def test_natural_ladder(self):
        assert scale_ladder(0.5, 3) == [0.5, 0.25, 0.125]

    def test_per_level_refinement(self):
        ladder = scale_ladder(0.25, 2, per_level=2)
        assert ladder == pytest.approx([0.25, 0.125, 0.0625])

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            scale_ladder(1.5, 3)
        with pytest.raises(DomainError):
            scale_ladder(0.5, 0)


class TestVerifyOperator:
    def test_mul_example(self):
        report = verify_operator_geometrically("mul", 0.5, 0.5, 2, stage=6, tolerance=0.05)
        assert report.status == "pass"
        assert report.d_c == 0.25
        assert report.gamma_c == pytest.approx(0.0625, abs=1e-12)

    def test_add_of_units(self):
        report = verify_operator_geometrically("add", 1.0, 1.0, 3, stage=5, tolerance=0.05)
        assert report.status == "pass"
        assert report.d_c == 0.5
        assert report.gamma_c == pytest.approx(1 / 9, abs=1e-12)

    def test_domain_errors_propagate(self):
        with pytest.raises(OpDomainError):
            verify_operator_geometrically("sub", 0.4, 0.5, 2, stage=5, tolerance=0.05)

    def test_underflow_reported_unverifiable(self):
        report = verify_operator_geometrically("mul", 0.05, 0.05, 8, stage=5, tolerance=0.05)
        assert report.status == "unverifiable"
        assert "underflow" in report.reason

    def test_degenerate_unit_result_unverifiable(self):
        report = verify_operator_geometrically("div", 0.5, 0.5, 2, stage=5, tolerance=0.05)
        assert report.status == "unverifiable"

    def test_report_renders(self):
        report = verify_operator_geometrically("mul", 0.5, 0.5, 2, stage=6, tolerance=0.05)
        text = str(report)
        assert "PASS" in text and "gamma_C" in text

    @pytest.mark.parametrize(
        "op, d_a, d_b, n, stage",
        [("mul", 0.5, 0.5, 2, 6), ("add", 0.9, 0.95, 3, 5), ("sub", 0.3, 0.9, 4, 4),
         ("div", 0.4, 0.8, 5, 4), ("mul", 0.8, 0.8, 2, 10)],
    )
    def test_report_keeps_the_fit_of_estimate_dimension(self, op, d_a, d_b, n, stage):
        # the ladder counted in one kernel call fits to the same bits as
        # estimate_dimension's count of one size at a time
        report = verify_operator_geometrically(op, d_a, d_b, n, stage)
        gamma = arith.OPERATORS[op](d_a, d_b, n).gamma
        params = CantorParams(n, gamma, regular_epsilon(n, gamma), stage)
        ladder = scale_ladder(gamma, stage, per_level=16, start_level=2)
        want = estimate_dimension(construct_prefractal(params), ladder)
        assert report.status == "pass"
        assert (report.d_hat, report.stderr, report.samples) == tuple(want)
        assert report.counts == tuple(s.count for s in want.samples)
        assert [s.delta for s in report.samples] == ladder

    def test_a_verify_builds_no_samples(self, monkeypatch):
        built = []
        sample = estimation.BoxCountSample
        monkeypatch.setattr(estimation, "BoxCountSample",
                            lambda *pair: built.append(pair) or sample(*pair))
        report = verify_operator_geometrically("mul", 0.8, 0.8, 2, stage=10)
        assert built == []
        ladder = estimation._verify_ladder(report.gamma_c, report.stage)
        assert report.samples == tuple(zip(ladder, report.counts))
        built.clear()
        s = triadic(5)
        estimate = estimate_dimension(s, ladder[:40])
        assert len(built) == 40
        assert all(type(p) is sample for p in estimate.samples)
        assert estimate.samples == tuple((d, box_count(s, d)) for d in ladder[:40])

    def test_unverifiable_report_has_no_fit(self):
        report = verify_operator_geometrically("div", 0.5, 0.5, 2, stage=5)
        assert (report.counts, report.samples, report.stderr) == ((), (), None)

    @pytest.mark.parametrize("stage", [3.5, 3.0, "4", True, None])
    def test_rejects_a_stage_that_is_not_an_integer(self, stage):
        with pytest.raises(DomainError, match="stage"):
            verify_operator_geometrically("mul", 0.5, 0.5, 2, stage=stage)

    @pytest.mark.parametrize(
        "tolerance", [float("nan"), float("inf"), -0.05, 0.0, -0.0, True, False, "0.05", None]
    )
    def test_rejects_a_tolerance_that_is_not_finite_and_positive(self, tolerance):
        with pytest.raises(DomainError, match="tolerance"):
            verify_operator_geometrically("mul", 0.5, 0.5, 2, stage=6, tolerance=tolerance)

    @pytest.mark.parametrize("tolerance", [1, np.float64(0.05), 1e-300])
    def test_accepts_finite_positive_tolerances(self, tolerance):
        report = verify_operator_geometrically("mul", 0.5, 0.5, 2, stage=6, tolerance=tolerance)
        assert report.status in ("pass", "fail")
        assert report.tolerance == tolerance


@pytest.mark.parametrize("tag", [["add"], None, 1, "ADD"])
@pytest.mark.parametrize(
    "entry",
    [
        lambda tag: emit_operator_grid(tag, 4, 2),
        lambda tag: check_gamma_consistency(tag, 0.5, 0.5, 2),
        lambda tag: verify_operator_geometrically(tag, 0.5, 0.5, 2),
    ],
    ids=["emit_operator_grid", "check_gamma_consistency", "verify_operator_geometrically"],
)
def test_unknown_operator_tags_raise_domain_error(entry, tag):
    with pytest.raises(DomainError, match="unknown operator tag"):
        entry(tag)
