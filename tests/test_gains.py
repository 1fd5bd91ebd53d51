"""Gains-chart construction against the worked decile charts."""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest

from scorepotential import (
    IndivisibleBuckets,
    NoResponders,
    ScoredRecord,
    build_gains_chart,
    pop_denominator_exact,
    pop_exact,
    pop_numerator_exact,
    rank_sample,
)
from scorepotential.metrics import rank_sum_bounds
from scorepotential.rounding import round_half_up
from tests.conftest import bucketed_records


# rank_sum_bounds(bucket_no, responders, #B, #X) is #X times P'-up max and min
# of the bucket in bucket units; with bucket_no #B and all k responders, its
# max is P-down.  Ten buckets of 100 names: #B = 10, #X = 100.
class TestBucketBounds:
    def test_descending_row_from_bucket_top(self):
        assert rank_sum_bounds(8, 3, 10, 100)[0] / 100 == 23.7
        assert rank_sum_bounds(10, 4, 10, 100)[0] / 100 == 39.4

    def test_zero_responders_all_bounds_zero(self):
        for bno in (1, 4, 10):
            assert rank_sum_bounds(bno, 0, 1, 4) == (0, 0)

    def test_ascending_row_from_bucket_bottom(self):
        assert rank_sum_bounds(8, 3, 10, 100) == (2370, 2160)
        assert rank_sum_bounds(7, 1, 10, 100) == (700, 610)
        assert rank_sum_bounds(8, 3, 10, 100)[1] / 100 == 21.6
        assert rank_sum_bounds(7, 1, 10, 100)[1] / 100 == 6.1

    def test_average(self):
        assert sum(rank_sum_bounds(8, 3, 10, 100)) / 200 == 22.65
        assert sum(rank_sum_bounds(7, 1, 10, 100)) / 200 == 6.55
        assert rank_sum_bounds(7, 1, 10, 100)[0] / 100 == 7.0
        assert sum(rank_sum_bounds(7, 0, 10, 100)) / 200 == 0.0


class TestChartDenominator:
    def test_worked_values(self):
        assert rank_sum_bounds(10, 4, 10, 100)[0] / 100 == 39.4
        assert rank_sum_bounds(10, 3, 10, 100)[0] / 100 == 29.7

    def test_matches_rescaled_exact_sum(self):
        # 29.7 is also 0.1 times the exact top-3 rank sum of 100 names.
        assert rank_sum_bounds(10, 3, 10, 100)[0] / 100 == float(Fraction(1, 10) * 297)

    def test_all_names_respond(self):
        b, x = 5, 40
        spacing = Fraction(b, x)
        expected = b * x - spacing * (x - 1) * x / 2
        assert rank_sum_bounds(b, x, b, x)[0] / x == float(expected)


class TestRate4DecileChart:
    def test_per_bucket_columns(self, rate4_sample):
        chart = build_gains_chart(rate4_sample, 10)
        by_no = {b.bucket_no: b for b in chart.buckets}
        assert (by_no[8].p_up_max, by_no[8].p_up_min, by_no[8].p_up_avg) == (
            23.7, 21.6, 22.65,
        )
        assert (by_no[7].p_up_max, by_no[7].p_up_min, by_no[7].p_up_avg) == (
            7.0, 6.1, 6.55,
        )
        assert by_no[8].beni_marginal == 750
        assert by_no[7].beni_marginal == 250

    def test_summary_quantities(self, rate4_sample):
        chart = build_gains_chart(rate4_sample, 10)
        assert chart.p_down_chart == 39.4
        assert sum(b.p_up_avg for b in chart.buckets) == 29.2
        assert chart.pop_approx == float(Fraction(14600, 197))
        assert round_half_up(chart.pop_approx) == 74

    def test_rows_are_stored_top_down(self, rate4_sample):
        chart = build_gains_chart(rate4_sample, 10)
        assert [b.bucket_no for b in chart.buckets] == list(range(10, 0, -1))

    def test_attainment_column(self, rate4_sample):
        chart = build_gains_chart(rate4_sample, 10)
        rounded = [round_half_up(v) for v in chart.attainment_ratio]
        assert rounded == [0, 0, 75, 100, 100, 100, 100, 100, 100, 100]


class TestRate8DecileChart:
    def test_cumulative_beni_column(self, rate8_sample):
        chart = build_gains_chart(rate8_sample, 10)
        rounded = [round_half_up(v) for v in chart.beni_cumulative]
        assert rounded == [375, 250, 208, 188, 150, 125, 125, 125, 111, 100]

    def test_marginal_beni_column(self, rate8_sample):
        chart = build_gains_chart(rate8_sample, 10)
        assert [round_half_up(b.beni_marginal) for b in chart.buckets] == [
            375, 125, 125, 125, 0, 0, 125, 125, 0, 0,
        ]

    def test_ceiling_column(self, rate8_sample):
        chart = build_gains_chart(rate8_sample, 10)
        rounded = [round_half_up(v) for v in chart.beni_max_cumulative]
        assert rounded == [1000, 500, 333, 250, 200, 167, 143, 125, 111, 100]

    def test_attainment_column_needs_full_precision(self, rate8_sample):
        # 208.33/333.33 is 62.5 -> 63; dividing the printed integers would
        # give 62, so the column must be computed before rounding.
        chart = build_gains_chart(rate8_sample, 10)
        rounded = [round_half_up(v) for v in chart.attainment_ratio]
        assert rounded == [38, 50, 63, 75, 75, 75, 88, 100, 100, 100]


class TestChartInvariants:
    def test_single_bucket_max_variant_is_100(self):
        rng = random.Random(3)
        for _ in range(10):
            size = rng.randrange(2, 40)
            records = [
                ScoredRecord(f"n{i}", rng.random(), rng.randint(0, 1))
                for i in range(size)
            ]
            if not any(r.response for r in records):
                records[0] = ScoredRecord("n0", records[0].score, 1)
            chart = build_gains_chart(rank_sample(records), 1)
            assert chart.pop_max_variant == 100

    def test_indivisible_bucket_count_rejected(self, ten_name_sample):
        with pytest.raises(IndivisibleBuckets):
            build_gains_chart(ten_name_sample, 3)

    def test_no_responders_rejected(self):
        sample = rank_sample([ScoredRecord(f"n{i}", float(i), 0) for i in range(10)])
        with pytest.raises(NoResponders):
            build_gains_chart(sample, 5)

    @pytest.mark.parametrize("key, edit", [
        ("sample_size", lambda chart: {"buckets": ()}),
        ("sample_size", lambda chart: {"sample_size": 0}),
        ("sample_size", lambda chart: {"sample_size": -100}),
        ("sample_size", lambda chart: {"sample_size": 105}),
        ("responders", lambda chart: {"buckets": (
            chart.buckets[0]._replace(responders=-1), *chart.buckets[1:])}),
        ("responders", lambda chart: {"buckets": (
            chart.buckets[0]._replace(responders=11), *chart.buckets[1:])}),
        ("responders", lambda chart: {"buckets": tuple(
            b._replace(responders=0) for b in chart.buckets)}),
    ])
    def test_a_chart_that_cannot_be_rebuilt_is_a_value_error(self, rate4_sample, key, edit):
        chart = build_gains_chart(rate4_sample, 10)
        with pytest.raises(ValueError, match=key) as refused:
            dataclasses.replace(chart, **edit(chart))
        assert type(refused.value) is ValueError

    def test_bucket_totals_cover_the_sample(self, rate8_sample):
        chart = build_gains_chart(rate8_sample, 10)
        assert sum(b.names for b in chart.buckets) == 100
        assert sum(b.responders for b in chart.buckets) == 8

    def test_variant_ordering_and_cumulative_consistency(self, rate4_sample):
        chart = build_gains_chart(rate4_sample, 10)
        assert chart.pop_min_variant <= chart.pop_approx <= chart.pop_max_variant
        assert chart.pop_cumulative[-1] == chart.pop_approx
        assert chart.beni_cumulative[-1] == 100
        for value, ceiling in zip(chart.beni_cumulative, chart.beni_max_cumulative):
            assert value <= ceiling

    def test_scale_consistency_with_exact_denominator(self, rate4_sample):
        chart = build_gains_chart(rate4_sample, 10)
        assert chart.p_down_chart == float(
            chart.spacing * Fraction(pop_denominator_exact(rate4_sample))
        )

    def test_weighted_marginal_beni_averages_to_100(self, rate8_sample):
        chart = build_gains_chart(rate8_sample, 10)
        weighted = sum(b.names * b.beni_marginal for b in chart.buckets)
        assert abs(weighted / chart.sample_size - 100) < 1e-9

    def test_refinement_to_one_name_per_bucket_recovers_exact(self):
        rng = random.Random(17)
        scores = rng.sample(range(1000), 24)
        records = [
            ScoredRecord(f"n{i}", float(s), int(rng.random() < 0.3))
            for i, s in enumerate(scores)
        ]
        if not any(r.response for r in records):
            records[0] = ScoredRecord("n0", records[0].score, 1)
        sample = rank_sample(records)
        chart = build_gains_chart(sample, sample.size_x)
        exact = pop_exact(sample)
        assert chart.pop_approx == exact
        assert chart.pop_min_variant == exact
        assert chart.pop_max_variant == exact

    def test_bracketing_of_rescaled_exact_numerator(self):
        rng = random.Random(5)
        for _ in range(50):
            buckets = rng.choice([2, 5, 10, 20])
            size = buckets * rng.randrange(1, 26)
            scores = rng.sample(range(100000), size)
            records = [
                ScoredRecord(f"n{i}", float(s), int(rng.random() < 0.2))
                for i, s in enumerate(scores)
            ]
            if not any(r.response for r in records):
                records[0] = ScoredRecord("n0", records[0].score, 1)
            sample = rank_sample(records)
            chart = build_gains_chart(sample, buckets)
            rescaled = float(chart.spacing * Fraction(pop_numerator_exact(sample)))
            assert sum(b.p_up_min for b in chart.buckets) <= rescaled
            assert rescaled <= sum(b.p_up_max for b in chart.buckets)
            rescaled_pop = 100 * rescaled / chart.p_down_chart
            assert chart.pop_min_variant <= rescaled_pop <= chart.pop_max_variant


class TestShiftExercise:
    def test_moving_all_responders_to_the_best_bucket(self):
        shifted = rank_sample(
            bucketed_records([4, 0, 0, 0, 0, 0, 0, 0, 0, 0], 10, placement="bottom")
        )
        chart = build_gains_chart(shifted, 10)
        assert chart.p_down_chart == 39.4
        # 38.2 / 39.4 * 100 as exact rationals
        assert chart.pop_approx == float(Fraction(382, 394) * 100)
        assert round_half_up(chart.pop_approx) == 97
        assert chart.pop_max_variant == 100

    def test_perfect_model_attains_ceiling_above_base_rate(self):
        perfect = rank_sample(
            bucketed_records([4, 0, 0, 0, 0, 0, 0, 0, 0, 0], 10, placement="top")
        )
        chart = build_gains_chart(perfect, 10)
        base = chart.base_rate
        for cut, ratio in zip(chart.row_cutoffs, chart.attainment_ratio):
            if cut >= base:
                assert ratio == 100
