"""Benefit index and exact score potential against the worked values."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from scorepotential import (
    CutOff,
    CutoffTooSmall,
    DegenerateClasses,
    NoResponders,
    ScoredRecord,
    ZeroBaseRate,
    auc_crosscheck,
    beni,
    beni_at_cutoff,
    beni_max,
    perfect_rank_sum,
    pop_denominator_exact,
    pop_exact,
    pop_numerator_exact,
    rank_sample,
    selection_count,
)
from scorepotential.rounding import round_half_up, to_fraction


class TestBeni:
    def test_worked_value_is_exact(self):
        assert beni(0.15, 0.08) == 187.5
        assert beni(Fraction(15, 100), Fraction(8, 100)) == 187.5

    def test_no_lift_identity(self):
        for r in (0.01, 0.08, 0.5, 1.0):
            assert beni(r, r) == 100

    def test_top_decile_value(self):
        assert beni(0.30, 0.08) == 375

    def test_zero_base_rate(self):
        with pytest.raises(ZeroBaseRate):
            beni(0.1, 0)

    def test_rates_outside_unit_interval(self):
        with pytest.raises(ValueError):
            beni(1.5, 0.5)
        with pytest.raises(ValueError):
            beni(0.5, 1.5)


class TestBeniMax:
    def test_worked_value(self):
        assert beni_max(CutOff(0.4), 0.08) == 250

    def test_top_decile_ceiling(self):
        assert beni_max(CutOff(0.10), 0.08) == 1000

    def test_ceiling_capped_once_all_pass_names_can_respond(self):
        # Oracle: 100 names, 8 responders placed on top, cut below the base
        # rate; the best possible pass set is pure responders.
        records = [
            ScoredRecord(f"n{i}", float(i), int(i >= 92)) for i in range(100)
        ]
        best = rank_sample(records)
        assert beni_at_cutoff(best, CutOff(0.05)) == 1250
        assert beni_max(CutOff(0.05), 0.08) == 1250

    def test_base_rate_validation(self):
        with pytest.raises(ZeroBaseRate):
            beni_max(CutOff(0.4), 0)
        with pytest.raises(ValueError):
            beni_max(CutOff(0.4), 1.2)


class TestBeniAtCutoff:
    def test_rate8_sample_at_40_percent(self, rate8_sample):
        assert beni_at_cutoff(rate8_sample, CutOff(0.40)) == 187.5

    def test_full_sample_is_base_rate(self, rate8_sample, rate4_sample):
        assert beni_at_cutoff(rate8_sample, CutOff(Fraction(1))) == 100
        assert beni_at_cutoff(rate4_sample, CutOff(Fraction(1))) == 100

    def test_rate4_sample_at_30_percent(self, rate4_sample):
        assert beni_at_cutoff(rate4_sample, CutOff(0.30)) == 250

    def test_no_responders(self):
        sample = rank_sample([ScoredRecord(f"n{i}", float(i), 0) for i in range(4)])
        with pytest.raises(NoResponders):
            beni_at_cutoff(sample, CutOff(0.5))

    def test_cutoff_selecting_zero_names(self, ten_name_sample):
        with pytest.raises(CutoffTooSmall):
            beni_at_cutoff(ten_name_sample, CutOff(Fraction(1, 25)))

    def test_selection_count_rounds_half_up(self):
        assert selection_count(10, CutOff(Fraction(1, 25))) == 0
        assert selection_count(10, CutOff(Fraction(15, 100))) == 2
        assert selection_count(10, CutOff(Fraction(14, 100))) == 1
        assert selection_count(100, CutOff(0.40)) == 40


def test_round_half_up_on_floats_matches_the_exact_rule():
    below_half = 0.49999999999999994  # the largest float below 0.5
    assert round_half_up(below_half) == 0 == round_half_up(Fraction(below_half))
    for value in (0.5, 1.5, 2.5, -0.5, -1.5, -2.5, 2.4999999999999996, -0.49999999999999994,
                  4503599627370495.5, 1e300, -7.25, 0, -7, 2**53 + 1):
        assert round_half_up(value) == round_half_up(Fraction(value)), value


# The largest float below 0.5, halves of both signs, the halves around 2**52
# (2**52 + 0.5 is no float: it is 2**52), floats past 2**53, and -0.0.
HALF_UP_EDGES = [0.49999999999999994, -0.49999999999999994,
                 *(sign * (k + 0.5) for k in range(8) for sign in (1, -1)),
                 2.0**52 - 0.5, 2.0**52 + 0.5, -(2.0**52 - 0.5), 2.0**53, 2.0**53 + 2,
                 -(2.0**53 + 2), 2.0**70, 1e300, -1e300, -0.0, 0.0, 5e-324, -5e-324]


@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=20))
@example(values=HALF_UP_EDGES)
def test_round_half_up_on_a_float64_column_matches_the_scalar_rule(values):
    column = round_half_up(np.array(values, dtype=np.float64))
    assert column.dtype == np.float64
    assert column.tolist() == [round_half_up(v) for v in values]


@pytest.mark.parametrize("value, error", [
    (True, TypeError), (float("nan"), ValueError), (float("-inf"), ValueError),
    ([1, 2], TypeError),
])
def test_to_fraction_rejects_what_is_not_a_finite_rational(value, error):
    with pytest.raises(error):
        to_fraction(value)


class TestPopNumerator:
    def test_ten_name_value(self, ten_name_sample):
        assert pop_numerator_exact(ten_name_sample) == 20

    def test_zero_responders(self):
        sample = rank_sample([ScoredRecord(f"n{i}", float(i), 0) for i in range(5)])
        assert pop_numerator_exact(sample) == 0

    def test_matches_direct_loop_on_random_sample(self):
        rng = random.Random(12)
        records = [
            ScoredRecord(f"n{i}", rng.random(), rng.randint(0, 1)) for i in range(12)
        ]
        sample = rank_sample(records)
        oracle = sum(
            rank for rank, rec in zip(sample.ranks, sample.records) if rec.response
        )
        assert pop_numerator_exact(sample) == oracle


class TestPopDenominator:
    def test_top_three_of_ten(self, ten_name_sample):
        assert pop_denominator_exact(ten_name_sample) == 27

    def test_hundred_names_four_responders(self):
        assert perfect_rank_sum(100, 4) == 394 == sum(range(97, 101))

    def test_all_responders(self):
        for n in (1, 5, 17):
            sample = rank_sample([ScoredRecord(f"n{i}", float(i), 1) for i in range(n)])
            assert pop_denominator_exact(sample) == n * (n + 1) / 2

    def test_no_responders(self):
        sample = rank_sample([ScoredRecord(f"n{i}", float(i), 0) for i in range(5)])
        with pytest.raises(NoResponders):
            pop_denominator_exact(sample)

    def test_perfect_rank_sum_validates(self):
        with pytest.raises(ValueError):
            perfect_rank_sum(5, 6)


class TestPopExact:
    def test_ten_name_value(self, ten_name_sample):
        assert abs(pop_exact(ten_name_sample) - 2000 / 27) < 1e-12

    def test_all_responders_is_100(self):
        sample = rank_sample([ScoredRecord(f"n{i}", float(i), 1) for i in range(8)])
        assert pop_exact(sample) == 100

    def test_perfect_ordering_is_100(self):
        records = [ScoredRecord(f"n{i}", float(i), int(i >= 15)) for i in range(20)]
        assert pop_exact(rank_sample(records)) == 100

    def test_mean_over_uniform_placements_matches_expectation(self):
        # E[P_up] for k uniform ranks of X is k(X+1)/2.
        x, k = 20, 5
        denominator = perfect_rank_sum(x, k)
        expectation = 100 * (k * (x + 1) / 2) / denominator
        rng = random.Random(99)
        total = 0.0
        for _ in range(1000):
            responder_positions = set(rng.sample(range(x), k))
            records = [
                ScoredRecord(f"n{i}", float(i), int(i in responder_positions))
                for i in range(x)
            ]
            total += pop_exact(rank_sample(records))
        assert abs(total / 1000 - expectation) < 1.5


class TestAucCrosscheck:
    def test_ten_name_value_matches_pairwise_oracle(self, ten_name_sample):
        resp = [r.score for r in ten_name_sample.records if r.response]
        non = [r.score for r in ten_name_sample.records if not r.response]
        oracle = sum(
            1.0 if a > b else 0.5 if a == b else 0.0 for a in resp for b in non
        ) / (len(resp) * len(non))
        value = auc_crosscheck(ten_name_sample)
        assert value == oracle
        assert abs(value - 2 / 3) < 1e-15

    def test_perfect_separation(self):
        records = [ScoredRecord(f"n{i}", float(i), int(i >= 6)) for i in range(9)]
        assert auc_crosscheck(rank_sample(records)) == 1.0

    def test_perfect_inversion(self):
        records = [ScoredRecord(f"n{i}", float(i), int(i < 3)) for i in range(9)]
        assert auc_crosscheck(rank_sample(records)) == 0.0

    def test_degenerate_classes(self):
        all_resp = rank_sample([ScoredRecord(f"n{i}", float(i), 1) for i in range(4)])
        none_resp = rank_sample([ScoredRecord(f"n{i}", float(i), 0) for i in range(4)])
        with pytest.raises(DegenerateClasses):
            auc_crosscheck(all_resp)
        with pytest.raises(DegenerateClasses):
            auc_crosscheck(none_resp)
