"""Batch evaluation, comparison ranking, and the synthetic generator."""

from __future__ import annotations

import dataclasses
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from scorepotential import (
    ComparisonReport,
    CutOff,
    EmptyBatch,
    EvaluationContext,
    IndivisibleBuckets,
    NoResponders,
    ScoredRecord,
    compare_models,
    evaluate_model,
    generate_columns,
    generate_sample,
    perfect_rank_sum,
    rank_sample,
)
from tests.conftest import brute_force_pop, bucketed_records


def _sample_with_pop(records):
    return rank_sample(records)


class TestEvaluateModel:
    def test_rate4_misses_stretch_target_80(self, rate4_sample):
        ctx = EvaluationContext(sample=rate4_sample, stretch_target=80.0)
        evaluation = evaluate_model(ctx, "rate4")
        assert evaluation.meets_stretch_target is False
        assert evaluation.stretch_target == 80.0

    def test_perfectly_ordered_sample_meets_target(self):
        records = [ScoredRecord(f"n{i}", float(i), int(i >= 90)) for i in range(100)]
        ctx = EvaluationContext(sample=rank_sample(records), stretch_target=80.0)
        evaluation = evaluate_model(ctx, "perfect")
        assert evaluation.pop_exact == 100
        assert evaluation.meets_stretch_target is True

    def test_without_target_the_gate_is_unset(self, rate4_sample):
        evaluation = evaluate_model(EvaluationContext(sample=rate4_sample), "m")
        assert evaluation.meets_stretch_target is None

    def test_profile_keys_equal_requested_cutoffs(self, rate4_sample):
        cuts = (CutOff(0.4), CutOff(0.1), CutOff(0.3))
        ctx = EvaluationContext(sample=rate4_sample, cutoffs_of_interest=cuts)
        evaluation = evaluate_model(ctx, "m")
        assert list(evaluation.beni_profile) == sorted(cuts, key=lambda c: c.fraction)

    def test_pop_matches_brute_force_over_random_samples(self):
        rng = random.Random(21)
        for trial in range(50):
            size = rng.randrange(2, 60)
            scores = rng.sample(range(100000), size)
            records = [
                ScoredRecord(f"n{i}", float(s), int(rng.random() < 0.3))
                for i, s in enumerate(scores)
            ]
            if not any(r.response for r in records):
                records[0] = ScoredRecord("n0", records[0].score, 1)
            sample = rank_sample(records)
            ctx = EvaluationContext(
                sample=sample,
                bucket_count=1,
                cutoffs_of_interest=(CutOff(Fraction(1, 2)), CutOff(Fraction(1))),
            )
            evaluation = evaluate_model(ctx, f"m{trial}")
            assert evaluation.pop_exact == brute_force_pop(records)

    def test_errors_carry_model_context(self):
        no_resp = rank_sample([ScoredRecord(f"n{i}", float(i), 0) for i in range(10)])
        with pytest.raises(NoResponders) as excinfo:
            evaluate_model(EvaluationContext(sample=no_resp), "flatliner")
        assert "flatliner" in str(excinfo.value)

        odd = rank_sample([ScoredRecord(f"n{i}", float(i), 1) for i in range(7)])
        with pytest.raises(IndivisibleBuckets) as excinfo:
            evaluate_model(EvaluationContext(sample=odd, bucket_count=10), "odd-size")
        assert "odd-size" in str(excinfo.value)

    def test_degeneracy_flags(self):
        whole = (CutOff(Fraction(1)),)
        ties = rank_sample(
            [ScoredRecord("a", 1.0, 1), ScoredRecord("b", 1.0, 0)]
        )
        flags = evaluate_model(
            EvaluationContext(sample=ties, bucket_count=1, cutoffs_of_interest=whole),
            "t",
        ).degeneracy_flags
        assert flags == {"ties_present"}

        everyone = rank_sample([ScoredRecord(f"n{i}", float(i), 1) for i in range(4)])
        flags = evaluate_model(
            EvaluationContext(
                sample=everyone, bucket_count=2, cutoffs_of_interest=whole
            ),
            "all",
        ).degeneracy_flags
        assert flags == {"all_responders"}

    def test_context_validation(self, rate4_sample):
        with pytest.raises(ValueError):
            EvaluationContext(sample=rate4_sample, stretch_target=0)
        with pytest.raises(ValueError):
            EvaluationContext(sample=rate4_sample, bucket_count=0)
        with pytest.raises(ValueError, match="cut-off"):
            EvaluationContext(sample=rate4_sample, cutoffs_of_interest=())


class TestCompareModels:
    def _evaluation_for(self, records, model_id, target=None):
        ctx = EvaluationContext(sample=rank_sample(records), stretch_target=target)
        return evaluate_model(ctx, model_id)

    def test_ranking_follows_exact_pop(self):
        base = self._evaluation_for(
            bucketed_records([0, 0, 3, 1, 0, 0, 0, 0, 0, 0], 10), "base"
        )
        shifted = self._evaluation_for(
            bucketed_records([4, 0, 0, 0, 0, 0, 0, 0, 0, 0], 10, placement="bottom"),
            "shifted",
        )
        perfect = self._evaluation_for(
            bucketed_records([4, 0, 0, 0, 0, 0, 0, 0, 0, 0], 10, placement="top"),
            "perfect",
        )
        report = compare_models([base, shifted, perfect])
        assert report.ranking == ("perfect", "shifted", "base")

    def test_singleton(self, rate4_sample):
        evaluation = evaluate_model(EvaluationContext(sample=rate4_sample), "solo")
        assert compare_models([evaluation]).ranking == ("solo",)

    def test_identical_metrics_break_ties_lexicographically(self):
        records = bucketed_records([2, 1, 0, 0, 0], 4)
        b = self._evaluation_for(records, "bravo")
        a = self._evaluation_for(records, "alpha")
        report = compare_models([b, a])
        assert report.ranking == ("alpha", "bravo")

    def test_order_independence(self):
        evals = [
            self._evaluation_for(
                rank_sample(generate_sample(40, 0.2, q, seed)).records, f"m{seed}"
            )
            for seed, q in enumerate([0.1, 0.9, 0.5, 0.7])
        ]
        forward = compare_models(evals)
        backward = compare_models(list(reversed(evals)))
        assert forward == backward

    def test_below_target_listing(self, rate4_sample):
        low = evaluate_model(
            EvaluationContext(sample=rate4_sample, stretch_target=80.0), "low"
        )
        perfect_records = bucketed_records([4, 0, 0, 0, 0, 0, 0, 0, 0, 0], 10)
        high = evaluate_model(
            EvaluationContext(
                sample=rank_sample(perfect_records), stretch_target=80.0
            ),
            "high",
        )
        report = compare_models([low, high])
        assert report.below_target == ("low",)

    def test_a_report_derives_its_ranking_and_below_target(self, rate4_sample):
        low = self._evaluation_for(rate4_sample.records, "low", target=80.0)
        high = self._evaluation_for(bucketed_records([4, 0, 0, 0, 0, 0, 0, 0, 0, 0], 10),
                                    "high", target=80.0)
        report = ComparisonReport((low, high))
        assert report.evaluations == (high, low)
        assert (report.ranking, report.below_target) == (("high", "low"), ("low",))
        with pytest.raises(TypeError):
            ComparisonReport((low, high), ranking=("high", "zzz"), below_target=())

    def test_equal_exact_pop_breaks_ties_by_chart_pop_before_id(self):
        weak = self._evaluation_for(bucketed_records([0, 0, 3, 1, 0, 0, 0, 0, 0, 0], 10), "a")
        strong = self._evaluation_for(bucketed_records([4, 0, 0, 0, 0, 0, 0, 0, 0, 0], 10), "b")
        assert weak.gains.pop_approx < strong.gains.pop_approx
        weak = dataclasses.replace(weak, pop_exact=strong.pop_exact)
        assert compare_models([weak, strong]).ranking == ("b", "a")

    def test_empty_batch(self):
        with pytest.raises(EmptyBatch):
            compare_models([])

    def test_duplicate_ids_rejected(self, rate4_sample):
        evaluation = evaluate_model(EvaluationContext(sample=rate4_sample), "dup")
        with pytest.raises(ValueError):
            compare_models([evaluation, evaluation])


class TestGenerateSample:
    def test_quality_one_is_perfectly_separated(self):
        from scorepotential import pop_exact

        for seed in (0, 1, 17, 123):
            sample = rank_sample(generate_sample(100, 0.04, 1.0, seed))
            assert pop_exact(sample) == 100

    def test_realized_responder_count_rounds_half_up(self):
        assert sum(r.response for r in generate_sample(100, 0.04, 0.5, 0)) == 4
        assert sum(r.response for r in generate_sample(10, 0.15, 0.5, 0)) == 2
        assert sum(r.response for r in generate_sample(10, 0.14, 0.5, 0)) == 1

    def test_deterministic_for_fixed_seed(self):
        a = generate_sample(50, 0.1, 0.6, 42)
        b = generate_sample(50, 0.1, 0.6, 42)
        assert a == b
        c = generate_sample(50, 0.1, 0.6, 43)
        assert a != c

    def test_uniform_quality_matches_analytic_expectation(self):
        from scorepotential import pop_exact

        x, k = 100, 4
        expectation = 100 * (k * (x + 1) / 2) / perfect_rank_sum(x, k)
        pops = [
            pop_exact(rank_sample(generate_sample(x, Fraction(1, 25), 0.0, seed)))
            for seed in range(500)
        ]
        assert abs(float(np.mean(pops)) - expectation) < 2

    def test_mean_pop_is_monotone_in_quality(self):
        from scorepotential import pop_exact

        qualities = [0.0, 0.25, 0.5, 0.75, 1.0]
        means = []
        for q in qualities:
            pops = [
                pop_exact(rank_sample(generate_sample(10, 0.3, q, seed)))
                for seed in range(500)
            ]
            means.append(float(np.mean(pops)))
        assert means == sorted(means)

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_sample(0, 0.5, 0.5, 1)
        with pytest.raises(ValueError):
            generate_sample(10, 0, 0.5, 1)
        with pytest.raises(ValueError):
            generate_sample(10, 0.5, 1.5, 1)

    # The ids are built 65 536 at a time, so 999 999 rows cross 15 slice seams
    # at six digits and 1 000 000 rows switch to seven.
    @pytest.mark.parametrize("size, width", [(999_999, 6), (1_000_000, 7)])
    def test_ids_count_from_one_at_the_width_of_the_size(self, size, width):
        ids = generate_columns(size, Fraction(1, 25), 0.6, 1).ids
        assert ids == [f"n{i:0{width}d}" for i in range(1, size + 1)]

    def test_building_the_ids_holds_little_memory_beyond_the_sample(self):
        generate_columns(10, Fraction(1, 25), 0.6, 1)  # lazy imports and caches first
        tracemalloc.start()
        try:
            columns = generate_columns(500_000, Fraction(1, 25), 0.6, 1)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(columns) == 500_000
        assert peak - held < 4_000_000
