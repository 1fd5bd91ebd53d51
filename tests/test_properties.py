"""Property-based invariants of the ranking metrics and the gains chart."""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from scorepotential import (
    CutOff,
    EvaluationContext,
    SampleColumns,
    ScoredRecord,
    TiePolicy,
    auc_crosscheck,
    beni_at_cutoff,
    build_gains_chart,
    evaluate_model,
    evaluation_from_csv,
    evaluation_from_dict,
    evaluation_to_csv,
    gains,
    generate_columns,
    generate_sample,
    perfect_rank_sum,
    pop_denominator_exact,
    pop_exact,
    pop_numerator_exact,
    rank_sample,
    render_combined_chart,
    sample_csv,
)
import scorepotential.sample as sample_module
from scorepotential.metrics import rank_sum_bounds
from tests.conftest import (
    float_bits,
    pairwise_auc,
    read_csv_bytes,
    reference_csv_text,
    reference_gains_chart,
    reference_generate_sample,
    reference_profile,
    reference_rank,
    stable_rank_order,
    written_csv_text,
)


@st.composite
def distinct_score_records(draw, min_size=2, max_size=60, need_non_responder=False):
    size = draw(st.integers(min_size, max_size))
    scores = draw(st.permutations(list(range(size))))
    responses = list(draw(st.lists(st.integers(0, 1), min_size=size, max_size=size)))
    if sum(responses) == 0:
        responses[draw(st.integers(0, size - 1))] = 1
    if need_non_responder and sum(responses) == size:
        responses[draw(st.integers(0, size - 1))] = 0
    return [
        ScoredRecord(f"n{i}", float(s), r)
        for i, (s, r) in enumerate(zip(scores, responses))
    ]


@st.composite
def tied_score_records(draw, min_size=2, max_size=30):
    """Records whose scores collide a lot (small score alphabet)."""
    size = draw(st.integers(min_size, max_size))
    scores = draw(st.lists(st.integers(0, 5), min_size=size, max_size=size))
    responses = list(draw(st.lists(st.integers(0, 1), min_size=size, max_size=size)))
    if sum(responses) == 0:
        responses[draw(st.integers(0, size - 1))] = 1
    return [
        ScoredRecord(f"n{i}", float(s), r)
        for i, (s, r) in enumerate(zip(scores, responses))
    ]


@given(x=st.integers(1, 400), k_fraction=st.fractions(0, 1))
def test_denominator_closed_form_equals_top_k_sum(x, k_fraction):
    k = max(1, round(k_fraction * x))
    r = Fraction(k, x)
    eq4_form = -((x * x * r * r) / 2 - (x * x + Fraction(x, 2)) * r)
    assert perfect_rank_sum(x, k) == sum(range(x - k + 1, x + 1)) == eq4_form


@given(data=st.data(), bucket_count=st.integers(1, 10), names=st.integers(1, 20))
def test_rank_sum_bounds_sum_the_highest_and_lowest_points_of_the_bucket_grid(
        data, bucket_count, names):
    top = data.draw(st.integers(1, bucket_count))
    count = data.draw(st.integers(0, names))
    scale = bucket_count * names
    # The bucket's ranks in bucket units: top - 1 + j/names for j = 1..names.
    grid = [top - 1 + Fraction(j, names) for j in range(1, names + 1)]
    highest, lowest = sum(grid[names - count:]), sum(grid[:count])
    assert rank_sum_bounds(top, count, bucket_count, scale) == (scale * highest, scale * lowest)


@given(records=tied_score_records(), policy=st.sampled_from(list(TiePolicy)))
def test_rank_sum_bracketing(records, policy):
    sample = rank_sample(records, policy)
    k = sample.responders_k
    p_up = pop_numerator_exact(sample)
    assert k * (k + 1) / 2 <= p_up <= pop_denominator_exact(sample)


@given(records=tied_score_records())
def test_tie_policies_bound_the_midrank_numerator(records):
    pess = pop_numerator_exact(rank_sample(records, TiePolicy.PESSIMISTIC))
    mid = pop_numerator_exact(rank_sample(records, TiePolicy.MIDRANK))
    opt = pop_numerator_exact(rank_sample(records, TiePolicy.OPTIMISTIC))
    assert pess <= mid <= opt


@given(records=distinct_score_records(), data=st.data())
def test_monotone_transforms_leave_metrics_bit_identical(records, data):
    sample = rank_sample(records)
    baseline_pop = pop_exact(sample)
    cuts = [CutOff(Fraction(1, 2)), CutOff(Fraction(1))]
    baseline_beni = [beni_at_cutoff(sample, c) for c in cuts]

    size = len(records)
    deltas = data.draw(
        st.lists(st.integers(1, 9), min_size=size, max_size=size), label="piecewise"
    )
    piecewise = list(itertools.accumulate(deltas))

    transforms = [
        lambda s: 2 * s + 7,
        lambda s: math.exp(s / 10),
        lambda s: float(piecewise[int(s)]),
    ]
    for transform in transforms:
        mapped = [
            ScoredRecord(r.id, transform(r.score), r.response) for r in records
        ]
        mapped_sample = rank_sample(mapped)
        assert pop_exact(mapped_sample) == baseline_pop
        assert [beni_at_cutoff(mapped_sample, c) for c in cuts] == baseline_beni
        assert mapped_sample.ranks == sample.ranks


@given(records=distinct_score_records(need_non_responder=True))
def test_auc_affinity(records):
    sample = rank_sample(records)
    k, x = sample.responders_k, sample.size_x
    p_up = pop_numerator_exact(sample)
    reconstructed = auc_crosscheck(sample) * k * (x - k) + k * (k + 1) / 2
    assert abs(p_up - reconstructed) <= 1e-9 * pop_denominator_exact(sample)


@given(
    base=st.permutations(list(range(8))),
    group_size=st.integers(2, 4),
    group_responses=st.lists(st.integers(0, 1), min_size=4, max_size=4),
    tie_score=st.integers(0, 8),
)
def test_midrank_numerator_equals_mean_over_tie_orderings(
    base, group_size, group_responses, tie_score
):
    fixed = [
        ScoredRecord(f"f{i}", s + 0.5, int(i % 3 == 0)) for i, s in enumerate(base)
    ]
    tied = [
        ScoredRecord(f"t{i}", float(tie_score), group_responses[i])
        for i in range(group_size)
    ]
    records = fixed + tied
    midrank_value = pop_numerator_exact(rank_sample(records))

    # Enumeration oracle: every distinct ordering of the tied records gets
    # plain integer ranks; the midrank numerator must be their average.
    totals = []
    for perm in itertools.permutations(tied):
        ordered = sorted(
            fixed + list(perm),
            key=lambda r: (r.score, 0 if r.id.startswith("f") else perm.index(r)),
        )
        totals.append(
            sum(pos for pos, rec in enumerate(ordered, start=1) if rec.response)
        )
    assert midrank_value == sum(totals) / len(totals)


@given(
    bucket_count=st.sampled_from([2, 5, 10, 20]),
    names_per_bucket=st.integers(1, 25),
    data=st.data(),
)
@settings(max_examples=60)
def test_chart_brackets_the_rescaled_exact_numerator(
    bucket_count, names_per_bucket, data
):
    size = bucket_count * names_per_bucket
    scores = data.draw(st.permutations(list(range(size))), label="scores")
    responses = list(
        data.draw(
            st.lists(st.integers(0, 1), min_size=size, max_size=size),
            label="responses",
        )
    )
    if sum(responses) == 0:
        responses[0] = 1
    records = [
        ScoredRecord(f"n{i}", float(s), r)
        for i, (s, r) in enumerate(zip(scores, responses))
    ]
    sample = rank_sample(records)
    chart = build_gains_chart(sample, bucket_count)

    # Exact-space oracle, independent of the chart internals: bounds straight
    # from the arithmetic-row formulas on per-bucket responder counts.
    spacing = Fraction(bucket_count, size)
    sum_min = Fraction(0)
    sum_max = Fraction(0)
    for row in range(bucket_count):
        bno = bucket_count - row
        low = (bno - 1) * names_per_bucket
        resp = sum(r.response for r in sample.records[low : low + names_per_bucket])
        sum_max += bno * resp - spacing * (resp - 1) * resp / 2
        if resp:
            sum_min += (bno - 1 + spacing) * resp + spacing * (resp - 1) * resp / 2

    rescaled = spacing * Fraction(pop_numerator_exact(sample))
    assert sum_min <= rescaled <= sum_max

    # The chart's stored floats are exactly the rounded exact values.
    k = sample.responders_k
    p_down = bucket_count * k - spacing * (k - 1) * k / 2
    assert chart.pop_min_variant == float(100 * sum_min / p_down)
    assert chart.pop_max_variant == float(100 * sum_max / p_down)
    assert chart.p_down_chart == float(
        chart.spacing * Fraction(pop_denominator_exact(sample))
    )


@given(records=distinct_score_records(min_size=4, max_size=40))
def test_pop_exact_ignores_cutoffs_used_elsewhere(records):
    sample = rank_sample(records)
    before = pop_exact(sample)
    for cut in (CutOff(Fraction(1, 2)), CutOff(Fraction(1))):
        beni_at_cutoff(sample, cut)
    assert pop_exact(sample) == before


# Scores drawn from a small pool: long tie groups, and -0.0 beside 0.0 (equal
# scores whose sign must survive ranking).
SCORE_POOL = [-1.5, -0.0, 0.0, 0.5, 1.0, 2.0]


@st.composite
def pooled_score_records(draw, min_size=1, max_size=40, need_responder=False):
    size = draw(st.integers(min_size, max_size))
    scores = draw(st.lists(st.sampled_from(SCORE_POOL), min_size=size, max_size=size))
    responses = list(draw(st.lists(st.integers(0, 1), min_size=size, max_size=size)))
    if need_responder and sum(responses) == 0:
        responses[draw(st.integers(0, size - 1))] = 1
    return [
        ScoredRecord(f"n{i}", s, r) for i, (s, r) in enumerate(zip(scores, responses))
    ]


# Edge cases of the one sort: every score equal, a single record, and -0.0
# beside 0.0 (one tie group, whose signs must survive).
ALL_EQUAL = [ScoredRecord(f"n{i}", 0.5, i % 2) for i in range(5)]
SINGLE = [ScoredRecord("n0", 1.0, 1)]
SIGNED_ZEROS = [ScoredRecord("a", 0.0, 1), ScoredRecord("b", -0.0, 0),
                ScoredRecord("c", -0.0, 1), ScoredRecord("d", 0.0, 0)]


@given(records=pooled_score_records(), policy=st.sampled_from(list(TiePolicy)))
@example(records=ALL_EQUAL, policy=TiePolicy.MIDRANK)
@example(records=ALL_EQUAL, policy=TiePolicy.PESSIMISTIC)
@example(records=ALL_EQUAL, policy=TiePolicy.OPTIMISTIC)
@example(records=SINGLE, policy=TiePolicy.MIDRANK)
@example(records=SINGLE, policy=TiePolicy.PESSIMISTIC)
@example(records=SINGLE, policy=TiePolicy.OPTIMISTIC)
@example(records=SIGNED_ZEROS, policy=TiePolicy.MIDRANK)
@example(records=SIGNED_ZEROS, policy=TiePolicy.PESSIMISTIC)
@example(records=SIGNED_ZEROS, policy=TiePolicy.OPTIMISTIC)
def test_columnar_ranking_matches_the_reference_loop(records, policy):
    sample = rank_sample(records, policy)
    expected_records, expected_ranks = reference_rank(records, policy)
    assert sample.records == expected_records
    assert [math.copysign(1.0, r.score) for r in sample.records] == [
        math.copysign(1.0, r.score) for r in expected_records
    ]
    assert sample.ranks == expected_ranks
    assert sample.has_ties == any(
        a.score == b.score for a, b in zip(expected_records, expected_records[1:])
    )


@st.composite
def large_rank_columns(draw):
    """17 to 3 000 rows, from the six-score pool or unique floats: sizes where
    numpy's unstable argsort really reorders the rows of a tie group."""
    size = draw(st.integers(17, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        scores = rng.choice(SCORE_POOL, size)
    else:
        scores = (rng.permutation(size) - size // 2) * rng.uniform(1e-3, 1e3)
    responses = rng.random(size) < draw(st.floats(0, 1))
    return SampleColumns([f"n{i}" for i in range(size)], scores, responses)


# Examples of up to 3 000 rows: a 1 s deadline, as for the generator property.
# A bound of 0 makes every tie-repair key a Python int (the object-dtype path).
@pytest.mark.parametrize("key_bound", [sample_module.KEY_INT64_BOUND, 0], ids=["int64", "object"])
@given(columns=large_rank_columns(), policy=st.sampled_from(list(TiePolicy)))
@settings(max_examples=60, deadline=1000)
def test_columnar_ranking_matches_the_stable_sort_where_ties_reorder(key_bound, columns, policy):
    with mock.patch.object(sample_module, "KEY_INT64_BOUND", key_bound):
        ranked = rank_sample(columns, policy)
    expected = stable_rank_order(columns, policy)
    np.testing.assert_array_equal(ranked.order, expected)
    np.testing.assert_array_equal(np.signbit(ranked.scores), np.signbit(columns.scores[expected]))
    expected_records, expected_ranks = reference_rank(columns.records(), policy)
    assert ranked.twice_ranks.tolist() == [int(2 * rank) for rank in expected_ranks]
    assert ranked.has_ties == any(
        a.score == b.score for a, b in zip(expected_records, expected_records[1:]))


@given(records=pooled_score_records(need_responder=True),
       policy=st.sampled_from(list(TiePolicy)))
def test_metrics_equal_slice_sum_references(records, policy):
    sample = rank_sample(records, policy)
    ordered, ranks = reference_rank(records, policy)
    x = len(ordered)
    k = sum(r.response for r in ordered)

    numerator = sum(rank for rank, rec in zip(ranks, ordered) if rec.response)
    assert pop_numerator_exact(sample) == numerator
    assert pop_exact(sample) == 100.0 * numerator / float(perfect_rank_sum(x, k))

    base_rate = Fraction(k, x)
    for n in range(1, x + 1):
        hits = sum(r.response for r in ordered[-n:])
        assert beni_at_cutoff(sample, CutOff(Fraction(n, x))) == float(
            Fraction(hits, n) / base_rate * 100
        )

    for bucket_count in (b for b in range(1, x + 1) if x % b == 0):
        per_bucket = x // bucket_count
        expected = [
            sum(r.response for r in ordered[(bno - 1) * per_bucket : bno * per_bucket])
            for bno in range(bucket_count, 0, -1)
        ]
        chart = build_gains_chart(sample, bucket_count)
        assert [b.responders for b in chart.buckets] == expected


@given(records=pooled_score_records(need_responder=True),
       policy=st.sampled_from(list(TiePolicy)), data=st.data())
def test_profile_at_each_bucket_edge_equals_its_chart_row(records, policy, data):
    size = len(records)
    bucket_count = data.draw(st.sampled_from([b for b in range(1, size + 1) if size % b == 0]))
    edges = tuple(CutOff(Fraction(i, bucket_count)) for i in range(1, bucket_count + 1))
    ctx = EvaluationContext(sample=rank_sample(records, policy), bucket_count=bucket_count,
                            cutoffs_of_interest=edges)
    evaluation = evaluate_model(ctx, "m")
    chart = evaluation.gains
    assert [cut.fraction for cut in evaluation.beni_profile] == list(chart.row_cutoffs)
    assert list(evaluation.beni_profile.values()) == list(zip(
        chart.beni_cumulative, chart.beni_max_cumulative, chart.attainment_ratio))


def test_float_bits_tells_signed_zeros_apart():
    assert float_bits((0.0,)) != float_bits((-0.0,))
    assert float_bits(CutOff(Fraction(1, 2))) == float_bits(CutOff(Fraction(2, 4)))


@given(records=tied_score_records(min_size=1, max_size=48),
       policy=st.sampled_from(list(TiePolicy)), data=st.data())
def test_integer_chart_and_profile_keep_every_bit_of_the_fraction_oracles(
        records, policy, data):
    sample = rank_sample(records, policy)
    size = len(records)
    # Any cut-off that selects at least one name: half-up of fraction * #X >= 1.
    fractions = st.fractions(Fraction(1, 2 * size), 1, max_denominator=4 * size)
    cuts = tuple(CutOff(f) for f in data.draw(st.lists(fractions, min_size=1, max_size=6)))
    for bucket_count in (b for b in range(1, size + 1) if size % b == 0):
        ctx = EvaluationContext(sample=sample, bucket_count=bucket_count,
                                cutoffs_of_interest=cuts)
        evaluation = evaluate_model(ctx, "m")
        assert float_bits(evaluation.gains) == float_bits(
            reference_gains_chart(sample, bucket_count))
        assert float_bits(evaluation.beni_profile) == float_bits(
            reference_profile(sample, ctx.cutoffs_of_interest))


@given(records=tied_score_records(min_size=1, max_size=48),
       policy=st.sampled_from(list(TiePolicy)))
def test_chart_on_python_int_columns_keeps_every_bit_of_the_fraction_oracle(records, policy):
    sample = rank_sample(records, policy)
    size = len(records)
    with mock.patch.object(gains, "EXACT_INT64_BOUND", 0):  # every chart past the bound
        for bucket_count in (b for b in range(1, size + 1) if size % b == 0):
            assert float_bits(build_gains_chart(sample, bucket_count)) == float_bits(
                reference_gains_chart(sample, bucket_count))


# Past the bound, int64 columns happen to stay exact on the first chart; on
# the second they would round one attainment_ratio off the oracle.
@pytest.mark.parametrize("size, bucket_count", [(50_000, 1000), (399_999, 3)])
def test_a_chart_past_the_int64_bound_keeps_every_bit_of_the_fraction_oracle(size,
                                                                            bucket_count):
    sample = rank_sample(generate_columns(size, Fraction(1, 2), 0.8, 11))
    assert 200 * sample.responders_k * size**2 >= gains.EXACT_INT64_BOUND
    assert float_bits(build_gains_chart(sample, bucket_count)) == float_bits(
        reference_gains_chart(sample, bucket_count))


@given(records=pooled_score_records(min_size=2))
def test_auc_equals_the_pairwise_count(records):
    assume(0 < sum(r.response for r in records) < len(records))
    assert auc_crosscheck(rank_sample(records)) == pairwise_auc(records)


@given(records=pooled_score_records(min_size=1, need_responder=True),
       policy=st.sampled_from(list(TiePolicy)),
       target=st.none() | st.floats(0, 100, exclude_min=True),
       model_id=st.text(st.characters(blacklist_categories=("Cs", "Cc")), max_size=8),
       data=st.data())
def test_machine_formats_round_trip_to_the_same_bytes(records, policy, target, model_id,
                                                      data):
    size = len(records)
    bucket_count = data.draw(st.sampled_from([b for b in range(1, size + 1) if size % b == 0]))
    cuts = data.draw(st.lists(st.integers(1, size), min_size=1, max_size=4))
    ctx = EvaluationContext(sample=rank_sample(records, policy), bucket_count=bucket_count,
                            cutoffs_of_interest=tuple(CutOff(Fraction(n, size)) for n in cuts),
                            stretch_target=target)
    evaluation = evaluate_model(ctx, model_id)

    as_json = render_combined_chart(evaluation, "json")
    from_json = evaluation_from_dict(json.loads(as_json))
    assert from_json == evaluation
    assert render_combined_chart(from_json, "json") == as_json

    as_csv = render_combined_chart(evaluation, "csv")
    from_csv = evaluation_from_csv(as_csv)
    assert from_csv == evaluation
    assert render_combined_chart(from_csv, "csv") == as_csv


def float_paths(doc, path=()):
    """The path (keys and indices) of each float in a JSON document."""
    if type(doc) is float:
        yield path
    elif type(doc) in (dict, list):
        for key, value in doc.items() if type(doc) is dict else enumerate(doc):
            yield from float_paths(value, (*path, key))


@given(records=pooled_score_records(min_size=1, need_responder=True),
       target=st.none() | st.floats(0, 100, exclude_min=True), data=st.data())
def test_every_evaluation_a_json_document_loads_as_survives_csv(records, target, data):
    size = len(records)
    bucket_count = data.draw(st.sampled_from([b for b in range(1, size + 1) if size % b == 0]))
    ctx = EvaluationContext(sample=rank_sample(records), bucket_count=bucket_count,
                            cutoffs_of_interest=(CutOff(Fraction(1, size)), CutOff(1)),
                            stretch_target=target)
    doc = json.loads(render_combined_chart(evaluate_model(ctx, "m"), "json"))
    # Top-level floats first: Hypothesis shrinks a sampled path toward the first.
    *keys, last = data.draw(st.sampled_from(sorted(float_paths(doc), key=len)))
    parent = doc
    for key in keys:
        parent = parent[key]
    parent[last] = data.draw(st.floats(allow_nan=False, allow_infinity=False))
    try:
        evaluation = evaluation_from_dict(doc)
    except ValueError:
        return  # a chart that the edit made inconsistent is refused
    assert evaluation_from_csv(evaluation_to_csv(evaluation)) == evaluation


# Every float under gains or beni_profile follows from the sample size, the
# responders per bucket and the pass sets, so any other value is refused.
@settings(max_examples=600)
@given(records=pooled_score_records(min_size=1, need_responder=True), data=st.data())
def test_an_evaluation_refuses_any_chart_or_profile_float_edited(records, data):
    size = len(records)
    bucket_count = data.draw(st.sampled_from([b for b in range(1, size + 1) if size % b == 0]))
    picks = data.draw(st.lists(st.integers(1, size), min_size=1, max_size=4, unique=True))
    ctx = EvaluationContext(sample=rank_sample(records), bucket_count=bucket_count,
                            cutoffs_of_interest=[CutOff(Fraction(j, size)) for j in picks])
    doc = json.loads(render_combined_chart(evaluate_model(ctx, "m"), "json"))
    *keys, last = data.draw(st.sampled_from(sorted(
        path for path in float_paths(doc) if path[0] in ("gains", "beni_profile"))))
    parent = doc
    for key in keys:
        parent = parent[key]
    old = parent[last]
    parent[last] = data.draw(st.floats().filter(lambda x: not x == old))  # nan and +-inf too
    with pytest.raises(ValueError):
        evaluation_from_dict(doc)


# Characters that csv.writer quotes (or, for \r, might), beside spaces and non-ASCII.
QUOTED_ID_CHARS = ',"\r\n'
EDGE_SCORES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308,
               1.7976931348623157e308]


@st.composite
def writable_records(draw):
    """Records whose ids may need CSV quoting and whose scores reach the float edges."""
    # The quoted characters come one kind at a time or all together, so each
    # must send the writer to csv.writer on its own.
    extra = " é€😀" + draw(st.sampled_from(["", *QUOTED_ID_CHARS, QUOTED_ID_CHARS]))
    chars = st.one_of(st.characters(blacklist_categories=("Cs",),
                                    blacklist_characters=QUOTED_ID_CHARS),
                      st.sampled_from(extra))
    scores = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from(EDGE_SCORES))
    rows = draw(st.lists(st.tuples(st.text(chars, max_size=6), scores, st.integers(0, 1)),
                         max_size=30))
    return [ScoredRecord(*row) for row in rows]


@given(records=writable_records())
def test_csv_writer_matches_the_reference_loop(records):
    assert written_csv_text(SampleColumns.from_records(records)) == reference_csv_text(records)


@given(size=st.integers(1, 3000),
       rate=st.one_of(st.fractions(0, 1, max_denominator=1000), st.floats(0, 1))
       .filter(lambda r: r > 0),
       quality=st.floats(0, 1),
       seed=st.integers(0, 2**32 - 1))
# Its largest examples (3 000 rows) took up to 80 ms on a 2-vCPU VM, so the
# default 200 ms deadline fails a host 3x slower; 1 s leaves room for 12x.
@settings(max_examples=60, deadline=1000)
def test_columnar_generator_matches_the_reference_loop(size, rate, quality, seed):
    columns = generate_columns(size, rate, quality, seed)
    expected = reference_generate_sample(size, rate, quality, seed)
    assert columns.records() == generate_sample(size, rate, quality, seed) == expected
    assert written_csv_text(columns) == reference_csv_text(expected)


@given(records=writable_records(), slice_rows=st.integers(1, 8))
def test_csv_slices_join_to_the_reference_text(records, slice_rows):
    with mock.patch.object(sample_csv, "SLICE_ROWS", slice_rows):
        text = written_csv_text(SampleColumns.from_records(records))
    assert text == reference_csv_text(records)


PLAIN_ID_CHARS = "abcxyzABC0129._-+!#/:;~"
SCORE_TEXTS = ["0", "1", "-0", ".5", "5.", "1e5", "1E-3", "+2", "-1.25e-300", "1e308"]
# A mutation inserts one of these pieces, deletes or duplicates a byte or a
# line, cuts the file short, or replaces a cell with one of BAD_CELLS.
MUTATION_PIECES = [b" ", b"\t", b'"', b"\r", b",", b"\n", b"_", b"\x00", b"\xff",
                   "é".encode(), b"e", b".", b"-", b"nan", b"inf"]
# Per column (id, score, response), cells that each break one rule.
BAD_CELLS = ([b"", b"a b", b"\xe9"],
             [b"", b"1_0", b"nan", b"-inf", b"1e999", b"0x1", b"1 "],
             [b"", b"2", b"e", b"00", b"-1", b" 1"])


def mutated(lines: list[bytes], rng: random.Random) -> bytes:
    """The file of these lines after one to three mutations drawn from rng."""
    lines = list(lines)
    for _ in range(rng.choice([1, 1, 2, 3])):
        action = rng.choice(["cell", "cell", "insert", "delete", "duplicate", "cut"])
        if action == "cell" and len(lines) > 1:
            at = rng.randrange(1, len(lines))
            cells = lines[at].rstrip(b"\n").split(b",")
            column = rng.randrange(min(len(cells), 3))
            cells[column] = rng.choice(BAD_CELLS[column])
            lines[at] = b",".join(cells) + b"\n"
        elif action in ("insert", "delete", "duplicate") and rng.random() < 0.5:  # a line
            at = rng.randrange(len(lines) + (action == "insert"))
            if action == "insert":
                lines.insert(at, rng.choice(MUTATION_PIECES) + b"\n")
            elif action == "delete":
                del lines[at]
            else:
                lines.insert(at, lines[at])
            lines = lines or [b""]
        else:
            data = b"".join(lines)
            at = rng.randrange(len(data) + 1)
            if action == "insert":
                data = data[:at] + rng.choice(MUTATION_PIECES) + data[at:]
            elif action == "delete":
                data = data[:at] + data[at + 1:]
            elif action == "duplicate":
                data = data[:at + 1] + data[at:]
            else:
                data = data[:at]
            lines = data.splitlines(keepends=True) or [b""]
    return b"".join(lines)


def assert_block_then_strict_is_strict(data: bytes, must_take: bool = False) -> None:
    """The block reader then the strict reader give what the strict reader alone
    gives, and take the same lines from a pipe as from a file."""
    taken, outcome = read_csv_bytes(data)
    assert outcome == read_csv_bytes(data, block_reader=False)[1], data
    assert taken == data.count(b"\n") or not must_take, data
    assert read_csv_bytes(data, pipe=True) == (taken, outcome), data


@given(rows=st.lists(
           st.tuples(st.text(PLAIN_ID_CHARS, min_size=1, max_size=5),
                     st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                               st.sampled_from(SCORE_TEXTS)),
                     st.sampled_from(["0", "1"])),
           max_size=12, unique_by=lambda row: row[0]),
       seed=st.integers(0, 2**32 - 1), block_bytes=st.integers(1, 48))
@settings(max_examples=150)
def test_block_reader_then_strict_reader_is_the_strict_reader(rows, seed, block_bytes):
    # The mutations come from a seeded random.Random, so that their places are
    # uniform (Hypothesis's own draws favour small values: here, the header),
    # and each plain file is mutated many times over.
    lines = [b"id,score,response\n"] + [",".join(row).encode() + b"\n" for row in rows]
    rng = random.Random(seed)
    with mock.patch.object(sample_csv, "BLOCK_BYTES", block_bytes):
        assert_block_then_strict_is_strict(b"".join(lines), must_take=True)
        for _ in range(20):
            assert_block_then_strict_is_strict(mutated(lines, rng))


# Ids of 1 to 24 bytes over two letters; those of the second kind share their
# first and last 8 bytes.
AB_IDS = st.text("ab", min_size=1, max_size=24) | st.text("ab", min_size=1, max_size=8).map(
    lambda middle: f"aaaaaaaa{middle}bbbbbbbb")


def _length_key(block, starts, ends):
    """A key of the id's length alone, so that distinct ids of one length share it."""
    return (ends - starts).astype(np.uint64)


@given(ids=st.lists(AB_IDS, min_size=1, max_size=30),
       repeat=st.none() | st.tuples(st.integers(0, 29), st.integers(0, 30)),
       block_bytes=st.integers(1, 64))
@settings(max_examples=200)
def test_block_reader_finds_repeated_ids_as_the_strict_reader_does(ids, repeat, block_bytes):
    # repeat copies one id to a later line.
    if repeat is not None:
        source, at = repeat[0] % len(ids), repeat[1] % (len(ids) + 1)
        ids.insert(max(at, source + 1), ids[source])
    data = "id,score,response\n" + "".join(f"{i},{n}.5,{n % 2}\n" for n, i in enumerate(ids))
    with mock.patch.object(sample_csv, "BLOCK_BYTES", block_bytes):
        assert_block_then_strict_is_strict(data.encode(), must_take=True)
        with mock.patch.object(sample_csv, "_keys", _length_key):
            assert_block_then_strict_is_strict(data.encode(), must_take=True)


# Id bytes the block reader takes.
ID_BYTES = sample_csv._PLAIN.translate(None, b",\n").decode("ascii")


def _block_keys(ids: list[str]) -> list[int]:
    """The key of each id, read from one block that holds the ids in order."""
    block = "".join(f"{i},0.5,1\n" for i in ids).encode()
    codes = np.frombuffer(block, dtype=np.uint8)
    starts = np.append(0, np.flatnonzero(codes == ord("\n"))[:-1] + 1)
    ends = np.flatnonzero(codes == ord(","))[0::2]
    return sample_csv._keys(block, starts, ends).tolist()


@given(ids=st.lists(st.text(ID_BYTES, min_size=1, max_size=8), min_size=1, max_size=40,
                    unique=True),
       other=st.text(ID_BYTES, min_size=1, max_size=40))
def test_block_reader_keys_tell_short_ids_apart_wherever_an_id_sits(ids, other):
    # An id of up to 8 bytes is its own key, so distinct ones never share it.
    assert len(set(_block_keys(ids))) == len(ids)
    # A key reads its id's bytes alone: first in a block, after a 26-byte id
    # or after a 1-byte id, an id gets the same key.
    key = _block_keys([other])[0]
    for before in ["2024-01-15_000123_campaign", "x"]:
        assert _block_keys([before, other])[1] == key
