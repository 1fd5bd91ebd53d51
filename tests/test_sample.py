"""Ranking, tie policies, and the cut-off type."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from scorepotential import (
    CutOff,
    EmptySample,
    NonFiniteScore,
    RankedSample,
    SampleColumns,
    ScoredRecord,
    TiePolicy,
    rank_sample,
)
from tests.conftest import ten_name_records


def test_ten_name_ranks_responders_at_9_6_5(ten_name_sample):
    responder_ranks = {
        rank
        for rank, rec in zip(ten_name_sample.ranks, ten_name_sample.records)
        if rec.response
    }
    assert responder_ranks == {9.0, 6.0, 5.0}
    assert ten_name_sample.size_x == 10
    assert ten_name_sample.responders_k == 3
    assert ten_name_sample.response_rate_r == Fraction(3, 10)


def test_singleton_responder():
    sample = rank_sample([ScoredRecord("only", 1.0, 1)])
    assert sample.ranks == (1.0,)
    assert sample.response_rate_r == 1


def test_midrank_shares_mean_of_occupied_ranks():
    records = [
        ScoredRecord("a", 1.0, 0),
        ScoredRecord("b", 2.0, 0),
        ScoredRecord("c", 3.0, 1),  # tied pair occupying ranks 3-4
        ScoredRecord("d", 3.0, 0),
        ScoredRecord("e", 4.0, 0),
        ScoredRecord("f", 5.0, 1),
    ]
    sample = rank_sample(records)
    tied = [r for r, rec in zip(sample.ranks, sample.records) if rec.score == 3.0]
    assert tied == [3.5, 3.5]
    assert sum(sample.ranks) == 21
    assert sample.has_ties


def test_pessimistic_puts_responders_on_low_ranks():
    records = [
        ScoredRecord("x", 1.0, 0),
        ScoredRecord("r", 2.0, 1),
        ScoredRecord("n", 2.0, 0),
    ]
    sample = rank_sample(records, TiePolicy.PESSIMISTIC)
    by_id = {rec.id: rank for rec, rank in zip(sample.records, sample.ranks)}
    assert by_id == {"x": 1.0, "r": 2.0, "n": 3.0}


def test_optimistic_puts_responders_on_high_ranks():
    records = [
        ScoredRecord("x", 1.0, 0),
        ScoredRecord("r", 2.0, 1),
        ScoredRecord("n", 2.0, 0),
    ]
    sample = rank_sample(records, TiePolicy.OPTIMISTIC)
    by_id = {rec.id: rank for rec, rank in zip(sample.records, sample.ranks)}
    assert by_id == {"x": 1.0, "n": 2.0, "r": 3.0}


def test_rank_order_strictly_follows_score_order(ten_name_sample):
    scores = [rec.score for rec in ten_name_sample.records]
    assert scores == sorted(scores)
    assert list(ten_name_sample.ranks) == sorted(ten_name_sample.ranks)


def test_input_order_preserved_within_midrank_ties():
    records = [
        ScoredRecord("first", 7.0, 0),
        ScoredRecord("second", 7.0, 1),
        ScoredRecord("third", 7.0, 0),
    ]
    sample = rank_sample(records)
    assert [rec.id for rec in sample.records] == ["first", "second", "third"]


def test_empty_sample_rejected():
    with pytest.raises(EmptySample):
        rank_sample([])


def test_non_finite_score_names_offender():
    with pytest.raises(NonFiniteScore) as excinfo:
        ScoredRecord("bad-one", float("nan"), 0)
    assert "bad-one" in str(excinfo.value)
    with pytest.raises(NonFiniteScore):
        ScoredRecord("inf", float("inf"), 1)


def test_response_must_be_binary():
    with pytest.raises(ValueError):
        ScoredRecord("r", 1.0, 2)


def test_cutoff_bounds():
    with pytest.raises(ValueError):
        CutOff(Fraction(0))
    with pytest.raises(ValueError):
        CutOff(Fraction(3, 2))
    assert CutOff(Fraction(1)).fraction == 1


def test_cutoff_normalizes_decimal_floats_exactly():
    assert CutOff(0.4).fraction == Fraction(2, 5)
    assert CutOff("0.15").fraction == Fraction(3, 20)
    assert str(CutOff(Fraction(1, 10))) == "10%"


def test_ten_name_records_fixture_is_the_worked_sample():
    records = ten_name_records()
    assert len(records) == 10
    assert sum(r.response for r in records) == 3


def test_ranked_columns_are_read_only(ten_name_sample):
    for column in (ten_name_sample.ids, ten_name_sample.scores,
                   ten_name_sample.responses, ten_name_sample.twice_ranks,
                   ten_name_sample.top_responders):
        with pytest.raises(ValueError):
            column[0] = column[1]


def test_midranks_are_stored_doubled():
    records = [ScoredRecord("a", 1.0, 0), ScoredRecord("b", 2.0, 1),
               ScoredRecord("c", 2.0, 0), ScoredRecord("d", 3.0, 1)]
    sample = rank_sample(records)
    assert sample.twice_ranks.tolist() == [2, 5, 5, 8]
    assert sample.top_responders.tolist() == [0, 1, 1, 2, 2]


def test_ranked_sample_validates_its_columns():
    ids = np.array(["a", "b"], dtype=object)
    with pytest.raises(EmptySample):
        RankedSample(ids[:0], [], [], [])
    with pytest.raises(ValueError, match="parallel"):
        RankedSample(ids, [1.0, 2.0], [False, True], [2])
    with pytest.raises(ValueError, match="ascending"):
        RankedSample(ids, [2.0, 1.0], [False, True], [2, 4])
    with pytest.raises(ValueError, match="rank sum"):
        RankedSample(ids, [1.0, 2.0], [False, True], [2, 2])


def test_columns_rank_like_the_records_they_hold():
    records = ten_name_records()
    columns = SampleColumns.from_records(records)
    assert len(columns) == 10
    assert columns.records() == records
    for policy in TiePolicy:
        assert rank_sample(columns, policy).records == rank_sample(records, policy).records


def test_sample_columns_validate_their_input():
    with pytest.raises(ValueError, match="parallel"):
        SampleColumns(["a", "b"], [1.0], [0])
    with pytest.raises(ValueError, match="0 or 1"):
        SampleColumns(["a"], [1.0], [2])
    with pytest.raises(NonFiniteScore) as excinfo:
        SampleColumns(["a", "b"], [1.0, float("nan")], [0, 1])
    assert excinfo.value.record_id == "b"
