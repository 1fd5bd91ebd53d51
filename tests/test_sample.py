"""Ranking, tie policies, and the cut-off type."""

from __future__ import annotations

import copy
import dataclasses
import math
import pickle
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from scorepotential import (
    CutOff,
    EmptySample,
    NonFiniteScore,
    RankedSample,
    SampleColumns,
    ScoredRecord,
    TiePolicy,
    generate_sample,
    pop_exact,
    rank_sample,
)
from tests.conftest import stable_rank_order, ten_name_records


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


@dataclasses.dataclass(frozen=True)
class DictRecord:
    """ScoredRecord as a frozen dataclass with a __dict__ and a __post_init__:
    the record the slotted one must match field for field and error for error."""

    id: str
    score: float
    response: int

    def __post_init__(self):
        object.__setattr__(self, "score", float(self.score))
        object.__setattr__(self, "response", int(self.response))
        if self.response not in (0, 1):
            raise ValueError(f"record {self.id!r}: response must be 0 or 1")
        if not math.isfinite(self.score):
            raise NonFiniteScore(self.id)


def record_outcome(make, *values):
    """The fields of make(*values), each with its type (a float by its repr, so
    -0.0 is not 0.0), or the type and message of the error it raises."""
    try:
        record = make(*values)
    except Exception as err:
        return type(err), str(err)
    return [(type(value), repr(value)) for value in dataclasses.astuple(record)]


NUMERIC_STRINGS = ["0", "1", "-0", "1.0", "0.5", "2", "1e400", "-1e400", "nan", "inf", "-inf",
                   " 1 ", "1_0", "0x1", "", "abc", "١"]
NUMBERS = st.one_of(
    st.floats(), st.integers(), st.booleans(), st.sampled_from([0, 1, 0.0, 1.0, -0.0]),
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.booleans().map(np.bool_),
    st.sampled_from([np.uint8(0), np.uint8(1), np.int32(2)]),
    st.floats().map(repr), st.integers().map(str), st.sampled_from(NUMERIC_STRINGS),
    st.none(), st.just(Fraction(1, 3)),
)


@given(record_id=st.one_of(st.text(max_size=5), st.integers()), score=NUMBERS, response=NUMBERS)
@example(record_id="n", score=float("nan"), response=2)  # the response is judged first
@example(record_id="n", score="x", response="y")  # the score is converted first
@example(record_id="n", score=float("inf"), response=True)
@example(record_id="n", score=np.float64(-0.0), response=np.bool_(False))
def test_the_slotted_record_converts_and_refuses_as_the_dataclass_did(record_id, score, response):
    assert (record_outcome(ScoredRecord, record_id, score, response)
            == record_outcome(DictRecord, record_id, score, response))


def test_a_record_survives_pickle_and_copy():
    record = ScoredRecord("a", np.float64(2.5), np.bool_(True))
    copies = [pickle.loads(pickle.dumps(record, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in [*copies, copy.copy(record), copy.deepcopy(record)]:
        assert other == record and hash(other) == hash(record)
        assert type(other.score) is float and type(other.response) is int


def test_replace_builds_a_record_through_its_checks():
    record = ScoredRecord("a", 1.0, 0)
    assert dataclasses.replace(record, score=3, response=True) == ScoredRecord("a", 3.0, 1)
    with pytest.raises(ValueError, match="response must be 0 or 1"):
        dataclasses.replace(record, response=2)
    with pytest.raises(NonFiniteScore):
        dataclasses.replace(record, score=float("-inf"))


def test_a_record_hashes_and_compares_as_one_built_the_old_way():
    for values in [("a", 1.0, 0), ("b", -0.0, True), ("c", np.float32(0.1), np.int64(1))]:
        old, new = DictRecord(*values), ScoredRecord(*values)
        assert hash(new) == hash(old)
        assert new == ScoredRecord(*dataclasses.astuple(old))
        assert dataclasses.astuple(new) == dataclasses.astuple(old)
        assert repr(new) == repr(old).replace("DictRecord", "ScoredRecord")
    assert ScoredRecord("a", 1.0, 0) != ScoredRecord("a", 1.0, 1)


def test_a_record_is_frozen_and_holds_no_dict():
    record = ScoredRecord("a", 1.0, 0)
    for name in ("id", "score", "response"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
    # Another name has no slot; the frozen __setattr__ of a slotted dataclass
    # refuses it with TypeError on some Python versions.
    with pytest.raises((AttributeError, TypeError)):
        record.other = 1
    assert not hasattr(record, "__dict__")
    with pytest.raises(TypeError):
        vars(record)
    assert ScoredRecord.__slots__ == ("id", "score", "response")


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


def test_ranked_ids_do_not_follow_a_later_change_to_the_callers_list():
    ids = ["a", "b", "c"]
    ranked = rank_sample(SampleColumns(ids, [3.0, 1.0, 2.0], [True, False, False]))
    ids[:] = ["x"]
    assert ranked.ids.tolist() == ["b", "c", "a"] and ranked.records[2].id == "a"


def test_ranked_sample_validates_its_columns():
    with pytest.raises(EmptySample):
        RankedSample(SampleColumns([], [], []))


@pytest.mark.parametrize("policy, pop", [(TiePolicy.PESSIMISTIC, 100 / 3),
                                         (TiePolicy.MIDRANK, 50.0),
                                         (TiePolicy.OPTIMISTIC, 200 / 3)])
def test_a_tie_policy_named_by_string_ranks_like_its_member(policy, pop):
    records = [ScoredRecord("a", 1.0, 1), ScoredRecord("b", 1.0, 0), ScoredRecord("c", 2.0, 0)]
    by_member, by_name = rank_sample(records, policy), rank_sample(records, policy.value)
    assert by_name.tie_policy is policy
    assert by_name.twice_ranks.tolist() == by_member.twice_ranks.tolist()
    assert pop_exact(by_name) == pop_exact(by_member) == pytest.approx(pop, abs=1e-12)


def test_an_unknown_tie_policy_is_refused():
    with pytest.raises(ValueError, match="bogus"):
        RankedSample(SampleColumns(["a"], [1.0], [True]), "bogus")


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


@cache
def large_sample(shape):
    if shape == "ties-library":  # 50 000 generated rows with about 160 distinct scores
        columns = SampleColumns.from_records(generate_sample(50_000, Fraction(1, 25), 0.6, 11))
        return SampleColumns(columns.ids, np.round(columns.scores, 2), columns.responses)
    rng = np.random.default_rng(23)
    if shape == "all-equal":  # one tie group of every row
        return SampleColumns(range(100_000), np.full(100_000, 0.5), rng.random(100_000) < 0.3)
    scores = rng.permutation(200_000) / 8 - 1000  # unique: no group to repair
    return SampleColumns(range(200_000), scores, rng.random(200_000) < 0.04)


@pytest.mark.parametrize("policy", list(TiePolicy))
@pytest.mark.parametrize("shape, has_ties", [("ties-library", True), ("all-equal", True),
                                             ("unique", False)])
def test_large_samples_rank_in_the_stable_sort_order(shape, has_ties, policy):
    columns = large_sample(shape)
    ranked = RankedSample(columns, policy)
    np.testing.assert_array_equal(ranked.order, stable_rank_order(columns, policy))
    np.testing.assert_array_equal(ranked.scores, np.sort(columns.scores))
    assert ranked.has_ties is has_ties
