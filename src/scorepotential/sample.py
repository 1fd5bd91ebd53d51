"""Scored records, columnar score-ascending ranking with tie policies, and cut-off fractions."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterable, MutableSequence, Sequence

import numpy as np

from .errors import EmptySample, NonFiniteScore
from .rounding import to_fraction


class TiePolicy(str, Enum):
    """How tied scores share the ranks they occupy.

    midrank assigns every tied record the mean of the occupied ranks (the
    standard rank-statistic treatment).  pessimistic pushes responders to
    the low end of the tie group, optimistic to the high end; together they
    bound the score potential of a sample with ties.
    """

    MIDRANK = "midrank"
    PESSIMISTIC = "pessimistic"
    OPTIMISTIC = "optimistic"


@dataclass(frozen=True)
class ScoredRecord:
    """One promotable name: identifier, model score, observed binary response."""

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


@dataclass(frozen=True)
class CutOff:
    """Fraction of the top-scored names selected for promotion (pass / total)."""

    fraction: Fraction

    def __post_init__(self):
        object.__setattr__(self, "fraction", to_fraction(self.fraction))
        if not 0 < self.fraction <= 1:
            raise ValueError(f"cut-off fraction must be in (0, 1], got {self.fraction}")

    def __str__(self) -> str:
        return f"{float(self.fraction) * 100:g}%"


def _records(ids, scores: np.ndarray, responses: np.ndarray) -> list[ScoredRecord]:
    return [
        ScoredRecord(record_id, score, response)
        for record_id, score, response in zip(ids, scores.tolist(), responses.tolist())
    ]


@dataclass(frozen=True, eq=False)
class SampleColumns:
    """A scored sample as parallel columns in input order: what the ranker reads.

    ids are kept only to rebuild records; scores are float64 and must be
    finite, responses are booleans (or 0/1).
    """

    ids: Sequence[str]
    scores: np.ndarray
    responses: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        responses = np.asarray(self.responses)
        if not len(self.ids) == len(scores) == len(responses):
            raise ValueError("ids, scores and responses must be parallel")
        if responses.dtype != np.bool_ and not np.isin(responses, (0, 1)).all():
            raise ValueError("responses must be 0 or 1")
        non_finite = np.flatnonzero(~np.isfinite(scores))
        if non_finite.size:
            raise NonFiniteScore(self.ids[non_finite[0]])
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "responses", responses.astype(np.bool_, copy=False))

    @classmethod
    def from_records(cls, records: Iterable[ScoredRecord]) -> SampleColumns:
        records = list(records)
        return cls(
            [r.id for r in records],
            np.array([r.score for r in records], dtype=np.float64),
            np.array([r.response for r in records], dtype=np.bool_),
        )

    def __len__(self) -> int:
        return len(self.ids)

    def records(self) -> list[ScoredRecord]:
        return _records(self.ids, self.scores, self.responses)


@dataclass(frozen=True, eq=False)
class RankedSample:
    """A test sample ordered by ascending score, held as read-only columns.

    Position p holds rank p+1's record: rank 1 belongs to the lowest score,
    rank #X to the highest.  Within a tie group the order is already adjusted
    for the tie policy, so buckets and cut-offs can slice positionally.
    twice_ranks holds each rank doubled, as int64, so midranks (halves of
    integers) stay exact integers.  ids is id_source in rank order, taken
    through order where given; ids, records and ranks are built when read.
    A mutable id_source (a list or an array) is copied, so that a later
    change to it does not reach the sample.
    """

    id_source: Sequence[str]
    scores: np.ndarray
    responses: np.ndarray
    twice_ranks: np.ndarray
    tie_policy: TiePolicy = TiePolicy.MIDRANK
    order: np.ndarray | None = None

    def __post_init__(self):
        for name, dtype in (("scores", np.float64), ("responses", np.bool_),
                            ("twice_ranks", np.int64)):
            column = np.array(getattr(self, name), dtype=dtype)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        if isinstance(self.id_source, MutableSequence) or not isinstance(self.id_source, Sequence):
            object.__setattr__(self, "id_source", tuple(self.id_source))
        n = len(self.scores)
        if n == 0:
            raise EmptySample()
        if not (n == len(self.id_source) == len(self.responses) == len(self.twice_ranks)
                and (self.order is None or len(self.order) == n)):
            raise ValueError("ids, scores, responses and ranks must be parallel")
        if not (self.scores[:-1] <= self.scores[1:]).all():
            raise ValueError("records must be ordered by ascending score")
        if int(self.twice_ranks.sum()) != n * (n + 1):
            raise ValueError("rank sum must equal #X(#X+1)/2")

    @property
    def size_x(self) -> int:
        return len(self.scores)

    @cached_property
    def ids(self) -> np.ndarray:
        ids = np.fromiter(self.id_source, dtype=object, count=self.size_x)
        ids = ids if self.order is None else ids[self.order]
        ids.flags.writeable = False
        return ids

    @cached_property
    def top_responders(self) -> np.ndarray:
        """Entry n counts the responders among the n highest-ranked records (n = 0..#X)."""
        counts = np.zeros(self.size_x + 1, dtype=np.int64)
        np.cumsum(self.responses[::-1], out=counts[1:])
        counts.flags.writeable = False
        return counts

    @cached_property
    def responders_k(self) -> int:
        return int(self.top_responders[-1])

    @cached_property
    def response_rate_r(self) -> Fraction:
        return Fraction(self.responders_k, self.size_x)

    @cached_property
    def has_ties(self) -> bool:
        return bool((self.scores[:-1] == self.scores[1:]).any())

    @cached_property
    def records(self) -> tuple[ScoredRecord, ...]:
        return tuple(_records(self.ids, self.scores, self.responses))

    @cached_property
    def ranks(self) -> tuple[float, ...]:
        return tuple((self.twice_ranks / 2).tolist())


def rank_sample(
    sample: SampleColumns | Iterable[ScoredRecord],
    tie_policy: TiePolicy = TiePolicy.MIDRANK,
) -> RankedSample:
    """Rank a sample ascending by score, resolving ties per the given policy.

    Takes columns, or records whose columns are extracted first.  The sorts
    are stable, so input order is preserved within tie groups (before the
    policy moves responders), which makes ranking deterministic for repeated
    runs.
    """
    columns = sample if isinstance(sample, SampleColumns) else SampleColumns.from_records(sample)
    n = len(columns)
    if tie_policy is TiePolicy.MIDRANK:
        order = np.argsort(columns.scores, kind="stable")
    elif tie_policy is TiePolicy.PESSIMISTIC:
        order = np.lexsort((~columns.responses, columns.scores))
    else:
        order = np.lexsort((columns.responses, columns.scores))
    scores = columns.scores[order]

    if tie_policy is TiePolicy.MIDRANK:
        # A tie group over positions i..j shares the midrank (i+1 + j+1)/2.
        starts = np.flatnonzero(np.concatenate(([True], scores[1:] != scores[:-1])))
        ends = np.append(starts[1:], n) - 1
        twice_ranks = np.repeat(starts + ends + 2, ends - starts + 1)
    else:
        twice_ranks = np.arange(2, 2 * n + 1, 2)

    return RankedSample(columns.ids, scores, columns.responses[order], twice_ranks, tie_policy,
                        order)
