"""Scored records, columnar score-ascending ranking with tie policies, cut-off fractions
and deterministic synthetic samples."""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterable, MutableSequence, Sequence

import numpy as np

from .errors import EmptySample, NonFiniteScore
from .rounding import round_half_up, to_fraction


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


@dataclass(frozen=True, init=False)
class ScoredRecord:
    """One promotable name: identifier, model score, observed binary response (no __dict__)."""

    # By hand: slots=True makes a new class, which the frozen __setattr__ does not know.
    __slots__ = ("id", "score", "response")
    id: str
    score: float
    response: int

    def __init__(self, id: str, score: float, response: int):
        score, response = float(score), int(response)
        if response not in (0, 1):
            raise ValueError(f"record {id!r}: response must be 0 or 1")
        if not math.isfinite(score):
            raise NonFiniteScore(id)
        _set_id(self, id)  # frozen: each slot is set once, past __setattr__, by its descriptor
        _set_score(self, score)
        _set_response(self, response)

    def __reduce__(self):
        """Pickle and copy rebuild a record by its constructor, not by the frozen __setattr__."""
        return ScoredRecord, (self.id, self.score, self.response)


_set_id, _set_score, _set_response = (ScoredRecord.__dict__[name].__set__
                                      for name in ("id", "score", "response"))


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


# The settings of an evaluation that names none: ten buckets, and the ten decile cut-offs.
DEFAULT_BUCKET_COUNT = 10
DECILE_CUTOFFS = tuple(CutOff(Fraction(i, 10)) for i in range(1, 11))


# A tie-repair key is below (2·groups + 2)·n ≤ (n + 2)·n: int64 under this bound, else Python int.
KEY_INT64_BOUND = 2**63


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
        if (non_finite := np.flatnonzero(~np.isfinite(scores))).size:
            raise NonFiniteScore(self.ids[non_finite[0]])
        vars(self).update(scores=scores, responses=responses.astype(np.bool_, copy=False))

    @classmethod
    def from_records(cls, records: Iterable[ScoredRecord]) -> SampleColumns:
        records = list(records)
        return cls([r.id for r in records], np.array([r.score for r in records], np.float64),
                   np.array([r.response for r in records], np.bool_))

    def __len__(self) -> int:
        return len(self.ids)

    def records(self) -> list[ScoredRecord]:
        return list(map(ScoredRecord, self.ids, self.scores.tolist(), self.responses.tolist()))


@dataclass(frozen=True, eq=False)
class RankedSample:
    """A sample ranked by ascending score under a tie policy, as read-only columns.

    Position p holds rank p+1's record: rank 1 belongs to the lowest score,
    rank #X to the highest.  An unstable argsort orders by score; one sort of the
    tied positions by a packed key (tie group, response flag but for midrank,
    input index) makes that the stable order, so buckets and cut-offs slice
    positionally.  twice_ranks holds each rank doubled (int64): midranks stay
    integers.  ids (id_source through order, the permutation into rank order),
    records and ranks are built when read.  A mutable id_source (a list or an array) is copied.
    """

    sample: InitVar[SampleColumns]
    tie_policy: TiePolicy = TiePolicy.MIDRANK
    id_source: Sequence[str] = field(init=False)
    scores: np.ndarray = field(init=False)
    responses: np.ndarray = field(init=False)
    twice_ranks: np.ndarray = field(init=False)
    order: np.ndarray = field(init=False)
    has_ties: bool = field(init=False)

    def __post_init__(self, sample: SampleColumns):
        tie_policy, n = TiePolicy(self.tie_policy), len(sample)
        if n == 0:
            raise EmptySample()
        order = np.argsort(sample.scores)  # unstable: the tie groups are repaired below
        scores = sample.scores[order]
        first = np.concatenate(([True], scores[1:] != scores[:-1]))  # starts a tie group
        twice_ranks = np.arange(2, 2 * n + 1, 2, dtype=np.int64)
        if has_ties := not first.all():  # sort the tied positions by one packed key
            tied = ~(first & np.append(first[1:], True))
            dtype = np.int64 if (n + 2) * n < KEY_INT64_BOUND else object
            key = np.cumsum(first[tied], dtype=dtype) * (2 * n) + order[tied]  # group·2n + index
            if tie_policy is not TiePolicy.MIDRANK:  # + flag·n; responders low if pessimistic
                key += (sample.responses[order[tied]] != (tie_policy is TiePolicy.PESSIMISTIC)) * n
            key.sort()
            order[tied] = np.remainder(key, n, out=key)
            scores[tied] = sample.scores[order[tied]]  # -0.0 and 0.0 keep their signs
            if tie_policy is TiePolicy.MIDRANK:  # a tie group at i..j shares rank (i+1 + j+1)/2
                sizes = np.diff(starts := np.flatnonzero(first), append=n)
                twice_ranks = np.repeat(2 * starts + sizes + 1, sizes)
        responses = sample.responses[order]
        for column in (scores, responses, twice_ranks, order):
            column.flags.writeable = False
        copy = isinstance(sample.ids, MutableSequence) or not isinstance(sample.ids, Sequence)
        id_source = tuple(sample.ids) if copy else sample.ids
        # Frozen: set the derived fields past __setattr__.
        vars(self).update(tie_policy=tie_policy, id_source=id_source, scores=scores, order=order,
                          responses=responses, twice_ranks=twice_ranks, has_ties=has_ties)

    @property
    def size_x(self) -> int:
        return len(self.scores)

    @cached_property
    def ids(self) -> np.ndarray:
        ids = np.fromiter(self.id_source, dtype=object, count=self.size_x)[self.order]
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
    def records(self) -> tuple[ScoredRecord, ...]:
        return tuple(map(ScoredRecord, self.ids, self.scores.tolist(), self.responses.tolist()))

    @cached_property
    def ranks(self) -> tuple[float, ...]:
        return tuple((self.twice_ranks / 2).tolist())


def rank_sample(sample: SampleColumns | Iterable[ScoredRecord],
                tie_policy: TiePolicy = TiePolicy.MIDRANK) -> RankedSample:
    """Rank columns, or records taken to columns first, by ascending score (RankedSample)."""
    columns = sample if isinstance(sample, SampleColumns) else SampleColumns.from_records(sample)
    return RankedSample(columns, tie_policy)


def generate_columns(size: int, base_rate, quality: float, seed: int) -> SampleColumns:
    """Deterministic synthetic sample with a tunable signal-to-noise mix, as columns.

    Scores are uniform noise plus quality * response, so the two classes
    overlap by exactly 1 - quality: quality 0 carries no information,
    quality 1 puts every responder above every non-responder, and expected
    score potential rises monotonically in between.  The realized responder
    count is the half-up rounding of base_rate * size.  Ids are n000001,
    n000002, ... (at least six digits).
    """
    if size < 1:
        raise ValueError("size must be positive")
    rate = to_fraction(base_rate)
    if not 0 < rate <= 1:
        raise ValueError("base rate must lie in (0, 1]")
    if not 0 <= quality <= 1:
        raise ValueError("quality must lie in [0, 1]")
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")

    k = round_half_up(rate * size)
    rng = np.random.default_rng(seed)
    responses = np.zeros(size, dtype=np.bool_)
    responses[rng.choice(size, k, replace=False)] = True
    scores = rng.random(size) + quality * responses
    width = max(6, len(str(size)))
    ids = []
    # A slice at a time bounds the buffers; a row holds 'n', the digits and a comma.
    for start in range(1, size + 1, 1 << 16):
        numbers = np.arange(start, min(start + (1 << 16), size + 1))
        cells = np.full((len(numbers), width + 2), ord("n"), np.uint8)
        cells[:, -1] = ord(",")
        for column in range(width, 0, -1):
            numbers, cells[:, column] = np.divmod(numbers, 10)
        cells[:, 1:-1] += ord("0")
        ids += cells.tobytes().decode("ascii").split(",")[:-1]
    return SampleColumns(ids, scores, responses)


def generate_sample(size: int, base_rate, quality: float, seed: int) -> list[ScoredRecord]:
    """The sample of generate_columns as records, in the same order."""
    return generate_columns(size, base_rate, quality, seed).records()
