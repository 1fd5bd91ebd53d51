"""Bucket-level gains chart: marginal/cumulative benefit index and approximate score potential.

Ranks are rescaled to bucket units (rank * #B/#X), so positions run from
just above 0 to #B.  Per bucket the responder rank sum is bracketed by the
descending arithmetic row from the bucket top (max) and the ascending row
from its bottom (min); the average of the two is the default approximation.
Every column is a ratio of two Python ints (rank sums are held as #X times
their value in bucket units), rounded once when it is stored, so printed
tables reproduce the classic worked values digit for digit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import IndivisibleBuckets, NoResponders
from .metrics import benefit_index, ceiling_and_attainment, rank_sum_bounds
from .rounding import to_fraction
from .sample import RankedSample


class Bucket(NamedTuple):
    """One score-ranked bucket with its marginal columns."""

    bucket_no: int
    names: int
    responders: int
    p_up_max: float
    p_up_min: float
    p_up_avg: float
    beni_marginal: float
    pop_marginal: float


@dataclass(frozen=True)
class GainsChart:
    """A full chart: buckets stored top-down (highest bucket number first).

    The cumulative tuples are aligned with ``buckets``; row i covers the top
    i+1 buckets, i.e. the cut-off ``row_cutoffs[i]``.
    """

    buckets: tuple[Bucket, ...]
    bucket_count: int
    sample_size: int
    base_rate: Fraction
    spacing: Fraction
    p_down_chart: float
    pop_approx: float
    pop_min_variant: float
    pop_max_variant: float
    beni_cumulative: tuple[float, ...]
    beni_max_cumulative: tuple[float, ...]
    attainment_ratio: tuple[float, ...]
    pop_cumulative: tuple[float, ...]
    row_cutoffs: tuple[Fraction, ...]

    def __post_init__(self):
        for name in ("buckets", "beni_cumulative", "beni_max_cumulative", "attainment_ratio",
                     "pop_cumulative", "row_cutoffs"):
            if len(getattr(self, name)) != self.bucket_count:
                raise ValueError(f"{name} must have bucket_count ({self.bucket_count}) entries")
        if not self.pop_cumulative or self.pop_approx != self.pop_cumulative[-1]:
            raise ValueError("pop_approx must equal the last pop_cumulative entry")
        # Each is a ratio of ints, rounded once, so a built chart never fails these.
        if not self.pop_min_variant <= self.pop_approx <= self.pop_max_variant:
            raise ValueError("pop_approx must lie between pop_min_variant and pop_max_variant")
        if not all(b.p_up_min <= b.p_up_avg <= b.p_up_max for b in self.buckets):
            raise ValueError("each bucket's p_up_avg must lie between its p_up_min and p_up_max")
        # The figures that follow from the bucket count and rows.
        size, k = self.sample_size, sum(b.responders for b in self.buckets)
        if size < 1 or size != sum(b.names for b in self.buckets):
            raise ValueError("sample_size must be the sum of the buckets' names")
        count = self.bucket_count
        for name, derived in (("spacing", Fraction(count, size)), ("base_rate", Fraction(k, size)),
                              ("p_down_chart", rank_sum_bounds(count, k, count, size)[0] / size),
                              ("row_cutoffs", _row_cutoffs(count))):
            if getattr(self, name) != derived:
                raise ValueError(f"{name} must follow from the bucket count and rows")


@lru_cache(maxsize=16)
def _row_cutoffs(bucket_count: int) -> tuple[Fraction, ...]:
    """The cut-offs 1/B, 2/B, ..., 1 of a chart's rows, one tuple per bucket count."""
    return tuple(Fraction(row, bucket_count) for row in range(1, bucket_count + 1))


def _bucket_bounds(bucket_no: int, responders: int, spacing) -> tuple[float, float]:
    """P-up max and min of a bucket (rank_sum_bounds) at any spacing."""
    if bucket_no < 1 or responders < 0:
        raise ValueError("bucket_no must be >= 1 and responders >= 0")
    units, scale = to_fraction(spacing).as_integer_ratio()
    top, bottom = rank_sum_bounds(bucket_no, responders, units, scale)
    return top / scale, bottom / scale


def p_up_max_bucket(bucket_no: int, responders: int, spacing) -> float:
    """Bucket rank sum if all responders sit at the bucket top (descending row)."""
    return _bucket_bounds(bucket_no, responders, spacing)[0]


def p_up_min_bucket(bucket_no: int, responders: int, spacing) -> float:
    """Bucket rank sum if all responders sit at the bucket bottom (ascending row)."""
    return _bucket_bounds(bucket_no, responders, spacing)[1]


def p_up_avg_bucket(max_value: float, min_value: float) -> float:
    """Arithmetic mean of the two bucket rank-sum bounds."""
    if min_value > max_value:
        raise ValueError("min bound exceeds max bound")
    return (max_value + min_value) / 2


def pop_denominator_chart(bucket_count: int, responders_k: int, spacing) -> float:
    """Best achievable rank sum in bucket units: #B*k - spacing*(k-1)k/2.

    Equals spacing times the exact rank denominator, so chart-level and
    rank-level score potentials share one scale.
    """
    if responders_k < 1:
        raise NoResponders()
    return _bucket_bounds(bucket_count, responders_k, spacing)[0]


def build_gains_chart(sample: RankedSample, bucket_count: int) -> GainsChart:
    """Assign the ranked sample to equal-size buckets and fill every column."""
    size = sample.size_x
    if bucket_count < 1 or size % bucket_count != 0:
        raise IndivisibleBuckets(size, bucket_count)
    k = sample.responders_k
    if k == 0:
        raise NoResponders()

    names_per_bucket = size // bucket_count
    # Rank sums are kept as size times their value in bucket units: ints.
    p_down = rank_sum_bounds(bucket_count, k, bucket_count, size)[0]

    # Responders per bucket, walking buckets top-down (highest scores first).
    responder_counts = np.diff(sample.top_responders[::names_per_bucket]).tolist()

    buckets, beni_cum, beni_max_cum, attainment, pop_cum = [], [], [], [], []
    sum_max = sum_min = cum_resp = cum_names = 0
    for row, resp in enumerate(responder_counts):
        bno = bucket_count - row
        cum_resp += resp
        cum_names += names_per_bucket
        mx, mn = rank_sum_bounds(bno, resp, bucket_count, size)
        sum_max += mx
        sum_min += mn
        buckets.append(Bucket(bno, names_per_bucket, resp, mx / size, mn / size,
                              (mx + mn) / (2 * size),
                              benefit_index(resp, names_per_bucket, k, size),
                              100 * (mx + mn) / (2 * p_down)))
        beni_cum.append(benefit_index(cum_resp, cum_names, k, size))
        ceiling, attained = ceiling_and_attainment(cum_resp, cum_names, cum_names, size, k, size)
        beni_max_cum.append(ceiling)
        attainment.append(attained)
        pop_cum.append(100 * (sum_max + sum_min) / (2 * p_down))

    return GainsChart(
        buckets=tuple(buckets),
        bucket_count=bucket_count,
        sample_size=size,
        base_rate=sample.response_rate_r,
        spacing=Fraction(bucket_count, size),
        p_down_chart=p_down / size,
        pop_approx=pop_cum[-1],
        pop_min_variant=100 * sum_min / p_down,
        pop_max_variant=100 * sum_max / p_down,
        beni_cumulative=tuple(beni_cum),
        beni_max_cumulative=tuple(beni_max_cum),
        attainment_ratio=tuple(attainment),
        pop_cumulative=tuple(pop_cum),
        row_cutoffs=_row_cutoffs(bucket_count),
    )
