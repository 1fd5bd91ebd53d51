"""Bucket-level gains chart: marginal/cumulative benefit index and approximate score potential.

Ranks are rescaled to bucket units (rank * #B/#X), so positions run from
just above 0 to #B.  Per bucket the responder rank sum is bracketed by the
descending arithmetic row from the bucket top (max) and the ascending row
from its bottom (min); the average of the two is the default approximation.
Every column is a ratio of two ints (rank sums are held as #X times their
value in bucket units), rounded once when it is stored, so printed tables
reproduce the classic worked values digit for digit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import IndivisibleBuckets, NoResponders
from .metrics import benefit_index, ceiling_and_attainment, rank_sum_bounds
from .rounding import fraction_cell
from .sample import RankedSample

# Each chart operand is at most 200*k*X**2: below 2**53 it is an exact double in
# int64 columns, where one division rounds as Python's int division; else Python ints.
EXACT_INT64_BOUND = 2**53


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
    i+1 buckets, i.e. the cut-off ``row_cutoffs[i]``.  Every figure follows
    from sample_size and the buckets' responders, and is checked against them.
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
        count, size = len(self.buckets), self.sample_size
        if not count or size < 1 or size % count:
            raise ValueError("sample_size must be a positive multiple of the number of buckets")
        responders = [b.responders for b in self.buckets]
        if not all(0 <= r <= size // count for r in responders) or not any(responders):
            raise ValueError("each bucket's responders must lie in [0, names], not all at 0")
        stored = dict(zip(Bucket._fields, zip(*self.buckets)))
        for name, rebuilt in _columns(size, responders).items():
            if (stored[name] if name in stored else getattr(self, name)) != rebuilt:
                raise ValueError(f"{name} must follow from sample_size and the responders")


@lru_cache(maxsize=16)
def _row_cutoffs(bucket_count: int) -> tuple[tuple[Fraction, ...], tuple[str, ...]]:
    """The cut-offs 1/B, ..., 1 of a chart's rows as their cells load, and their cells' text."""
    text = tuple(str(Fraction(row, bucket_count)) for row in range(1, bucket_count + 1))
    return tuple(map(fraction_cell, text)), text


def build_gains_chart(sample: RankedSample, bucket_count: int) -> GainsChart:
    """Assign the ranked sample to equal-size buckets and fill every column."""
    size = sample.size_x
    if bucket_count < 1 or size % bucket_count != 0:
        raise IndivisibleBuckets(size, bucket_count)
    if sample.responders_k == 0:
        raise NoResponders()
    # Responders per bucket, walking buckets top-down (highest scores first).
    columns = _columns(size, np.diff(sample.top_responders[::size // bucket_count]).tolist())
    return GainsChart(tuple(map(Bucket, *map(columns.pop, Bucket._fields))), **columns)


def _columns(size: int, responders: list[int]) -> dict:
    """Every field of a chart, each bucket field as a column, from its responders per bucket."""
    count, k = len(responders), sum(responders)
    names = size // count
    dtype = np.int64 if 200 * k * size * size < EXACT_INT64_BOUND else object
    bucket_no, resp = np.arange(count, 0, -1, dtype=dtype), np.array(responders, dtype=dtype)
    hits, cum_names = np.cumsum(resp), names * np.arange(1, count + 1, dtype=dtype)
    # Rank sums are kept as size times their value in bucket units: ints.
    p_down = rank_sum_bounds(count, k, count, size)[0]
    top, bottom = rank_sum_bounds(bucket_no, resp, count, size)
    both = top + bottom  # twice the average of the bounds
    ceiling, attainment = ceiling_and_attainment(hits, cum_names, cum_names, size, k, size)
    columns = {name: tuple(column.tolist()) for name, column in dict(
        bucket_no=bucket_no, names=np.full(count, names, dtype=dtype), responders=resp,
        p_up_max=top / size, p_up_min=bottom / size, p_up_avg=both / (2 * size),
        beni_marginal=benefit_index(resp, names, k, size), pop_marginal=100 * both / (2 * p_down),
        beni_cumulative=benefit_index(hits, cum_names, k, size), beni_max_cumulative=ceiling,
        attainment_ratio=attainment, pop_cumulative=100 * np.cumsum(both) / (2 * p_down)).items()}
    return {**columns, "bucket_count": count, "sample_size": size,
            "base_rate": Fraction(k, size), "spacing": Fraction(count, size),
            "p_down_chart": p_down / size, "pop_approx": columns["pop_cumulative"][-1],
            "pop_min_variant": 100 * int(bottom.sum()) / p_down,
            "pop_max_variant": 100 * int(top.sum()) / p_down, "row_cutoffs": _row_cutoffs(count)[0]}
