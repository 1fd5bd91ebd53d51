"""Bucket-level gains chart: marginal/cumulative benefit index and approximate score potential.

Ranks are rescaled to bucket units (rank * #B/#X), so positions run from
just above 0 to #B.  Per bucket the responder rank sum is bracketed by the
descending arithmetic row from the bucket top (max) and the ascending row
from its bottom (min); the average of the two is the default approximation.
All column arithmetic is carried out on exact rationals and converted to
float only when stored, so printed tables reproduce the classic worked
values digit for digit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import IndivisibleBuckets, NoResponders
from .metrics import arithmetic_row, attainment_ratio, beni_ceiling, benefit_ratio
from .rounding import to_fraction
from .sample import RankedSample


@dataclass(frozen=True)
class Bucket:
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


def p_up_max_bucket(bucket_no: int, responders: int, spacing) -> float:
    """Bucket rank sum if all responders sit at the bucket top (descending row)."""
    if bucket_no < 1 or responders < 0:
        raise ValueError("bucket_no must be >= 1 and responders >= 0")
    return float(arithmetic_row(bucket_no, -to_fraction(spacing), responders))


def p_up_min_bucket(bucket_no: int, responders: int, spacing) -> float:
    """Bucket rank sum if all responders sit at the bucket bottom (ascending row)."""
    if bucket_no < 1 or responders < 0:
        raise ValueError("bucket_no must be >= 1 and responders >= 0")
    s = to_fraction(spacing)
    return float(arithmetic_row(bucket_no - 1 + s, s, responders))


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
    return float(arithmetic_row(bucket_count, -to_fraction(spacing), responders_k))


def build_gains_chart(sample: RankedSample, bucket_count: int) -> GainsChart:
    """Assign the ranked sample to equal-size buckets and fill every column."""
    size = sample.size_x
    if bucket_count < 1 or size % bucket_count != 0:
        raise IndivisibleBuckets(size, bucket_count)
    k = sample.responders_k
    if k == 0:
        raise NoResponders()

    names_per_bucket = size // bucket_count
    spacing = Fraction(bucket_count, size)
    down_step = -spacing  # the step of the descending rows (bucket tops, P-down)
    base_rate = sample.response_rate_r
    p_down = arithmetic_row(bucket_count, down_step, k)

    # Responders per bucket, walking buckets top-down (highest scores first).
    responder_counts = np.diff(sample.top_responders[::names_per_bucket]).tolist()

    buckets = []
    beni_cum = []
    beni_max_cum = []
    attainment = []
    pop_cum = []
    row_cutoffs = []
    sum_avg = Fraction(0)
    sum_max = Fraction(0)
    sum_min = Fraction(0)
    cum_resp = 0
    cum_names = 0
    for row, resp in enumerate(responder_counts):
        bno = bucket_count - row
        cum_resp += resp
        cum_names += names_per_bucket
        if resp == 0:  # every marginal column is 0
            marginal = (0.0, 0.0, 0.0, 0.0, 0.0)
        else:
            mx = arithmetic_row(bno, down_step, resp)
            mn = arithmetic_row(bno - 1 + spacing, spacing, resp)
            avg = (mx + mn) / 2
            sum_max += mx
            sum_min += mn
            sum_avg += avg
            beni_m = benefit_ratio(Fraction(resp, names_per_bucket), base_rate)
            marginal = (float(mx), float(mn), float(avg), float(beni_m),
                        float(avg / p_down * 100))

        beni_c = benefit_ratio(Fraction(cum_resp, cum_names), base_rate)
        row_cut = Fraction(cum_names, size)
        ceiling = beni_ceiling(row_cut, base_rate)
        buckets.append(Bucket(bno, names_per_bucket, resp, *marginal))
        beni_cum.append(float(beni_c))
        beni_max_cum.append(float(ceiling))
        attainment.append(float(attainment_ratio(beni_c, ceiling)))
        pop_cum.append(float(sum_avg / p_down * 100))
        row_cutoffs.append(row_cut)

    return GainsChart(
        buckets=tuple(buckets),
        bucket_count=bucket_count,
        sample_size=size,
        base_rate=base_rate,
        spacing=spacing,
        p_down_chart=float(p_down),
        pop_approx=float(sum_avg / p_down * 100),
        pop_min_variant=float(sum_min / p_down * 100),
        pop_max_variant=float(sum_max / p_down * 100),
        beni_cumulative=tuple(beni_cum),
        beni_max_cumulative=tuple(beni_max_cum),
        attainment_ratio=tuple(attainment),
        pop_cumulative=tuple(pop_cum),
        row_cutoffs=tuple(row_cutoffs),
    )
