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
        rows = len(self.buckets)
        for name in ("beni_cumulative", "beni_max_cumulative", "attainment_ratio",
                     "pop_cumulative", "row_cutoffs"):
            if len(getattr(self, name)) != rows:
                raise ValueError(f"{name} must have one entry per bucket row")


def p_up_max_bucket(bucket_no: int, responders: int, spacing) -> float:
    """Bucket rank sum if all responders sit at the bucket top (descending row)."""
    if bucket_no < 1 or responders < 0:
        raise ValueError("bucket_no must be >= 1 and responders >= 0")
    s = to_fraction(spacing)
    return float(bucket_no * responders - s * ((responders - 1) * responders) / 2)


def p_up_min_bucket(bucket_no: int, responders: int, spacing) -> float:
    """Bucket rank sum if all responders sit at the bucket bottom (ascending row)."""
    if bucket_no < 1 or responders < 0:
        raise ValueError("bucket_no must be >= 1 and responders >= 0")
    if responders == 0:
        return 0.0
    s = to_fraction(spacing)
    return float((bucket_no - 1 + s) * responders + s * ((responders - 1) * responders) / 2)


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
    s = to_fraction(spacing)
    return float(bucket_count * responders_k - s * ((responders_k - 1) * responders_k) / 2)


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
    base_rate = sample.response_rate_r
    p_down = bucket_count * k - spacing * ((k - 1) * k) / 2

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
        mx = bno * resp - spacing * ((resp - 1) * resp) / 2
        mn = Fraction(0) if resp == 0 else (bno - 1 + spacing) * resp + spacing * ((resp - 1) * resp) / 2
        avg = (mx + mn) / 2
        sum_max += mx
        sum_min += mn
        sum_avg += avg
        cum_resp += resp
        cum_names += names_per_bucket

        beni_m = Fraction(resp, names_per_bucket) / base_rate * 100
        beni_c = Fraction(cum_resp, cum_names) / base_rate * 100
        row_cut = Fraction(cum_names, size)
        ceiling = 100 / row_cut if base_rate < row_cut else 100 / base_rate
        buckets.append(
            Bucket(
                bucket_no=bno,
                names=names_per_bucket,
                responders=resp,
                p_up_max=float(mx),
                p_up_min=float(mn),
                p_up_avg=float(avg),
                beni_marginal=float(beni_m),
                pop_marginal=float(avg / p_down * 100),
            )
        )
        beni_cum.append(float(beni_c))
        beni_max_cum.append(float(ceiling))
        attainment.append(float(beni_c / ceiling * 100))
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


def pop_approx(chart: GainsChart, variant: str = "avg") -> float:
    """Approximate score potential of a chart.

    variant selects the numerator: "avg" (default), "max" (all responders at
    their bucket tops, the stretch reading) or "min".
    """
    if variant == "avg":
        return chart.pop_approx
    if variant == "max":
        return chart.pop_max_variant
    if variant == "min":
        return chart.pop_min_variant
    raise ValueError(f"unknown variant {variant!r}")


def attainment_ratio_column(chart: GainsChart) -> list[float]:
    """Cumulative BenI over cumulative BenI ceiling per row, in percent."""
    return list(chart.attainment_ratio)
