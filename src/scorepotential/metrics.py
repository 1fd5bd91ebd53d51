"""Benefit index and exact score potential on an individually ranked sample.

The benefit index (BenI) is the pass-set response rate over the whole-sample
rate, times 100; it depends on the chosen cut-off.  Score potential (PoP) is
the sum of responder ranks over the best achievable such sum, times 100; it
takes no cut-off at all.  Rates are treated as exact rationals so that the
classic worked values (187.5, 250, 74.07...) come out bit-exact.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import (
    CutoffTooSmall,
    DegenerateClasses,
    NoResponders,
    ZeroBaseRate,
)
from .rounding import round_half_up, to_fraction
from .sample import CutOff, RankedSample


def beni(optimized_rate, base_rate) -> float:
    """Benefit index: optimized response rate over base rate, times 100."""
    optimized = to_fraction(optimized_rate)
    base = to_fraction(base_rate)
    if base == 0:
        raise ZeroBaseRate()
    if not (0 <= optimized <= 1 and 0 < base <= 1):
        raise ValueError("response rates must lie in [0, 1]")
    return float(optimized / base * 100)


def beni_max(cut: CutOff, base_rate) -> float:
    """Theoretical ceiling of the benefit index at a cut-off.

    100/cut-off while the base rate is below the cut-off; once the pass set
    could consist purely of responders the ceiling is 100/base-rate instead.
    """
    base = to_fraction(base_rate)
    if base == 0:
        raise ZeroBaseRate()
    if not 0 < base <= 1:
        raise ValueError("base rate must lie in (0, 1]")
    if base < cut.fraction:
        return float(100 / cut.fraction)
    return float(100 / base)


def selection_count(sample_size: int, cut: CutOff) -> int:
    """Number of pass names at a cut-off: half-up rounding of fraction * #X."""
    return round_half_up(cut.fraction * sample_size)


def beni_at_cutoff(sample: RankedSample, cut: CutOff) -> float:
    """Benefit index of the top cut-off share of a ranked sample."""
    if sample.responders_k == 0:
        raise NoResponders()
    n = selection_count(sample.size_x, cut)
    if n == 0:
        raise CutoffTooSmall(cut.fraction, sample.size_x)
    return beni(Fraction(int(sample.top_responders[n]), n), sample.response_rate_r)


def perfect_rank_sum(size_x: int, responders_k: int) -> int:
    """Sum of the top-k ranks of a size-X sample: k*X - k(k-1)/2."""
    if not 0 <= responders_k <= size_x:
        raise ValueError("responder count must lie in [0, sample size]")
    return responders_k * size_x - responders_k * (responders_k - 1) // 2


def pop_numerator_exact(sample: RankedSample) -> float:
    """Sum of responder ranks (midranks under ties).

    Summed as doubled ranks in exact integers and halved once, so it is the
    same float as a running sum of the ranks below 2**53.
    """
    return int(sample.twice_ranks[sample.responses].sum()) / 2


def pop_denominator_exact(sample: RankedSample) -> float:
    """Best achievable responder rank sum: all k responders on the top ranks."""
    if sample.responders_k == 0:
        raise NoResponders()
    return float(perfect_rank_sum(sample.size_x, sample.responders_k))


def pop_exact(sample: RankedSample) -> float:
    """Score potential in percent: achieved over best achievable rank sum."""
    return 100.0 * pop_numerator_exact(sample) / pop_denominator_exact(sample)


def auc_crosscheck(sample: RankedSample) -> float:
    """Mann-Whitney AUC by counting score comparisons (ties count half).

    Counts, for every responder, the non-responders scored below it and
    level with it, by binary search in the sorted non-responder scores:
    O(X log X) time, O(X) memory.  It reads scores only, never ranks, so it
    stays independent of the rank-sum path; the affine identity
    P_up = AUC * k(X-k) + k(k+1)/2 ties the two together under midranks.
    """
    responders = sample.scores[sample.responses]
    others = np.sort(sample.scores[~sample.responses])
    if responders.size == 0 or others.size == 0:
        raise DegenerateClasses()
    below = np.searchsorted(others, responders, side="left")
    not_above = np.searchsorted(others, responders, side="right")
    wins = int(below.sum())
    ties = int(not_above.sum()) - wins
    return (wins + 0.5 * ties) / (responders.size * others.size)
