"""Batch model evaluation, deterministic comparison ranking, synthetic samples."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isfinite
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import EmptyBatch, errors_naming
from .gains import GainsChart, build_gains_chart
from .metrics import (benefit_index, beni_at_cutoff, ceiling_and_attainment, pop_exact,
                      selection_count)
from .rounding import round_half_up, to_fraction
from .sample import CutOff, RankedSample, SampleColumns, ScoredRecord

DECILE_CUTOFFS = tuple(CutOff(Fraction(i, 10)) for i in range(1, 11))


class BeniPoint(NamedTuple):
    """Benefit index, its ceiling, and the attainment ratio at one cut-off."""

    beni: float
    beni_max: float
    attainment_ratio: float


def _beni_point(hits: int, names: int, cut: CutOff, responders: int, size: int) -> BeniPoint:
    """The profile point of a pass set of names at cut, holding hits of the responders."""
    return BeniPoint(benefit_index(hits, names, responders, size), *ceiling_and_attainment(
        hits, names, *cut.fraction.as_integer_ratio(), responders, size))


@dataclass(frozen=True)
class EvaluationContext:
    """Everything one evaluation needs besides the model id."""

    sample: RankedSample
    bucket_count: int = 10
    cutoffs_of_interest: tuple[CutOff, ...] = DECILE_CUTOFFS
    stretch_target: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "cutoffs_of_interest", check_settings(
            self.bucket_count, self.cutoffs_of_interest, self.stretch_target))


def check_settings(bucket_count: int, cutoffs: Iterable[CutOff],
                   stretch_target: float | None) -> tuple[CutOff, ...]:
    """The rules of an evaluation's settings; returns the cut-offs sorted, each once."""
    if bucket_count < 1:
        raise ValueError("bucket count must be positive")
    cuts = tuple(sorted(set(cutoffs), key=lambda c: c.fraction))
    if not cuts:
        raise ValueError("at least one cut-off of interest is required")
    _check_target(stretch_target)
    return cuts


def _check_target(stretch_target: float | None) -> None:
    if stretch_target is not None and not 0 < stretch_target <= 100:
        raise ValueError("stretch target must lie in (0, 100]")


def _meets_target(pop: float, stretch_target: float | None) -> bool | None:
    """The stretch-target gate: whether pop reaches the target, None without one."""
    return None if stretch_target is None else pop >= stretch_target


@dataclass(frozen=True)
class ModelEvaluation:
    """Full metric report for one model."""

    model_id: str
    pop_exact: float
    gains: GainsChart
    beni_profile: dict[CutOff, BeniPoint]
    meets_stretch_target: bool | None = None
    stretch_target: float | None = None
    degeneracy_flags: frozenset[str] = frozenset()

    def __post_init__(self):
        if not isinstance(self.model_id, str):
            raise ValueError(f"model_id must be a string, not {self.model_id!r}")
        if not 0 <= self.pop_exact <= 100:  # nan fails too
            raise ValueError(f"pop_exact must lie in [0, 100], not {self.pop_exact!r}")
        _check_target(self.stretch_target)
        if self.stretch_target is not None:  # an int target is written as the float it is
            vars(self)["stretch_target"] = float(self.stretch_target)
        if self.meets_stretch_target != _meets_target(self.pop_exact, self.stretch_target):
            raise ValueError("meets_stretch_target must be pop_exact >= stretch_target, "
                             "or null without a target")
        # Only the sample's scores show ties, so ties_present is not checked.
        all_responders = {"all_responders"} if self.gains.base_rate == 1 else set()
        if set(self.degeneracy_flags) - {"ties_present"} != all_responders:
            raise ValueError(f"degeneracy_flags {sorted(self.degeneracy_flags)} must hold "
                             "all_responders at base rate 1 only, and no flag but ties_present")
        cuts = [cut.fraction for cut in self.beni_profile]  # pairwise: cheaper than a sort
        if not cuts or any(a >= b for a, b in zip(cuts, cuts[1:])):
            raise ValueError("beni_profile must list at least one cut-off, in ascending order")
        size = self.gains.sample_size
        k = int(self.gains.base_rate * size)
        for cut, point in self.beni_profile.items():  # rebuilt from the hits its beni implies
            names = selection_count(size, cut)
            estimate = point.beni * names * k / (100 * size)  # inf or nan is refused
            hits = round(estimate) if names and isfinite(estimate) else -1
            if not max(0, k + names - size) <= hits <= min(names, k) or (
                    _beni_point(hits, names, cut, k, size) != point):
                raise ValueError(f"beni_profile: the point at cut-off {cut.fraction} is not "
                                 "that of a pass set of the chart's sample")


@dataclass(frozen=True)
class ComparisonReport:
    """Deterministic ranking of a batch of evaluations, stored in ranking order.

    By exact score potential, descending; ties break by chart approximation,
    then model id, so reports of the same batch are byte-identical in any order.
    """

    evaluations: tuple[ModelEvaluation, ...]
    ranking: tuple[str, ...] = field(init=False)
    below_target: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        if not self.evaluations:
            raise EmptyBatch()
        ordered = tuple(sorted(self.evaluations,
                               key=lambda e: (-e.pop_exact, -e.gains.pop_approx, e.model_id)))
        ranking = tuple(e.model_id for e in ordered)
        if len(set(ranking)) != len(ranking):
            raise ValueError("model ids in a batch must be unique")
        below = tuple(e.model_id for e in ordered if e.meets_stretch_target is False)
        vars(self).update(evaluations=ordered, ranking=ranking, below_target=below)


def evaluate_model(ctx: EvaluationContext, model_id: str) -> ModelEvaluation:
    """Compute exact and chart score potential plus the BenI profile."""
    sample = ctx.sample
    with errors_naming(model_id):
        exact = pop_exact(sample)
        chart = build_gains_chart(sample, ctx.bucket_count)
        profile = {}
        size, k = sample.size_x, sample.responders_k
        for cut in ctx.cutoffs_of_interest:
            beni_at_cutoff(sample, cut)  # refuses an empty pass set
            n = selection_count(size, cut)
            profile[cut] = _beni_point(int(sample.top_responders[n]), n, cut, k, size)

    flags = {"all_responders": sample.responders_k == sample.size_x,
             "ties_present": sample.has_ties}
    return ModelEvaluation(
        model_id=model_id,
        pop_exact=exact,
        gains=chart,
        beni_profile=profile,
        meets_stretch_target=_meets_target(exact, ctx.stretch_target),
        stretch_target=ctx.stretch_target,
        degeneracy_flags=frozenset(flag for flag, holds in flags.items() if holds),
    )


def compare_models(evals: Sequence[ModelEvaluation]) -> ComparisonReport:
    """Rank evaluations by exact score potential, descending (see ComparisonReport)."""
    return ComparisonReport(tuple(evals))


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
