"""Batch model evaluation, deterministic comparison ranking, synthetic samples."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .errors import EmptyBatch, ToolkitError
from .gains import GainsChart, build_gains_chart
from .metrics import beni_at_cutoff, beni_max, pop_exact
from .rounding import round_half_up, to_fraction
from .sample import CutOff, RankedSample, SampleColumns, ScoredRecord

DECILE_CUTOFFS = tuple(CutOff(Fraction(i, 10)) for i in range(1, 11))


class BeniPoint(NamedTuple):
    """Benefit index, its ceiling, and the attainment ratio at one cut-off."""

    beni: float
    beni_max: float
    attainment_ratio: float


@dataclass(frozen=True)
class EvaluationContext:
    """Everything one evaluation needs besides the model id."""

    sample: RankedSample
    bucket_count: int = 10
    cutoffs_of_interest: tuple[CutOff, ...] = DECILE_CUTOFFS
    stretch_target: float | None = None

    def __post_init__(self):
        if self.bucket_count < 1:
            raise ValueError("bucket count must be positive")
        cuts = tuple(sorted(set(self.cutoffs_of_interest), key=lambda c: c.fraction))
        object.__setattr__(self, "cutoffs_of_interest", cuts)
        if not cuts:
            raise ValueError("at least one cut-off of interest is required")
        if self.stretch_target is not None and not 0 < self.stretch_target <= 100:
            raise ValueError("stretch target must lie in (0, 100]")


@dataclass(frozen=True)
class ModelEvaluation:
    """Full metric report for one model."""

    model_id: str
    pop_exact: float
    pop_approx: float
    pop_approx_min: float
    pop_approx_max: float
    gains: GainsChart
    beni_profile: dict[CutOff, BeniPoint]
    meets_stretch_target: bool | None = None
    stretch_target: float | None = None
    degeneracy_flags: frozenset[str] = frozenset()


@dataclass(frozen=True)
class ComparisonReport:
    """Deterministic ranking of a batch of evaluations.

    evaluations are stored in ranking order so that serializations of the
    same batch are byte-identical no matter the evaluation order.
    """

    evaluations: tuple[ModelEvaluation, ...]
    ranking: tuple[str, ...]
    below_target: tuple[str, ...]


def evaluate_model(ctx: EvaluationContext, model_id: str) -> ModelEvaluation:
    """Compute exact and chart score potential plus the BenI profile."""
    sample = ctx.sample
    try:
        exact = pop_exact(sample)
        chart = build_gains_chart(sample, ctx.bucket_count)
        profile = {}
        for cut in ctx.cutoffs_of_interest:
            value = beni_at_cutoff(sample, cut)
            ceiling = beni_max(cut, sample.response_rate_r)
            profile[cut] = BeniPoint(value, ceiling, 100 * value / ceiling)
    except ToolkitError as err:
        err.model_id = model_id
        raise

    flags = set()
    if sample.responders_k == sample.size_x:
        flags.add("all_responders")
    if sample.has_ties:
        flags.add("ties_present")

    meets = None
    if ctx.stretch_target is not None:
        meets = exact >= ctx.stretch_target

    return ModelEvaluation(
        model_id=model_id,
        pop_exact=exact,
        pop_approx=chart.pop_approx,
        pop_approx_min=chart.pop_min_variant,
        pop_approx_max=chart.pop_max_variant,
        gains=chart,
        beni_profile=profile,
        meets_stretch_target=meets,
        stretch_target=ctx.stretch_target,
        degeneracy_flags=frozenset(flags),
    )


def compare_models(evals: Sequence[ModelEvaluation]) -> ComparisonReport:
    """Rank evaluations by exact score potential, descending.

    Ties break by chart approximation, then model id; identical inputs give
    identical reports regardless of evaluation order.
    """
    if not evals:
        raise EmptyBatch()
    ids = [e.model_id for e in evals]
    if len(set(ids)) != len(ids):
        raise ValueError("model ids in a batch must be unique")
    ordered = tuple(
        sorted(evals, key=lambda e: (-e.pop_exact, -e.pop_approx, e.model_id))
    )
    ranking = tuple(e.model_id for e in ordered)
    below = tuple(e.model_id for e in ordered if e.meets_stretch_target is False)
    return ComparisonReport(evaluations=ordered, ranking=ranking, below_target=below)


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

    k = round_half_up(rate * size)
    rng = np.random.default_rng(seed)
    responses = np.zeros(size, dtype=np.bool_)
    responses[rng.choice(size, k, replace=False)] = True
    scores = rng.random(size) + quality * responses
    id_format = f"n%0{max(6, len(str(size)))}d"
    ids = [id_format % i for i in range(1, size + 1)]
    return SampleColumns(ids, scores, responses)


def generate_sample(size: int, base_rate, quality: float, seed: int) -> list[ScoredRecord]:
    """The sample of generate_columns as records, in the same order."""
    return generate_columns(size, base_rate, quality, seed).records()
