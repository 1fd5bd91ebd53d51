"""Cut-off invariant evaluation of binary-response targeting models.

Exposes the benefit index (BenI), the exact rank-based score potential
(PoP), bucket-level gains charts combining the two, campaign cost
arithmetic, and a deterministic batch evaluation engine.
"""

from .economics import CampaignEconomics, SpreadingLoss, spreading_loss
from .engine import (
    DECILE_CUTOFFS,
    BeniPoint,
    ComparisonReport,
    EvaluationContext,
    ModelEvaluation,
    compare_models,
    evaluate_model,
    generate_columns,
    generate_sample,
)
from .errors import (
    BadResponseValue,
    CutoffTooSmall,
    DegenerateClasses,
    DuplicateId,
    EmptyBatch,
    EmptySample,
    IndivisibleBuckets,
    MalformedRow,
    NoResponders,
    NonFiniteScore,
    TooFewPoints,
    ToolkitError,
    ZeroBaseRate,
)
from .figure import render_pop_vs_beni_figure
from .gains import (
    Bucket,
    GainsChart,
    build_gains_chart,
)
from .metrics import (
    auc_crosscheck,
    beni,
    beni_at_cutoff,
    beni_max,
    perfect_rank_sum,
    pop_denominator_exact,
    pop_exact,
    pop_numerator_exact,
    selection_count,
)
from .report import (
    economics_summary,
    evaluation_from_csv,
    evaluation_from_dict,
    evaluation_to_csv,
    evaluation_to_dict,
    render_combined_chart,
    render_comparison,
    render_economics_text,
)
from .sample import (
    CutOff,
    RankedSample,
    SampleColumns,
    ScoredRecord,
    TiePolicy,
    rank_sample,
)
from .sample_csv import (
    read_sample_columns,
    records_to_csv_text,
    write_sample_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BadResponseValue", "BeniPoint", "Bucket", "CampaignEconomics",
    "ComparisonReport", "CutOff", "CutoffTooSmall", "DECILE_CUTOFFS",
    "DegenerateClasses", "DuplicateId", "EmptyBatch", "EmptySample",
    "EvaluationContext", "GainsChart", "IndivisibleBuckets", "MalformedRow",
    "ModelEvaluation", "NoResponders", "NonFiniteScore", "RankedSample",
    "SampleColumns", "ScoredRecord", "SpreadingLoss", "TiePolicy", "TooFewPoints",
    "ToolkitError", "ZeroBaseRate", "auc_crosscheck",
    "beni", "beni_at_cutoff", "beni_max", "build_gains_chart", "compare_models",
    "economics_summary", "evaluate_model", "evaluation_from_csv", "evaluation_from_dict",
    "evaluation_to_csv", "evaluation_to_dict", "generate_columns", "generate_sample",
    "perfect_rank_sum", "pop_denominator_exact", "pop_exact",
    "pop_numerator_exact", "rank_sample", "read_sample_columns", "records_to_csv_text",
    "render_combined_chart", "render_comparison", "render_economics_text",
    "render_pop_vs_beni_figure", "selection_count", "spreading_loss",
    "write_sample_csv",
]
