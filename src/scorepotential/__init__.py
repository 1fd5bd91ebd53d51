"""Cut-off invariant evaluation of binary-response targeting models.

Exposes the benefit index (BenI), the exact rank-based score potential
(PoP), bucket-level gains charts combining the two, campaign cost
arithmetic, and a deterministic batch evaluation engine.

Each public name is imported from its module on first use (PEP 562), so
``import scorepotential`` loads no module of the package, and a command
loads only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# The public names, by the module that defines them.
_NAMES = {
    "economics": ("CampaignEconomics", "SpreadingLoss", "spreading_loss"),
    "engine": ("BeniPoint", "ComparisonReport", "EvaluationContext", "ModelEvaluation",
               "compare_models", "evaluate_model"),
    "errors": ("BadResponseValue", "CutoffTooSmall", "DegenerateClasses", "DuplicateId",
               "EmptyBatch", "EmptySample", "IndivisibleBuckets", "MalformedRow",
               "NoResponders", "NonFiniteScore", "TooFewPoints", "ToolkitError",
               "ZeroBaseRate"),
    "figure": ("render_pop_vs_beni_figure",),
    "gains": ("Bucket", "GainsChart", "build_gains_chart"),
    "metrics": ("auc_crosscheck", "beni", "beni_at_cutoff", "beni_max", "perfect_rank_sum",
                "pop_denominator_exact", "pop_exact", "pop_numerator_exact", "selection_count"),
    "report": ("economics_summary", "evaluation_from_csv", "evaluation_from_dict",
               "evaluation_to_csv", "evaluation_to_dict", "render_combined_chart",
               "render_comparison", "render_economics_text"),
    "sample": ("DECILE_CUTOFFS", "CutOff", "RankedSample", "SampleColumns", "ScoredRecord",
               "TiePolicy", "generate_columns", "generate_sample", "rank_sample"),
    "sample_csv": ("read_sample_columns", "write_sample_csv"),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def _bind(namespace: dict, name: str, public: str | None):
    """Import public from its defining module as namespace[name]: a module's __getattr__."""
    if public not in _MODULE_OF:
        raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
    value = namespace[name] = getattr(import_module(f".{_MODULE_OF[public]}", __name__), public)
    return value


def __getattr__(name: str):
    """A public name, imported from its module and kept here, so that it is imported once."""
    return _bind(globals(), name, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
