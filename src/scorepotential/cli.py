"""Command-line interface: evaluate, compare, gen, econ.

All behavior is flag-driven; there is no config file and no environment
lookup, so a command line fully determines its output.  Metric errors exit
with the code of their error class; I/O problems exit with 3; usage errors
exit with 2 (argparse).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .economics import CampaignEconomics
from .engine import (
    DECILE_CUTOFFS,
    EvaluationContext,
    ModelEvaluation,
    compare_models,
    evaluate_model,
    generate_sample,
)
from .errors import ToolkitError
from .figure import render_pop_vs_beni_figure
from .report import (
    economics_summary,
    evaluation_to_csv,
    evaluation_to_dict,
    render_combined_chart,
    render_comparison,
    render_economics_text,
    to_json,
)
from .rounding import to_fraction
from .sample import CutOff, TiePolicy, rank_sample
# The parse stage reads columns, never per-row records; it keeps the name
# under which bench/tracing.py times the CLI's parse layer.
from .sample_csv import read_sample_columns as parse_sample_csv, records_to_csv_text

IO_ERROR_EXIT = 3


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _cutoff_list(text: str) -> tuple[CutOff, ...]:
    cuts = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            if part.endswith("%"):
                fraction = Fraction(part[:-1]) / 100
            else:
                fraction = Fraction(part)
            cuts.append(CutOff(fraction))
        except (ValueError, ZeroDivisionError) as err:
            raise argparse.ArgumentTypeError(f"bad cut-off {part!r}: {err}") from None
    if not cuts:
        raise argparse.ArgumentTypeError("cut-off list is empty")
    return tuple(cuts)


def _target(text: str) -> float:
    value = float(text)
    if not 0 < value <= 100:
        raise argparse.ArgumentTypeError("stretch target must lie in (0, 100]")
    return value


def _rate(text: str) -> Fraction:
    try:
        value = to_fraction(text)
    except (ValueError, ZeroDivisionError) as err:
        raise argparse.ArgumentTypeError(str(err)) from None
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError("rate must lie in (0, 1]")
    return value


def _quality(text: str) -> float:
    value = float(text)
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError("quality must lie in [0, 1]")
    return value


def _money(text: str) -> Fraction:
    try:
        value = to_fraction(text)
    except (ValueError, ZeroDivisionError) as err:
        raise argparse.ArgumentTypeError(str(err)) from None
    if value < 0:
        raise argparse.ArgumentTypeError("money amounts must be non-negative")
    return value


@dataclass(frozen=True)
class InputManifest:
    """Validated per-invocation settings for evaluate/compare."""

    sample_paths: tuple[Path, ...]
    bucket_count: int
    cutoffs: tuple[CutOff, ...]
    stretch_target: float | None
    tie_policy: TiePolicy
    fmt: str
    economics: CampaignEconomics | None
    figure_path: Path | None


def _add_shared_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--buckets", type=_positive_int, default=10,
                        help="number of gains-chart buckets (default 10)")
    parser.add_argument("--cutoffs", type=_cutoff_list, default=DECILE_CUTOFFS,
                        help="comma list of cut-offs, e.g. '10%%,40%%' or '0.1,0.4' "
                             "(default deciles)")
    parser.add_argument("--target", type=_target, default=None,
                        help="stretch target for the score potential, in percent")
    parser.add_argument("--ties", choices=[p.value for p in TiePolicy],
                        default=TiePolicy.MIDRANK.value,
                        help="tie policy for equal scores (default midrank)")
    parser.add_argument("--format", dest="fmt", choices=["text", "csv", "json"],
                        default="text", help="output format (default text)")


def _add_econ_flags(parser: argparse.ArgumentParser, required: bool) -> None:
    parser.add_argument("--total-cost", type=_money, default=None, required=required,
                        help="total campaign cost")
    parser.add_argument("--addresses", type=_positive_int, default=None,
                        required=required, help="number of promoted addresses")
    parser.add_argument("--responders", type=int, default=None, required=required,
                        help="number of responders")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scorepotential",
        description="Evaluate binary-response targeting models with the "
                    "benefit index and the cut-off invariant score potential.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("evaluate", help="evaluate one sample CSV")
    p_eval.add_argument("sample", type=Path)
    _add_shared_flags(p_eval)
    _add_econ_flags(p_eval, required=False)

    p_cmp = sub.add_parser("compare", help="evaluate and rank several sample CSVs")
    p_cmp.add_argument("samples", type=Path, nargs="+")
    _add_shared_flags(p_cmp)
    p_cmp.add_argument("--figure", type=Path, default=None,
                       help="write the potential-vs-benefit SVG here")

    p_gen = sub.add_parser("gen", help="generate a synthetic sample CSV")
    p_gen.add_argument("--size", type=_positive_int, required=True)
    p_gen.add_argument("--rate", type=_rate, required=True)
    p_gen.add_argument("--quality", type=_quality, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("-o", "--output", type=Path, default=None,
                       help="output path (default: stdout)")

    p_econ = sub.add_parser("econ", help="campaign cost arithmetic")
    _add_econ_flags(p_econ, required=True)
    p_econ.add_argument("--format", dest="fmt", choices=["text", "json"],
                        default="text")

    return parser


def _economics_from_args(args, parser: argparse.ArgumentParser) -> CampaignEconomics | None:
    given = [args.total_cost is not None, args.addresses is not None,
             args.responders is not None]
    if not any(given):
        return None
    if not all(given):
        parser.error("--total-cost, --addresses and --responders go together")
    try:
        return CampaignEconomics(args.total_cost, args.addresses, args.responders)
    except ValueError as err:
        parser.error(str(err))


def _manifest(args, parser: argparse.ArgumentParser) -> InputManifest:
    paths = tuple(getattr(args, "samples", None) or [args.sample])
    stems = [p.stem for p in paths]
    if len(set(stems)) != len(stems):
        parser.error("sample files must have distinct names (model ids come from them)")
    return InputManifest(
        sample_paths=paths,
        bucket_count=args.buckets,
        cutoffs=args.cutoffs,
        stretch_target=args.target,
        tie_policy=TiePolicy(args.ties),
        fmt=args.fmt,
        economics=_economics_from_args(args, parser) if hasattr(args, "total_cost") else None,
        figure_path=getattr(args, "figure", None),
    )


def _evaluate_path(manifest: InputManifest, path: Path) -> ModelEvaluation:
    sample = rank_sample(parse_sample_csv(path), manifest.tie_policy)
    ctx = EvaluationContext(
        sample=sample,
        bucket_count=manifest.bucket_count,
        cutoffs_of_interest=manifest.cutoffs,
        stretch_target=manifest.stretch_target,
    )
    return evaluate_model(ctx, model_id=path.stem)


def _reference_attainment(evaluation: ModelEvaluation) -> float:
    """Attainment at the smallest profiled cut-off >= R(X): the single-point
    potential reading of the benefit index."""
    base = evaluation.gains.base_rate
    for cut, point in evaluation.beni_profile.items():
        if cut.fraction >= base:
            return point.attainment_ratio
    return list(evaluation.beni_profile.values())[-1].attainment_ratio


def _cmd_evaluate(manifest: InputManifest, out) -> int:
    evaluation = _evaluate_path(manifest, manifest.sample_paths[0])
    if manifest.economics is not None:
        if manifest.fmt == "json":
            out.write(to_json({
                "evaluation": evaluation_to_dict(evaluation),
                "economics": economics_summary(manifest.economics),
            }))
        elif manifest.fmt == "csv":
            out.write(evaluation_to_csv(evaluation, economics=manifest.economics))
        else:
            out.write(render_combined_chart(evaluation, "text"))
            out.write("\n")
            out.write(render_economics_text(manifest.economics))
        return 0
    out.write(render_combined_chart(evaluation, manifest.fmt))
    return 0


def _cmd_compare(manifest: InputManifest, out) -> int:
    evaluations = [_evaluate_path(manifest, p) for p in manifest.sample_paths]
    report = compare_models(evaluations)
    out.write(render_comparison(report, manifest.fmt))
    if manifest.figure_path is not None:
        series = [
            (e.model_id, e.pop_exact, _reference_attainment(e))
            for e in report.evaluations
        ]
        manifest.figure_path.write_text(
            render_pop_vs_beni_figure(series), encoding="utf-8"
        )
    return 0


def _cmd_gen(args, out) -> int:
    records = generate_sample(args.size, args.rate, args.quality, args.seed)
    text = records_to_csv_text(records)
    if args.output is None:
        out.write(text)
    else:
        args.output.write_text(text, encoding="utf-8")
    return 0


def _cmd_econ(args, parser, out) -> int:
    econ = _economics_from_args(args, parser)
    if args.fmt == "json":
        out.write(to_json(economics_summary(econ)))
    else:
        out.write(render_economics_text(econ))
    return 0


def main(argv=None, out=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = out if out is not None else sys.stdout
    try:
        if args.command == "evaluate":
            return _cmd_evaluate(_manifest(args, parser), out)
        if args.command == "compare":
            return _cmd_compare(_manifest(args, parser), out)
        if args.command == "gen":
            return _cmd_gen(args, out)
        if args.command == "econ":
            return _cmd_econ(args, parser, out)
    except ToolkitError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return IO_ERROR_EXIT
    raise AssertionError("unreachable: unknown command")


def entrypoint() -> None:
    sys.exit(main())
