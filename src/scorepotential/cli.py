"""Command-line interface: evaluate, compare, gen, econ.

All behavior is flag-driven; there is no config file and no environment
lookup, so a command line fully determines its output.  Metric errors exit
with the code of their error class; I/O problems exit with 3; usage errors
exit with 2 (argparse).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ToolkitError, errors_naming
from .sample import DECILE_CUTOFFS, DEFAULT_BUCKET_COUNT, CutOff, TiePolicy

if TYPE_CHECKING:
    from .economics import CampaignEconomics
    from .engine import ModelEvaluation

# The calls bench/tracing.py times, by span name, to the public names they stand
# for (the last six for themselves).  A command looks each up on this module (_cli)
# at call time, where the tracer replaces it; the tracer's lookup binds it before
# any span opens.
_CALLS = {"parse_sample_csv": "read_sample_columns", "generate_sample": "generate_columns",
          "records_to_csv_text": "write_sample_csv", **{name: name for name in (
              "rank_sample", "evaluate_model", "compare_models", "render_combined_chart",
              "render_comparison", "render_pop_vs_beni_figure")}}
_cli = sys.modules[__name__]


def __getattr__(name: str):
    """A call of _CALLS, imported on first use and kept here (PEP 562)."""
    from . import _bind
    return _bind(globals(), name, _CALLS.get(name))


IO_ERROR_EXIT = 3


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
        except ZeroDivisionError:
            raise argparse.ArgumentTypeError(
                f"bad cut-off {part!r}: not a rational number") from None
        except ValueError as err:
            raise argparse.ArgumentTypeError(f"bad cut-off {part!r}: {err}") from None
    return tuple(cuts)


def _rational(text: str) -> Fraction:
    """An exact decimal or p/q literal.  Its range is checked where it is used
    (generate_columns, CampaignEconomics), before any file is read or written."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _sample(text: str) -> tuple:
    """A sample argument as (model id, source): "-" is stdin's bytes, of model id stdin."""
    if text == "-" and sys.stdin is None:  # started with its descriptor closed
        raise argparse.ArgumentTypeError("standard input is closed")
    return ("stdin", sys.stdin.buffer) if text == "-" else (Path(text).stem, Path(text))


def _stdout_or_path(text: str) -> Path | None:
    return None if text == "-" else Path(text)


def _add_shared_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--buckets", type=int, default=DEFAULT_BUCKET_COUNT,
                        help="number of gains-chart buckets (default %(default)s)")
    parser.add_argument("--cutoffs", type=_cutoff_list,
                        default=DECILE_CUTOFFS,
                        help="comma list of cut-offs, e.g. '10%%,40%%' or '0.1,0.4' "
                             "(default deciles)")
    parser.add_argument("--target", type=float, default=None,
                        help="stretch target for the score potential, in percent")
    parser.add_argument("--ties", choices=[p.value for p in TiePolicy],
                        default=TiePolicy.MIDRANK.value,
                        help="tie policy for equal scores (default midrank)")
    parser.add_argument("--format", dest="fmt", choices=["text", "csv", "json"],
                        default="text", help="output format (default text)")


def _add_econ_flags(parser: argparse.ArgumentParser, required: bool) -> None:
    parser.add_argument("--total-cost", type=_rational, default=None, required=required,
                        help="total campaign cost")
    parser.add_argument("--addresses", type=int, default=None, required=required,
                        help="number of promoted addresses")
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
    p_eval.add_argument("sample", type=_sample, help="sample CSV path, or - for stdin")
    _add_shared_flags(p_eval)
    _add_econ_flags(p_eval, required=False)

    p_cmp = sub.add_parser("compare", help="evaluate and rank several sample CSVs")
    p_cmp.add_argument("samples", type=_sample, nargs="+",
                       help="sample CSV paths, one of which may be - for stdin")
    _add_shared_flags(p_cmp)
    p_cmp.add_argument("--figure", type=Path, default=None,
                       help="write the potential-vs-benefit SVG here")

    p_gen = sub.add_parser("gen", help="generate a synthetic sample CSV")
    p_gen.add_argument("--size", type=int, required=True)
    p_gen.add_argument("--rate", type=_rational, required=True)
    p_gen.add_argument("--quality", type=float, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("-o", "--output", type=_stdout_or_path, default=None,
                       help="output path, or - for stdout (default: stdout)")

    p_econ = sub.add_parser("econ", help="campaign cost arithmetic")
    _add_econ_flags(p_econ, required=True)
    p_econ.add_argument("--format", dest="fmt", choices=["text", "json"],
                        default="text")

    # Errors found after parsing print the usage line of their subcommand.
    for command_parser, run in ((p_eval, _cmd_evaluate), (p_cmp, _cmd_compare),
                                (p_gen, _cmd_gen), (p_econ, _cmd_econ)):
        command_parser.set_defaults(command_parser=command_parser, run=run)
    return parser


def _checked(parser: argparse.ArgumentParser, build, *values):
    """build(*values), whose ValueError (a library range rule) is a usage error."""
    try:
        return build(*values)
    except ValueError as err:
        parser.error(str(err))


def _economics_from_args(args, parser: argparse.ArgumentParser) -> CampaignEconomics | None:
    given = [v is not None for v in (args.total_cost, args.addresses, args.responders)]
    if not any(given):
        return None
    if not all(given):
        parser.error("--total-cost, --addresses and --responders go together")
    from .economics import CampaignEconomics
    return _checked(parser, CampaignEconomics, args.total_cost, args.addresses, args.responders)


def _evaluate_sample(args, model_id: str, source) -> ModelEvaluation:
    """Read, rank and evaluate one model's sample; every error it raises names the model."""
    from .engine import EvaluationContext
    with errors_naming(model_id):
        ctx = EvaluationContext(
            sample=_cli.rank_sample(_cli.parse_sample_csv(source), args.ties),
            bucket_count=args.buckets,
            cutoffs_of_interest=args.cutoffs,
            stretch_target=args.target,
        )
    return _cli.evaluate_model(ctx, model_id=model_id)  # which names its own errors


def _reference_attainment(evaluation: ModelEvaluation) -> float:
    """Attainment at the smallest profiled cut-off >= R(X): the single-point
    potential reading of the benefit index."""
    base = evaluation.gains.base_rate
    for cut, point in evaluation.beni_profile.items():
        if cut.fraction >= base:
            return point.attainment_ratio
    return list(evaluation.beni_profile.values())[-1].attainment_ratio


def _cmd_evaluate(args, parser: argparse.ArgumentParser, out) -> int:
    from .engine import check_settings
    _checked(parser, check_settings, args.buckets, args.cutoffs, args.target)
    economics = _economics_from_args(args, parser)
    out.write(_cli.render_combined_chart(_evaluate_sample(args, *args.sample), args.fmt, economics))
    return 0


def _cmd_compare(args, parser: argparse.ArgumentParser, out) -> int:
    from .engine import check_settings
    _checked(parser, check_settings, args.buckets, args.cutoffs, args.target)
    if sum(not isinstance(source, Path) for _, source in args.samples) > 1:
        parser.error("standard input (-) can be read only once")
    model_ids = [model_id for model_id, _ in args.samples]
    if len(set(model_ids)) != len(model_ids):
        parser.error("sample files must have distinct names (model ids come from them)")
    evaluations = [_evaluate_sample(args, *sample) for sample in args.samples]
    report = _cli.compare_models(evaluations)
    if args.figure is not None:  # first, so that a figure that fails leaves stdout empty
        series = [(e.model_id, e.pop_exact, _reference_attainment(e)) for e in report.evaluations]
        args.figure.write_text(_cli.render_pop_vs_beni_figure(series), encoding="utf-8")
    out.write(_cli.render_comparison(report, args.fmt))
    return 0


def _cmd_gen(args, parser: argparse.ArgumentParser, out) -> int:
    columns = _checked(parser, _cli.generate_sample, args.size, args.rate, args.quality, args.seed)
    _cli.records_to_csv_text(columns, out if args.output is None else args.output)
    return 0


def _cmd_econ(args, parser, out) -> int:
    from .report import economics_summary, render_economics_text, to_json
    econ = _economics_from_args(args, parser)
    if args.fmt == "json":
        out.write(to_json(economics_summary(econ)))
    else:
        out.write(render_economics_text(econ))
    return 0


def main(argv=None, out=None) -> int:
    args = build_parser().parse_args(argv)
    out = out if out is not None else sys.stdout
    try:
        if out is None:  # started with its descriptor closed
            raise OSError("standard output is closed")
        return args.run(args, args.command_parser, out)
    except ToolkitError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return IO_ERROR_EXIT


def entrypoint() -> None:
    sys.exit(main())
