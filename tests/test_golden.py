"""Byte-for-byte goldens of the machine formats and the text reports.

Round-trip tests cannot see a change of bytes that parses back to an equal
value (say, degeneracy flags written unsorted); these tests can.  The files
under tests/golden/ are the documents the CLI writes for the worked samples,
for a tied sample of 200 names charted in 50 buckets, for the committed
1 000-name generated sample (charted in 10 and in 100 buckets), for a
``compare`` of that sample under two names, whose tie shares a rank, and
the figure that ``compare --figure`` draws for two generated samples.
Regenerate them with ``python -m tests.test_golden`` from the repository
root, and only for an intended change of output.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from scorepotential import (
    CampaignEconomics,
    EvaluationContext,
    SampleColumns,
    ScoredRecord,
    evaluate_model,
    evaluation_from_csv,
    evaluation_to_csv,
    generate_columns,
    rank_sample,
    render_combined_chart,
    write_sample_csv,
)
from scorepotential.cli import main
from scorepotential.report import BUCKET_CSV_HEADER, PROFILE_CSV_HEADER
from tests.conftest import (
    RATE4_DECILE_RESPONDERS,
    RATE8_DECILE_RESPONDERS,
    bucketed_records,
    written_csv_text,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

RATE4_ECONOMICS = ["--total-cost", "50000", "--addresses", "100000", "--responders", "4000"]
NO_RESPONDER_ECONOMICS = ["--total-cost", "100", "--addresses", "50", "--responders", "0"]

# golden file name -> CLI arguments; sample names are the file stems below.
CASES = {
    "evaluate_rate4_target80.json": ["evaluate", "rate4", "--target", "80", "--format", "json"],
    "evaluate_rate4_target80.csv": ["evaluate", "rate4", "--target", "80", "--format", "csv"],
    "evaluate_rate4_target80.txt": ["evaluate", "rate4", "--target", "80"],
    "evaluate_rate8.json": ["evaluate", "rate8", "--format", "json"],
    "evaluate_rate8.csv": ["evaluate", "rate8", "--format", "csv"],
    "evaluate_all_responders.json": ["evaluate", "all_responders", "--format", "json"],
    "evaluate_all_responders.csv": ["evaluate", "all_responders", "--format", "csv"],
    "evaluate_all_responders.txt": ["evaluate", "all_responders"],
    "evaluate_rate4_economics.json": ["evaluate", "rate4", "--format", "json", *RATE4_ECONOMICS],
    "evaluate_rate4_economics.csv": ["evaluate", "rate4", "--format", "csv", *RATE4_ECONOMICS],
    "evaluate_rate4_economics.txt": ["evaluate", "rate4", *RATE4_ECONOMICS],
    "evaluate_rate8_no_responder_economics.json":
        ["evaluate", "rate8", "--format", "json", *NO_RESPONDER_ECONOMICS],
    "evaluate_rate8_no_responder_economics.csv":
        ["evaluate", "rate8", "--format", "csv", *NO_RESPONDER_ECONOMICS],
    "evaluate_rate8_no_responder_economics.txt":
        ["evaluate", "rate8", *NO_RESPONDER_ECONOMICS],
    "evaluate_gen_1000_rate4.json": ["evaluate", "gen_1000_rate4", "--format", "json"],
    # 100 buckets of 10 generated names: many table rows of generated values.
    **{f"evaluate_gen_1000_rate4_b100.{ext}":
       ["evaluate", "gen_1000_rate4", "--buckets", "100", *fmt]
       for ext, fmt in (("json", ["--format", "json"]), ("csv", ["--format", "csv"]),
                        ("txt", []))},
    "compare_target80.json":
        ["compare", "rate4", "rate8", "all_responders", "--target", "80", "--format", "json"],
    "compare_target80.csv":
        ["compare", "rate4", "rate8", "all_responders", "--target", "80", "--format", "csv"],
    "compare_target80.txt": ["compare", "rate4", "rate8", "all_responders", "--target", "80"],
    "econ_rate4.txt": ["econ", *RATE4_ECONOMICS],
    "econ_rate4.json": ["econ", "--format", "json", *RATE4_ECONOMICS],
    "econ_no_responders.txt": ["econ", *NO_RESPONDER_ECONOMICS],
    "econ_no_responders.json": ["econ", "--format", "json", *NO_RESPONDER_ECONOMICS],
    # A tied, fine-grained chart: 50 buckets of 4 names over scores rounded
    # to 0.1, with cut-offs off the deciles (12.25% selects 24.5 names).
    **{f"evaluate_tied200_b50.{ext}":
       ["evaluate", "tied200", "--buckets", "50", "--ties", "pessimistic",
        "--cutoffs", "3%,7.5%,12.25%,1/3,66.6%,99%", *fmt]
       for ext, fmt in (("json", ["--format", "json"]), ("csv", ["--format", "csv"]),
                        ("txt", []))},
    "gen_37_rate4.csv":
        ["gen", "--size", "37", "--rate", "0.04", "--quality", "0.6", "--seed", "7"],
    "gen_1000_rate4.csv":
        ["gen", "--size", "1000", "--rate", "0.04", "--quality", "0.6", "--seed", "20100707"],
    # Every name responds; ids keep their minimum width of six digits.
    "gen_5_all_responders.csv":
        ["gen", "--size", "5", "--rate", "1", "--quality", "1", "--seed", "3"],
    # Two byte-identical samples under two names between a strong and a weak
    # model: the pair shares rank 2, in model-id order, and the weak one ranks 4th.
    **{f"compare_tied_twins.{ext}": ["compare", "low", "twin_b", "high", "twin_a", *fmt]
       for ext, fmt in (("csv", ["--format", "csv"]), ("txt", []))},
    # The figure file, not stdout: a weak and a strong generated model.
    "compare_gen_figure.svg": ["compare", "low", "high", "--figure", "figure.svg"],
}

# sha256 of the `gen` output at the benchmark's size, rate and quality.
GEN_200K_ARGS = ["gen", "--size", "200000", "--rate", "0.04", "--quality", "0.6", "--seed", "1"]
GEN_200K_SHA256 = "86a32007d1cb051cca41f253f17ead176c62d7e5833184772ec74cb83c4d8588"


def samples() -> dict[str, list[ScoredRecord]]:
    # Every name responds and scores come in groups of three, so both
    # degeneracy flags (all_responders, ties_present) are raised.
    all_responders = [ScoredRecord(f"t{i:02d}", float(i // 3), 1) for i in range(20)]
    # 200 names, 20 responders, about 20 distinct scores.
    tied = generate_columns(200, Fraction(1, 10), 0.5, 11).records()
    return {
        "tied200": [ScoredRecord(r.id, round(r.score, 1), r.response) for r in tied],
        "rate4": bucketed_records(RATE4_DECILE_RESPONDERS, 10),
        "rate8": bucketed_records(RATE8_DECILE_RESPONDERS, 10),
        "all_responders": all_responders,
        "low": generate_columns(1000, Fraction(1, 25), 0.3, 1).records(),
        "high": generate_columns(1000, Fraction(1, 25), 0.8, 2).records(),
        # The sample that gen_1000_rate4.csv holds, and the same bytes under two more names.
        **dict.fromkeys(["gen_1000_rate4", "twin_a", "twin_b"],
                        generate_columns(1000, Fraction(1, 25), 0.6, 20100707).records()),
    }


def render_case(name: str, folder: Path) -> str:
    """The bytes the case writes: stdout, or for an .svg case the figure file."""
    paths = {"figure.svg": folder / "figure.svg"}
    for stem, records in samples().items():
        paths[stem] = folder / f"{stem}.csv"
        write_sample_csv(SampleColumns.from_records(records), paths[stem])
    argv = [str(paths.get(arg, arg)) for arg in CASES[name]]
    out = io.StringIO()
    assert main(argv, out=out) == 0
    if name.endswith(".svg"):
        return paths["figure.svg"].read_text(encoding="utf-8")
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_the_golden_bytes(name, tmp_path):
    expected = (GOLDEN_DIR / name).read_bytes()
    assert render_case(name, tmp_path).encode("utf-8") == expected


def test_gen_bytes_at_the_benchmark_size_are_pinned():
    out = io.StringIO()
    assert main(GEN_200K_ARGS, out=out) == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == GEN_200K_SHA256


def test_the_gen_1000_rate4_sample_is_the_gen_golden():
    text = written_csv_text(SampleColumns.from_records(samples()["gen_1000_rate4"]))
    assert text == (GOLDEN_DIR / "gen_1000_rate4.csv").read_text(encoding="utf-8")


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == sorted(CASES)


# Single-cell mutations of the evaluation CSV goldens, and the cells that the
# load rules check by value, not by spelling: the float columns of the bucket
# (section 2) and profile (section 3) tables.
SPELLINGS = (lambda c: "", lambda c: " " + c, lambda c: "+" + c, lambda c: "0" + c,
             lambda c: c + "0", lambda c: "-0.0")
BY_VALUE = {(2, column) for column in BUCKET_CSV_HEADER[3:-1]} | {
    (3, column) for column in PROFILE_CSV_HEADER[1:]}


def mutations(text: str):
    """(section number, column name, document) for each spelling of each cell."""
    lines = text.splitlines(keepends=True)
    section, header = 1, None
    for number, line in enumerate(lines):
        if line == "\n":
            section, header = section + 1, None
            continue
        row = next(csv.reader([line]))
        header = header or row
        for i, cell in enumerate(row):
            # A meta or economics row is name,value; a table cell is named by its header.
            column = row[0] if section in (1, 4) else header[i]
            spellings = dict.fromkeys(spell(cell) for spell in SPELLINGS)
            for spelling in (s for s in spellings if s != cell):
                out = io.StringIO()
                csv.writer(out, lineterminator="\n").writerow(
                    [*row[:i], spelling, *row[i + 1:]])
                yield section, column, "".join([*lines[:number], out.getvalue(),
                                                *lines[number + 1:]])


@pytest.mark.parametrize("name", sorted(n for n in CASES if n.startswith("evaluate_")
                                        and n.endswith(".csv")))
def test_a_mutated_cell_is_refused_or_renders_back(name):
    golden = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    options = dict(zip(CASES[name], CASES[name][1:]))
    economics = None if "--total-cost" not in options else CampaignEconomics(
        Fraction(options["--total-cost"]), int(options["--addresses"]),
        int(options["--responders"]))
    outcomes = Counter()
    for section, column, document in mutations(golden):
        try:
            evaluation = evaluation_from_csv(document)
        except ValueError:
            outcomes["refused"] += 1
            continue
        rendered = evaluation_to_csv(evaluation, economics)
        if rendered == document:
            outcomes["itself"] += 1
        else:
            assert rendered == golden and (section, column) in BY_VALUE, (section, column)
            outcomes["by value"] += 1
    assert outcomes["refused"] > outcomes["itself"] > 0 < outcomes["by value"]


def test_flags_are_written_sorted():
    # Ten flags: a set order that happens to be sorted is then all but impossible.
    flags = frozenset(f"flag_{i}" for i in range(10))
    sample = rank_sample(samples()["rate8"])
    evaluation = evaluate_model(EvaluationContext(sample=sample), "rate8")
    vars(evaluation)["degeneracy_flags"] = flags  # flags no evaluation may hold, so no load
    as_csv = render_combined_chart(evaluation, "csv")
    assert f"degeneracy_flags,{';'.join(sorted(flags))}\n" in as_csv
    assert json.loads(render_combined_chart(evaluation, "json"))["degeneracy_flags"] == sorted(flags)
    with pytest.raises(ValueError, match=r"^degeneracy_flags \['flag_0', 'flag_1',"):
        evaluation_from_csv(as_csv)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as folder:
        for case in CASES:
            (GOLDEN_DIR / case).write_bytes(render_case(case, Path(folder)).encode("utf-8"))
