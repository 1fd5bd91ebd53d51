"""Byte-for-byte goldens of the machine formats and the text reports.

Round-trip tests cannot see a change of bytes that parses back to an equal
value (say, degeneracy flags written unsorted); these tests can.  The files
under tests/golden/ are the documents the CLI writes for the worked samples.
Regenerate them with ``python -m tests.test_golden`` from the repository
root, and only for an intended change of output.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from scorepotential import (
    EvaluationContext,
    ScoredRecord,
    evaluate_model,
    evaluation_from_csv,
    rank_sample,
    records_to_csv_text,
    render_combined_chart,
)
from scorepotential.cli import main
from tests.conftest import (
    RATE4_DECILE_RESPONDERS,
    RATE8_DECILE_RESPONDERS,
    bucketed_records,
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
    "evaluate_rate4_economics.json": ["evaluate", "rate4", "--format", "json", *RATE4_ECONOMICS],
    "evaluate_rate4_economics.csv": ["evaluate", "rate4", "--format", "csv", *RATE4_ECONOMICS],
    "evaluate_rate4_economics.txt": ["evaluate", "rate4", *RATE4_ECONOMICS],
    "evaluate_rate8_no_responder_economics.json":
        ["evaluate", "rate8", "--format", "json", *NO_RESPONDER_ECONOMICS],
    "evaluate_rate8_no_responder_economics.csv":
        ["evaluate", "rate8", "--format", "csv", *NO_RESPONDER_ECONOMICS],
    "evaluate_rate8_no_responder_economics.txt":
        ["evaluate", "rate8", *NO_RESPONDER_ECONOMICS],
    "compare_target80.json":
        ["compare", "rate4", "rate8", "all_responders", "--target", "80", "--format", "json"],
    "compare_target80.csv":
        ["compare", "rate4", "rate8", "all_responders", "--target", "80", "--format", "csv"],
    "compare_target80.txt": ["compare", "rate4", "rate8", "all_responders", "--target", "80"],
    "gen_37_rate4.csv":
        ["gen", "--size", "37", "--rate", "0.04", "--quality", "0.6", "--seed", "7"],
    "gen_1000_rate4.csv":
        ["gen", "--size", "1000", "--rate", "0.04", "--quality", "0.6", "--seed", "20100707"],
    # Every name responds; ids keep their minimum width of six digits.
    "gen_5_all_responders.csv":
        ["gen", "--size", "5", "--rate", "1", "--quality", "1", "--seed", "3"],
}

# sha256 of the `gen` output at the benchmark's size, rate and quality.
GEN_200K_ARGS = ["gen", "--size", "200000", "--rate", "0.04", "--quality", "0.6", "--seed", "1"]
GEN_200K_SHA256 = "86a32007d1cb051cca41f253f17ead176c62d7e5833184772ec74cb83c4d8588"


def samples() -> dict[str, list[ScoredRecord]]:
    # Every name responds and scores come in groups of three, so both
    # degeneracy flags (all_responders, ties_present) are raised.
    all_responders = [ScoredRecord(f"t{i:02d}", float(i // 3), 1) for i in range(20)]
    return {
        "rate4": bucketed_records(RATE4_DECILE_RESPONDERS, 10),
        "rate8": bucketed_records(RATE8_DECILE_RESPONDERS, 10),
        "all_responders": all_responders,
    }


def render_case(name: str, folder: Path) -> str:
    paths = {}
    for stem, records in samples().items():
        paths[stem] = folder / f"{stem}.csv"
        paths[stem].write_text(records_to_csv_text(records), encoding="utf-8")
    argv = [str(paths.get(arg, arg)) for arg in CASES[name]]
    out = io.StringIO()
    assert main(argv, out=out) == 0
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_the_golden_bytes(name, tmp_path):
    expected = (GOLDEN_DIR / name).read_bytes()
    assert render_case(name, tmp_path).encode("utf-8") == expected


def test_gen_bytes_at_the_benchmark_size_are_pinned():
    out = io.StringIO()
    assert main(GEN_200K_ARGS, out=out) == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == GEN_200K_SHA256


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == sorted(CASES)


def test_flags_are_written_sorted():
    # Ten flags: a set order that happens to be sorted is then all but impossible.
    flags = frozenset(f"flag_{i}" for i in range(10))
    sample = rank_sample(samples()["rate8"])
    evaluation = dataclasses.replace(
        evaluate_model(EvaluationContext(sample=sample), "rate8"), degeneracy_flags=flags)
    as_csv = render_combined_chart(evaluation, "csv")
    assert f"degeneracy_flags,{';'.join(sorted(flags))}\n" in as_csv
    assert json.loads(render_combined_chart(evaluation, "json"))["degeneracy_flags"] == sorted(flags)
    assert evaluation_from_csv(as_csv) == evaluation


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as folder:
        for case in CASES:
            (GOLDEN_DIR / case).write_bytes(render_case(case, Path(folder)).encode("utf-8"))
