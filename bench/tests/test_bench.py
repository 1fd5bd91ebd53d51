"""Fast tests of the benchmark itself, at a fiftieth of the workload sizes.

Run with ``python3 -m pytest bench/tests`` from the repository root.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

import bootstrap
import inputs
import oracle
import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def one_setup(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_checks_pass_at_seed(workload):
    result, _ = run.run(workload, seed=3, seconds=0, trace=False, scale=50)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["metrics"]["ok_ratio"]["value"] == 1.0


@pytest.mark.parametrize("workload, nonzero, exact", [
    ("evaluate-large",
     ["engine.evaluate_model.self_s", "sample.rank_sample.busy_s", "report.output_bytes"],
     {"sample_csv.parse_sample_csv.rows": 4000, "metrics.beni_at_cutoff.calls": 10}),
    ("compare-batch",
     ["cli.compare.span_overlap", "engine.compare_models.busy_s",
      "figure.render_pop_vs_beni_figure.busy_s", "report.render_comparison.busy_s"],
     {"sample_csv.parse_sample_csv.rows": 4000, "metrics.beni_at_cutoff.calls": 80}),
    ("ties-library",
     ["metrics.auc_crosscheck.peak_alloc_mb", "report.evaluation_from_csv.busy_s",
      "sample.tied_row_share", "sample.straddling_tie_groups"],
     {"sample_csv.parse_sample_csv.rows": 0, "metrics.beni_at_cutoff.calls": 297}),
    ("gen-write",
     ["sample_csv.records_to_csv_text.busy_s", "engine.generate_sample.busy_s",
      "cli.main.self_s"],
     {"sample_csv.parse_sample_csv.rows": 0, "metrics.beni_at_cutoff.calls": 0}),
])
def test_traced_run_reports_every_layer_metric(workload, nonzero, exact):
    result, lines = run.run(workload, seed=3, seconds=0, trace=True, scale=50)
    assert result["correct"]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert all(metrics[name] > 0 for name in nonzero)
    assert {name: metrics[name] for name in exact} == exact
    assert not any("not traced" in line for line in lines)


def off_by_one_ulp(function):
    def corrupted(*args, **kwargs):
        return math.nextafter(function(*args, **kwargs), math.inf)
    return corrupted


def test_corrupted_pop_is_counted_as_a_failed_call(tmp_path, monkeypatch):
    import scorepotential.engine

    sample = inputs.generate("ties", 1000, inputs.QUALITY, seed=3, decimals=2)
    npz = tmp_path / "ties.npz"
    inputs.save_npz(sample, npz)
    assert not any(c["problems"] for c in bootstrap.run_library(npz, 0, trace=False))

    monkeypatch.setattr(scorepotential.engine, "pop_exact",
                        off_by_one_ulp(scorepotential.engine.pop_exact))
    calls = bootstrap.run_library(npz, 0, trace=False)
    assert all(any("pop_exact" in p for p in c["problems"]) for c in calls)


def test_corrupted_cli_document_fails_the_check(tmp_path):
    from scorepotential.cli import main

    sample = inputs.generate("small", 2000, inputs.QUALITY, seed=3)
    path = inputs.write_csv(sample, tmp_path)
    out = tmp_path / "out.json"
    with open(out, "w", encoding="utf-8") as handle:
        assert main(["evaluate", str(path), "--format", "json"], out=handle) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    expected = oracle.expect(sample, "midrank", 10, inputs.DECILES)
    assert oracle.check_summary(oracle.summary_of_document(doc), expected, "small") == []

    doc["pop_exact"] = math.nextafter(doc["pop_exact"], math.inf)
    doc["gains"]["buckets"][0]["responders"] += 1
    problems = oracle.check_summary(oracle.summary_of_document(doc), expected, "small")
    assert any("pop_exact" in p for p in problems)
    assert any("bucket responders sum" in p for p in problems)


def test_oracle_brackets_pop_by_tie_policy():
    sample = inputs.generate("ties", 1000, inputs.QUALITY, seed=5, decimals=2)
    pops = [oracle.expect(sample, p, 10, inputs.DECILES).pop
            for p in ("pessimistic", "midrank", "optimistic")]
    assert pops[0] < pops[1] < pops[2]


def test_closed_loop_times_the_reference_around_every_call():
    calls = bootstrap.closed_loop(0, True, lambda call_id, traced: {"wall_s": 0.06})
    assert len(calls) == 2 and all(c["reference_s"] > 0 for c in calls)
    call = {"wall_s": 1.5, "reference_s": 2 * run.REFERENCE_NOMINAL_S}
    assert run.scaled(call) == 0.75


def test_call_tail_has_ten_calls_beyond_it():
    assert run.call_tail([float(i) for i in range(30)]) == (19.0, 100 * 20 / 30, 10)
    assert run.call_tail([float(i) for i in range(21, 0, -1)]) == (11.0, 100 * 11 / 21, 10)
    assert run.call_tail([4.0, 1.0, 3.0, 2.0]) == (3.0, 75.0, 1)


def test_benchmark_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gen-write", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
