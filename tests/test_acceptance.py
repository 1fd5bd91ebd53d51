"""Acceptance suite: the eleven gate criteria, one pass/fail line each.

The per-criterion lines bypass pytest's output capture, so any run of
``pytest tests/test_acceptance.py`` shows them; every tolerance is pinned
here, nothing is deferred.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import random
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from fractions import Fraction

import pytest

from scorepotential import (
    CutOff,
    EvaluationContext,
    ScoredRecord,
    auc_crosscheck,
    beni,
    beni_at_cutoff,
    beni_max,
    build_gains_chart,
    compare_models,
    evaluate_model,
    generate_sample,
    perfect_rank_sum,
    pop_denominator_exact,
    pop_exact,
    pop_numerator_exact,
    rank_sample,
    render_combined_chart,
    render_comparison,
    write_sample_csv,
)
from scorepotential.cli import main
from scorepotential.metrics import rank_sum_bounds
from scorepotential.rounding import round_half_up
from tests.conftest import (
    RATE8_DECILE_RESPONDERS,
    RATE4_DECILE_RESPONDERS,
    bucketed_records,
    ten_name_records,
)


@pytest.fixture
def criterion(capsys):
    @contextmanager
    def gate(number: int, description: str):
        try:
            yield
        except Exception:
            with capsys.disabled():
                print(f"ACCEPTANCE {number:02d} FAIL: {description}")
            raise
        with capsys.disabled():
            print(f"ACCEPTANCE {number:02d} PASS: {description}")

    return gate


def chart_row_tokens(text: str) -> list[list[str]]:
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if "P'↑max" in line)
    rows = []
    for line in lines[start + 1 :]:
        if not line.strip():
            break
        rows.append(line.split())
    return rows


def test_criterion_01_golden_index_values(criterion):
    with criterion(1, "beni(0.15, 0.08) = 187.5 and beni_max(0.40, 0.08) = 250, exact"):
        assert beni(0.15, 0.08) == 187.5
        assert beni(Fraction(15, 100), Fraction(8, 100)) == 187.5
        assert beni_max(CutOff(0.40), 0.08) == 250.0
        assert beni_max(CutOff(Fraction(2, 5)), Fraction(8, 100)) == 250.0


def test_criterion_02_ten_name_exact_score_potential(criterion):
    with criterion(2, "ten-name sample: P_up 20, P_down 27, PoP 74.07% to 1e-12"):
        sample = rank_sample(ten_name_records())
        assert pop_numerator_exact(sample) == 20.0
        assert pop_denominator_exact(sample) == 27.0
        assert abs(pop_exact(sample) - 2000 / 27) <= 1e-12
        assert round(pop_exact(sample), 2) == 74.07


def test_criterion_03_rate8_decile_rendered_columns(criterion):
    expected = {
        "marginal": ["375", "125", "125", "125", "0", "0", "125", "125", "0", "0"],
        "cumulative": ["375", "250", "208", "188", "150", "125", "125", "125", "111", "100"],
        "ceiling": ["1000", "500", "333", "250", "200", "167", "143", "125", "111", "100"],
        "ratio": ["38%", "50%", "63%", "75%", "75%", "75%", "88%", "100%", "100%", "100%"],
    }
    with criterion(3, "8%-rate decile table: BenI columns match cell-for-cell"):
        sample = rank_sample(bucketed_records(RATE8_DECILE_RESPONDERS, 10))
        evaluation = evaluate_model(EvaluationContext(sample=sample), "rate8")
        rows = chart_row_tokens(render_combined_chart(evaluation, "text"))
        assert [r[7] for r in rows] == expected["marginal"]
        assert [r[8] for r in rows] == expected["cumulative"]
        assert [r[9] for r in rows] == expected["ceiling"]
        assert [r[10] for r in rows] == expected["ratio"]


RATE4_EXPECTED_ROWS = [
    ["10", "0", "0", "0", "0", "0%", "0%", "0", "0", "1000", "0%"],
    ["9", "0", "0", "0", "0", "0%", "0%", "0", "0", "500", "0%"],
    ["8", "3", "23.7", "21.6", "22.65", "57%", "57%", "750", "250", "333", "75%"],
    ["7", "1", "7", "6.1", "6.55", "17%", "74%", "250", "250", "250", "100%"],
    ["6", "0", "0", "0", "0", "0%", "74%", "0", "200", "200", "100%"],
    ["5", "0", "0", "0", "0", "0%", "74%", "0", "167", "167", "100%"],
    ["4", "0", "0", "0", "0", "0%", "74%", "0", "143", "143", "100%"],
    ["3", "0", "0", "0", "0", "0%", "74%", "0", "125", "125", "100%"],
    ["2", "0", "0", "0", "0", "0%", "74%", "0", "111", "111", "100%"],
    ["1", "0", "0", "0", "0", "0%", "74%", "0", "100", "100", "100%"],
]


def test_criterion_04_rate4_combined_chart_reproduction(criterion):
    with criterion(4, "4%-rate combined chart: all eleven columns and the footer"):
        sample = rank_sample(bucketed_records(RATE4_DECILE_RESPONDERS, 10))
        evaluation = evaluate_model(EvaluationContext(sample=sample), "rate4")
        text = render_combined_chart(evaluation, "text")
        assert chart_row_tokens(text) == RATE4_EXPECTED_ROWS
        assert "P↑ = 29.2" in text
        assert "P↓ = 39.4" in text
        assert "PoP = P↑/P↓ = 74%" in text
        chart = evaluation.gains
        assert sum(b.p_up_avg for b in chart.buckets) == 29.2
        assert chart.p_down_chart == 39.4
        assert chart.pop_approx == float(Fraction(14600, 197))  # 74.11...%
        assert round_half_up(chart.pop_approx) == 74


def test_criterion_05_responder_shift_exercise(criterion):
    with criterion(5, "all four responders moved to the top bucket: 97% avg, 100% max"):
        shifted = rank_sample(
            bucketed_records([4, 0, 0, 0, 0, 0, 0, 0, 0, 0], 10, placement="bottom")
        )
        chart = build_gains_chart(shifted, 10)
        assert chart.pop_approx == float(Fraction(382, 394) * 100)  # 38.2/39.4
        assert round_half_up(chart.pop_approx) == 97
        assert chart.pop_max_variant == 100.0
        assert round_half_up(chart.pop_max_variant) == 100


def test_criterion_06_denominator_identities(criterion):
    with criterion(6, "closed form = top-k sum for X<=200; chart = spacing * exact"):
        for x in range(1, 201):
            running = 0
            for k in range(1, x + 1):
                running += x - k + 1  # top-k rank sum built incrementally
                r = Fraction(k, x)
                eq4_form = -((x * x * r * r) / 2 - (x * x + Fraction(x, 2)) * r)
                assert perfect_rank_sum(x, k) == running == eq4_form
            for b in range(1, x + 1):
                if x % b:
                    continue
                spacing = Fraction(b, x)
                for k in range(1, x + 1):
                    # The expression build_gains_chart stores as p_down_chart.
                    assert rank_sum_bounds(b, k, b, x)[0] / x == float(
                        spacing * perfect_rank_sum(x, k)
                    )


def test_criterion_07_bracketing_over_randomized_samples(criterion):
    with criterion(7, ">=1000 random samples: rescaled exact numerator inside the bucket bounds"):
        rng = random.Random(2024)
        violations = 0
        for _ in range(1000):
            bucket_count = rng.choice([2, 5, 10, 20])
            names_per_bucket = rng.randrange(1, 501 // bucket_count + 1)
            size = bucket_count * names_per_bucket
            scores = rng.sample(range(size * 10), size)
            p = rng.uniform(0.05, 0.9)
            responses = [int(rng.random() < p) for _ in range(size)]
            if sum(responses) == 0:
                responses[rng.randrange(size)] = 1
            records = [
                ScoredRecord(f"n{i}", float(s), v)
                for i, (s, v) in enumerate(zip(scores, responses))
            ]
            sample = rank_sample(records)
            build_gains_chart(sample, bucket_count)  # must construct cleanly

            spacing = Fraction(bucket_count, size)
            sum_min = Fraction(0)
            sum_max = Fraction(0)
            for row in range(bucket_count):
                bno = bucket_count - row
                low = (bno - 1) * names_per_bucket
                resp = sum(
                    r.response for r in sample.records[low : low + names_per_bucket]
                )
                sum_max += bno * resp - spacing * (resp - 1) * resp / 2
                if resp:
                    sum_min += (bno - 1 + spacing) * resp + spacing * (resp - 1) * resp / 2
            rescaled = spacing * Fraction(pop_numerator_exact(sample))
            if not sum_min <= rescaled <= sum_max:
                violations += 1
        assert violations == 0


def test_criterion_08_auc_affinity_over_randomized_samples(criterion):
    with criterion(8, ">=1000 tie-free samples: P_up = AUC*k(X-k) + k(k+1)/2 to 1e-9"):
        rng = random.Random(31337)
        for _ in range(1000):
            size = rng.randrange(2, 200)
            k = rng.randrange(1, size)
            scores = rng.sample(range(size * 7), size)
            responder_at = set(rng.sample(range(size), k))
            records = [
                ScoredRecord(f"n{i}", float(s), int(i in responder_at))
                for i, s in enumerate(scores)
            ]
            sample = rank_sample(records)
            p_up = pop_numerator_exact(sample)
            reconstructed = (
                auc_crosscheck(sample) * k * (size - k) + k * (k + 1) / 2
            )
            assert abs(p_up - reconstructed) <= 1e-9 * pop_denominator_exact(sample)


def test_criterion_09_monotone_transform_invariance(criterion):
    with criterion(9, "exp, affine, and random piecewise maps leave PoP and BenI bit-identical"):
        rng = random.Random(555)
        cuts = [CutOff(Fraction(i, 10)) for i in range(1, 11)]
        for _ in range(20):
            size = 40
            scores = [rng.uniform(0, 4) for _ in range(size)]
            responses = [int(rng.random() < 0.25) for _ in range(size)]
            if sum(responses) == 0:
                responses[0] = 1
            records = [
                ScoredRecord(f"n{i}", s, v)
                for i, (s, v) in enumerate(zip(scores, responses))
            ]
            sample = rank_sample(records)
            base_pop = pop_exact(sample)
            base_beni = [beni_at_cutoff(sample, c) for c in cuts]

            ordered = sorted(scores)
            increments = list(
                itertools.accumulate(rng.uniform(0.01, 5.0) for _ in ordered)
            )
            piecewise = dict(zip(ordered, increments))

            for transform in (math.exp, lambda s: 2 * s + 7, piecewise.__getitem__):
                mapped = rank_sample(
                    [ScoredRecord(r.id, transform(r.score), r.response) for r in records]
                )
                assert pop_exact(mapped) == base_pop
                assert [beni_at_cutoff(mapped, c) for c in cuts] == base_beni


def test_criterion_10_comparison_determinism(criterion, tmp_path):
    with criterion(10, "compare over 20 generated models: byte-identical reports, concurrent too"):
        paths = []
        for seed in range(20):
            records = generate_sample(100, 0.05, seed / 19, seed)
            path = tmp_path / f"gen{seed:02d}.csv"
            write_sample_csv(records, path)
            paths.append(str(path))

        def run() -> str:
            out = io.StringIO()
            assert main(["compare", *paths, "--format", "json"], out=out) == 0
            return out.getvalue()

        first, second = run(), run()
        assert first == second

        # Library-level check that a concurrent evaluation run reduces to the
        # same report as a sequential one.
        def evaluate_file(path: str):
            from scorepotential import read_sample_columns

            sample = rank_sample(read_sample_columns(path))
            return evaluate_model(EvaluationContext(sample=sample), path.split("/")[-1][:-4])

        sequential = [evaluate_file(p) for p in paths]
        with ThreadPoolExecutor(max_workers=8) as pool:
            concurrent = list(pool.map(evaluate_file, reversed(paths)))
        assert render_comparison(compare_models(sequential), "json") == render_comparison(
            compare_models(concurrent), "json"
        )
        assert json.loads(first)["ranking"] == list(compare_models(sequential).ranking)


def test_criterion_11_stretch_target_gate(criterion, tmp_path):
    with criterion(11, "4%-rate chart model fails an 80% stretch target; a quality-1.0 model passes"):
        rate4_path = tmp_path / "rate4.csv"
        write_sample_csv(bucketed_records(RATE4_DECILE_RESPONDERS, 10), rate4_path)
        strong_path = tmp_path / "strong.csv"
        write_sample_csv(generate_sample(100, 0.04, 1.0, 7), strong_path)

        out = io.StringIO()
        code = main(
            ["compare", str(rate4_path), str(strong_path), "--target", "80",
             "--format", "json"],
            out=out,
        )
        assert code == 0
        data = json.loads(out.getvalue())
        assert "rate4" in data["below_target"]
        assert "strong" not in data["below_target"]
        assert data["ranking"][0] == "strong"

        gate = {e["model_id"]: e["meets_stretch_target"] for e in data["evaluations"]}
        assert gate == {"rate4": False, "strong": True}
