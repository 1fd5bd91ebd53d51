"""Shared fixtures: the classic worked samples and independent test oracles."""

from __future__ import annotations

import csv
import io

import numpy as np
import pytest

from scorepotential import ScoredRecord, TiePolicy, rank_sample
from scorepotential.rounding import round_half_up, to_fraction

# Score/response pairs of the ten-name worked sample: three responders whose
# scores rank 9th, 6th and 5th from the bottom.
TEN_NAME_ROWS = [
    ("a10", 4000.0, 0),
    ("a09", 3999.0, 1),
    ("a08", 3031.0, 0),
    ("a07", 2900.0, 0),
    ("a06", 2500.0, 1),
    ("a05", 2455.0, 1),
    ("a04", 2100.0, 0),
    ("a03", 1900.0, 0),
    ("a02", 1600.0, 0),
    ("a01", 500.0, 0),
]

# Responders per decile, top bucket first.
RATE8_DECILE_RESPONDERS = [3, 1, 1, 1, 0, 0, 1, 1, 0, 0]
RATE4_DECILE_RESPONDERS = [0, 0, 3, 1, 0, 0, 0, 0, 0, 0]


def ten_name_records() -> list[ScoredRecord]:
    return [ScoredRecord(rid, score, resp) for rid, score, resp in TEN_NAME_ROWS]


def bucketed_records(
    responders_top_down: list[int],
    names_per_bucket: int,
    placement: str = "top",
) -> list[ScoredRecord]:
    """Distinct-score records realizing the given per-bucket responder counts.

    Bucket i of the top-down list covers the i-th highest block of scores;
    placement picks where responders sit inside their bucket ("top" or
    "bottom"), which moves the exact score potential but no bucket column.
    """
    bucket_count = len(responders_top_down)
    records = []
    for row, resp_count in enumerate(responders_top_down):
        if not 0 <= resp_count <= names_per_bucket:
            raise ValueError("responder count exceeds bucket size")
        bno = bucket_count - row
        low = (bno - 1) * names_per_bucket
        for j in range(names_per_bucket):
            position = low + j  # ascending-rank position, 0-based
            if placement == "top":
                is_resp = j >= names_per_bucket - resp_count
            else:
                is_resp = j < resp_count
            records.append(
                ScoredRecord(f"n{position:04d}", float(position), int(is_resp))
            )
    return records


def brute_force_pop(records) -> float:
    """Independent score-potential computation: sort, enumerate, sum.

    Assumes distinct scores (no tie handling on purpose).
    """
    ordered = sorted(records, key=lambda r: r.score)
    n = len(ordered)
    k = sum(r.response for r in ordered)
    numerator = sum(pos for pos, rec in enumerate(ordered, start=1) if rec.response)
    denominator = sum(range(n - k + 1, n + 1))
    return 100 * numerator / denominator


def reference_rank(records, tie_policy=TiePolicy.MIDRANK):
    """Record-by-record ranking loop, the oracle for the columnar ranker.

    Returns the records in ascending rank order and their parallel ranks.
    """
    ordered = sorted(records, key=lambda r: r.score)
    n = len(ordered)
    ranks = [0.0] * n

    i = 0
    while i < n:
        j = i
        while j + 1 < n and ordered[j + 1].score == ordered[i].score:
            j += 1
        if i == j:
            ranks[i] = float(i + 1)
        elif tie_policy is TiePolicy.MIDRANK:
            mid = (i + 1 + j + 1) / 2
            for p in range(i, j + 1):
                ranks[p] = mid
        else:
            group = ordered[i : j + 1]
            if tie_policy is TiePolicy.PESSIMISTIC:
                group.sort(key=lambda r: -r.response)
            else:
                group.sort(key=lambda r: r.response)
            ordered[i : j + 1] = group
            for p in range(i, j + 1):
                ranks[p] = float(p + 1)
        i = j + 1
    return tuple(ordered), tuple(ranks)


def pairwise_auc(records) -> float:
    """Mann-Whitney AUC from the full responder x non-responder comparison matrix."""
    responders = np.array([r.score for r in records if r.response == 1], dtype=float)
    others = np.array([r.score for r in records if r.response == 0], dtype=float)
    wins = np.sum(responders[:, None] > others[None, :])
    ties = np.sum(responders[:, None] == others[None, :])
    return float((wins + 0.5 * ties) / (responders.size * others.size))


def reference_csv_text(records) -> str:
    """Record-by-record csv.writer loop, the oracle for the columnar CSV writer."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["id", "score", "response"])
    for record in records:
        writer.writerow([record.id, repr(record.score), record.response])
    return out.getvalue()


def reference_generate_sample(size, base_rate, quality, seed) -> list[ScoredRecord]:
    """Record-per-row generator loop, the oracle for the columnar generator.

    Takes valid arguments only; the range checks are tested on the library.
    """
    k = round_half_up(to_fraction(base_rate) * size)
    rng = np.random.default_rng(seed)
    responses = np.zeros(size, dtype=int)
    responses[rng.choice(size, k, replace=False)] = 1
    scores = rng.random(size) + quality * responses
    width = max(6, len(str(size)))
    return [
        ScoredRecord(id=f"n{i + 1:0{width}d}", score=float(s), response=int(v))
        for i, (s, v) in enumerate(zip(scores, responses))
    ]


@pytest.fixture
def ten_name_sample():
    return rank_sample(ten_name_records())


@pytest.fixture
def rate8_sample():
    return rank_sample(bucketed_records(RATE8_DECILE_RESPONDERS, 10))


@pytest.fixture
def rate4_sample():
    return rank_sample(bucketed_records(RATE4_DECILE_RESPONDERS, 10))
