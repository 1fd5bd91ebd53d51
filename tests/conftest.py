"""Shared fixtures: the classic worked samples and independent test oracles."""

from __future__ import annotations

import csv
import dataclasses
import io
import math
import os
import threading
from array import array
from fractions import Fraction

import numpy as np
import pytest

from scorepotential import (
    BeniPoint,
    Bucket,
    GainsChart,
    SampleColumns,
    ScoredRecord,
    TiePolicy,
    ToolkitError,
    rank_sample,
    sample_csv,
)
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


def stable_rank_order(columns, tie_policy=TiePolicy.MIDRANK):
    """The permutation into rank order by one stable np.lexsort: by score, then
    (but for midrank) by the response flag, then by input order."""
    flag = () if tie_policy is TiePolicy.MIDRANK else (
        columns.responses if tie_policy is TiePolicy.OPTIMISTIC else ~columns.responses,)
    return np.lexsort((*flag, columns.scores))


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


def _arithmetic_row(first, step, count):
    """Sum of the count terms first, first + step, ... on exact rationals."""
    return first * count + step * (count * (count - 1) // 2)


def reference_gains_chart(sample, bucket_count) -> GainsChart:
    """Per-bucket Fraction loop, the oracle for the integer gains chart.

    Every column is an exact rational, converted to float once when stored.
    Takes a divisible bucket count and a sample with responders.
    """
    size = sample.size_x
    responses = sample.responses[::-1].tolist()  # top-down
    k = sum(responses)
    names_per_bucket = size // bucket_count
    spacing = Fraction(bucket_count, size)
    base_rate = Fraction(k, size)
    p_down = _arithmetic_row(bucket_count, -spacing, k)

    buckets, beni_cum, beni_max_cum, attainment, pop_cum, row_cutoffs = [], [], [], [], [], []
    sum_avg = sum_max = sum_min = Fraction(0)
    cum_resp = cum_names = 0
    for row in range(bucket_count):
        bno = bucket_count - row
        resp = sum(responses[row * names_per_bucket : (row + 1) * names_per_bucket])
        cum_resp += resp
        cum_names += names_per_bucket
        if resp == 0:  # every marginal column is 0
            marginal = (0.0, 0.0, 0.0, 0.0, 0.0)
        else:
            mx = _arithmetic_row(bno, -spacing, resp)
            mn = _arithmetic_row(bno - 1 + spacing, spacing, resp)
            avg = (mx + mn) / 2
            sum_max += mx
            sum_min += mn
            sum_avg += avg
            beni_m = Fraction(resp, names_per_bucket) / base_rate * 100
            marginal = (float(mx), float(mn), float(avg), float(beni_m),
                        float(avg / p_down * 100))
        beni_c = Fraction(cum_resp, cum_names) / base_rate * 100
        row_cut = Fraction(cum_names, size)
        ceiling = 100 / max(row_cut, base_rate)
        buckets.append(Bucket(bno, names_per_bucket, resp, *marginal))
        beni_cum.append(float(beni_c))
        beni_max_cum.append(float(ceiling))
        attainment.append(float(beni_c / ceiling * 100))
        pop_cum.append(float(sum_avg / p_down * 100))
        row_cutoffs.append(row_cut)

    return GainsChart(
        tuple(buckets), bucket_count, size, base_rate, spacing, float(p_down),
        float(sum_avg / p_down * 100), float(sum_min / p_down * 100),
        float(sum_max / p_down * 100), tuple(beni_cum), tuple(beni_max_cum),
        tuple(attainment), tuple(pop_cum), tuple(row_cutoffs))


def reference_profile(sample, cutoffs) -> dict:
    """Per-cut-off Fraction loop, the oracle for the BenI profile of evaluate_model.

    Takes cut-offs that select at least one name of a sample with responders.
    """
    responses = sample.responses[::-1].tolist()  # top-down
    rate = Fraction(sum(responses), len(responses))
    profile = {}
    for cut in cutoffs:
        n = math.floor(cut.fraction * len(responses) + Fraction(1, 2))
        benefit = Fraction(sum(responses[:n]), n) / rate * 100
        ceiling = 100 / max(cut.fraction, rate)
        profile[cut] = BeniPoint(float(benefit), float(ceiling), float(benefit / ceiling * 100))
    return profile


def float_bits(value):
    """value with every float in it spelled by float.hex, so that an equality
    test tells -0.0 from 0.0 (and would tell NaN payloads apart)."""
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value):
        return type(value), [float_bits(getattr(value, f.name)) for f in dataclasses.fields(value)]
    if isinstance(value, tuple):
        return type(value), [float_bits(item) for item in value]
    if isinstance(value, dict):
        return [(key, float_bits(item)) for key, item in value.items()]
    return value


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


def written_csv_text(columns: SampleColumns) -> str:
    """The text write_sample_csv writes for the columns to a text stream."""
    out = io.StringIO()
    sample_csv.write_sample_csv(columns, out)
    return out.getvalue()


class _Pipe(io.RawIOBase):
    """A raw byte stream that cannot seek and, as a pipe may, returns fewer bytes
    than asked for: at most 5 a read."""

    def __init__(self, data: bytes):
        self._data = io.BytesIO(data)

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        return self._data.readinto(memoryview(buffer)[:5])


def byte_stream(data: bytes, pipe: bool = False):
    """data as a binary handle: an in-memory file, or a buffered pipe if pipe."""
    return io.BufferedReader(_Pipe(data)) if pipe else io.BytesIO(data)


def read_csv_bytes(data: bytes, block_reader: bool = True, pipe: bool = False):
    """(lines the block reader took, outcome) of the sample CSV readers on data.

    The block reader takes what it can, unless block_reader is False, and the
    strict reader reads the bytes it left and then the rest of the stream, as
    in read_sample_columns.  The stream is a pipe, which cannot seek, if pipe.
    The outcome is the ids, score bytes and response bytes, or the error's
    class and text.
    """
    ids, scores, responses = sample_csv._TakenIds(), array("d"), bytearray()
    handle = byte_stream(data, pipe)
    taken, head = (sample_csv._read_plain(handle, ids, scores, responses) if block_reader
                   else (0, b""))
    try:
        ids.check_unique()
        ids = list(ids)
        sample_csv._read_strict(head, handle, ids, set(ids), scores, responses, taken)
    except ToolkitError as err:
        return taken, (type(err), str(err))
    return taken, (ids, scores.tobytes(), bytes(responses))


def read_through_fifo(fifo, data: bytes, read):
    """read(fifo) while a thread writes data into fifo, a named pipe made here."""
    os.mkfifo(fifo)

    def feed():
        try:
            with open(fifo, "wb") as handle:
                handle.write(data)
        except BrokenPipeError:  # the reader stopped early, on an error
            pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        return read(fifo)
    finally:
        writer.join(timeout=10)
        assert not writer.is_alive()


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
