"""Seeded benchmark inputs, built outside every timed region.

Every sample comes from ``scorepotential.generate_sample`` with a seed derived
from the workload seed given on the command line, so the same seed gives the
same inputs.  ``HOLDOUT_SEED`` is a second seed that no change is tuned on: a
later claim of a gain must also hold when the benchmark runs with it.

The input properties a workload's behaviour depends on (rows, responders,
share of rows in tie groups, tie groups that straddle a bucket edge or a
cut-off) are computed here with numpy, from the order ``rank_sample``
documents: ascending score, file order inside a tie group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

HOLDOUT_SEED = 20100707
RATE = Fraction(1, 25)
QUALITY = 0.6
DECILES = tuple(Fraction(i, 10) for i in range(1, 11))
PERCENTS = tuple(Fraction(i, 100) for i in range(1, 100))


@dataclass(frozen=True)
class Sample:
    """One scored sample as parallel columns, in file order."""

    stem: str
    scores: np.ndarray
    responses: np.ndarray

    @property
    def rows(self) -> int:
        return len(self.scores)

    @property
    def responders(self) -> int:
        return int(self.responses.sum())


def generate(stem: str, rows: int, quality: float, seed: int, decimals: int | None = None) -> Sample:
    """A sample from the program's own generator, optionally rounded to ties."""
    from scorepotential import generate_sample

    records = generate_sample(rows, RATE, quality, seed)
    scores = np.array([r.score for r in records], dtype=np.float64)
    responses = np.array([r.response for r in records], dtype=np.int64)
    if decimals is not None:
        scores = np.round(scores, decimals)
    return Sample(stem, scores, responses)


def record_ids(rows: int) -> list[str]:
    return [f"r{i:07d}" for i in range(rows)]


def write_csv(sample: Sample, directory: Path) -> Path:
    """Write the sample in the CLI's input format with the benchmark's own formatter."""
    path = directory / f"{sample.stem}.csv"
    lines = [
        f"{rid},{score!r},{resp}\n"
        for rid, score, resp in zip(record_ids(sample.rows), sample.scores.tolist(),
                                    sample.responses.tolist())
    ]
    path.write_text("id,score,response\n" + "".join(lines), encoding="utf-8")
    return path


def save_npz(sample: Sample, path: Path) -> None:
    np.savez(path, scores=sample.scores, responses=sample.responses)


def load_npz(path: Path, stem: str) -> Sample:
    with np.load(path) as data:
        return Sample(stem, data["scores"], data["responses"])


def selection_count(rows: int, cut: Fraction) -> int:
    """Half-up rounding of cut * rows, the size of the selected top set."""
    return math.floor(cut * rows + Fraction(1, 2))


def boundaries(rows: int, buckets: int | None, cutoffs: tuple[Fraction, ...]) -> np.ndarray:
    """Ascending positions p where records p-1 and p fall on different sides of an edge."""
    edges = set()
    if buckets:
        edges.update(j * rows // buckets for j in range(1, buckets))
    edges.update(rows - selection_count(rows, cut) for cut in cutoffs)
    return np.array(sorted(e for e in edges if 0 < e < rows), dtype=np.int64)


def tie_groups(sorted_scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end (exclusive) positions of each run of equal scores."""
    starts = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    ends = np.r_[starts[1:], len(sorted_scores)]
    return starts, ends


def properties(samples: list[Sample], buckets: int | None, cutoffs: tuple[Fraction, ...]) -> dict:
    """Rows, responders, tied-row share and straddling tie groups over all samples."""
    rows = responders = tied = straddling = 0
    for sample in samples:
        ordered = np.sort(sample.scores, kind="stable")
        starts, ends = tie_groups(ordered)
        sizes = ends - starts
        tied += int(sizes[sizes > 1].sum())
        edges = boundaries(sample.rows, buckets, cutoffs)
        inside = np.searchsorted(edges, ends, "left") - np.searchsorted(edges, starts, "right")
        straddling += int(np.count_nonzero(inside > 0))
        rows += sample.rows
        responders += sample.responders
    return {
        "rows": rows,
        "responders": responders,
        "tied_row_share": tied / rows,
        "straddling_tie_groups": straddling,
    }
