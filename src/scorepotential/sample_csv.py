"""CSV ingestion and emission for scored samples.

Contract: UTF-8, comma separator, header exactly ``id,score,response`` on
the first non-blank line, score an ASCII decimal literal, response strictly
0 or 1.  File order is preserved (it is the deterministic tie-breaker
during ranking).
"""

from __future__ import annotations

import csv
import io
import math
from array import array
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import BadResponseValue, DuplicateId, EmptySample, MalformedRow
from .sample import SampleColumns, ScoredRecord

HEADER = ["id", "score", "response"]


def read_sample_columns(path) -> SampleColumns:
    """Read a sample CSV straight into columns, validating the full contract."""
    ids: list[str] = []
    scores = array("d")  # raw doubles and bytes: no Python object per value
    responses = bytearray()
    seen: set[str] = set()
    header_read = False
    with open(path, encoding="utf-8", newline="") as handle:
        for line_no, row in enumerate(csv.reader(handle), start=1):
            if not row:
                continue
            if not header_read:
                if [cell.strip() for cell in row] != HEADER:
                    raise MalformedRow(line_no, "header must be exactly 'id,score,response'")
                header_read = True
                continue
            if len(row) != 3:
                raise MalformedRow(line_no, f"expected 3 fields, got {len(row)}")
            record_id, score_text, response_text = row
            record_id = record_id.strip()
            if not record_id:
                raise MalformedRow(line_no, "empty id")
            if record_id in seen:
                raise DuplicateId(record_id)
            seen.add(record_id)
            score_text = score_text.strip()
            # float() also reads non-ASCII digits and '_' separators; a
            # decimal literal has neither.
            if not score_text.isascii() or "_" in score_text:
                raise MalformedRow(line_no, f"score {score_text!r} is not a decimal literal")
            try:
                score = float(score_text)
            except ValueError:
                raise MalformedRow(line_no, f"score {score_text!r} is not a number") from None
            if not math.isfinite(score):
                raise MalformedRow(line_no, "score must be finite")
            response_text = response_text.strip()
            if response_text not in ("0", "1"):
                raise BadResponseValue(line_no)
            ids.append(record_id)
            scores.append(score)
            responses.append(response_text == "1")
    if not ids:
        raise EmptySample()
    return SampleColumns(ids, np.frombuffer(scores, dtype=np.float64),
                         np.frombuffer(responses, dtype=np.bool_))


def parse_sample_csv(path) -> list[ScoredRecord]:
    """Read scored records from a CSV file, validating the full contract."""
    return read_sample_columns(path).records()


def records_to_csv_text(sample: SampleColumns | Iterable[ScoredRecord]) -> str:
    """CSV text in the same format parse_sample_csv reads (full float precision).

    Takes columns, or records whose columns are extracted first.  Scores are
    written as repr, responses as 0/1.  Lines are formatted directly unless
    an id holds a character csv.writer may quote; then csv.writer writes the
    rows, so the bytes are csv.writer's either way.
    """
    columns = sample if isinstance(sample, SampleColumns) else SampleColumns.from_records(sample)
    responses = columns.responses.view(np.uint8).tolist()
    scores = columns.scores.tolist()
    header = ",".join(HEADER) + "\n"
    try:
        quoted = any(char in "".join(columns.ids) for char in ',"\r\n')
    except TypeError:  # an id that is not a str, formatted the way csv.writer does
        quoted = True
    if not quoted:
        return header + "".join(
            [f"{i},{s!r},{r}\n" for i, s, r in zip(columns.ids, scores, responses)])
    out = io.StringIO()
    out.write(header)
    csv.writer(out, lineterminator="\n").writerows(zip(columns.ids, map(repr, scores), responses))
    return out.getvalue()


def write_sample_csv(records: Iterable[ScoredRecord], path) -> None:
    """Write records in the same format parse_sample_csv reads."""
    Path(path).write_text(records_to_csv_text(records), encoding="utf-8")
