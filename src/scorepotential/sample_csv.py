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
from typing import Iterable, Iterator

import numpy as np

from .errors import BadResponseValue, DuplicateId, EmptySample, MalformedRow
from .sample import SampleColumns, ScoredRecord

HEADER = ["id", "score", "response"]
_HEADER_LINE = ",".join(HEADER) + "\n"

# The fast reader takes a file in blocks of about this many bytes, each
# extended to end on a whole line.
BLOCK_BYTES = 1 << 16
# Bytes the fast reader takes: printable ASCII other than space and '"',
# and the newline.  Any other byte (a quote, CR, tab, space, control or
# non-ASCII byte) sends the file to the strict reader.
_PLAIN = bytes(range(0x21, 0x7F)).replace(b'"', b"") + b"\n"
# The CSV writer formats this many rows at a time.
SLICE_ROWS = 1 << 16


def read_sample_columns(path) -> SampleColumns:
    """Read a sample CSV straight into columns, validating the full contract.

    A seekable file of plain lines is read by the fast block reader; on any
    doubt it is read again from the start by the strict reader, which alone
    decides what is wrong with a file.  A pipe is read once, strictly.
    """
    with open(path, "rb") as handle:
        if handle.seekable():
            columns = _read_plain(handle)
            if columns is not None:
                return columns
            handle.seek(0)
        return _read_strict(handle)


def _read_plain(handle) -> SampleColumns | None:
    """Columns of a file of plain 'id,score,response' lines, or None.

    None means the file holds something the strict reader must judge: a
    byte outside _PLAIN, a line without exactly two commas, a score that
    is not a finite '_'-free float, a response other than 0 or 1, an empty
    or repeated id, a line longer than the csv field limit, no record, or
    no final newline.  Whatever this returns, the strict reader returns too.
    """
    if handle.readline(len(_HEADER_LINE)) != _HEADER_LINE.encode():
        return None
    limit = csv.field_size_limit()
    ids: list[str] = []
    seen: set[str] = set()
    scores = array("d")
    responses = bytearray()
    while block := handle.read(BLOCK_BYTES):
        block += handle.readline(limit)
        if not block.endswith(b"\n") or block.translate(None, _PLAIN):
            return None
        codes = np.frombuffer(block, dtype=np.uint8)
        newlines = np.flatnonzero(codes == ord("\n"))
        commas = np.flatnonzero(codes == ord(","))
        # Two commas a line, comma 2k+1 right before line k's one response
        # byte, and that byte 0 or 1 (so not comma 2k+2): then line k holds
        # commas 2k and 2k+1 and no other.
        flags = codes[newlines - 1] - ord("0")
        if (len(commas) != 2 * len(newlines) or (newlines - commas[1::2] != 2).any()
                or (flags > 1).any() or np.diff(newlines, prepend=-1).max() > limit + 1):
            return None
        fields = block.decode("ascii").replace("\n", ",").split(",")
        block_ids = fields[0:-1:3]
        score_texts = fields[1::3]
        if not all(block_ids) or "_" in "".join(score_texts):
            return None
        ids += block_ids
        seen.update(block_ids)
        if len(seen) != len(ids):
            return None
        try:
            scores.extend(map(float, score_texts))
        except ValueError:
            return None
        responses += flags.tobytes()
    values = np.frombuffer(scores, dtype=np.float64)
    if not ids or not np.isfinite(values).all():
        return None
    return SampleColumns(ids, values, np.frombuffer(responses, dtype=np.bool_))


def _read_strict(handle) -> SampleColumns:
    """Read a binary handle row by row; raise on the first error in file order."""
    ids: list[str] = []
    scores = array("d")  # raw doubles and bytes: no Python object per value
    responses = bytearray()
    seen: set[str] = set()
    header_read = False
    # Undecodable bytes are kept as lone surrogates, so that they are reported
    # at their own row, not where the decoder's chunk happens to start.
    text = io.TextIOWrapper(handle, encoding="utf-8", errors="surrogateescape", newline="")
    line_no = 0
    try:
        for line_no, row in enumerate(csv.reader(text), start=1):
            if not row:
                continue
            joined = "".join(row)
            if not joined.isascii():
                try:
                    joined.encode("utf-8")
                except UnicodeEncodeError:
                    raise MalformedRow(line_no, "not valid UTF-8") from None
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
    except csv.Error as err:  # a field over csv.field_size_limit()
        raise MalformedRow(line_no + 1, str(err)) from None
    if not ids:
        raise EmptySample()
    return SampleColumns(ids, np.frombuffer(scores, dtype=np.float64),
                         np.frombuffer(responses, dtype=np.bool_))


def parse_sample_csv(path) -> list[ScoredRecord]:
    """Read scored records from a CSV file, validating the full contract."""
    return read_sample_columns(path).records()


def _csv_slices(sample: SampleColumns | Iterable[ScoredRecord]) -> Iterator[str]:
    """The header line, then the CSV text of SLICE_ROWS rows at a time.

    Takes columns, or records whose columns are extracted first.  Scores are
    written as repr, responses as 0/1.  A slice's lines are formatted
    directly unless one of its ids holds a character csv.writer may quote;
    then csv.writer writes its rows, so the bytes are csv.writer's either way.
    """
    columns = sample if isinstance(sample, SampleColumns) else SampleColumns.from_records(sample)
    yield _HEADER_LINE
    for start in range(0, len(columns), SLICE_ROWS):
        rows = slice(start, start + SLICE_ROWS)
        ids = columns.ids[rows]
        scores = columns.scores[rows].tolist()
        responses = columns.responses[rows].view(np.uint8).tolist()
        try:
            quoted = any(char in "".join(ids) for char in ',"\r\n')
        except TypeError:  # an id that is not a str, formatted the way csv.writer does
            quoted = True
        if not quoted:
            yield "".join([f"{i},{s!r},{r}\n" for i, s, r in zip(ids, scores, responses)])
            continue
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(zip(ids, map(repr, scores), responses))
        yield out.getvalue()


def records_to_csv_text(sample: SampleColumns | Iterable[ScoredRecord]) -> str:
    """CSV text in the same format parse_sample_csv reads (full float precision)."""
    return "".join(_csv_slices(sample))


def _write_csv(sample: SampleColumns | Iterable[ScoredRecord], handle) -> None:
    """Write records_to_csv_text(sample) to a text handle, one slice at a time."""
    handle.writelines(_csv_slices(sample))


def write_sample_csv(records: Iterable[ScoredRecord], path) -> None:
    """Write records in the same format parse_sample_csv reads."""
    with open(path, "w", encoding="utf-8") as handle:
        _write_csv(records, handle)
