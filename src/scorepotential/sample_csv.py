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
from contextlib import nullcontext
from functools import cached_property
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import BadResponseValue, DuplicateId, EmptySample, MalformedRow
from .sample import SampleColumns

HEADER = ["id", "score", "response"]
_HEADER_LINE = ",".join(HEADER) + "\n"

# The fast reader takes a file in blocks of about this many bytes, each
# extended to end on a whole line.
BLOCK_BYTES = 1 << 16
# Bytes the fast reader takes: printable ASCII other than space and '"',
# and the newline.  Any other byte (a quote, CR, tab, space, control or
# non-ASCII byte) leaves its block and the rest to the strict reader.
_PLAIN = bytes(range(0x21, 0x7F)).replace(b'"', b"") + b"\n"
# The CSV writer formats this many rows at a time.
SLICE_ROWS = 1 << 16


def read_sample_columns(path) -> SampleColumns:
    """Read a sample CSV, from a path or a binary stream (left open), straight
    into columns, validating the full contract.

    The stream is read once and never sought, so a pipe reads as a file does:
    the block reader takes the plain lines at its head and refuses a repeated
    id among them; the strict reader, which alone judges other bad input,
    reads the lines the block reader read but did not take, then the rest.
    """
    ids = _TakenIds()
    scores = array("d")  # raw doubles and bytes: no Python object per value
    responses = bytearray()
    with nullcontext(path) if hasattr(path, "read") else open(path, "rb") as handle:
        taken, head = _read_plain(handle, ids, scores, responses)
        ids.check_unique()
        if head:  # lines left for the strict reader
            ids = list(ids)
            _read_strict(head, handle, ids, set(ids), scores, responses, taken)
    if not ids:
        raise EmptySample()
    return SampleColumns(ids, np.frombuffer(scores), np.frombuffer(responses, dtype=np.bool_))


def _keys(block: bytes, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """A uint64 of each id block[start:end]: its own bytes if 8 or fewer, else mixed from them."""
    lengths = ends - starts
    longest = int(lengths.max())
    # words[i] reads block[i - 8:i] as one integer, with zeros past the block.
    padded = bytes(8) + block + bytes(longest + 8)
    words = np.ndarray(len(padded) - 7, "<u8", padded, strides=(1,))
    # Each id's last 1-8 bytes, zero-extended: no taken id holds a zero byte.
    last = words[ends] >> (8 * (-lengths % 8)).astype(np.uint64)
    key = np.where(lengths > 8, words[starts + 8], last)
    # Round `at` mixes in bytes at..at+8 of each id longer than at.
    for at in range(8, longest, 8):
        mixed = (key ^ (key >> 30)) * 0xBF58476D1CE4E5B9  # the splitmix64 finaliser
        mixed = (mixed ^ (mixed >> 27)) * 0x94D049BB133111EB
        word = np.where(lengths > at + 8, words[starts + at + 8], last)
        key = np.where(lengths > at, mixed ^ (mixed >> 31) ^ word, key)
    return key


class _TakenIds(Sequence):
    """The ids of the lines the block reader took, kept in its blocks' bytes until read."""

    def __init__(self):
        self.blocks, self.keys, self.count = [], [], 0  # and the uint64 keys of the blocks' ids

    def check_unique(self) -> None:
        """Raise DuplicateId for the first id, in file order, that repeats an earlier one."""
        keys = np.sort(np.concatenate([np.empty(0, np.uint64), *self.keys]))
        self.keys = None  # checked: the count answers len()
        # Equal keys: a repeat, or distinct ids sharing a key by chance, whose walk raises nothing.
        if (keys[1:] == keys[:-1]).any():
            seen = set()
            for record_id in self._list:
                if record_id in seen:
                    raise DuplicateId(record_id)
                seen.add(record_id)

    @cached_property
    def _list(self) -> list[str]:
        return b"".join(self.blocks).decode("ascii").replace("\n", ",").split(",")[0:-1:3]

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, index):
        return self._list[index]

    def __iter__(self):
        return iter(self._list)

    def __eq__(self, other) -> bool:
        return self._list == other


def _read_plain(handle, ids: _TakenIds, scores, responses) -> tuple[int, bytes]:
    """Append the plain lines at the stream's head, block by block; return how
    many, and the bytes read but not taken.

    The count includes the header.  The reader stops at the header line if it
    is not exactly HEADER, or at the first block that holds something for the
    strict reader to judge: a byte outside _PLAIN, a line without exactly two
    commas, a score that is not a finite '_'-free float, a response other than
    0 or 1, an empty id, a line over the csv field limit, or no final newline.
    The bytes not taken are that line or block, read on to the end of its last
    line, so they never end inside a line, a CRLF pair or a UTF-8 character.
    """
    block = handle.readline(len(_HEADER_LINE))
    header = block == _HEADER_LINE.encode()
    limit = csv.field_size_limit()
    while header and (block := handle.read(BLOCK_BYTES)):
        block += handle.readline(limit)
        if not block.endswith(b"\n") or block.translate(None, _PLAIN):
            break
        codes = np.frombuffer(block, dtype=np.uint8)
        # Every line's separators are comma, comma, newline, and comma 3k+1 is
        # right before line k's one response byte, 0 or 1.
        separators = np.flatnonzero((codes == ord(",")) | (codes == ord("\n")))
        count, rest = divmod(len(separators), 3)
        newlines, ends = separators[2::3], separators[0::3]
        flags = codes[newlines - 1] - ord("0")
        starts = np.append(0, newlines[:-1] + 1)
        if (rest or codes[separators].tobytes() != b",,\n" * count
                or (newlines - separators[1::3] != 2).any() or (flags > 1).any()
                or (ends == starts).any()  # an empty id
                or len(block) > limit and (newlines - starts).max() > limit):
            break
        # Piece 2k+1 is line k's score; the others hold a response and the next id.
        score_texts = block.split(b",")[1::2]
        if b"_" in block and b"_" in b"".join(score_texts):
            break
        try:
            block_scores = np.fromiter(map(float, score_texts), np.float64, count)
        except ValueError:
            break
        if not np.isfinite(block_scores).all():
            break
        ids.blocks.append(block)
        ids.keys.append(_keys(block, starts, ends))
        ids.count += count
        scores.frombytes(block_scores.view(np.uint8))
        responses += flags.tobytes()
    # block is b"" at the end of the stream, where readline reads b"" too.
    return header + ids.count, block if block.endswith(b"\n") else block + handle.readline()


def _read_strict(head: bytes, handle, ids, seen, scores, responses, taken: int) -> None:
    """Append the rows of head, then of the rest of the handle, which follow the
    first `taken` lines (the header among them if any).  head ends where a line
    does, so the two read as one stream of lines.

    Raises on the first error in file order, at the file line its row ends on.
    """
    header_read = taken > 0
    # Undecodable bytes are kept as lone surrogates, so that they are reported
    # at their own row, not where the decoder's chunk happens to start.
    head_text, text = (io.TextIOWrapper(stream, encoding="utf-8", errors="surrogateescape",
                                        newline="") for stream in (io.BytesIO(head), handle))
    reader = csv.reader(chain(head_text, text))
    try:
        for row in reader:
            if not row:
                continue
            line_no = taken + reader.line_num
            joined = "".join(row)
            if not joined.isascii():
                try:
                    joined.encode("utf-8")
                except UnicodeEncodeError:
                    raise MalformedRow(line_no, "not valid UTF-8") from None
            if not header_read:
                if [cell.strip() for cell in row] != HEADER:
                    why = "header must be exactly 'id,score,response'"
                    if row[0].startswith("\ufeff"):  # as Excel's "CSV UTF-8" export writes
                        why += " (it starts with a UTF-8 byte-order mark)"
                    raise MalformedRow(line_no, why)
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
        raise MalformedRow(taken + reader.line_num, str(err)) from None
    finally:
        text.detach()  # the handle stays open, for its owner to close


def csv_table(columns: list) -> str:
    """The lines csv.writer writes for the rows the columns zip into (None an empty
    cell), by one % of a row template: str is repr for a float, as in csv.writer.
    Only cells that could hold what csv.writer quotes are tested: none of a number
    array column, the joined cells of a column of str, and the text of a table with
    any other column, whose commas or newlines then miscount.  A table holding such
    a cell, or of one column, is written by csv.writer."""
    rows, width = len(columns[0]), len(columns)
    cells = [None] * (rows * width)
    quoted, other = width == 1, False  # a one-column row of an empty cell is quoted
    for at, column in enumerate(columns):
        if isinstance(column, np.ndarray) and column.dtype.kind in "biuf":  # bool, int, float
            column = column.tolist()
        else:
            try:
                text = "".join(column)
            except TypeError:  # a cell that is not a str: None, a number or another object
                other = True
            else:
                quoted = quoted or any(char in text for char in ',"\r\n')
        cells[at::width] = column  # a cell is an argument of the format, never part of it
    template = (",".join(["%s"] * width) + "\n") * rows
    if not quoted:
        text = template % tuple(cells)
        if other and "None" in text:
            text = template % tuple("" if cell is None else cell for cell in cells)
        if not other or text.count(",") == rows * (width - 1) and text.count("\n") == rows and (
                not ('"' in text or "\r" in text)):
            return text
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(zip(*[iter(cells)] * width))  # row by row
    return out.getvalue()


def write_sample_csv(sample: SampleColumns, target) -> None:
    """Write a sample in the format read_sample_columns reads, to a path or a text
    stream (left open): the header, then SLICE_ROWS rows at a time by csv_table.
    Scores are written as repr (full float precision), responses as 0/1."""
    with nullcontext(target) if hasattr(target, "write") else open(
            target, "w", encoding="utf-8") as handle:
        handle.write(_HEADER_LINE)
        for start in range(0, len(sample), SLICE_ROWS):
            rows = slice(start, start + SLICE_ROWS)
            handle.write(csv_table([sample.ids[rows], sample.scores[rows],
                                    sample.responses[rows].view(np.uint8)]))
