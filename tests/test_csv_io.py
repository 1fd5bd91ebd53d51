"""Sample CSV contract: parsing, validation errors, round-trip."""

from __future__ import annotations

import csv
import os
from array import array
from unittest import mock

import numpy as np
import pytest

from scorepotential import (
    BadResponseValue,
    DuplicateId,
    EmptySample,
    MalformedRow,
    ScoredRecord,
    TiePolicy,
    ToolkitError,
    generate_sample,
    rank_sample,
    read_sample_columns,
    records_to_csv_text,
    write_sample_csv,
)
from scorepotential import sample_csv
from tests.conftest import (byte_stream, read_csv_bytes, read_through_fifo, reference_csv_text,
                            reference_rank, ten_name_records)


def _write(tmp_path, text):
    path = tmp_path / "sample.csv"
    path.write_text(text, encoding="utf-8")
    return path


def test_parses_the_ten_row_worked_sample(tmp_path):
    path = tmp_path / "t3.csv"
    write_sample_csv(ten_name_records(), path)
    records = read_sample_columns(path).records()
    assert len(records) == 10
    assert sum(r.response for r in records) == 3
    assert records == ten_name_records()


def test_file_order_is_preserved(tmp_path):
    path = _write(tmp_path, "id,score,response\nzz,1.0,0\naa,2.0,1\nmm,1.5,0\n")
    assert [r.id for r in read_sample_columns(path).records()] == ["zz", "aa", "mm"]


def test_header_only_file_is_empty_sample(tmp_path):
    path = _write(tmp_path, "id,score,response\n")
    with pytest.raises(EmptySample):
        read_sample_columns(path)


def test_wrong_header(tmp_path):
    path = _write(tmp_path, "name,value,hit\nx,1.0,0\n")
    with pytest.raises(MalformedRow) as excinfo:
        read_sample_columns(path)
    assert excinfo.value.line_no == 1


def test_bad_response_value(tmp_path):
    path = _write(tmp_path, "id,score,response\nx,1.0,2\n")
    with pytest.raises(BadResponseValue) as excinfo:
        read_sample_columns(path)
    assert excinfo.value.line_no == 2


def test_response_must_not_be_blank_or_float(tmp_path):
    for bad in ("", "0.0", "yes"):
        path = _write(tmp_path, f"id,score,response\nx,1.0,{bad}\n")
        with pytest.raises(BadResponseValue):
            read_sample_columns(path)


def test_wrong_field_count(tmp_path):
    path = _write(tmp_path, "id,score,response\nx,1.0\n")
    with pytest.raises(MalformedRow) as excinfo:
        read_sample_columns(path)
    assert "3 fields" in excinfo.value.reason


def test_non_numeric_score(tmp_path):
    path = _write(tmp_path, "id,score,response\nx,abc,0\n")
    with pytest.raises(MalformedRow) as excinfo:
        read_sample_columns(path)
    assert excinfo.value.line_no == 2


def test_non_finite_score_rejected(tmp_path):
    for bad in ("nan", "inf", "-inf"):
        path = _write(tmp_path, f"id,score,response\nx,{bad},0\n")
        with pytest.raises(MalformedRow):
            read_sample_columns(path)


def test_duplicate_id(tmp_path):
    path = _write(tmp_path, "id,score,response\nx,1.0,0\nx,2.0,1\n")
    with pytest.raises(DuplicateId) as excinfo:
        read_sample_columns(path)
    assert excinfo.value.record_id == "x"


def test_empty_id(tmp_path):
    path = _write(tmp_path, "id,score,response\n,1.0,0\n")
    with pytest.raises(MalformedRow):
        read_sample_columns(path)


def test_blank_lines_are_skipped(tmp_path):
    path = _write(tmp_path, "id,score,response\n\nx,1.0,1\n\n")
    assert len(read_sample_columns(path)) == 1


def test_round_trip_preserves_full_float_precision(tmp_path):
    from scorepotential import generate_sample

    records = generate_sample(64, 0.25, 0.37, 1234)
    path = tmp_path / "gen.csv"
    write_sample_csv(records, path)
    assert read_sample_columns(path).records() == records


def test_ids_that_are_not_strings_are_written_as_before():
    records = [ScoredRecord(5, 1.0, 0), ScoredRecord(None, 2.0, 1)]
    assert records_to_csv_text(records) == "id,score,response\n5,1.0,0\n,2.0,1\n"


# A slice is written by one % of its cells, so an id must be an argument of
# that format, never part of it.
@pytest.mark.parametrize("slice_rows", [1, 2, sample_csv.SLICE_ROWS])
def test_ids_that_look_like_format_directives_are_written_as_they_are(slice_rows):
    ids = ["%s", "%d", "%%", "%(x)s", "100%", "é€😀"]
    records = [ScoredRecord(record_id, i / 7, i % 2) for i, record_id in enumerate(ids)]
    with mock.patch.object(sample_csv, "SLICE_ROWS", slice_rows):
        assert records_to_csv_text(records) == reference_csv_text(records)


def test_blank_first_line_does_not_skip_the_header_check(tmp_path):
    path = _write(tmp_path, "\nname,value,hit\nx,1.0,0\n")
    with pytest.raises(MalformedRow) as excinfo:
        read_sample_columns(path)
    assert excinfo.value.line_no == 2
    assert "header" in excinfo.value.reason

    path = _write(tmp_path, "\nid,score,response\nx,1.0,1\n")
    assert read_sample_columns(path).records() == [ScoredRecord("x", 1.0, 1)]


def test_score_must_be_an_ascii_decimal_literal(tmp_path):
    for bad in ("١", "1_0", "٣.٥"):
        path = _write(tmp_path, f"id,score,response\nx,{bad},0\n")
        with pytest.raises(MalformedRow) as excinfo:
            read_sample_columns(path)
        assert excinfo.value.line_no == 2
        assert excinfo.value.exit_code == 21


def test_exponent_and_signed_scores_stay_valid(tmp_path):
    path = _write(tmp_path, "id,score,response\na,1e-05,0\nb,2.5E+10,1\nc,-0.0,0\nd,.5,1\n")
    assert [r.score for r in read_sample_columns(path).records()] == [1e-05, 2.5e10, 0.0, 0.5]


def test_columns_hold_what_the_records_hold(tmp_path):
    path = tmp_path / "t3.csv"
    write_sample_csv(ten_name_records(), path)
    columns = read_sample_columns(path)
    assert list(columns.ids) == [r.id for r in ten_name_records()]
    assert columns.scores.dtype == np.float64 and columns.responses.dtype == np.bool_
    assert columns.records() == ten_name_records()


def _write_bytes(tmp_path, data: bytes):
    path = tmp_path / "sample.csv"
    path.write_bytes(data)
    return path


def test_undecodable_byte_is_a_malformed_row_at_its_line(tmp_path):
    path = _write_bytes(tmp_path, b"id,score,response\na,1.0,0\nb\xff,2.0,1\nc,3.0,0\n")
    with pytest.raises(MalformedRow) as excinfo:
        read_sample_columns(path)
    assert excinfo.value.line_no == 3
    assert excinfo.value.exit_code == 21
    assert "UTF-8" in excinfo.value.reason


def test_undecodable_byte_after_an_earlier_error_is_not_reported_first(tmp_path):
    # The decoder reads ahead in chunks; the bad response on line 2 still wins.
    path = _write_bytes(tmp_path, b"id,score,response\na,1.0,2\nb\xff,2.0,1\n")
    with pytest.raises(BadResponseValue) as excinfo:
        read_sample_columns(path)
    assert excinfo.value.line_no == 2


def test_field_over_the_csv_limit_is_a_malformed_row_at_its_line(tmp_path):
    long_id = "x" * 140_000
    path = _write(tmp_path, f"id,score,response\na,1.0,0\n{long_id},2.0,1\n")
    with pytest.raises(MalformedRow) as excinfo:
        read_sample_columns(path)
    assert excinfo.value.line_no == 3
    assert "field limit" in excinfo.value.reason

    path = _write(tmp_path, f"id,score,response\na,1.0,0\na,1.0,0\n{long_id},2.0,1\n")
    with pytest.raises(DuplicateId):
        read_sample_columns(path)


def test_a_defect_after_the_first_block_is_reported_at_its_own_line(tmp_path, monkeypatch):
    monkeypatch.setattr(sample_csv, "BLOCK_BYTES", 40)
    lines = [f"r{i:03d},0.{i:03d},{i % 2}\n" for i in range(60)]
    lines[44] = "r044,0.044,yes\n"
    path = _write(tmp_path, "id,score,response\n" + "".join(lines))
    with pytest.raises(BadResponseValue) as excinfo:
        read_sample_columns(path)
    assert excinfo.value.line_no == 46


def test_rows_are_named_by_the_file_line_they_end_on(tmp_path):
    path = _write(tmp_path, 'id,score,response\n"a\nb",1.0,0\nc,x,0\n')
    with pytest.raises(MalformedRow, match=r"^line 4: score 'x' is not a number$"):
        read_sample_columns(path)
    path = _write(tmp_path, 'id,score,response\n"a\nb",x,0\n')
    with pytest.raises(MalformedRow, match=r"^line 3: "):
        read_sample_columns(path)


def test_a_file_that_turns_strict_late_is_read_once(tmp_path, monkeypatch):
    monkeypatch.setattr(sample_csv, "BLOCK_BYTES", 40)
    lines = ["id,score,response\n"] + [f"r{i:03d},0.{i:03d},{i % 2}\n" for i in range(59)]
    lines[44] = "r 043,0.043,1\n"  # line 45: a space, for the strict reader
    path = _write(tmp_path, "".join(lines))
    entries = []
    read_strict = sample_csv._read_strict

    def spy(*arguments):  # head, the handle, the columns, then taken
        entries.append((arguments[-1], arguments[0]))
        read_strict(*arguments)

    monkeypatch.setattr(sample_csv, "_read_strict", spy)
    columns = read_sample_columns(path)
    [(taken, head)] = entries
    data, offset = path.read_bytes(), len("".join(lines[:taken]))
    # head is the block not taken, from its first line to the end of its last.
    assert 1 < taken < 45 and head.endswith(b"\n") and head == data[offset:offset + len(head)]
    outcome = (columns.ids, columns.scores.tobytes(), columns.responses.tobytes())
    assert outcome == read_csv_bytes(data, block_reader=False)[1]


@pytest.mark.parametrize("pipe", [False, True])
@pytest.mark.parametrize("block_bytes", [1, sample_csv.BLOCK_BYTES])
def test_block_reader_takes_a_plain_file_as_the_strict_reader_does(tmp_path, monkeypatch,
                                                                  block_bytes, pipe):
    monkeypatch.setattr(sample_csv, "BLOCK_BYTES", block_bytes)
    path = tmp_path / "gen.csv"
    write_sample_csv(generate_sample(300, 0.1, 0.5, 11), path)
    data = path.read_bytes()
    assert read_csv_bytes(data, pipe=pipe) == (301, read_csv_bytes(data, block_reader=False)[1])


def assert_block_reader_defers(data: bytes) -> None:
    """It takes no line past the header, from a file or a pipe alike, and hands
    the strict reader the bytes it read from line 1 or 2 to the end of a line."""
    for pipe in (False, True):
        columns = (sample_csv._TakenIds(), array("d"), bytearray())
        taken, head = sample_csv._read_plain(byte_stream(data, pipe), *columns)
        start = taken * len("id,score,response\n")
        assert taken in (0, 1) and not any(columns)
        assert head == data[start:start + len(head)]
        assert head.endswith(b"\n") or start + len(head) == len(data)
        assert read_csv_bytes(data, pipe=pipe) == read_csv_bytes(data)


@pytest.mark.parametrize("text", [
    "id,score,response\na,1.0,0",          # no final newline
    "id,score,response\na,1.0,0\nb",       # ... after a last line without commas
    "id,score,response\r\na,1.0,0\r\n",    # CR
    "id,score,response\n\"a\",1.0,0\n",    # a quote
    "id,score,response\na b,1.0,0\n",      # a space
    "id,score,response\né,1.0,0\n",        # non-ASCII
    "id,score,response\na,1.0,0\n\n",      # a blank line
    "id, score,response\na,1.0,0\n",       # a header the strict reader strips
    "id,score,response\n",                 # no record
])
def test_block_reader_defers_what_it_does_not_take(text):
    assert_block_reader_defers(text.encode())


LIMIT = csv.field_size_limit()


def test_block_reader_defers_a_line_over_the_csv_limit(tmp_path):
    path = _write(tmp_path, f"id,score,response\n{'x' * (LIMIT - 4)},1.0,0\n")
    assert_block_reader_defers(path.read_bytes())
    # The strict reader takes it: the id itself is inside the limit.
    assert len(read_sample_columns(path)) == 1


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("data", [
    b"id,score,response\ra,1.0,0\rb,2.0,1\r",            # lone CRs
    b"id,score,response\ra,1.0,0\rb,2.0,x\rc,3.0,1\r",  # ... with a bad response on line 3
    b"id,score,response\na,1.0,0\rb,2.0,1\r",            # a header, then lone-CR rows
    b"id,score,response\na,1.0,0\rb,2.0,1\ra,3.0,0\r",   # ... with a repeat on line 4
    b"id,score,response\r\na,1.0,0\nb,2.0,1\n",          # a CRLF header
    "id,score,responseé\na,1.0,0\n".encode(),          # é over bytes 17-18 of the header
    "id,score,responsé\na,1.0,0\n".encode(),           # é over bytes 16-17
    f"id,score,response\na,1.0,0\n{'x' * (LIMIT + 10)},1.0,0\nb,2.0,1\n".encode(),
], ids=["lone-cr", "lone-cr-bad-response", "lf-header-cr-rows", "lf-header-cr-repeat",
        "crlf-header", "split-character-header", "character-header", "over-limit"])
def test_a_file_and_a_pipe_read_as_the_strict_reader_alone(tmp_path, monkeypatch, data):
    # Small blocks, so that the block reader stops inside the line over the limit.
    monkeypatch.setattr(sample_csv, "BLOCK_BYTES", 16)

    def outcome(path):
        try:
            columns = read_sample_columns(path)
        except ToolkitError as err:
            return type(err), str(err)
        return list(columns.ids), columns.scores.tobytes(), columns.responses.tobytes()

    path = tmp_path / "sample.csv"
    path.write_bytes(data)
    expected = read_csv_bytes(data, block_reader=False)[1]
    assert outcome(path) == expected
    assert read_through_fifo(tmp_path / "pipe.csv", data, outcome) == expected


def _strict_reader_never_runs(*_):
    raise AssertionError("the block reader was to take the whole file")


def test_ids_that_share_a_key_load_and_a_repeat_is_named_in_file_order(tmp_path, monkeypatch):
    # Every id gets the same key, so each file goes through the exact check.
    monkeypatch.setattr(sample_csv, "_keys",
                        lambda block, starts, ends: np.zeros(len(starts), np.uint64))
    monkeypatch.setattr(sample_csv, "_read_strict", _strict_reader_never_runs)
    monkeypatch.setattr(sample_csv, "BLOCK_BYTES", 12)
    lines = ["id,score,response\n", "a,0.1,0\n", "b,0.2,1\n", "ab,0.3,0\n", "ba,0.4,1\n"]
    assert read_sample_columns(_write(tmp_path, "".join(lines))).ids == ["a", "b", "ab", "ba"]
    # b comes again (line 6) before ab does (line 7).
    with pytest.raises(DuplicateId) as excinfo:
        read_sample_columns(_write(tmp_path, "".join(lines) + "b,0.5,0\nab,0.6,1\n"))
    assert excinfo.value.record_id == "b"


def test_ids_that_hold_an_underscore_are_taken_but_a_score_with_one_is_refused(tmp_path):
    lines = ["id,score,response\n"] + [f"cust_{i:03d},0.{i},{i % 2}\n" for i in range(1, 7)]
    with mock.patch.object(sample_csv, "_read_strict", _strict_reader_never_runs):
        columns = read_sample_columns(_write(tmp_path, "".join(lines)))
    assert columns.ids == [f"cust_{i:03d}" for i in range(1, 7)]
    lines[4] = "cust_004,1_0,0\n"
    with pytest.raises(MalformedRow, match=r"^line 5: score '1_0' is not a decimal literal$"):
        read_sample_columns(_write(tmp_path, "".join(lines)))


def test_ids_that_differ_only_in_the_middle_get_distinct_keys():
    # Long ids that share their length and their first and last 8 bytes: the
    # key reads every 8 bytes of an id, so none of them shares a key.
    ids = [f"2024-01-15_{i:06d}_campaignA" for i in range(2000)] + ["a", "ab" * 20, "ab" * 4]
    block = "".join(f"{i},0.5,1\n" for i in ids).encode()
    codes = np.frombuffer(block, dtype=np.uint8)
    starts = np.append(0, np.flatnonzero(codes == ord("\n"))[:-1] + 1)
    ends = np.flatnonzero(codes == ord(","))[0::2]
    assert len(set(sample_csv._keys(block, starts, ends).tolist())) == len(ids)


def test_an_id_taken_in_a_block_and_repeated_after_a_quoted_line_is_a_duplicate(
        tmp_path, monkeypatch):
    monkeypatch.setattr(sample_csv, "BLOCK_BYTES", 1)  # a block a line
    entries = []
    read_strict = sample_csv._read_strict

    def spy(*arguments):
        entries.append(arguments[-1])
        read_strict(*arguments)

    monkeypatch.setattr(sample_csv, "_read_strict", spy)
    path = _write(tmp_path, 'id,score,response\na,0.1,0\nb,0.2,1\n"c",0.3,0\na,0.4,0\n')
    with pytest.raises(DuplicateId) as excinfo:
        read_sample_columns(path)
    assert excinfo.value.record_id == "a" and entries == [3]


@pytest.mark.parametrize("policy", list(TiePolicy))
def test_ids_taken_by_the_block_reader_read_as_the_strict_readers_list(tmp_path, monkeypatch,
                                                                       policy):
    records = [ScoredRecord(f"{'n' * (i % 11)}{i}", round(r.score, 1), r.response)
               for i, r in enumerate(generate_sample(400, 0.1, 0.5, 3))]  # ties, varied lengths
    path = tmp_path / "ties.csv"
    write_sample_csv(records, path)
    expected = [r.id for r in records]
    assert read_csv_bytes(path.read_bytes(), block_reader=False)[1][0] == expected
    monkeypatch.setattr(sample_csv, "_read_strict", _strict_reader_never_runs)
    columns = read_sample_columns(path)
    ids = columns.ids
    assert ids == expected and expected == ids and ids != expected[1:] and len(ids) == 400
    assert (ids[0], ids[-1], ids[7:300:9]) == (expected[0], expected[-1], expected[7:300:9])
    assert list(ids) == expected and [*reversed(ids)] == expected[::-1]
    ranked = rank_sample(columns, policy)
    assert ranked.ids.tolist() == [r.id for r in reference_rank(records, policy)[0]]
    with pytest.raises(ValueError):
        ranked.ids[0] = ranked.ids[1]
    assert ranked.records == rank_sample(records, policy).records
