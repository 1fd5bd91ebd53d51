"""Sample CSV contract: parsing, validation errors, round-trip."""

from __future__ import annotations

import csv

import numpy as np
import pytest

from scorepotential import (
    BadResponseValue,
    DuplicateId,
    EmptySample,
    MalformedRow,
    ScoredRecord,
    generate_sample,
    parse_sample_csv,
    read_sample_columns,
    records_to_csv_text,
    write_sample_csv,
)
from scorepotential import sample_csv
from tests.conftest import ten_name_records


def _write(tmp_path, text):
    path = tmp_path / "sample.csv"
    path.write_text(text, encoding="utf-8")
    return path


def test_parses_the_ten_row_worked_sample(tmp_path):
    path = tmp_path / "t3.csv"
    write_sample_csv(ten_name_records(), path)
    records = parse_sample_csv(path)
    assert len(records) == 10
    assert sum(r.response for r in records) == 3
    assert records == ten_name_records()


def test_file_order_is_preserved(tmp_path):
    path = _write(tmp_path, "id,score,response\nzz,1.0,0\naa,2.0,1\nmm,1.5,0\n")
    assert [r.id for r in parse_sample_csv(path)] == ["zz", "aa", "mm"]


def test_header_only_file_is_empty_sample(tmp_path):
    path = _write(tmp_path, "id,score,response\n")
    with pytest.raises(EmptySample):
        parse_sample_csv(path)


def test_wrong_header(tmp_path):
    path = _write(tmp_path, "name,value,hit\nx,1.0,0\n")
    with pytest.raises(MalformedRow) as excinfo:
        parse_sample_csv(path)
    assert excinfo.value.line_no == 1


def test_bad_response_value(tmp_path):
    path = _write(tmp_path, "id,score,response\nx,1.0,2\n")
    with pytest.raises(BadResponseValue) as excinfo:
        parse_sample_csv(path)
    assert excinfo.value.line_no == 2


def test_response_must_not_be_blank_or_float(tmp_path):
    for bad in ("", "0.0", "yes"):
        path = _write(tmp_path, f"id,score,response\nx,1.0,{bad}\n")
        with pytest.raises(BadResponseValue):
            parse_sample_csv(path)


def test_wrong_field_count(tmp_path):
    path = _write(tmp_path, "id,score,response\nx,1.0\n")
    with pytest.raises(MalformedRow) as excinfo:
        parse_sample_csv(path)
    assert "3 fields" in excinfo.value.reason


def test_non_numeric_score(tmp_path):
    path = _write(tmp_path, "id,score,response\nx,abc,0\n")
    with pytest.raises(MalformedRow) as excinfo:
        parse_sample_csv(path)
    assert excinfo.value.line_no == 2


def test_non_finite_score_rejected(tmp_path):
    for bad in ("nan", "inf", "-inf"):
        path = _write(tmp_path, f"id,score,response\nx,{bad},0\n")
        with pytest.raises(MalformedRow):
            parse_sample_csv(path)


def test_duplicate_id(tmp_path):
    path = _write(tmp_path, "id,score,response\nx,1.0,0\nx,2.0,1\n")
    with pytest.raises(DuplicateId) as excinfo:
        parse_sample_csv(path)
    assert excinfo.value.record_id == "x"


def test_empty_id(tmp_path):
    path = _write(tmp_path, "id,score,response\n,1.0,0\n")
    with pytest.raises(MalformedRow):
        parse_sample_csv(path)


def test_blank_lines_are_skipped(tmp_path):
    path = _write(tmp_path, "id,score,response\n\nx,1.0,1\n\n")
    assert len(parse_sample_csv(path)) == 1


def test_round_trip_preserves_full_float_precision(tmp_path):
    from scorepotential import generate_sample

    records = generate_sample(64, 0.25, 0.37, 1234)
    path = tmp_path / "gen.csv"
    write_sample_csv(records, path)
    assert parse_sample_csv(path) == records


def test_ids_that_are_not_strings_are_written_as_before():
    records = [ScoredRecord(5, 1.0, 0), ScoredRecord(None, 2.0, 1)]
    assert records_to_csv_text(records) == "id,score,response\n5,1.0,0\n,2.0,1\n"


def test_blank_first_line_does_not_skip_the_header_check(tmp_path):
    path = _write(tmp_path, "\nname,value,hit\nx,1.0,0\n")
    with pytest.raises(MalformedRow) as excinfo:
        parse_sample_csv(path)
    assert excinfo.value.line_no == 2
    assert "header" in excinfo.value.reason

    path = _write(tmp_path, "\nid,score,response\nx,1.0,1\n")
    assert parse_sample_csv(path) == [ScoredRecord("x", 1.0, 1)]


def test_score_must_be_an_ascii_decimal_literal(tmp_path):
    for bad in ("١", "1_0", "٣.٥"):
        path = _write(tmp_path, f"id,score,response\nx,{bad},0\n")
        with pytest.raises(MalformedRow) as excinfo:
            parse_sample_csv(path)
        assert excinfo.value.line_no == 2
        assert excinfo.value.exit_code == 21


def test_exponent_and_signed_scores_stay_valid(tmp_path):
    path = _write(tmp_path, "id,score,response\na,1e-05,0\nb,2.5E+10,1\nc,-0.0,0\nd,.5,1\n")
    assert [r.score for r in parse_sample_csv(path)] == [1e-05, 2.5e10, 0.0, 0.5]


def test_columns_hold_what_the_records_hold(tmp_path):
    path = tmp_path / "t3.csv"
    write_sample_csv(ten_name_records(), path)
    columns = read_sample_columns(path)
    assert list(columns.ids) == [r.id for r in ten_name_records()]
    assert columns.scores.dtype == np.float64 and columns.responses.dtype == np.bool_
    assert columns.records() == parse_sample_csv(path)


def _write_bytes(tmp_path, data: bytes):
    path = tmp_path / "sample.csv"
    path.write_bytes(data)
    return path


def test_undecodable_byte_is_a_malformed_row_at_its_line(tmp_path):
    path = _write_bytes(tmp_path, b"id,score,response\na,1.0,0\nb\xff,2.0,1\nc,3.0,0\n")
    with pytest.raises(MalformedRow) as excinfo:
        parse_sample_csv(path)
    assert excinfo.value.line_no == 3
    assert excinfo.value.exit_code == 21
    assert "UTF-8" in excinfo.value.reason


def test_undecodable_byte_after_an_earlier_error_is_not_reported_first(tmp_path):
    # The decoder reads ahead in chunks; the bad response on line 2 still wins.
    path = _write_bytes(tmp_path, b"id,score,response\na,1.0,2\nb\xff,2.0,1\n")
    with pytest.raises(BadResponseValue) as excinfo:
        parse_sample_csv(path)
    assert excinfo.value.line_no == 2


def test_field_over_the_csv_limit_is_a_malformed_row_at_its_line(tmp_path):
    long_id = "x" * 140_000
    path = _write(tmp_path, f"id,score,response\na,1.0,0\n{long_id},2.0,1\n")
    with pytest.raises(MalformedRow) as excinfo:
        parse_sample_csv(path)
    assert excinfo.value.line_no == 3
    assert "field limit" in excinfo.value.reason

    path = _write(tmp_path, f"id,score,response\na,1.0,0\na,1.0,0\n{long_id},2.0,1\n")
    with pytest.raises(DuplicateId):
        parse_sample_csv(path)


def test_a_defect_after_the_first_block_is_reported_at_its_own_line(tmp_path, monkeypatch):
    monkeypatch.setattr(sample_csv, "BLOCK_BYTES", 40)
    lines = [f"r{i:03d},0.{i:03d},{i % 2}\n" for i in range(60)]
    lines[44] = "r044,0.044,yes\n"
    path = _write(tmp_path, "id,score,response\n" + "".join(lines))
    with pytest.raises(BadResponseValue) as excinfo:
        read_sample_columns(path)
    assert excinfo.value.line_no == 46


@pytest.mark.parametrize("block_bytes", [1, sample_csv.BLOCK_BYTES])
def test_block_reader_takes_a_plain_file_as_the_strict_reader_does(tmp_path, monkeypatch,
                                                                  block_bytes):
    monkeypatch.setattr(sample_csv, "BLOCK_BYTES", block_bytes)
    path = tmp_path / "gen.csv"
    write_sample_csv(generate_sample(300, 0.1, 0.5, 11), path)
    with open(path, "rb") as handle:
        fast = sample_csv._read_plain(handle)
        handle.seek(0)
        strict = sample_csv._read_strict(handle)
    assert fast is not None
    assert fast.ids == strict.ids
    assert fast.scores.view(np.int64).tolist() == strict.scores.view(np.int64).tolist()
    assert fast.responses.tolist() == strict.responses.tolist()


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
def test_block_reader_defers_what_it_does_not_take(tmp_path, text):
    path = _write(tmp_path, text)
    with open(path, "rb") as handle:
        assert sample_csv._read_plain(handle) is None


def test_block_reader_defers_a_line_over_the_csv_limit(tmp_path):
    limit = csv.field_size_limit()
    path = _write(tmp_path, f"id,score,response\n{'x' * (limit - 4)},1.0,0\n")
    with open(path, "rb") as handle:
        assert sample_csv._read_plain(handle) is None
    # The strict reader takes it: the id itself is inside the limit.
    assert len(parse_sample_csv(path)) == 1
