"""Sample CSV contract: parsing, validation errors, round-trip."""

from __future__ import annotations

import numpy as np
import pytest

from scorepotential import (
    BadResponseValue,
    DuplicateId,
    EmptySample,
    MalformedRow,
    ScoredRecord,
    parse_sample_csv,
    read_sample_columns,
    records_to_csv_text,
    write_sample_csv,
)
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
