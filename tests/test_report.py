"""Rendering: golden text tables, machine-format round-trips, economics blocks."""

from __future__ import annotations

import copy
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

import scorepotential
from scorepotential import (
    BeniPoint,
    Bucket,
    CampaignEconomics,
    CutOff,
    EvaluationContext,
    GainsChart,
    ModelEvaluation,
    compare_models,
    evaluate_model,
    evaluation_from_csv,
    evaluation_from_dict,
    evaluation_to_dict,
    render_combined_chart,
    render_comparison,
    render_economics_text,
)
from scorepotential import report
from scorepotential.report import money_str, to_json
from scorepotential.sample_csv import csv_table
from tests.conftest import bucketed_records
from scorepotential import rank_sample

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture
def rate4_evaluation(rate4_sample):
    ctx = EvaluationContext(sample=rate4_sample, stretch_target=80.0)
    return evaluate_model(ctx, "rate4")


@pytest.fixture
def rate8_evaluation(rate8_sample):
    return evaluate_model(EvaluationContext(sample=rate8_sample), "rate8")


def chart_row_tokens(text: str) -> list[list[str]]:
    """Bucket rows of the rendered table, split into cell tokens."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if "P'↑max" in line)
    rows = []
    for line in lines[start + 1 :]:
        if not line.strip():
            break
        rows.append(line.split())
    return rows


RATE4_EXPECTED = [
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


def test_rate4_text_matches_the_printed_chart(rate4_evaluation):
    text = render_combined_chart(rate4_evaluation, "text")
    assert chart_row_tokens(text) == RATE4_EXPECTED


def test_rate4_footer_lines(rate4_evaluation):
    text = render_combined_chart(rate4_evaluation, "text")
    assert "P↑ = 29.2" in text
    assert "P↓ = 39.4" in text
    assert "PoP = P↑/P↓ = 74%" in text
    assert "Stretch target 80%: below target" in text


def test_rate8_cumulative_beni_column_in_text(rate8_evaluation):
    rows = chart_row_tokens(render_combined_chart(rate8_evaluation, "text"))
    beni_cum = [row[8] for row in rows]
    assert beni_cum == ["375", "250", "208", "188", "150", "125", "125", "125", "111", "100"]
    ratio = [row[10] for row in rows]
    assert ratio == ["38%", "50%", "63%", "75%", "75%", "75%", "88%", "100%", "100%", "100%"]


def test_json_round_trip_is_exact_and_idempotent(rate4_evaluation):
    rendered = render_combined_chart(rate4_evaluation, "json")
    parsed = evaluation_from_dict(json.loads(rendered))
    assert parsed == rate4_evaluation
    assert render_combined_chart(parsed, "json") == rendered


def test_csv_round_trip_is_exact_and_idempotent(rate4_evaluation):
    rendered = render_combined_chart(rate4_evaluation, "csv")
    parsed = evaluation_from_csv(rendered)
    assert parsed == rate4_evaluation
    assert render_combined_chart(parsed, "csv") == rendered


def test_csv_table_rows_must_fill_every_column(rate4_evaluation):
    lines = render_combined_chart(rate4_evaluation, "csv").splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if line.startswith("9,"))
    lines[row] = lines[row].rsplit(",", 1)[0] + "\n"
    with pytest.raises(ValueError, match="columns"):
        evaluation_from_csv("".join(lines))


def test_csv_reader_needs_three_sections(rate4_evaluation):
    meta_and_buckets = render_combined_chart(rate4_evaluation, "csv").split("\n\n")[:2]
    with pytest.raises(ValueError, match="sections"):
        evaluation_from_csv("\n\n".join(meta_and_buckets))


@pytest.mark.parametrize("economics", [CampaignEconomics(Fraction(101, 2), 100_000, 4_000),
                                       CampaignEconomics(100, 10, 0)])
def test_csv_reader_loads_the_economics_section_it_writes(rate4_evaluation, economics):
    text = render_combined_chart(rate4_evaluation, "csv", economics)
    assert evaluation_from_csv(text) == rate4_evaluation


@pytest.mark.parametrize("number, edit", [
    (4, lambda plain, econ: plain + "\nfoo,bar\n"),
    (4, lambda plain, econ: plain + "\n" + plain.split("\n\n")[1]),  # a second bucket table
    (4, lambda plain, econ: econ.replace("cost_per_thousand,500", "cost_per_thousand,999")),
    (4, lambda plain, econ: econ.replace("addresses,100000", "addresses,100000.0")),
    (4, lambda plain, econ: econ.replace("spreading_loss,975/2", "spreading_loss,")),
    (4, lambda plain, econ: econ.replace("total_cost,50000\n", "")),
    (4, lambda plain, econ: econ + "extra,1\n"),
    (5, lambda plain, econ: econ + "\nfoo,bar\n"),
    (5, lambda plain, econ: econ + "\n" + econ.split("\n\n")[3]),  # the economics twice
], ids=["foo-bar", "second-bucket-table", "edited-cost-per-thousand", "float-addresses",
        "empty-loss", "no-total-cost", "extra-row", "after-economics", "economics-twice"])
def test_csv_reader_refuses_any_other_trailing_section(rate4_evaluation, number, edit):
    plain, econ = (render_combined_chart(rate4_evaluation, "csv", economics) for economics in
                   (None, CampaignEconomics(50_000, 100_000, 4_000)))
    edited = edit(plain, econ)
    assert edited not in (plain, econ)
    with pytest.raises(ValueError, match=f"^section {number}: "):
        evaluation_from_csv(edited)


ECONOMICS_GOLDENS = ["evaluate_rate4_economics", "evaluate_rate8_no_responder_economics"]


@pytest.mark.parametrize("golden", ECONOMICS_GOLDENS)
def test_json_reader_loads_the_economics_document_it_writes(golden):
    text = (GOLDEN_DIR / f"{golden}.json").read_text(encoding="utf-8")
    data = json.loads(text)
    evaluation = evaluation_from_dict(data)
    assert evaluation == evaluation_from_dict(data["evaluation"])
    economics = CampaignEconomics(Fraction(data["economics"]["total_cost"]),
                                  data["economics"]["addresses"], data["economics"]["responders"])
    assert render_combined_chart(evaluation, "json", economics) == text


# An edited figure, an input of another JSON type (which CampaignEconomics would
# take, and 0.0 responders leave every derived figure as 0 does), a missing
# input, an extra key, and economics that are not an object.
@pytest.mark.parametrize("golden", ECONOMICS_GOLDENS)
@pytest.mark.parametrize("edit", [
    lambda econ: econ.update(cost_per_thousand="999"),
    lambda econ: econ.update(responders=float(econ["responders"])),
    lambda econ: econ.update(total_cost=int(econ["total_cost"])),
    lambda econ: econ.pop("total_cost"),
    lambda econ: econ.update(note=1),
], ids=["edited-cost-per-thousand", "float-responders", "number-total-cost", "no-total-cost",
        "extra-key"])
def test_json_reader_refuses_economics_other_than_its_figures_give(golden, edit):
    data = json.loads((GOLDEN_DIR / f"{golden}.json").read_text(encoding="utf-8"))
    edit(data["economics"])
    with pytest.raises(ValueError, match="^economics: "):
        evaluation_from_dict(data)
    with pytest.raises(ValueError, match="^economics: "):
        evaluation_from_dict({**data, "economics": [data["economics"]]})


# Every JSON golden of an evaluation, the economics documents included: the
# profile's cut-offs are popped from copies of its entries, never from the entries.
@pytest.mark.parametrize("golden", sorted(path.name for path in GOLDEN_DIR.glob("evaluate_*.json")))
def test_a_load_leaves_its_document_unchanged(golden):
    data = json.loads((GOLDEN_DIR / golden).read_text(encoding="utf-8"))
    before = copy.deepcopy(data)
    evaluation_from_dict(data)
    assert data == before


@pytest.mark.parametrize("path", [("gains", "p_down_chart"), ("beni_profile", 0, "beni_max")])
def test_json_reader_names_a_missing_key(rate4_evaluation, path):
    data = evaluation_to_dict(rate4_evaluation)
    *parents, key = path
    owner = data
    for step in parents:
        owner = owner[step]
    del owner[key]
    with pytest.raises(ValueError, match=repr(key)):
        evaluation_from_dict(data)


@pytest.mark.parametrize("document", [[], "x"])
def test_json_reader_refuses_a_document_that_is_not_an_object(document):
    with pytest.raises(ValueError, match=f"^expected an object, not {re.escape(repr(document))}$"):
        evaluation_from_dict(document)


@pytest.mark.parametrize("entry", [[1], "x", 3])
def test_json_reader_refuses_a_profile_entry_that_is_not_an_object(rate4_evaluation, entry):
    data = evaluation_to_dict(rate4_evaluation)
    data["beni_profile"][0] = entry
    with pytest.raises(ValueError) as caught:
        evaluation_from_dict(data)
    assert str(caught.value) == f"beni_profile: expected an object, not {entry!r}"


@pytest.mark.parametrize("path, message", [
    (("model_id",), "lacks the key 'model_id'"),
    (("gains", "buckets", 0, "names"), "gains: buckets: lacks the key 'names'"),
    (("beni_profile", 1, "cutoff"), "beni_profile: lacks the key 'cutoff'"),
    (("beni_profile", 1, "beni"), "beni_profile: lacks the key 'beni'"),
])
def test_json_reader_names_a_missing_key_by_its_path(rate4_evaluation, path, message):
    data = evaluation_to_dict(rate4_evaluation)
    *parents, key = path
    owner = data
    for step in parents:
        owner = owner[step]
    del owner[key]
    with pytest.raises(ValueError) as caught:
        evaluation_from_dict(data)
    assert str(caught.value) == message


@pytest.mark.parametrize("replacement", ["", "p_down_chart\n"])
def test_csv_reader_names_a_missing_meta_value(rate4_evaluation, replacement):
    lines = render_combined_chart(rate4_evaluation, "csv").splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if line.startswith("p_down_chart,"))
    lines[row] = replacement  # the row deleted, or left with its name only
    with pytest.raises(ValueError, match="p_down_chart"):
        evaluation_from_csv("".join(lines))


def _move_a_responder(source: dict, target: dict):
    """One responder moved between two buckets, every other figure left as it was."""
    source["responders"] -= 1
    target["responders"] += 1


@pytest.mark.parametrize("key, edit", [
    ("bucket_count", lambda gains: gains.update(bucket_count=3)),
    ("beni_cumulative", lambda gains: gains["beni_cumulative"].pop()),
    ("pop_approx", lambda gains: gains.update(pop_approx=12.5)),
    ("pop_cumulative", lambda gains: gains["pop_cumulative"].__setitem__(-1, 12.5)),
    ("pop_max_variant", lambda gains: gains.update(pop_max_variant=12.5)),
    ("p_up_avg", lambda gains: gains["buckets"][0].update(p_up_avg=99)),
    ("row_cutoffs", lambda gains: gains["row_cutoffs"].__setitem__(0, "1/3")),
    ("spacing", lambda gains: gains.update(spacing="7/3")),
    ("base_rate", lambda gains: gains.update(base_rate="1/2")),
    ("sample_size", lambda gains: gains.update(sample_size=1000)),
    ("p_down_chart", lambda gains: gains.update(p_down_chart=12.0)),
    ("beni_marginal", lambda gains: gains["buckets"][2].update(beni_marginal=700.0)),
    ("p_up_max", lambda gains: gains["buckets"][0].update(p_up_max=99.0)),
    ("pop_marginal", lambda gains: gains["buckets"][2].update(pop_marginal=50.0)),
    ("bucket_no", lambda gains: gains["buckets"][0].update(bucket_no=1)),
    ("beni_cumulative", lambda gains: gains["beni_cumulative"].__setitem__(4, 199.0)),
    ("attainment_ratio", lambda gains: gains["attainment_ratio"].__setitem__(2, 80.0)),
    ("p_up_max", lambda gains: _move_a_responder(gains["buckets"][2], gains["buckets"][3])),
])
def test_json_reader_rejects_a_chart_off_its_bucket_rows(rate4_evaluation, key, edit):
    data = evaluation_to_dict(rate4_evaluation)
    edit(data["gains"])
    with pytest.raises(ValueError, match=key):
        evaluation_from_dict(data)


RATE4_ROW8 = ("8,10,3,23.7,21.6,22.65,57.48730964467005,57.48730964467005,750.0,250.0,"
              "333.3333333333333,75.0,3/10")
RATE4_ROW7 = "7,10,1,7.0,6.1,6.55,16.624365482233504,74.11167512690355,250.0,250.0,250.0,100.0,2/5"


@pytest.mark.parametrize("key, row, edited", [
    ("bucket_count", "bucket_count,10", "bucket_count,3"),
    ("pop_approx", f"pop_approx,{float(Fraction(14600, 197))!r}", "pop_approx,12.5"),
    ("pop_max_variant", f"pop_approx_max,{float(Fraction(15350, 197))!r}",
     "pop_approx_max,12.5"),
    ("p_up_avg", "10,10,0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,1000.0,0.0,1/10",
     "10,10,0,0.0,0.0,99,0.0,0.0,0.0,0.0,1000.0,0.0,1/10"),
    ("row_cutoffs", "10,10,0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,1000.0,0.0,1/10",
     "10,10,0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,1000.0,0.0,1/3"),
    ("spacing", "spacing,1/10", "spacing,7/3"),
    ("base_rate", "base_rate,1/25", "base_rate,1/2"),
    ("sample_size", "sample_size,100", "sample_size,1000"),
    ("p_down_chart", "p_down_chart,39.4", "p_down_chart,12.0"),
    ("beni_marginal", RATE4_ROW8, RATE4_ROW8.replace(",750.0,", ",700.0,")),
    ("p_up_max", "10,10,0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,1000.0,0.0,1/10",
     "10,10,0,99.0,0.0,0.0,0.0,0.0,0.0,0.0,1000.0,0.0,1/10"),
    ("pop_marginal", RATE4_ROW8, RATE4_ROW8.replace(",57.48730964467005,5", ",50.0,5")),
    ("bucket_no", "10,10,0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,1000.0,0.0,1/10",
     "1,10,0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,1000.0,0.0,1/10"),
    ("beni_cumulative", "6,10,0,0.0,0.0,0.0,0.0,74.11167512690355,0.0,200.0,200.0,100.0,1/2",
     "6,10,0,0.0,0.0,0.0,0.0,74.11167512690355,0.0,199.0,200.0,100.0,1/2"),
    ("attainment_ratio", RATE4_ROW8, RATE4_ROW8.replace(",75.0,", ",80.0,")),
    ("p_up_max", f"{RATE4_ROW8}\n{RATE4_ROW7}",  # one responder moved from bucket 8 to 7
     f"{RATE4_ROW8.replace('8,10,3,', '8,10,2,')}\n{RATE4_ROW7.replace('7,10,1,', '7,10,2,')}"),
])
def test_csv_reader_rejects_a_chart_off_its_bucket_rows(rate4_evaluation, key, row, edited):
    text = render_combined_chart(rate4_evaluation, "csv")
    assert f"\n{row}\n" in text
    with pytest.raises(ValueError, match=key):
        evaluation_from_csv(text.replace(f"\n{row}\n", f"\n{edited}\n"))


def untargeted(data: dict, **edits):
    """data without its stretch target, then edited."""
    data.update(stretch_target=None, meets_stretch_target=None, **edits)


def profile_point(index: int, **edits):
    return lambda data: data["beni_profile"][index].update(**edits)


# rate4_evaluation has a stretch target of 80 and a pop_exact of 77.9; its
# profile lists the deciles, 10 % first: 0 of 10 names, then 0 of 20, then 3
# of 30 responders (BenI 250 of a ceiling of 333.3, attained to 75 %).
@pytest.mark.parametrize("key, edit", [
    ("meets_stretch_target", lambda data: data.update(meets_stretch_target=True)),
    ("stretch target", lambda data: data.update(stretch_target=150.0)),
    ("cutoff", lambda data: data["beni_profile"].insert(1, data["beni_profile"][0])),
    ("beni_profile", lambda data: data["beni_profile"].reverse()),
    ("beni_profile", lambda data: data["beni_profile"].clear()),
    ("^pop_exact must lie in", lambda data: untargeted(data, pop_exact=math.nan)),
    ("^pop_exact must lie in", lambda data: untargeted(data, pop_exact=-5.0)),
    ("^pop_exact must lie in", lambda data: untargeted(data, pop_exact=250.0)),
    ("^beni_profile: .* 1/10 ", profile_point(0, beni_max=123.0)),
    ("^beni_profile: .* 1/10 ", profile_point(0, beni=1.0)),
    ("^beni_profile: .* 3/10 ", profile_point(2, attainment_ratio=75.00000000000001)),
    ("^beni_profile: .* 3/10 ", profile_point(2, beni=1.7e308)),  # beni*n*k overflows
    ("^beni_profile: .* 1/1000 ", profile_point(0, cutoff="1/1000")),  # selects no name
    # Points rebuilt whole from hits no pass set holds: 5 of the 4 responders in
    # the top 10 names, and 3 of 4 in all 100.
    ("^beni_profile: .* 1/10 ", profile_point(0, beni=1250.0, attainment_ratio=125.0)),
    ("^beni_profile: .* 1 ", profile_point(9, beni=75.0, attainment_ratio=75.0)),
])
def test_json_reader_rejects_an_evaluation_off_its_own_figures(rate4_evaluation, key, edit):
    data = evaluation_to_dict(rate4_evaluation)
    edit(data)
    with pytest.raises(ValueError, match=key):
        evaluation_from_dict(data)


# The stretch target of 80 stays, so 250 and inf also contradict the verdict
# "false"; the pop_exact range is checked first.
RATE4_POP = "pop_exact,77.91878172588832"


@pytest.mark.parametrize("key, row, edited", [
    ("meets_stretch_target", "meets_stretch_target,false", "meets_stretch_target,true"),
    ("stretch target", "stretch_target,80.0", "stretch_target,150.0"),
    ("cutoff", "1/10,0.0,1000.0,0.0", "1/10,0.0,1000.0,0.0\n1/10,0.0,1000.0,0.0"),
    ("beni_profile", "1/10,0.0,1000.0,0.0\n1/5,0.0,500.0,0.0",
     "1/5,0.0,500.0,0.0\n1/10,0.0,1000.0,0.0"),
    ("^pop_exact must lie in", RATE4_POP, "pop_exact,nan"),
    ("^pop_exact must lie in", RATE4_POP, "pop_exact,-5.0"),
    ("^pop_exact must lie in", RATE4_POP, "pop_exact,250.0"),
    ("^pop_exact must lie in", RATE4_POP, "pop_exact,inf"),
    ("^beni_profile: .* 1/10 ", "1/10,0.0,1000.0,0.0", "1/10,0.0,123.0,0.0"),
    ("^beni_profile: .* 1/10 ", "1/10,0.0,1000.0,0.0", "1/10,1.0,1000.0,0.0"),
    ("^beni_profile: .* 3/10 ", "3/10,250.0,333.3333333333333,75.0",
     "3/10,250.0,333.3333333333333,80.0"),
    ("^beni_profile: .* 1/1000 ", "1/10,0.0,1000.0,0.0", "1/1000,0.0,1000.0,0.0"),
])
def test_csv_reader_rejects_an_evaluation_off_its_own_figures(rate4_evaluation, key, row,
                                                              edited):
    text = render_combined_chart(rate4_evaluation, "csv")
    assert f"\n{row}\n" in text
    with pytest.raises(ValueError, match=key):
        evaluation_from_csv(text.replace(f"\n{row}\n", f"\n{edited}\n"))


def test_an_int_stretch_target_is_stored_as_a_float_and_reads_back(rate4_sample):
    evaluation = evaluate_model(EvaluationContext(sample=rate4_sample, stretch_target=80), "m")
    assert type(evaluation.stretch_target) is float
    assert evaluation_from_dict(evaluation_to_dict(evaluation)) == evaluation
    assert evaluation_from_csv(render_combined_chart(evaluation, "csv")) == evaluation


@pytest.mark.parametrize("model_id", [7, None, b"m"])
def test_a_model_id_that_is_not_a_string_is_refused(rate4_sample, model_id):
    with pytest.raises(ValueError, match="^model_id must be a string"):
        evaluate_model(EvaluationContext(sample=rate4_sample), model_id)


def test_csv_reader_takes_a_stretch_verdict_only_as_true_false_or_empty(rate4_evaluation):
    text = render_combined_chart(rate4_evaluation, "csv")
    assert "\nmeets_stretch_target,false\n" in text
    with pytest.raises(ValueError, match="banana"):
        evaluation_from_csv(text.replace("\nmeets_stretch_target,false\n",
                                         "\nmeets_stretch_target,banana\n"))


# Cells that would load as flags written otherwise: out of order, repeated or empty.
@pytest.mark.parametrize("cell", ["b;a", ";;", "x;x", "a;", ";a"])
def test_csv_reader_takes_degeneracy_flags_only_as_they_are_written(rate4_evaluation, cell):
    text = render_combined_chart(rate4_evaluation, "csv")
    assert "\ndegeneracy_flags,\n" in text
    flagged = evaluation_from_csv(text.replace("\ndegeneracy_flags,\n",
                                               "\ndegeneracy_flags,ties_present\n"))
    assert flagged.degeneracy_flags == {"ties_present"}
    with pytest.raises(ValueError, match="^degeneracy_flags: expected a list of strings"):
        evaluation_from_csv(text.replace("\ndegeneracy_flags,\n", f"\ndegeneracy_flags,{cell}\n"))


@pytest.mark.parametrize("flags", ["ab", [1], {"a": 1}, ["b", "a"], ["x", "x"], [""]])
def test_json_reader_takes_degeneracy_flags_only_as_a_list_of_strings(rate4_evaluation, flags):
    data = evaluation_to_dict(rate4_evaluation)
    assert evaluation_from_dict({**data, "degeneracy_flags": ["ties_present"]}).degeneracy_flags == {
        "ties_present"}
    with pytest.raises(ValueError, match="a list of strings"):
        evaluation_from_dict({**data, "degeneracy_flags": flags})


# Flags the document contradicts: one the toolkit never sets, all_responders
# below a base rate of 1, and no all_responders at a base rate of 1.
@pytest.mark.parametrize("golden, flags, message", [
    ("evaluate_rate4_target80", ["bogus"], r"^degeneracy_flags \['bogus'\] must hold "),
    ("evaluate_rate4_target80", ["all_responders"], r"^degeneracy_flags \['all_responders'\] "),
    ("evaluate_all_responders", ["ties_present"], r"^degeneracy_flags \['ties_present'\] "),
])
def test_a_load_refuses_degeneracy_flags_its_document_contradicts(golden, flags, message):
    data = json.loads((GOLDEN_DIR / f"{golden}.json").read_text(encoding="utf-8"))
    with pytest.raises(ValueError, match=message):
        evaluation_from_dict({**data, "degeneracy_flags": flags})
    text = (GOLDEN_DIR / f"{golden}.csv").read_text(encoding="utf-8")
    (row,) = re.findall(r"^degeneracy_flags,.*$", text, re.MULTILINE)
    with pytest.raises(ValueError, match=message):
        evaluation_from_csv(text.replace(row, "degeneracy_flags," + ";".join(flags)))


# JSON numbers in Fraction fields; 0.5 is exactly the document's cut-off 1/2,
# so only its type is wrong.
@pytest.mark.parametrize("number, edit", [
    (0.04, lambda data: data["gains"].update(base_rate=0.04)),
    (0.5, lambda data: data["gains"]["row_cutoffs"].__setitem__(4, 0.5)),
    (0.5, lambda data: data["beni_profile"][4].update(cutoff=0.5)),
])
def test_json_reader_takes_a_fraction_only_as_a_p_q_string(rate4_evaluation, number, edit):
    data = evaluation_to_dict(rate4_evaluation)
    edit(data)
    with pytest.raises(ValueError, match=f"expected a p/q string, not {number}$"):
        evaluation_from_dict(data)


# JSON values in int fields; True is 1 to Python, so only its type is wrong.
@pytest.mark.parametrize("value, edit", [
    ("10.0", lambda gains: gains.update(bucket_count=10.0)),
    ("0.0", lambda gains: gains["buckets"][0].update(responders=0.0)),
    ("'10'", lambda gains: gains["buckets"][0].update(names="10")),
    ("True", lambda gains: gains["buckets"][-1].update(bucket_no=True)),
])
def test_json_reader_takes_an_int_field_only_as_an_integer(rate4_evaluation, value, edit):
    data = evaluation_to_dict(rate4_evaluation)
    edit(data["gains"])
    with pytest.raises(ValueError, match=f"expected an integer, not {value}$"):
        evaluation_from_dict(data)


# JSON values of another type than their field's, each equal to the value it
# replaces (0 == 0.0 == False), so only its type is wrong; each message names
# the field by its path.
@pytest.mark.parametrize("message, edit", [
    ("model_id: expected a string, not 5", lambda data: data.update(model_id=5)),
    ("meets_stretch_target: expected true, false or null, not 0",
     lambda data: data.update(meets_stretch_target=0)),
    ("stretch_target: expected a float or null, not 80",
     lambda data: data.update(stretch_target=80)),
    ("gains: buckets: p_up_max: expected a float, not 0",
     lambda data: data["gains"]["buckets"][0].update(p_up_max=0)),
    ("gains: buckets: p_up_min: expected a float, not False",
     lambda data: data["gains"]["buckets"][0].update(p_up_min=False)),
    ("gains: beni_cumulative: expected a float, not 100",
     lambda data: data["gains"]["beni_cumulative"].__setitem__(-1, 100)),
    ("beni_profile: beni: expected a float, not 0",
     lambda data: data["beni_profile"][0].update(beni=0)),
])
def test_json_reader_takes_each_value_only_as_its_own_json_type(rate4_evaluation, message,
                                                                 edit):
    data = evaluation_to_dict(rate4_evaluation)
    assert data["meets_stretch_target"] is False and data["stretch_target"] == 80.0
    assert data["gains"]["buckets"][0]["p_up_max"] == data["gains"]["buckets"][0]["p_up_min"] == 0.0
    assert data["gains"]["beni_cumulative"][-1] == 100.0 and data["beni_profile"][0]["beni"] == 0.0
    edit(data)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        evaluation_from_dict(data)


def test_loading_a_document_twice_gives_equal_evaluations(rate4_evaluation):
    as_json = render_combined_chart(rate4_evaluation, "json")
    as_csv = render_combined_chart(rate4_evaluation, "csv")
    loads = [evaluation_from_dict(json.loads(as_json)) for _ in range(2)]
    loads += [evaluation_from_csv(as_csv) for _ in range(2)]
    assert all(loaded == rate4_evaluation for loaded in loads)


def test_a_bad_fraction_cell_is_refused_on_every_load(rate4_evaluation):
    text = render_combined_chart(rate4_evaluation, "csv").replace("\nspacing,1/10\n",
                                                                  "\nspacing,1/x\n")
    for _ in range(3):
        with pytest.raises(ValueError, match="1/x"):
            evaluation_from_csv(text)
    as_csv = render_combined_chart(rate4_evaluation, "csv")
    as_json = render_combined_chart(rate4_evaluation, "json")
    assert "\n1/10,0.0," in as_csv and "\nbase_rate,1/25\n" in as_csv

    def from_csv(old, new):
        return lambda: evaluation_from_csv(as_csv.replace(old, new))

    def from_json(edit):
        data = json.loads(as_json)
        edit(data)
        return lambda: evaluation_from_dict(data)

    # Each load's error names the field and the cell.
    loads = [
        # A zero denominator, in either reader's spacing and in a profile cut-off.
        ("spacing", "1/0", from_csv("\nspacing,1/10\n", "\nspacing,1/0\n")),
        ("cutoff", "1/0", from_csv("\n1/10,0.0,", "\n1/0,0.0,")),
        ("gains: spacing", "1/0", from_json(lambda doc: doc["gains"].update(spacing="1/0"))),
        # A Fraction written otherwise than as its str, which would render as other bytes.
        ("gains: base_rate", "0.04", from_json(lambda doc: doc["gains"].update(base_rate="0.04"))),
        ("gains: spacing", " 1/10 ", from_json(lambda doc: doc["gains"].update(spacing=" 1/10 "))),
        ("gains: row_cutoffs", "2/20",
         from_json(lambda doc: doc["gains"]["row_cutoffs"].__setitem__(0, "2/20"))),
        ("beni_profile", "0.1", from_json(lambda doc: doc["beni_profile"][0].update(cutoff="0.1"))),
        ("spacing", "0.1", from_csv("\nspacing,1/10\n", "\nspacing,0.1\n")),
        ("base_rate", " 1/25", from_csv("\nbase_rate,1/25\n", "\nbase_rate, 1/25\n")),
    ]
    for path, cell, load in loads:
        message = f"^{path}: expected .*, not {re.escape(repr(cell))}$"
        for _ in range(3):
            with pytest.raises(ValueError, match=message):
                load()


def test_an_edited_row_cutoff_is_refused_after_a_warm_load(rate4_evaluation):
    data = evaluation_to_dict(rate4_evaluation)
    assert evaluation_from_dict(json.loads(to_json(data))) == rate4_evaluation
    data["gains"]["row_cutoffs"][3] = "1/3"
    with pytest.raises(ValueError, match="row_cutoffs"):
        evaluation_from_dict(data)


def test_a_loaded_chart_holds_the_built_charts_cutoff_objects(rate4_evaluation):
    built = rate4_evaluation.gains.row_cutoffs
    for loaded in (evaluation_from_dict(json.loads(render_combined_chart(rate4_evaluation, "json"))),
                   evaluation_from_csv(render_combined_chart(rate4_evaluation, "csv"))):
        assert len(loaded.gains.row_cutoffs) == len(built)
        assert all(a is b for a, b in zip(loaded.gains.row_cutoffs, built))


def test_charts_of_one_bucket_count_share_their_row_cutoffs(rate4_evaluation, rate8_evaluation):
    assert rate4_evaluation.gains.bucket_count == rate8_evaluation.gains.bucket_count
    assert rate4_evaluation.gains.row_cutoffs is rate8_evaluation.gains.row_cutoffs


def test_row_cutoffs_are_written_from_their_cached_text(monkeypatch):
    """No Fraction is formatted per chart row, in CSV or JSON, and the cells are
    the str of each cut-off."""
    records = bucketed_records([1] * 1000, 2)
    evaluation = evaluate_model(EvaluationContext(sample=rank_sample(records), bucket_count=1000),
                                model_id="m")
    formatted = []
    fraction_str = Fraction.__str__
    monkeypatch.setattr(Fraction, "__str__", lambda f: formatted.append(f) or fraction_str(f))
    csv_rows = list(csv.reader(io.StringIO(render_combined_chart(evaluation, "csv"))))
    json_cells = evaluation_to_dict(evaluation)["gains"]["row_cutoffs"]
    assert len(formatted) < 100  # the meta and profile cells
    monkeypatch.undo()
    expected = list(map(str, evaluation.gains.row_cutoffs))
    header = csv_rows.index(report.BUCKET_CSV_HEADER)
    assert [row[-1] for row in csv_rows[header + 1:header + 1001]] == expected == json_cells
    assert expected[:2] == ["1/1000", "1/500"]


def test_a_fraction_column_other_than_row_cutoffs_is_written_a_cell_at_a_time():
    assert report._fraction_text((Fraction(1, 3), Fraction(2), Fraction(-5, 7))) == [
        "1/3", "2", "-5/7"]


# No loaded field is an X | None whose X converts (the economics, which hold two,
# are written only), so the codec is checked on its own: one column, nulls kept.
def test_an_optional_column_loads_the_values_other_than_null_as_one_column():
    codec = report._codec(Fraction | None)
    assert report._take(codec, [None, "1/2", None, "3"]) == [None, Fraction(1, 2), None, 3]
    with pytest.raises(ValueError, match="^expected a p/q string or null, not 3$"):
        report._take(codec, ["1/2", None, 3])


def _repeat_model_id(lines):
    lines.insert(1, "model_id,other\n")


def _add_a_cell(lines):
    lines[0] = lines[0].rstrip("\n") + ",extra\n"


def _swap_min_and_max(lines):
    i = next(i for i, line in enumerate(lines) if line.startswith("pop_approx_min,"))
    lines[i], lines[i + 1] = lines[i + 1], lines[i]


@pytest.mark.parametrize("edit", [_repeat_model_id, _add_a_cell, _swap_min_and_max])
def test_csv_reader_takes_each_meta_row_once_in_order(rate4_evaluation, edit):
    lines = render_combined_chart(rate4_evaluation, "csv").splitlines(keepends=True)
    assert lines[0].startswith("model_id,")
    edit(lines)
    with pytest.raises(ValueError):
        evaluation_from_csv("".join(lines))


# Spellings that int() or float() reads but the writer never writes: in the
# meta rows, and an int cell of the bucket table.
@pytest.mark.parametrize("column, written, edited", [
    ("bucket_count", "\nbucket_count,10\n", "\nbucket_count, 10\n"),
    ("bucket_count", "\nbucket_count,10\n", "\nbucket_count,1_0\n"),
    ("sample_size", "\nsample_size,100\n", "\nsample_size,0100\n"),
    ("stretch_target", "\nstretch_target,80.0\n", "\nstretch_target,+80\n"),
    ("stretch_target", "\nstretch_target,80.0\n", "\nstretch_target,8_0\n"),
    ("stretch_target", "\nstretch_target,80.0\n", "\nstretch_target,80\n"),
    ("responders", "\n8,10,3,23.7,", "\n8,10,03,23.7,"),
])
def test_csv_reader_takes_a_number_only_as_it_is_written(rate4_evaluation, column, written,
                                                         edited):
    text = render_combined_chart(rate4_evaluation, "csv")
    assert text.count(written) == 1
    with pytest.raises(ValueError, match=f"^{column}: expected '"):
        evaluation_from_csv(text.replace(written, edited))


# A key that no field of its object owns, at each level of a document.
@pytest.mark.parametrize("path, edit", [
    ("", lambda data: data.update(note="x")),
    ("gains: ", lambda data: data["gains"].update(note="x")),
    ("gains: buckets: ", lambda data: data["gains"]["buckets"][3].update(note="x")),
    ("beni_profile: ", lambda data: data["beni_profile"][2].update(note="x")),
])
def test_json_reader_takes_an_object_only_with_its_own_fields(rate4_evaluation, path, edit):
    data = evaluation_to_dict(rate4_evaluation)
    edit(data)
    with pytest.raises(ValueError, match=f"^{path}unknown key 'note'$"):
        evaluation_from_dict(data)


@pytest.mark.parametrize("key, field", [("pop_approx", "pop_approx"),
                                        ("pop_approx_min", "pop_min_variant"),
                                        ("pop_approx_max", "pop_max_variant")])
def test_a_former_top_level_pop_approx_copy_is_refused(rate4_evaluation, key, field):
    data = evaluation_to_dict(rate4_evaluation)
    data[key] = data["gains"][field]
    with pytest.raises(ValueError, match=rf"^unknown key '{key}'$"):
        evaluation_from_dict(json.loads(to_json(data)))


def test_each_field_fills_exactly_one_csv_column():
    nested = {(ModelEvaluation, "gains"), (ModelEvaluation, "beni_profile"),
              (GainsChart, "buckets")}
    claims = Counter((cls, field) for header, *owners in report._CSV_SECTIONS
                     for cls, _ in owners for field, _, _ in report._fields(cls)
                     if report.FIELD_COLUMNS.get(field, field) in header)
    assert claims == {(cls, field): 1
                      for cls in (ModelEvaluation, GainsChart, Bucket, CutOff, BeniPoint)
                      for field, _, _ in report._fields(cls) if (cls, field) not in nested}


def test_a_csv_column_claimed_by_two_fields_is_refused():
    class Copy(NamedTuple):
        pop_approx: float

    with pytest.raises(ValueError, match="pop_approx"):
        report._section(["pop_approx"], (Copy, lambda e: (e,)), report._CHART)


def test_importing_builds_no_report_schema():
    # The converters and CSV sections are built on first use, not at import.
    code = ("import scorepotential.report as r; "
            "assert r._codec.cache_info().currsize == r._sections.cache_info().currsize == 0")
    env = {**os.environ, "PYTHONPATH": str(Path(scorepotential.__file__).resolve().parents[1])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)


def test_machine_formats_carry_full_precision(rate4_evaluation):
    data = json.loads(render_combined_chart(rate4_evaluation, "json"))
    assert data["pop_exact"] == rate4_evaluation.pop_exact
    assert data["gains"]["pop_approx"] == float(Fraction(14600, 197))
    assert data["gains"]["base_rate"] == "1/25"


def test_rendering_does_not_mutate_the_evaluation(rate4_evaluation):
    before = evaluation_to_dict(rate4_evaluation)
    render_combined_chart(rate4_evaluation, "text")
    render_combined_chart(rate4_evaluation, "csv")
    assert evaluation_to_dict(rate4_evaluation) == before


def test_unknown_format_rejected(rate4_evaluation):
    with pytest.raises(ValueError):
        render_combined_chart(rate4_evaluation, "yaml")


def test_comparison_renders_in_ranking_order(rate4_sample):
    low = evaluate_model(
        EvaluationContext(sample=rate4_sample, stretch_target=80.0), "low"
    )
    perfect = rank_sample(bucketed_records([4, 0, 0, 0, 0, 0, 0, 0, 0, 0], 10))
    high = evaluate_model(
        EvaluationContext(sample=perfect, stretch_target=80.0), "high"
    )
    report = compare_models([low, high])

    text = render_comparison(report, "text")
    assert text.index("high") < text.index("low")
    assert "Below stretch target: low" in text

    data = json.loads(render_comparison(report, "json"))
    assert data["ranking"] == ["high", "low"]
    assert data["below_target"] == ["low"]

    csv_text = render_comparison(report, "csv")
    lines = csv_text.splitlines()
    assert lines[0].startswith("rank,model_id,pop_exact")
    assert lines[1].split(",")[1] == "high"
    assert lines[2].split(",")[1] == "low"


def test_comparison_rendering_is_deterministic(rate4_sample):
    evaluation = evaluate_model(EvaluationContext(sample=rate4_sample), "m")
    report = compare_models([evaluation])
    assert render_comparison(report, "json") == render_comparison(report, "json")


def test_money_rendering():
    assert money_str(Fraction(975, 2)) == "487.5"
    assert money_str(Fraction(500)) == "500"
    assert money_str(Fraction(25, 2)) == "12.5"
    assert money_str(Fraction(1000, 3)) == "333.33"


def test_an_amount_that_rounds_to_zero_prints_without_a_sign():
    assert money_str(Fraction(-1, 1001)) == money_str(Fraction(1, 1001)) == "0"
    assert money_str(Fraction(-1, 200)) == "-0.01"
    # The spreading loss here is 1000/1001 - 1 = -1/1001.
    text = render_economics_text(CampaignEconomics(1, 1001, 1))
    assert text.splitlines()[-1].endswith(": 1 - 1 = 0")


def test_economics_text_block():
    econ = CampaignEconomics(50_000, 100_000, 4_000)
    text = render_economics_text(econ)
    assert "Cost per thousand: 500" in text
    assert "Cost per responder: 12.5" in text
    assert "500 - 12.5 = 487.5" in text


def test_economics_without_responders_is_reported_not_computed():
    text = render_economics_text(CampaignEconomics(100, 50, 0))
    assert "undefined" in text


@pytest.mark.parametrize("econ", [CampaignEconomics(50_000, 100_000, 4_000),
                                  CampaignEconomics(100, 50, 0)])
def test_economics_csv_and_json_carry_the_same_keys(rate8_evaluation, econ):
    as_json = json.loads(render_combined_chart(rate8_evaluation, "json", econ))
    *_, economics_rows = render_combined_chart(rate8_evaluation, "csv", econ).split("\n\n")
    keys = [row.split(",")[0] for row in economics_rows.splitlines()]
    assert sorted(keys) == sorted(as_json["economics"])


def test_json_output_ends_with_newline(rate4_evaluation):
    assert render_combined_chart(rate4_evaluation, "json").endswith("\n")
    assert to_json({"a": 1}).endswith("\n")


def test_json_spells_non_finite_floats_as_json_dumps_does():
    doc = {"b": [math.inf, -math.inf, 1.5], "a": math.nan, "c": [math.nan], "d": {"e": -math.inf}}
    text = to_json(doc)
    assert text == (
        '{\n  "a": NaN,\n  "b": [\n    Infinity,\n    -Infinity,\n    1.5\n  ],\n'
        '  "c": [\n    NaN\n  ],\n  "d": {\n    "e": -Infinity\n  }\n}\n')
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert "nan" not in text and "inf" not in text


@pytest.mark.parametrize("value", [Fraction(1, 2), {1, 2}, b"x"], ids=["fraction", "set", "bytes"])
@pytest.mark.parametrize("place", [
    lambda v: {"a": v}, lambda v: {"a": [v]}, lambda v: {"a": [{"k": v}, {"k": 1}]},
    lambda v: {"a": [1, v]},
], ids=["object value", "list item", "shared keys", "mixed list"])
def test_json_refuses_what_json_dumps_refuses(value, place):
    with pytest.raises(TypeError):
        json.dumps(place(value))
    with pytest.raises(TypeError, match="is not JSON serializable"):
        to_json(place(value))


JSON_KEYS = st.text(max_size=6)
ONE_LEAF_TYPE = [st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6)]
JSON_LEAVES = st.one_of(ONE_LEAF_TYPE)
# Keys that JSON escapes or a % template would read, and leaves of mixed types.
SHARED_KEYS = st.text(st.sampled_from('%"\\é↑s') | st.characters(), max_size=4)
MIXED_LEAVES = st.sampled_from([True, 1, 0, False, None, 1.5, math.nan, -math.inf, "1"])


@st.composite
def objects_sharing_keys(draw, values):
    """A list of objects with one key set, written a column at a time; each
    key's values are of one leaf type, mixed leaves, or any values."""
    keys = draw(st.lists(SHARED_KEYS, unique=True, max_size=4))
    count = draw(st.integers(0, 4))
    columns = [draw(st.lists(draw(st.sampled_from([*ONE_LEAF_TYPE, MIXED_LEAVES, values])),
                             min_size=count, max_size=count)) for _ in keys]
    return [dict(zip(keys, row)) for row in zip(*columns)] if keys else [{}] * count


@given(doc=st.dictionaries(JSON_KEYS, st.recursive(JSON_LEAVES, lambda inner: (
    st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(JSON_KEYS, inner, max_size=4) | objects_sharing_keys(inner)),
    max_leaves=12), max_size=4))
def test_json_writes_the_bytes_of_indented_json_dumps(doc):
    assert to_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_json_writes_a_list_of_objects_with_one_key_set_a_column_at_a_time():
    doc = {"rows": [{"a%s": 1.5, '"': True, "é": [1, {"x": None}], "n": 1},
                    {"a%s": math.nan, '"': 1, "é": [], "n": "1"}], "empty": [{}, {}],
           "ragged": [[{"a": 1}, {"a": 2, "b": 3}], [{"a": 1, "b": 2}, {"a": 1}]]}
    assert to_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@given(rows=st.lists(st.lists(st.text(st.sampled_from("%s↑' 1"), max_size=5),
                              min_size=3, max_size=3), max_size=4))
def test_table_pads_each_cell_as_rjust_does(rows):
    headers = ["P'↑max", "%", "BenI'cum"]
    widths = [max(map(len, column)) for column in zip(headers, *rows)]
    columns = [[row[i] for row in rows] for i in range(len(headers))]
    assert report._table(headers, columns) == "\n".join(
        "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
        for row in (headers, *rows))


# CSV table cells: ints, floats of every kind, p/q strings, None, and strings
# that csv.writer quotes or that read like a % directive or a None cell.
CSV_CELLS = [st.integers(), st.floats() | st.sampled_from(
    [-0.0, math.inf, -math.inf, math.nan, 5e-324, 1e16, 0.49999999999999994]),
             st.fractions().map(str), st.none(), st.text(st.sampled_from(',"\r\n%sNone1 é'))]


@st.composite
def csv_columns(draw):
    """1-5 columns of 0-5 rows, each column of one kind of cell or of all kinds."""
    rows = draw(st.integers(0, 5))
    kinds = st.sampled_from([*CSV_CELLS, st.one_of(CSV_CELLS)])
    return [draw(st.lists(draw(kinds), min_size=rows, max_size=rows))
            for _ in range(draw(st.integers(1, 5)))]


def csv_writer_text(rows) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


@given(columns=csv_columns())
def test_csv_table_writes_the_bytes_of_csv_writer(columns):
    assert csv_table(columns) == csv_writer_text(zip(*columns))


@given(columns=csv_columns(), data=st.data())
def test_a_number_array_column_writes_the_bytes_of_its_list(columns, data):
    """A bool, int or float array column (as the sample writer passes) is its .tolist()."""
    kind = data.draw(st.sampled_from([np.bool_, np.uint8, np.int64, np.float64]))
    array = np.array(data.draw(st.lists(st.integers(0, 1) if kind in (np.bool_, np.uint8) else
                                        st.integers(-2**63, 2**63 - 1) if kind is np.int64 else
                                        st.floats(), min_size=len(columns[0]),
                                        max_size=len(columns[0]))), kind)
    at = data.draw(st.integers(0, len(columns)))
    assert csv_table([*columns[:at], array, *columns[at:]]) == csv_writer_text(
        zip(*columns[:at], array.tolist(), *columns[at:]))


@pytest.mark.parametrize("columns, quoted", [
    *(([["id", f"a{char}b"], ["score", 0.5]], True) for char in ',"\r\n'),
    ([["id", ""], ["score", None]], False),  # an empty cell beside others is left bare
    ([["id", "", "x"]], True),  # a row of one empty cell is written as ""
    ([["id", "None"], ["score", None]], False),
])
def test_only_a_table_csv_writer_would_quote_takes_the_csv_writer_fallback(columns, quoted):
    expected = csv_writer_text(zip(*columns))
    with mock.patch.object(csv, "writer", wraps=csv.writer) as writer:
        assert csv_table(columns) == expected
    assert writer.called == quoted
