"""Command-line interface: outputs, determinism, and exit-code discipline."""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import scorepotential
from scorepotential import (
    EvaluationContext,
    SampleColumns,
    evaluation_from_csv,
    generate_columns,
    sample_csv,
    write_sample_csv,
)
from scorepotential.cli import main
from tests.conftest import (
    RATE4_DECILE_RESPONDERS,
    bucketed_records,
    read_through_fifo,
    ten_name_records,
)


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture
def rate4_csv(tmp_path):
    path = tmp_path / "rate4.csv"
    write_sample_csv(SampleColumns.from_records(bucketed_records(RATE4_DECILE_RESPONDERS, 10)),
                     path)
    return path


@pytest.fixture
def ten_name_csv(tmp_path):
    path = tmp_path / "ten_name.csv"
    write_sample_csv(SampleColumns.from_records(ten_name_records()), path)
    return path


def test_evaluate_text(rate4_csv):
    code, out = run_cli("evaluate", str(rate4_csv))
    assert code == 0
    assert "PoP = P↑/P↓ = 74%" in out
    assert "Model: rate4" in out


def test_evaluate_json_parses(rate4_csv):
    code, out = run_cli("evaluate", str(rate4_csv), "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["model_id"] == "rate4"
    assert data["gains"]["p_down_chart"] == 39.4


def test_evaluate_csv_parses(rate4_csv):
    code, out = run_cli("evaluate", str(rate4_csv), "--format", "csv")
    assert code == 0
    assert evaluation_from_csv(out).model_id == "rate4"


def test_evaluate_with_economics_block(rate4_csv):
    code, out = run_cli(
        "evaluate", str(rate4_csv),
        "--total-cost", "50000", "--addresses", "100000", "--responders", "4000",
    )
    assert code == 0
    assert "Spreading loss" in out

    code, out = run_cli(
        "evaluate", str(rate4_csv), "--format", "json",
        "--total-cost", "50000", "--addresses", "100000", "--responders", "4000",
    )
    data = json.loads(out)
    assert data["economics"]["cost_per_thousand"] == "500"
    assert data["evaluation"]["model_id"] == "rate4"

    code, out = run_cli(
        "evaluate", str(rate4_csv), "--format", "csv",
        "--total-cost", "50000", "--addresses", "100000", "--responders", "4000",
    )
    assert code == 0
    assert "cost_per_thousand,500" in out
    assert evaluation_from_csv(out).model_id == "rate4"  # extra section tolerated


def test_evaluate_custom_cutoffs_and_ties(ten_name_csv):
    code, out = run_cli(
        "evaluate", str(ten_name_csv), "--buckets", "5",
        "--cutoffs", "20%,0.5,100%", "--ties", "pessimistic",
    )
    assert code == 0
    assert "20%" in out and "50%" in out and "100%" in out


def test_compare_ranks_and_flags_below_target(tmp_path, rate4_csv):
    strong = tmp_path / "strong.csv"
    write_sample_csv(SampleColumns.from_records(bucketed_records([4, 0, 0, 0, 0, 0, 0, 0, 0, 0], 10)),
                     strong)
    code, out = run_cli(
        "compare", str(rate4_csv), str(strong), "--target", "80",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["ranking"] == ["strong", "rate4"]
    assert data["below_target"] == ["rate4"]


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_byte_identical_samples_share_a_rank_in_model_id_order(tmp_path, rate4_csv, fmt):
    """Models of equal exact and chart PoP share a competition rank (1, 2, 2, 4);
    their rows stay in model-id order, whatever the order of the files."""
    paths = {name: tmp_path / f"{name}.csv" for name in ("twin_b", "strong", "weak", "twin_a")}
    for name, responders in (("strong", [4, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
                             ("weak", [0, 0, 0, 0, 0, 0, 0, 0, 0, 4])):
        write_sample_csv(SampleColumns.from_records(bucketed_records(responders, 10)),
                         paths[name])
    for name in ("twin_b", "twin_a"):
        paths[name].write_bytes(rate4_csv.read_bytes())
    code, out = run_cli("compare", *map(str, paths.values()), "--format", fmt)
    assert code == 0
    if fmt == "csv":
        rows = [(int(row["rank"]), row["model_id"]) for row in csv.DictReader(io.StringIO(out))]
    elif fmt == "json":
        data = json.loads(out)
        assert data["ranks"] == [1, 2, 2, 4]
        rows = list(zip(data["ranks"], data["ranking"]))
    else:  # the rows of the table, under its header line
        rows = [(int(rank), model) for rank, model, *_ in map(str.split, out.splitlines()[3:7])]
    assert rows == [(1, "strong"), (2, "twin_a"), (2, "twin_b"), (4, "weak")]


# The second case profiles only a cut-off below the 4 % response rate, so the
# figure reads the attainment at the last profiled cut-off.
@pytest.mark.parametrize("cutoffs", [[], ["--cutoffs", "1%"]])
def test_compare_writes_figure(tmp_path, rate4_csv, cutoffs):
    strong = tmp_path / "strong.csv"
    write_sample_csv(SampleColumns.from_records(bucketed_records([4, 0, 0, 0, 0, 0, 0, 0, 0, 0], 10)),
                     strong)
    figure = tmp_path / "out.svg"
    code, _ = run_cli(
        "compare", str(rate4_csv), str(strong), "--figure", str(figure), *cutoffs
    )
    assert code == 0
    svg = figure.read_text(encoding="utf-8")
    assert svg.startswith("<?xml")
    assert 'id="pop-curve"' in svg


# One model is too few points for a figure (exit 18); a figure in a missing
# directory cannot be written (exit 3).  Either way no ranking is printed.
@pytest.mark.parametrize("models, figure_dir, exit_code", [(1, ".", 18), (2, "missing", 3)])
def test_compare_prints_nothing_when_its_figure_fails(tmp_path, rate4_csv, models, figure_dir,
                                                      exit_code):
    strong = tmp_path / "strong.csv"
    write_sample_csv(SampleColumns.from_records(bucketed_records([4, 0, 0, 0, 0, 0, 0, 0, 0, 0], 10)),
                     strong)
    figure = tmp_path / figure_dir / "out.svg"
    paths = [str(rate4_csv), str(strong)][:models]
    assert run_cli("compare", *paths, "--figure", str(figure)) == (exit_code, "")
    assert not figure.exists()


def test_compare_output_is_byte_identical_across_runs(tmp_path):
    paths = []
    for seed in range(4):
        path = tmp_path / f"m{seed}.csv"
        write_sample_csv(SampleColumns.from_records(
            bucketed_records(RATE4_DECILE_RESPONDERS, 10) if seed == 0
            else bucketed_records([seed, 1, 0, 0, 1, 0, 0, 0, 0, 0], 10)), path)
        paths.append(str(path))
    first = run_cli("compare", *paths, "--format", "json")
    second = run_cli("compare", *paths, "--format", "json")
    assert first == second


def test_gen_is_deterministic_and_round_trips(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = ["gen", "--size", "80", "--rate", "0.05", "--quality", "0.4", "--seed", "9"]
    assert main(args + ["-o", str(out_a)]) == 0
    assert main(args + ["-o", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()

    code, stdout_text = run_cli(*args)
    assert code == 0
    assert stdout_text == out_a.read_text(encoding="utf-8")


def test_gen_dash_output_writes_stdout_and_no_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    assert main(["gen", "--size", "1000", "--rate", "0.04", "--quality", "0.6",
                 "--seed", "20100707", "-o", "-"], out=out) == 0
    golden = Path(__file__).parent / "golden" / "gen_1000_rate4.csv"
    assert out.getvalue().encode("utf-8") == golden.read_bytes()
    assert list(tmp_path.iterdir()) == []


def test_econ_text_and_json():
    code, out = run_cli(
        "econ", "--total-cost", "50000", "--addresses", "100000",
        "--responders", "4000",
    )
    assert code == 0
    assert "Cost per responder: 12.5" in out

    code, out = run_cli(
        "econ", "--total-cost", "1000", "--addresses", "1000",
        "--responders", "10", "--format", "json",
    )
    data = json.loads(out)
    assert data["cost_per_responder"] == "100"
    assert data["spreading_loss"]["loss"] == "900"


def test_missing_file_is_an_io_error(tmp_path):
    code, _ = run_cli("evaluate", str(tmp_path / "nope.csv"))
    assert code == 3


def test_metric_errors_have_distinct_exit_codes(tmp_path, ten_name_csv):
    flat = tmp_path / "flat.csv"
    flat.write_text(
        "id,score,response\n" + "".join(f"r{i},{i}.0,0\n" for i in range(10)),
        encoding="utf-8",
    )
    code, _ = run_cli("evaluate", str(flat))
    assert code == 13  # no responders

    code, _ = run_cli("evaluate", str(ten_name_csv), "--buckets", "3")
    assert code == 16  # indivisible buckets
    assert 13 != 16 != 3


def test_input_contract_errors(tmp_path):
    bad_resp = tmp_path / "bad.csv"
    bad_resp.write_text("id,score,response\nx,1.0,2\n", encoding="utf-8")
    code, _ = run_cli("evaluate", str(bad_resp))
    assert code == 23

    malformed = tmp_path / "mal.csv"
    malformed.write_text("id,score,response\nx,abc,1\n", encoding="utf-8")
    code, _ = run_cli("evaluate", str(malformed))
    assert code == 21

    empty = tmp_path / "empty.csv"
    empty.write_text("id,score,response\n", encoding="utf-8")
    code, _ = run_cli("evaluate", str(empty))
    assert code == 10


def test_usage_errors_exit_2(rate4_csv):
    with pytest.raises(SystemExit) as excinfo:
        main(["evaluate", str(rate4_csv), "--cutoffs", "150%"])
    assert excinfo.value.code == 2

    with pytest.raises(SystemExit) as excinfo:
        main(["evaluate", str(rate4_csv), "--addresses", "10"])
    assert excinfo.value.code == 2

    with pytest.raises(SystemExit) as excinfo:
        main(["gen", "--size", "0", "--rate", "0.1", "--quality", "0", "--seed", "1"])
    assert excinfo.value.code == 2


GEN = "gen --size 10 --rate 0.1 --quality 0.5 --seed 1 -o {tmp}/missing/out.csv"
ECON = "econ --total-cost 100 --addresses 10 --responders 1"
EVALUATE = "evaluate {tmp}/missing.csv"


# The sample files and the output directory do not exist, so a range check
# that ran only after a file was read or written would exit 3, not 2.
@pytest.mark.parametrize("command", [
    GEN + " --size 0",
    GEN + " --rate 0",
    GEN + " --rate 1/0",
    GEN + " --rate abc",
    GEN + " --quality 2",
    GEN + " --quality nan",
    ECON + " --total-cost -1",
    ECON + " --addresses 0",
    ECON + " --responders 6 --addresses 5",
    EVALUATE + " --target 0",
    EVALUATE + " --cutoffs ,",
    EVALUATE + " --buckets 0",
    EVALUATE + " --total-cost -1 --addresses 10 --responders 1",
    "compare {tmp}/a/m.csv {tmp}/b/m.csv",  # model ids come from the stems
])
def test_range_and_usage_errors_exit_2(command, tmp_path):
    # A repeated flag takes its last value, so the cases above override GEN and ECON.
    argv = command.format(tmp=tmp_path).split()
    with pytest.raises(SystemExit) as excinfo:
        main(argv, out=io.StringIO())
    assert excinfo.value.code == 2


def test_any_value_generate_sample_rejects_is_a_usage_error(tmp_path, capsys):
    # The generator refuses a negative seed before drawing, naming the seed;
    # that too exits 2 rather than with a traceback.
    with pytest.raises(SystemExit) as excinfo:
        main(GEN.format(tmp=tmp_path).split() + ["--seed", "-1"], out=io.StringIO())
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.endswith(
        "scorepotential gen: error: seed must be a non-negative integer\n")


def test_a_valid_gen_into_a_missing_directory_is_an_io_error(tmp_path, capsys):
    assert run_cli(*GEN.format(tmp=tmp_path).split()) == (3, "")
    assert capsys.readouterr().err.startswith("i/o error: ")
    assert not (tmp_path / "missing").exists()


# Errors found after parsing: by the library, or by a rule across flags.
@pytest.mark.parametrize("command", [
    GEN + " --seed -1",
    GEN + " --size 0",
    GEN + " --rate 0",
    GEN + " --quality 2",
    ECON + " --total-cost -1",
    ECON + " --addresses 0",
    ECON + " --responders 6 --addresses 5",
    EVALUATE + " --addresses 10",
    EVALUATE + " --total-cost -1 --addresses 10 --responders 1",
    "compare {tmp}/a/m.csv {tmp}/b/m.csv",
])
def test_range_errors_print_the_subcommand_usage(command, tmp_path, capsys):
    argv = command.format(tmp=tmp_path).split()
    with pytest.raises(SystemExit) as excinfo:
        main(argv, out=io.StringIO())
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: scorepotential {argv[0]} ")
    assert f"scorepotential {argv[0]}: error: " in err


# The settings flags are checked by EvaluationContext's own rules, before the
# (missing) sample files are read, and the error is the library's message.
@pytest.mark.parametrize("command, settings", [
    (EVALUATE + " --buckets 0", {"bucket_count": 0}),
    (EVALUATE + " --target 0", {"stretch_target": 0.0}),
    (EVALUATE + " --target 101", {"stretch_target": 101.0}),
    (EVALUATE + " --cutoffs ,", {"cutoffs_of_interest": ()}),
    ("compare {tmp}/a.csv {tmp}/b.csv --target 150", {"stretch_target": 150.0}),
])
def test_settings_errors_are_evaluation_contexts_own(command, settings, tmp_path, capsys,
                                                      rate4_sample):
    with pytest.raises(ValueError) as rule:
        EvaluationContext(sample=rate4_sample, **settings)
    with pytest.raises(SystemExit) as excinfo:
        main(command.format(tmp=tmp_path).split(), out=io.StringIO())
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.endswith(f": error: {rule.value}\n")


@pytest.mark.parametrize("cutoff", ["1/0", "10/0%"])
def test_zero_divisor_cutoff_is_worded(cutoff, rate4_csv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["evaluate", str(rate4_csv), "--cutoffs", f"20%,{cutoff}"])
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: argument --cutoffs: bad cut-off {cutoff!r}: not a rational number\n")


def test_console_entrypoint_is_installed():
    import shutil

    assert shutil.which("scorepotential") is not None


def test_python_dash_m_runs_the_cli(tmp_path):
    src = Path(scorepotential.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}

    def run(*argv: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-m", "scorepotential", *argv],
                              capture_output=True, text=True, env=env, timeout=60)

    sample = tmp_path / "gen.csv"
    proc = run("gen", "--size", "20", "--rate", "0.25", "--quality", "0.5",
               "--seed", "3", "-o", str(sample))
    assert proc.returncode == 0, proc.stderr
    proc = run("evaluate", str(sample), "--format", "json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["model_id"] == "gen"

    malformed = tmp_path / "malformed.csv"
    malformed.write_text("id,score,response\nx,1_0,1\n", encoding="utf-8")
    assert run("evaluate", str(malformed)).returncode == 21


def run_with_closed(redirect: str, *argv: str) -> subprocess.CompletedProcess:
    """python -m scorepotential argv, started by sh with a standard stream closed by
    redirect (<&- or >&-)."""
    env = {**os.environ, "PYTHONPATH": str(Path(scorepotential.__file__).resolve().parents[1])}
    return subprocess.run(["sh", "-c", f'exec "$0" -m scorepotential "$@" {redirect}',
                           sys.executable, *argv], stdin=subprocess.DEVNULL,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=env,
                          timeout=60)


def test_dash_on_a_closed_stdin_is_a_usage_error():
    proc = run_with_closed("<&-", "evaluate", "-")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.endswith("error: argument sample: standard input is closed\n")


@pytest.mark.parametrize("argv", [
    ["econ", "--total-cost", "1", "--addresses", "1", "--responders", "1"],
    ["gen", "--size", "10", "--rate", "0.5", "--quality", "0.5", "--seed", "1"],
    ["evaluate", str(Path(__file__).parent / "golden" / "gen_1000_rate4.csv")],
    ["compare", str(Path(__file__).parent / "golden" / "gen_1000_rate4.csv")],
], ids=lambda argv: argv[0])
def test_a_closed_stdout_is_an_io_error(argv):
    proc = run_with_closed(">&-", *argv)
    assert (proc.returncode, proc.stderr) == (3, "i/o error: standard output is closed\n")


def stdin_of(monkeypatch, data: bytes) -> io.BytesIO:
    """Make data the process's standard input; return the byte stream beneath it."""
    stream = io.BytesIO(data)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(stream, encoding="utf-8"))
    return stream


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_evaluate_dash_reads_stdin_as_the_model_stdin(tmp_path, monkeypatch, rate4_csv, fmt):
    saved = tmp_path / "stdin.csv"
    saved.write_bytes(rate4_csv.read_bytes())
    stream = stdin_of(monkeypatch, saved.read_bytes())
    piped = run_cli("evaluate", "-", "--format", fmt)
    assert piped == run_cli("evaluate", str(saved), "--format", fmt)
    assert piped[0] == 0
    assert not stream.closed  # the process's stdin is not the reader's to close


def test_evaluate_dash_of_a_pipe_writes_the_bytes_of_the_saved_file(tmp_path):
    """A real pipe, longer than one read block and than the pipe's buffer."""
    saved = tmp_path / "stdin.csv"
    write_sample_csv(generate_columns(20_000, 0.04, 0.6, 20100707), saved)
    env = {**os.environ, "PYTHONPATH": str(Path(scorepotential.__file__).resolve().parents[1])}

    def run(source: str, data: bytes | None) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-m", "scorepotential", "evaluate", source,
                               "--format", "json"], input=data, capture_output=True, env=env,
                              timeout=120)

    piped, read = run("-", saved.read_bytes()), run(str(saved), None)
    assert piped.returncode == read.returncode == 0, piped.stderr
    assert piped.stdout == read.stdout
    assert json.loads(piped.stdout)["model_id"] == "stdin"


def test_compare_reads_one_dash_beside_files(monkeypatch, rate4_csv, ten_name_csv):
    stdin_of(monkeypatch, rate4_csv.read_bytes())
    code, out = run_cli("compare", "-", str(ten_name_csv), "--format", "json")
    assert code == 0
    assert {e["model_id"] for e in json.loads(out)["evaluations"]} == {"stdin", "ten_name"}


@pytest.mark.parametrize("samples, message", [
    (["-", "-"], "standard input (-) can be read only once"),
    (["-", "stdin.csv"], "sample files must have distinct names"),
], ids=["two_dashes", "dash_and_stdin_csv"])
def test_compare_refuses_stdin_twice_as_a_usage_error(monkeypatch, capsys, samples, message):
    stdin_of(monkeypatch, b"id,score,response\na,1.0,1\n")
    with pytest.raises(SystemExit) as excinfo:
        run_cli("compare", *samples)
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err


def test_a_file_named_dash_is_read_by_a_path_to_it(tmp_path, monkeypatch, rate4_csv):
    dash = tmp_path / "-"
    dash.write_bytes(rate4_csv.read_bytes())
    stdin_of(monkeypatch, b"")
    code, out = run_cli("evaluate", str(dash), "--format", "json")
    assert code == 0
    assert json.loads(out)["model_id"] == "-"


@pytest.mark.parametrize("row, line", [
    (b"b\xff,2.0,1\n", "line 3: not valid UTF-8"),
    (b"x" * 140_000 + b",2.0,1\n", "line 3: field larger than field limit"),
], ids=["undecodable", "over_long"])
def test_unreadable_rows_exit_21_naming_their_line(tmp_path, capsys, row, line):
    sample = tmp_path / "bad.csv"
    sample.write_bytes(b"id,score,response\na,1.0,0\n" + row)
    code, _ = run_cli("evaluate", str(sample))
    assert code == 21
    assert line in capsys.readouterr().err


def test_a_row_after_a_multi_line_record_is_named_by_its_file_line(tmp_path, capsys):
    sample = tmp_path / "bad.csv"
    sample.write_text('id,score,response\n"a\nb",1.0,0\nc,x,0\n', encoding="utf-8")
    code, _ = run_cli("evaluate", str(sample))
    assert code == 21
    assert "error: model 'bad': line 4: score 'x' is not a number" in capsys.readouterr().err


def test_a_byte_order_mark_before_the_header_is_named(tmp_path, capsys):
    sample = tmp_path / "excel.csv"
    sample.write_bytes(b"\xef\xbb\xbfid,score,response\na,1.0,0\nb,2.0,1\n")
    code, _ = run_cli("evaluate", str(sample))
    assert code == 21
    assert ("error: model 'excel': line 1: header must be exactly 'id,score,response' "
            "(it starts with a UTF-8 byte-order mark)") in capsys.readouterr().err


@pytest.mark.parametrize("data, code", [
    (b"id,score,response\na,1.0,0\nb,x,1\n", 21),
    (b"id,score,response\na,1.0,0\nb,2.0,2\n", 23),
    (b"id,score,response\na,1.0,0\na,2.0,1\n", 22),
    (b"\xef\xbb\xbfid,score,response\na,1.0,0\nb,2.0,1\n", 21),
    (b"id,score,response\n", 10),
], ids=["score", "response", "duplicate_id", "byte_order_mark", "header_only"])
def test_compare_names_the_model_whose_file_the_reader_refuses(tmp_path, capsys, rate4_csv,
                                                               data, code):
    bad = tmp_path / "X.csv"
    bad.write_bytes(data)
    assert run_cli("compare", str(rate4_csv), str(bad)) == (code, "")
    assert capsys.readouterr().err.startswith("error: model 'X': ")


def test_compare_reports_the_first_failing_file_in_argument_order(tmp_path, capsys, rate4_csv):
    (tmp_path / "dup.csv").write_text("id,score,response\na,1.0,0\na,2.0,1\n", encoding="utf-8")
    (tmp_path / "bad.csv").write_text("id,score,response\na,1.0,0\nb,x,1\n", encoding="utf-8")
    paths = [str(tmp_path / name) for name in ("dup.csv", "bad.csv", "missing.csv")]
    assert run_cli("compare", str(rate4_csv), *paths) == (22, "")
    assert capsys.readouterr().err.startswith("error: model 'dup': duplicate record id 'a'")


def test_evaluate_dash_of_a_malformed_pipe_names_stdin(monkeypatch, capsys):
    stdin_of(monkeypatch, b"id,score,response\na,1.0,0\nb,x,1\n")
    assert run_cli("evaluate", "-") == (21, "")
    assert capsys.readouterr().err.startswith("error: model 'stdin': line 3: ")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_named_pipe_is_read_once_and_evaluated_as_a_file(tmp_path):
    # The space in an id sends the read to the strict reader.
    text = "id,score,response\na,1.0,0\nc d,2.0,1\nb,3.0,0\n"
    argv = ["evaluate", "--buckets", "1", "--cutoffs", "1", "--format", "json"]
    (tmp_path / "file").mkdir()
    (tmp_path / "pipe").mkdir()
    regular = tmp_path / "file" / "m.csv"
    regular.write_text(text, encoding="utf-8")
    piped = read_through_fifo(tmp_path / "pipe" / "m.csv", text.encode(),
                              lambda fifo: run_cli(*argv, str(fifo)))
    assert piped == run_cli(*argv, str(regular))
    assert piped[0] == 0


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_plain_gen_sample_in_a_named_pipe_is_taken_whole_by_the_block_reader(tmp_path,
                                                                               monkeypatch):
    def strict_reader_never_runs(*_):
        raise AssertionError("the block reader was to take the whole sample")

    monkeypatch.setattr(sample_csv, "_read_strict", strict_reader_never_runs)
    (tmp_path / "file").mkdir()
    (tmp_path / "pipe").mkdir()
    regular = tmp_path / "file" / "gen.csv"
    # More than a pipe's buffer and a block hold, so the read waits on the writer.
    assert run_cli("gen", "--size", "5000", "--rate", "0.04", "--quality", "0.6", "--seed", "7",
                   "--output", str(regular))[0] == 0
    argv = ["evaluate", "--format", "json"]
    piped = read_through_fifo(tmp_path / "pipe" / "gen.csv", regular.read_bytes(),
                              lambda fifo: run_cli(*argv, str(fifo)))
    assert piped == run_cli(*argv, str(regular))
    assert piped[0] == 0
