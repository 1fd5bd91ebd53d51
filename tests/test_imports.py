"""The import contract: the package namespace resolves each public name on first
use, and each command imports only the modules it runs.  Every test runs in a
fresh interpreter, so that no module another test imported is already loaded."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import scorepotential

SRC = Path(scorepotential.__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden"

# The public names as the package listed them when it imported every module.
PUBLIC_NAMES = [
    "BadResponseValue", "BeniPoint", "Bucket", "CampaignEconomics",
    "ComparisonReport", "CutOff", "CutoffTooSmall", "DECILE_CUTOFFS",
    "DegenerateClasses", "DuplicateId", "EmptyBatch", "EmptySample",
    "EvaluationContext", "GainsChart", "IndivisibleBuckets", "MalformedRow",
    "ModelEvaluation", "NoResponders", "NonFiniteScore", "RankedSample",
    "SampleColumns", "ScoredRecord", "SpreadingLoss", "TiePolicy", "TooFewPoints",
    "ToolkitError", "ZeroBaseRate", "auc_crosscheck",
    "beni", "beni_at_cutoff", "beni_max", "build_gains_chart", "compare_models",
    "economics_summary", "evaluate_model", "evaluation_from_csv", "evaluation_from_dict",
    "evaluation_to_csv", "evaluation_to_dict", "generate_columns", "generate_sample",
    "perfect_rank_sum", "pop_denominator_exact", "pop_exact",
    "pop_numerator_exact", "rank_sample", "read_sample_columns",
    "render_combined_chart", "render_comparison", "render_economics_text",
    "render_pop_vs_beni_figure", "selection_count", "spreading_loss",
    "write_sample_csv",
]

# Prints the package's modules that the code before it loaded, one a line.
LOADED = "\nprint(*sorted(m for m in sys.modules if m.startswith('scorepotential.')), sep='\\n')"


def fresh(code: str) -> str:
    """Run code in a fresh interpreter that finds the package; return its stdout."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def modules_loaded_by(argv: list[str]) -> set[str]:
    """The package's modules loaded by one CLI call, run in process, its output discarded."""
    out = fresh(f"import io, sys\nfrom scorepotential.cli import main\n"
                f"assert main({argv!r}, out=io.StringIO()) == 0{LOADED}")
    return {name.removeprefix("scorepotential.") for name in out.split()}


def test_importing_the_package_loads_none_of_its_modules():
    assert fresh(f"import sys, scorepotential{LOADED}").split() == []


def test_gen_loads_only_the_sample_modules():
    argv = ["gen", "--size", "1000", "--rate", "0.04", "--quality", "0.6", "--seed", "1",
            "-o", "-"]
    assert modules_loaded_by(argv) == {"cli", "errors", "rounding", "sample", "sample_csv"}


def test_evaluate_json_loads_neither_the_figure_nor_the_economics():
    loaded = modules_loaded_by(["evaluate", str(GOLDEN / "gen_1000_rate4.csv"),
                                "--format", "json"])
    assert {"engine", "report"} <= loaded
    assert not {"figure", "economics"} & loaded


def test_evaluate_with_economics_flags_loads_the_economics():
    loaded = modules_loaded_by(["evaluate", str(GOLDEN / "gen_1000_rate4.csv"), "--total-cost",
                                "100", "--addresses", "1000", "--responders", "40"])
    assert "economics" in loaded and "figure" not in loaded


@pytest.fixture
def two_samples(tmp_path) -> list[str]:
    """The committed gen sample under two model ids."""
    copy = tmp_path / "copy.csv"
    copy.write_bytes((GOLDEN / "gen_1000_rate4.csv").read_bytes())
    return [str(GOLDEN / "gen_1000_rate4.csv"), str(copy)]


def test_compare_loads_the_figure_only_under_its_flag(tmp_path, two_samples):
    assert "figure" not in modules_loaded_by(["compare", *two_samples])
    assert "figure" in modules_loaded_by(["compare", *two_samples, "--figure",
                                          str(tmp_path / "f.svg")])


def test_all_lists_the_public_names_as_before():
    assert scorepotential.__all__ == PUBLIC_NAMES
    fresh("import scorepotential as s\n"
          f"assert s.__all__ == {PUBLIC_NAMES!r}\n"
          "assert set(s.__all__) <= set(dir(s))")


def test_each_public_name_is_its_modules_object():
    fresh("import importlib, scorepotential as s\n"
          "for module, names in s._NAMES.items():\n"
          "    defining = importlib.import_module('scorepotential.' + module)\n"
          "    for name in names:\n"
          "        value = getattr(s, name)\n"
          "        assert value is getattr(defining, name), name\n"
          "        assert getattr(value, '__module__', defining.__name__) == defining.__name__, name")


def test_a_star_import_binds_every_public_name():
    fresh("import scorepotential as s\n"
          "namespace = {}\n"
          "exec('from scorepotential import *', namespace)\n"
          "assert all(namespace[name] is getattr(s, name) for name in s.__all__)")


@pytest.mark.parametrize("module", ["scorepotential", "scorepotential.cli"])
def test_an_unknown_name_raises_attribute_error_naming_the_module(module):
    fresh(f"import importlib\n"
          f"m = importlib.import_module({module!r})\n"
          "try:\n"
          "    m.no_such_name\n"
          "except AttributeError as err:\n"
          f"    assert str(err) == \"module {module!r} has no attribute 'no_such_name'\", err\n"
          "else:\n"
          "    raise AssertionError('no AttributeError')")


def test_a_name_set_on_the_package_is_used_until_restored():
    fresh("import scorepotential as s\n"
          "original = s.rank_sample\n"
          "s.rank_sample = stand_in = lambda *args: None\n"
          "from scorepotential import rank_sample\n"
          "assert rank_sample is stand_in and s.rank_sample is stand_in\n"
          "s.rank_sample = original\n"
          "from scorepotential import rank_sample\n"
          "assert rank_sample is original is s.sample.rank_sample")


def test_the_cli_runs_the_late_calls_set_on_it(tmp_path, two_samples):
    """Each late call is looked up in cli when a command runs it, so a replacement
    set there first (as the benchmark's tracer sets one) is the one that runs."""
    names = ["compare_models", "evaluate_model", "render_combined_chart", "render_comparison",
             "render_pop_vs_beni_figure"]
    fresh("import io, sys\n"
          "import scorepotential.cli as cli\n"
          "assert 'scorepotential.engine' not in sys.modules\n"
          "calls = []\n"
          f"originals = {{name: getattr(cli, name) for name in {names!r}}}\n"
          "for name, fn in originals.items():\n"
          "    setattr(cli, name, lambda *a, name=name, fn=fn, **k: calls.append(name) or fn(*a, **k))\n"
          f"assert cli.main(['evaluate', {two_samples[0]!r}], out=io.StringIO()) == 0\n"
          f"assert cli.main(['compare', *{two_samples!r}, '--figure', {str(tmp_path / 'f.svg')!r}],\n"
          "                out=io.StringIO()) == 0\n"
          "assert sorted(set(calls)) == sorted(originals) and len(calls) == 7, calls\n"
          "for name, fn in originals.items():\n"
          "    setattr(cli, name, fn)\n"
          "    assert getattr(cli, name) is fn")
