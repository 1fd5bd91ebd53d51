"""Every demo runs, and demo 05 writes the committed improvement-room figure.

Each demo runs from a copy in a temporary folder, since demo 05 writes its
SVG next to itself.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import scorepotential

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = Path(scorepotential.__file__).resolve().parents[1]


def run_demo(name: str, folder: Path) -> None:
    shutil.copy(DEMOS / name, folder)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, name], cwd=folder, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(name, tmp_path):
    run_demo(name, tmp_path)


def test_figure_demo_writes_the_committed_svg(tmp_path):
    run_demo("05_improvement_figure.py", tmp_path)
    svg = (tmp_path / "improvement_room.svg").read_bytes()
    assert svg == (DEMOS / "improvement_room.svg").read_bytes()
