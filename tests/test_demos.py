"""Smoke test: every demo script runs to completion in its own process,
under the suite's warning filters."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hks
from conftest import warning_options

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("[0-9][0-9]_*.py"))
SRC = str(Path(hks.__file__).resolve().parents[1])


def test_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(demo, tmp_path, request):
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}
    proc = subprocess.run([sys.executable, *warning_options(request.config), str(demo)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
