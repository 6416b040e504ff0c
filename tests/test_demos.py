"""Every narrative script under demos/, and the README's Library tour, runs
to completion."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import PACKAGE_ROOT

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(argv):
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": PACKAGE_ROOT},
    )


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    proc = run_python([str(demo)])
    assert proc.returncode == 0, proc.stderr


def test_readme_library_tour_runs():
    tour = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library tour\n", 1)[1]
    code = tour.split("```python\n", 1)[1].split("\n```", 1)[0]
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "2q + 1 3\n"
