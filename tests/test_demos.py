"""Every narrative script under demos/, and the README's Library tour, runs
to completion, and the demos whose output is stable print the same bytes."""

from __future__ import annotations

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import CHILD_ENV

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# sha256 of stdout; 05 prints timings, so only its exit code is checked
DEMO_STDOUT = {
    "01_projective_line_of_subreps.py": "c1fbb3948495790d24264f99d570f2ef7d7c7e4ff1c37a176a1d51fc1a115f9e",
    "02_double_point.py": "3342d4b40bb271955cc3b3645be62d6cde9ee071e3ccedf179046b857ab15192",
    "03_two_components.py": "dd91391fee12b99bfc9c52ce93afd3aca086755871e34ebd16a20411d1a7c5d9",
    "04_tube_coordinates.py": "d6fb382cd4827e2c01cb885127ae549689a173dab24439653b6a1c3e6718e5d4",
}


def run_python(argv):
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )


def test_demos_are_found():
    assert DEMOS
    assert set(DEMO_STDOUT) <= {demo.name for demo in DEMOS}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    proc = run_python([str(demo)])
    assert proc.returncode == 0, proc.stderr
    if demo.name in DEMO_STDOUT:
        assert hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest() == DEMO_STDOUT[demo.name]


def test_readme_library_tour_runs():
    tour = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library tour\n", 1)[1]
    code = tour.split("```python\n", 1)[1].split("\n```", 1)[0]
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "2q + 1 3\n"
