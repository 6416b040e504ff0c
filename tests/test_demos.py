"""Every narrative script under demos/ runs to completion."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import PACKAGE_ROOT

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": PACKAGE_ROOT},
    )
    assert proc.returncode == 0, proc.stderr
