"""The benchmark's tracer wraps qgrass functions by module and name; a name
that a refactor removes or moves silently leaves its per-layer counters at 0."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

TRACED = Path(__file__).resolve().parent.parent / "bench" / "traced.py"

# names the tracer still lists but the program no longer has
KNOWN_STALE = {"qgrass.census._subspaces_cached", "qgrass.cli.counting_polynomial"}


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    spec = importlib.util.spec_from_file_location("qgrass_bench_traced", TRACED)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    missing = {
        f"{module_name}.{attr}"
        for module_name, attrs in traced.WRAPS.items()
        for attr in attrs
        if not hasattr(importlib.import_module(module_name), attr)
    }
    assert missing <= KNOWN_STALE
