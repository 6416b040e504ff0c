"""Tests of the benchmark itself: seeded inputs, the refusal to run without
sources, and the determinism of the traced counters.

    python3 -m pytest bench

The counter tests run each workload three times under the tracer, so this
module takes about a minute.  It is not part of the repository's test
suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

GOLDEN = json.loads(run.GOLDEN.read_text())

# seed-0 counters: cells scanned, points, rref calls from the enumeration
PINNED = {
    "check-a21": (31_438, 1_614, 4_320),
    "chi-a21": (419_744, 8_602, 22_860),
    "census-kronecker": (187_265, 3_575, 5_595),
}


def test_seeded_document_repeats_and_seed_zero_is_the_builtin():
    workload = run.WORKLOADS["check-a21"]
    builtin = (run.BENCH / "inputs" / workload.document).read_bytes()
    assert run.seeded_document(workload, 0) == builtin
    assert run.seeded_document(workload, 7) == run.seeded_document(workload, 7)
    assert run.seeded_document(workload, 7) != run.seeded_document(workload, 8)


def test_seeded_change_of_basis_is_unimodular_and_dense():
    import random

    p, p_inv = run._unimodular(5, random.Random(3))
    assert run._matmul(p, p_inv, 5) == [[int(i == j) for j in range(5)] for i in range(5)]
    assert all(x.denominator == 1 for row in p + p_inv for x in row)

    def nonzeros(doc: bytes) -> int:
        matrices = json.loads(doc)["representation"]["matrices"].values()
        return sum(x != "0" for m in matrices for row in m for x in row)

    workload = run.WORKLOADS["census-kronecker"]
    assert nonzeros(run.seeded_document(workload, 1)) > 2 * nonzeros(run.seeded_document(workload, 0))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "check-a21", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""


def traced_counters(name: str, seed: int, workdir) -> dict:
    workload = run.WORKLOADS[name]
    document, spans = workdir / "input.json", workdir / "spans.json"
    document.write_bytes(run.seeded_document(workload, seed))
    sample = run.spawn(run.traced_argv(workload, document, spans, f"test-{seed}"), workdir)
    check = run.OutputCheck(GOLDEN[name], seed)
    assert check(sample), check.failures
    layer = run.layer_metrics(json.loads(spans.read_text())["spans"])
    return {counter: layer[counter] for counter in run.COUNTERS if counter in layer}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_counters_repeat_and_match_pins(name, tmp_path):
    first = traced_counters(name, 0, tmp_path)
    assert traced_counters(name, 0, tmp_path) == first
    cells, points, span_rref_calls = PINNED[name]
    assert first["linalg.cells_scanned"] == cells
    assert first["census.points"] == points
    assert first["linalg.span_rref_calls"] == span_rref_calls
    assert traced_counters(name, 1, tmp_path)["census.points"] == points
