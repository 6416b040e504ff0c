"""Euler characteristics from the coefficient quiver, an oracle for `chi`.

Every built-in has 0/1 matrices with at most one nonzero entry per row and
per column, so it is a string module and its coefficient quiver can be read
straight off the matrices.  For such a module chi(Gr_e(M)) is the number of
successor-closed subsets of the coefficient quiver with dimension vector e
(Cerulli Irelli, "Quiver Grassmannians associated with string modules").
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction

import pytest

from qgrass import emit_builtin
from qgrass.cli import main


def coefficient_quiver(doc) -> tuple[list, list]:
    """Basis vectors (vertex, i) and the arrows (v, j) -> (w, i), one for each
    entry M_a[i][j] = 1 of an arrow a: v -> w."""
    rep = doc["representation"]
    edges = []
    for arrow in doc["quiver"]["arrows"]:
        rows = [[Fraction(x) for x in row] for row in rep["matrices"][arrow["id"]]]
        assert all(x in (0, 1) for row in rows for x in row), arrow["id"]
        assert all(sum(row) <= 1 for row in rows), arrow["id"]
        assert all(sum(col) <= 1 for col in zip(*rows)), arrow["id"]
        edges += [
            ((arrow["from"], j), (arrow["to"], i))
            for i, row in enumerate(rows)
            for j, x in enumerate(row)
            if x
        ]
    basis = [(v, i) for v in doc["quiver"]["vertices"] for i in range(rep["dims"][v])]
    return basis, edges


def successor_closed_counts(doc) -> Counter:
    """Successor-closed subsets of the coefficient quiver, by dimension vector."""
    basis, edges = coefficient_quiver(doc)
    vertices = doc["quiver"]["vertices"]
    counts = Counter()
    for mask in range(1 << len(basis)):
        chosen = {b for k, b in enumerate(basis) if mask >> k & 1}
        if all(target in chosen for source, target in edges if source in chosen):
            counts[tuple(sum(v == w for v, _ in chosen) for w in vertices)] += 1
    return counts


@pytest.mark.parametrize(
    "name, interpolated, not_interpolated",
    [("a21-ex3", 27, 0), ("a21-ex1", 64, 0), ("kronecker-reg:4", 22, 3)],
)
def test_chi_matches_successor_closed_subsets(capsys, name, interpolated, not_interpolated):
    oracle = successor_closed_counts(emit_builtin(name))
    main(["chi", "--builtin", name, "--q", "2,3,5,7"])
    results = json.loads(capsys.readouterr().out)["results"]
    chis = {tuple(r["e"]): r["euler_characteristic"] for r in results if "error" not in r}
    assert chis == {e: oracle[e] for e in chis}
    assert (len(chis), len(results) - len(chis)) == (interpolated, not_interpolated)
