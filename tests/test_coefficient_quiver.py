"""The coefficient quiver of a string module: an oracle for `chi`, and the
paper's theorem on the torus-fixed points over Q.

Every built-in has 0/1 matrices with at most one nonzero entry per row and
per column, so it is a string module and its coefficient quiver can be read
straight off the matrices.  A torus acts on Gr_e(M), and its fixed points
are the coordinate subrepresentations, one for each successor-closed subset
of the coefficient quiver; so chi(Gr_e(M)) is the number of such subsets
with dimension vector e (Cerulli Irelli, "Quiver Grassmannians associated
with string modules").  The torus acts through automorphisms of M, so ext
is constant on its orbits, and the ray submodules that bound the
combinatorial locus are fixed points: both transverse loci must agree on
the fixed points themselves.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from qgrass import (
    QQ,
    SubrepPoint,
    SubspaceBasis,
    emit_builtin,
    hom_ext,
    parse_document,
    sub_quotient,
    transverse_combinatorial,
)
from qgrass.cli import main
from conftest import coefficient_quiver


def successor_closed_subsets(doc):
    """Every successor-closed subset of the coefficient quiver, once each.

    The basis vectors are taken sinks first, so a vector's successors are
    decided before it, and it may join once all of them are in.  Leaving a
    vector out is always allowed, so every branch ends in a subset."""
    basis, edges = coefficient_quiver(doc)
    quiver, _ = parse_document(doc)
    rank = {v: k for k, v in enumerate(reversed(quiver.topological_order))}
    basis.sort(key=lambda b: rank[b[0]])
    successors = {b: [t for s, t in edges if s == b] for b in basis}

    def extend(k, chosen):
        if k == len(basis):
            yield chosen
            return
        yield from extend(k + 1, chosen)
        if all(t in chosen for t in successors[basis[k]]):
            yield from extend(k + 1, chosen | {basis[k]})

    return extend(0, frozenset())


def successor_closed_counts(doc) -> Counter:
    """Successor-closed subsets of the coefficient quiver, by dimension vector."""
    vertices = doc["quiver"]["vertices"]
    return Counter(
        tuple(sum(v == w for v, _ in chosen) for w in vertices)
        for chosen in successor_closed_subsets(doc)
    )


def coordinate_point(quiver, dims, chosen) -> SubrepPoint:
    """The coordinate subrepresentation over Q spanned by the chosen basis
    vectors; its unit rows are already in RREF."""
    spaces = []
    for v, d in zip(quiver.vertices, dims):
        units = sorted(i for w, i in chosen if w == v)
        rows = [[QQ.one if c == i else QQ.zero for c in range(d)] for i in units]
        spaces.append(SubspaceBasis(QQ, d, rows))
    return SubrepPoint(spaces=tuple(spaces), dim_vector=tuple(s.dim for s in spaces))


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


@pytest.mark.parametrize(
    "name, fixed, excluded",
    [
        ("a21-ex3", 19, 5),
        ("a21-ex1", 71, 19),
        ("kronecker-reg:4", 55, 8),
        ("a21-ray:8", 265, 71),
        ("kronecker-reg:6", 377, 55),
    ],
)
def test_theorem_on_torus_fixed_points_over_q(name, fixed, excluded):
    doc = emit_builtin(name)
    quiver, m = parse_document(doc)
    points = [coordinate_point(quiver, m.dims, chosen) for chosen in successor_closed_subsets(doc)]
    locus = transverse_combinatorial(m, points)
    for point in points:
        ext = hom_ext(*sub_quotient(m, point.spaces)).ext_dim
        assert locus.contains(point) == (ext == 0), point
    assert (len(points), sum(not locus.contains(p) for p in points)) == (fixed, excluded)
