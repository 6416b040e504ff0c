"""Shared fixtures: the small standard quivers and modules used throughout."""

from __future__ import annotations

import os
import random
import sys
from fractions import Fraction

import pytest

# write no bytecode into the source tree, here or in a child (CHILD_ENV):
# a tree with a warm cache skips compiling, so it times a different program
sys.dont_write_bytecode = True

import qgrass  # noqa: E402  (after the switch above)
from qgrass import (
    Field,
    Matrix,
    Quiver,
    Representation,
    emit_builtin,
    parse_document,
)


# the reduced environment of a child interpreter: through PYTHONPATH it
# imports the same qgrass as the test process, however that one found it,
# and it writes no bytecode either
CHILD_ENV = {
    "PATH": "/usr/bin:/bin",
    "PYTHONPATH": os.path.dirname(os.path.dirname(os.path.abspath(qgrass.__file__))),
    "PYTHONDONTWRITEBYTECODE": "1",
}


@pytest.fixture
def kronecker():
    return Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])


@pytest.fixture
def a21():
    return Quiver(
        ["1", "2", "3"],
        [("a12", "1", "2"), ("a23", "2", "3"), ("a13", "1", "3")],
    )


@pytest.fixture
def a2():
    return Quiver(["1", "2"], [("a", "1", "2")])


def rep_from_ints(quiver: Quiver, field: Field, dims, matrices: dict) -> Representation:
    """Build a representation from integer row-lists, coerced into the field."""
    idx = quiver.vertex_index
    dims = tuple(dims)
    mats = {}
    for a in quiver.arrows:
        rows = matrices[a.name]
        want = (dims[idx[a.target]], dims[idx[a.source]])
        flat = [field.parse(x) for row in rows for x in row]
        mats[a.name] = Matrix(field, want[0], want[1], flat)
    return Representation(quiver, field, dims, mats)


def dual(rep: Representation) -> Representation:
    """DM, the dual of rep over the opposite quiver: every arrow reversed
    and its matrix transposed, at the same vertices and dims."""
    quiver = rep.quiver
    opposite = Quiver(quiver.vertices, [(a.name, a.target, a.source) for a in quiver.arrows])
    return Representation(opposite, rep.field, rep.dims, {a: mat.transpose() for a, mat in rep.matrices.items()})


def twist(rep: Representation, seed: int) -> Representation:
    """rep under a dense change of basis P_v = L_v U_v at every vertex, with
    L_v lower and U_v upper unitriangular and off-diagonal entries drawn from
    {-1, 0, 1}: M_a becomes P_j M_a P_i^-1 for a: i -> j.  det P_v = 1, so
    P_v is invertible over every field and the twist is isomorphic to rep,
    while its matrices are no longer 0/1."""
    rng = random.Random(seed)
    change = []
    for d in rep.dims:
        lower = [[int(i == j) if j >= i else rng.choice((-1, 0, 1)) for j in range(d)] for i in range(d)]
        upper = [[int(i == j) if j <= i else rng.choice((-1, 0, 1)) for j in range(d)] for i in range(d)]
        # (L U)^-1 = U^-1 L^-1, and U^-1 is the transpose of (U^T)^-1
        upper_inv = _transpose(_lower_unitriangular_inverse(_transpose(upper)))
        p, p_inv = _matmul(lower, upper, d), _matmul(upper_inv, _lower_unitriangular_inverse(lower), d)
        assert _matmul(p, p_inv, d) == [[int(i == j) for j in range(d)] for i in range(d)]
        change.append((p, p_inv))
    idx = rep.quiver.vertex_index
    field = rep.field
    mats = {}
    for a in rep.quiver.arrows:
        i, j = idx[a.source], idx[a.target]
        m = rep.matrices[a.name].to_rows()
        moved = _matmul(_matmul(change[j][0], m, rep.dims[i]), change[i][1], rep.dims[i])
        mats[a.name] = Matrix(field, rep.dims[j], rep.dims[i], [field.parse(x) for row in moved for x in row])
    return Representation(rep.quiver, field, rep.dims, mats)


def _matmul(a: list, b: list, cols: int) -> list:
    # cols is given so that matrices with no rows keep their shape
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols)] for i in range(len(a))]


def _transpose(a: list) -> list:
    return [list(col) for col in zip(*a)]


def _lower_unitriangular_inverse(t: list) -> list:
    # forward substitution on T X = I; the entries stay integers
    n = len(t)
    x = []
    for i in range(n):
        x.append([int(i == j) - sum(t[i][k] * x[k][j] for k in range(i)) for j in range(n)])
    return x


def coefficient_quiver(doc) -> tuple[list, list]:
    """Basis vectors (vertex, i) and the arrows (v, j) -> (w, i), one for each
    entry M_a[i][j] = 1 of an arrow a: v -> w.  The document's matrices must
    be 0/1 with at most one 1 per row and per column (a string module)."""
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


def census_points(report) -> list:
    """Every point of a census, the input the tube pipeline takes."""
    return [entry.point for entries in report.values() for entry in entries]


def locus_points(report, locus, e) -> list:
    """The points of slice e that the combinatorial locus keeps, in census order."""
    return [entry.point for entry in report[e] if locus.contains(entry.point)]


def builtin_rep(name: str):
    """Parsed rational representation of a built-in module."""
    quiver, rep = parse_document(emit_builtin(name))
    return quiver, rep


# the non-rigid battery used by the comparison and property suites
BATTERY = [
    "kronecker-reg:1",
    "kronecker-reg:2",
    "kronecker-reg:3",
    "kronecker-reg:4",
    "a21-ex1",
    "a21-ex3",
    "a21-ray:3",
]
