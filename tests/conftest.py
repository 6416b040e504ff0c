"""Shared fixtures: the small standard quivers and modules used throughout."""

from __future__ import annotations

import os

import pytest

import qgrass
from qgrass import (
    Field,
    Matrix,
    Quiver,
    Representation,
    emit_builtin,
    parse_document,
)


# for a child interpreter's PYTHONPATH: it then imports the same qgrass as
# the test process, however that one found it
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(qgrass.__file__)))


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
        flat = [field.from_int(x) for row in rows for x in row]
        mats[a.name] = Matrix(field, want[0], want[1], flat)
    return Representation(quiver, field, dims, mats)


def census_points(report) -> list:
    """Every point of a census, the input the tube pipeline takes."""
    return [entry.point for entry in report.all_entries()]


def locus_points(report, locus, e) -> list:
    """The points of slice e that the combinatorial locus keeps, in census order."""
    return [entry.point for entry in report.entries(e) if locus.contains(entry.point)]


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
