"""Locus comparison across other affine types and tube shapes.

The built-in battery only exercises tubes of rank 1 and 2 with k = 0 (plus
one vacuous-window case), so this module pins down the remaining shapes:
an offset window with l >= 2, rank-3 tubes with all three quasi-socles, a
rank-3 module with a non-vacuous k = 1 window, and the rank-2 versus
homogeneous dichotomy of the four-subspace quiver.
"""

from __future__ import annotations

from fractions import Fraction

from qgrass import (
    QQ,
    Matrix,
    Quiver,
    Representation,
    compare_transverse_loci,
    census,
    compute_euler_data,
    emit_builtin,
    parse_document,
    reduce_mod_p,
)


def build(quiver, dims, mats):
    idx = quiver.vertex_index
    out = {}
    for a in quiver.arrows:
        r, c = dims[idx[a.target]], dims[idx[a.source]]
        out[a.name] = Matrix(QQ, r, c, [Fraction(x) for row in mats[a.name] for x in row])
    return Representation(quiver, QQ, tuple(dims), out)


def a31_quiver():
    # four-vertex cycle, three arrows along the path and one shortcut
    return Quiver(
        ["1", "2", "3", "4"],
        [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4"), ("d", "1", "4")],
    )


def d4_quiver():
    return Quiver(
        ["0", "1", "2", "3", "4"],
        [("a", "1", "0"), ("b", "2", "0"), ("c", "3", "0"), ("d", "4", "0")],
    )


def excluded_points(rep, fc):
    report = census(reduce_mod_p(rep, fc.q))
    return {
        e: len(report[e]) - comb
        for e, (comb, hom, equal) in fc.per_e.items()
        if comb < len(report[e])
    }


def test_offset_window_excludes_exactly_the_ray_segment():
    # quasi-length 5 = 2*2 + 1: the window [2, 3] pinches the two ray points
    _, rep = parse_document(emit_builtin("a21-ray:5"))
    comparison = compare_transverse_loci(rep, [2, 3])
    assert comparison.verdict
    for fc in comparison.per_field:
        tube = fc.tube
        assert (tube.tube_rank, tube.l, tube.k) == (2, 2, 1)
        assert not tube.vacuous_window
        assert excluded_points(rep, fc) == {(1, 1, 1): 1, (1, 2, 1): 1}


def test_rank_three_tube_all_three_quasi_socles():
    quiver = a31_quiver()
    assert compute_euler_data(quiver).null_root == (1, 1, 1, 1)
    expected_socle = {"a": (1, 0, 0, 1), "b": (0, 1, 0, 0), "c": (0, 0, 1, 0)}
    for dead, socle in expected_socle.items():
        mats = {x: [[0 if x == dead else 1]] for x in "abcd"}
        m = build(quiver, (1, 1, 1, 1), mats)
        comparison = compare_transverse_loci(m, [2, 3])
        assert comparison.verdict, dead
        tube = comparison.per_field[0].tube
        assert (tube.tube_rank, tube.quasi_length, tube.l, tube.k) == (3, 3, 1, 0)
        assert tube.quasi_socle_dim == socle


def test_rank_three_tube_quasi_length_four_window():
    # dims (2,1,1,2) sits at quasi-length 4 = 1*3 + 1: window [2, 2]
    quiver = a31_quiver()
    m = build(
        quiver,
        (2, 1, 1, 2),
        {"a": [[0, 1]], "b": [[1]], "c": [[1], [0]], "d": [[1, 0], [0, 1]]},
    )
    comparison = compare_transverse_loci(m, [2, 3])
    assert comparison.verdict
    for fc in comparison.per_field:
        tube = fc.tube
        assert (tube.tube_rank, tube.quasi_length, tube.l, tube.k) == (3, 4, 1, 1)
        assert tube.ray_dims[2] == (1, 0, 1, 1)
        assert excluded_points(m, fc) == {(1, 0, 1, 1): 1}


def test_cycle_module_with_all_arrows_nonzero_is_homogeneous():
    quiver = a31_quiver()
    for shortcut in (0, 1):
        m = build(
            quiver, (1, 1, 1, 1), {"a": [[1]], "b": [[1]], "c": [[1]], "d": [[shortcut]]}
        )
        comparison = compare_transverse_loci(m, [2, 3])
        assert comparison.verdict
        tube = comparison.per_field[0].tube
        assert (tube.tube_rank, tube.quasi_length) == (1, 1)
        assert tube.quasi_socle_dim == (1, 1, 1, 1)


def test_four_subspace_quiver_degenerate_and_generic():
    quiver = d4_quiver()
    assert compute_euler_data(quiver).null_root == (2, 1, 1, 1, 1)

    # two coincident lines: exceptional rank-2 tube
    degenerate = build(
        quiver,
        (2, 1, 1, 1, 1),
        {"a": [[1], [0]], "b": [[0], [1]], "c": [[1], [1]], "d": [[1], [1]]},
    )
    comparison = compare_transverse_loci(degenerate, [2, 3])
    assert comparison.verdict
    tube = comparison.per_field[0].tube
    assert (tube.tube_rank, tube.quasi_length) == (2, 2)
    assert tube.quasi_socle_dim == (1, 0, 0, 1, 1)

    # four distinct lines (needs q > 2): homogeneous quasi-simple
    generic = build(
        quiver,
        (2, 1, 1, 1, 1),
        {"a": [[1], [0]], "b": [[0], [1]], "c": [[1], [1]], "d": [[1], [2]]},
    )
    comparison = compare_transverse_loci(generic, [3, 5])
    assert comparison.verdict
    for fc in comparison.per_field:
        assert (fc.tube.tube_rank, fc.tube.quasi_length) == (1, 1)
        assert fc.tube.quasi_socle_dim == (2, 1, 1, 1, 1)
