"""Euler form, Coxeter transformation, null root and defect conventions.

Expected Coxeter matrices were derived by hand from Phi = -E^{-1} E^T and
double-checked with an independent Fraction Gauss-Jordan inversion.
"""

from __future__ import annotations

import random
from itertools import combinations, product
from math import gcd

import numpy
import pytest
import sympy

from qgrass import (
    InputError,
    Quiver,
    census,
    compute_euler_data,
    coxeter_apply,
    defect,
    euler_form,
    point_counts,
    reduce_mod_p,
)

from conftest import builtin_rep


def test_quiver_rejects_cycles_and_duplicates():
    with pytest.raises(InputError):
        Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    with pytest.raises(InputError):
        Quiver(["1", "1"], [])
    with pytest.raises(InputError):
        Quiver(["1"], [("a", "1", "2")])


def test_dim_vectors_accept_integers_only(a21):
    # float, str and bool entries used to be truncated by int()
    _, rep = builtin_rep("a21-ex3")
    rep2 = reduce_mod_p(rep, 2)
    for bad in ((0.9, 1.7, "1"), (True, 1, 1), (0, 1.0, 1)):
        with pytest.raises(InputError, match="non-integer"):
            census(rep2, bad)
        with pytest.raises(InputError, match="non-integer"):
            point_counts(rep2, bad)
    with pytest.raises(InputError, match="non-integer"):
        euler_form(a21, (0.5, 0, 0), (1, 1, 1))
    with pytest.raises(InputError, match="non-integer"):
        euler_form(a21, (1, 1, 1), ("2", 0, 0))
    assert euler_form(a21, (1, 1, 1), (1, 1, 1)) == 0


def test_euler_form_kronecker_null(kronecker):
    assert euler_form(kronecker, (1, 1), (1, 1)) == 0


def test_euler_form_a21_values(a21):
    # the two census-relevant values: <e, d-e> for the (3,3,3) and (2,2,2) modules
    assert euler_form(a21, (0, 2, 1), (3, 1, 2)) == 0
    assert euler_form(a21, (0, 1, 1), (2, 1, 1)) == 1


def test_euler_form_matches_matrix_form(kronecker, a21):
    rng = random.Random(5)
    for quiver in (kronecker, a21):
        ed = compute_euler_data(quiver)
        E = ed.euler_matrix
        for _ in range(50):
            d = tuple(rng.randrange(-3, 4) for _ in quiver.vertices)
            e = tuple(rng.randrange(-3, 4) for _ in quiver.vertices)
            via_matrix = sum(
                d[i] * E[i][j] * e[j] for i in range(quiver.n) for j in range(quiver.n)
            )
            assert euler_form(quiver, d, e) == via_matrix


def test_kronecker_euler_data(kronecker):
    ed = compute_euler_data(kronecker)
    assert ed.is_affine
    assert ed.null_root == (1, 1)
    assert ed.coxeter_matrix == ((3, -2), (2, -1))
    assert coxeter_apply(ed, (1, 1), 1) == (1, 1)
    assert coxeter_apply(ed, (0, 1), 1) == (-2, -1)  # projective signals negative


def test_a21_euler_data(a21):
    ed = compute_euler_data(a21)
    assert ed.is_affine
    assert ed.null_root == (1, 1, 1)
    assert ed.coxeter_matrix == ((2, 1, -2), (2, 0, -1), (1, 1, -1))
    assert coxeter_apply(ed, (1, 0, 1), 1) == (0, 1, 0)
    assert coxeter_apply(ed, (0, 1, 0), 1) == (1, 0, 1)
    assert coxeter_apply(ed, (0, 1, 0), 2) == (0, 1, 0)
    assert coxeter_apply(ed, (0, 1, 0), -1) == (1, 0, 1)


def test_dynkin_a2_is_not_affine(a2):
    ed = compute_euler_data(a2)
    assert not ed.is_affine
    assert ed.null_root is None
    with pytest.raises(InputError):
        defect(ed, (1, 0))


def test_wild_three_kronecker_is_not_affine():
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2"), ("c", "1", "2")])
    assert not compute_euler_data(q).is_affine
    # the Dynkin E8 and the wild star T(2,3,7) on either side of E8~
    for arms in ((1, 2, 4), (1, 2, 6)):
        assert not compute_euler_data(_star(arms)).is_affine, arms


def _star(arms):
    """Star with centre "c" and one arm of each given length, every arrow
    pointing toward the centre; arm k's vertices are k.1, k.2, ... outward."""
    vertices, arrows = ["c"], []
    for k, length in enumerate(arms):
        path = ["c"] + [f"{k}.{i}" for i in range(1, length + 1)]
        vertices += path[1:]
        arrows += [(f"{outer}>{inner}", outer, inner) for inner, outer in zip(path, path[1:])]
    return Quiver(vertices, arrows)


def affine_battery():
    """Affine quivers with their null roots."""
    a3_cycle_a = Quiver(
        ["1", "2", "3", "4"],
        [("a", "1", "2"), ("b", "2", "3"), ("c", "1", "4"), ("d", "4", "3")],
    )
    a3_cycle_b = Quiver(
        ["1", "2", "3", "4"],
        [("a", "1", "2"), ("b", "3", "2"), ("c", "3", "4"), ("d", "1", "4")],
    )
    d4_inward = Quiver(
        ["0", "1", "2", "3", "4"],
        [("a", "1", "0"), ("b", "2", "0"), ("c", "3", "0"), ("d", "4", "0")],
    )
    # A~23: a 24-cycle with one sink and one source
    cycle = Quiver(
        [str(i) for i in range(24)],
        [(f"a{i}", str(i), str(i + 1)) for i in range(23)] + [("z", "0", "23")],
    )
    # D~23: a path of 20 vertices with two leaves at each end
    path = [f"p{i}" for i in range(20)]
    d_tilde = Quiver(
        ["l0", "l1"] + path + ["l2", "l3"],
        [(f"a{i}", path[i], path[i + 1]) for i in range(19)]
        + [("b0", "l0", "p0"), ("b1", "l1", "p0"), ("b2", "p19", "l2"), ("b3", "p19", "l3")],
    )
    return [
        (a3_cycle_a, (1, 1, 1, 1)),
        (a3_cycle_b, (1, 1, 1, 1)),
        (d4_inward, (2, 1, 1, 1, 1)),
        (_star((2, 2, 2)), (3, 2, 1, 2, 1, 2, 1)),
        (_star((1, 3, 3)), (4, 2, 3, 2, 1, 3, 2, 1)),
        (_star((1, 2, 5)), (6, 3, 4, 2, 5, 4, 3, 2, 1)),
        (cycle, (1,) * 24),
        (d_tilde, (1, 1) + (2,) * 20 + (1, 1)),
    ]


def test_affine_battery_null_roots_and_defect():
    kron = Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    a21 = Quiver(["1", "2", "3"], [("a12", "1", "2"), ("a23", "2", "3"), ("a13", "1", "3")])
    for quiver, expected in [(kron, (1, 1)), (a21, (1, 1, 1))] + affine_battery():
        ed = compute_euler_data(quiver)
        assert ed.is_affine, quiver
        delta = ed.null_root
        assert delta == expected, quiver
        for k in (1, 2, 5):
            assert coxeter_apply(ed, delta, k) == delta
        assert defect(ed, delta) == 0


def test_defect_signs(kronecker, a21):
    ed_k = compute_euler_data(kronecker)
    assert defect(ed_k, (1, 2)) == -1  # preprojective: strictly negative
    assert defect(ed_k, (1, 1)) == 0
    ed_a = compute_euler_data(a21)
    assert defect(ed_a, (1, 0, 0)) == 1  # injective simple: strictly positive


def test_coxeter_adjoint_identity(kronecker, a21):
    # <x, y> = -<y, Phi x> for all integer vectors
    rng = random.Random(17)
    for quiver in [kronecker, a21] + [quiver for quiver, _ in affine_battery()]:
        ed = compute_euler_data(quiver)
        for _ in range(100):
            x = tuple(rng.randrange(-4, 5) for _ in quiver.vertices)
            y = tuple(rng.randrange(-4, 5) for _ in quiver.vertices)
            assert euler_form(quiver, x, y) == -euler_form(quiver, y, coxeter_apply(ed, x, 1))


def test_coxeter_inverse_roundtrip(a21):
    ed = compute_euler_data(a21)
    rng = random.Random(23)
    for _ in range(30):
        x = tuple(rng.randrange(-3, 4) for _ in a21.vertices)
        assert coxeter_apply(ed, coxeter_apply(ed, x, 1), -1) == x
        assert coxeter_apply(ed, x, 0) == x


def _graph_quiver(n, multiplicities):
    """Quiver on vertices 0..n-1 with multiplicities[k] arrows i -> j for
    the k-th pair i < j."""
    arrows = []
    for (i, j), count in zip(combinations(range(n), 2), multiplicities):
        arrows += [(f"a{i}{j}_{t}", str(i), str(j)) for t in range(count)]
    return Quiver([str(i) for i in range(n)], arrows)


def _semidefinite_of_corank_one(quiver):
    """numpy's verdict on the symmetrized Euler form B, built from the
    arrows, and B itself."""
    n = quiver.n
    b = [[2 * int(i == j) for j in range(n)] for i in range(n)]
    for a in quiver.arrows:
        s, t = quiver.vertex_index[a.source], quiver.vertex_index[a.target]
        b[s][t] -= 1
        b[t][s] -= 1
    eigenvalues = numpy.linalg.eigvalsh(numpy.array(b, dtype=float))
    return eigenvalues.min() >= -1e-9 and sum(abs(x) < 1e-9 for x in eigenvalues) == 1, b


def _oracle_null_root(quiver):
    """numpy and sympy's verdict: the primitive positive kernel vector of the
    symmetrized Euler form when it is positive semidefinite of corank one
    with a strictly one-signed kernel vector, else None."""
    semidefinite, b = _semidefinite_of_corank_one(quiver)
    if not semidefinite:
        return None
    (vector,) = sympy.Matrix(b).nullspace()
    scale = sympy.ilcm(*[x.q for x in vector])
    ints = [int(x * scale) for x in vector]
    g = 0
    for x in ints:
        g = gcd(g, x)
    ints = [x // g for x in ints]
    if all(x < 0 for x in ints):
        ints = [-x for x in ints]
    return tuple(ints) if all(x > 0 for x in ints) else None


def test_affine_verdict_and_null_root_match_an_eigenvalue_oracle():
    # every graph on at most 4 vertices with at most 2 edges per pair; the
    # verdict depends only on the graph, so one orientation each suffices
    affine = 0
    for n in range(1, 5):
        for multiplicities in product(range(3), repeat=n * (n - 1) // 2):
            quiver = _graph_quiver(n, multiplicities)
            ed = compute_euler_data(quiver)
            expected = _oracle_null_root(quiver)
            assert ed.is_affine == (expected is not None), quiver
            assert ed.null_root == expected, quiver
            affine += ed.is_affine
    assert affine > 0
    # an isolated vertex beside a Kronecker pair: semidefinite of corank 1,
    # but the kernel vector vanishes on the isolated vertex
    kronecker_plus_point = _graph_quiver(3, (2, 0, 0))
    assert _semidefinite_of_corank_one(kronecker_plus_point)[0]
    assert not compute_euler_data(kronecker_plus_point).is_affine


def test_coxeter_matrices_match_a_sympy_inverse():
    rng = random.Random(41)
    for _ in range(50):
        n = rng.randint(1, 7)
        order = list(range(n))
        rng.shuffle(order)  # a random topological order, so E is not triangular
        arrows = []
        for i, j in combinations(range(n), 2):
            for t in range(rng.choice((0, 0, 1, 1, 2, 3))):
                arrows.append((f"a{i}{j}_{t}", str(order[i]), str(order[j])))
        quiver = Quiver([str(v) for v in range(n)], arrows)
        ed = compute_euler_data(quiver)
        e = sympy.Matrix(ed.euler_matrix)
        assert ed.coxeter_matrix == tuple(map(tuple, (-e.inv() * e.T).tolist())), quiver
        assert ed.coxeter_inverse == tuple(map(tuple, (-e.T.inv() * e).tolist())), quiver
