"""Exact linear algebra kernels and the canonical subspace enumeration."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgrass import (
    QQ,
    Field,
    InputError,
    Matrix,
    SubspaceBasis,
    gaussian_binomial,
    kernel_basis,
    rref,
)
from qgrass.linalg import _rref_rows, _subspaces_cached, subspaces_containing, subspaces_meeting

F2 = Field.prime(2)
F3 = Field.prime(3)


def qmat(rows):
    return Matrix.from_rows(QQ, [[Fraction(x) for x in row] for row in rows])


def pmat(field, rows):
    return Matrix.from_rows(field, [[field.parse(x) for x in row] for row in rows])


def brute_force_subspaces(d, e, p):
    """Oracle: span every e-tuple of vectors of F_p^d, dedupe by RREF."""
    field = Field.prime(p)
    vectors = [list(v) for v in product(range(p), repeat=d)]
    seen = set()
    for combo in product(vectors, repeat=e):
        basis = SubspaceBasis.from_vectors(field, combo, d)
        if basis.dim == e:
            seen.add(basis)
    if e == 0:
        seen.add(SubspaceBasis.zero(field, d))
    return seen


def test_rref_proportional_rows():
    red, rank, _ = rref(qmat([[1, 2], [2, 4]]))
    assert rank == 1
    assert red.to_rows() == [[1, 2], [0, 0]]


def test_rref_identity_over_f2():
    m = Matrix.identity(F2, 3)
    red, rank, pivots = rref(m)
    assert rank == 3
    assert red == m
    assert pivots == (0, 1, 2)


def test_rref_nilpotent_jordan_rank():
    j3 = qmat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert rref(j3).rank == 2


def test_rref_idempotent_on_random_matrices():
    rng = random.Random(7)
    for _ in range(40):
        rows = rng.randrange(0, 4)
        cols = rng.randrange(0, 4)
        m = qmat([[rng.randrange(-3, 4) for _ in range(cols)] for _ in range(rows)])
        once = rref(m).matrix
        assert rref(once).matrix == once


def test_rank_nullity_on_random_matrices():
    rng = random.Random(11)
    for field in (QQ, F2, F3):
        for _ in range(40):
            rows = rng.randrange(0, 5)
            cols = rng.randrange(0, 5)
            m = Matrix.from_rows(
                field,
                [[field.parse(rng.randrange(-4, 5)) for _ in range(cols)] for _ in range(rows)],
            ) if rows else Matrix(field, 0, cols, [])
            rank = rref(m).rank
            assert rank + kernel_basis(m).rows == cols
            # every kernel row really is annihilated
            ker = kernel_basis(m)
            for r in range(ker.rows):
                assert all(x == 0 for x in m.apply(ker.row(r)))


def _rank_oracle_shapes(rng):
    """(rows, cols, entries) over Z: empty, zero, tall, wide, square and
    rank-deficient products A·B through an inner dimension k < min(rows, cols)."""
    for rows, cols in ((0, 0), (0, 4), (4, 0)):
        yield rows, cols, [[0] * cols for _ in range(rows)]
    for rows, cols in ((1, 1), (3, 3), (5, 2)):
        yield rows, cols, [[0] * cols for _ in range(rows)]
    for _ in range(12):
        for rows, cols in ((rng.randint(5, 9), rng.randint(1, 4)),
                           (rng.randint(1, 4), rng.randint(5, 9)),
                           (rng.randint(1, 7),) * 2):
            yield rows, cols, [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
            k = rng.randrange(min(rows, cols))
            a = [[rng.randrange(-9, 10) for _ in range(k)] for _ in range(rows)]
            b = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(k)]
            yield rows, cols, [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
                               if k else [0] * cols for row in a]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_rank_matches_sympy_over_prime_fields(p):
    # every tangent datum is one _rref_rows rank; sympy's GF(p) rank is the oracle
    from sympy import GF
    from sympy.polys.matrices import DomainMatrix

    field, domain = Field.prime(p), GF(p)
    rng = random.Random(100 + p)
    for rows, cols, entries in _rank_oracle_shapes(rng):
        reduced = [[x % p for x in row] for row in entries]
        expected = DomainMatrix(
            [[domain(x) for x in row] for row in reduced], (rows, cols), domain
        ).rank()
        assert len(_rref_rows([row[:] for row in reduced], cols, field)) == expected, entries
        m = Matrix(field, rows, cols, [x for row in reduced for x in row])
        assert rref(m).rank == expected, entries


@st.composite
def _mixed_rows(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    cols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols), min_size=1, max_size=6))
    return p, cols, [tuple(row) if draw(st.booleans()) else row for row in rows]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_mixed_rows())
def test_rref_rows_rebinds_slots_and_never_writes_into_a_row(case):
    # census._required_span reduces a fresh list of the image memo's tuples
    # and of fresh lists, so _rref_rows may only rebind the list's slots
    p, cols, given_rows = case
    field = Field.prime(p)
    copies = [list(row) for row in given_rows]
    rows = list(given_rows)
    pivots = _rref_rows(rows, cols, field)
    assert [list(row) for row in given_rows] == copies
    red, rank, expected = rref(Matrix.from_rows(field, copies))
    assert tuple(pivots) == expected
    assert [list(row) for row in rows[:rank]] == red.to_rows()[:rank]


def test_kernel_of_jordan_block_is_first_axis():
    ker = kernel_basis(qmat([[0, 1, 0], [0, 0, 1], [0, 0, 0]]))
    assert ker.rows == 1
    assert ker.row(0) == [1, 0, 0]


def test_kernel_of_zero_matrix_is_everything():
    ker = kernel_basis(Matrix(QQ, 2, 3, [QQ.zero] * 6))
    assert ker.rows == 3
    assert rref(ker).rank == 3


def test_kernel_of_invertible_matrix_is_trivial():
    m = pmat(F3, [[1, 1], [0, 2]])
    assert kernel_basis(m).rows == 0


def test_membership_basic():
    line = SubspaceBasis.from_vectors(QQ, [[Fraction(1), Fraction(0)]], 2)
    assert line.contains_vector([Fraction(0), Fraction(0)])
    assert not line.contains_vector([Fraction(0), Fraction(1)])
    diag = SubspaceBasis.from_vectors(F2, [[1, 1]], 2)
    assert diag.contains_vector([1, 1])
    with pytest.raises(InputError):
        line.contains_vector([Fraction(1)])


def test_subspace_contains_basic():
    full = SubspaceBasis.full(F2, 2)
    diag = SubspaceBasis.from_vectors(F2, [[1, 1]], 2)
    assert full.contains(diag)
    assert not diag.contains(full)
    with pytest.raises(InputError):
        full.contains(SubspaceBasis.full(F2, 3))


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 1, 0], [1, 0, 0]],
        [[1, 0, 0], [0, 2, 0]],
        [[1, 1, 0], [0, 1, 0]],
        [[1, 0, 0], [0, 0, 0]],
    ],
    ids=["rows-out-of-order", "leading-entry-not-one", "entry-above-pivot", "zero-row"],
)
def test_subspace_basis_rejects_a_matrix_not_in_rref(rows):
    with pytest.raises(InputError, match="reduced row echelon form"):
        SubspaceBasis(F3, 3, rows)
    # a row whose length is not the ambient dimension, with or without pivots
    short = [*rows[:-1], rows[-1][:2]]
    with pytest.raises(InputError, match="length 3"):
        SubspaceBasis(F3, 3, short)
    with pytest.raises(InputError, match="length 3"):
        SubspaceBasis(F3, 3, short, range(len(short)))
    with pytest.raises(InputError, match="length 3"):
        SubspaceBasis.from_vectors(F3, short, 3)


def test_subspace_basis_reads_the_pivots_of_an_rref_matrix():
    rows = [[1, 2, 0, 1], [0, 0, 1, 2]]
    basis = SubspaceBasis(F3, 4, rows)
    assert basis.pivots == (0, 2)
    assert basis == SubspaceBasis.from_vectors(F3, rows, 4)


def test_mutual_containment_is_identity():
    rng = random.Random(3)
    for _ in range(30):
        d = rng.randrange(1, 4)
        v1 = [[rng.randrange(2) for _ in range(d)] for _ in range(rng.randrange(0, d + 1))]
        v2 = [[rng.randrange(2) for _ in range(d)] for _ in range(rng.randrange(0, d + 1))]
        a = SubspaceBasis.from_vectors(F2, v1, d)
        b = SubspaceBasis.from_vectors(F2, v2, d)
        both = a.contains(b) and b.contains(a)
        assert both == (a == b)


def test_enumerate_lines_of_f2_squared():
    # oracle: the three nonzero vectors of F_2^2 span three distinct lines
    assert len(brute_force_subspaces(2, 1, 2)) == 3
    spaces = list(_subspaces_cached(2, 1, F2.p))
    assert len(spaces) == 3
    assert set(spaces) == brute_force_subspaces(2, 1, 2)
    # deterministic order: pivot column 0 cells first, free entry odometer
    assert [s.rows for s in spaces] == [((1, 0),), ((1, 1),), ((0, 1),)]


def test_enumerate_zero_dimensional_subspace():
    spaces = list(_subspaces_cached(3, 0, 5))
    assert len(spaces) == 1
    assert spaces[0].dim == 0


def test_enumerate_planes_of_f2_cubed():
    assert len(brute_force_subspaces(3, 2, 2)) == 7
    spaces = list(_subspaces_cached(3, 2, F2.p))
    assert len(spaces) == 7
    assert set(spaces) == brute_force_subspaces(3, 2, 2)


def test_enumeration_counts_match_gaussian_binomial():
    for p in (2, 3):
        for d in range(5):
            for e in range(d + 1):
                assert len(_subspaces_cached(d, e, p)) == gaussian_binomial(d, e, p)


def test_enumeration_yields_canonical_distinct_spaces():
    for d, e, p in [(3, 1, 2), (3, 2, 2), (4, 2, 2), (3, 2, 3)]:
        spaces = _subspaces_cached(d, e, p)
        # RREF invariant: rebuilding from the rows reproduces the basis
        for s in spaces:
            assert SubspaceBasis.from_vectors(s.field, s.rows, s.ambient_dim) == s
        for i, a in enumerate(spaces):
            for b in spaces[i + 1 :]:
                assert not (a.contains(b) and b.contains(a))


def test_cells_are_sorted_distinct_counted_and_share_their_rows():
    # the contract of the cell cache, whatever builds it
    for p, max_d in ((2, 5), (3, 4)):
        for d in range(max_d + 1):
            for k in range(d + 1):
                cells = _subspaces_cached(d, k, p)
                assert list(cells) == sorted(cells, key=SubspaceBasis.sort_key), (p, d, k)
                assert len(set(cells)) == len(cells) == gaussian_binomial(d, k, p), (p, d, k)
                rows = [row for c in cells for row in c.rows]
                assert len({id(row) for row in rows}) == len(set(rows)), (p, d, k)


def test_subspaces_containing_is_the_filtered_enumeration():
    # every W and every dim >= dim W: the lifted cells of M/W must be the
    # cells of the full enumeration that contain W, in the same order
    cases = 0
    for p, max_d in ((2, 4), (3, 3)):
        for d in range(max_d + 1):
            for r in range(d + 1):
                for w in _subspaces_cached(d, r, p):
                    for k in range(r, d + 1):
                        want = [c for c in _subspaces_cached(d, k, p) if c.contains(w)]
                        got = subspaces_containing(d, k, p, w.rows, w.pivots)
                        assert got == want, (p, d, k, w)
                        assert [c.pivots for c in got] == [c.pivots for c in want]
                        cases += 1
    assert cases == 341


def test_subspaces_meeting_counts_the_enumerated_cells():
    # every K, every dim k and every i: count the k-cells U with
    # dim(U ∩ K) = i by rank, dim(U ∩ K) = k + dim K - dim(U + K)
    cases = 0
    for p, max_d in ((2, 4), (3, 3)):
        field = Field.prime(p)
        for d in range(max_d + 1):
            for m in range(d + 1):
                for sub in _subspaces_cached(d, m, p):
                    for k in range(d + 1):
                        meets = [0] * (k + 1)
                        for cell in _subspaces_cached(d, k, p):
                            rows = [*sub.rows, *cell.rows]
                            span = rref(Matrix.from_rows(field, rows)).rank if rows else 0
                            meets[k + m - span] += 1
                        for i in range(k + 1):
                            assert subspaces_meeting(d, k, m, i, p) == meets[i], (p, d, k, sub, i)
                            cases += 1
    assert cases == 1525
    assert subspaces_meeting(3, 1, 2, 2, 2) == 0
    with pytest.raises(InputError):
        subspaces_meeting(2, 3, 1, 0, 2)


def test_gaussian_binomial_values():
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(5, 0, 7) == 1
    assert gaussian_binomial(3, 1, 3) == 13  # (27 - 1) / (3 - 1)
    assert gaussian_binomial(4, 2, 3) == 130


def test_prime_field_inverse_table():
    for p in (2, 13, 65537):  # 65537 is past 2^16
        f = Field.prime(p)
        for a in range(1, p):
            assert (a * f.inv(a)) % p == 1
        assert f.inv(p + 1) == 1
        with pytest.raises(ZeroDivisionError):
            f.inv(p)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)
    with pytest.raises(InputError):
        Field.prime(6)


def test_field_equality_and_hash_read_the_modulus():
    assert Field.prime(5) == Field.prime(5)
    assert hash(Field.prime(5)) == hash(Field.prime(5))
    assert Field.prime(5) != Field.prime(7)
    assert QQ != Field.prime(2)
    assert QQ.is_rationals and not Field.prime(2).is_rationals
