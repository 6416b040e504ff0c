"""Hom/Ext computation, subrepresentation tests, quotients, field change."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from qgrass import (
    QQ,
    Field,
    HomExtResult,
    InputError,
    InternalCheckError,
    Matrix,
    Quiver,
    Representation,
    SubspaceBasis,
    census,
    direct_sum,
    enumerate_subreps,
    euler_form,
    hom_ext,
    is_rigid,
    is_subrep,
    reduce_mod_p,
    sub_quotient,
)
from conftest import CHILD_ENV, builtin_rep, rep_from_ints, twist

F2 = Field.prime(2)
F3 = Field.prime(3)


def kronecker_regular(field, n):
    quiver = Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    jordan = [[int(j == i + 1) for j in range(n)] for i in range(n)]
    return rep_from_ints(quiver, field, (n, n), {"a": ident, "b": jordan})


def kronecker_preprojective(field):
    quiver = Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    return rep_from_ints(quiver, field, (1, 2), {"a": [[1], [0]], "b": [[0], [1]]})


def a21_module(field, n):
    quiver = Quiver(["1", "2", "3"], [("a12", "1", "2"), ("a23", "2", "3"), ("a13", "1", "3")])
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    jordan = [[int(j == i + 1) for j in range(n)] for i in range(n)]
    return rep_from_ints(quiver, field, (n, n, n), {"a12": ident, "a23": jordan, "a13": ident})


def test_hom_ext_simple_module():
    quiver = Quiver(["1", "2"], [("a", "1", "2")])
    simple = rep_from_ints(quiver, QQ, (1, 0), {"a": []})
    assert hom_ext(simple, simple) == (1, 0)


def test_hom_ext_kronecker_regular_length_two():
    m = kronecker_regular(QQ, 2)
    he = hom_ext(m, m)
    assert (he.hom_dim, he.ext_dim) == (2, 2)


def test_hom_ext_kronecker_preprojective_is_rigid():
    p = kronecker_preprojective(QQ)
    assert hom_ext(p, p) == (1, 0)
    assert is_rigid(p)
    assert not is_rigid(kronecker_regular(QQ, 2))


def test_zero_representation_is_rigid(kronecker):
    zero = rep_from_ints(kronecker, QQ, (0, 0), {"a": [], "b": []})
    assert is_rigid(zero)
    assert hom_ext(zero, zero) == (0, 0)


def test_euler_identity_on_random_pairs(kronecker, a21):
    rng = random.Random(29)
    for quiver in (kronecker, a21):
        for field in (F2, F3):
            for _ in range(15):
                dims_m = tuple(rng.randrange(0, 3) for _ in quiver.vertices)
                dims_n = tuple(rng.randrange(0, 3) for _ in quiver.vertices)
                idx = quiver.vertex_index

                def rand_rep(dims):
                    mats = {}
                    for a in quiver.arrows:
                        r, c = dims[idx[a.target]], dims[idx[a.source]]
                        mats[a.name] = [[rng.randrange(field.p) for _ in range(c)] for _ in range(r)]
                    return rep_from_ints(quiver, field, dims, mats)

                m, n = rand_rep(dims_m), rand_rep(dims_n)
                he = hom_ext(m, n)
                # asserted inside hom_ext as well; restate the contract here
                assert he.hom_dim - he.ext_dim == euler_form(quiver, dims_m, dims_n)


def test_hom_ext_invariant_under_change_of_basis():
    rng = random.Random(31)
    m = kronecker_regular(F3, 2)
    base = hom_ext(m, m)

    def random_invertible(n):
        while True:
            rows = [[rng.randrange(3) for _ in range(n)] for _ in range(n)]
            mat = Matrix.from_rows(F3, rows)
            from qgrass import rref

            if rref(mat).rank == n:
                return rows

    for _ in range(5):
        g1 = random_invertible(2)
        g2 = random_invertible(2)
        g1m = Matrix.from_rows(F3, g1)
        g2m = Matrix.from_rows(F3, g2)
        from qgrass import rref as _r

        def invert(mat):
            n = mat.rows
            aug = Matrix.from_rows(
                F3, [mat.row(i) + [int(i == j) for j in range(n)] for i in range(n)]
            )
            red = _r(aug).matrix
            return Matrix.from_rows(F3, [[red.at(i, n + j) for j in range(n)] for i in range(n)])

        conj = {
            "a": g2m.mul(m.matrices["a"]).mul(invert(g1m)),
            "b": g2m.mul(m.matrices["b"]).mul(invert(g1m)),
        }
        twisted = Representation(m.quiver, F3, m.dims, conj)
        assert hom_ext(twisted, twisted) == base
        assert hom_ext(m, twisted) == base  # same isomorphism class


def test_is_subrep_trivial_cases():
    m = a21_module(F2, 3)
    full = tuple(SubspaceBasis.full(F2, 3) for _ in range(3))
    zero = tuple(SubspaceBasis.zero(F2, 3) for _ in range(3))
    assert is_subrep(m, full)
    assert is_subrep(m, zero)


def test_is_subrep_kernel_line():
    # the nilpotent map annihilates its kernel, so (0, ker, 0) is invariant
    m = a21_module(F2, 3)
    ker = SubspaceBasis.from_vectors(F2, [[1, 0, 0]], 3)
    spaces = (SubspaceBasis.zero(F2, 3), ker, SubspaceBasis.zero(F2, 3))
    assert is_subrep(m, spaces)
    off = SubspaceBasis.from_vectors(F2, [[0, 1, 0]], 3)
    assert not is_subrep(m, (SubspaceBasis.zero(F2, 3), off, SubspaceBasis.zero(F2, 3)))


def test_sub_quotient_trivial_cases():
    m = kronecker_regular(F2, 2)
    full = tuple(SubspaceBasis.full(F2, 2) for _ in range(2))
    zero = tuple(SubspaceBasis.zero(F2, 2) for _ in range(2))
    sub, quot = sub_quotient(m, full)
    assert sub.dims == m.dims and quot.dims == (0, 0)
    assert sub.matrices == m.matrices
    sub, quot = sub_quotient(m, zero)
    assert sub.dims == (0, 0) and quot.dims == m.dims
    assert quot.matrices == m.matrices


def test_sub_quotient_splits_regular_length_two():
    # eigenline at both vertices: sub and quotient both look like the
    # quasi-length-1 module (identity and zero 1x1 matrices)
    m = kronecker_regular(QQ, 2)
    line = SubspaceBasis.from_vectors(QQ, [[Fraction(1), Fraction(0)]], 2)
    sub, quot = sub_quotient(m, (line, line))
    assert sub.dims == (1, 1) and quot.dims == (1, 1)
    for rep in (sub, quot):
        assert rep.matrices["a"].entries == (Fraction(1),)
        assert rep.matrices["b"].entries == (Fraction(0),)


def _not_subreps():
    """Kronecker modules over F_2 with spaces that some arrow leaves."""
    m = kronecker_regular(F2, 2)
    yield m, (SubspaceBasis.from_vectors(F2, [[0, 1]], 2), SubspaceBasis.zero(F2, 2))
    # a = identity keeps the line e_1, b = the Jordan block sends it to e_0:
    # only the second arrow leaves the spaces
    line = SubspaceBasis.from_vectors(F2, [[0, 1]], 2)
    assert [a.name for a in m.quiver.arrows] == ["a", "b"]
    yield m, (line, line)
    # (F^2, <e_0>): a sends e_0, e_1 to e_0, 0 and b = identity keeps e_0, so
    # only the image of the second basis row under the second arrow leaves
    m = rep_from_ints(m.quiver, F2, (2, 2), {"a": [[1, 0], [0, 0]], "b": [[1, 0], [0, 1]]})
    yield m, (SubspaceBasis.full(F2, 2), SubspaceBasis.from_vectors(F2, [[1, 0]], 2))


def test_sub_quotient_requires_subrep():
    for m, spaces in _not_subreps():
        with pytest.raises(InputError, match="^the given spaces are not a subrepresentation$"):
            sub_quotient(m, spaces)
    first = SubspaceBasis.from_vectors(F2, [[1, 0]], 2)
    assert sub_quotient(m, (first, first))[0].dims == (1, 1)


def _walk_modules():
    """a21-ex3 and kronecker-reg:3 at q = 2, 3, each as built and twisted by a
    dense change of basis, so that quotient residuals are not 0/1."""
    for name in ("a21-ex3", "kronecker-reg:3"):
        _, rep = builtin_rep(name)
        for q in (2, 3):
            m = reduce_mod_p(rep, q)
            yield name, q, m
            yield f"{name} twisted", q, twist(m, seed=q)


def test_sub_quotient_blocks_satisfy_their_defining_identities():
    # in the basis of M_i made of N_i's RREF rows b and the unit vectors at
    # N_i's non-pivot columns, M_a is block upper triangular: the sub block S
    # writes M_a b_c in the rows of N_j, and the quotient block Q writes
    # M_a e_c modulo N_j in the unit vectors at N_j's non-pivot columns
    for name, q, m in _walk_modules():
        idx = m.quiver.vertex_index
        for point in enumerate_subreps(m):
            sub, quot = sub_quotient(m, point.spaces)
            for a in m.quiver.arrows:
                i, j = idx[a.source], idx[a.target]
                mat, ni, nj = m.matrices[a.name], point.spaces[i], point.spaces[j]
                s, qa = sub.matrices[a.name], quot.matrices[a.name]
                di, dj = m.dims[i], m.dims[j]
                free_i = [c for c in range(di) if c not in ni.pivots]
                free_j = [c for c in range(dj) if c not in nj.pivots]
                assert (s.rows, s.cols) == (nj.dim, ni.dim)
                assert (qa.rows, qa.cols) == (len(free_j), len(free_i))
                for c in range(ni.dim):
                    image = [sum(mat.at(t, k) * ni.matrix.at(c, k) for k in range(di)) % q for t in range(dj)]
                    combo = [sum(s.at(r, c) * nj.matrix.at(r, t) for r in range(nj.dim)) % q for t in range(dj)]
                    assert image == combo, (name, q, point.dim_vector, a.name, c)
                for c, col in enumerate(free_i):
                    residual = [mat.at(t, col) for t in range(dj)]
                    for r, t in enumerate(free_j):
                        residual[t] -= qa.at(r, c)
                    rows = nj.matrix.to_rows() + [[x % q for x in residual]]
                    span = SubspaceBasis.from_vectors(m.field, rows, dj)
                    assert span.dim == nj.dim, (name, q, point.dim_vector, a.name, col)


def test_sub_quotient_applies_m_once_per_basis_image(monkeypatch):
    # one product M_a b per row b of N_{s(a)}: membership and the sub block
    # read the same image, and the quotient block reads columns of M_a
    apply, calls = Matrix.apply, []

    def counted(self, vec):
        calls.append(len(vec))
        return apply(self, vec)

    monkeypatch.setattr(Matrix, "apply", counted)
    _, rep = builtin_rep("a21-ex3")
    for q in (2, 3):
        m = reduce_mod_p(rep, q)
        idx = m.quiver.vertex_index
        for point in enumerate_subreps(m):
            calls.clear()
            sub_quotient(m, point.spaces)
            expected = sum(point.dim_vector[idx[a.source]] for a in m.quiver.arrows)
            assert len(calls) == expected, (q, point.dim_vector)


def _assert_tangent_dims_match_oracle(m, label):
    # the census's hom and ext, read off the Delta it carries down the walk,
    # against the oracle at every point, on m as given and on two dense
    # twists of it
    for module in (m, twist(m, seed=1), twist(m, seed=2)):
        for entries in census(module).values():
            for entry in entries:
                fast = HomExtResult(entry.hom_dim, entry.ext_dim)
                assert fast == hom_ext(*sub_quotient(module, entry.point.spaces)), (label, entry.point)


@pytest.mark.parametrize("name", ["a21-ex3", "a21-ex1", "a21-ray:5", "kronecker-reg:3", "kronecker-preproj:2"])
def test_tangent_dims_match_sub_quotient_and_hom_ext(name):
    _, rep = builtin_rep(name)
    for q in (2, 3, 5):
        _assert_tangent_dims_match_oracle(reduce_mod_p(rep, q), (name, q))


def test_tangent_dims_match_sub_quotient_and_hom_ext_on_band_modules():
    # every built-in is a string module, on which a torus rescales each
    # arrow entry on its own, so negating a block of Delta keeps its rank
    # there.  Not on a21 modules in homogeneous tubes (R_t: a12 = a23 = 1,
    # a13 = t), as negating M/N's arrows sends R_t to R_-t: here R_1 + R_1[2]
    # and R_1 + R_-1 + R_1.  Their dense twists also see a sub block that
    # is transposed where it is square
    quiver = a21_module(F3, 1).quiver
    ident = [[int(i == j) for j in range(3)] for i in range(3)]
    for q in (3, 5):
        field = Field.prime(q)
        for a13 in ([[1, 0, 0], [0, 1, 1], [0, 0, 1]], [[1, 0, 0], [0, q - 1, 0], [0, 0, 1]]):
            m = rep_from_ints(quiver, field, (3, 3, 3), {"a12": ident, "a23": ident, "a13": a13})
            _assert_tangent_dims_match_oracle(m, (q, a13))


def test_reduce_mod_p():
    quiver = Quiver(["1", "2"], [("a", "1", "2")])
    m = Representation(
        quiver,
        QQ,
        (1, 1),
        {"a": Matrix(QQ, 1, 1, [Fraction(1, 2)])},
    )
    r3 = reduce_mod_p(m, 3)
    assert r3.matrices["a"].entries == (2,)  # 1/2 = 2 mod 3
    with pytest.raises(InputError, match="arrow 'a'"):
        reduce_mod_p(
            Representation(quiver, QQ, (1, 1), {"a": Matrix(QQ, 1, 1, [Fraction(1, 3)])}), 3
        )
    ints = rep_from_ints(quiver, QQ, (1, 1), {"a": [[5]]})
    assert reduce_mod_p(ints, 2).matrices["a"].entries == (1,)


def test_direct_sum_dims_and_additivity():
    m = kronecker_preprojective(QQ)
    r = kronecker_regular(QQ, 1)
    s = direct_sum(m, r)
    assert s.dims == (2, 3)
    zero = rep_from_ints(m.quiver, QQ, (0, 0), {"a": [], "b": []})
    assert direct_sum(m, zero).dims == m.dims
    # hom is additive in the first argument
    for target in (m, r):
        lhs = hom_ext(s, target)
        parts = (hom_ext(m, target), hom_ext(r, target))
        assert lhs.hom_dim == parts[0].hom_dim + parts[1].hom_dim
        assert lhs.ext_dim == parts[0].ext_dim + parts[1].ext_dim


def test_hom_dim_matches_literal_morphism_count():
    # independent oracle: |Hom(M, N)| over F_2 is 2^hom, counted by checking
    # the commuting-square condition on every tuple of matrices directly
    from itertools import product as iproduct

    rng = random.Random(37)
    quiver = Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    idx = quiver.vertex_index

    def rand_rep(dims):
        mats = {}
        for a in quiver.arrows:
            r, c = dims[idx[a.target]], dims[idx[a.source]]
            mats[a.name] = [[rng.randrange(2) for _ in range(c)] for _ in range(r)]
        return rep_from_ints(quiver, F2, dims, mats)

    def all_matrices(rows, cols):
        for bits in iproduct(range(2), repeat=rows * cols):
            yield Matrix(F2, rows, cols, bits)

    for _ in range(6):
        dims_m = (rng.randrange(0, 3), rng.randrange(0, 3))
        dims_n = (rng.randrange(0, 3), rng.randrange(0, 3))
        m, n = rand_rep(dims_m), rand_rep(dims_n)
        count = 0
        for f1 in all_matrices(dims_n[0], dims_m[0]):
            for f2 in all_matrices(dims_n[1], dims_m[1]):
                if all(
                    f2.mul(m.matrices[a.name]) == n.matrices[a.name].mul(f1)
                    for a in quiver.arrows
                ):
                    count += 1
        assert count == 2 ** hom_ext(m, n).hom_dim, (dims_m, dims_n)


def test_cross_field_consistency_of_hom_ext():
    # integer-matrix battery: dimensions agree over Q, F_2 and F_3
    for build in (lambda f: kronecker_regular(f, 2), lambda f: kronecker_regular(f, 3),
                  lambda f: a21_module(f, 2), lambda f: a21_module(f, 3),
                  kronecker_preprojective):
        over_q = build(QQ)
        expect = hom_ext(over_q, over_q)
        for p in (2, 3):
            rp = reduce_mod_p(over_q, p)
            assert hom_ext(rp, rp) == expect


def test_mismatched_inputs_raise(kronecker, a2):
    m = kronecker_regular(F2, 2)
    other = rep_from_ints(a2, F2, (1, 1), {"a": [[1]]})
    with pytest.raises(InputError):
        hom_ext(m, other)
    with pytest.raises(InputError, match="different fields"):
        hom_ext(m, kronecker_regular(F3, 2))
    with pytest.raises(InputError):
        direct_sum(m, kronecker_regular(F3, 2))


def test_euler_identity_violation_raises_internal_check(monkeypatch):
    import qgrass.reps

    monkeypatch.setattr(qgrass.reps, "euler_form", lambda quiver, d, e: 99)
    with pytest.raises(InternalCheckError, match="Euler form"):
        m = kronecker_regular(F2, 1)
        hom_ext(m, m)


def test_euler_identity_is_checked_under_optimize():
    # the invariant must not be an assert, which python -O strips
    import subprocess
    import sys

    script = (
        "import sys, qgrass.reps, qgrass.cli\n"
        "qgrass.reps.euler_form = lambda quiver, d, e: 99\n"
        "sys.exit(qgrass.cli.main(['census', '--builtin', 'kronecker-reg:1', '--q', '2']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert "internal check failed: InternalCheckError" in proc.stderr


def test_package_has_no_assert_statements():
    # python -O strips assert, so an invariant check written as one vanishes
    import ast
    import pathlib

    import qgrass

    found = []
    for path in sorted(pathlib.Path(qgrass.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert found == []


def test_package_imports_are_used():
    # an unused import is dead API surface; __init__.py re-exports through __all__
    import ast
    import pathlib

    import qgrass

    unused = []
    for path in sorted(pathlib.Path(qgrass.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        if path.name == "__init__.py":
            used |= set(qgrass.__all__)
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def test_package_has_one_cache():
    # linalg._subspaces_cached is the one piece of process-global state the
    # benchmark's load model names; any other memo is unmeasured traffic
    import ast
    import pathlib

    import qgrass

    cached = []
    for path in sorted(pathlib.Path(qgrass.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for deco in node.decorator_list:
                    target = deco.func if isinstance(deco, ast.Call) else deco
                    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                    if name in ("lru_cache", "cache"):
                        cached.append(f"{path.stem}.{node.name}")
    assert cached == ["linalg._subspaces_cached"]
