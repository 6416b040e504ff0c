"""Grassmannian enumeration, homological census, counting polynomials."""

from __future__ import annotations

import importlib
import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qgrass import (
    CountNotPolynomialError,
    CountingPolynomial,
    Field,
    HomExtResult,
    InputError,
    InternalCheckError,
    Matrix,
    Quiver,
    Representation,
    SubrepPoint,
    SubspaceBasis,
    all_dim_vectors,
    brute_force_subreps,
    census,
    compare_transverse_loci,
    counting_polynomials,
    enumerate_subreps,
    euler_form,
    gaussian_binomial,
    hom_ext,
    is_rigid,
    is_subrep,
    kernel_basis,
    parse_document,
    point_counts,
    reduce_mod_p,
    rref,
    sub_quotient,
)
from conftest import BATTERY, CHILD_ENV, builtin_rep, dual, rep_from_ints, twist

BAND = Path(__file__).with_name("inputs") / "a21-band-2.json"

F2 = Field.prime(2)


def modp(name, p):
    quiver, rep = builtin_rep(name)
    return quiver, reduce_mod_p(rep, p)


def test_example1_slice_is_projective_line():
    # dims (3,3,3), e = (0,2,1): a P^1 worth of points, so q + 1 of them
    for q in (2, 3):
        _, rep = modp("a21-ex1", q)
        points = enumerate_subreps(rep, (0, 2, 1))
        assert len(points) == q + 1
        for point in points:
            assert is_subrep(rep, point.spaces)


def test_example1_every_point_has_one_dimensional_ext():
    quiver, rep = modp("a21-ex1", 2)
    entries = census(rep, (0, 2, 1))[(0, 2, 1)]
    assert len(entries) == 3
    assert all(e.ext_dim == 1 and e.hom_dim == 1 for e in entries)
    assert euler_form(quiver, (0, 2, 1), (3, 1, 2)) == 0


def test_zero_dim_vector_gives_single_zero_point():
    _, rep = modp("a21-ex1", 2)
    points = enumerate_subreps(rep, (0, 0, 0))
    assert len(points) == 1
    assert all(s.dim == 0 for s in points[0].spaces)


def test_example2_unique_point_with_ext():
    # the only (1,1)-subrepresentation is the eigenline of the nilpotent map
    for q in (2, 3, 5):
        _, rep = modp("kronecker-reg:2", q)
        points = enumerate_subreps(rep, (1, 1))
        assert len(points) == 1
        eigen = SubspaceBasis.from_vectors(rep.field, [[1, 0]], 2)
        assert points[0].spaces == (eigen, eigen)
        entry = census(rep, (1, 1))[(1, 1)][0]
        assert entry.ext_dim == 1


def test_example3_census_counts_and_singular_point():
    for q in (2, 3):
        _, rep = modp("a21-ex3", q)
        entries = census(rep, (0, 1, 1))[(0, 1, 1)]
        assert len(entries) == 2 * q + 1
        singular = [e for e in entries if e.ext_dim == 1]
        smooth = [e for e in entries if e.ext_dim == 0]
        assert len(singular) == 1 and len(smooth) == 2 * q
        assert singular[0].hom_dim == 2
        assert all(e.hom_dim == 1 for e in smooth)
        # the singular point is the intersection of the two component families
        eigen = SubspaceBasis.from_vectors(rep.field, [[1, 0]], 2)
        assert singular[0].point.spaces[1] == eigen
        assert singular[0].point.spaces[2] == eigen


def test_full_dim_vector_is_single_transverse_point():
    _, rep = modp("a21-ex3", 2)
    entries = census(rep, rep.dims)[rep.dims]
    assert len(entries) == 1
    assert entries[0].ext_dim == 0


def test_enumerate_matches_brute_force_on_guarded_fixtures():
    cases = [
        ("a21-ex3", 2), ("a21-ex3", 3),
        ("kronecker-reg:2", 2), ("kronecker-reg:2", 3),
        ("kronecker-reg:1", 2),
        ("a21-ray:3", 2), ("a21-ray:3", 3),
        ("kronecker-preproj:1", 2),
        ("kronecker-preproj:2", 2),
    ]
    for name, q in cases:
        _, rep = modp(name, q)
        for e in all_dim_vectors(rep.dims):
            fast = set(enumerate_subreps(rep, e))
            slow = set(brute_force_subreps(rep, e))
            assert fast == slow, (name, q, e)


def test_brute_force_guard():
    _, rep = modp("a21-ex1", 2)  # total dimension 9 exceeds the guard
    with pytest.raises(InputError):
        brute_force_subreps(rep, (0, 0, 0))
    _, rep = modp("kronecker-reg:2", 5)
    with pytest.raises(InputError):
        brute_force_subreps(rep, (1, 1))


def test_rigid_preprojective_line_census():
    _, rep = modp("kronecker-preproj:1", 2)
    assert is_rigid(rep)
    report = census(rep, (0, 1))
    assert len(report[(0, 1)]) == 3
    assert all(x.ext_dim == 0 for x in report[(0, 1)])


def test_preprojective_has_no_diagonal_point():
    # both arrow images together span the whole plane, so no (1,1) point
    _, rep = modp("kronecker-preproj:1", 2)
    assert enumerate_subreps(rep, (1, 1)) == []


def test_census_totals_and_extreme_points():
    for name in BATTERY:
        _, rep = modp(name, 2)
        report = census(rep)
        zero = (0,) * rep.quiver.n
        assert len(report[zero]) == 1
        assert len(report[rep.dims]) == 1
        assert report[zero][0].ext_dim == 0
        assert report[rep.dims][0].ext_dim == 0
        assert list(report) == all_dim_vectors(rep.dims)


def test_tangent_dim_bounds():
    # tangent dimension (hom) never drops below <e, d-e>
    for name in BATTERY:
        quiver, rep = modp(name, 2)
        report = census(rep)
        for e, entries in report.items():
            lower = euler_form(quiver, e, tuple(d - x for d, x in zip(rep.dims, e)))
            for entry in entries:
                assert entry.hom_dim >= lower
                assert (entry.hom_dim == lower) == (entry.ext_dim == 0)


def test_rigid_modules_are_everywhere_transverse():
    for name, q in [("kronecker-preproj:1", 2), ("kronecker-preproj:1", 3),
                    ("kronecker-preproj:2", 2)]:
        _, rep = modp(name, q)
        assert is_rigid(rep)
        report = census(rep)
        assert all(x.ext_dim == 0 for entries in report.values() for x in entries)


def test_enumeration_is_deterministic():
    _, rep = modp("a21-ex3", 2)
    first = [p.sort_key() for p in enumerate_subreps(rep, (0, 1, 1))]
    second = [p.sort_key() for p in enumerate_subreps(rep, (0, 1, 1))]
    assert first == second


def test_enumerate_rejects_out_of_range():
    _, rep = modp("kronecker-reg:2", 2)
    with pytest.raises(InputError):
        enumerate_subreps(rep, (3, 0))


@pytest.mark.parametrize(
    "name, q",
    [(name, q) for name in [*BATTERY, "kronecker-preproj:1"] for q in (2, 3)]
    + [("a21-ex1", 5), ("a21-ray:7", 3)],
)
def test_point_counts_match_enumeration(name, q):
    # the count-only walk against the enumerating one, and the walk over
    # every e against the walk over one e, slice by slice
    _, rep = modp(name, q)
    counts = point_counts(rep)
    assert list(counts) == all_dim_vectors(rep.dims)
    points = enumerate_subreps(rep)
    order = [rep.quiver.vertex_index[v] for v in rep.quiver.topological_order]
    assert points == sorted(points, key=lambda pt: [pt.spaces[j].sort_key() for j in order])
    slices = {e: [] for e in counts}
    for point in points:
        slices[point.dim_vector].append(point)
    for e, count in counts.items():
        assert slices[e] == enumerate_subreps(rep, e), e
        assert count == len(slices[e]), e
        assert point_counts(rep, e) == {e: count}


@pytest.mark.parametrize("name", BATTERY)
def test_census_tally_is_independent_of_coordinates(name):
    # P M P^-1 is isomorphic to M, so each Gr_e has as many points with each
    # (hom, ext); the twist's dense matrices leave quotient residuals off 0/1
    for q in (2, 3):
        _, rep = modp(name, q)
        for seed in (1, 2):
            plain, dense = census(rep), census(twist(rep, seed))
            assert list(plain) == list(dense)
            for e in plain:
                tally = [sorted((x.hom_dim, x.ext_dim) for x in r[e]) for r in (plain, dense)]
                assert tally[0] == tally[1], (name, q, seed, e)


def test_walk_over_every_e_lists_only_children_that_contain_w(monkeypatch):
    # a node of the walk is a prefix of some point (extend it by the full
    # spaces), and it iterates the k-subspaces of M_j containing W for each
    # k >= r = dim W: gaussian_binomial(d_j - r, k - r) children, each one
    # call of _subreps_from one position down.  Equal W recur at a vertex,
    # and subspaces_containing lists each distinct (vertex, k, W) once
    module = importlib.import_module("qgrass.census")
    listing, recurse, listed, visits = module.subspaces_containing, module._subreps_from, [], []

    def counted_listing(d, k, p, w_rows, w_pivots):
        listed.append(1)
        return listing(d, k, p, w_rows, w_pivots)

    def counted_visit(pos, *args):
        visits.append(pos)
        return recurse(pos, *args)

    monkeypatch.setattr(module, "subspaces_containing", counted_listing)
    monkeypatch.setattr(module, "_subreps_from", counted_visit)
    for name, q in (("a21-ray:3", 3), ("kronecker-reg:2", 2), ("kronecker-preproj:2", 2)):
        _, rep = modp(name, q)
        listed.clear()
        visits.clear()
        points = enumerate_subreps(rep)
        quiver, idx = rep.quiver, rep.quiver.vertex_index
        expected, distinct = [1] + [0] * quiver.n, set()  # the first call is the root's
        for pos, v in enumerate(quiver.topological_order):
            before = [idx[u] for u in quiver.topological_order[:pos]]
            j, d = idx[v], rep.dims[idx[v]]
            for prefix in {tuple(pt.spaces[i] for i in before) for pt in points}:
                chosen = dict(zip(before, prefix))
                images = [
                    rep.matrices[a.name].apply(row)
                    for a in quiver.arrows_into(v)
                    for row in chosen[idx[a.source]].rows
                ]
                w = SubspaceBasis.from_vectors(rep.field, images, d)
                for k in range(w.dim, d + 1):
                    expected[pos + 1] += gaussian_binomial(d - w.dim, k - w.dim, q)
                    distinct.add((j, k, w.rows))
        assert [visits.count(pos) for pos in range(quiver.n + 1)] == expected, (name, q)
        assert len(listed) == len(distinct) < sum(expected), (name, q)


def test_walk_and_replay_apply_each_arrow_once_per_space(monkeypatch):
    # the images of N_i's rows under M_a are computed once per (arrow,
    # distinct space at its source), since the walk interns its spaces,
    # except at order[1]: its in-arrows come from the root, and a root
    # space's images are read there at one node without the memo, so they
    # are computed once per root node.  census hands the walk the memo its
    # replay reads, so the replay computes only the images at order[1],
    # once per root node, and its other applies are the oracle's, in
    # sub_quotient
    module = importlib.import_module("qgrass.census")
    real, split, walk = Matrix.apply, module.sub_quotient, module._walk
    applied, inside, memos = [], [], []

    def counted_apply(self, vec):
        applied.append(1)
        return real(self, vec)

    def counted_split(m, spaces):
        before = len(applied)
        out = split(m, spaces)
        inside.append(len(applied) - before)
        return out

    def kept_memo(m, plan, images):
        memos.append(images)
        return walk(m, plan, images)

    # every arrow of kronecker-reg:3 goes into order[1]; a21-ray:5 has one
    # from the root past it and one between the later vertices
    for name, q in (("kronecker-reg:3", 3), ("a21-ray:5", 3)):
        _, rep = modp(name, q)
        monkeypatch.setattr(Matrix, "apply", counted_apply)
        monkeypatch.setattr(module, "sub_quotient", counted_split)
        monkeypatch.setattr(module, "_walk", kept_memo)
        points = enumerate_subreps(rep)
        walked = len(applied)
        report = census(rep)
        replay = len(applied) - 2 * walked - sum(inside)  # census walks the tree too
        monkeypatch.undo()
        applied.clear()
        inside.clear()
        quiver, idx = rep.quiver, rep.quiver.vertex_index
        root, first = (idx[v] for v in quiver.topological_order[:2])
        # the points below one root node are consecutive
        root_nodes = [
            pt.spaces[root] for n, pt in enumerate(points) if not n or pt.spaces[root] is not points[n - 1].spaces[root]
        ]
        # every node of a walk over every e is above a point, so the census's
        # points hold every space the walk read an image of
        listed = [entry.point for entries in report.values() for entry in entries]
        expected, at_first, sources = 0, 0, {}
        for a in quiver.arrows:
            i, mat = idx[a.source], rep.matrices[a.name]
            if idx[a.target] == first:
                at_first += sum(space.dim for space in root_nodes)
                continue
            spaces = {id(pt.spaces[i]): pt.spaces[i] for pt in points}.values()
            expected += sum(space.dim for space in spaces)
            sources.update(((id(mat), id(pt.spaces[i])), (mat, pt.spaces[i])) for pt in listed)
        assert at_first and (walked, replay) == (expected + at_first, at_first), (name, q)
        # the walk's memo, read by the replay, is census's one memo: after
        # census it holds one entry per (arrow into a position >= 2,
        # distinct source space), and none for the arrows into order[1]
        assert len(memos) == 2 and set(memos[1]) == set(sources), (name, q)
        # and _required_span, which reduces the memo's rows, left them as
        # the images are
        for key, rows in memos[1].items():
            mat, space = sources[key]
            assert [list(v) for v in rows] == [real(mat, row) for row in space.rows], (name, q)
        memos.clear()


def test_points_of_one_walk_share_equal_spaces():
    # listed children are fresh objects; the walk keeps one per distinct space
    for name, q in (("a21-ray:5", 3), ("kronecker-reg:3", 2)):
        _, rep = modp(name, q)
        spaces = [s for pt in enumerate_subreps(rep) for s in pt.spaces]
        keys = {(s.ambient_dim, s.rows) for s in spaces}
        assert len({id(s) for s in spaces}) == len(keys), (name, q)


# The vertex before the sink is counted in closed form when it has at most
# one arrow into the sink, and its children are listed when it has two:
# Kronecker (two arrows, W = 0), the affine A~_{2,1} quiver (one arrow, A != 0),
# a quiver whose vertex 3 has two in-arrows, so the walk lifts cells of
# M_3 / W with W a sum of images (one arrow, A = 0), 1 -> 2, 1 -> 3 (no arrow,
# A != 0) and 1 -> 2, 2 => 3 (two arrows, W != 0)
RANDOM_QUIVERS = [
    Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")]),
    Quiver(["1", "2", "3"], [("a12", "1", "2"), ("a23", "2", "3"), ("a13", "1", "3")]),
    Quiver(["1", "2", "3", "4"], [("a", "1", "3"), ("b", "2", "3"), ("c", "3", "4")]),
    Quiver(["1", "2", "3"], [("a12", "1", "2"), ("a13", "1", "3")]),
    Quiver(["1", "2", "3"], [("a12", "1", "2"), ("b", "2", "3"), ("c", "2", "3")]),
]


def test_random_quivers_draw_every_case_before_the_sink():
    arrows_before_sink = []
    for quiver in RANDOM_QUIVERS:
        order = quiver.topological_order
        assert order == quiver.vertices
        before, sink = order[-2:]
        arrows_before_sink.append(sum(a.source == before for a in quiver.arrows_into(sink)))
    assert arrows_before_sink == [2, 1, 1, 0, 2]


@st.composite
def small_reps(draw):
    quiver = draw(st.sampled_from(RANDOM_QUIVERS))
    q = draw(st.sampled_from((2, 3)))
    # at most 3 per vertex keeps brute_force_subreps fast; 8 is its guard
    dims = draw(
        st.lists(st.integers(0, 3), min_size=quiver.n, max_size=quiver.n).filter(
            lambda d: sum(d) <= 8
        )
    )
    idx = quiver.vertex_index
    matrices = {}
    for a in quiver.arrows:
        rows, cols = dims[idx[a.target]], dims[idx[a.source]]
        row = st.lists(st.integers(0, q - 1), min_size=cols, max_size=cols)
        matrices[a.name] = draw(st.lists(row, min_size=rows, max_size=rows))
    return rep_from_ints(quiver, Field.prime(q), dims, matrices)


RANDOM_EXAMPLES = [
    # V_2 free to meet the kernel or not, with A != 0 and with two arrows
    rep_from_ints(RANDOM_QUIVERS[3], Field.prime(3), (2, 2, 2), {
        "a12": [[1, 0], [0, 0]], "a13": [[1, 1], [0, 1]],
    }),
    rep_from_ints(RANDOM_QUIVERS[4], F2, (1, 2, 2), {
        "a12": [[1], [0]], "b": [[1, 0], [0, 1]], "c": [[0, 1], [0, 0]],
    }),
]


def on_random_reps(test):
    """Run test on 60 derandomized small_reps draws and on RANDOM_EXAMPLES."""
    for rep in reversed(RANDOM_EXAMPLES):
        test = example(rep)(test)
    return settings(max_examples=60, derandomize=True, database=None, deadline=None)(
        given(small_reps())(test)
    )


@on_random_reps
def test_point_counts_match_brute_force_on_random_representations(m):
    slices = {}
    for point in enumerate_subreps(m):
        slices.setdefault(point.dim_vector, []).append(point)
    for e, count in point_counts(m).items():
        slow = brute_force_subreps(m, e)
        assert count == len(slow), (m.dims, e)
        by_key = SubrepPoint.sort_key
        assert sorted(slices.get(e, []), key=by_key) == sorted(slow, key=by_key), (m.dims, e)


@on_random_reps
def test_tangent_dims_match_sub_quotient_and_hom_ext_on_random_representations(m):
    # the census's hom and ext, read off the Delta it carries down the walk,
    # against the oracle at every point
    for entries in census(m).values():
        for entry in entries:
            fast = HomExtResult(entry.hom_dim, entry.ext_dim)
            assert fast == hom_ext(*sub_quotient(m, entry.point.spaces)), (m.dims, entry.point.dim_vector)


def test_census_on_quivers_listed_out_of_topological_order():
    # Delta's blocks follow the topological order while every f_v is found
    # by vertex index, so the census must not assume the vertex list is
    # topologically sorted
    rng = random.Random(5)
    shapes = [
        (["3", "1", "2"], [("a12", "1", "2"), ("a23", "2", "3"), ("a13", "1", "3")]),
        (["4", "3", "2", "1"], [("a", "1", "3"), ("b", "2", "3"), ("c", "3", "4")]),
        (["c", "a", "b"], [("x", "b", "a"), ("y", "a", "c"), ("z", "b", "c")]),
    ]
    for vertices, arrows in shapes:
        quiver = Quiver(vertices, arrows)
        assert list(quiver.topological_order) != vertices
        idx = quiver.vertex_index
        for q in (2, 3):
            for _ in range(4):
                dims = [rng.randint(1, 3) for _ in vertices]
                matrices = {
                    name: [[rng.randrange(q) for _ in range(dims[idx[s]])] for _ in range(dims[idx[t]])]
                    for name, s, t in arrows
                }
                m = rep_from_ints(quiver, Field.prime(q), dims, matrices)
                for entries in census(m).values():
                    for entry in entries:
                        fast = HomExtResult(entry.hom_dim, entry.ext_dim)
                        assert fast == hom_ext(*sub_quotient(m, entry.point.spaces)), (vertices, dims, entry.point)


def test_echelon_rows_are_added_and_undone_as_the_walk_does():
    # the census adds Delta's rows depth by depth, each depth's rows at least
    # as wide as the last, and removes a depth's pivots on backtrack: the
    # rank must be rref's at every depth, and each undo restores the state
    module = importlib.import_module("qgrass.census")
    rng = random.Random(13)
    for p in (2, 3, 5, 7):
        field = Field.prime(p)
        for _ in range(40):
            echelon, width, written, path = {}, 0, [], []
            for _ in range(rng.randint(1, 4)):
                width += rng.randint(0, 4)
                batch = [[rng.randrange(p) if rng.random() < 0.5 else 0 for _ in range(width)]
                         for _ in range(rng.randint(0, 4))]
                if written and batch:  # a row that depends on earlier ones
                    g, old = rng.randrange(1, p), written[-1] + [0] * (width - len(written[-1]))
                    batch.append([(g * x + y) % p for x, y in zip(old, batch[0])])
                before = dict(echelon)
                path.append((before, module._reduce_into(echelon, [list(row) for row in batch], p)))
                written = [row + [0] * (width - len(row)) for row in written + batch]
                expected = rref(Matrix.from_rows(field, written)).rank if written and width else 0
                assert len(echelon) == expected, (p, width, written)
            for before, added in reversed(path):
                for c in added:
                    del echelon[c]
                assert echelon == before


def test_census_walks_the_subrepresentation_tree_once(monkeypatch):
    # one call of the listing walk per census call; Delta is replayed
    # along its list
    module = importlib.import_module("qgrass.census")
    walk, calls = module._walk, []

    def counted(m, plan, images):
        calls.append(plan[0])  # the walk's targets
        return walk(m, plan, images)

    monkeypatch.setattr(module, "_walk", counted)
    _, rep = modp("a21-ex3", 3)
    full = census(rep)
    assert calls == [all_dim_vectors(rep.dims)]
    assert list(full) == all_dim_vectors(rep.dims)
    for e in all_dim_vectors(rep.dims):
        one = census(rep, e)
        assert list(one) == [e]
        assert [(x.point, x.hom_dim, x.ext_dim) for x in one[e]] == [
            (x.point, x.hom_dim, x.ext_dim) for x in full[e]
        ], e
    assert calls == [all_dim_vectors(rep.dims), *([e] for e in all_dim_vectors(rep.dims))]


def test_census_writes_delta_rows_once_per_tree_node(monkeypatch):
    # a replay that rebuilt every position at every point would give the
    # same census, so count the Delta steps: one per tree node above a
    # point, that is one per distinct nonempty prefix of the listed points
    # along the topological order
    module = importlib.import_module("qgrass.census")
    real, calls = module._delta_rows, []

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(module, "_delta_rows", counted)
    rng = random.Random(7)
    # the third quiver of test_census_on_quivers_listed_out_of_topological_order
    arrows = [("x", "b", "a"), ("y", "a", "c"), ("z", "b", "c")]
    quiver, dims = Quiver(["c", "a", "b"], arrows), [2, 2, 3]
    idx = quiver.vertex_index
    matrices = {
        name: [[rng.randrange(3) for _ in range(dims[idx[s]])] for _ in range(dims[idx[t]])]
        for name, s, t in arrows
    }
    reps = [
        modp("a21-ex3", 3)[1],
        modp("kronecker-reg:3", 2)[1],
        rep_from_ints(quiver, Field.prime(3), dims, matrices),
    ]
    for m in reps:
        order = [m.quiver.vertex_index[v] for v in m.quiver.topological_order]
        prefixes = {
            tuple(point.spaces[j] for j in order[:k])
            for point in enumerate_subreps(m)
            for k in range(1, len(order) + 1)
        }
        calls.clear()
        census(m)
        assert len(calls) == len(prefixes), m.dims


def test_census_checks_tangent_dims_against_hom_ext(monkeypatch):
    # an oracle one off at every point must stop the census at its first slice
    module = importlib.import_module("qgrass.census")
    real = module.hom_ext

    def off_by_one(n, quot):
        hom, ext = real(n, quot)
        return HomExtResult(hom + 1, ext + 1)

    monkeypatch.setattr(module, "hom_ext", off_by_one)
    _, rep = modp("kronecker-reg:1", 2)
    with pytest.raises(InternalCheckError, match=r"tangent data disagrees with hom_ext at e = \(0, 0\)"):
        census(rep)


def test_census_check_of_tangent_dims_survives_optimize():
    # the per-slice check must not be an assert, which python -O strips
    import subprocess
    import sys

    script = (
        "import importlib, sys, qgrass.cli\n"
        "module = importlib.import_module('qgrass.census')\n"
        "real = module.hom_ext\n"
        "module.hom_ext = lambda n, quot: qgrass.HomExtResult(*(x + 1 for x in real(n, quot)))\n"
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
    assert "tangent data disagrees with hom_ext at e = (0, 0)" in proc.stderr


def test_census_builds_modules_only_to_check_one_point_per_slice(monkeypatch):
    # the census's Delta builds no Representation; sub_quotient builds N and
    # M/N at the first point of each nonempty slice, for the check
    module = importlib.import_module("qgrass.census")
    split, init = module.sub_quotient, Representation.__init__
    splits, inits = [], []

    def counted_split(m, spaces):
        splits.append(1)
        return split(m, spaces)

    def counted_init(self, *args, **kwargs):
        inits.append(1)
        init(self, *args, **kwargs)

    _, rep = modp("a21-ex3", 3)
    monkeypatch.setattr(module, "sub_quotient", counted_split)
    monkeypatch.setattr(Representation, "__init__", counted_init)
    report = census(rep)
    nonempty = sum(1 for entries in report.values() if entries)
    assert nonempty == 13 and sum(len(entries) for entries in report.values()) > 13
    assert (len(splits), len(inits)) == (nonempty, 2 * nonempty)


def test_closed_form_count_checks_its_subspace_total(monkeypatch):
    # the ways over every intersection dimension must add up to the number
    # of children the walk would list; a wrong count is an internal error
    module = importlib.import_module("qgrass.census")
    monkeypatch.setattr(module, "subspaces_meeting", lambda d, e, m, i, q: 1)
    _, rep = modp("a21-ex1", 2)
    with pytest.raises(InternalCheckError, match="closed-form count at vertex"):
        point_counts(rep)


def test_closed_form_check_survives_optimize():
    # the subspace-total check must not be an assert, which python -O strips
    import subprocess
    import sys

    script = (
        "import importlib, sys, qgrass.cli\n"
        "module = importlib.import_module('qgrass.census')\n"
        "module.subspaces_meeting = lambda d, e, m, i, q: 1\n"
        "sys.exit(qgrass.cli.main(['chi', '--builtin', 'a21-ex1', '--q', '2,3']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert "closed-form count at vertex" in proc.stderr


def _rank_of(field, rows):
    return rref(Matrix.from_rows(field, rows)).rank if rows else 0


@pytest.mark.parametrize(
    "rep",
    [pytest.param(modp(name, 3)[1], id=name) for name in ("a21-ex1", "a21-ray:7")]
    + [pytest.param(RANDOM_EXAMPLES[0], id="random-example-0")],
)
def test_closed_form_runs_once_per_rank_tuple(monkeypatch, rep):
    # the last two vertices' closed form depends on a root node only through
    # (r, dim A, rank f, dim(W ∩ K)), recomputed here from the chosen spaces
    # with rref; subspaces_meeting runs once per i and k >= r of each
    # distinct tuple, and the memo holds one entry per tuple.  In the random
    # example two tuples differ only in dim A
    module = importlib.import_module("qgrass.census")
    real_last_two, real_meeting = module._count_last_two, module.subspaces_meeting
    keys, memos, meeting = [], set(), []

    def keyed(m, j, sink, in_arrows, ranges, chosen, e, counts, w_rows, into_sink, b_cols, memo):
        field = m.field

        def images(target, keep):
            return [mat.apply(row) for i, mat in in_arrows[target] if keep(i) for row in chosen[i].rows]

        w, a_rows = images(j, lambda i: True), images(sink, lambda i: i != j)
        r, a = _rank_of(field, w), _rank_of(field, a_rows)
        rank_f = f_of_w = 0
        if into_sink:
            (b,) = into_sink
            units = [[int(c == t) for t in range(b.cols)] for c in range(b.cols)]
            rank_f = _rank_of(field, a_rows + [b.apply(u) for u in units]) - a
            f_of_w = _rank_of(field, a_rows + [b.apply(v) for v in w]) - a
        keys.append((r, a, rank_f, r - f_of_w))
        memos.add(id(memo))
        real_last_two(m, j, sink, in_arrows, ranges, chosen, e, counts, w_rows, into_sink, b_cols, memo)
        assert len(memo) == len(set(keys))

    def counted_meeting(*args):
        meeting.append(args)
        return real_meeting(*args)

    expected = point_counts(rep)
    monkeypatch.setattr(module, "_count_last_two", keyed)
    monkeypatch.setattr(module, "subspaces_meeting", counted_meeting)
    assert point_counts(rep) == expected
    j = rep.quiver.vertex_index[rep.quiver.topological_order[-2]]
    distinct = set(keys)
    assert len(memos) == 1 and len(keys) > len(distinct), rep.dims
    assert len(meeting) == sum(k - r + 1 for r, *_ in distinct for k in range(r, rep.dims[j] + 1)), rep.dims


@pytest.mark.parametrize("name", BATTERY)
def test_point_counts_are_independent_of_coordinates(name):
    # P M P^-1 is isomorphic to M, so each slice has as many points; the
    # twist reaches the closed form's rank tuples from dense spaces and images
    for q in (3, 5):
        _, rep = modp(name, q)
        assert point_counts(twist(rep, 1)) == point_counts(rep), (name, q)


def test_census_module_is_reached_through_import_module():
    # the package binds the function census over the submodule's name
    import qgrass

    assert importlib.import_module("qgrass.census").point_counts is qgrass.point_counts
    assert qgrass.census is importlib.import_module("qgrass.census").census


def test_point_counts_of_the_empty_quiver():
    rep = Representation(Quiver([], []), F2, (), {})
    assert len(enumerate_subreps(rep, ())) == 1
    assert point_counts(rep) == point_counts(rep, ()) == {(): 1}


def test_point_counts_rejects_what_enumeration_rejects():
    _, rep = modp("kronecker-reg:2", 2)
    _, rational = builtin_rep("kronecker-reg:2")
    for m, e in ((rep, (3, 0)), (rep, (0, -1)), (rational, (1, 1))):
        with pytest.raises(InputError) as expected:
            enumerate_subreps(m, e)
        with pytest.raises(InputError, match=f"^{re.escape(str(expected.value))}$"):
            point_counts(m, e)
    with pytest.raises(InputError, match="needs a finite field"):
        point_counts(rational)


def test_point_counts_respect_duality():
    # independent invariant: transposing all matrices and reversing all
    # arrows turns e-dimensional subrepresentations into (d-e)-dimensional
    # ones (annihilator by vertex), so the slice counts must mirror
    for name in ("a21-ex3", "kronecker-reg:2", "kronecker-preproj:1"):
        for q in (2, 3):
            _, rep = modp(name, q)
            op_rep = dual(rep)
            for e in all_dim_vectors(rep.dims):
                mirror = tuple(d - x for d, x in zip(rep.dims, e))
                assert len(enumerate_subreps(rep, e)) == len(
                    enumerate_subreps(op_rep, mirror)
                ), (name, q, e)


@pytest.mark.parametrize("name", [*BATTERY, pytest.param(BAND, id="a21-band-2")])
def test_census_is_pointwise_dual(name):
    if name == BAND:
        _, rep = parse_document(json.loads(BAND.read_text()))
        rep = reduce_mod_p(rep, 3)
    else:
        _, rep = modp(name, 3)
    assert_census_is_pointwise_dual(rep)


@on_random_reps
def test_census_is_pointwise_dual_on_random_representations(m):
    assert_census_is_pointwise_dual(m)


def assert_census_is_pointwise_dual(rep):
    # N -> N^perp, the annihilator at every vertex, maps Gr_e(M) onto
    # Gr_(d-e)(DM), and Hom and Ext^1(N^perp, DM/N^perp) = (D(M/N), DN) are
    # those of (N, M/N).  DM walks the topological order in reverse, so
    # its arrows out of the root, and with them the images its replay
    # reads from the walk's memo, are other arrows than M's
    field = rep.field

    def key(spaces):
        return tuple((s.ambient_dim, s.rows) for s in spaces)

    def annihilator(s):
        kernel = kernel_basis(Matrix(field, s.dim, s.ambient_dim, sum(s.rows, ())))
        return SubspaceBasis.from_vectors(field, kernel.to_rows(), s.ambient_dim)

    mirror = {key(x.point.spaces): (x.hom_dim, x.ext_dim) for xs in census(dual(rep)).values() for x in xs}
    seen = 0
    for e, entries in census(rep).items():
        for x in entries:
            perp = [annihilator(s) for s in x.point.spaces]
            assert tuple(s.dim for s in perp) == tuple(d - k for d, k in zip(rep.dims, e))
            assert mirror[key(perp)] == (x.hom_dim, x.ext_dim), (rep.dims, e)
            seen += 1
    assert seen == len(mirror), rep.dims


PINNED_TUBES = {"a21-ray:3": (2, 3, 1, 1), BAND: (1, 2, 2, 0)}


@pytest.mark.parametrize("name", [*BATTERY, pytest.param(BAND, id="a21-band-2")])
def test_check_is_dual(name):
    # DM lies in a tube of the same rank, at the same quasi-length and
    # window, and N -> N^perp carries each locus of M at e onto DM's at
    # d - e; DM's tube pipeline runs in the reverse topological order
    _, rep = parse_document(json.loads(BAND.read_text())) if name == BAND else builtin_rep(name)
    ours, theirs = compare_transverse_loci(rep, [3]), compare_transverse_loci(dual(rep), [3])
    assert ours.verdict and theirs.verdict and not ours.counterexamples and not theirs.counterexamples, name
    (fc,), (fd,) = ours.per_field, theirs.per_field
    shape = [(t.tube_rank, t.quasi_length, t.l, t.k) for t in (fc.tube, fd.tube)]
    assert shape[0] == shape[1] == PINNED_TUBES.get(name, shape[0]), name
    assert {tuple(d - k for d, k in zip(rep.dims, e)): v for e, v in fc.per_e.items()} == fd.per_e, name


def test_counting_polynomial_example1():
    # counts 3, 4 at q = 2, 3 interpolate to q + 1; the q = 5 check sees 6
    _, rep = builtin_rep("a21-ex1")
    poly = counting_polynomials(rep, [2, 3], (0, 2, 1))[(0, 2, 1)]
    assert poly.coefficients == (1, 1)
    assert poly.samples == ((2, 3), (3, 4))
    assert poly.check_sample == (5, 6)
    assert poly.euler_characteristic == 2
    assert poly.degree == 1
    assert str(poly) == "q + 1"
    # the paper-visible gap: degree 1 exceeds <e, d-e> = 0 and must stay so
    quiver = rep.quiver
    assert euler_form(quiver, (0, 2, 1), (3, 1, 2)) == 0
    assert poly.degree == 1


def test_counting_polynomial_example3():
    _, rep = builtin_rep("a21-ex3")
    poly = counting_polynomials(rep, [2, 3], (0, 1, 1))[(0, 1, 1)]
    assert poly.coefficients == (1, 2)
    assert poly.euler_characteristic == 3
    assert str(poly) == "2q + 1"


def test_counting_polynomial_constant_for_zero_vector():
    _, rep = builtin_rep("a21-ex3")
    poly = counting_polynomials(rep, [2, 3], (0, 0, 0))[(0, 0, 0)]
    assert poly.coefficients == (1,)
    assert poly.degree == 0
    assert poly.euler_characteristic == 1


def test_counting_polynomial_flags_insufficient_samples():
    # a full vertex Grassmannian of planes in 4-space grows like a quartic,
    # so two samples cannot interpolate it and the check sample must object
    _, rep = builtin_rep("kronecker-reg:4")
    error = counting_polynomials(rep, [2, 3], (0, 2))[(0, 2)]
    assert isinstance(error, CountNotPolynomialError)
    assert error.samples[0][0] == 2
    assert error.check_sample[0] == 5
    # a repeated q cannot be interpolated: the error names the samples
    with pytest.raises(InputError, match=r"samples=\[\(2, 3\), \(2, 4\)\]"):
        CountingPolynomial.from_samples([(2, 3), (2, 4)], (5, 6))


def test_counting_polynomials_cover_every_e_from_one_walk_per_prime():
    # every slice in all_dim_vectors order, each equal to its one-e result;
    # one sample cannot fit the two lines, and their errors leave the rest standing
    _, rep = builtin_rep("kronecker-reg:2")
    polys = counting_polynomials(rep, [2])
    assert list(polys) == all_dim_vectors(rep.dims)
    counts = {q: point_counts(reduce_mod_p(rep, q)) for q in (2, 3)}
    for e, poly in polys.items():
        assert (poly.samples, poly.check_sample) == (((2, counts[2][e]),), (3, counts[3][e])), e
        one = counting_polynomials(rep, [2], e)
        assert list(one) == [e]
        assert type(one[e]) is type(poly), e
        assert (one[e].samples, one[e].check_sample) == (poly.samples, poly.check_sample), e
    failing = [e for e, poly in polys.items() if isinstance(poly, CountNotPolynomialError)]
    assert failing == [(0, 1), (1, 2)]
    with pytest.raises(InputError, match="over the rationals"):
        counting_polynomials(reduce_mod_p(rep, 2), [3])


def test_from_samples_recovers_random_integer_polynomials():
    # the first n >= deg + 1 primes as samples and the next one as the check
    # give back the exact coefficients; with n = deg samples the check must
    # object, since the error there is lead * prod(q_check - q_i) != 0
    primes = [2, 3, 5, 7, 11, 13, 17]
    rng = random.Random(18)
    polys = [[0]]
    for trial in range(100):
        deg = trial % 5
        lead = rng.choice([c for c in range(-20, 21) if c != 0 or deg == 0])
        polys.append([rng.randint(-20, 20) for _ in range(deg)] + [lead])
    for coeffs in polys:
        deg = len(coeffs) - 1
        count = {q: sum(c * q**i for i, c in enumerate(coeffs)) for q in primes}
        for n in range(deg + 1, len(primes)):
            samples = [(q, count[q]) for q in primes[:n]]
            poly = CountingPolynomial.from_samples(samples, (primes[n], count[primes[n]]))
            assert poly.coefficients == tuple(coeffs), (coeffs, n)
        if any(coeffs):
            samples = [(q, count[q]) for q in primes[:deg]]
            with pytest.raises(CountNotPolynomialError):
                CountingPolynomial.from_samples(samples, (primes[deg], count[primes[deg]]))


def test_library_prime_lists_take_integer_primes_only():
    # 2.0 passed is_prime and then failed in pow(); 3.7 was truncated to 3
    # by int(); a repeated prime was run and reported twice
    _, rep = builtin_rep("a21-ex3")
    for bad in (2.0, True, None, "2", 4):
        with pytest.raises(InputError, match="modulus"):
            Field.prime(bad)
    with pytest.raises(InputError, match="not an integer"):
        reduce_mod_p(rep, 2.0)
    with pytest.raises(InputError, match="not an integer"):
        compare_transverse_loci(rep, [2.0])
    with pytest.raises(InputError, match="distinct primes"):
        compare_transverse_loci(rep, [2, 2])
    with pytest.raises(InputError, match="not an integer"):
        counting_polynomials(rep, [2, 3.7, 5], (0, 1, 1))
    with pytest.raises(InputError, match="not an integer"):
        counting_polynomials(rep, [2, True], (0, 1, 1))
    assert Field.prime(3).p == 3
    assert counting_polynomials(rep, [2, 3], (0, 1, 1))[(0, 1, 1)].coefficients == (1, 2)
