"""Tube coordinates, ray submodules, and the two transverse loci."""

from __future__ import annotations

import pytest

from qgrass import (
    AmbiguousQuasiSocleError,
    Field,
    InputError,
    NotOnRayError,
    NotRegularError,
    Quiver,
    RigidRegularError,
    SubspaceBasis,
    census,
    compare_transverse_loci,
    compute_euler_data,
    defect,
    direct_sum,
    enumerate_subreps,
    point_counts,
    quasi_socle,
    reduce_mod_p,
    transverse_combinatorial,
    tube_coordinates,
)
from conftest import BATTERY, builtin_rep, census_points, locus_points, rep_from_ints

F2 = Field.prime(2)


def full_report(name, q):
    quiver, rep = builtin_rep(name)
    rep_q = reduce_mod_p(rep, q)
    return quiver, rep_q, census(rep_q)


def full_walk(name, q):
    """The reduced module and its points of every e, with no tangent data."""
    quiver, rep = builtin_rep(name)
    rep_q = reduce_mod_p(rep, q)
    return quiver, rep_q, enumerate_subreps(rep_q)


def test_quasi_socle_example1():
    quiver, rep, points = full_walk("a21-ex1", 2)
    socle = quasi_socle(rep, points)
    assert socle.dim_vector == (0, 1, 0)
    ker = SubspaceBasis.from_vectors(F2, [[1, 0, 0]], 3)
    assert socle.spaces == (SubspaceBasis.zero(F2, 3), ker, SubspaceBasis.zero(F2, 3))


def test_quasi_socle_example3():
    quiver, rep, points = full_walk("a21-ex3", 2)
    socle = quasi_socle(rep, points)
    assert socle.dim_vector == (0, 1, 0)
    assert socle.spaces[1] == SubspaceBasis.from_vectors(F2, [[1, 0]], 2)


def test_quasi_socle_kronecker_regular():
    quiver, rep, points = full_walk("kronecker-reg:2", 2)
    socle = quasi_socle(rep, points)
    assert socle.dim_vector == (1, 1)
    eigen = SubspaceBasis.from_vectors(F2, [[1, 0]], 2)
    assert socle.spaces == (eigen, eigen)


def test_quasi_socle_rejects_preprojective():
    # non-rigid module with only preprojective submodules of nonzero defect
    quiver = Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    p0 = rep_from_ints(quiver, F2, (0, 1), {"a": [[]], "b": [[]]})
    p2 = rep_from_ints(
        quiver, F2, (2, 3),
        {"a": [[1, 0], [0, 1], [0, 0]], "b": [[0, 0], [1, 0], [0, 1]]},
    )
    m = direct_sum(p0, p2)
    with pytest.raises(NotRegularError):
        quasi_socle(m, enumerate_subreps(m))


def test_quasi_socle_ambiguous_for_decomposable_regular():
    # two distinct homogeneous simples side by side: two incomparable minima
    quiver = Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    m = rep_from_ints(quiver, F2, (2, 2), {"a": [[1, 0], [0, 1]], "b": [[0, 0], [0, 1]]})
    with pytest.raises(AmbiguousQuasiSocleError):
        quasi_socle(m, enumerate_subreps(m))


TUBE_EXPECTATIONS = {
    # name -> (tube rank, quasi-length, l, k)
    "a21-ex1": (2, 6, 3, 0),
    "a21-ex3": (2, 4, 2, 0),
    "a21-ray:3": (2, 3, 1, 1),
    "kronecker-reg:1": (1, 1, 1, 0),
    "kronecker-reg:2": (1, 2, 2, 0),
    "kronecker-reg:3": (1, 3, 3, 0),
    "kronecker-reg:4": (1, 4, 4, 0),
}


def test_tube_coordinates_on_battery():
    for name, (rank, qlen, l, k) in TUBE_EXPECTATIONS.items():
        quiver, rep, points = full_walk(name, 2)
        ed = compute_euler_data(quiver)
        socle = quasi_socle(rep, points)
        tube = tube_coordinates(ed, rep.dims, socle.dim_vector)
        assert (tube.tube_rank, tube.quasi_length, tube.l, tube.k) == (rank, qlen, l, k), name
        assert tube.ray_dims[-1] == rep.dims
        assert all(defect(ed, d) == 0 for d in tube.ray_dims[1:])


def test_example1_ray_dims():
    quiver, rep, report = full_report("a21-ex1", 2)
    ed = compute_euler_data(quiver)
    tube = tube_coordinates(ed, rep.dims, (0, 1, 0))
    assert tube.ray_dims == (
        (0, 0, 0), (0, 1, 0), (1, 1, 1), (1, 2, 1), (2, 2, 2), (2, 3, 2), (3, 3, 3),
    )


def test_homogeneous_ray_dims_are_multiples_of_delta():
    quiver, rep, points = full_walk("kronecker-reg:4", 2)
    ed = compute_euler_data(quiver)
    tube = tube_coordinates(ed, rep.dims, quasi_socle(rep, points).dim_vector)
    assert tube.tube_rank == 1
    for j, d in enumerate(tube.ray_dims):
        assert d == (j, j)


def test_tube_coordinates_error_paths(a21):
    ed = compute_euler_data(a21)
    with pytest.raises(RigidRegularError):
        # quasi-simple of an exceptional tube: quasi-length 1 < rank 2
        tube_coordinates(ed, (0, 1, 0), (0, 1, 0))
    with pytest.raises(InputError):
        tube_coordinates(ed, (3, 3, 3), (1, 0, 0))  # nonzero defect
    with pytest.raises(NotOnRayError):
        # delta-multiples never sum to (2,3,2)
        tube_coordinates(ed, (2, 3, 2), (1, 1, 1))


def test_ray_submodules_unique_and_nested():
    for name in BATTERY:
        for q in (2, 3):
            quiver, rep, report = full_report(name, q)
            points = census_points(report)
            locus = transverse_combinatorial(rep, points)
            tube = locus.tube
            assert len(locus.rays) == len(tube.ray_dims), (name, q)
            for dims, ray in zip(tube.ray_dims, locus.rays):
                assert [x.point for x in report[dims]] == [ray], (name, q, dims)
            for small, big in zip(locus.rays, locus.rays[1:]):
                assert small.leq(big), (name, q)
            assert locus.rays[1] == quasi_socle(rep, points)
            # kronecker-reg:1 has p = l = 1, so its upper is rays[0], the zero point
            window = (locus.rays[tube.k + 1], locus.rays[tube.l * tube.tube_rank - 1])
            assert (locus.lower, locus.upper) == window, (name, q)


def test_example1_ray_point_t5():
    quiver, rep, points = full_walk("a21-ex1", 2)
    rays = transverse_combinatorial(rep, points).rays
    image = SubspaceBasis.from_vectors(F2, [[1, 0, 0], [0, 1, 0]], 3)
    assert rays[5].dim_vector == (2, 3, 2)
    assert rays[5].spaces == (image, SubspaceBasis.full(F2, 3), image)
    assert rays[0].spaces == tuple(SubspaceBasis.zero(F2, 3) for _ in range(3))


def test_every_ray_must_be_unique(monkeypatch):
    # a21-ex1 has l = 3, k = 0, p = 2: the window is rays 1 and 5, and a
    # second point at ray 2, 3 or 4 is refused all the same
    import contextlib
    import importlib
    import io

    from qgrass import RayAmbiguityError
    from qgrass.cli import main as cli_main

    quiver, rep, points = full_walk("a21-ex1", 2)
    tube = transverse_combinatorial(rep, points).tube
    for t in (2, 3, 4):
        twice = [*points, next(x for x in points if x.dim_vector == tube.ray_dims[t])]
        with pytest.raises(RayAmbiguityError) as caught:
            transverse_combinatorial(rep, twice)
        assert (caught.value.dim_vector, caught.value.count) == (tube.ray_dims[t], 2)

    tubes = importlib.import_module("qgrass.tubes")
    real_census = tubes.census

    def doubled_census(rep_q, e=None):
        report = real_census(rep_q, e)
        report[tube.ray_dims[3]] = report[tube.ray_dims[3]] * 2
        return report

    monkeypatch.setattr(tubes, "census", doubled_census)
    [fc2, fc3] = compare_transverse_loci(builtin_rep("a21-ex1")[1], [2, 3]).per_field
    expected = f"RayAmbiguityError: {RayAmbiguityError(tube.ray_dims[3], 2)}"
    assert fc2.error == fc3.error == expected
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli_main(["check", "--builtin", "a21-ex1", "--q", "2,3"]) == 3


def test_transverse_combinatorial_example1_empty_slice():
    quiver, rep, report = full_report("a21-ex1", 2)
    comb = transverse_combinatorial(rep, census_points(report))
    assert not comb.rigid
    assert locus_points(report, comb, (0, 2, 1)) == []
    # all three points are pinched between the window submodules
    for entry in report[(0, 2, 1)]:
        assert comb.flags(entry.point) == (True, True)


def test_transverse_combinatorial_example2_empty_slice():
    quiver, rep, report = full_report("kronecker-reg:2", 3)
    comb = transverse_combinatorial(rep, census_points(report))
    assert locus_points(report, comb, (1, 1)) == []
    assert comb.tube.l * comb.tube.tube_rank - 1 == 1
    assert comb.lower == comb.upper  # window collapses to the single ray point


def test_transverse_combinatorial_example3_drops_singular_point():
    quiver, rep, report = full_report("a21-ex3", 2)
    comb = transverse_combinatorial(rep, census_points(report))
    kept = locus_points(report, comb, (0, 1, 1))
    assert len(kept) == 4
    excluded = {entry.point for entry in report[(0, 1, 1)]} - set(kept)
    assert len(excluded) == 1
    (z,) = excluded
    eigen = SubspaceBasis.from_vectors(F2, [[1, 0]], 2)
    assert z.spaces[1] == eigen and z.spaces[2] == eigen
    # matches the homological locus on this slice
    assert set(kept) == {x.point for x in report[(0, 1, 1)] if x.ext_dim == 0}


def test_transverse_combinatorial_rigid_keeps_everything():
    quiver, rep = builtin_rep("kronecker-preproj:1")
    rep_2 = reduce_mod_p(rep, 2)
    report = census(rep_2)
    comb = transverse_combinatorial(rep_2, census_points(report))
    assert comb.rigid
    assert (comb.lower, comb.upper) == (None, None)
    for e, entries in report.items():
        assert locus_points(report, comb, e) == [entry.point for entry in entries]
        assert all(comb.flags(entry.point) is None for entry in entries)


def test_vacuous_window_keeps_everything():
    quiver, rep, report = full_report("a21-ray:3", 2)
    comb = transverse_combinatorial(rep, census_points(report))
    assert comb.tube.vacuous_window
    for e, entries in report.items():
        assert locus_points(report, comb, e) == [entry.point for entry in entries]


def test_excluded_points_always_have_ext():
    # pinched points are never homologically transverse
    for name in BATTERY:
        for q in (2, 3):
            quiver, rep, report = full_report(name, q)
            comb = transverse_combinatorial(rep, census_points(report))
            if comb.rigid:
                continue
            for entries in report.values():
                for entry in entries:
                    if comb.flags(entry.point) == (True, True):
                        assert entry.ext_dim >= 1, (name, q, entry.point.dim_vector)


def test_one_slice_of_points_is_refused():
    # quasi-socle and window need the points of every e; a single slice,
    # from the walk or from a one-slice census, is an InputError
    quiver, rep = builtin_rep("a21-ex3")
    rep_2 = reduce_mod_p(rep, 2)
    rigid = reduce_mod_p(builtin_rep("kronecker-preproj:1")[1], 2)
    for m, e in ((rep_2, (0, 1, 1)), (rep_2, (0, 0, 0)), (rep_2, rep_2.dims), (rigid, (0, 1))):
        for points in (enumerate_subreps(m, e), census_points(census(m, e))):
            assert points, (m.dims, e)
            with pytest.raises(InputError, match="every dimension vector"):
                transverse_combinatorial(m, points)
            if m is rep_2:
                with pytest.raises(InputError, match="every dimension vector"):
                    quasi_socle(m, points)
    # the full walk passes the same guard
    assert quasi_socle(rep_2, enumerate_subreps(rep_2)).dim_vector == (0, 1, 0)


def test_cli_tube_computes_no_tangent_data(monkeypatch):
    import contextlib
    import importlib
    import io

    from qgrass.cli import main as cli_main

    census_module = importlib.import_module("qgrass.census")
    calls = {"sub_quotient": [], "_delta_rows": [], "CensusEntry": []}

    def counted(name):
        real = getattr(census_module, name)

        def wrapper(*args, **kwargs):
            calls[name].append(1)
            return real(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(census_module, name, counted(name))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli_main(["tube", "--builtin", "a21-ex3", "--q", "2,3"]) == 0
    assert calls == {"sub_quotient": [], "_delta_rows": [], "CensusEntry": []}
    assert '"quasi_socle"' in out.getvalue()
    # the wraps do see the census that check runs: one Delta step per tree
    # node, and tangent data at every leaf
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli_main(["check", "--builtin", "a21-ex3", "--q", "2"]) == 0
    assert calls["sub_quotient"]
    _, rep = builtin_rep("a21-ex3")
    leaves = sum(point_counts(reduce_mod_p(rep, 2)).values())
    assert len(calls["CensusEntry"]) == leaves
    assert len(calls["_delta_rows"]) > leaves


def test_compare_transverse_loci_battery_members():
    for name, qs in [("a21-ex1", (2, 3)), ("kronecker-reg:2", (2, 3, 5)),
                     ("kronecker-preproj:1", (2,))]:
        quiver, rep = builtin_rep(name)
        comparison = compare_transverse_loci(rep, qs)
        assert comparison.verdict, name
        assert comparison.counterexamples == []
        assert comparison.internal_errors == []


def test_compare_transverse_loci_rigid_sides_are_everything():
    quiver, rep = builtin_rep("kronecker-preproj:1")
    comparison = compare_transverse_loci(rep, [2])
    fc = comparison.per_field[0]
    assert fc.rigid
    report = census(reduce_mod_p(rep, 2))
    assert list(fc.per_e) == list(report)
    for e, (comb, hom, equal) in fc.per_e.items():
        assert equal
        assert comb == hom == len(report[e])


def test_compare_reports_tube_errors_per_field():
    quiver = Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    from qgrass import QQ

    m = rep_from_ints(quiver, QQ, (2, 2), {"a": [[1, 0], [0, 1]], "b": [[0, 0], [0, 1]]})
    comparison = compare_transverse_loci(m, [2, 3])
    assert not comparison.verdict
    assert len(comparison.internal_errors) == 2
    assert "AmbiguousQuasiSocle" in comparison.internal_errors[0]


def test_compare_raises_not_regular_as_an_input_error():
    # P0 + P2 over Q: e = dims has defect <delta, dim M> != 0 at every prime,
    # so no reduction can make the module regular and nothing is recorded
    quiver = Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    from qgrass import QQ

    m = rep_from_ints(
        quiver, QQ, (2, 4),
        {"a": [[0, 0], [1, 0], [0, 1], [0, 0]], "b": [[0, 0], [0, 0], [1, 0], [0, 1]]},
    )
    with pytest.raises(NotRegularError):
        compare_transverse_loci(m, [2, 3])


def test_compare_drops_each_census_before_the_next(monkeypatch):
    import importlib
    import weakref

    tubes = importlib.import_module("qgrass.tubes")
    real_census = tubes.census
    earlier = []

    def tracked_census(rep_q, e=None):
        alive = [ref for ref in earlier if ref() is not None]
        report = real_census(rep_q, e)
        # a dict cannot be weakly referenced, but an entry lives only in its
        # census, so its entry at e = dims stands for the whole census
        earlier.append(weakref.ref(report[rep_q.dims][0]))
        assert alive == [], "an earlier prime's census is still alive"
        return report

    monkeypatch.setattr(tubes, "census", tracked_census)
    quiver, rep = builtin_rep("a21-ex3")
    assert compare_transverse_loci(rep, [2, 3, 5]).verdict
    assert len(earlier) == 3


def test_forced_rigid_regular_error_is_an_internal_error(monkeypatch):
    # a non-rigid module whose tube coordinates fail must not fall back to
    # the rigid locus, which keeps every point and so reports counterexamples
    import contextlib
    import importlib
    import io

    from qgrass.cli import main as cli_main

    def rigid(*args):
        raise RigidRegularError("forced")

    monkeypatch.setattr(importlib.import_module("qgrass.tubes"), "tube_coordinates", rigid)
    _, rep = builtin_rep("kronecker-reg:2")
    [fc] = compare_transverse_loci(rep, [2]).per_field
    assert fc.error == "RigidRegularError: forced"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli_main(["check", "--builtin", "kronecker-reg:2", "--q", "2"]) == 3
