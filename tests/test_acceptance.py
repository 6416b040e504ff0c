"""Acceptance suite: the seven headline criteria, one test each.

Every check is exact (integer equality, set equality); each criterion also
carries a generous wall-clock bound.  Run with -s to see one line per
criterion.
"""

from __future__ import annotations

import contextlib
import io
import random
import time

from qgrass import (
    all_dim_vectors,
    brute_force_subreps,
    census,
    compare_transverse_loci,
    compute_euler_data,
    counting_polynomials,
    coxeter_apply,
    defect,
    enumerate_subreps,
    euler_form,
    hom_ext,
    is_rigid,
    kernel_basis,
    quasi_socle,
    reduce_mod_p,
    rref,
    sub_quotient,
    transverse_combinatorial,
)
from qgrass.cli import main as cli_main
from qgrass.fields import QQ, Field
from qgrass.linalg import Matrix
from conftest import BATTERY, builtin_rep, census_points, locus_points


def report(label: str, elapsed: float, budget: float):
    print(f"PASS {label} ({elapsed:.2f}s < {budget:.0f}s)")
    assert elapsed < budget, f"{label} exceeded its {budget}s budget"


def test_criterion_1_example1_projective_line_slice():
    start = time.monotonic()
    quiver, rep = builtin_rep("a21-ex1")
    e = (0, 2, 1)
    assert euler_form(quiver, e, tuple(d - x for d, x in zip(rep.dims, e))) == 0
    for q in (2, 3):
        rep_q = reduce_mod_p(rep, q)
        entries = census(rep_q, e)[e]
        assert len(entries) == q + 1
        assert all(entry.ext_dim == 1 for entry in entries)
        full = census(rep_q)
        comb = transverse_combinatorial(rep_q, census_points(full))
        assert locus_points(full, comb, e) == []
    report("criterion 1: dims (3,3,3) slice e=(0,2,1)", time.monotonic() - start, 10)


def test_criterion_2_example2_double_point():
    start = time.monotonic()
    quiver, rep = builtin_rep("kronecker-reg:2")
    e = (1, 1)
    for q in (2, 3, 5):
        rep_q = reduce_mod_p(rep, q)
        entries = census(rep_q, e)[e]
        assert len(entries) == 1
        assert entries[0].ext_dim == 1
        full = census(rep_q)
        comb = transverse_combinatorial(rep_q, census_points(full))
        assert locus_points(full, comb, e) == []
        tube = comb.tube
        assert (tube.tube_rank, tube.l, tube.k) == (1, 2, 0)
    report("criterion 2: Kronecker dims (2,2) point e=(1,1)", time.monotonic() - start, 5)


def test_criterion_3_example3_two_components():
    start = time.monotonic()
    quiver, rep = builtin_rep("a21-ex3")
    e = (0, 1, 1)
    lower = euler_form(quiver, e, tuple(d - x for d, x in zip(rep.dims, e)))
    assert lower == 1
    for q in (2, 3):
        rep_q = reduce_mod_p(rep, q)
        full = census(rep_q)
        entries = full[e]
        assert len(entries) == 2 * q + 1
        singular = [x for x in entries if x.ext_dim == 1]
        smooth = [x for x in entries if x.ext_dim == 0]
        assert len(singular) == 1 and singular[0].hom_dim == 2
        assert len(smooth) == 2 * q
        assert all(x.hom_dim == lower for x in smooth)
        comb_set = set(locus_points(full, transverse_combinatorial(rep_q, census_points(full)), e))
        assert comb_set == {x.point for x in smooth}
    report("criterion 3: dims (2,2,2) slice e=(0,1,1)", time.monotonic() - start, 10)


def test_criterion_4_comparison_battery():
    start = time.monotonic()
    for name in BATTERY:
        quiver, rep = builtin_rep(name)
        comparison = compare_transverse_loci(rep, [2, 3])
        assert comparison.verdict, name
        assert comparison.counterexamples == [], name
        assert comparison.internal_errors == [], name
        for fc in comparison.per_field:
            for e, (comb, hom, equal) in fc.per_e.items():
                assert equal
    # the CLI gate: exit code 0 across the battery
    for name in BATTERY:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(["check", "--builtin", name, "--q", "2,3"])
        assert code == 0
    report("criterion 4: locus comparison battery", time.monotonic() - start, 300)


def test_criterion_5_rigid_preprojective():
    start = time.monotonic()
    quiver, rep = builtin_rep("kronecker-preproj:1")
    assert is_rigid(rep)
    for q in (2, 3):
        rep_q = reduce_mod_p(rep, q)
        full = census(rep_q)
        assert all(x.ext_dim == 0 for entries in full.values() for x in entries)
        comb = transverse_combinatorial(rep_q, census_points(full))
        assert comb.rigid
        for e in all_dim_vectors(rep.dims):
            assert locus_points(full, comb, e) == [x.point for x in full[e]]
    report("criterion 5: rigid dims (1,2) module", time.monotonic() - start, 5)


def test_criterion_6_counting_polynomials():
    start = time.monotonic()
    _, rep1 = builtin_rep("a21-ex1")
    poly1 = counting_polynomials(rep1, [2, 3], (0, 2, 1))[(0, 2, 1)]
    assert poly1.coefficients == (1, 1)
    assert poly1.check_sample == (5, 6)
    assert poly1.euler_characteristic == 2
    _, rep3 = builtin_rep("a21-ex3")
    poly3 = counting_polynomials(rep3, [2, 3], (0, 1, 1))[(0, 1, 1)]
    assert poly3.coefficients == (1, 2)
    assert poly3.euler_characteristic == 3
    report("criterion 6: counting polynomials", time.monotonic() - start, 30)


def test_criterion_7_property_suites():
    start = time.monotonic()
    rng = random.Random(2024)

    # rank-nullity on random rref/kernel pairs over Q, F_2, F_3
    for field in (QQ, Field.prime(2), Field.prime(3)):
        for _ in range(25):
            rows, cols = rng.randrange(0, 5), rng.randrange(0, 5)
            m = Matrix(
                field, rows, cols,
                [field.parse(rng.randrange(-4, 5)) for _ in range(rows * cols)],
            )
            assert rref(m).rank + kernel_basis(m).rows == cols

    # Euler identity on every hom/ext pair of the battery census runs,
    # plus the Coxeter identities on 100 random vectors per quiver
    seen_quivers = {}
    for name in BATTERY:
        quiver, rep = builtin_rep(name)
        seen_quivers[quiver.vertices + tuple(quiver.arrows)] = quiver
        for q in (2, 3):
            rep_q = reduce_mod_p(rep, q)
            full = census(rep_q)
            for e, entries in full.items():
                lower = euler_form(quiver, e, tuple(d - x for d, x in zip(rep.dims, e)))
                for entry in entries:
                    sub, quot = sub_quotient(rep_q, entry.point.spaces)
                    he = hom_ext(sub, quot)
                    assert he.hom_dim - he.ext_dim == lower
                    assert entry.hom_dim >= lower
            # enumerate vs brute force wherever the guard admits it
            if rep_q.total_dim() <= 8 and q <= 3:
                for e in all_dim_vectors(rep_q.dims):
                    assert set(enumerate_subreps(rep_q, e)) == set(
                        brute_force_subreps(rep_q, e)
                    )
            # ray submodules: unique and nested
            points = census_points(full)
            comb = transverse_combinatorial(rep_q, points)
            if not comb.rigid:
                tube = comb.tube
                ed = compute_euler_data(quiver)
                assert quasi_socle(rep_q, points).dim_vector == tube.quasi_socle_dim
                chain = []
                for t in range(1, tube.quasi_length + 1):
                    entries = full[tube.ray_dims[t]]
                    assert len(entries) == 1
                    chain.append(entries[0].point)
                for small, big in zip(chain, chain[1:]):
                    assert small.leq(big)
                assert all(defect(ed, d) == 0 for d in tube.ray_dims[1:])

    for quiver in seen_quivers.values():
        ed = compute_euler_data(quiver)
        delta = ed.null_root
        assert coxeter_apply(ed, delta, 1) == delta
        for _ in range(100):
            x = tuple(rng.randrange(-4, 5) for _ in quiver.vertices)
            y = tuple(rng.randrange(-4, 5) for _ in quiver.vertices)
            assert euler_form(quiver, x, y) == -euler_form(quiver, y, coxeter_apply(ed, x, 1))

    report("criterion 7: property suites", time.monotonic() - start, 120)
