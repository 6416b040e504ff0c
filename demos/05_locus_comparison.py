"""The headline cross-check: two very different transverse loci coincide.

The combinatorial locus drops the points pinched between two canonical ray
submodules of the tube; the homological locus keeps the points N with
Ext^1(N, M/N) = 0.  For every module in the battery, every prime and every
dimension vector, the two sets are compared point by point.
"""

import time

from qgrass import compare_transverse_loci, emit_builtin, parse_document, point_counts, reduce_mod_p

BATTERY = [
    "kronecker-reg:1",
    "kronecker-reg:2",
    "kronecker-reg:3",
    "kronecker-reg:4",
    "a21-ex1",
    "a21-ex3",
    "a21-ray:3",
    "kronecker-preproj:1",
    "kronecker-preproj:2",
]

for name in BATTERY:
    quiver, module = parse_document(emit_builtin(name))
    start = time.monotonic()
    comparison = compare_transverse_loci(module, [2, 3])
    elapsed = time.monotonic() - start
    slices = sum(len(fc.per_e) for fc in comparison.per_field)
    points = sum(sum(point_counts(reduce_mod_p(module, q)).values()) for q in (2, 3))
    kind = "rigid" if comparison.per_field[0].rigid else (
        f"tube p={comparison.per_field[0].tube.tube_rank}"
        f" l={comparison.per_field[0].tube.l} k={comparison.per_field[0].tube.k}"
    )
    verdict = "EQUAL" if comparison.verdict else "DIFFER"
    print(
        f"{name:22s} {kind:16s} {points:5d} points over {slices:3d} slices: "
        f"{verdict} [{elapsed:.2f}s]"
    )
    assert comparison.verdict, name
