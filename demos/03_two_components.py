"""A reducible Grassmannian slice: two lines crossing in one singular point.

The dimension-(2,2,2) module on the three-vertex affine quiver has a
(0,1,1) slice cut out of P^1 x P^1 by one bilinear equation: two projective
lines meeting in a single point, 2q + 1 points over F_q.  The crossing
point is the unique one with tangent dimension 2 (ext = 1); everywhere else
the slice is smooth of the expected dimension 1.  Both notions of
transversality keep exactly the 2q smooth points.
"""

from qgrass import (
    census,
    emit_builtin,
    parse_document,
    reduce_mod_p,
    transverse_combinatorial,
)

quiver, module = parse_document(emit_builtin("a21-ex3"))
e = (0, 1, 1)

for q in (2, 3):
    rep = reduce_mod_p(module, q)
    report = census(rep)
    entries = report[e]
    singular = [x for x in entries if x.ext_dim > 0]
    print(f"q = {q}: {len(entries)} points = 2q + 1")
    for entry in entries:
        spaces = entry.point.spaces
        rows = [[list(row) for row in spaces[i].rows] for i in (1, 2)]
        marker = "  <- singular crossing" if entry.ext_dim else ""
        print(f"  V2 = {rows[0]}, V3 = {rows[1]}: tangent dim {entry.hom_dim}{marker}")
    hom = {x.point for x in entries if x.ext_dim == 0}
    locus = transverse_combinatorial(rep, [x.point for xs in report.values() for x in xs])
    comb = {x.point for x in entries if locus.contains(x.point)}
    assert hom == comb
    print(f"  both transverse loci = the {len(hom)} smooth points\n")
