"""A single Grassmannian point that still fails transversality.

The Kronecker module of dimension (2,2) (identity and nilpotent Jordan
block) has exactly one subrepresentation of dimension (1,1): the eigenline
of the nilpotent map, at both vertices.  Set-theoretically the slice is one
point; homologically it carries Ext^1(N, M/N) of dimension 1, which is the
finite-field shadow of the scheme being a double point.  Both transverse
loci are empty here, and the tube coordinates are rank 1, quasi-length 2.
"""

from qgrass import (
    census,
    emit_builtin,
    enumerate_subreps,
    parse_document,
    reduce_mod_p,
    transverse_combinatorial,
)

quiver, module = parse_document(emit_builtin("kronecker-reg:2"))
e = (1, 1)

for q in (2, 3, 5):
    rep = reduce_mod_p(module, q)
    report = census(rep)
    entries = report[e]
    (entry,) = entries
    comb = transverse_combinatorial(rep, [x.point for xs in report.values() for x in xs])
    print(
        f"q = {q}: |Gr_(1,1)| = {len(entries)}, hom = {entry.hom_dim}, "
        f"ext = {entry.ext_dim}, homological transverse = "
        f"{sum(x.ext_dim == 0 for x in entries)}, "
        f"combinatorial = {sum(comb.contains(x.point) for x in entries)}"
    )

# the tube needs only the points, not their tangent data
rep = reduce_mod_p(module, 2)
tube = transverse_combinatorial(rep, enumerate_subreps(rep)).tube
print(
    f"tube: rank p = {tube.tube_rank}, quasi-length = {tube.quasi_length}, "
    f"l = {tube.l}, k = {tube.k}"
)
print("the lone point is pinched between ray submodules 1 and 1, hence excluded")
