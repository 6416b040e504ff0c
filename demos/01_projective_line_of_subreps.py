"""A Grassmannian slice that is a projective line of non-transverse points.

The three-vertex affine quiver 1 -> 2 -> 3 (plus the shortcut 1 -> 3)
carries a regular indecomposable module of dimension (3,3,3): identity maps
on the long arrows and a nilpotent Jordan block in the middle.  Its
subrepresentations of dimension (0,2,1) form a projective line: q + 1
points over F_q.  Every single one of them has a one-dimensional
Ext^1(N, M/N), so the slice is smooth of dimension 1 but contains no
transverse point at all, even though <e, d-e> = 0.
"""

from qgrass import (
    census,
    counting_polynomials,
    emit_builtin,
    euler_form,
    parse_document,
    reduce_mod_p,
)

quiver, module = parse_document(emit_builtin("a21-ex1"))
e = (0, 2, 1)
complement = tuple(d - x for d, x in zip(module.dims, e))

print(f"module dims {module.dims} on {quiver}")
print(f"slice e = {e},  <e, d-e> = {euler_form(quiver, e, complement)}")

for q in (2, 3, 5):
    entries = census(reduce_mod_p(module, q), e)[e]
    exts = sorted(entry.ext_dim for entry in entries)
    print(
        f"q = {q}: {len(entries)} points (= q + 1), ext dims {exts}, "
        f"transverse points: {sum(x.ext_dim == 0 for x in entries)}"
    )

poly = counting_polynomials(module, [2, 3], e)[e]
print(f"counting polynomial: {poly}  (checked at q = {poly.check_sample[0]})")
print(f"Euler characteristic: {poly.euler_characteristic}, degree {poly.degree}")
print("degree 1 > <e, d-e> = 0: the slice is bigger than the expected dimension")
