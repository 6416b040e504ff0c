"""Locating a regular module inside its tube, ray submodule by ray submodule.

A non-rigid indecomposable over an affine quiver lives in a tube of some
rank p.  On dimension vectors the structure is fully computable: the
quasi-socle is the minimum nonzero defect-zero subrepresentation, applying
the inverse Coxeter matrix walks up the quasi-simple layers, and the partial
sums are the dimension vectors of the canonical ray submodules.  Each ray
dimension vector supports exactly one subrepresentation, and they nest.
"""

from qgrass import emit_builtin, enumerate_subreps, parse_document, reduce_mod_p, transverse_combinatorial

for name in ("a21-ex1", "a21-ray:3", "kronecker-reg:3"):
    quiver, module = parse_document(emit_builtin(name))
    rep = reduce_mod_p(module, 2)
    points = enumerate_subreps(rep)  # every e; no tangent data is needed
    locus = transverse_combinatorial(rep, points)
    tube = locus.tube
    print(f"{name}: dims {rep.dims}")
    print(
        f"  quasi-socle {tube.quasi_socle_dim}, tube rank {tube.tube_rank}, "
        f"quasi-length {tube.quasi_length} = {tube.l}*{tube.tube_rank} + {tube.k}"
    )
    previous = None
    for t, point in enumerate(locus.rays[1:], 1):
        count = sum(1 for x in points if x.dim_vector == tube.ray_dims[t])
        nested = "" if previous is None else ("  (contains t-1)" if previous.leq(point) else "  !!")
        print(f"  t = {t}: dims {tube.ray_dims[t]}, points with these dims: {count}{nested}")
        previous = point
    if tube.vacuous_window:
        print("  window [k+1, l*p-1] is empty: nothing can be pinched, locus is everything")
    print()
