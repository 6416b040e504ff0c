"""Locating a regular module inside its tube, ray submodule by ray submodule.

A non-rigid indecomposable over an affine quiver lives in a tube of some
rank p.  On dimension vectors the structure is fully computable: the
quasi-socle is the minimum nonzero defect-zero subrepresentation, applying
the inverse Coxeter matrix walks up the quasi-simple layers, and the partial
sums are the dimension vectors of the canonical ray submodules.  Each ray
dimension vector supports exactly one subrepresentation, and they nest.
"""

from qgrass import (
    canonical_ray_submodule,
    compute_euler_data,
    emit_builtin,
    enumerate_subreps,
    parse_document,
    quasi_socle,
    reduce_mod_p,
    tube_coordinates,
)

for name in ("a21-ex1", "a21-ray:3", "kronecker-reg:3"):
    quiver, module = parse_document(emit_builtin(name))
    rep = reduce_mod_p(module, 2)
    points = enumerate_subreps(rep)  # every e; no tangent data is needed
    ed = compute_euler_data(quiver)
    socle = quasi_socle(rep, points)
    tube = tube_coordinates(ed, rep.dims, socle.dim_vector)
    print(f"{name}: dims {rep.dims}")
    print(
        f"  quasi-socle {tube.quasi_socle_dim}, tube rank {tube.tube_rank}, "
        f"quasi-length {tube.quasi_length} = {tube.l}*{tube.tube_rank} + {tube.k}"
    )
    previous = None
    for t in range(1, tube.quasi_length + 1):
        point = canonical_ray_submodule(rep, points, tube, t)
        count = sum(1 for x in points if x.dim_vector == tube.ray_dims[t])
        nested = "" if previous is None else ("  (contains t-1)" if previous.leq(point) else "  !!")
        print(f"  t = {t}: dims {tube.ray_dims[t]}, points with these dims: {count}{nested}")
        previous = point
    if tube.vacuous_window:
        print("  window [k+1, l*p-1] is empty: nothing can be pinched, locus is everything")
    print()
