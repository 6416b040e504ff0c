"""Tube coordinates of regular modules and the combinatorial transverse locus.

A non-rigid indecomposable over an affine quiver is regular and sits in a
tube of some rank p: it is the quasi-length-t module on the ray above a
quasi-simple R0, with t = l*p + k, l >= 1, 0 <= k <= p - 1.  On dimension
vectors the ray is controlled by the Coxeter matrix: the quasi-simple layers
are Phi^{-j}(dim R0) and their partial sums are the ray dimension vectors.

The combinatorial transverse locus keeps every point except those pinched
between the canonical ray submodules of quasi-lengths k + 1 and l*p - 1
(for a rigid module nothing is removed), so it is stored as the ray
submodules; it needs only the points of every e (``enumerate_subreps(m)``),
no tangent data.  The homological locus keeps the points with
Ext^1(N, M/N) = 0.
``compare_transverse_loci`` runs a census to test both at every point over
each requested prime field, and reports whether they coincide.
"""

from __future__ import annotations

from typing import NamedTuple

from .census import SubrepPoint, census
from .errors import (
    AmbiguousQuasiSocleError,
    InputError,
    InternalCheckError,
    NotOnRayError,
    NotRegularError,
    RayAmbiguityError,
    RigidRegularError,
)
from .fields import distinct_primes
from .quiver import EulerData, compute_euler_data, coxeter_apply, defect
from .reps import Representation, is_rigid, reduce_mod_p


class TubeData(NamedTuple):
    """Coordinates of a regular indecomposable inside its tube.

    ray_dims[t] is the dimension vector of the quasi-length-t ray submodule;
    ray_dims[0] is zero and ray_dims[quasi_length] is the module itself.
    """

    quasi_socle_dim: tuple
    tube_rank: int
    quasi_length: int
    l: int
    k: int
    ray_dims: tuple

    @property
    def vacuous_window(self) -> bool:
        """True when l = 1 and k = p - 1, where the pinched window
        [k + 1, l*p - 1] is empty and nothing gets excluded."""
        return self.l == 1 and self.k == self.tube_rank - 1


def _require_every_e(m: Representation, points, who: str) -> None:
    """InputError unless points has one point at e = 0 and one at e = dims,
    as the points of every dimension vector do."""
    zero = (0,) * m.quiver.n
    ends = [p.dim_vector for p in points if p.dim_vector in (zero, m.dims)]
    if not ends.count(zero) == ends.count(m.dims) == 1:
        raise InputError(f"{who} needs the points of every dimension vector")


def quasi_socle(m: Representation, points) -> SubrepPoint:
    """The minimum nonzero defect-zero point among m's points of every e.

    Defect zero rules out preprojective summands, so the candidates are the
    regular submodules; for an indecomposable regular module they are nested
    and the minimum is its quasi-socle.
    """
    _require_every_e(m, points, "quasi_socle")
    ed = compute_euler_data(m.quiver)
    # one defect per distinct e; dimension vectors are nonnegative
    regular = {e for e in {p.dim_vector for p in points} if any(e) and defect(ed, e) == 0}
    candidates = [p for p in points if p.dim_vector in regular]
    if not candidates:
        raise NotRegularError("no nonzero submodule of defect zero: module is not regular")
    minimal = [
        c
        for c in candidates
        if not any(other is not c and other.leq(c) and other != c for other in candidates)
    ]
    if len(minimal) != 1:
        dims = sorted({m.dim_vector for m in minimal})
        raise AmbiguousQuasiSocleError(
            f"{len(minimal)} incomparable minimal regular submodules (dims {dims}): "
            "decomposable module or degenerate reduction"
        )
    bottom = minimal[0]
    if not all(bottom.leq(c) for c in candidates):
        raise InternalCheckError(f"the minimal regular submodule {bottom.dim_vector} is not below all others")
    return bottom


def tube_coordinates(euler_data: EulerData, dim_m, dim_r0) -> TubeData:
    """Tube rank, quasi-length and the ray dimension vectors above dim_r0."""
    quiver = euler_data.quiver
    dim_m = quiver.check_dim_vector(dim_m)
    dim_r0 = quiver.check_dim_vector(dim_r0)
    if not euler_data.is_affine:
        raise InputError("tube coordinates need an affine quiver")
    if all(x == 0 for x in dim_r0) or any(x < 0 for x in dim_r0):
        raise InputError("quasi-socle dimension vector must be nonzero and nonnegative")
    if defect(euler_data, dim_r0) != 0:
        raise InputError(f"quasi-socle candidate {dim_r0} has nonzero defect")

    bound = sum(dim_m) + quiver.n + 2
    rank = None
    v = dim_r0
    for t in range(1, bound + 1):
        v = coxeter_apply(euler_data, v, 1)
        if v == dim_r0:
            rank = t
            break
    if rank is None:
        raise NotOnRayError(f"{dim_r0} has no Coxeter period up to {bound}")

    ray = [(0,) * quiver.n, dim_r0]
    layer = dim_r0
    total = dim_r0
    quasi_length = 1 if total == dim_m else None
    while quasi_length is None and sum(total) < sum(dim_m):
        layer = coxeter_apply(euler_data, layer, -1)
        total = tuple(a + b for a, b in zip(total, layer))
        if any(x < 0 for x in total):
            break
        ray.append(total)
        if total == dim_m:
            quasi_length = len(ray) - 1
    if quasi_length is None:
        raise NotOnRayError(
            f"partial ray sums from {dim_r0} never reach {dim_m}: not on the ray"
        )

    l, k = divmod(quasi_length, rank)
    if l == 0:
        raise RigidRegularError(
            f"quasi-length {quasi_length} < tube rank {rank}: rigid regular module"
        )
    ray = ray[: quasi_length + 1]
    if any(defect(euler_data, d) != 0 for d in ray[1:]):
        raise InternalCheckError(f"a ray dimension vector above {dim_r0} has nonzero defect")
    return TubeData(
        quasi_socle_dim=dim_r0,
        tube_rank=rank,
        quasi_length=quasi_length,
        l=l,
        k=k,
        ray_dims=tuple(ray),
    )


class CombinatorialTransverse(NamedTuple):
    """The combinatorial transverse locus: every point N except those with
    lower <= N <= upper, the ray submodules of quasi-lengths k + 1 and
    l*p - 1.  rays[t] is the unique point with dims tube.ray_dims[t], for
    t = 0..quasi_length, so rays[0] is the zero point and rays[1] the
    quasi-socle.  A rigid module has tube None and no rays, and keeps
    every point."""

    tube: TubeData | None
    rays: tuple

    @property
    def rigid(self) -> bool:
        return self.tube is None

    @property
    def lower(self) -> SubrepPoint | None:
        return None if self.rigid else self.rays[self.tube.k + 1]

    @property
    def upper(self) -> SubrepPoint | None:
        return None if self.rigid else self.rays[self.tube.l * self.tube.tube_rank - 1]

    def flags(self, point: SubrepPoint) -> tuple | None:
        """(lower <= point, point <= upper), or None for a rigid module."""
        if self.rigid:
            return None
        return (self.lower.leq(point), point.leq(self.upper))

    def contains(self, point: SubrepPoint) -> bool:
        return self.rigid or not (self.lower.leq(point) and point.leq(self.upper))


def transverse_combinatorial(m: Representation, points) -> CombinatorialTransverse:
    """Combinatorial transverse locus of m from its points of every e.

    Rigid modules keep their whole Grassmannian.  Otherwise the quasi-socle
    and tube coordinates are computed, and one pass over the points finds
    every ray submodule; a ray dimension vector held by other than exactly
    one point raises RayAmbiguityError.
    """
    _require_every_e(m, points, "the combinatorial transverse locus")
    if is_rigid(m):
        return CombinatorialTransverse(tube=None, rays=())

    ed = compute_euler_data(m.quiver)
    if not ed.is_affine:
        raise InputError(
            "combinatorial transverse locus undefined: non-rigid module on a non-affine quiver"
        )
    tube = tube_coordinates(ed, m.dims, quasi_socle(m, points).dim_vector)
    found = {dims: [] for dims in tube.ray_dims}  # in t order
    for point in points:
        if point.dim_vector in found:
            found[point.dim_vector].append(point)
    for dims, bucket in found.items():
        if len(bucket) != 1:
            raise RayAmbiguityError(dims, len(bucket))
    return CombinatorialTransverse(tube=tube, rays=tuple(bucket[0] for bucket in found.values()))


class Counterexample(NamedTuple):
    q: int
    e: tuple
    point: SubrepPoint
    ext_dim: int
    comb_flags: tuple | None
    side: str  # "combinatorial_only" or "homological_only"


class FieldComparison(NamedTuple):
    """Comparison of both transverse loci over one prime field."""

    q: int
    per_e: dict  # e -> (comb count, hom count, equal)
    tube: TubeData | None = None
    error: str | None = None

    @property
    def rigid(self) -> bool:
        return self.error is None and self.tube is None

    @property
    def verdict(self) -> bool:
        return self.error is None and all(equal for _, _, equal in self.per_e.values())


class TransverseComparison(NamedTuple):
    per_field: list
    counterexamples: list

    @property
    def verdict(self) -> bool:
        return bool(self.per_field) and all(fc.verdict for fc in self.per_field)

    @property
    def internal_errors(self) -> list[str]:
        return [f"q={fc.q}: {fc.error}" for fc in self.per_field if fc.error]


def compare_transverse_loci(m: Representation, q_list) -> TransverseComparison:
    """Point-by-point comparison of the combinatorial and homological
    transverse loci over each prime in q_list.

    Input is a rational representation.  An InternalCheckError of the tube
    pipeline is recorded per prime and does not abort the other primes.  A
    module with no nonzero defect-zero submodule raises NotRegularError, an
    InputError: e = dims then has defect <delta, dim M> != 0 at every prime.
    """
    if not m.field.is_rationals:
        raise InputError("compare_transverse_loci expects a representation over the rationals")
    q_list = distinct_primes(q_list)  # checked before any census runs

    per_field = []
    counterexamples = []
    for q in q_list:
        fc, found = _compare_over(m, q)
        per_field.append(fc)
        counterexamples += found
    return TransverseComparison(per_field=per_field, counterexamples=counterexamples)


def _compare_over(m: Representation, q: int) -> tuple[FieldComparison, list]:
    """One prime's comparison and counterexamples, from one pass over each
    slice; the census is dropped on return."""
    m_q = reduce_mod_p(m, q)
    entries_by_e = census(m_q)
    try:
        comb = transverse_combinatorial(m_q, [x.point for entries in entries_by_e.values() for x in entries])
    except InternalCheckError as err:
        return FieldComparison(q=q, per_e={}, error=f"{type(err).__name__}: {err}"), []
    fc = FieldComparison(q=q, per_e={}, tube=comb.tube)
    counterexamples = []
    for e, entries in entries_by_e.items():
        n_comb = n_hom = 0
        found = []
        for entry in entries:
            in_comb = comb.contains(entry.point)
            in_hom = entry.ext_dim == 0
            n_comb += in_comb
            n_hom += in_hom
            if in_comb != in_hom:
                found.append(Counterexample(
                    q=q, e=e, point=entry.point, ext_dim=entry.ext_dim,
                    comb_flags=comb.flags(entry.point),
                    side="combinatorial_only" if in_comb else "homological_only",
                ))
        fc.per_e[e] = (n_comb, n_hom, not found)
        # the walk's order is topological, sort_key's is the declared one
        counterexamples += sorted(found, key=lambda ce: ce.point.sort_key())
    return fc, counterexamples
