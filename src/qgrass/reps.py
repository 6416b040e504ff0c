"""Quiver representations over an exact field: Hom/Ext dimensions,
subrepresentation and quotient construction, change of field.

Hom and Ext^1 between representations M and N come from one linear map,

    Delta : (+)_i Mat(n_i x m_i)  ->  (+)_{a: i->j} Mat(n_j x m_i),
    Delta(f)_a = f_j . M_a - N_a . f_i,

whose kernel is Hom(M, N) and whose cokernel is Ext^1(M, N); path algebras
of acyclic quivers are hereditary, so nothing higher survives.  Whatever the
rank, hom - ext = dim(domain) - dim(codomain), which is the Euler form
<dim M, dim N>; so the check of that identity that hom_ext makes on every
call catches a mis-sized Delta, never a wrong entry.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InputError, InternalCheckError
from .fields import Field
from .linalg import Matrix, SubspaceBasis, rref
from .quiver import Quiver, euler_form


class Representation:
    """Per-vertex dimensions plus one matrix per arrow.

    The matrix of an arrow a: i -> j has shape dims[j] x dims[i] and acts on
    column vectors of the source vertex space.
    """

    __slots__ = ("quiver", "field", "dims", "matrices")

    def __init__(self, quiver: Quiver, field: Field, dims, matrices: dict):
        dims = quiver.check_dim_vector(dims)
        if any(d < 0 for d in dims):
            raise InputError("negative dimension")
        idx = quiver.vertex_index
        for a in quiver.arrows:
            mat = matrices.get(a.name)
            if mat is None:
                raise InputError(f"missing matrix for arrow {a.name!r}")
            want = (dims[idx[a.target]], dims[idx[a.source]])
            if (mat.rows, mat.cols) != want:
                raise InputError(
                    f"arrow {a.name!r}: matrix is {mat.rows}x{mat.cols}, expected {want[0]}x{want[1]}"
                )
            if mat.field != field:
                raise InputError(f"arrow {a.name!r}: matrix field {mat.field!r} != {field!r}")
        if set(matrices) != {a.name for a in quiver.arrows}:
            extra = set(matrices) - {a.name for a in quiver.arrows}
            raise InputError(f"matrices for unknown arrows: {sorted(extra)}")
        self.quiver = quiver
        self.field = field
        self.dims = dims
        self.matrices = dict(matrices)

    def total_dim(self) -> int:
        return sum(self.dims)

    def __repr__(self):
        return f"Representation(dims={self.dims}, field={self.field!r})"


class HomExtResult(NamedTuple):
    hom_dim: int
    ext_dim: int


def hom_ext(m: Representation, n: Representation) -> HomExtResult:
    """dim Hom(m, n) and dim Ext^1(m, n) via the rank of Delta.  A Delta of
    the wrong shape breaks the Euler identity and raises InternalCheckError."""
    if m.quiver != n.quiver:
        raise InputError("representations live on different quivers")
    if m.field != n.field:
        raise InputError("representations live over different fields")
    quiver = m.quiver
    field = m.field
    idx = quiver.vertex_index
    mdims, ndims = m.dims, n.dims

    dom_offset = []
    total = 0
    for i in range(quiver.n):
        dom_offset.append(total)
        total += ndims[i] * mdims[i]
    dom_total = total

    rows = []
    for a in quiver.arrows:
        i, j = idx[a.source], idx[a.target]
        ma, na = m.matrices[a.name], n.matrices[a.name]
        mi, mj, ni, nj = mdims[i], mdims[j], ndims[i], ndims[j]
        off_i, off_j = dom_offset[i], dom_offset[j]
        for r in range(nj):
            for c in range(mi):
                row = [field.zero] * dom_total
                # d/d f_j[r][k] of (f_j . M_a)[r][c]
                for k in range(mj):
                    row[off_j + r * mj + k] += ma.at(k, c)
                # d/d f_i[k][c] of -(N_a . f_i)[r][c]
                for k in range(ni):
                    row[off_i + k * mi + c] -= na.at(r, k)
                if field.p is not None:
                    row = [x % field.p for x in row]
                rows.append(row)
    cod_total = len(rows)

    if dom_total == 0 or cod_total == 0:
        rank = 0
    else:
        rank = rref(Matrix.from_rows(field, rows)).rank
    hom = dom_total - rank
    ext = cod_total - rank
    if hom - ext != euler_form(quiver, mdims, ndims):
        raise InternalCheckError(
            f"hom - ext = {hom} - {ext} differs from the Euler form <{mdims}, {ndims}>"
        )
    return HomExtResult(hom, ext)


def is_rigid(m: Representation) -> bool:
    return hom_ext(m, m).ext_dim == 0


def is_subrep(m: Representation, spaces) -> bool:
    """Do the given per-vertex subspaces form a subrepresentation of m?"""
    spaces = _check_spaces(m, spaces)
    idx = m.quiver.vertex_index
    for a in m.quiver.arrows:
        mat = m.matrices[a.name]
        src, tgt = spaces[idx[a.source]], spaces[idx[a.target]]
        for row in src.rows:
            if not tgt.contains_vector(mat.apply(row)):
                return False
    return True


def sub_quotient(m: Representation, spaces) -> tuple[Representation, Representation]:
    """The subrepresentation carried by the spaces, and the quotient by it.

    Sub coordinates are the RREF basis rows.  Quotient coordinates are the
    non-pivot ambient coordinates: each RREF basis extends to a full basis by
    unit vectors in the non-pivot positions, and the class of a vector v is
    read off by eliminating pivot coordinates and restricting to non-pivots.
    Different canonical choices change the matrices only by isomorphism.
    Each image M_a b of a sub basis row is computed once: its residual checks
    membership, and its entries at the target's pivots are its coordinates.
    """
    spaces = _check_spaces(m, spaces)
    quiver, field = m.quiver, m.field
    idx = quiver.vertex_index
    sub_dims = tuple(s.dim for s in spaces)
    quot_dims = tuple(d - s.dim for d, s in zip(m.dims, spaces))
    nonpivots = []
    for s in spaces:
        pivots = set(s.pivots)
        nonpivots.append([c for c in range(s.ambient_dim) if c not in pivots])

    sub_mats = {}
    quot_mats = {}
    for a in quiver.arrows:
        i, j = idx[a.source], idx[a.target]
        mat = m.matrices[a.name]
        si, sj = spaces[i], spaces[j]

        images = [mat.apply(row) for row in si.rows]
        if any(any(sj.reduce_vector(v)) for v in images):
            raise InputError("the given spaces are not a subrepresentation")
        sub_entries = [v[t] for t in sj.pivots for v in images]
        sub_mats[a.name] = Matrix(field, sub_dims[j], sub_dims[i], sub_entries)

        # the columns of M_a at the non-pivots, modulo the target space
        residuals = [sj.reduce_vector(mat.entries[c :: mat.cols]) for c in nonpivots[i]]
        quot_entries = [v[t] for t in nonpivots[j] for v in residuals]
        quot_mats[a.name] = Matrix(field, quot_dims[j], quot_dims[i], quot_entries)

    sub = Representation(quiver, field, sub_dims, sub_mats)
    quot = Representation(quiver, field, quot_dims, quot_mats)
    return sub, quot


def reduce_mod_p(m: Representation, p: int) -> Representation:
    """Entrywise reduction of a rational representation modulo a prime."""
    if not m.field.is_rationals:
        raise InputError("reduce_mod_p expects a representation over the rationals")
    fp = Field.prime(p)
    mats = {}
    for a in m.quiver.arrows:
        mat = m.matrices[a.name]
        entries = []
        for pos, x in enumerate(mat.entries):
            if x.denominator % p == 0:
                r, c = divmod(pos, mat.cols)
                raise InputError(
                    f"arrow {a.name!r} entry ({r},{c}) = {x} has denominator divisible by {p}"
                )
            entries.append((x.numerator * pow(x.denominator, -1, p)) % p)
        mats[a.name] = Matrix(fp, mat.rows, mat.cols, entries)
    return Representation(m.quiver, fp, m.dims, mats)


def direct_sum(m: Representation, n: Representation) -> Representation:
    if m.quiver != n.quiver or m.field != n.field:
        raise InputError("direct sum needs matching quiver and field")
    quiver, field = m.quiver, m.field
    idx = quiver.vertex_index
    dims = tuple(a + b for a, b in zip(m.dims, n.dims))
    mats = {}
    for a in quiver.arrows:
        i, j = idx[a.source], idx[a.target]
        ma, na = m.matrices[a.name], n.matrices[a.name]
        rows = []
        for r in range(ma.rows):
            rows.append(ma.row(r) + [field.zero] * na.cols)
        for r in range(na.rows):
            rows.append([field.zero] * ma.cols + na.row(r))
        mats[a.name] = Matrix(field, dims[j], dims[i], [x for row in rows for x in row])
    return Representation(quiver, field, dims, mats)


def _check_spaces(m: Representation, spaces) -> tuple[SubspaceBasis, ...]:
    spaces = tuple(spaces)
    if len(spaces) != m.quiver.n:
        raise InputError(f"expected {m.quiver.n} subspaces, got {len(spaces)}")
    for d, s in zip(m.dims, spaces):
        if s.ambient_dim != d:
            raise InputError(f"subspace ambient {s.ambient_dim} does not match vertex dimension {d}")
        if s.field != m.field:
            raise InputError("subspace field mismatch")
    return spaces

