"""Dense exact linear algebra and canonical subspace enumeration.

Everything here is exact: Gauss-Jordan elimination over Fraction entries or
over residues mod p, reduced row echelon form as the canonical representative
of a row space, and the Schubert-cell enumeration of all e-dimensional
subspaces of F_q^d.  Matrices are immutable once built.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from typing import NamedTuple

from .errors import InputError, InternalCheckError
from .fields import Field


class Matrix:
    """Immutable dense matrix with row-major entries over an exact field."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, rows: int, cols: int, entries):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise InputError(
                f"entry count {len(entries)} does not match shape {rows}x{cols}"
            )
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, field: Field, row_lists) -> "Matrix":
        row_lists = [list(r) for r in row_lists]
        rows = len(row_lists)
        cols = len(row_lists[0]) if row_lists else 0
        flat = []
        for r in row_lists:
            if len(r) != cols:
                raise InputError("ragged rows")
            flat.extend(r)
        return cls(field, rows, cols, flat)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        one, zero = field.one, field.zero
        return cls(field, n, n, [one if i == j else zero for i in range(n) for j in range(n)])

    def at(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list:
        return list(self.entries[i * self.cols : (i + 1) * self.cols])

    def to_rows(self) -> list[list]:
        return [self.row(i) for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        return Matrix(
            self.field,
            self.cols,
            self.rows,
            [self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)],
        )

    def mul(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise InputError("field mismatch in matrix product")
        if self.cols != other.rows:
            raise InputError(f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        f = self.field
        out = []
        for i in range(self.rows):
            base = i * self.cols
            for j in range(other.cols):
                acc = f.zero
                for k in range(self.cols):
                    acc += self.entries[base + k] * other.entries[k * other.cols + j]
                out.append(acc % f.p if f.p is not None else acc)
        return Matrix(f, self.rows, other.cols, out)

    def apply(self, vec) -> list:
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise InputError(f"vector length {len(vec)} does not match {self.cols} columns")
        f = self.field
        out = []
        for i in range(self.rows):
            base = i * self.cols
            acc = f.zero
            for k in range(self.cols):
                acc += self.entries[base + k] * vec[k]
            out.append(acc % f.p if f.p is not None else acc)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.to_rows()})"


class RrefResult(NamedTuple):
    matrix: Matrix
    rank: int
    pivots: tuple


def _rref_rows(rows: list[list], ncols: int, field: Field) -> list[int]:
    """Gauss-Jordan in place of the list's slots, never of a row's entries; returns the pivot columns."""
    p = field.p
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        if r == nrows:
            break
        piv = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
        head = rows[r]
        f = head[c]
        if f != field.one:
            finv = field.inv(f)
            if p is not None:
                rows[r] = head = [(x * finv) % p for x in head]
            else:
                rows[r] = head = [x * finv for x in head]
        for i in range(nrows):
            if i == r:
                continue
            g = rows[i][c]
            if g != 0:
                if p is not None:
                    rows[i] = [(x - g * y) % p for x, y in zip(rows[i], head)]
                else:
                    rows[i] = [x - g * y for x, y in zip(rows[i], head)]
        pivots.append(c)
        r += 1
    return pivots


def rref(m: Matrix) -> RrefResult:
    """Reduced row echelon form of m, its rank, and its pivot columns."""
    rows = m.to_rows()
    pivots = _rref_rows(rows, m.cols, m.field)
    flat = [x for row in rows for x in row]
    return RrefResult(Matrix(m.field, m.rows, m.cols, flat), len(pivots), tuple(pivots))


def kernel_basis(m: Matrix) -> Matrix:
    """Basis of the right kernel {v : m v = 0}, one vector per row.

    The rows are the standard kernel vectors read off the RREF: one per
    free column, with a 1 in that column.  Row count = cols - rank.
    """
    red, rank, pivots = rref(m)
    f = m.field
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    rows = []
    for c in free:
        v = [f.zero] * m.cols
        v[c] = f.one
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(red.at(r, c))
        rows.append(v)
    return Matrix(f, len(rows), m.cols, [x for row in rows for x in row])


class SubspaceBasis:
    """A subspace of F^d in canonical coordinates: its RREF basis rows.

    rows is a tuple of tuples of length d, the format of W's rows in
    census._required_span.  The RREF with full row rank is the unique
    canonical representative of its row space, so equality of subspaces is
    equality of rows.
    """

    __slots__ = ("field", "ambient_dim", "dim", "rows", "pivots")

    def __init__(self, field: Field, ambient_dim: int, rows, pivots=None):
        rows = tuple(map(tuple, rows))  # keeps tuple rows, shared by cells, as they are
        if any(len(row) != ambient_dim for row in rows):
            raise InputError(f"a basis row does not have length {ambient_dim}")
        if pivots is None:
            pivots = _leading_columns(field, ambient_dim, rows)
        self.field = field
        self.ambient_dim = ambient_dim
        self.dim = len(rows)
        self.rows = rows
        self.pivots = tuple(pivots)

    @classmethod
    def from_vectors(cls, field: Field, vectors, ambient_dim: int) -> "SubspaceBasis":
        """Canonicalize the span of the vectors (zero rows dropped)."""
        rows = [list(v) for v in vectors]
        if any(len(v) != ambient_dim for v in rows):
            raise InputError(f"a vector does not have length {ambient_dim}")
        pivots = _rref_rows(rows, ambient_dim, field)
        return cls(field, ambient_dim, rows[: len(pivots)], pivots)

    @classmethod
    def zero(cls, field: Field, ambient_dim: int) -> "SubspaceBasis":
        return cls(field, ambient_dim, (), ())

    @classmethod
    def full(cls, field: Field, ambient_dim: int) -> "SubspaceBasis":
        return cls(field, ambient_dim, Matrix.identity(field, ambient_dim).to_rows(), range(ambient_dim))

    def reduce_vector(self, v) -> list:
        """Residual of v after eliminating all pivot coordinates.

        Zero residual iff v lies in the subspace; relies on the basis being
        in RREF so the coefficient on row r is just v[pivots[r]].
        """
        if len(v) != self.ambient_dim:
            raise InputError(f"vector length {len(v)} does not match ambient {self.ambient_dim}")
        p = self.field.p
        w = list(v)
        for pc, row in zip(self.pivots, self.rows):
            coeff = w[pc]
            if coeff != 0:
                if p is not None:
                    w = [(x - coeff * y) % p for x, y in zip(w, row)]
                else:
                    w = [x - coeff * y for x, y in zip(w, row)]
        return w

    def contains_vector(self, v) -> bool:
        return all(x == 0 for x in self.reduce_vector(v))

    def contains(self, other: "SubspaceBasis") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise InputError("ambient dimension mismatch")
        if other.dim > self.dim:
            return False
        return all(self.contains_vector(row) for row in other.rows)

    def sort_key(self):
        return (self.dim, self.pivots, self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, SubspaceBasis)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.rows))

    def __repr__(self):
        return f"SubspaceBasis(dim={self.dim}, ambient={self.ambient_dim}, rows={list(map(list, self.rows))})"


def _leading_columns(field: Field, ambient_dim: int, rows: tuple) -> tuple:
    """Pivot columns of rows that must already be canonical RREF: rows of
    full rank that Gauss-Jordan leaves as they are."""
    reduced = list(rows)
    pivots = _rref_rows(reduced, ambient_dim, field)
    if len(pivots) != len(rows) or tuple(map(tuple, reduced)) != rows:
        raise InputError("basis matrix is not in reduced row echelon form")
    return tuple(pivots)


@lru_cache(maxsize=None)
def _subspaces_cached(ambient_dim: int, dim: int, p: int) -> tuple:
    """Every dim-dimensional subspace of F_p^ambient_dim once, by Schubert
    cell: pivot sets in lexicographic order, free entries in odometer order
    (last slot fastest).  The count is the Gaussian binomial.

    Each cell's rows are the product of its rows' choices, and equal rows
    are one tuple across all cells: Gr(2, 5) over F_5 holds 20,306 cells
    with only 525 distinct rows."""
    field = Field.prime(p)
    zero, one = field.zero, field.one
    rows_seen: dict = {}
    out = []
    for pivots in combinations(range(ambient_dim), dim):
        pivot_set = set(pivots)
        per_row = []
        for pc in pivots:
            # free slots: to the right of the row's pivot, avoiding pivot columns
            free = [c for c in range(pc + 1, ambient_dim) if c not in pivot_set]
            choices = []
            for values in product(range(p), repeat=len(free)):
                row = [zero] * ambient_dim
                row[pc] = one
                for c, val in zip(free, values):
                    row[c] = val
                row = tuple(row)
                choices.append(rows_seen.setdefault(row, row))
            per_row.append(choices)
        out.extend(SubspaceBasis(field, ambient_dim, rows, pivots) for rows in product(*per_row))
    return tuple(out)


def subspaces_containing(ambient_dim: int, dim: int, p: int, w_rows, w_pivots) -> list[SubspaceBasis]:
    """The dim-dimensional subspaces of F_p^ambient_dim that contain W, in
    SubspaceBasis.sort_key order, so the same list as the cells of
    _subspaces_cached(ambient_dim, dim, p) that contain W.

    w_rows are W's RREF rows, in the format of SubspaceBasis.rows (as
    census._required_span returns them), and w_pivots their pivot columns;
    dim must be at least r = dim W.  The cells of Gr(dim - r, ambient_dim -
    r), put on the non-pivot columns of W, are the subspaces of
    F_p^ambient_dim / W.  Each is lifted, and W's rows, with their entries
    at its pivot columns cleared, are added to its rows: the RREF of its
    preimage, found without scanning the other cells.
    """
    r = len(w_rows)
    if r == 0:
        return list(_subspaces_cached(ambient_dim, dim, p))
    field = Field.prime(p)
    free = [c for c in range(ambient_dim) if c not in w_pivots]
    out = []
    for cell in _subspaces_cached(ambient_dim - r, dim - r, p):
        lifted = []
        for pc, cell_row in zip(cell.pivots, cell.rows):
            row = [0] * ambient_dim
            for c, x in zip(free, cell_row):
                row[c] = x
            lifted.append((free[pc], row))
        by_pivot = dict(lifted)
        for pc, w in zip(w_pivots, w_rows):
            for c, u in lifted:
                g = w[c]
                if g:
                    w = [(x - g * y) % p for x, y in zip(w, u)]
            by_pivot[pc] = w
        pivots = sorted(by_pivot)
        out.append(SubspaceBasis(field, ambient_dim, [by_pivot[pc] for pc in pivots], pivots))
    # a cleared row of W depends on the cell's free entries, so only the
    # pivot order of the cells carries over, not their odometer order
    out.sort(key=SubspaceBasis.sort_key)
    return out


def gaussian_binomial(d: int, e: int, q: int) -> int:
    """Number of e-dimensional subspaces of F_q^d."""
    if not 0 <= e <= d:
        raise InputError(f"requires 0 <= e <= d, got e={e}, d={d}")
    if q < 2:
        raise InputError("q must be at least 2")
    num = 1
    den = 1
    for i in range(e):
        num *= q ** (d - i) - 1
        den *= q ** (e - i) - 1
    if num % den:
        raise InternalCheckError(f"Gaussian binomial [{d} choose {e}]_{q} is not an integer")
    return num // den


def subspaces_meeting(d: int, e: int, m: int, i: int, q: int) -> int:
    """Number of e-dimensional subspaces U of F_q^d that meet a fixed
    m-dimensional subspace K in dimension i.

    U ∩ K is one of the [m, i] i-subspaces of K, and U / (U ∩ K) is an
    (e - i)-subspace of F_q^d / (U ∩ K) meeting K / (U ∩ K) in 0: there are
    q^((e - i)(m - i)) [d - m, e - i] of those (Schubert cells).
    """
    if not (0 <= e <= d and 0 <= m <= d):
        raise InputError(f"requires 0 <= e, m <= d, got e={e}, m={m}, d={d}")
    if not (0 <= i <= min(e, m) and e - i <= d - m):
        return 0
    return q ** ((e - i) * (m - i)) * gaussian_binomial(m, i, q) * gaussian_binomial(d - m, e - i, q)
