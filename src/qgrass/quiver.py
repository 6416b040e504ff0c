"""Acyclic quivers, the Euler form, and the Coxeter transformation.

Dimension vectors are plain int tuples aligned with ``Quiver.vertices``.
Conventions (validated by the defect sign tests): matrices act on column
vectors, the Euler matrix is E = I - A with A[i][j] the number of arrows
i -> j, the Euler form is <d, e> = d^T E e, and the Coxeter matrix is
Phi = -E^{-1} E^T, so dim tau(M) = Phi . dim M for non-projective M.
A quiver is affine when the symmetrized Tits form is positive semidefinite
with a one-dimensional radical spanned by a strictly positive vector (the
null root); the defect of d is then <delta, d>.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import NamedTuple

from .errors import InputError, InternalCheckError
from .fields import QQ
from .linalg import Matrix, kernel_basis, rref


class Arrow(NamedTuple):
    name: str
    source: str
    target: str


class Quiver:
    """A finite acyclic directed graph with named vertices and arrows."""

    __slots__ = ("vertices", "arrows", "vertex_index", "topological_order")

    def __init__(self, vertices, arrows):
        vertices = tuple(vertices)
        if len(set(vertices)) != len(vertices):
            raise InputError("duplicate vertex ids")
        arrows = tuple(Arrow(*a) for a in arrows)
        names = [a.name for a in arrows]
        if len(set(names)) != len(names):
            raise InputError("duplicate arrow ids")
        vset = set(vertices)
        for a in arrows:
            if a.source not in vset:
                raise InputError(f"arrow {a.name!r} has unknown source {a.source!r}")
            if a.target not in vset:
                raise InputError(f"arrow {a.name!r} has unknown target {a.target!r}")
        self.vertices = vertices
        self.arrows = arrows
        self.vertex_index = {v: i for i, v in enumerate(vertices)}
        self.topological_order = self._topological_order()

    def _topological_order(self) -> tuple:
        # Kahn's algorithm, ties broken by declaration order (deterministic)
        indeg = {v: 0 for v in self.vertices}
        for a in self.arrows:
            indeg[a.target] += 1
        order = []
        ready = [v for v in self.vertices if indeg[v] == 0]
        while ready:
            v = ready.pop(0)
            order.append(v)
            for a in self.arrows:
                if a.source == v:
                    indeg[a.target] -= 1
                    if indeg[a.target] == 0:
                        ready.append(a.target)
        if len(order) != len(self.vertices):
            raise InputError("quiver has a directed cycle")
        return tuple(order)

    @property
    def n(self) -> int:
        return len(self.vertices)

    def arrows_into(self, v) -> list[Arrow]:
        return [a for a in self.arrows if a.target == v]

    def check_dim_vector(self, d) -> tuple[int, ...]:
        d = tuple(int(x) for x in d)
        if len(d) != self.n:
            raise InputError(f"dimension vector has length {len(d)}, expected {self.n}")
        return d

    def __eq__(self, other):
        return (
            isinstance(other, Quiver)
            and self.vertices == other.vertices
            and self.arrows == other.arrows
        )

    def __hash__(self):
        return hash((self.vertices, self.arrows))

    def __repr__(self):
        arrows = ", ".join(f"{a.source}->{a.target}" for a in self.arrows)
        return f"Quiver({list(self.vertices)}; {arrows})"


def euler_form(quiver: Quiver, d, e) -> int:
    """<d, e> = sum_i d_i e_i - sum_{a: i->j} d_i e_j."""
    d = quiver.check_dim_vector(d)
    e = quiver.check_dim_vector(e)
    total = sum(di * ei for di, ei in zip(d, e))
    idx = quiver.vertex_index
    for a in quiver.arrows:
        total -= d[idx[a.source]] * e[idx[a.target]]
    return total


@dataclass(frozen=True)
class EulerData:
    """Euler matrix, Coxeter matrix and its inverse, and affine data."""

    quiver: Quiver
    euler_matrix: tuple
    coxeter_matrix: tuple
    coxeter_inverse: tuple
    is_affine: bool
    null_root: tuple | None


def compute_euler_data(quiver: Quiver) -> EulerData:
    n = quiver.n
    idx = quiver.vertex_index
    arrow_count = [[0] * n for _ in range(n)]
    for a in quiver.arrows:
        arrow_count[idx[a.source]][idx[a.target]] += 1
    E = [[(1 if i == j else 0) - arrow_count[i][j] for j in range(n)] for i in range(n)]
    ET = [[E[j][i] for j in range(n)] for i in range(n)]
    Einv = _integer_inverse(E)
    ETinv = _integer_inverse(ET)
    phi = [[-x for x in row] for row in _int_matmul(Einv, ET)]
    phi_inv = [[-x for x in row] for row in _int_matmul(ETinv, E)]
    if _int_matmul(phi, phi_inv) != [[int(i == j) for j in range(n)] for i in range(n)]:
        raise InternalCheckError("the Coxeter matrix times its inverse is not the identity")

    B = [[E[i][j] + E[j][i] for j in range(n)] for i in range(n)]
    null_root = _affine_null_root(B)

    return EulerData(
        quiver=quiver,
        euler_matrix=tuple(tuple(r) for r in E),
        coxeter_matrix=tuple(tuple(r) for r in phi),
        coxeter_inverse=tuple(tuple(r) for r in phi_inv),
        is_affine=null_root is not None,
        null_root=null_root,
    )


def defect(euler_data: EulerData, d) -> int:
    """<delta, d>: negative on preprojectives, zero on regulars,
    positive on preinjectives."""
    if not euler_data.is_affine:
        raise InputError("defect is only defined for affine quivers")
    return euler_form(euler_data.quiver, euler_data.null_root, d)


def coxeter_apply(euler_data: EulerData, d, power: int = 1) -> tuple[int, ...]:
    """Phi^power . d as an integer vector (entries may go negative)."""
    d = euler_data.quiver.check_dim_vector(d)
    mat = euler_data.coxeter_matrix if power >= 0 else euler_data.coxeter_inverse
    v = list(d)
    for _ in range(abs(power)):
        v = [sum(mat[i][j] * v[j] for j in range(len(v))) for i in range(len(v))]
    return tuple(v)


def _int_matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    n, m, k = len(a), len(b[0]) if b else 0, len(b)
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


def _integer_inverse(mat: list[list[int]]) -> list[list[int]]:
    """Exact inverse of a unimodular integer matrix."""
    n = len(mat)
    aug = Matrix.from_rows(
        QQ,
        [
            [Fraction(mat[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
            for i in range(n)
        ],
    )
    red, rank, _ = rref(aug)
    if rank != n:
        raise InputError("matrix is singular")
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            x = red.at(i, n + j)
            if x.denominator != 1:
                raise InputError("matrix inverse is not integral")
            row.append(x.numerator)
        out.append(row)
    return out


def _det(mat: list[list[Fraction]]) -> Fraction:
    m = [row[:] for row in mat]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return det


def _affine_null_root(B: list[list[int]]) -> tuple[int, ...] | None:
    """Primitive positive generator of the radical of the symmetrized form,
    or None when the form is not affine.

    Positive semidefiniteness of a symmetric matrix is checked exactly via
    all principal minors (exponential in size; fine at desk scale).
    """
    n = len(B)
    frac = [[Fraction(x) for x in row] for row in B]
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            minor = [[frac[i][j] for j in subset] for i in subset]
            if _det(minor) < 0:
                return None
    kernel = kernel_basis(Matrix.from_rows(QQ, frac) if n else Matrix(QQ, 0, 0, []))
    if kernel.rows != 1:
        return None
    row = kernel.row(0)
    scale = 1
    for x in row:
        scale = scale * x.denominator // gcd(scale, x.denominator)
    ints = [int(x * scale) for x in row]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    ints = [x // g for x in ints]
    if all(x < 0 for x in ints):
        ints = [-x for x in ints]
    if not all(x > 0 for x in ints):
        return None
    return tuple(ints)
