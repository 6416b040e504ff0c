"""Acyclic quivers, the Euler form, and the Coxeter transformation.

Dimension vectors are plain int tuples aligned with ``Quiver.vertices``.
Conventions (validated by the defect sign tests): matrices act on column
vectors, the Euler matrix is E = I - A with A[i][j] the number of arrows
i -> j, the Euler form is <d, e> = d^T E e, and the Coxeter matrix is
Phi = -E^{-1} E^T, so dim tau(M) = Phi . dim M for non-projective M.
Because the quiver is acyclic, A is nilpotent, so E^{-1} = I + A + ... +
A^(n-1) is an integer matrix (its (i, j) entry counts the paths i -> j) and
(E^T)^{-1} is its transpose; no division is needed.
A quiver is affine when the kernel of the symmetrized Tits form B = E + E^T
is one-dimensional and spanned by a strictly positive vector (the null
root); the defect of d is then <delta, d>.  That kernel test alone decides
it: see _affine_null_root.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .errors import InputError, InternalCheckError
from .fields import QQ
from .linalg import Matrix, kernel_basis


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
        """d as a tuple of ints; a float, str or bool entry is an InputError,
        never truncated."""
        d = tuple(d)
        try:
            if any(isinstance(x, bool) for x in d):
                raise TypeError
            d = tuple(operator.index(x) for x in d)
        except TypeError:
            raise InputError(f"dimension vector {d!r} has a non-integer entry") from None
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
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    E = [[identity[i][j] - arrow_count[i][j] for j in range(n)] for i in range(n)]
    ET = [[E[j][i] for j in range(n)] for i in range(n)]
    # E^{-1} = I + A + ... + A^(n-1) as A^n = 0, summed by Horner's rule
    Einv = identity
    for _ in range(n - 1):
        Einv = _int_matmul(arrow_count, Einv)
        for i in range(n):
            Einv[i][i] += 1
    ETinv = [[Einv[j][i] for j in range(n)] for i in range(n)]
    phi = [[-x for x in row] for row in _int_matmul(Einv, ET)]
    phi_inv = [[-x for x in row] for row in _int_matmul(ETinv, E)]
    if _int_matmul(phi, phi_inv) != identity:
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


def _affine_null_root(B: list[list[int]]) -> tuple[int, ...] | None:
    """Primitive positive generator of the radical of the symmetrized form,
    or None when the form is not affine.

    B is a symmetric generalized Cartan matrix (the quiver has no loops).
    A strictly positive kernel vector restricts to a nonzero kernel vector
    of every connected component, so with a one-dimensional kernel there is
    only one component.  A connected one with a strictly positive kernel
    vector is affine (Kac, "Infinite dimensional Lie algebras", Thm 4.3),
    hence positive semidefinite of corank 1: no test of semidefiniteness
    is needed.
    """
    n = len(B)
    frac = [[Fraction(x) for x in row] for row in B]
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
