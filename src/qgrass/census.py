"""Exhaustive census of quiver Grassmannians over a finite field.

For a representation M over F_q and a dimension vector e, the points of the
quiver Grassmannian are the tuples of subspaces (V_i), dim V_i = e_i, with
M_a(V_i) <= V_j for every arrow a: i -> j.  Enumeration walks the vertices
in topological order, so when V_j is chosen every in-arrow source is already
fixed, and the walk lists only the subspaces that contain their images.

Each point N gets its homological data dim Hom(N, M/N) and dim Ext^1(N, M/N)
from the rank of Delta (reps.hom_ext's map for N and M/N), without building
N or M/N.  Delta's rows for the arrows into a vertex depend only on the
spaces at their ends, so the census replays Delta along the points of
enumerate_subreps: each point keeps the elimination of the point before it
up to the first vertex, in topological order, where the two differ, writes
the rows from there on, and reads the rank.  The listing walk interns equal
spaces, so it memoizes the images M_a(N_i) by the ids of M_a and N_i, which
the replay reads, and the children of each (j, k, W); point_counts's spaces
are fresh and short-lived, so it computes its images afresh.  ext = 0 marks
N as homologically transverse, and hom is the tangent-space dimension of
the Grassmannian at N.  Point counts across several primes interpolate
exactly over Q, in Newton form, to a counting polynomial whose value at
q = 1 is the Euler characteristic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import NamedTuple

from .errors import CountNotPolynomialError, InputError, InternalCheckError
from .fields import Field, distinct_primes, next_prime
from .linalg import (
    Matrix,
    SubspaceBasis,
    _rref_rows,
    gaussian_binomial,
    kernel_basis,
    subspaces_containing,
    subspaces_meeting,
)
from .reps import Representation, hom_ext, is_subrep, reduce_mod_p, sub_quotient


class SubrepPoint(NamedTuple):
    """A point of the quiver Grassmannian: one canonical subspace per vertex."""

    spaces: tuple
    dim_vector: tuple

    def sort_key(self):
        return (self.dim_vector, tuple(s.sort_key() for s in self.spaces))

    def leq(self, other: "SubrepPoint") -> bool:
        """Containment at every vertex."""
        return all(b.contains(a) for a, b in zip(self.spaces, other.spaces))


class CensusEntry(NamedTuple):
    """One point N of a census with dim Hom(N, M/N) and dim Ext^1(N, M/N);
    ext_dim = 0 marks N as homologically transverse."""

    point: SubrepPoint
    hom_dim: int
    ext_dim: int


def enumerate_subreps(m: Representation, e=None) -> list[SubrepPoint]:
    """The e-dimensional subrepresentation points, or for e = None those of
    every e <= dims, from one walk of the subrepresentation tree.

    The walk takes the vertices in topological order.  At each vertex j it
    tries every admissible dimension k in increasing order, then the
    k-subspaces of M_j that contain W, the span of the in-arrow images, in
    SubspaceBasis.sort_key order.  So the points come out sorted by their
    per-vertex sort keys along the topological order, and each e's points
    in the same order as enumerate_subreps(m, e).  The walk is depth-first,
    so the points below one tree node are consecutive, and equal spaces are
    one object across the list, so points that share a tree node share its
    spaces by identity; census and the walk's memos rely on both.
    """
    return _walk(m, _walk_plan(m, e), {})


def _walk(m: Representation, plan, images: dict) -> list[SubrepPoint]:
    """enumerate_subreps's walk over plan, memoizing its images in images."""
    targets, ranges, order, in_arrows = plan
    out: list[SubrepPoint] = []
    # a module-level recursion, not a closure calling itself: that would be
    # a reference cycle, freed only by the cyclic collector
    _subreps_from(
        0, m, order, in_arrows, ranges, [None] * m.quiver.n, [0] * m.quiver.n,
        {t: t for t in targets}, images, {}, out,
    )
    return out


def _subreps_from(pos, m, order, in_arrows, ranges, chosen, e, shared, images, children, out):
    """Append to out the points that extend the spaces chosen at order[:pos].

    shared maps each target e, and each listed space's key, to the first
    equal object, so that points share dim_vector tuples and equal spaces.
    """
    if pos == len(order):
        out.append(SubrepPoint(spaces=tuple(chosen), dim_vector=shared[tuple(e)]))
        return
    j = order[pos]
    # at order[1] the images are a root space's, which the walk and the
    # replay each compute afresh: a memo of them measured no steady wall
    # gain and 1.1-1.2 MB more peak at check a21-ray:10 --q 3
    w, pivots = _required_span(m.field, in_arrows[j], chosen, images if pos > 1 else None)
    for k in ranges[j]:
        if k < len(w):
            continue
        e[j] = k
        if (j, k, w) not in children:
            listed = subspaces_containing(m.dims[j], k, m.field.p, w, pivots)
            children[j, k, w] = [shared.setdefault((c.ambient_dim, c.rows), c) for c in listed]
        for cand in children[j, k, w]:
            chosen[j] = cand
            _subreps_from(pos + 1, m, order, in_arrows, ranges, chosen, e, shared, images, children, out)
    chosen[j] = None


def _arrow_images(images, mat: Matrix, space: SubspaceBasis):
    """M_a = mat applied to N_i = space's rows, afresh for images = None, else
    memoized by (id(M_a), id(N_i)) as shared tuples, never reduced in place."""
    if images is None:
        return [mat.apply(row) for row in space.rows]
    key = (id(mat), id(space))
    rows = images.get(key)
    if rows is None:
        rows = images[key] = tuple([tuple(mat.apply(row)) for row in space.rows])
    return rows


def _walk_plan(m: Representation, e):
    """Targets, per-vertex dimension ranges, topological order and in-arrows
    of a walk over the given e, or over every e <= dims for e = None."""
    if e is None:
        targets = all_dim_vectors(m.dims)
        ranges = [range(d + 1) for d in m.dims]
    else:
        e = m.quiver.check_dim_vector(e)
        if any(x < 0 or x > d for x, d in zip(e, m.dims)):
            raise InputError(f"dimension vector {e} out of range for dims {m.dims}")
        targets = [e]
        ranges = [(x,) for x in e]
    if m.field.p is None:
        raise InputError("subrepresentation enumeration needs a finite field")
    quiver = m.quiver
    idx = quiver.vertex_index
    order = [idx[v] for v in quiver.topological_order]
    in_arrows = [
        [(idx[a.source], m.matrices[a.name]) for a in quiver.arrows_into(v)]
        for v in quiver.vertices
    ]
    return targets, ranges, order, in_arrows


def _required_span(field: Field, in_arrows, chosen, images) -> tuple[tuple, tuple]:
    """RREF rows and pivot columns of W, the span of the images of the
    chosen in-arrow sources, read through _arrow_images(images, ...) into a
    fresh list that _rref_rows reduces by rebinding its slots.  The rows are
    a tuple of tuples, the format of SubspaceBasis.rows, so W and a space
    share one row format.

    A subspace V_j satisfies every arrow into j exactly when it contains W.
    """
    rows = [v for i, mat in in_arrows for v in _arrow_images(images, mat, chosen[i])]
    if not rows:
        return (), ()
    pivots = _rref_rows(rows, len(rows[0]), field)
    return tuple(map(tuple, rows[: len(pivots)])), tuple(pivots)


def point_counts(m: Representation, e=None) -> dict:
    """|Gr_e(M)(F_q)| for the given e, or for every e <= dims in
    all_dim_vectors order, from one walk of the subrepresentation tree.

    Each vertex j takes every admissible dimension k at once, and its
    choices are the k-dimensional subspaces of M_j containing W, r = dim W.
    At a non-sink vertex they are listed by subspaces_containing, from the
    Schubert cells of M_j / W.  The last vertex in topological order is a
    sink, so nothing downstream constrains V_j there, and they are counted:
    there are gaussian_binomial(d_j - r, k - r) of them.  When the vertex
    before it has at most one arrow b into it, the two are counted together
    (_count_last_two); two or more parallel arrows take the listing path.
    M_b's columns and the closed form's memo serve this one call: the
    memo's increments hold for this walk's dims, ranges and prime only.
    """
    targets, ranges, order, in_arrows = _walk_plan(m, e)
    if not order:  # no vertices: the zero representation is the one point
        return {(): 1}
    counts = dict.fromkeys(targets, 0)
    into_sink = [mat for i, mat in in_arrows[order[-1]] if i == order[-2]]
    closed = (into_sink, into_sink[0].transpose().to_rows() if len(into_sink) == 1 else [], {})
    # a module-level recursion, not a closure calling itself: that would be
    # a reference cycle, freed only by the cyclic collector
    _count_from(0, m, order, in_arrows, ranges, [None] * m.quiver.n, [0] * m.quiver.n, counts, closed)
    return counts


def _count_from(pos, m, order, in_arrows, ranges, chosen, e, counts, closed):
    """Add to counts the points that extend the spaces chosen at order[:pos]."""
    j = order[pos]
    reqs, pivots = _required_span(m.field, in_arrows[j], chosen, None)
    r, d, p = len(reqs), m.dims[j], m.field.p
    if pos == len(order) - 2 and len(closed[0]) <= 1:
        _count_last_two(m, j, order[-1], in_arrows, ranges, chosen, e, counts, reqs, *closed)
        return
    for k in ranges[j]:
        if k < r:
            continue
        e[j] = k
        if pos == len(order) - 1:
            counts[tuple(e)] += gaussian_binomial(d - r, k - r, p)
            continue
        for cand in subspaces_containing(d, k, p, reqs, pivots):
            chosen[j] = cand
            _count_from(pos + 1, m, order, in_arrows, ranges, chosen, e, counts, closed)
    chosen[j] = None


def _count_last_two(m, j, sink, in_arrows, ranges, chosen, e, counts, w_rows, into_sink, b_cols, memo):
    """Add to counts the points at j = order[-2] and the sink in closed form.

    Every out-arrow of j goes to the sink, and there is at most one, b, with
    columns b_cols.  With A the span at the sink of the images from the
    other sources and f = M_b mod A : M_j -> M_sink / A (f = 0 without b),
    a choice V_j leaves the sink dim A + dim f(V_j) = dim A + k - dim(V_j ∩ K)
    to contain, K = ker f.  V_j contains W = W_j, so V_j / W is a
    (k - r)-subspace of M_j / W and meets (K + W) / W in dimension
    i = dim(V_j ∩ K) - dim(W ∩ K); subspaces_meeting counts each i.  The
    ranges, d_j, d_sink and p are fixed for one walk, so the increments
    per (k, k_sink) depend only on (r, dim A, rank f, dim(W ∩ K)): memo,
    one point_counts call's dict, maps that tuple to them.
    """
    field, p = m.field, m.field.p
    d, r, d_sink = m.dims[j], len(w_rows), m.dims[sink]
    a_rows, _ = _required_span(field, [(i, mat) for i, mat in in_arrows[sink] if i != j], chosen, None)
    a = len(a_rows)
    rank_f = f_of_w = 0
    if into_sink:
        rank_f = _rank(field, [*a_rows, *b_cols]) - a
        f_of_w = _rank(field, [*a_rows, *(into_sink[0].apply(w) for w in w_rows)]) - a
    w_in_ker = r - f_of_w
    key = (r, a, rank_f, w_in_ker)
    increments = memo.get(key)
    if increments is None:
        increments = memo[key] = {}
        meet_ambient = d - rank_f - w_in_ker  # dim (K + W) / W
        for k in ranges[j]:
            if k < r:
                continue
            ways = [subspaces_meeting(d - r, k - r, meet_ambient, i, p) for i in range(k - r + 1)]
            if sum(ways) != gaussian_binomial(d - r, k - r, p):
                raise InternalCheckError(
                    f"closed-form count at vertex {j} gave {sum(ways)} subspaces of "
                    f"F_{p}^{d - r} of dimension {k - r}"
                )
            for i, n in enumerate(ways):
                if not n:
                    continue
                r_sink = a + k - w_in_ker - i
                for k_sink in ranges[sink]:
                    if k_sink >= r_sink:
                        n_sink = n * gaussian_binomial(d_sink - r_sink, k_sink - r_sink, p)
                        increments[k, k_sink] = increments.get((k, k_sink), 0) + n_sink
    for (k, k_sink), n in increments.items():
        e[j], e[sink] = k, k_sink
        counts[tuple(e)] += n


def _rank(field: Field, rows: list) -> int:
    """The rank of rows, a fresh list that _rref_rows reduces in place."""
    return len(_rref_rows(rows, len(rows[0]), field)) if rows else 0


def all_dim_vectors(dims) -> list[tuple[int, ...]]:
    """Every e <= dims componentwise, in lexicographic order."""
    return [tuple(e) for e in product(*(range(d + 1) for d in dims))]


def census(m: Representation, e=None) -> dict:
    """Per-point homological census: each target e, every e <= dims in
    all_dim_vectors order for e = None, maps to its CensusEntry list in
    walk order, empty slices included.

    The points are enumerate_subreps(m, e), from the same walk, and each
    point's hom and ext come from the rank of Delta, replayed along them
    with the walk's images: a point keeps the echelon rows of the point
    before it up to the first position in topological order where their
    spaces differ, and writes Delta's rows from there on, so they are
    written once per tree node.  At the first point of each nonempty slice
    hom and ext must equal hom_ext(*sub_quotient(m, spaces)), or
    InternalCheckError is raised.

    Delta's domain is laid out block by block in topological order, block
    f_v in Mat((d - e)_v x e_v) from column offset[v] on.  echelon maps
    each pivot column to its row (see _reduce_into), so a point reads the
    rank of its own Delta as len(echelon).
    """
    targets, _, order, in_arrows = plan = _walk_plan(m, e)
    entries_by_e: dict = {target: [] for target in targets}
    p, n = m.field.p, len(order)
    # per position in order: Delta's columns and rows written before it,
    # the pivots it added to echelon, and per arrow a: i -> j into it what
    # the arrow's rows need from N_i: where f_i starts, e_i, the images of
    # N_i's rows, and M_a's columns at N_i's non-pivots
    cols, rows = [0] * (n + 1), [0] * (n + 1)
    added, arrows = [[] for _ in order], [[] for _ in order]
    offset, echelon, last, images = [0] * m.quiver.n, {}, None, {}
    # the memo is keyed by id, and still sound once the walk has returned:
    # every space it keys was alive at the same time as every listed space
    for point in _walk(m, plan, images):
        spaces = point.spaces
        # equal spaces are one object, so the two points share the tree
        # nodes above start; order[0] is a source, so arrows[0] stays empty,
        # and arrows[start] depends only on the spaces above it
        start = 0
        while last is not None and spaces[order[start]] is last[order[start]]:
            start += 1
        for pos in range(start, n):
            for c in added[pos]:
                del echelon[c]
        for pos in range(start, n):
            j = order[pos]
            space = spaces[j]
            if pos > start:
                arrows[pos] = []
                for i, mat in in_arrows[j]:
                    b = spaces[i]
                    free = [mat.entries[c :: mat.cols] for c in range(b.ambient_dim) if c not in b.pivots]
                    images_i = _arrow_images(images if pos > 1 else None, mat, b)
                    arrows[pos].append((offset[i], b.dim, images_i, free))
            offset[j] = cols[pos]
            cols[pos + 1] = cols[pos] + (m.dims[j] - space.dim) * space.dim
            new_rows = _delta_rows(p, space, cols[pos], cols[pos + 1], arrows[pos])
            added[pos] = _reduce_into(echelon, new_rows, p)
            rows[pos + 1] = rows[pos] + len(new_rows)
        last = spaces
        rank = len(echelon)
        entries = entries_by_e[point.dim_vector]
        if not entries and (cols[n] - rank, rows[n] - rank) != hom_ext(*sub_quotient(m, spaces)):
            raise InternalCheckError(f"tangent data disagrees with hom_ext at e = {point.dim_vector}")
        entries.append(CensusEntry(point=point, hom_dim=cols[n] - rank, ext_dim=rows[n] - rank))
    if e is None and not (len(entries_by_e[(0,) * m.quiver.n]) == len(entries_by_e[m.dims]) == 1):
        raise InternalCheckError("a full census needs exactly one point at e = 0 and one at e = dims")
    return entries_by_e


def _delta_rows(p, space, start, width, arrows) -> list[list]:
    """Delta's rows for the arrows a: i -> j into j, with N_j = space and
    f_j's block starting at column start; every row has width columns.

    The row of a at (r, c), r < (d - e)_j and c < e_i, is the derivative of
    (f_j . S_a - Q_a . f_i)[r][c], as in reps.hom_ext for Delta(N, M/N):
    column c of the sub block S_a (the coordinates of M_a b_c in N_j's
    rows) in row r of f_j, and row r of -Q_a (M_a's columns at N_i's
    non-pivots, modulo N_j, at N_j's non-pivots) in column c of f_i.
    """
    e_j = space.dim
    nonpivots = [t for t in range(space.ambient_dim) if t not in space.pivots]
    out = []
    for start_i, e_i, images, free in arrows:
        if not (nonpivots and e_i):
            continue
        sub_cols = [[v[t] for t in space.pivots] for v in images]
        residuals = [space.reduce_vector(col) for col in free]
        stop_i = start_i + len(free) * e_i
        for r, t in enumerate(nonpivots):
            minus_quot_row = [-v[t] % p for v in residuals]
            at = start + r * e_j
            for c, col in enumerate(sub_cols):
                row = [0] * width
                row[at : at + e_j] = col
                row[start_i + c : stop_i : e_i] = minus_quot_row
                out.append(row)
    return out


def _reduce_into(echelon: dict, rows, p) -> list:
    """Add to echelon the rows that are independent of it, and return their
    pivots in the order they were added.

    echelon maps a pivot column to a row that is 0 before it and 1 at it;
    its rows may be shorter than the new ones, with zeros past their end.
    Each row is reduced in place at its leading column while that is a
    pivot; a stored row is 0 before its pivot, so the leading column only
    moves right.  A row that ends up with a new pivot is stored, scaled to
    1 there, so the caller hands over rows it no longer needs.
    """
    added = []
    for v in rows:
        n, c = len(v), 0
        while True:
            while c < n and not v[c]:
                c += 1
            if c == n:
                break
            u = echelon.get(c)
            if u is None:
                g = pow(v[c], -1, p)
                echelon[c] = [x * g % p for x in v] if g != 1 else v
                added.append(c)
                break
            g, stop = v[c], len(u)
            v[c:stop] = [(x - g * y) % p for x, y in zip(v[c:stop], u[c:stop])]
    return added


class CountingPolynomial(NamedTuple):
    """Interpolated |Gr_e(M)(F_q)| as a polynomial in q.

    coefficients are ascending; the check sample is the extra prime used to
    confirm the interpolation.  euler_characteristic is the value at q = 1.
    """

    coefficients: tuple
    samples: tuple
    check_sample: tuple

    @classmethod
    def from_samples(cls, samples, check_sample) -> "CountingPolynomial":
        """Interpolate the (q, count) samples and confirm at check_sample.

        A mismatch at the check prime or a non-integer coefficient raises
        CountNotPolynomialError with the raw counts attached; a q that occurs
        twice among the samples and the check sample raises InputError.
        """
        samples, check_sample = tuple(samples), tuple(check_sample)
        qs = [q for q, _ in (*samples, check_sample)]
        if len(set(qs)) != len(qs):
            raise InputError(
                f"samples must have distinct q: samples={list(samples)}, "
                f"check sample={check_sample}"
            )
        coeffs = _interpolate([(Fraction(q), Fraction(c)) for q, c in samples])
        check_q, check_count = check_sample
        predicted = sum(c * check_q**i for i, c in enumerate(coeffs))
        if predicted != check_count or any(c.denominator != 1 for c in coeffs):
            raise CountNotPolynomialError(
                f"count not polynomial on sampled range: samples={list(samples)}, "
                f"check q={check_q} gave {check_count}, interpolation gave {predicted}",
                samples=samples,
                check_sample=check_sample,
            )
        return cls(
            coefficients=tuple(int(c) for c in coeffs),
            samples=samples,
            check_sample=check_sample,
        )

    @property
    def degree(self) -> int:
        return max(len(self.coefficients) - 1, 0)

    @property
    def euler_characteristic(self) -> int:
        return sum(self.coefficients)

    def __str__(self):
        if not self.coefficients:
            return "0"
        terms = []
        for i in range(len(self.coefficients) - 1, -1, -1):
            c = self.coefficients[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else ("-" if c == -1 else str(c))
                var = "q" if i == 1 else f"q^{i}"
                terms.append(f"{head}{var}")
        return " + ".join(terms).replace("+ -", "- ") if terms else "0"


def counting_polynomials(m: Representation, q_list, e=None) -> dict:
    """Interpolate |Gr_e(M)(F_q)| over the sampled primes, for the given e
    or for every e <= dims in all_dim_vectors order.

    One point_counts walk per prime counts every target e, and one extra
    prime (the smallest one past the samples) is counted and compared
    against the interpolation.  Each e maps to its CountingPolynomial, or
    to the CountNotPolynomialError that CountingPolynomial.from_samples
    raised for it.
    """
    if not m.field.is_rationals:
        raise InputError("counting_polynomials expects a representation over the rationals")
    primes = distinct_primes(q_list)
    primes.append(next_prime(max(primes)))
    counts = [point_counts(reduce_mod_p(m, q), e) for q in primes]
    out = {}
    for target in counts[0]:
        samples = [(q, by_e[target]) for q, by_e in zip(primes, counts)]
        try:
            out[target] = CountingPolynomial.from_samples(samples[:-1], samples[-1])
        except CountNotPolynomialError as exc:
            out[target] = exc
    return out


def brute_force_subreps(m: Representation, e) -> list[SubrepPoint]:
    """Test oracle: definition-chasing enumeration, independent of the
    Schubert-cell path.

    Per vertex, every tuple of spanning vectors is canonicalized by RREF and
    deduplicated; the cross product is then filtered by is_subrep.  Tuples
    are drawn for the smaller of e and d - e, going through the annihilator
    when e is the larger side (the pairing is a bijection on subspaces, and
    q^(d*e) raw tuples are hopeless near the size guard otherwise).
    """
    e = m.quiver.check_dim_vector(e)
    p = m.field.p
    if p is None:
        raise InputError("brute force enumeration needs a finite field")
    if m.total_dim() > 8 or p > 3:
        raise InputError("brute force guard: requires total dim <= 8 and q <= 3")

    per_vertex = []
    for d, k in zip(m.dims, e):
        vectors = [list(v) for v in product(range(p), repeat=d)]
        side = min(k, d - k)
        seen = {}
        for combo in product(vectors, repeat=side):
            basis = SubspaceBasis.from_vectors(m.field, combo, d)
            if basis.dim != side:
                continue
            if side != k:
                perp = kernel_basis(Matrix(m.field, side, d, [x for row in basis.rows for x in row]))
                basis = SubspaceBasis.from_vectors(m.field, perp.to_rows(), d)
                if basis.dim != k:
                    raise InternalCheckError(
                        f"annihilator of a {side}-space of F^{d} has dimension {basis.dim}"
                    )
            seen.setdefault(basis.sort_key(), basis)
        per_vertex.append([seen[key] for key in sorted(seen)])

    out = []
    for combo in product(*per_vertex):
        if is_subrep(m, combo):
            out.append(SubrepPoint(spaces=tuple(combo), dim_vector=e))
    return out


def _interpolate(points) -> list[Fraction]:
    """Ascending coefficients of the polynomial through the (x, y) points,
    trailing zeros trimmed: Newton divided differences, expanded by Horner's
    rule."""
    xs = [x for x, _ in points]
    diffs = [y for _, y in points]
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) / (xs[i] - xs[i - j])
    coeffs = []
    for x, d in zip(reversed(xs), reversed(diffs)):
        # coeffs * (t - x) + d
        coeffs = [a - x * b for a, b in zip([0, *coeffs], [*coeffs, 0])]
        coeffs[0] += d
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs
