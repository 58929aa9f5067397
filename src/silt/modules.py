"""Indecomposable modules over a Dynkin path algebra, and bound quiver algebras.

Modules are right modules, presented as quiver representations: one
space per vertex and one matrix per arrow, as int rows of shape (dim at
source) x (dim at target), acting on the right of row vectors; a path
acts by their product (`act_path`, `linalg.matmul`).  Indecomposables
are identified by their dimension vectors (the positive roots), and
explicit representations are built deterministically with reflection
functors on int rows: each cokernel is read off the RREF of its
reflection map, and one validated representation is built at the end.
A root that one whole admissible cycle takes to another non-simple root
(its Coxeter image) climbs back from that root's cached representation.

Also here: Hom and Ext^1 by exact linear algebra; tau^{-1} on the roots
of any Cartan rows (`_translates`: the integer Coxeter matrix and
Ringel's bijection, checked once per table), for each full subquiver
that silting's recursion visits and for the quiver, where its orbits
make one table: each indecomposable two-term object is tau^{-k}P(v) for
one vertex v and one k >= 0, counting P(v)[1] = tau^{-1}I(v).  tau reads
its predecessors there (`tau_nakayama` is the independent reference the
tests and paper-suite compare it with), and the AR quivers of mod A and
of the two-term homotopy category place its rows in ZQ^op, with classes
in K_0 as vertices: dim M for a module M and -dim P(v) for P(v)[1], in
the one order two_term_objects defines.

One algebra type serves every module computation over an algebra:
`BoundQuiverAlgebra`, a quiver with relations and its integer Cartan
rows.  The path algebra KQ is the case with no relations
(`path_algebra`); End(T) comes from `endo.endomorphism_algebra`.  The
projectives P(v) = e_v KQ/I are derived from the relations alone, by
`projectives`, and only where a resolution runs.  A resolution
alternates `minimal_cover` and `kernel_subrep` over such an algebra:
`minimal_resolution` runs that loop for the resolutions of simples over
End(T) that check classify's homology, and `minimal_presentation` takes
the first two terms over KQ, as a `TwoTermComplex`, and checks from
dimension vectors that the second is the last.  A Dynkin quiver is a
forest, so Hom(P(a), P(b)) is spanned by at most one path
(`quivers.single_path`): a `TwoTermComplex`'s differential is a matrix
of scalars, and Ext^1 and `tau_nakayama` read it as one.  Nothing here
renders: silt.cli draws the AR quivers and writes an algebra as JSON.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import accumulate, chain
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

from .linalg import (
    Matrix,
    Rows,
    cokernel_coords,
    coords_in_rows,
    kernel_basis,
    matmul,
    pivot_columns,
    rank,
    row_space_rref,
)
from .quivers import (
    PathVector,
    Quiver,
    Record,
    coxeter_matrix,
    dynkin_type,
    path_tables,
    paths_between,
    single_path,
    tits_form,
)

DimVector = Tuple[int, ...]


class QuiverRep(Record):
    """Representation of a quiver: dims per vertex, and per arrow, by id,
    its matrix as int rows, one row per basis vector at the source, each
    as wide as the dimension at the target.  A matrix with no rows is (),
    and one into a zero space is a tuple of () rows."""

    quiver: Quiver
    dims: DimVector
    mats: Tuple[Tuple[str, Rows], ...]

    def __post_init__(self):
        lut = dict(self.mats)
        for a in self.quiver.arrows:
            m, width = lut[a.id], self.dim_at(a.target)
            if len(m) != self.dim_at(a.source) or any(len(r) != width for r in m):
                raise ValueError(f"matrix shape mismatch at arrow {a.id}")
            if not set(map(type, chain.from_iterable(m))) <= {int}:
                raise TypeError("matrix entries must be ints")

    def mat(self, arrow_id: str) -> Rows:
        for aid, m in self.mats:
            if aid == arrow_id:
                return m
        raise KeyError(arrow_id)

    def dim_at(self, v: int) -> int:
        return self.dims[self.quiver.index(v)]


def make_rep(
    q: Quiver, dims: Sequence[int], mats: Dict[str, Sequence[Sequence[int]]]
) -> QuiverRep:
    ordered = tuple(sorted((a, tuple(map(tuple, m))) for a, m in mats.items()))
    return QuiverRep(q, tuple(int(d) for d in dims), ordered)


def simple_rep(q: Quiver, v: int) -> QuiverRep:
    # a quiver has no loops, so every arrow meets a zero space: one empty
    # row at v for each arrow out of v, and no row elsewhere
    mats = {a.id: [()] * (a.source == v) for a in q.arrows}
    return make_rep(q, [int(u == v) for u in q.vertices], mats)


@cache
def projective_dim_vectors(q: Quiver) -> Tuple[DimVector, ...]:
    """Row v is dim P(v): the number of paths from v to each vertex."""
    pb = paths_between(q)
    return tuple(
        tuple(len(pb[(v, u)]) for u in q.vertices) for v in q.vertices
    )


@cache
def injective_dim_vectors(q: Quiver) -> Tuple[DimVector, ...]:
    """Row v is dim I(v): the number of paths from each vertex to v."""
    return tuple(zip(*projective_dim_vectors(q)))


# --- positive roots ---

@cache
def indecomposables(q: Quiver) -> Tuple[DimVector, ...]:
    """Dimension vectors of the indecomposables: the positive roots.

    Breadth-first closure from the unit vectors, adding one simple root
    at a time and keeping vectors of Tits form 1.
    """
    dynkin_type(q)  # raises NotDynkinError when not Dynkin
    n = len(q.vertices)
    units = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    roots = set(units)
    frontier = list(units)
    while frontier:
        nxt = []
        for d in frontier:
            for i in range(n):
                cand = tuple(
                    c + 1 if j == i else c for j, c in enumerate(d)
                )
                if cand not in roots and tits_form(q, cand) == 1:
                    roots.add(cand)
                    nxt.append(cand)
        frontier = nxt
    return tuple(sorted(roots, key=lambda d: (sum(d), d)))


# --- reflection-functor construction of indecomposables ---

@cache
def _admissible_cycle(q: Quiver) -> Tuple[Tuple[int, Tuple[Tuple[str, int], ...]], ...]:
    """The steps of one admissible cycle: each vertex, by index, in an
    order in which it is a sink when its turn comes, with the arrows at
    it as (id, index of the other end), sorted by id.

    Reflecting at a sink reverses exactly the arrows at it, so after the
    whole cycle every arrow has its first orientation again, and the
    cycle repeats.
    """
    n = len(q.vertices)
    ends = {a.id: [q.index(a.source), q.index(a.target)] for a in q.arrows}
    steps: List[Tuple[int, Tuple[Tuple[str, int], ...]]] = []
    while len(steps) < n:
        done = {k for k, _ in steps}
        for k in range(n):
            if k not in done and all(s != k for s, _ in ends.values()):
                at_k = tuple(sorted((a, e[0]) for a, e in ends.items() if e[1] == k))
                steps.append((k, at_k))
                for a, _ in at_k:
                    ends[a].reverse()
                break
        else:
            raise RuntimeError("no admissible sink found (cycle?)")
    return tuple(steps)


@cache
def build_representation(q: Quiver, d: DimVector) -> QuiverRep:
    """Deterministic indecomposable representation with dimension vector d.

    d is reflected down to a simple root along the admissible cycle; the
    inverse reflection functor at each source k then climbs back.  X_k
    becomes the cokernel of X_k -> (sum of X_j over the arrows at k, by
    id), in the coordinates of the free columns of that map's RREF, read
    off the RREF by linalg.cokernel_coords.

    A whole cycle gives the quiver its own orientation back, so when the
    descent passes one with more than a simple left, it is at a positive
    root c(d), the Coxeter image of d, whose climb is the rest of d's.
    The climb then starts from the cached representation of c(d) and
    takes only the first cycle's steps back.  The Coxeter images are
    built deepest first, so each one finds the next cached, and no call
    nests more than one level.
    """
    if d not in set(indecomposables(q)):
        raise ValueError(f"{d} is not a positive root of this quiver")
    n = len(q.vertices)
    cycle = _admissible_cycle(q)
    dims = list(d)
    applied = []
    images = []  # c(d), c^2(d), ...: dims after each whole cycle
    while sum(dims) > 1:
        if applied and len(applied) % n == 0:
            images.append(tuple(dims))
        k, at_k = cycle[len(applied) % n]
        dims[k] = sum(dims[j] for _, j in at_k) - dims[k]
        if dims[k] < 0:
            raise RuntimeError("reflection left the positive cone")
        applied.append((k, at_k))
        if len(applied) > 100 * n:
            raise RuntimeError("reflection sequence did not terminate")
    # the simple's matrices all meet a zero space, so an arrow not yet
    # reached by a step has dims[k] empty rows at its end k, as it has in
    # the representation of a Coxeter image
    mats: Dict[str, Sequence[Sequence[int]]] = {}
    if images:
        for c in reversed(images):
            base = build_representation(q, c)
        dims, mats, applied = list(base.dims), dict(base.mats), applied[:n]
    for k, at_k in reversed(applied):
        blocks = [mats.get(a, [()] * dims[k]) for a, _ in at_k]
        g_rref = row_space_rref(
            [list(chain.from_iterable(rows)) for rows in zip(*blocks)]
        )
        if len(g_rref) != dims[k]:
            raise RuntimeError("reflection map not injective")
        free, image = cokernel_coords(g_rref, sum(dims[j] for _, j in at_k))
        off = 0
        for a, j in at_k:
            mats[a] = image[off : off + dims[j]]
            off += dims[j]
        dims[k] = len(free)
    if tuple(dims) != d:
        raise RuntimeError("reflection construction produced wrong dims")
    # an arrow that no step reaches still has its simple's dims at its ends
    for a in q.arrows:
        mats.setdefault(a.id, [()] * dims[q.index(a.source)])
    return make_rep(q, dims, mats)


# --- path action and Hom/Ext ---

def act_path(rep: QuiverRep, source: int, arrows: Sequence[str]) -> Rows:
    """Matrix of the right action along a path, from source's space: the
    identity along the lazy path, else the product of the arrows' matrices.
    Its row c is the image of the c-th basis vector at source."""
    if len(arrows) == 0:
        n = rep.dim_at(source)
        return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    target = {a.id: a.target for a in rep.quiver.arrows}
    m = rep.mat(arrows[0])
    for aid in arrows[1:]:
        m = matmul(m, rep.mat(aid), rep.dim_at(target[aid]))
    return m


@cache
def hom_dim(q: Quiver, m: QuiverRep, n: QuiverRep) -> int:
    """dim Hom(M, N): solution space of the arrow intertwining system."""
    if not m.quiver == n.quiver == q:
        raise ValueError("module is over a different quiver")
    *offs, total = accumulate(map(mul, m.dims, n.dims), initial=0)
    idx = {v: i for i, v in enumerate(q.vertices)}
    rows: List[List[int]] = []
    for a in q.arrows:
        j, k = idx[a.source], idx[a.target]
        ma, na = m.mat(a.id), n.mat(a.id)
        for r in range(m.dims[j]):
            for c in range(n.dims[k]):
                row = [0] * total
                # (M_a phi_k)[r,c] - (phi_j N_a)[r,c] = 0
                for s in range(m.dims[k]):
                    row[offs[k] + s * n.dims[k] + c] += ma[r][s]
                for t in range(n.dims[j]):
                    row[offs[j] + r * n.dims[j] + t] -= na[t][c]
                rows.append(row)
    return total - rank(rows, total)


# --- bound quiver algebras, projective covers, minimal resolutions ---

class BoundQuiverAlgebra(Record):
    """Basic algebra KQ/I given by its quiver (the Gabriel quiver of the
    algebra), the relations generating I, and its integer Cartan rows:
    cartan[k] is dim P(v) = dim e_v B for the k-th vertex v.  The path
    algebra KQ is the case I = 0 (`path_algebra`); the projectives
    themselves come from `projectives`.
    """

    gabriel: Quiver
    relations: Tuple[PathVector, ...]
    cartan: Tuple[DimVector, ...]

    @property
    def dimension(self) -> int:
        return sum(map(sum, self.cartan))


@cache
def path_algebra(q: Quiver) -> BoundQuiverAlgebra:
    """KQ: no relations, and P(v) has a basis of all paths from v."""
    return BoundQuiverAlgebra(q, (), projective_dim_vectors(q))


Paths = Tuple[Tuple[str, ...], ...]  # paths as arrow-id tuples


@cache
def projectives(
    b: BoundQuiverAlgebra,
) -> Tuple[Tuple[Tuple[Paths, ...], ...], Tuple[QuiverRep, ...]]:
    """The basis paths of b and its projectives P(v) = e_v B, derived
    from the quiver and the relations alone.

    e_v I e_u is the row space of the products p r p' over the relations
    r: s -> t and the paths p from v to s and p' from t to u (arrow-id
    tuples, so p r p' concatenates them), in the coordinates of the
    paths from v to u (`path_tables`, uncached).  The basis paths from v
    to u are the free columns of its RREF, and a path's coordinates are
    its image modulo e_v I e_u at those columns (linalg.cokernel_coords).
    In P(v) an arrow a sends the basis path p to p a.

    Returns (basis, reps), indexed like b.cartan: basis[k][l] lists the
    basis paths from the k-th vertex v to the l-th as arrow-id tuples,
    and reps[k] is P(v).  Raises RuntimeError when dim P(v) is not b's
    Cartan row k.
    """
    q = b.gabriel
    pb, index = path_tables(q)
    basis, reps = [], []
    for v, cartan_row in zip(q.vertices, b.cartan):
        paths_from_v, coords = [], []
        for u in q.vertices:
            paths = pb[(v, u)]
            ideal = []
            for r in b.relations:
                for p in pb[(v, r.source)]:
                    for p2 in pb[(r.target, u)]:
                        row = [0] * len(paths)
                        for arrows, c in r.terms:
                            row[index[(v, p + arrows + p2)]] = c
                        ideal.append(row)
            free, image = cokernel_coords(row_space_rref(ideal), len(paths))
            paths_from_v.append(tuple(paths[c] for c in free))
            coords.append(image)
        dims = tuple(map(len, paths_from_v))
        if dims != cartan_row:
            raise RuntimeError(
                f"P({v}) has dimension vector {dims} modulo the relations, "
                f"but the Cartan row is {cartan_row}"
            )
        mats: Dict[str, List[List[int]]] = {}
        for a in q.arrows:
            s, t = q.index(a.source), q.index(a.target)
            mats[a.id] = rows = []
            for p in paths_from_v[s]:
                rows.append(coords[t][index[(v, p + (a.id,))]])
        basis.append(tuple(paths_from_v))
        reps.append(make_rep(q, dims, mats))
    return tuple(basis), tuple(reps)


def radical_rows(rep: QuiverRep) -> List[List[List[int]]]:
    """Per-vertex RREF bases of rad M = sum of arrow images."""
    q = rep.quiver
    out = []
    for v in q.vertices:
        rows: List[List[int]] = []
        for a in q.arrows:
            if a.target == v:
                rows.extend(rep.mat(a.id))
        out.append(row_space_rref(rows))
    return out


def minimal_cover(b: BoundQuiverAlgebra, rep: QuiverRep):
    """Projective cover of rep over the algebra b.

    Returns (copies, pi).  copies holds one (vertex, column) pair per
    summand P(vertex) of the cover, for each free column of the RREF
    radical at that vertex; the summand's generator maps to the unit
    vector at that column of rep's space.  pi holds the per-vertex
    matrices of the cover map from the direct sum of those projectives in
    copy order, one row per basis vector of that sum, so their row counts
    are the cover's dimension vector.
    """
    q = b.gabriel
    rad = radical_rows(rep)
    copies: List[Tuple[int, int]] = []
    for vi, v in enumerate(q.vertices):
        pivots = pivot_columns(rad[vi])
        copies.extend(
            (v, c) for c in range(rep.dims[vi]) if c not in pivots
        )
    basis = projectives(b)[0]
    # a path sends the generator at column c to row c of its action
    act = cache(partial(act_path, rep))
    pi: List[List[List[int]]] = []
    for l, du in enumerate(rep.dims):
        rows = [
            list(act(v, arrows)[c])
            for v, c in copies
            for arrows in basis[q.index(v)][l]
        ]
        pi.append(rows)
        if rank(rows, du) != du:
            raise RuntimeError("cover map not surjective")
    return copies, pi


def _direct_sum(q: Quiver, reps: Sequence[QuiverRep]) -> QuiverRep:
    n = len(q.vertices)
    dims = [sum(r.dims[i] for r in reps) for i in range(n)]
    idx = {v: i for i, v in enumerate(q.vertices)}
    mats: Dict[str, List[Tuple[int, ...]]] = {}
    for a in q.arrows:
        ti = idx[a.target]
        mats[a.id] = rows = []
        col_offsets = accumulate((r.dims[ti] for r in reps), initial=0)
        for r, off in zip(reps, col_offsets):
            left, right = (0,) * off, (0,) * (dims[ti] - off - r.dims[ti])
            rows.extend((*left, *row, *right) for row in r.mat(a.id))
    return make_rep(q, dims, mats)


def kernel_subrep(
    b: BoundQuiverAlgebra,
    copies: Sequence[Tuple[int, int]],
    pi: Sequence[Sequence[Sequence[int]]],
):
    """Kernel of minimal_cover's map as a subrepresentation of its domain
    p0, the direct sum of b's projectives P(v) over the copies (v, _).

    pi holds the cover map's int rows at each vertex, one per basis
    vector of p0 there.  Returns (rows, krep): per-vertex RREF row bases
    inside p0's coordinates and the induced representation on those bases.
    """
    q, reps = b.gabriel, projectives(b)[1]
    p0 = _direct_sum(q, [reps[q.index(v)] for v, _ in copies])
    # the kernel is the left null space of each cover matrix, the null
    # space of its transpose: rows of width 0 transpose to 0 x len(m), and
    # with no rows the target is 0 too, since the cover is onto
    rows_per_vertex = [
        row_space_rref(
            kernel_basis(
                Matrix(len(m[0]) if m else 0, len(m), tuple(chain(*zip(*m))))
            )
        )
        for m in pi
    ]
    idx = {v: i for i, v in enumerate(q.vertices)}
    dims = [len(rows) for rows in rows_per_vertex]
    mats: Dict[str, List[List[int]]] = {}
    for a in q.arrows:
        si, ti = idx[a.source], idx[a.target]
        mats[a.id] = rows = []
        for img in matmul(rows_per_vertex[si], p0.mat(a.id), p0.dims[ti]):
            coords = coords_in_rows(img, rows_per_vertex[ti])
            if coords is None:
                raise RuntimeError("kernel is not a subrepresentation")
            rows.append(coords)
    return rows_per_vertex, make_rep(q, dims, mats)


def minimal_resolution(b: BoundQuiverAlgebra, m: QuiverRep):
    """Minimal projective resolution of m over b, one term at a time.

    Covers m, then the kernel of that cover, and so on until the kernel
    is zero.  Yields, per term P_k, minimal_cover's (vertex, column)
    pairs: the copies of P(vertex) that P_k is made of.
    """
    while any(m.dims):
        copies, pi = minimal_cover(b, m)
        _, m = kernel_subrep(b, copies, pi)
        yield copies


class TwoTermComplex(Record):
    """Complex of projectives over KQ concentrated in degrees -1 and 0.

    diff[j][i] is the component P(deg_minus1[i]) -> P(deg0[j]): the
    coefficient of the one path from deg0[j] to deg_minus1[i]
    (quivers.single_path), and 0 where no path runs.
    """

    quiver: Quiver
    deg_minus1: Tuple[int, ...]
    deg0: Tuple[int, ...]
    diff: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        known = set(self.quiver.vertices)
        for v in self.deg_minus1 + self.deg0:
            if v not in known:
                raise ValueError(f"unknown projective vertex {v}")
        if len(self.diff) != len(self.deg0):
            raise ValueError("differential has wrong number of rows")
        for b, row in zip(self.deg0, self.diff):
            if len(row) != len(self.deg_minus1):
                raise ValueError("differential has wrong number of columns")
            for a, c in zip(self.deg_minus1, row):
                if c and single_path(self.quiver, b, a) is None:
                    raise ValueError(
                        f"differential entry from P({a}) to P({b}) is "
                        f"non-zero, but no path runs from {b} to {a}"
                    )


@cache
def minimal_presentation(q: Quiver, m: QuiverRep) -> TwoTermComplex:
    """Minimal projective presentation P1 -> P0 -> M -> 0 over KQ, as the
    complex P1 -> P0: the first two terms of the resolution of M over
    path_algebra(q), which are all of it because KQ is hereditary.  The
    cover of the first syzygy K is onto, so it is injective, and K is
    projective, exactly when its dimension vector (the row counts of its
    map) is K's; RuntimeError otherwise."""
    if m.quiver != q:
        raise ValueError("module is over a different quiver")
    kq = path_algebra(q)
    copies0, krows, copies1 = (), (), ()
    if any(m.dims):
        copies0, pi = minimal_cover(kq, m)
        krows, k = kernel_subrep(kq, copies0, pi)
        # a projective M has a one-term resolution: P1 is then empty
        if any(k.dims):
            copies1, pi1 = minimal_cover(kq, k)
            if tuple(map(len, pi1)) != k.dims:
                raise RuntimeError(
                    "first syzygy is not projective (not hereditary?)"
                )
    rows: List[List[int]] = [[] for _ in copies0]
    for a, col in copies1:
        # the copy's generator, in p0's coordinates at vertex a: one
        # coordinate per copy of P(b) with a path from b to a
        coords = iter(krows[q.index(a)][col])
        for row, (b, _) in zip(rows, copies0):
            c = 0 if single_path(q, b, a) is None else next(coords)
            if c and b == a:
                raise RuntimeError("presentation not minimal")
            row.append(c)
    return TwoTermComplex(
        q,
        deg_minus1=tuple(v for v, _ in copies1),
        deg0=tuple(v for v, _ in copies0),
        diff=tuple(tuple(r) for r in rows),
    )


@cache
def ext1_dim(q: Quiver, m: QuiverRep, n: QuiverRep) -> int:
    """dim Ext^1(M, N) = coker of Hom(P0, N) -> Hom(P1, N)."""
    if not m.quiver == n.quiver == q:
        raise ValueError("module is over a different quiver")
    pres = minimal_presentation(q, m)
    dom = sum(n.dim_at(b) for b in pres.deg0)
    cod = sum(n.dim_at(a) for a in pres.deg_minus1)
    if dom == 0 or cod == 0:
        return cod
    rows: List[List[int]] = [[0] * cod for _ in range(dom)]
    roff = 0
    for b, diff_row in zip(pres.deg0, pres.diff):
        coff = 0
        for a, c in zip(pres.deg_minus1, diff_row):
            if c:
                block = act_path(n, b, single_path(q, b, a))
                for r, brow in enumerate(block, roff):
                    rows[r][coff : coff + len(brow)] = [c * e for e in brow]
            coff += n.dim_at(a)
        roff += n.dim_at(b)
    return cod - rank(rows, cod)


# --- AR translate ---

def tau_nakayama(q: Quiver, d: DimVector) -> DimVector:
    """tau M as the kernel of nu(P1) -> nu(P0); dimension vector only.

    The independent reference for `tau`: at vertex u, nu(P(a)) = I(a) has
    the basis dual to the paths from u to a, at most one.  Right
    multiplication by diff[j][i] sends the path u to b_j to that
    multiple of the path u to a_i, so the dual map I(a_i)_u -> I(b_j)_u is
    the matrix diff[j][i] over the i and j with such paths.
    """
    pres = minimal_presentation(q, build_representation(q, d))
    dims = []
    for u in q.vertices:
        rows, cols = (
            [k for k, v in enumerate(vs) if single_path(q, u, v) is not None]
            for vs in (pres.deg_minus1, pres.deg0)
        )
        mat = [[pres.diff[j][i] for j in cols] for i in rows]
        dims.append(len(rows) - rank(mat, len(cols)))
    return tuple(dims)


def _translates(
    cartan: Tuple[DimVector, ...], roots: Sequence[DimVector]
) -> Dict[int, int]:
    """tau^{-1} on the roots of the Dynkin quiver with Cartan rows cartan,
    as a map between positions in roots.

    tau sends each non-projective root d to d * Phi.  Checked on every
    call: the images are distinct and are exactly the non-injective roots
    (so each is a root), which is Ringel's bijection over a Dynkin quiver.
    """
    at = {d: i for i, d in enumerate(roots)}
    projs = set(cartan)
    moved = [i for i, d in enumerate(roots) if d not in projs]
    images = matmul(
        [roots[i] for i in moved], coxeter_matrix(cartan), len(cartan)
    )
    backward = {at.get(d): i for i, d in zip(moved, images)}
    non_injective = set(at.values()) - {at.get(c) for c in zip(*cartan)}
    if len(backward) != len(moved) or set(backward) != non_injective:
        raise RuntimeError(
            "Coxeter translate is not a bijection onto the non-injective "
            "indecomposables"
        )
    return backward


@cache
def _orbits(q: Quiver) -> Tuple[Tuple[DimVector, ...], ...]:
    """Row k is the tau^{-1}-orbit of P(v) for the k-th vertex v, as
    classes: tau^{-j}P(v) for j = 0, 1, ... up to an injective I(w), then
    tau^{-1}I(w) = P(w)[1].  Each indecomposable two-term object is in
    exactly one row."""
    roots, projs = indecomposables(q), projective_dim_vectors(q)
    tau_inv = {roots[t]: roots[i] for t, i in _translates(projs, roots).items()}
    rows = []
    for p in projs:
        orbit = [p]
        while orbit[-1] in tau_inv:
            orbit.append(tau_inv[orbit[-1]])
        w = injective_dim_vectors(q).index(orbit[-1])
        rows.append((*orbit, negated(projs[w])))
    return tuple(rows)


def tau(q: Quiver, d: DimVector) -> Optional[DimVector]:
    """Dimension vector of tau M, or None when M is projective: the orbit
    predecessor of dim M."""
    for orbit in _orbits(q):
        if d in orbit[:-1]:
            k = orbit.index(d)
            return orbit[k - 1] if k else None
    raise ValueError(f"{d} is not an indecomposable dimension vector")


# --- AR quivers ---
#
# A two-term indecomposable is its class in K_0: dim M for a module M (a
# positive root), and -dim P(v) for P(v)[1], which is negative and
# differs from vertex to vertex.

def is_shift(c: DimVector) -> bool:
    """Whether the class c is that of a shifted projective P(v)[1]."""
    return min(c) < 0


def negated(d: DimVector) -> DimVector:
    return tuple(-c for c in d)


def object_label(c: DimVector) -> str:
    """The digits of dim M for a module M, and those of dim P(v) followed
    by [1] for P(v)[1]."""
    return "".join(str(abs(e)) for e in c) + ("[1]" if is_shift(c) else "")


@cache
def two_term_objects(q: Quiver) -> Tuple[DimVector, ...]:
    """The classes of the indecomposable two-term objects, in the one
    order that the enumerations, the AR quivers and the reports follow:
    the modules in indecomposables order, then the shifted projectives
    P(v)[1] by increasing dim P(v)."""
    shifts = map(negated, sorted(projective_dim_vectors(q)))
    return indecomposables(q) + tuple(shifts)


@cache
def shift_vertex(q: Quiver) -> Dict[DimVector, int]:
    """The vertex v of each shifted class -dim P(v)."""
    return {negated(d): v for d, v in zip(projective_dim_vectors(q), q.vertices)}


class ArQuiver(Record):
    """AR quiver with irreducible-map arrows, tau pairs, and a grid layout."""

    vertices: Tuple[DimVector, ...]  # classes, as in two_term_objects
    arrows: Tuple[Tuple[DimVector, DimVector], ...]
    tau_pairs: Tuple[Tuple[DimVector, DimVector], ...]  # (M, tau M)
    layout: Tuple[Tuple[DimVector, Tuple[int, int]], ...]  # -> (col, row)


def _potential(q: Quiver) -> Dict[int, int]:
    """p(s) = p(t) + 1 for every arrow s -> t, with minimum 0 on each
    component; it exists and is unique because a Dynkin quiver is a tree."""
    pot: Dict[int, int] = {}
    for root in q.vertices:
        if root in pot:
            continue
        pot[root] = 0
        comp = [root]
        for v in comp:
            for a in q.arrows:
                if a.source == v and a.target not in pot:
                    pot[a.target] = pot[v] - 1
                    comp.append(a.target)
                elif a.target == v and a.source not in pot:
                    pot[a.source] = pot[v] + 1
                    comp.append(a.source)
        low = min(pot[v] for v in comp)
        for v in comp:
            pot[v] -= low
    return pot


@cache
def ar_quiver_two_term(q: Quiver) -> ArQuiver:
    """AR quiver of the two-term homotopy category: mod KQ plus P(v)[1],
    the tau^{-1}-orbits (`_orbits`) placed in ZQ^op.  tau^{-k}P(v) sits at
    column pot(v) + 2k in v's row, and each arrow v -> t of Q gives
    tau^{-k}P(t) -> tau^{-k}P(v) -> tau^{-k-1}P(t) wherever both ends
    exist.  Vertices go by (column, position in two_term_objects), arrows
    by target in that order, then by source position.  Checked: the
    vertex count; [X] + [tau X] is the sum of the middle terms of each
    mesh, so every arrow has multiplicity 1; a module's mesh holds no
    shift; and the shifted projectives form a copy of Q^op."""
    orbits, pot = _orbits(q), _potential(q)
    rows = sorted(q.vertices, key=lambda v: (-pot[v], q.index(v)))
    place = {
        o: (pot[v] + 2 * k, rows.index(v))
        for v, orbit in zip(q.vertices, orbits)
        for k, o in enumerate(orbit)
    }
    position = {o: i for i, o in enumerate(two_term_objects(q))}
    if len(place) != len(position):
        raise RuntimeError("two-term AR quiver has wrong vertex count")
    key = {o: (place[o][0], position[o]) for o in place}
    tau_of = {o: t for orbit in orbits for o, t in zip(orbit[1:], orbit)}
    arrows = []
    for a in q.arrows:
        s, t = orbits[q.index(a.source)], orbits[q.index(a.target)]
        arrows += [*zip(t, s), *zip(s, t[1:])]
    arrows.sort(key=lambda st: (key[st[1]], position[st[0]]))
    for o, t in tau_of.items():
        middle = [s for s, m in arrows if m == o]
        if not is_shift(o) and any(map(is_shift, middle)):
            raise RuntimeError("module mesh with shifted summand")
        if not all(a + b == sum(cs) for a, b, *cs in zip(o, t, *middle)):
            raise RuntimeError(f"mesh additivity failed at {object_label(o)}")
    vertex = shift_vertex(q)
    shifted = {
        (vertex[s], vertex[t]) for s, t in arrows if is_shift(s) and is_shift(t)
    }
    if shifted != {(a.target, a.source) for a in q.arrows}:
        raise RuntimeError("shifted projectives do not form a copy of the quiver")
    vertices = sorted(place, key=key.__getitem__)
    return ArQuiver(
        tuple(vertices),
        tuple(arrows),
        tuple((o, tau_of[o]) for o in vertices if o in tau_of),
        tuple((o, place[o]) for o in vertices),
    )


@cache
def ar_quiver_mod(q: Quiver) -> ArQuiver:
    """AR quiver of mod KQ: the full subquiver of the two-term one on the
    modules."""
    ar = ar_quiver_two_term(q)
    return ArQuiver(
        tuple(o for o in ar.vertices if not is_shift(o)),
        tuple(a for a in ar.arrows if not any(map(is_shift, a))),
        tuple(p for p in ar.tau_pairs if not any(map(is_shift, p))),
        tuple((o, xy) for o, xy in ar.layout if not is_shift(o)),
    )
