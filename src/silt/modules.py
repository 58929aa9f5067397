"""Indecomposable modules over a Dynkin path algebra.

Modules are right modules, presented as quiver representations: one
space per vertex and one matrix per arrow of shape (dim at source) x
(dim at target), acting on the right of row vectors.  Indecomposables
are identified by their dimension vectors (the positive roots), and
explicit representations are built deterministically with reflection
functors, normalizing every kernel and cokernel with reduced row
echelon bases.

Also here: Hom and Ext^1 by exact linear algebra, the AR translate
(Coxeter matrix with a projectivity guard, cross-checked against the
Nakayama construction), minimal projective presentations, and the AR
quivers of mod A and of the two-term homotopy category.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cache
from typing import Dict, List, Optional, Sequence, Tuple

from .linalg import (
    RatMatrix,
    coords_in_rows,
    identity,
    kernel_basis,
    pivot_columns,
    rank,
    reduce_by_rref,
    row_space_rref,
)
from .quivers import (
    NotDynkinError,
    Path,
    PathVector,
    Quiver,
    cartan_matrix,
    coxeter_matrix,
    dynkin_type,
    paths_between,
    tits_form,
)

DimVector = Tuple[int, ...]


@dataclass(frozen=True)
class QuiverRep:
    """Representation of a quiver: dims per vertex, one matrix per arrow."""

    quiver: Quiver
    dims: DimVector
    mats: Tuple[Tuple[str, RatMatrix], ...]

    def __post_init__(self):
        idx = {v: i for i, v in enumerate(self.quiver.vertices)}
        lut = dict(self.mats)
        for a in self.quiver.arrows:
            m = lut[a.id]
            if (m.rows, m.cols) != (
                self.dims[idx[a.source]],
                self.dims[idx[a.target]],
            ):
                raise ValueError(f"matrix shape mismatch at arrow {a.id}")

    def mat(self, arrow_id: str) -> RatMatrix:
        for aid, m in self.mats:
            if aid == arrow_id:
                return m
        raise KeyError(arrow_id)

    def dim_at(self, v: int) -> int:
        return self.dims[self.quiver.index(v)]


def make_rep(q: Quiver, dims: Sequence[int], mats: Dict[str, RatMatrix]) -> QuiverRep:
    ordered = tuple(sorted(mats.items()))
    return QuiverRep(q, tuple(int(d) for d in dims), ordered)


def simple_rep(q: Quiver, v: int) -> QuiverRep:
    dims = [1 if u == v else 0 for u in q.vertices]
    idx = {u: i for i, u in enumerate(q.vertices)}
    mats = {
        a.id: RatMatrix(dims[idx[a.source]], dims[idx[a.target]], tuple())
        if dims[idx[a.source]] * dims[idx[a.target]] == 0
        else RatMatrix(1, 1, (Q(0),))
        for a in q.arrows
    }
    return make_rep(q, dims, mats)


@cache
def projective_rep(q: Quiver, v: int) -> QuiverRep:
    """P(v) = e_v A; basis at vertex u is the canonical list of paths v to u."""
    pb = paths_between(q)
    dims = [len(pb[(v, u)]) for u in q.vertices]
    mats: Dict[str, RatMatrix] = {}
    for a in q.arrows:
        src_paths = pb[(v, a.source)]
        tgt_paths = pb[(v, a.target)]
        tgt_index = {p.arrows: i for i, p in enumerate(tgt_paths)}
        ent = [[Q(0)] * len(tgt_paths) for _ in src_paths]
        for i, p in enumerate(src_paths):
            ent[i][tgt_index[p.arrows + (a.id,)]] = Q(1)
        mats[a.id] = RatMatrix(
            len(src_paths),
            len(tgt_paths),
            tuple(e for row in ent for e in row),
        )
    return make_rep(q, dims, mats)


@cache
def injective_rep(q: Quiver, v: int) -> QuiverRep:
    """I(v) = D(A e_v); basis at u is dual to the canonical paths u to v."""
    pb = paths_between(q)
    dims = [len(pb[(u, v)]) for u in q.vertices]
    mats: Dict[str, RatMatrix] = {}
    for a in q.arrows:
        src_paths = pb[(a.source, v)]  # basis of I(v) at a.source
        tgt_paths = pb[(a.target, v)]
        src_index = {p.arrows: i for i, p in enumerate(src_paths)}
        # delta_p . alpha = sum over x with alpha x = p of delta_x
        ent = [[Q(0)] * len(tgt_paths) for _ in src_paths]
        for jx, x in enumerate(tgt_paths):
            key = (a.id,) + x.arrows
            if key in src_index:
                ent[src_index[key]][jx] = Q(1)
        mats[a.id] = RatMatrix(
            len(src_paths),
            len(tgt_paths),
            tuple(e for row in ent for e in row),
        )
    return make_rep(q, dims, mats)


@cache
def projective_dim_vectors(q: Quiver) -> Tuple[DimVector, ...]:
    c = cartan_matrix(q)
    n = len(q.vertices)
    return tuple(
        tuple(int(c.at(i, j)) for j in range(n)) for i in range(n)
    )


@cache
def injective_dim_vectors(q: Quiver) -> Tuple[DimVector, ...]:
    c = cartan_matrix(q)
    n = len(q.vertices)
    return tuple(
        tuple(int(c.at(j, i)) for j in range(n)) for i in range(n)
    )


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

def _reverse_at(q: Quiver, v: int) -> Quiver:
    from .quivers import Arrow

    return Quiver(
        q.vertices,
        tuple(
            Arrow(a.id, a.target, a.source)
            if v in (a.source, a.target)
            else a
            for a in q.arrows
        ),
    )


@cache
def _admissible_cycle(q: Quiver) -> Tuple[int, ...]:
    """Vertex order in which each vertex is a sink when its turn comes."""
    order: List[int] = []
    qq = q
    while len(order) < len(q.vertices):
        for v in q.vertices:
            if v in order:
                continue
            if not any(a.source == v for a in qq.arrows):
                order.append(v)
                qq = _reverse_at(qq, v)
                break
        else:
            raise RuntimeError("no admissible sink found (cycle?)")
    return tuple(order)


def _reflect_dim(qq: Quiver, k: int, d: DimVector) -> DimVector:
    idx = {v: i for i, v in enumerate(qq.vertices)}
    s = sum(d[idx[a.source]] for a in qq.arrows if a.target == k)
    return tuple(
        s - c if v == k else c for v, c in zip(qq.vertices, d)
    )


def _reflect_rep_at_source(rep: QuiverRep, k: int, qtarget: Quiver) -> QuiverRep:
    """Inverse reflection functor at a source k; returns a rep of qtarget.

    The cokernel of X_k -> (sum of X_j over arrows k -> j) is taken in
    the canonical RREF complement coordinates, which makes the whole
    construction deterministic.
    """
    qq = rep.quiver
    idx = {v: i for i, v in enumerate(qq.vertices)}
    out = sorted(
        (a for a in qq.arrows if a.source == k), key=lambda a: a.id
    )
    blocks = [rep.mat(a.id) for a in out]
    widths = [b.cols for b in blocks]
    total = sum(widths)
    dk = rep.dims[idx[k]]
    g_rows = [
        [e for b in blocks for e in b.row(r)] for r in range(dk)
    ]
    g_rref = row_space_rref(g_rows, total)
    if len(g_rref) != dk:
        raise RuntimeError("reflection map not injective")
    pivots = pivot_columns(g_rref)
    free = [c for c in range(total) if c not in pivots]

    def quotient(row: List[Q]) -> List[Q]:
        red = reduce_by_rref(row, g_rref)
        return [red[c] for c in free]

    new_dims = list(rep.dims)
    new_dims[idx[k]] = len(free)
    offsets = {}
    off = 0
    for a, w in zip(out, widths):
        offsets[a.id] = off
        off += w
    mats: Dict[str, RatMatrix] = {}
    for a in qtarget.arrows:
        if a.target == k:
            # reversed arrow j -> k: embed X_j into the sum, then project
            dj = rep.dims[idx[a.source]]
            rows = []
            for r in range(dj):
                row = [Q(0)] * total
                row[offsets[a.id] + r] = Q(1)
                rows.append(quotient(row))
            ent = tuple(e for row in rows for e in row)
            mats[a.id] = RatMatrix(dj, len(free), ent)
        else:
            mats[a.id] = rep.mat(a.id)
    return make_rep(qtarget, new_dims, mats)


@cache
def build_representation(q: Quiver, d: DimVector) -> QuiverRep:
    """Deterministic indecomposable representation with dimension vector d."""
    if d not in set(indecomposables(q)):
        raise ValueError(f"{d} is not a positive root of this quiver")
    n = len(q.vertices)
    cycle = _admissible_cycle(q)
    applied: List[Tuple[Quiver, int]] = []
    cur_q, cur_d = q, d
    pos = 0
    while sum(cur_d) > 1:
        k = cycle[pos % n]
        pos += 1
        nd = _reflect_dim(cur_q, k, cur_d)
        if any(c < 0 for c in nd):
            raise RuntimeError("reflection left the positive cone")
        applied.append((cur_q, k))
        cur_q = _reverse_at(cur_q, k)
        cur_d = nd
        if pos > 100 * n:
            raise RuntimeError("reflection sequence did not terminate")
    vertex = cur_q.vertices[cur_d.index(1)]
    rep = simple_rep(cur_q, vertex)
    for qq_before, k in reversed(applied):
        rep = _reflect_rep_at_source(rep, k, qq_before)
    if rep.dims != d:
        raise RuntimeError("reflection construction produced wrong dims")
    return rep


# --- path action and Hom/Ext ---

def act_path(rep: QuiverRep, source: int, arrows: Sequence[str]) -> RatMatrix:
    """Matrix of the right action along a path, from source's space."""
    m = identity(rep.dim_at(source))
    for aid in arrows:
        m = m.mul(rep.mat(aid))
    return m


def act_path_vector(rep: QuiverRep, pv: PathVector) -> RatMatrix:
    out = RatMatrix(
        rep.dim_at(pv.source),
        rep.dim_at(pv.target),
        tuple(
            Q(0)
            for _ in range(rep.dim_at(pv.source) * rep.dim_at(pv.target))
        ),
    )
    for arrows, c in pv.terms:
        out = out.add(act_path(rep, pv.source, arrows).scale(c))
    return out


@cache
def hom_dim(q: Quiver, m: QuiverRep, n: QuiverRep) -> int:
    """dim Hom(M, N): solution space of the arrow intertwining system."""
    nv = len(q.vertices)
    offs = []
    total = 0
    for i in range(nv):
        offs.append(total)
        total += m.dims[i] * n.dims[i]
    idx = {v: i for i, v in enumerate(q.vertices)}
    rows: List[List[Q]] = []
    for a in q.arrows:
        j, k = idx[a.source], idx[a.target]
        ma, na = m.mat(a.id), n.mat(a.id)
        for r in range(m.dims[j]):
            for c in range(n.dims[k]):
                row = [Q(0)] * total
                # (M_a phi_k)[r,c] - (phi_j N_a)[r,c] = 0
                for s in range(m.dims[k]):
                    row[offs[k] + s * n.dims[k] + c] += ma.at(r, s)
                for t in range(n.dims[j]):
                    row[offs[j] + r * n.dims[j] + t] -= na.at(t, c)
                rows.append(row)
    if not rows:
        return total
    return total - rank(RatMatrix.from_rows(rows))


# --- projective covers, kernels, minimal presentations ---

class PathAlgebraOps:
    """Projectives of the hereditary path algebra KQ."""

    def __init__(self, q: Quiver):
        self.quiver = q

    def projective(self, v: int) -> QuiverRep:
        return projective_rep(self.quiver, v)

    def basis_paths(self, v: int) -> Dict[int, Tuple[Path, ...]]:
        pb = paths_between(self.quiver)
        return {u: pb[(v, u)] for u in self.quiver.vertices}


@cache
def _path_algebra_ops(q: Quiver) -> PathAlgebraOps:
    return PathAlgebraOps(q)


def radical_rows(rep: QuiverRep) -> List[List[List[Q]]]:
    """Per-vertex RREF bases of rad M = sum of arrow images."""
    q = rep.quiver
    out = []
    for v in q.vertices:
        rows: List[List[Q]] = []
        for a in q.arrows:
            if a.target == v:
                rows.extend(rep.mat(a.id).to_rows())
        out.append(row_space_rref(rows, rep.dim_at(v)))
    return out


def minimal_cover(alg, rep: QuiverRep):
    """Projective cover of rep over the given algebra.

    Returns (copies, p0rep, pi).  copies holds one (vertex, column) pair
    per summand P(vertex) of the cover, for each free column of the RREF
    radical at that vertex; the summand's generator maps to the unit
    vector at that column of rep's space.  p0rep is the direct sum of
    projectives in copy order, and pi the per-vertex matrices of the
    cover map.
    """
    q = alg.quiver
    rad = radical_rows(rep)
    copies: List[Tuple[int, int]] = []
    for vi, v in enumerate(q.vertices):
        pivots = pivot_columns(rad[vi])
        copies.extend(
            (v, c) for c in range(rep.dims[vi]) if c not in pivots
        )
    p0 = _direct_sum(q, [alg.projective(v) for v, _ in copies])
    pi: List[RatMatrix] = []
    for u in q.vertices:
        rows: List[List[Q]] = []
        for v, c in copies:
            for p in alg.basis_paths(v)[u]:
                rows.append(list(act_path(rep, v, p.arrows).row(c)))
        du = rep.dim_at(u)
        mat = RatMatrix.from_rows(rows) if rows else RatMatrix(0, du, ())
        pi.append(mat)
        if rank(mat) != du:
            raise RuntimeError("cover map not surjective")
    return copies, p0, pi


def _direct_sum(q: Quiver, reps: Sequence[QuiverRep]) -> QuiverRep:
    n = len(q.vertices)
    dims = [sum(r.dims[i] for r in reps) for i in range(n)]
    idx = {v: i for i, v in enumerate(q.vertices)}
    mats: Dict[str, RatMatrix] = {}
    for a in q.arrows:
        si, ti = idx[a.source], idx[a.target]
        rows: List[List[Q]] = []
        col_off = 0
        col_offsets = []
        for r in reps:
            col_offsets.append(col_off)
            col_off += r.dims[ti]
        for r, off in zip(reps, col_offsets):
            m = r.mat(a.id)
            for ri in range(m.rows):
                row = [Q(0)] * dims[ti]
                for ci in range(m.cols):
                    row[off + ci] = m.at(ri, ci)
                rows.append(row)
        ent = tuple(e for row in rows for e in row)
        mats[a.id] = RatMatrix(dims[si], dims[ti], ent)
    return make_rep(q, dims, mats)


def kernel_subrep(p0: QuiverRep, pi: Sequence[RatMatrix]):
    """Kernel of the cover map as a subrepresentation of p0.

    Returns (rows, krep): per-vertex RREF row bases inside p0's
    coordinates and the induced representation on those bases.
    """
    q = p0.quiver
    rows_per_vertex = [
        row_space_rref(kernel_basis(m.transpose()), d)
        for m, d in zip(pi, p0.dims)
    ]
    idx = {v: i for i, v in enumerate(q.vertices)}
    dims = [len(rows_per_vertex[i]) for i in range(len(q.vertices))]
    mats: Dict[str, RatMatrix] = {}
    for a in q.arrows:
        si, ti = idx[a.source], idx[a.target]
        src_rows = rows_per_vertex[si]
        tgt_rows = rows_per_vertex[ti]
        ent: List[Q] = []
        for rrow in src_rows:
            img = RatMatrix(1, len(rrow), tuple(rrow)).mul(p0.mat(a.id))
            coords = coords_in_rows(list(img.entries), tgt_rows)
            if coords is None:
                raise RuntimeError("kernel is not a subrepresentation")
            ent.extend(coords)
        mats[a.id] = RatMatrix(dims[si], dims[ti], tuple(ent))
    return rows_per_vertex, make_rep(q, dims, mats)


@dataclass(frozen=True)
class Presentation:
    """Minimal projective presentation P1 -> P0 -> M -> 0 over KQ."""

    deg_minus1: Tuple[int, ...]
    deg0: Tuple[int, ...]
    diff: Tuple[Tuple[PathVector, ...], ...]  # (row j over deg0, col i over deg_minus1)


@cache
def minimal_presentation(q: Quiver, m: QuiverRep) -> Presentation:
    alg = _path_algebra_ops(q)
    copies0, p0, pi = minimal_cover(alg, m)
    krows, krep = kernel_subrep(p0, pi)
    copies1, _, _ = minimal_cover(alg, krep)
    # hereditary: the kernel itself must be projective, so its cover is exact
    cover_dims = [0] * len(q.vertices)
    for v, _ in copies1:
        for i, c in enumerate(projective_rep(q, v).dims):
            cover_dims[i] += c
    if tuple(cover_dims) != krep.dims:
        raise RuntimeError("first syzygy is not projective (not hereditary?)")
    pb = paths_between(q)
    rows: List[List[PathVector]] = [[] for _ in copies0]
    for a, col in copies1:
        # the copy's generator, in p0's coordinates at vertex a
        amb_row = krows[q.index(a)][col]
        off = 0
        for j, (b, _) in enumerate(copies0):
            paths = pb[(b, a)]
            chunk = amb_row[off : off + len(paths)]
            off += len(paths)
            terms = {
                p.arrows: c for p, c in zip(paths, chunk) if c != 0
            }
            pv = PathVector.make(b, a, terms)
            if b == a and any(len(t) == 0 for t, _ in pv.terms):
                raise RuntimeError("presentation not minimal")
            rows[j].append(pv)
    return Presentation(
        deg_minus1=tuple(v for v, _ in copies1),
        deg0=tuple(v for v, _ in copies0),
        diff=tuple(tuple(r) for r in rows),
    )


@cache
def ext1_dim(q: Quiver, m: QuiverRep, n: QuiverRep) -> int:
    """dim Ext^1(M, N) = coker of Hom(P0, N) -> Hom(P1, N)."""
    pres = minimal_presentation(q, m)
    dom = sum(n.dim_at(b) for b in pres.deg0)
    cod = sum(n.dim_at(a) for a in pres.deg_minus1)
    if dom == 0 or cod == 0:
        return cod
    rows: List[List[Q]] = [[Q(0)] * cod for _ in range(dom)]
    roff = 0
    for j, b in enumerate(pres.deg0):
        coff = 0
        for i, a in enumerate(pres.deg_minus1):
            block = act_path_vector(n, pres.diff[j][i])
            for r in range(block.rows):
                for c in range(block.cols):
                    rows[roff + r][coff + c] += block.at(r, c)
            coff += n.dim_at(a)
        roff += n.dim_at(b)
    return cod - rank(RatMatrix.from_rows(rows))


# --- AR translate ---

def _apply_row(phi: RatMatrix, d: DimVector) -> Tuple[Q, ...]:
    n = len(d)
    return tuple(
        sum((Q(d[i]) * phi.at(i, j) for i in range(n)), Q(0))
        for j in range(n)
    )


@cache
def tau_nakayama(q: Quiver, d: DimVector) -> DimVector:
    """tau M as the kernel of nu(P1) -> nu(P0); dimension vector only."""
    pres = minimal_presentation(q, build_representation(q, d))
    dims = []
    for u in q.vertices:
        nrows = sum(injective_rep(q, a).dim_at(u) for a in pres.deg_minus1)
        ncols = sum(injective_rep(q, b).dim_at(u) for b in pres.deg0)
        mat_rows = [[Q(0)] * ncols for _ in range(nrows)]
        roffs = []
        acc = 0
        for a in pres.deg_minus1:
            roffs.append(acc)
            acc += len(paths_between(q)[(u, a)])
        coffs = []
        acc = 0
        for b in pres.deg0:
            coffs.append(acc)
            acc += len(paths_between(q)[(u, b)])
        for i, a in enumerate(pres.deg_minus1):
            pa = paths_between(q)[(u, a)]
            for j, b in enumerate(pres.deg0):
                pbv = paths_between(q)[(u, b)]
                v = pres.diff[j][i]  # in e_b A e_a
                # right multiplication by v: paths u~>b -> paths u~>a
                for rj, x in enumerate(pbv):
                    xv = PathVector.from_path(x).mul(v)
                    coords = xv.coords(pa)
                    # dual map I(a)_u -> I(b)_u is the transpose
                    for ci, cval in enumerate(coords):
                        mat_rows[roffs[i] + ci][coffs[j] + rj] += cval
        if nrows == 0:
            dims.append(0)
        else:
            mat = RatMatrix.from_rows(mat_rows) if ncols else RatMatrix(nrows, 0, ())
            dims.append(nrows - rank(mat))
    return tuple(dims)


@cache
def tau(q: Quiver, d: DimVector) -> Optional[DimVector]:
    """Dimension vector of tau M, or None when M is projective.

    Computed with the Coxeter matrix and cross-checked against the
    Nakayama-functor construction.
    """
    if d not in set(indecomposables(q)):
        raise ValueError(f"{d} is not an indecomposable dimension vector")
    if d in set(projective_dim_vectors(q)):
        return None
    out = _apply_row(coxeter_matrix(q), d)
    res = tuple(int(c) for c in out)
    if any(Q(r) != c for r, c in zip(res, out)) or any(c < 0 for c in res):
        raise RuntimeError("Coxeter translate left the root lattice")
    nak = tau_nakayama(q, d)
    if nak != res:
        raise RuntimeError(
            f"tau cross-check failed: Coxeter {res} != Nakayama {nak}"
        )
    return res


@cache
def tau_inverse(q: Quiver, d: DimVector) -> Optional[DimVector]:
    if d not in set(indecomposables(q)):
        raise ValueError(f"{d} is not an indecomposable dimension vector")
    if d in set(injective_dim_vectors(q)):
        return None
    out = _apply_row(coxeter_matrix(q).inverse(), d)
    res = tuple(int(c) for c in out)
    if any(Q(r) != c for r, c in zip(res, out)) or any(c < 0 for c in res):
        raise RuntimeError("inverse Coxeter translate left the root lattice")
    if tau(q, res) != d:
        raise RuntimeError("tau_inverse is not a section of tau")
    return res


# --- AR quivers ---

@dataclass(frozen=True)
class IndId:
    """Identifier of an object: a module or a shifted projective P(v)[1]."""

    kind: str  # "mod" or "shift"
    dim: DimVector
    vertex: Optional[int] = None

    @staticmethod
    def module(d: Sequence[int]) -> "IndId":
        return IndId("mod", tuple(int(c) for c in d))

    @staticmethod
    def shifted(v: int, pdim: Sequence[int]) -> "IndId":
        return IndId("shift", tuple(int(c) for c in pdim), v)

    def label(self) -> str:
        digits = "".join(str(c) for c in self.dim)
        return digits + ("[1]" if self.kind == "shift" else "")

    def key(self):
        if self.kind == "mod":
            return (0, sum(self.dim), self.dim, 0)
        return (1, 0, self.dim, self.vertex)


@dataclass(frozen=True)
class ArQuiver:
    """AR quiver with irreducible-map arrows, tau pairs, and a grid layout."""

    quiver: Quiver
    vertices: Tuple[IndId, ...]
    arrows: Tuple[Tuple[IndId, IndId], ...]
    tau_pairs: Tuple[Tuple[IndId, IndId], ...]  # (M, tau M)
    layout: Tuple[Tuple[IndId, Tuple[int, int]], ...]  # id -> (col, row)

    def to_dot(self) -> str:
        pos = dict(self.layout)
        lines = ["digraph ar {", "  rankdir=LR;"]
        for v in self.vertices:
            col, row = pos[v]
            lines.append(
                f'  "{v.label()}" [shape=plaintext, label="{v.label()}"];'
            )
        for s, t in self.arrows:
            lines.append(f'  "{s.label()}" -> "{t.label()}";')
        for m, t in self.tau_pairs:
            lines.append(
                f'  "{m.label()}" -> "{t.label()}" '
                "[style=dashed, dir=none, constraint=false];"
            )
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_ascii(self, selected=None) -> str:
        """Grid rendering; selected summands are bullets, the rest circles."""
        selected = selected or set()
        pos = dict(self.layout)
        maxcol = max(c for c, _ in pos.values())
        maxrow = max(r for _, r in pos.values())
        cells: Dict[Tuple[int, int], str] = {}
        for v in self.vertices:
            col, row = pos[v]
            marker = "•" if v in selected else "∘"
            cells[(row, col)] = f"{marker}{v.label()}"
        width = max(len(t) for t in cells.values()) + 2
        lines = []
        for r in range(maxrow + 1):
            line = "".join(
                cells.get((r, c), "").ljust(width)
                for c in range(maxcol + 1)
            )
            lines.append(line.rstrip())
        return "\n".join(lines) + "\n"


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


def _knit(q: Quiver, two_term: bool) -> ArQuiver:
    ind = indecomposables(q)
    projs = projective_dim_vectors(q)
    injs = injective_dim_vectors(q)
    proj_vertex = {d: v for d, v in zip(projs, q.vertices)}
    objs: List[IndId] = [IndId.module(d) for d in ind]
    tau_of: Dict[IndId, IndId] = {}
    for d in ind:
        t = tau(q, d)
        if t is not None:
            tau_of[IndId.module(d)] = IndId.module(t)
    if two_term:
        for v, pdim, idim in zip(q.vertices, projs, injs):
            s = IndId.shifted(v, pdim)
            objs.append(s)
            tau_of[s] = IndId.module(idim)

    pot = _potential(q)
    level: Dict[IndId, int] = {}

    def level_of(o: IndId) -> int:
        if o in level:
            return level[o]
        if o.kind == "mod" and o.dim in proj_vertex:
            level[o] = pot[proj_vertex[o.dim]]
        else:
            level[o] = level_of(tau_of[o]) + 2
        return level[o]

    for o in objs:
        level_of(o)
    order = sorted(objs, key=lambda o: (level[o], o.key()))
    out_edges: Dict[IndId, List[IndId]] = {o: [] for o in objs}
    arrows: List[Tuple[IndId, IndId]] = []
    for o in order:
        if o.kind == "mod" and o.dim in proj_vertex:
            v = proj_vertex[o.dim]
            inc = sorted(
                (
                    IndId.module(projs[q.index(a.target)])
                    for a in q.arrows
                    if a.source == v
                ),
                key=lambda x: x.key(),
            )
        else:
            inc = sorted(out_edges[tau_of[o]], key=lambda x: x.key())
        for p in inc:
            arrows.append((p, o))
            out_edges[p].append(o)
        if o.kind == "mod" and o.dim not in proj_vertex:
            # mesh additivity confirms all arrow multiplicities are 1
            total = [0] * len(q.vertices)
            for p in inc:
                if p.kind != "mod":
                    raise RuntimeError("module mesh with shifted summand")
                for i, c in enumerate(p.dim):
                    total[i] += c
            expect = [
                a + b for a, b in zip(o.dim, tau_of[o].dim)
            ]
            if total != expect:
                raise RuntimeError(
                    f"mesh additivity failed at {o.label()}"
                )

    proj_order = sorted(
        q.vertices, key=lambda v: (-pot[v], q.index(v))
    )
    row_of_proj = {v: i for i, v in enumerate(proj_order)}

    def anchor(o: IndId) -> int:
        cur = o
        while not (cur.kind == "mod" and cur.dim in proj_vertex):
            cur = tau_of[cur]
        return proj_vertex[cur.dim]

    layout = tuple(
        (o, (level[o], row_of_proj[anchor(o)])) for o in order
    )
    tau_pairs = tuple(
        (o, tau_of[o])
        for o in order
        if o in tau_of
    )
    if two_term:
        shifted_arrows = {
            (s.vertex, t.vertex)
            for s, t in arrows
            if s.kind == "shift" and t.kind == "shift"
        }
        expected = {(a.target, a.source) for a in q.arrows}
        if shifted_arrows != expected:
            raise RuntimeError(
                "shifted projectives do not form a copy of the quiver"
            )
    return ArQuiver(
        q, tuple(order), tuple(arrows), tau_pairs, layout
    )


@cache
def ar_quiver_mod(q: Quiver) -> ArQuiver:
    """AR quiver of mod KQ: indecomposables and irreducible maps."""
    return _knit(q, two_term=False)


@cache
def ar_quiver_two_term(q: Quiver) -> ArQuiver:
    """AR quiver of the two-term homotopy category: mod KQ plus P(i)[1]."""
    ar = _knit(q, two_term=True)
    if len(ar.vertices) != len(indecomposables(q)) + len(q.vertices):
        raise RuntimeError("two-term AR quiver has wrong vertex count")
    return ar
