"""The reflection-functor construction of indecomposables on quivers and
representations: the reference that silt.modules.build_representation,
which walks the same reflection sequence on int rows, is tested against.
silt climbs each root's last cycle from the cached representation of its
Coxeter image; this reference climbs every step from the simple.

Every step reverses the arrows at one vertex into a new Quiver and
builds a new validated QuiverRep, whose cokernel at the reflected vertex
is read through reduce_by_rref (_quotient), not through the RREF
read-off (linalg.cokernel_coords) that silt.modules uses.
"""

from functools import cache
from typing import Callable, Dict, List, Sequence, Tuple

from silt.linalg import pivot_columns, reduce_by_rref, row_space_rref
from silt.modules import QuiverRep, indecomposables, make_rep, simple_rep
from silt.quivers import Arrow, Quiver

DimVector = Tuple[int, ...]


def _quotient(
    rref: Sequence[Sequence[int]], width: int
) -> Tuple[List[int], Callable[[Sequence[int]], List[int]]]:
    """Canonical coordinates modulo the span of an RREF row basis: the
    free columns, and the map reading a row's reduction at them."""
    pivots = pivot_columns(rref)
    free = [c for c in range(width) if c not in pivots]

    def quotient(row: Sequence[int]) -> List[int]:
        red = reduce_by_rref(row, rref)
        return [red[c] for c in free]

    return free, quotient


def _reverse_at(q: Quiver, v: int) -> Quiver:
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
    widths = [rep.dims[idx[a.target]] for a in out]
    total = sum(widths)
    dk = rep.dims[idx[k]]
    g_rows = [
        [e for b in blocks for e in b[r]] for r in range(dk)
    ]
    g_rref = row_space_rref(g_rows)
    if len(g_rref) != dk:
        raise RuntimeError("reflection map not injective")
    free, quotient = _quotient(g_rref, total)
    new_dims = list(rep.dims)
    new_dims[idx[k]] = len(free)
    offsets = {}
    off = 0
    for a, w in zip(out, widths):
        offsets[a.id] = off
        off += w
    mats: Dict[str, List[List[int]]] = {}
    for a in qtarget.arrows:
        if a.target == k:
            # reversed arrow j -> k: embed X_j into the sum, then project
            dj = rep.dims[idx[a.source]]
            rows = []
            for r in range(dj):
                row = [0] * total
                row[offsets[a.id] + r] = 1
                rows.append(quotient(row))
            mats[a.id] = rows
        else:
            mats[a.id] = rep.mat(a.id)
    return make_rep(qtarget, new_dims, mats)


def build_representation(q: Quiver, d: DimVector) -> QuiverRep:
    """Deterministic indecomposable representation with dimension vector d,
    one validated Quiver and QuiverRep per reflection step."""
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

