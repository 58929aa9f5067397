"""Two-term complexes of projectives and their homotopy-category Hom spaces.

Every object of interest — a module via its minimal projective
resolution, or a shifted projective P(i)[1] — is stored uniformly as a
complex P^{-1} -> P^0 of projectives, so a single exact-linear-algebra
engine computes Hom spaces modulo homotopy, shifts, and composition.

A map between direct sums of projectives is a matrix of path vectors:
the (j, i) entry lives in Hom(P(u_i), P(v_j)), spanned by the paths
from v_j to u_i, and acts by left multiplication.  Hom classes are kept
in a fixed reduced coordinate form (chain-map space intersected with a
reduced-row-echelon complement of the null-homotopic subspace), which
makes bases, coordinates, and composition tables reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cache
from typing import List, Sequence, Tuple

from .linalg import (
    RatMatrix,
    coords_in_rows,
    kernel_basis,
    pivot_columns,
    rank,
    reduce_by_rref,
    row_space_rref,
)
from .modules import QuiverRep, build_representation, minimal_presentation
from .quivers import PathVector, Quiver, paths_between

PVMatrix = Tuple[Tuple[PathVector, ...], ...]


@dataclass(frozen=True)
class TwoTermComplex:
    """Complex of projectives concentrated in degrees -1 and 0.

    diff[j][i] is the component P(deg_minus1[i]) -> P(deg0[j]), a path
    vector with source deg0[j] and target deg_minus1[i].
    """

    quiver: Quiver
    deg_minus1: Tuple[int, ...]
    deg0: Tuple[int, ...]
    diff: PVMatrix

    def __post_init__(self):
        known = set(self.quiver.vertices)
        for v in self.deg_minus1 + self.deg0:
            if v not in known:
                raise ValueError(f"unknown projective vertex {v}")
        if len(self.diff) != len(self.deg0):
            raise ValueError("differential has wrong number of rows")
        for j, row in enumerate(self.diff):
            if len(row) != len(self.deg_minus1):
                raise ValueError("differential has wrong number of columns")
            for i, pv in enumerate(row):
                if pv.source != self.deg0[j] or pv.target != self.deg_minus1[i]:
                    raise ValueError(
                        "differential entry endpoints do not match summands"
                    )


def resolve(q: Quiver, m: QuiverRep) -> TwoTermComplex:
    """Minimal projective resolution of a module, as a two-term complex."""
    if m.quiver != q:
        raise ValueError("module is over a different quiver")
    pres = minimal_presentation(q, m)
    return TwoTermComplex(q, pres.deg_minus1, pres.deg0, pres.diff)


@cache
def resolve_dim(q: Quiver, d: Tuple[int, ...]) -> TwoTermComplex:
    """Resolution of the indecomposable with dimension vector d."""
    return resolve(q, build_representation(q, d))


def shifted_projective(q: Quiver, v: int) -> TwoTermComplex:
    """The complex with P(v) in degree -1 and zero in degree 0."""
    if v not in q.vertices:
        raise ValueError(f"unknown vertex {v}")
    return TwoTermComplex(q, (v,), (), ())


# --- coordinates on Hom(sum of projectives, sum of projectives) ---

@cache
def _layout(q: Quiver, srcs: Tuple[int, ...], tgts: Tuple[int, ...]):
    """Blocks of Hom(+P(srcs), +P(tgts)): (j, i, paths, offset) plus total."""
    pb = paths_between(q)
    blocks = []
    off = 0
    for j, v in enumerate(tgts):
        for i, u in enumerate(srcs):
            paths = pb[(v, u)]
            blocks.append((j, i, paths, off))
            off += len(paths)
    return tuple(blocks), off


def _vec_to_mat(
    q: Quiver, srcs: Tuple[int, ...], tgts: Tuple[int, ...], vec: Sequence[Q]
) -> PVMatrix:
    blocks, total = _layout(q, srcs, tgts)
    mat = [
        [PathVector.zero(v, u) for u in srcs] for v in tgts
    ]
    for j, i, paths, off in blocks:
        terms = {
            p.arrows: vec[off + t]
            for t, p in enumerate(paths)
            if vec[off + t] != 0
        }
        mat[j][i] = PathVector.make(tgts[j], srcs[i], terms)
    return tuple(tuple(r) for r in mat)


def _mat_to_vec(
    q: Quiver, srcs: Tuple[int, ...], tgts: Tuple[int, ...], mat: PVMatrix
) -> List[Q]:
    blocks, total = _layout(q, srcs, tgts)
    vec = [Q(0)] * total
    for j, i, paths, off in blocks:
        for t, c in enumerate(mat[j][i].coords(paths)):
            vec[off + t] = c
    return vec


def _compose_mats(
    srcs: Tuple[int, ...],
    mids: Tuple[int, ...],
    tgts: Tuple[int, ...],
    g: PVMatrix,
    f: PVMatrix,
) -> PVMatrix:
    """Matrix of g after f, for f: +P(srcs) -> +P(mids), g: -> +P(tgts)."""
    out = []
    for k, w in enumerate(tgts):
        row = []
        for i, u in enumerate(srcs):
            acc = PathVector.zero(w, u)
            for j, _ in enumerate(mids):
                acc = acc.add(g[k][j].mul(f[j][i]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


# --- null-homotopic maps X^{-1} -> Y^0, one block per vertex ---

@cache
def _after_diff(x: TwoTermComplex, v: int) -> Tuple[Tuple, ...]:
    """The map h -> h d_X from Hom(X^0, P(v)) to Hom(X^{-1}, P(v)).

    One sparse row per path of the source basis: (i, t, c) puts c at
    path t of Hom(P(x.deg_minus1[i]), P(v)).
    """
    pb = paths_between(x.quiver)
    index = [
        {p.arrows: t for t, p in enumerate(pb[(v, u)])} for u in x.deg_minus1
    ]
    return tuple(
        tuple(
            (i, index[i][p.arrows + a], c)
            for i in range(len(x.deg_minus1))
            for a, c in x.diff[j][i].terms
        )
        for j, w in enumerate(x.deg0)
        for p in pb[(v, w)]
    )


@cache
def _before_diff(y: TwoTermComplex, u: int) -> Tuple[Tuple, ...]:
    """The map h -> d_Y h from Hom(P(u), Y^{-1}) to Hom(P(u), Y^0).

    One sparse row per path of the source basis: (k, t, c) puts c at
    path t of Hom(P(u), P(y.deg0[k])).
    """
    pb = paths_between(y.quiver)
    index = [
        {p.arrows: t for t, p in enumerate(pb[(w, u)])} for w in y.deg0
    ]
    return tuple(
        tuple(
            (k, index[k][a + p.arrows], c)
            for k in range(len(y.deg0))
            for a, c in y.diff[k][j].terms
        )
        for j, w in enumerate(y.deg_minus1)
        for p in pb[(w, u)]
    )


def _shift1_homotopies(
    x: TwoTermComplex, y: TwoTermComplex
) -> Tuple[List[List[Q]], int]:
    """Rows spanning h d_X + d_Y h' in Hom(X^{-1}, Y^0), and dim Hom(X^{-1}, Y^0).

    h d_X is block-diagonal over the summands P(v) of Y^0 and d_Y h' over
    the summands P(u) of X^{-1}; each block lands at its _layout offset.
    """
    if x.quiver != y.quiver:
        raise ValueError("complexes live over different quivers")
    blocks, total = _layout(x.quiver, x.deg_minus1, y.deg0)
    off = {(k, i): o for k, i, _, o in blocks}
    rows: List[List[Q]] = []
    for k, v in enumerate(y.deg0):
        for sparse in _after_diff(x, v):
            if sparse:
                row = [Q(0)] * total
                for i, t, c in sparse:
                    row[off[(k, i)] + t] = c
                rows.append(row)
    for i, u in enumerate(x.deg_minus1):
        for sparse in _before_diff(y, u):
            if sparse:
                row = [Q(0)] * total
                for k, t, c in sparse:
                    row[off[(k, i)] + t] = c
                rows.append(row)
    return rows, total


# --- homotopy classes ---

@dataclass(frozen=True)
class HomSpace:
    """Basis of Hom(X, Y[shift]) modulo homotopy, in fixed coordinates."""

    x: TwoTermComplex
    y: TwoTermComplex
    shift: int
    class_basis: Tuple[Tuple[Q, ...], ...]
    homotopy_rref: Tuple[Tuple[Q, ...], ...]

    def dim(self) -> int:
        return len(self.class_basis)

    def zero_class(self) -> "HomClass":
        return HomClass(self, (Q(0),) * self.dim())

    def elements(self) -> Tuple["HomClass", ...]:
        n = self.dim()
        return tuple(
            HomClass(
                self,
                tuple(Q(1) if j == i else Q(0) for j in range(n)),
            )
            for i in range(n)
        )

    def vector_of(self, cls: "HomClass") -> List[Q]:
        q, x, y = self.x.quiver, self.x, self.y
        if self.shift == 0:
            total = (
                _layout(q, x.deg0, y.deg0)[1]
                + _layout(q, x.deg_minus1, y.deg_minus1)[1]
            )
        elif self.shift == 1:
            total = _layout(q, x.deg_minus1, y.deg0)[1]
        else:
            total = 0
        vec = [Q(0)] * total
        for c, row in zip(cls.coords, self.class_basis):
            if c != 0:
                vec = [a + c * b for a, b in zip(vec, row)]
        return vec

    def class_from_vector(self, vec: Sequence[Q]) -> "HomClass":
        red = reduce_by_rref(list(vec), [list(r) for r in self.homotopy_rref])
        coords = coords_in_rows(red, [list(r) for r in self.class_basis])
        if coords is None:
            raise ValueError("vector is not a chain map modulo homotopy")
        return HomClass(self, tuple(coords))


@dataclass(frozen=True)
class HomClass:
    """A homotopy class, as coordinates over its space's fixed basis."""

    space: HomSpace
    coords: Tuple[Q, ...]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def mats(self) -> Tuple[PVMatrix, PVMatrix]:
        """Representative chain map as path-vector matrices.

        Shift 0: (degree-0 component, degree:-1 component).
        Shift 1: (the X^{-1} -> Y^0 component, empty).
        """
        x, y, q = self.space.x, self.space.y, self.space.x.quiver
        vec = self.space.vector_of(self)
        if self.space.shift == 0:
            _, n0 = _layout(q, x.deg0, y.deg0)
            mat0 = _vec_to_mat(q, x.deg0, y.deg0, vec[:n0])
            matm = _vec_to_mat(q, x.deg_minus1, y.deg_minus1, vec[n0:])
            return mat0, matm
        if self.space.shift == 1:
            return _vec_to_mat(q, x.deg_minus1, y.deg0, vec), ()
        return (), ()


@cache
def hom_class_basis(x: TwoTermComplex, y: TwoTermComplex, k: int) -> HomSpace:
    """Canonical basis of Hom(X, Y[k]) in the homotopy category.

    Supported shifts are 0 and 1; shifts with |k| >= 2 vanish for
    two-term complexes and return the empty basis.  k = -1 is rejected:
    those spaces need not vanish and are outside this engine's scope.
    """
    if x.quiver != y.quiver:
        raise ValueError("complexes live over different quivers")
    if k == -1:
        raise ValueError("shift -1 is not supported")
    if k not in (0, 1):
        return HomSpace(x, y, k, (), ())
    q = x.quiver
    if k == 0:
        _, n0 = _layout(q, x.deg0, y.deg0)
        _, nm = _layout(q, x.deg_minus1, y.deg_minus1)
        total = n0 + nm
        _, nw = _layout(q, x.deg_minus1, y.deg0)

        def defect(vec: Sequence[Q]) -> List[Q]:
            f0 = _vec_to_mat(q, x.deg0, y.deg0, vec[:n0])
            fm = _vec_to_mat(q, x.deg_minus1, y.deg_minus1, vec[n0:])
            lhs = _compose_mats(x.deg_minus1, x.deg0, y.deg0, f0, x.diff)
            rhs = _compose_mats(x.deg_minus1, y.deg_minus1, y.deg0, y.diff, fm)
            diff = tuple(
                tuple(a.add(b.scale(Q(-1))) for a, b in zip(ra, rb))
                for ra, rb in zip(lhs, rhs)
            )
            return _mat_to_vec(q, x.deg_minus1, y.deg0, diff)

        cols = []
        for t in range(total):
            unit = [Q(0)] * total
            unit[t] = Q(1)
            cols.append(defect(unit))
        ent = tuple(cols[t][r] for r in range(nw) for t in range(total))
        constraint = RatMatrix(nw, total, ent)
        z_rows = kernel_basis(constraint)

        blocks_h, nh = _layout(q, x.deg0, y.deg_minus1)
        h_rows = []
        for t in range(nh):
            unit = [Q(0)] * nh
            unit[t] = Q(1)
            h = _vec_to_mat(q, x.deg0, y.deg_minus1, unit)
            f0 = _compose_mats(x.deg0, y.deg_minus1, y.deg0, y.diff, h)
            fm = _compose_mats(x.deg_minus1, x.deg0, y.deg_minus1, h, x.diff)
            h_rows.append(
                _mat_to_vec(q, x.deg0, y.deg0, f0)
                + _mat_to_vec(q, x.deg_minus1, y.deg_minus1, fm)
            )
        b_rref = row_space_rref(h_rows, total)
        cands = [reduce_by_rref(z, b_rref) for z in z_rows]
        class_basis = row_space_rref(cands, total)
        if len(class_basis) != len(z_rows) - len(b_rref):
            raise RuntimeError("null-homotopic maps escaped the chain space")
        return HomSpace(
            x,
            y,
            0,
            tuple(tuple(r) for r in class_basis),
            tuple(tuple(r) for r in b_rref),
        )

    # k == 1: all of Hom(X^{-1}, Y^0), modulo h d_X and d_Y h'
    rows, total = _shift1_homotopies(x, y)
    b_rref = row_space_rref(rows, total)
    # the unit vectors at the free columns of b_rref span a complement
    pivots = set(pivot_columns(b_rref))
    class_basis = tuple(
        tuple(Q(1) if t == f else Q(0) for t in range(total))
        for f in range(total)
        if f not in pivots
    )
    return HomSpace(x, y, 1, class_basis, tuple(tuple(r) for r in b_rref))


@cache
def hom_class_dim(x: TwoTermComplex, y: TwoTermComplex, k: int) -> int:
    """dim Hom(X, Y[k]); at k = 1 a rank, with no basis built."""
    if k != 1:
        return hom_class_basis(x, y, k).dim()
    rows, total = _shift1_homotopies(x, y)
    return total - rank(RatMatrix.from_rows(rows))


@cache
def identity_class(x: TwoTermComplex) -> HomClass:
    """The identity chain map of X, reduced to the stored basis."""
    q = x.quiver
    space = hom_class_basis(x, x, 0)
    mat0 = tuple(
        tuple(
            PathVector.make(v, u, {(): 1}) if j == i else PathVector.zero(v, u)
            for i, u in enumerate(x.deg0)
        )
        for j, v in enumerate(x.deg0)
    )
    matm = tuple(
        tuple(
            PathVector.make(v, u, {(): 1}) if j == i else PathVector.zero(v, u)
            for i, u in enumerate(x.deg_minus1)
        )
        for j, v in enumerate(x.deg_minus1)
    )
    vec = _mat_to_vec(q, x.deg0, x.deg0, mat0) + _mat_to_vec(
        q, x.deg_minus1, x.deg_minus1, matm
    )
    return space.class_from_vector(vec)


def compose(f: HomClass, g: HomClass) -> HomClass:
    """Class of g after f, for f: X -> Y and g: Y -> Z in degree 0."""
    if f.space.shift != 0 or g.space.shift != 0:
        raise ValueError("only degree-0 classes compose")
    if f.space.y != g.space.x:
        raise ValueError("codomain of f is not the domain of g")
    x, y, z = f.space.x, f.space.y, g.space.y
    q = x.quiver
    f0, fm = f.mats()
    g0, gm = g.mats()
    c0 = _compose_mats(x.deg0, y.deg0, z.deg0, g0, f0)
    cm = _compose_mats(x.deg_minus1, y.deg_minus1, z.deg_minus1, gm, fm)
    vec = _mat_to_vec(q, x.deg0, z.deg0, c0) + _mat_to_vec(
        q, x.deg_minus1, z.deg_minus1, cm
    )
    return hom_class_basis(x, z, 0).class_from_vector(vec)
