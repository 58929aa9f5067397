"""Two-term complexes of projectives and their homotopy-category Hom spaces.

Every object of interest — a module via its minimal projective
resolution, or a shifted projective P(i)[1] — is stored uniformly as a
complex P^{-1} -> P^0 of projectives.  Both shifts of Hom come from one
Hom complex, built from blocks cached per (complex, vertex):

  Hom(X^0, Y^{-1}) -> Hom(X^0, Y^0) + Hom(X^{-1}, Y^{-1}) -> Hom(X^{-1}, Y^0)

with d^{-1}(h) = (d_Y h, h d_X) and d^0(f_0, f) = f_0 d_X - d_Y f, so that
Hom(X, Y) = ker d^0 / im d^{-1} and Hom(X, Y[1]) = coker d^0.

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


# --- the Hom complex, from blocks cached per (complex, vertex) ---

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
def _before_diff(y: TwoTermComplex, u: int) -> Tuple[Tuple[Tuple, ...], ...]:
    """The map h -> d_Y h from Hom(P(u), Y^{-1}) to Hom(P(u), Y^0).

    Rows grouped by the summand j of Y^{-1}, one sparse row per path of
    Hom(P(u), P(y.deg_minus1[j])): (k, t, c) puts c at path t of
    Hom(P(u), P(y.deg0[k])).
    """
    pb = paths_between(y.quiver)
    index = [
        {p.arrows: t for t, p in enumerate(pb[(w, u)])} for w in y.deg0
    ]
    return tuple(
        tuple(
            tuple(
                (k, index[k][a + p.arrows], c)
                for k in range(len(y.deg0))
                for a, c in y.diff[k][j].terms
            )
            for p in pb[(w, u)]
        )
        for j, w in enumerate(y.deg_minus1)
    )


def _after_rows(
    x: TwoTermComplex, tgts: Tuple[int, ...]
) -> Tuple[List[List[Q]], int]:
    """h -> h d_X from Hom(X^0, +P(tgts)) to Hom(X^{-1}, +P(tgts)): the
    image of each source coordinate, both sides in _layout order, and the
    target dimension.  The map is block-diagonal over the summands tgts."""
    blocks, n = _layout(x.quiver, x.deg_minus1, tgts)
    off = {(k, i): o for k, i, _, o in blocks}
    rows: List[List[Q]] = []
    for k, v in enumerate(tgts):
        for sparse in _after_diff(x, v):
            row = [Q(0)] * n
            for i, t, c in sparse:
                row[off[(k, i)] + t] = c
            rows.append(row)
    return rows, n


def _before_rows(
    y: TwoTermComplex, srcs: Tuple[int, ...], neg: bool = False
) -> List[List[Q]]:
    """h -> d_Y h (or -d_Y h) from Hom(+P(srcs), Y^{-1}) to
    Hom(+P(srcs), Y^0): the image of each source coordinate, both sides
    in _layout order.  The map is block-diagonal over the summands srcs."""
    blocks, n = _layout(y.quiver, srcs, y.deg0)
    off = {(k, i): o for k, i, _, o in blocks}
    before = [_before_diff(y, u) for u in srcs]
    rows: List[List[Q]] = []
    for j in range(len(y.deg_minus1)):
        for i, b in enumerate(before):
            for sparse in b[j]:
                row = [Q(0)] * n
                for k, t, c in sparse:
                    row[off[(k, i)] + t] = -c if neg else c
                rows.append(row)
    return rows


def _d0(x: TwoTermComplex, y: TwoTermComplex) -> Tuple[List[List[Q]], int]:
    """d^0(f_0, f) = f_0 d_X - d_Y f, one row per coordinate of
    Hom(X^0, Y^0) + Hom(X^{-1}, Y^{-1}), and dim Hom(X^{-1}, Y^0)."""
    if x.quiver != y.quiver:
        raise ValueError("complexes live over different quivers")
    rows, nw = _after_rows(x, y.deg0)
    return rows + _before_rows(y, x.deg_minus1, neg=True), nw


def _d_minus1(x: TwoTermComplex, y: TwoTermComplex) -> List[List[Q]]:
    """d^{-1}(h) = (d_Y h, h d_X), one row per coordinate of
    Hom(X^0, Y^{-1})."""
    after, _ = _after_rows(x, y.deg_minus1)
    return [f0 + f for f0, f in zip(_before_rows(y, x.deg0), after)]


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
    d0, nw = _d0(x, y)
    total = len(d0)
    if k == 0:
        # ker d^0 is the chain maps; d0 holds the images of unit vectors
        constraint = RatMatrix(
            nw, total, tuple(d0[t][r] for r in range(nw) for t in range(total))
        )
        z_rows = kernel_basis(constraint)
        b_rref = row_space_rref(_d_minus1(x, y), total)
        cands = [reduce_by_rref(z, b_rref) for z in z_rows]
        class_basis = row_space_rref(cands, total)
        if len(class_basis) != len(z_rows) - len(b_rref):
            raise RuntimeError("null-homotopic maps escaped the chain space")
    else:
        # k == 1: all of Hom(X^{-1}, Y^0), modulo the image of d^0
        b_rref = row_space_rref(d0, nw)
        # the unit vectors at the free columns of b_rref span a complement
        pivots = set(pivot_columns(b_rref))
        class_basis = [
            [Q(1) if t == f else Q(0) for t in range(nw)]
            for f in range(nw)
            if f not in pivots
        ]
    return HomSpace(
        x, y, k, tuple(map(tuple, class_basis)), tuple(map(tuple, b_rref))
    )


@cache
def hom_class_dim(x: TwoTermComplex, y: TwoTermComplex, k: int) -> int:
    """dim Hom(X, Y[k]) by ranks in the Hom complex, with no basis built.

    dim Hom(X, Y[1]) = dim Hom(X^{-1}, Y^0) - rank d^0, and
    dim Hom(X, Y) = dim (Hom(X^0, Y^0) + Hom(X^{-1}, Y^{-1}))
    - rank d^0 - rank d^{-1}.
    """
    if k not in (0, 1):
        return hom_class_basis(x, y, k).dim()
    d0, nw = _d0(x, y)
    r0 = rank(RatMatrix.from_rows(d0))
    if k == 1:
        return nw - r0
    return len(d0) - r0 - rank(RatMatrix.from_rows(_d_minus1(x, y)))


@cache
def identity_class(x: TwoTermComplex) -> HomClass:
    """The identity chain map of X, reduced to the stored basis."""
    q = x.quiver
    space = hom_class_basis(x, x, 0)
    vec: List[Q] = []
    for vs in (x.deg0, x.deg_minus1):
        ident = tuple(
            tuple(
                PathVector.make(v, u, {(): 1})
                if j == i
                else PathVector.zero(v, u)
                for i, u in enumerate(vs)
            )
            for j, v in enumerate(vs)
        )
        vec += _mat_to_vec(q, vs, vs, ident)
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
