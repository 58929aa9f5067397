"""Two-term complexes of projectives and their homotopy-category Hom spaces.

Every object of interest — a module via its minimal projective
resolution, or a shifted projective P(i)[1] — is stored uniformly as a
complex P^{-1} -> P^0 of projectives: modules.TwoTermComplex, the type
modules.minimal_presentation returns.  Both shifts of Hom come from one
Hom complex:

  Hom(X^0, Y^{-1}) -> Hom(X^0, Y^0) + Hom(X^{-1}, Y^{-1}) -> Hom(X^{-1}, Y^0)

with d^{-1}(h) = (d_Y h, h d_X) and d^0(f_0, f) = f_0 d_X - d_Y f, so that
Hom(X, Y) = ker d^0 / im d^{-1} and Hom(X, Y[1]) = coker d^0.  One pair of
builders (_d0, _d_minus1) writes both differentials as dense int rows
straight from d_X and d_Y.  Hom(X, Y) gets a canonical basis
(hom_class_basis: the kernel of d^0 modulo the RREF row space of d^{-1}),
because End(T) assembly composes two basis classes and reads the
composite as one scalar per triple of summands (HomSpace.coords); its
dimension alone is a rank of the same rows.  Hom(X, Y[1]) only decides
rigidity, so it is only ever a dimension (hom_class_dim), taken in two
quotients: first by the d_Y part, which leaves one cokernel N_w per
vertex w, tabled once per complex Y (_cokernels), then by the f_0 d_X
part, a small rank per pair.

A map between direct sums of projectives is a coordinate vector in
_layout order: block (j, i) is Hom(P(u_i), P(v_j)), which has one
coordinate if a path runs from v_j to u_i and none otherwise.  The
underlying graph of a Dynkin quiver is a forest, so there is at most one
such path, and a path followed by a path is the one path between their
ends: maps compose as matrices of scalars, and d_X is stored as one
(TwoTermComplex.diff).  quivers.single_path is where this is checked.  A
chain map X -> Y is one row over both degrees, Hom(X^0, Y^0) then
Hom(X^{-1}, Y^{-1}), and compose multiplies two of them degree by degree
with linalg.matmul.  A homotopy class is its chain-map row reduced
modulo the RREF of the null-homotopic maps; the reduced rows of the
canonical basis span a fixed complement of them, which makes bases,
coordinates and composites reproducible.
"""

from __future__ import annotations

from functools import cache
from itertools import chain
from typing import Dict, List, Sequence, Tuple

from .linalg import (
    Matrix,
    cokernel_coords,
    coords_in_rows,
    kernel_basis,
    matmul,
    rank,
    reduce_by_rref,
    row_space_rref,
)
from .modules import TwoTermComplex, build_representation, minimal_presentation
from .quivers import Quiver, Record, single_path


@cache
def resolve_dim(q: Quiver, d: Tuple[int, ...]) -> TwoTermComplex:
    """Minimal projective resolution of the indecomposable with dimension
    vector d, as a two-term complex."""
    return minimal_presentation(q, build_representation(q, d))


def shifted_projective(q: Quiver, v: int) -> TwoTermComplex:
    """The complex with P(v) in degree -1 and zero in degree 0."""
    if v not in q.vertices:
        raise ValueError(f"unknown vertex {v}")
    return TwoTermComplex(q, (v,), (), ())


# --- coordinates on Hom(sum of projectives, sum of projectives) ---

@cache
def _layout(q: Quiver, srcs: Tuple[int, ...], tgts: Tuple[int, ...]):
    """Coordinates of Hom(+P(srcs), +P(tgts)): the position of each block
    (j, i) with a path from tgts[j] to srcs[i], in row-major order, keyed
    by the int j * len(srcs) + i, and their number.  That path is the only
    one (single_path raises ValueError on a second)."""
    pos = {}
    for j, v in enumerate(tgts):
        for i, u in enumerate(srcs):
            if single_path(q, v, u) is not None:
                pos[j * len(srcs) + i] = len(pos)
    return pos, len(pos)


# --- the Hom complex ---

def _after(x: TwoTermComplex, tgts: Tuple[int, ...]) -> Tuple[List[List[int]], int]:
    """h -> h d_X from Hom(X^0, +P(tgts)) to Hom(X^{-1}, +P(tgts)): the
    image of each source coordinate as an int row, both sides in _layout
    order, and the target dimension.  The map is block-diagonal over the
    summands tgts."""
    d, m, n0 = x.diff, len(x.deg_minus1), len(x.deg0)
    pos, n = _layout(x.quiver, x.deg_minus1, tgts)
    rows = []
    for kj in _layout(x.quiver, x.deg0, tgts)[0]:
        row, base = [0] * n, kj // n0 * m
        for i, c in enumerate(d[kj % n0]):
            if c:
                row[pos[base + i]] = c
        rows.append(row)
    return rows, n


def _before(y: TwoTermComplex, srcs: Tuple[int, ...]) -> Tuple[List[List[int]], int]:
    """h -> d_Y h from Hom(+P(srcs), Y^{-1}) to Hom(+P(srcs), Y^0): the
    image of each source coordinate as an int row, both sides in _layout
    order, and the target dimension.  The map is block-diagonal over the
    summands srcs."""
    d, m = y.diff, len(srcs)
    pos, n = _layout(y.quiver, srcs, y.deg0)
    rows = []
    for ji in _layout(y.quiver, srcs, y.deg_minus1)[0]:
        row, (j, i) = [0] * n, divmod(ji, m)
        for k, r in enumerate(d):
            if r[j]:
                row[pos[k * m + i]] = r[j]
        rows.append(row)
    return rows, n


def _d0(
    x: TwoTermComplex, y: TwoTermComplex
) -> Tuple[List[List[int]], int, int]:
    """d^0(f_0, f) = f_0 d_X - d_Y f into Hom(X^{-1}, Y^0): the rows of
    f_0 d_X, then those of d_Y f, unsigned, since a rank does not see row
    signs; the number of f_0 rows; and dim Hom(X^{-1}, Y^0)."""
    after, nw = _after(x, y.deg0)
    return after + _before(y, x.deg_minus1)[0], len(after), nw


def _d_minus1(x: TwoTermComplex, y: TwoTermComplex) -> Tuple[List[List[int]], int]:
    """d^{-1}(h) = (d_Y h, h d_X) as int rows, one per coordinate of
    Hom(X^0, Y^{-1}), into Hom(X^0, Y^0) + Hom(X^{-1}, Y^{-1}), and the
    dimension of that sum."""
    d_y, n0 = _before(y, x.deg0)
    d_x, n1 = _after(x, y.deg_minus1)
    return [f0 + f for f0, f in zip(d_y, d_x)], n0 + n1


# --- homotopy classes ---

class HomSpace(Record):
    """Basis of Hom(X, Y) modulo homotopy, in fixed coordinates: each
    class is its chain-map row reduced by homotopy_rref."""

    class_basis: Tuple[Tuple[int, ...], ...]
    homotopy_rref: Tuple[Tuple[int, ...], ...]

    def dim(self) -> int:
        return len(self.class_basis)

    def coords(self, vec: Sequence[int]) -> Tuple[int, ...]:
        """The coordinates over class_basis of the class of chain map vec."""
        coords = coords_in_rows(
            reduce_by_rref(vec, self.homotopy_rref), self.class_basis
        )
        if coords is None:
            raise ValueError("vector is not a chain map modulo homotopy")
        return tuple(coords)


@cache
def hom_class_basis(x: TwoTermComplex, y: TwoTermComplex, k: int) -> HomSpace:
    """Canonical basis of Hom(X, Y) in the homotopy category.

    Only k = 0 is accepted; every other shift raises ValueError, and
    hom_class_dim gives dim Hom(X, Y[1]).  The shift is still an argument
    because perfbench/trace_child.py names its spans by it.
    """
    if x.quiver != y.quiver:
        raise ValueError("complexes live over different quivers")
    if k != 0:
        raise ValueError(f"no basis of Hom(X, Y[{k}]); only k = 0 has one")
    d0, n_f0, nw = _d0(x, y)
    # ker d^0 is the chain maps; constraint column t is d^0 of unit t
    signed = d0[:n_f0] + [[-c for c in row] for row in d0[n_f0:]]
    z_rows = kernel_basis(Matrix(nw, len(d0), tuple(chain(*zip(*signed)))))
    b_rref = row_space_rref(_d_minus1(x, y)[0])
    cands = [reduce_by_rref(z, b_rref) for z in z_rows]
    class_basis = row_space_rref(cands)
    if len(class_basis) != len(z_rows) - len(b_rref):
        raise RuntimeError("null-homotopic maps escaped the chain space")
    return HomSpace(tuple(map(tuple, class_basis)), tuple(map(tuple, b_rref)))


@cache
def _cokernels(
    y: TwoTermComplex,
) -> Dict[int, Tuple[List[int], Dict[int, List[int]]]]:
    """Per vertex w, N_w = coker(Hom(P(w), Y^{-1}) -> Hom(P(w), Y^0)),
    which is H^0(Y) at w: the indices j of the Y^0 summands at the free
    columns of the RREF of _before(y, (w,)), and the coordinates in N_w
    of each Y^0 summand j with a path to w, keyed by j (the read-off of
    linalg.cokernel_coords).  For a module's presentation N_w is the
    module's space at w, and for P(v)[1] it is zero."""
    q, table = y.quiver, {}
    for w in q.vertices:
        pos, n = _layout(q, (w,), y.deg0)
        free, image = cokernel_coords(row_space_rref(_before(y, (w,))[0]), n)
        summand = {c: j for j, c in pos.items()}
        table[w] = [summand[c] for c in free], {j: image[c] for j, c in pos.items()}
    return table


@cache
def hom_class_dim(x: TwoTermComplex, y: TwoTermComplex, k: int) -> int:
    """dim Hom(X, Y[k]) by ranks, with no basis built.

    dim Hom(X, Y) = dim (Hom(X^0, Y^0) + Hom(X^{-1}, Y^{-1}))
    - rank d^0 - rank d^{-1}, on the rows of _d0 and _d_minus1.

    Hom(X, Y[1]) = coker d^0 is taken in two quotients.  Hom(P(w), -) is
    exact, so dividing Hom(X^{-1}, Y^0) by the image of d_Y first leaves
    the sum of N_u over the summands P(u) of X^{-1} (_cokernels(y)).  The
    f_0 d_X part of d^0 then reaches it from the free coordinates of N_v
    alone, one row per summand P(v) of X^0 and free Y^0 summand j at v,
    since a map through the image of d_Y stays there after d_X: the row
    is the sum over the summands P(u) of X^{-1} of d_X's entry from P(u)
    to P(v) times the coordinates of j in N_u.  dim Hom(X, Y[1]) is the
    sum of the dim N_u less the rank of those rows; it is 0 when every
    N_u is zero (Y = P(v)[1], say) and the whole sum when there is no
    row (X = P(v)[1]).

    Shifts with |k| >= 2 vanish for two-term complexes.  k = -1 is
    rejected: those spaces need not vanish and are outside this engine's
    scope.
    """
    if x.quiver != y.quiver:
        raise ValueError("complexes live over different quivers")
    if k == -1:
        raise ValueError("shift -1 is not supported")
    if k == 0:
        d0, _, nw = _d0(x, y)
        return len(d0) - rank(d0, nw) - rank(*_d_minus1(x, y))
    if k != 1:
        return 0
    coker = _cokernels(y)
    blocks = [
        (a, coords, [0] * len(free))
        for a, (free, coords) in enumerate(map(coker.get, x.deg_minus1))
        if free
    ]
    width = sum(len(zeros) for _, _, zeros in blocks)
    if width == 0:
        return 0
    rows = []
    for v, d_row in zip(x.deg0, x.diff):
        for j in coker[v][0]:
            row: List[int] = []
            for a, coords, zeros in blocks:
                c = d_row[a]
                if c == 1:
                    row += coords[j]
                else:
                    row += [c * e for e in coords[j]] if c else zeros
            rows.append(row)
    return width - rank(rows, width)


def _matrix(
    q: Quiver, srcs: Tuple[int, ...], tgts: Tuple[int, ...], vec: Sequence[int]
) -> List[List[int]]:
    """vec, a map +P(srcs) -> +P(tgts) in _layout order, as a matrix of
    scalars in the format of TwoTermComplex.diff: entry (j, i) is block
    (j, i)."""
    n = len(srcs)
    mat = [[0] * n for _ in tgts]
    for ji, t in _layout(q, srcs, tgts)[0].items():
        mat[ji // n][ji % n] = vec[t]
    return mat


def _degrees(
    a: TwoTermComplex, b: TwoTermComplex, row: Sequence[int]
) -> Tuple[List[List[int]], List[List[int]]]:
    """A chain-map row of Hom(A, B) as its degree-0 and degree -1
    matrices of scalars."""
    q = a.quiver
    n0 = _layout(q, a.deg0, b.deg0)[1]
    n = n0 + _layout(q, a.deg_minus1, b.deg_minus1)[1]
    if len(row) != n:
        raise ValueError(f"expected a chain-map row of length {n}, got {len(row)}")
    return (
        _matrix(q, a.deg0, b.deg0, row[:n0]),
        _matrix(q, a.deg_minus1, b.deg_minus1, row[n0:]),
    )


def compose(
    x: TwoTermComplex,
    y: TwoTermComplex,
    z: TwoTermComplex,
    f: Sequence[int],
    g: Sequence[int],
) -> List[int]:
    """The chain-map row of g after f, for chain-map rows f: X -> Y and
    g: Y -> Z in hom_class_basis's coordinates.  In each degree the two
    maps multiply as matrices of scalars by linalg.matmul, since a path
    followed by a path is the one path between their ends."""
    q, out = x.quiver, []
    for srcs, tgts, fm, gm in zip(
        (x.deg0, x.deg_minus1),
        (z.deg0, z.deg_minus1),
        _degrees(x, y, f),
        _degrees(y, z, g),
    ):
        n = len(srcs)
        h = matmul(gm, fm, n)
        out += [h[ji // n][ji % n] for ji in _layout(q, srcs, tgts)[0]]
    return out
