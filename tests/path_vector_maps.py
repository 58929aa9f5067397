"""Maps between sums of projectives as matrices of path vectors: the
reference route that silt.complexes.compose is tested against.

A map +P(srcs) -> +P(tgts) is a matrix whose (j, i) entry is a
PathVector in Hom(P(srcs[i]), P(tgts[j])), spanned by the paths from
tgts[j] to srcs[i]; maps compose entrywise by pv_mul, the concatenation
product of paths.  Vectors convert to matrices and back through the
positions of silt.complexes._layout, keyed by j * len(srcs) + i, each
standing for the single path of its block in quivers.paths_between; a
complex's differential, stored as scalars, converts by diff_mat.
"""

from typing import List, Sequence, Tuple

from silt.complexes import TwoTermComplex, _layout
from silt.quivers import PathVector, Quiver, paths_between

PVMatrix = Tuple[Tuple[PathVector, ...], ...]


def pv_zero(source: int, target: int) -> PathVector:
    return PathVector(source, target, ())


def pv_add(a: PathVector, b: PathVector) -> PathVector:
    if (a.source, a.target) != (b.source, b.target):
        raise ValueError("path vector endpoint mismatch")
    acc = dict(a.terms)
    for arrows, c in b.terms:
        acc[arrows] = acc.get(arrows, 0) + c
    return PathVector.make(a.source, a.target, acc)


def pv_scale(a: PathVector, c) -> PathVector:
    return PathVector.make(
        a.source, a.target, {arrows: co * c for arrows, co in a.terms}
    )


def pv_mul(a: PathVector, b: PathVector) -> PathVector:
    """Concatenation product; requires a.target == b.source."""
    if a.target != b.source:
        raise ValueError("paths do not compose")
    acc = {}
    for a1, c1 in a.terms:
        for a2, c2 in b.terms:
            acc[a1 + a2] = acc.get(a1 + a2, 0) + c1 * c2
    return PathVector.make(a.source, b.target, acc)


def diff_mat(x: TwoTermComplex) -> PVMatrix:
    """d_X as path vectors: each scalar times the one path of its block."""
    pb = paths_between(x.quiver)

    def entry(b: int, a: int, c: int) -> PathVector:
        if not c:
            return pv_zero(b, a)
        (p,) = pb[(b, a)]
        return PathVector.make(b, a, {p: c})

    return tuple(
        tuple(entry(b, a, c) for a, c in zip(x.deg_minus1, row))
        for b, row in zip(x.deg0, x.diff)
    )


def vec_to_mat(
    q: Quiver, srcs: Tuple[int, ...], tgts: Tuple[int, ...], vec: Sequence[int]
) -> PVMatrix:
    pb = paths_between(q)
    mat = [[pv_zero(v, u) for u in srcs] for v in tgts]
    for ji, t in _layout(q, srcs, tgts)[0].items():
        j, i = divmod(ji, len(srcs))
        (p,) = pb[(tgts[j], srcs[i])]
        mat[j][i] = PathVector.make(tgts[j], srcs[i], {p: vec[t]})
    return tuple(tuple(r) for r in mat)


def mat_to_vec(
    q: Quiver, srcs: Tuple[int, ...], tgts: Tuple[int, ...], mat: PVMatrix
) -> List[int]:
    pb = paths_between(q)
    pos, total = _layout(q, srcs, tgts)
    vec = [0] * total
    for ji, t in pos.items():
        j, i = divmod(ji, len(srcs))
        (p,) = pb[(tgts[j], srcs[i])]
        vec[t] = dict(mat[j][i].terms).get(p, 0)
    return vec


def compose_mats(
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
            acc = pv_zero(w, u)
            for j in range(len(mids)):
                acc = pv_add(acc, pv_mul(g[k][j], f[j][i]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mats(
    x: TwoTermComplex, y: TwoTermComplex, row: Sequence[int]
) -> Tuple[PVMatrix, PVMatrix]:
    """A chain-map row of Hom(X, Y) as path-vector matrices: (degree-0
    component, degree-(-1) component)."""
    q = x.quiver
    _, n0 = _layout(q, x.deg0, y.deg0)
    mat0 = vec_to_mat(q, x.deg0, y.deg0, row[:n0])
    matm = vec_to_mat(q, x.deg_minus1, y.deg_minus1, row[n0:])
    return mat0, matm


def compose_reference(
    x: TwoTermComplex,
    y: TwoTermComplex,
    z: TwoTermComplex,
    f: Sequence[int],
    g: Sequence[int],
) -> List[int]:
    """The chain-map row of g after f, through path-vector matrices."""
    q = x.quiver
    f0, fm = mats(x, y, f)
    g0, gm = mats(y, z, g)
    c0 = compose_mats(x.deg0, y.deg0, z.deg0, g0, f0)
    cm = compose_mats(x.deg_minus1, y.deg_minus1, z.deg_minus1, gm, fm)
    return mat_to_vec(q, x.deg0, z.deg0, c0) + mat_to_vec(
        q, x.deg_minus1, z.deg_minus1, cm
    )


def identity_reference(x: TwoTermComplex) -> List[int]:
    """The identity chain map of X as a matrix of lazy paths, as a
    chain-map row."""
    q = x.quiver
    vec: List[int] = []
    for vs in (x.deg0, x.deg_minus1):
        ident = tuple(
            tuple(
                PathVector.make(v, u, {(): 1}) if j == i else pv_zero(v, u)
                for i, u in enumerate(vs)
            )
            for j, v in enumerate(vs)
        )
        vec += mat_to_vec(q, vs, vs, ident)
    return vec
