"""Endomorphism algebras of silting objects, as bound quiver algebras.

The algebra B = End(T) of a silting object T with summands T_1..T_n is
assembled from the homotopy Hom spaces: e_i B e_j = Hom(T_j, T_i), with
product x.y = x after y, so that End of the regular object recovers the
path algebra with its original arrow directions.

From the compositions of Hom classes we extract the Gabriel quiver
(arrows i -> j are a basis of the (i,j) part of rad/rad^2), the value of
every Gabriel path (its arrows composed in turn), a minimal generating
set of relations (kernel of the induced map from the path algebra of the
Gabriel quiver), a canonical path-class basis, the indecomposable
projective modules, and Cartan data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cache
from typing import Dict, Iterable, List, Tuple

from .complexes import HomClass, compose, hom_class_basis, identity_class
from .linalg import (
    RatMatrix,
    kernel_basis,
    pivot_columns,
    reduce_by_rref,
    row_space_rref,
)
from .modules import QuiverRep, make_rep
from .quivers import (
    Arrow,
    PathVector,
    Quiver,
    _components,
    full_subquiver,
    paths_between,
)
from .silting import SiltingObject, is_presilting, summand_complex


@dataclass(frozen=True)
class CartanData:
    """Cartan matrix of a basic algebra and its Coxeter polynomial."""

    cartan: Tuple[Tuple[int, ...], ...]
    coxeter_polynomial: Tuple[int, ...]


@dataclass(frozen=True)
class BoundQuiverAlgebra:
    """Basic algebra given by a Gabriel quiver, relations, and a basis.

    basis_paths lists the path-class basis as (source, target, arrow ids)
    over the Gabriel quiver.  projectives[k] is P(v) = e_v B for the k-th
    Gabriel vertex v, as a representation of the Gabriel quiver: its basis
    at u is the basis paths from v to u, and an arrow a sends path p to
    the basis coordinates of the path p followed by a.
    """

    gabriel: Quiver
    relations: Tuple[PathVector, ...]
    dimension: int
    basis_paths: Tuple[Tuple[int, int, Tuple[str, ...]], ...]
    projectives: Tuple[QuiverRep, ...]

    def __post_init__(self):
        if len(self.basis_paths) != self.dimension:
            raise ValueError("basis size does not match dimension")

    def to_json_dict(self) -> dict:
        def coeff_json(c: Q):
            return int(c) if c.denominator == 1 else str(c)

        return {
            "vertices": list(self.gabriel.vertices),
            "arrows": [
                {"id": a.id, "source": a.source, "target": a.target}
                for a in self.gabriel.arrows
            ],
            "relations": [
                [[coeff_json(c), list(arrows)] for arrows, c in rel.terms]
                for rel in self.relations
            ],
            "dimension": self.dimension,
        }


@cache
def endomorphism_algebra(q: Quiver, t: SiltingObject) -> BoundQuiverAlgebra:
    """End(T) of a silting object as a bound quiver algebra."""
    label = t.label()
    if t.quiver != q:
        raise ValueError(
            f"{label}: silting object lives over a different quiver"
        )
    if not is_presilting(q, t.summands):
        raise ValueError(f"{label}: the given object is not silting")
    n = len(t.summands)
    cx = [summand_complex(q, s) for s in t.summands]
    spaces = {
        (i, j): hom_class_basis(cx[j], cx[i], 0)
        for i in range(n)
        for j in range(n)
    }
    idents = [identity_class(c) for c in cx]
    for i in range(n):
        if spaces[(i, i)].dim() != 1:
            raise RuntimeError(
                f"{label}: summand {t.summands[i].label()} has endomorphism "
                f"ring of dimension {spaces[(i, i)].dim()}, expected 1"
            )
        if idents[i].is_zero():
            raise RuntimeError(f"{label}: identity collapsed to zero")

    # homotopy-class basis of B, diagonal blocks holding the identities
    block_elems: Dict[Tuple[int, int], Tuple[HomClass, ...]] = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                block_elems[(i, j)] = (idents[i],)
            else:
                block_elems[(i, j)] = spaces[(i, j)].elements()
    dim_b = sum(len(e) for e in block_elems.values())

    def block_coords(i: int, j: int, cls: HomClass) -> List[Q]:
        if i == j:
            return [cls.coords[0] / idents[i].coords[0]]
        return list(cls.coords)

    # Gabriel arrows: complements of rad^2 inside each off-diagonal block
    arrow_payload: List[Tuple[int, int, int]] = []  # (i, j, coord in block)
    arrows: List[Arrow] = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            bd = len(block_elems[(i, j)])
            if bd == 0:
                continue
            sq: List[List[Q]] = []
            for k in range(n):
                if k == i or k == j:
                    continue
                for f in block_elems[(i, k)]:
                    for g in block_elems[(k, j)]:
                        prod = compose(g, f)
                        sq.append(block_coords(i, j, prod))
            pivots = pivot_columns(row_space_rref(sq, bd))
            for c in range(bd):
                if c not in pivots:
                    arrow_payload.append((i, j, c))
    for num, (i, j, _) in enumerate(arrow_payload, start=1):
        arrows.append(Arrow(f"a{num}", i + 1, j + 1))
    gq = Quiver(tuple(range(1, n + 1)), tuple(arrows))
    arrow_class = {
        a.id: block_elems[(i, j)][c]
        for (i, j, c), a in zip(arrow_payload, arrows)
    }

    pb = paths_between(gq)

    @cache
    def path_class(source: int, arrow_ids: Tuple[str, ...]) -> HomClass:
        """The path's value in B: its arrows composed in turn."""
        if not arrow_ids:
            return idents[source - 1]
        head = path_class(source, arrow_ids[:-1])
        return compose(arrow_class[arrow_ids[-1]], head)

    def path_value(
        source: int, target: int, arrow_ids: Tuple[str, ...]
    ) -> List[Q]:
        cls = path_class(source, arrow_ids)
        return block_coords(source - 1, target - 1, cls)

    # relations: per vertex pair, the left kernel of path evaluation
    relations: List[PathVector] = []
    kernels: Dict[Tuple[int, int], List[List[Q]]] = {}
    quotient_dim = 0
    for i in range(n):
        for j in range(n):
            paths = pb[(i + 1, j + 1)]
            if not paths:
                kernels[(i, j)] = []
                continue
            if block_elems[(i, j)]:
                rows = [path_value(i + 1, j + 1, p.arrows) for p in paths]
                ker = kernel_basis(RatMatrix.from_rows(rows).transpose())
            else:
                ker = [
                    [Q(1) if r == s else Q(0) for r in range(len(paths))]
                    for s in range(len(paths))
                ]
            kernels[(i, j)] = row_space_rref(ker, len(paths))
            quotient_dim += len(paths) - len(kernels[(i, j)])
    if quotient_dim != dim_b:
        raise RuntimeError(
            f"{label}: path algebra modulo relations does not match End(T) "
            "dimension"
        )

    # minimal generators: kernel modulo (arrow ideal . kernel + kernel . arrow ideal)
    for i in range(n):
        for j in range(n):
            ker = kernels[(i, j)]
            if not ker:
                continue
            paths = pb[(i + 1, j + 1)]
            index_of = {p.arrows: t for t, p in enumerate(paths)}
            span: List[List[Q]] = []
            for a in gq.arrows:
                if a.source == i + 1:
                    inner = kernels[(a.target - 1, j)]
                    inner_paths = pb[(a.target, j + 1)]
                    for u in inner:
                        vec = [Q(0)] * len(paths)
                        for t, p in enumerate(inner_paths):
                            vec[index_of[(a.id,) + p.arrows]] = u[t]
                        span.append(vec)
                if a.target == j + 1:
                    inner = kernels[(i, a.source - 1)]
                    inner_paths = pb[(i + 1, a.source)]
                    for u in inner:
                        vec = [Q(0)] * len(paths)
                        for t, p in enumerate(inner_paths):
                            vec[index_of[p.arrows + (a.id,)]] = u[t]
                        span.append(vec)
            s_rref = row_space_rref(span, len(paths))
            reduced = [reduce_by_rref(u, s_rref) for u in ker]
            gens = row_space_rref(reduced, len(paths))
            if len(gens) != len(ker) - len(s_rref):
                raise RuntimeError(
                    f"{label}: relation generators are not independent"
                )
            for g in gens:
                terms = {
                    paths[t].arrows: c for t, c in enumerate(g) if c != 0
                }
                if any(len(arrs) < 2 for arrs in terms):
                    raise RuntimeError(
                        f"{label}: relation ideal is not admissible "
                        "(short paths)"
                    )
                relations.append(PathVector.make(i + 1, j + 1, terms))

    # canonical path-class basis per block, and the inverse of its values
    chosen: Dict[Tuple[int, int], List[Tuple[str, ...]]] = {}
    to_chosen: Dict[Tuple[int, int], List[List[Q]]] = {}
    for i in range(n):
        for j in range(n):
            bd = len(block_elems[(i, j)])
            kept: List[List[Q]] = []
            paths_ij: List[Tuple[str, ...]] = []
            values: List[List[Q]] = []
            for p in pb[(i + 1, j + 1)] if bd else ():
                vec = path_value(i + 1, j + 1, p.arrows)
                if any(reduce_by_rref(vec, kept)):
                    kept = row_space_rref(kept + [vec], bd)
                    paths_ij.append(p.arrows)
                    values.append(vec)
            if len(values) != bd:
                raise RuntimeError(f"{label}: path-class basis has wrong size")
            chosen[(i + 1, j + 1)] = paths_ij
            if bd:
                to_chosen[(i + 1, j + 1)] = (
                    RatMatrix.from_rows(values).inverse().to_rows()
                )

    def basis_coords(
        source: int, target: int, arrow_ids: Tuple[str, ...]
    ) -> List[Q]:
        """Coordinates of a path's value over the chosen basis paths."""
        vec = path_value(source, target, arrow_ids)
        coords = [Q(0)] * len(vec)
        for c, inv_row in zip(vec, to_chosen.get((source, target), ())):
            if c != 0:
                coords = [a + c * b for a, b in zip(coords, inv_row)]
        return coords

    # P(v) = e_v B: an arrow sends each basis path p from v to p followed by it
    projectives: List[QuiverRep] = []
    for v in gq.vertices:
        mats: Dict[str, RatMatrix] = {}
        for a in gq.arrows:
            src = chosen[(v, a.source)]
            ent = tuple(
                c
                for p in src
                for c in basis_coords(v, a.target, p + (a.id,))
            )
            mats[a.id] = RatMatrix(len(src), len(chosen[(v, a.target)]), ent)
        dims = [len(chosen[(v, u)]) for u in gq.vertices]
        projectives.append(make_rep(gq, dims, mats))

    return BoundQuiverAlgebra(
        gabriel=gq,
        relations=tuple(relations),
        dimension=dim_b,
        basis_paths=tuple(
            (i + 1, j + 1, arrs)
            for i in range(n)
            for j in range(n)
            for arrs in chosen[(i + 1, j + 1)]
        ),
        projectives=tuple(projectives),
    )


def blocks(b: BoundQuiverAlgebra) -> Tuple[BoundQuiverAlgebra, ...]:
    """Connected components of the Gabriel quiver, as standalone algebras."""
    comps = _components(b.gabriel)
    out = []
    for comp in comps:
        keep = set(comp)
        sub = full_subquiver(b.gabriel, tuple(v for v in b.gabriel.vertices if v in keep))
        rels = tuple(
            r for r in b.relations if r.source in keep and r.target in keep
        )
        basis = tuple(
            x for x in b.basis_paths if x[0] in keep and x[1] in keep
        )
        projectives = tuple(
            make_rep(
                sub,
                [p.dim_at(u) for u in sub.vertices],
                {a.id: p.mat(a.id) for a in sub.arrows},
            )
            for v, p in zip(b.gabriel.vertices, b.projectives)
            if v in keep
        )
        out.append(
            BoundQuiverAlgebra(
                gabriel=sub,
                relations=rels,
                dimension=len(basis),
                basis_paths=basis,
                projectives=projectives,
            )
        )
    return tuple(out)


def matches_presentation(
    b: BoundQuiverAlgebra,
    arrows: Iterable[Tuple[int, int]],
    relations: Iterable[Tuple[int, int, int]],
) -> bool:
    """True iff some vertex relabelling matches the given presentation.

    ``arrows`` is a multiset of (source, target) pairs on vertices 1..n
    and ``relations`` a multiset of (source, target, path length)
    triples for monomial zero-relations.  A relation generator of B that
    mixes several paths never matches.
    """
    verts = b.gabriel.vertices
    want_arrows = sorted(arrows)
    want_rels = sorted(relations)
    if len(b.gabriel.arrows) != len(want_arrows):
        return False
    if len(b.relations) != len(want_rels):
        return False
    shapes = []
    for r in b.relations:
        if len(r.terms) != 1:
            return False
        arrow_ids, _ = r.terms[0]
        shapes.append((r.source, r.target, len(arrow_ids)))
    for perm in itertools.permutations(range(1, len(verts) + 1)):
        sigma = dict(zip(verts, perm))
        got_arrows = sorted(
            (sigma[a.source], sigma[a.target]) for a in b.gabriel.arrows
        )
        if got_arrows != want_arrows:
            continue
        got_rels = sorted((sigma[s], sigma[t], l) for s, t, l in shapes)
        if got_rels == want_rels:
            return True
    return False


def cartan_data(b: BoundQuiverAlgebra) -> CartanData:
    """Cartan matrix and the Coxeter polynomial det(t - (-C^{-T} C)).

    Row v of the Cartan matrix is dim P(v), read off the projectives.
    """
    n = len(b.gabriel.vertices)
    cart = tuple(p.dims for p in b.projectives)
    c = RatMatrix(n, n, tuple(d for row in cart for d in row))
    return CartanData(cartan=cart, coxeter_polynomial=coxeter_polynomial(c))


@cache
def coxeter_polynomial(c: RatMatrix) -> Tuple[int, ...]:
    """Coefficients of det(t - (-C^{-T} C)) for a Cartan matrix C, leading first."""
    try:
        cinv = c.inverse()
    except ValueError as e:
        raise ValueError("Cartan matrix is singular") from e
    coeffs = []
    for r in cinv.transpose().mul(c).neg().charpoly():
        if r.denominator != 1:
            raise RuntimeError("Coxeter polynomial is not integral")
        coeffs.append(int(r))
    return tuple(coeffs)
