"""Endomorphism algebras of silting objects, as bound quiver algebras.

The algebra B = End(T) of a silting object T with summands T_1..T_n is
assembled from the homotopy Hom spaces: e_i B e_j = Hom(T_j, T_i), with
product x.y = x after y, so that End of the regular object recovers the
path algebra with its original arrow directions.

From the multiplication table we extract the Gabriel quiver (arrows
i -> j are a basis of the (i,j) part of rad/rad^2), a minimal generating
set of relations (kernel of the induced map from the path algebra of the
Gabriel quiver), a canonical path-class basis, and Cartan data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cache
from typing import Dict, Iterable, List, Sequence, Tuple

from .complexes import HomClass, compose, hom_class_basis, identity_class
from .linalg import (
    RatMatrix,
    kernel_basis,
    pivot_columns,
    reduce_by_rref,
    row_space_rref,
)
from .quivers import (
    Arrow,
    PathVector,
    Quiver,
    _components,
    full_subquiver,
    paths_between,
)
from .silting import SiltingObject, is_presilting, summand_complex

Coords = Tuple[Q, ...]


@dataclass(frozen=True)
class CartanData:
    """Cartan matrix of a basic algebra and its Coxeter polynomial."""

    cartan: Tuple[Tuple[int, ...], ...]
    coxeter_polynomial: Tuple[int, ...]


def _table_product(
    mult: Sequence[Sequence[Coords]], u: Coords, v: Coords
) -> Coords:
    """Product of coordinate vectors u, v given the basis products mult[x][y]."""
    out = [Q(0)] * len(mult)
    for x, cu in enumerate(u):
        if cu == 0:
            continue
        for y, cv in enumerate(v):
            if cv == 0:
                continue
            for z, cw in enumerate(mult[x][y]):
                out[z] += cu * cv * cw
    return tuple(out)


@dataclass(frozen=True)
class BoundQuiverAlgebra:
    """Basic algebra given by a Gabriel quiver, relations, and a basis.

    basis_paths lists the path-class basis as (source, target, arrow ids)
    over the Gabriel quiver; mult[x][y] gives the product of basis
    elements x and y in basis coordinates.
    """

    gabriel: Quiver
    relations: Tuple[PathVector, ...]
    dimension: int
    basis_paths: Tuple[Tuple[int, int, Tuple[str, ...]], ...]
    mult: Tuple[Tuple[Coords, ...], ...]

    def __post_init__(self):
        if len(self.basis_paths) != self.dimension:
            raise ValueError("basis size does not match dimension")

    def unit_coords(self, x: int) -> Coords:
        return tuple(
            Q(1) if i == x else Q(0) for i in range(self.dimension)
        )

    def multiply_coords(self, u: Coords, v: Coords) -> Coords:
        return _table_product(self.mult, u, v)

    def cartan_entry(self, i: int, j: int) -> int:
        return sum(
            1 for s, t, _ in self.basis_paths if s == i and t == j
        )

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

    def to_dot(self) -> str:
        lines = ["digraph endo {", "  rankdir=LR;"]
        for v in self.gabriel.vertices:
            lines.append(f'  "{v}" [shape=circle];')
        for a in self.gabriel.arrows:
            lines.append(f'  "{a.source}" -> "{a.target}" [label="{a.id}"];')
        for rel in self.relations:
            lines.append(
                f'  "{rel.source}" -> "{rel.target}" '
                "[style=dotted, arrowhead=none, constraint=false];"
            )
        lines.append("}")
        return "\n".join(lines) + "\n"


@cache
def endomorphism_algebra(q: Quiver, t: SiltingObject) -> BoundQuiverAlgebra:
    """End(T) of a silting object as a bound quiver algebra."""
    if t.quiver != q:
        raise ValueError("silting object lives over a different quiver")
    if not is_presilting(q, t.summands):
        raise ValueError("the given object is not silting")
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
                f"summand {t.summands[i].label()} has endomorphism ring of "
                f"dimension {spaces[(i, i)].dim()}, expected 1"
            )
        if idents[i].is_zero():
            raise RuntimeError("identity collapsed to zero")

    # homotopy-class basis of B, diagonal blocks holding the identities
    block_elems: Dict[Tuple[int, int], Tuple[HomClass, ...]] = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                block_elems[(i, j)] = (idents[i],)
            else:
                block_elems[(i, j)] = spaces[(i, j)].elements()
    offsets: Dict[Tuple[int, int], int] = {}
    basis_ix: List[Tuple[int, int, HomClass]] = []
    for i in range(n):
        for j in range(n):
            offsets[(i, j)] = len(basis_ix)
            basis_ix.extend((i, j, e) for e in block_elems[(i, j)])
    dim_b = len(basis_ix)

    def block_coords(i: int, j: int, cls: HomClass) -> List[Q]:
        if i == j:
            return [cls.coords[0] / idents[i].coords[0]]
        return list(cls.coords)

    def embed(i: int, j: int, coords: List[Q]) -> Coords:
        out = [Q(0)] * dim_b
        for t_, c in enumerate(coords):
            out[offsets[(i, j)] + t_] = c
        return tuple(out)

    hmult: List[List[Coords]] = [
        [tuple([Q(0)] * dim_b) for _ in range(dim_b)] for _ in range(dim_b)
    ]
    for x, (i, j, f) in enumerate(basis_ix):
        for y, (k, l, g) in enumerate(basis_ix):
            if j != k:
                continue
            prod = compose(g, f)  # g: T_l -> T_j, then f: T_j -> T_i
            bc = block_coords(i, l, prod)
            if i == l and i != j and any(c != 0 for c in bc):
                raise RuntimeError(
                    "radical square leaked into a diagonal block"
                )
            hmult[x][y] = embed(i, l, bc)

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

    arrow_value: Dict[str, Coords] = {}
    for (i, j, c), a in zip(arrow_payload, arrows):
        coords = [Q(0)] * len(block_elems[(i, j)])
        coords[c] = Q(1)
        arrow_value[a.id] = embed(i, j, coords)

    pb = paths_between(gq)

    @cache
    def path_value(source: int, arrow_ids: Tuple[str, ...]) -> Coords:
        if not arrow_ids:
            i = source - 1
            return embed(i, i, [Q(1)])
        head = path_value(source, arrow_ids[:-1])
        return _table_product(hmult, head, arrow_value[arrow_ids[-1]])

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
            bd = len(block_elems[(i, j)])
            off = offsets[(i, j)]
            rows = [
                list(path_value(i + 1, p.arrows)[off : off + bd])
                for p in paths
            ]
            if bd:
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
            "path algebra modulo relations does not match End(T) dimension"
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
                raise RuntimeError("relation generators are not independent")
            for g in gens:
                terms = {
                    paths[t].arrows: c for t, c in enumerate(g) if c != 0
                }
                if any(len(arrs) < 2 for arrs in terms):
                    raise RuntimeError(
                        "relation ideal is not admissible (short paths)"
                    )
                relations.append(PathVector.make(i + 1, j + 1, terms))

    # canonical path-class basis and the multiplication table over it
    chosen: List[Tuple[int, int, Tuple[str, ...]]] = []
    chosen_vecs: List[Coords] = []
    for i in range(n):
        for j in range(n):
            kept: List[List[Q]] = []
            for p in pb[(i + 1, j + 1)]:
                vec = path_value(i + 1, p.arrows)
                if any(reduce_by_rref(vec, kept)):
                    kept = row_space_rref(kept + [vec], dim_b)
                    chosen.append((i + 1, j + 1, p.arrows))
                    chosen_vecs.append(vec)
    if len(chosen) != dim_b:
        raise RuntimeError("path-class basis has wrong size")

    # coordinates over the chosen basis: the product times its inverse
    to_chosen = RatMatrix.from_rows(chosen_vecs).inverse().to_rows()
    mult_rows: List[List[Coords]] = []
    for u in chosen_vecs:
        row: List[Coords] = []
        for v in chosen_vecs:
            coords = [Q(0)] * dim_b
            for c, inv_row in zip(_table_product(hmult, u, v), to_chosen):
                if c != 0:
                    coords = [a + c * b for a, b in zip(coords, inv_row)]
            row.append(tuple(coords))
        mult_rows.append(row)

    return BoundQuiverAlgebra(
        gabriel=gq,
        relations=tuple(relations),
        dimension=dim_b,
        basis_paths=tuple(chosen),
        mult=tuple(tuple(r) for r in mult_rows),
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
        sel = [
            x
            for x, (s, t, _) in enumerate(b.basis_paths)
            if s in keep and t in keep
        ]
        basis = tuple(b.basis_paths[x] for x in sel)
        mult = tuple(
            tuple(
                tuple(b.mult[x][y][z] for z in sel) for y in sel
            )
            for x in sel
        )
        out.append(
            BoundQuiverAlgebra(
                gabriel=sub,
                relations=rels,
                dimension=len(sel),
                basis_paths=basis,
                mult=mult,
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
    """Cartan matrix and the Coxeter polynomial det(t - (-C^{-T} C))."""
    n = len(b.gabriel.vertices)
    c = RatMatrix(
        n,
        n,
        tuple(
            Q(b.cartan_entry(b.gabriel.vertices[i], b.gabriel.vertices[j]))
            for i in range(n)
            for j in range(n)
        ),
    )
    cart = tuple(
        tuple(int(c.at(i, j)) for j in range(n)) for i in range(n)
    )
    return CartanData(cartan=cart, coxeter_polynomial=coxeter_polynomial(c))


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
