"""End(T) assembled with every block e_i B e_j as a vector space: the
reference that silt.endo's one-scalar-per-triple assembly is tested
against.

Each block keeps its Hom-class basis, as chain-map rows, and two rows
compose through path-vector matrices (path_vector_maps.compose_reference),
not through silt.complexes.compose.  The Gabriel arrows are the
complement of the span of products through a third summand, found by
row reduction; every Gabriel path is evaluated by composing its arrows'
classes in turn (`reference_path_values`), and the relations are the
kernels of that evaluation.
"""

from functools import cache
from typing import Callable, Dict, List, Sequence, Tuple

from path_vector_maps import compose_reference, identity_reference
from silt.complexes import hom_class_basis, hom_class_dim
from silt.linalg import (
    Matrix,
    kernel_basis,
    pivot_columns,
    reduce_by_rref,
    row_space_rref,
)
from silt.modules import BoundQuiverAlgebra, object_label
from silt.quivers import Arrow, PathVector, Quiver, path_tables, paths_between
from silt.silting import (
    Positions,
    silting_label,
    summand_classes,
    summand_complex,
)


def is_presilting(q: Quiver, summands) -> bool:
    """True iff Hom(X, Y[1]) vanishes for every ordered summand pair,
    each ranked in the Hom complex."""
    cx = [summand_complex(q, s) for s in summands]
    return all(hom_class_dim(a, b, 1) == 0 for a in cx for b in cx)


PathValue = Callable[[int, int, Tuple[str, ...]], List[int]]


def reference_path_values(
    q: Quiver, t: Positions
) -> Tuple[Quiver, Tuple[Tuple[int, ...], ...], PathValue]:
    """The Gabriel quiver of End(T), its block dimensions dim e_i B e_j,
    and the value of each Gabriel path from i to j in the Hom-class
    basis of its block, every arrow composed in turn."""
    label, summands = silting_label(q, t), summand_classes(q, t)
    if not is_presilting(q, summands):
        raise ValueError(f"{label}: the given object is not silting")
    n = len(summands)
    cx = [summand_complex(q, s) for s in summands]
    spaces = {
        (i, j): hom_class_basis(cx[j], cx[i], 0)
        for i in range(n)
        for j in range(n)
    }
    for i in range(n):
        if spaces[(i, i)].dim() != 1:
            raise RuntimeError(
                f"{label}: summand {object_label(summands[i])} has "
                f"endomorphism ring of dimension {spaces[(i, i)].dim()}, "
                "expected 1"
            )
    idents = [identity_reference(c) for c in cx]
    ident_coords = [spaces[(i, i)].coords(e) for i, e in enumerate(idents)]
    if not all(map(any, ident_coords)):
        raise RuntimeError(f"{label}: identity collapsed to zero")

    # chain-map rows of a basis of B, diagonal blocks holding the
    # identities; block (i, j) is Hom(T_j, T_i)
    block_elems: Dict[Tuple[int, int], Tuple[Sequence[int], ...]] = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                block_elems[(i, j)] = (idents[i],)
            else:
                block_elems[(i, j)] = spaces[(i, j)].class_basis

    def product(i: int, k: int, j: int, f, g) -> List[int]:
        """f after g, for g in block (k, j) and f in block (i, k)."""
        return compose_reference(cx[j], cx[k], cx[i], g, f)

    def block_coords(i: int, j: int, row: Sequence[int]) -> List[int]:
        coords = spaces[(i, j)].coords(row)
        if i == j:
            # the identity's coordinate, so an exact quotient
            c, rem = divmod(coords[0], ident_coords[i][0])
            if rem:
                raise RuntimeError(f"{label}: {row} is no multiple of 1")
            return [c]
        return list(coords)

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
            sq: List[List[int]] = []
            for k in range(n):
                if k == i or k == j:
                    continue
                for f in block_elems[(i, k)]:
                    for g in block_elems[(k, j)]:
                        sq.append(block_coords(i, j, product(i, k, j, f, g)))
            pivots = pivot_columns(row_space_rref(sq))
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

    ends = {a.id: (a.source - 1, a.target - 1) for a in arrows}

    @cache
    def path_class(source: int, arrow_ids: Tuple[str, ...]) -> List[int]:
        """The path's value in B, as a chain-map row: its arrows composed
        in turn."""
        if not arrow_ids:
            return idents[source - 1]
        head = path_class(source, arrow_ids[:-1])
        k, j = ends[arrow_ids[-1]]
        return product(source - 1, k, j, head, arrow_class[arrow_ids[-1]])

    def path_value(
        source: int, target: int, arrow_ids: Tuple[str, ...]
    ) -> List[int]:
        row = path_class(source, arrow_ids)
        return block_coords(source - 1, target - 1, row)

    dims = tuple(
        tuple(len(block_elems[(i, j)]) for j in range(n)) for i in range(n)
    )
    return gq, dims, path_value


def endomorphism_algebra_reference(
    q: Quiver, t: Positions
) -> BoundQuiverAlgebra:
    """End(T) of a silting object, every block a vector space."""
    label = silting_label(q, t)
    gq, dims, path_value = reference_path_values(q, t)
    n = len(gq.vertices)
    pb = paths_between(gq)
    index = path_tables(gq)[1]

    # relations: per vertex pair, the left kernel of path evaluation
    relations: List[PathVector] = []
    kernels: Dict[Tuple[int, int], List[List[int]]] = {}
    quotient_dim = 0
    for i in range(n):
        for j in range(n):
            paths = pb[(i + 1, j + 1)]
            if not paths:
                kernels[(i, j)] = []
                continue
            if dims[i][j]:
                rows = [path_value(i + 1, j + 1, p) for p in paths]
                # the left kernel: rows is non-empty and dims[i][j] wide
                ker = kernel_basis(Matrix.from_rows(list(zip(*rows))))
            else:
                ker = [
                    [int(r == s) for r in range(len(paths))]
                    for s in range(len(paths))
                ]
            kernels[(i, j)] = row_space_rref(ker)
            quotient_dim += len(paths) - len(kernels[(i, j)])
    if quotient_dim != sum(map(sum, dims)):
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
            span: List[List[int]] = []
            for a in gq.arrows:
                if a.source == i + 1:
                    inner = kernels[(a.target - 1, j)]
                    inner_paths = pb[(a.target, j + 1)]
                    for u in inner:
                        vec = [0] * len(paths)
                        for t, p in enumerate(inner_paths):
                            vec[index[(i + 1, (a.id,) + p)]] = u[t]
                        span.append(vec)
                if a.target == j + 1:
                    inner = kernels[(i, a.source - 1)]
                    inner_paths = pb[(i + 1, a.source)]
                    for u in inner:
                        vec = [0] * len(paths)
                        for t, p in enumerate(inner_paths):
                            vec[index[(i + 1, p + (a.id,))]] = u[t]
                        span.append(vec)
            s_rref = row_space_rref(span)
            reduced = [reduce_by_rref(u, s_rref) for u in ker]
            gens = row_space_rref(reduced)
            if len(gens) != len(ker) - len(s_rref):
                raise RuntimeError(
                    f"{label}: relation generators are not independent"
                )
            for g in gens:
                terms = {
                    paths[t]: c for t, c in enumerate(g) if c != 0
                }
                if any(len(arrs) < 2 for arrs in terms):
                    raise RuntimeError(
                        f"{label}: relation ideal is not admissible "
                        "(short paths)"
                    )
                relations.append(PathVector.make(i + 1, j + 1, terms))

    return BoundQuiverAlgebra(gq, tuple(relations), dims)
