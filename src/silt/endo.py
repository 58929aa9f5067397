"""Endomorphism algebras of silting objects, as bound quiver algebras.

The algebra B = End(T) of a silting object T with summands T_1..T_n is
assembled from the homotopy Hom spaces: e_i B e_j = Hom(T_j, T_i), with
product x.y = x after y, so that End of the regular object recovers the
path algebra with its original arrow directions.

Every block e_i B e_j of a silted algebra of Dynkin type is at most
one-dimensional, and e_i B e_i is the field; endomorphism_algebra checks
this premise and raises otherwise.  hom_class_basis gives each Hom space
a canonical basis class, so composing two of them gives one scalar
(_product) per triple of summand complexes, cached across every T that
contains them.  From these scalars alone we read off the Gabriel quiver
(arrows i -> j are the non-zero blocks no product through a third
summand reaches), the value of every Gabriel path (the product of the
scalars along it), a minimal generating set of relations (kernel of the
induced map from the path algebra of the Gabriel quiver).  The Gabriel
quiver's path tables come from the uncached quivers.path_tables and are
dropped on return, since no later call reads them.  The algebra is
these arrows and relations with the block dimensions as its integer
Cartan rows; its projectives, which only the resolutions of simples
read, are derived from the relations by modules.projectives.  Also here:
the blocks, as the vertex sets of the Gabriel quiver's components, and
the integer Cartan rows.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import cache
from typing import Dict, List, Tuple

from .complexes import compose, hom_class_basis
from .linalg import (
    RatMatrix,
    charpoly,
    kernel_basis,
    reduce_by_rref,
    row_space_rref,
)
from .modules import BoundQuiverAlgebra, TwoTermComplex
from .quivers import (
    Arrow,
    PathVector,
    Quiver,
    _components,
    coxeter_matrix,
    path_tables,
)
from .silting import SiltingObject, is_presilting, summand_complex


@cache
def _product(x: TwoTermComplex, y: TwoTermComplex, z: TwoTermComplex) -> Q:
    """The scalar c with (basis class of Hom(Y, Z)) after (basis class of
    Hom(X, Y)) = c * (basis class of Hom(X, Z)), for three one-dimensional
    Hom spaces.  The bases are canonical, so c depends on the triple alone
    and serves every End(T) that has X, Y and Z among its summands."""
    (f,) = hom_class_basis(x, y, 0).elements()
    (g,) = hom_class_basis(y, z, 0).elements()
    (c,) = compose(f, g).coords
    return c


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

    def failed(check: str) -> RuntimeError:
        return RuntimeError(f"{label}: assembly: {check}")

    n = len(t.summands)
    cx = [summand_complex(q, s) for s in t.summands]
    # dims[i][j] = dim e_i B e_j = dim Hom(T_j, T_i), checked to be 0 or 1
    dims = [
        [hom_class_basis(cx[j], cx[i], 0).dim() for j in range(n)]
        for i in range(n)
    ]
    for i in range(n):
        for j in range(n):
            expected = (1,) if i == j else (0, 1)
            if dims[i][j] not in expected:
                raise failed(
                    f"Hom({t.summands[j].label()}, {t.summands[i].label()}) "
                    f"has dimension {dims[i][j]}, expected "
                    + " or ".join(map(str, expected))
                )
    dim_b = sum(map(sum, dims))

    def scalar(i: int, k: int, j: int) -> Q:
        """e_ik . e_kj over e_ij, the composite T_j -> T_k -> T_i."""
        return _product(cx[j], cx[k], cx[i])

    # Gabriel arrows: the non-zero blocks no product through a third
    # summand reaches
    pairs = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j
        and dims[i][j]
        and not any(
            dims[i][k] and dims[k][j] and scalar(i, k, j)
            for k in range(n)
            if k not in (i, j)
        )
    ]
    arrows = [
        Arrow(f"a{num}", i + 1, j + 1) for num, (i, j) in enumerate(pairs, 1)
    ]
    ends = {a.id: (a.source - 1, a.target - 1) for a in arrows}
    gq = Quiver(tuple(range(1, n + 1)), tuple(arrows))
    pb, index = path_tables(gq)

    @cache
    def value(source: int, arrow_ids: Tuple[str, ...]) -> Q:
        """The path's value over its block's basis class: an arrow is the
        basis class, and each further arrow multiplies by a scalar.  The
        Gabriel quiver is acyclic, so only the lazy path ends at its
        source, with the identity as value."""
        if len(arrow_ids) < 2:
            return Q(1)
        head = value(source, arrow_ids[:-1])
        i, (k, j) = source - 1, ends[arrow_ids[-1]]
        if head == 0 or not dims[i][j]:
            return Q(0)
        return head * scalar(i, k, j)

    # relations: per vertex pair, the kernel of path evaluation
    relations: List[PathVector] = []
    kernels: Dict[Tuple[int, int], List[List[Q]]] = {}
    quotient_dim = 0
    for i in range(n):
        for j in range(n):
            paths = pb[(i + 1, j + 1)]
            if not paths:
                kernels[(i, j)] = []
                continue
            row = [value(i + 1, p.arrows) for p in paths]
            kernels[(i, j)] = row_space_rref(
                kernel_basis(RatMatrix.from_rows([row]))
            )
            quotient_dim += len(paths) - len(kernels[(i, j)])
    if quotient_dim != dim_b:
        raise failed(
            "path algebra modulo relations does not match End(T) dimension"
        )

    # minimal generators: kernel modulo (arrow ideal . kernel + kernel . arrow ideal)
    for i in range(n):
        for j in range(n):
            ker = kernels[(i, j)]
            if not ker:
                continue
            paths = pb[(i + 1, j + 1)]
            span: List[List[Q]] = []
            for a in gq.arrows:
                if a.source == i + 1:
                    inner = kernels[(a.target - 1, j)]
                    inner_paths = pb[(a.target, j + 1)]
                    for u in inner:
                        vec = [Q(0)] * len(paths)
                        for t, p in enumerate(inner_paths):
                            vec[index[(i + 1, (a.id,) + p.arrows)]] = u[t]
                        span.append(vec)
                if a.target == j + 1:
                    inner = kernels[(i, a.source - 1)]
                    inner_paths = pb[(i + 1, a.source)]
                    for u in inner:
                        vec = [Q(0)] * len(paths)
                        for t, p in enumerate(inner_paths):
                            vec[index[(i + 1, p.arrows + (a.id,))]] = u[t]
                        span.append(vec)
            s_rref = row_space_rref(span)
            reduced = [reduce_by_rref(u, s_rref) for u in ker]
            gens = row_space_rref(reduced)
            if len(gens) != len(ker) - len(s_rref):
                raise failed("relation generators are not independent")
            for g in gens:
                terms = {
                    paths[t].arrows: c for t, c in enumerate(g) if c != 0
                }
                if any(len(arrs) < 2 for arrs in terms):
                    raise failed(
                        "relation ideal is not admissible (short paths)"
                    )
                relations.append(PathVector.make(i + 1, j + 1, terms))

    return BoundQuiverAlgebra(gq, tuple(relations), tuple(map(tuple, dims)))


def blocks(b: BoundQuiverAlgebra) -> Tuple[Tuple[int, ...], ...]:
    """Vertex sets of the connected components of the Gabriel quiver.

    No arrow, relation or path joins two blocks, so e_v B e_u = 0 across
    them: a block's Cartan rows are the rows of cartan_data(b) restricted
    to its vertices, and a simple's minimal resolution stays inside its
    block.
    """
    return tuple(tuple(comp) for comp in _components(b.gabriel))


def cartan_data(b: BoundQuiverAlgebra) -> Tuple[Tuple[int, ...], ...]:
    """Integer Cartan rows of the algebra: row v is dim P(v)."""
    return b.cartan


@cache
def coxeter_polynomial(cartan: Tuple[Tuple[int, ...], ...]) -> Tuple[int, ...]:
    """Coefficients of det(t - Phi), leading first, for integer Cartan rows
    C and Phi = -C^{-1} C^T."""
    return charpoly(coxeter_matrix(cartan))
