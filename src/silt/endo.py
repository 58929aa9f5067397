"""Endomorphism algebras of silting objects, as bound quiver algebras.

The algebra B = End(T) of a silting object T with summands T_1..T_n is
assembled from the homotopy Hom spaces: e_i B e_j = Hom(T_j, T_i), with
product x.y = x after y, so that End of the regular object recovers the
path algebra with its original arrow directions.

The premise and the block dimensions are integers off the Euler form
table silting.euler_table, read at T's positions in two_term_objects
(which is all that T is): T is presilting iff <[T_i], [T_j]> >= 0
whenever T_j is a module, and dim e_i B e_j = max(0, <[T_j], [T_i]>),
checked to be at most 1, and 1 for i = j.  Only the non-zero blocks
reach the Hom layer: hom_class_basis gives each a canonical basis class,
a chain-map row, checked to be one-dimensional, so composing two of them
(complexes.compose) and reading the composite's coordinate in the third
block's basis gives one scalar (_product) per triple of summand
complexes, cached across every T that contains them, and checked to be
0 or ±1.  From these integers alone we
read off the Gabriel quiver (arrows i -> j are the non-zero blocks no
product through a third summand reaches), the value of every Gabriel
path (the product of the scalars along it) and a minimal generating set
of relations: per vertex pair, the rows of the closed-form RREF of the
kernel of path evaluation whose pivots the ideal generated by the
neighbouring pairs' kernels misses.  The Gabriel quiver's path tables
come from the uncached quivers.path_tables and are dropped on return.
The algebra is these arrows and relations with the block dimensions as
its integer Cartan rows; its projectives, which only the resolutions of
simples read, are derived from the relations by modules.projectives.
Also here: the blocks, as the vertex sets of the Gabriel quiver's
components, and the integer Cartan rows that classify types them by.
"""

from __future__ import annotations

from functools import cache
from operator import mul
from typing import Dict, List, Tuple

from .complexes import compose, hom_class_basis
from .linalg import _echelon, pivot_columns
from .modules import BoundQuiverAlgebra, TwoTermComplex, is_shift, object_label
from .quivers import (
    Arrow,
    PathVector,
    Quiver,
    _components,
    path_tables,
)
from .silting import euler_table, silting_label, summand_classes, summand_complex


@cache
def _product(x: TwoTermComplex, y: TwoTermComplex, z: TwoTermComplex) -> int:
    """The scalar c with (basis class of Hom(Y, Z)) after (basis class of
    Hom(X, Y)) = c * (basis class of Hom(X, Z)), for three one-dimensional
    Hom spaces.  The bases are canonical, so c depends on the triple alone
    and serves every End(T) that has X, Y and Z among its summands."""
    (f,) = hom_class_basis(x, y, 0).class_basis
    (g,) = hom_class_basis(y, z, 0).class_basis
    (c,) = hom_class_basis(x, z, 0).coords(compose(x, y, z, f, g))
    return c


@cache
def endomorphism_algebra(q: Quiver, t: Tuple[int, ...]) -> BoundQuiverAlgebra:
    """End(T) of the silting object at the positions t as a bound quiver
    algebra."""
    chi, summands = euler_table(q), summand_classes(q, t)
    # Hom(T_i, T_j[1]) = 0 always when T_j is shifted
    mods = [b for b, s in zip(t, summands) if not is_shift(s)]
    if any(chi[a][b] < 0 for a in t for b in mods):
        raise ValueError(
            f"{silting_label(q, t)}: the given object is not silting"
        )

    def failed(check: str) -> RuntimeError:
        return RuntimeError(f"{silting_label(q, t)}: assembly: {check}")

    n = len(summands)
    cx = [summand_complex(q, s) for s in summands]
    # dims[i][j] = dim e_i B e_j = dim Hom(T_j, T_i), checked to be 0 or
    # 1, and 1 also in the Hom basis that _product composes
    dims = [[max(0, chi[b][a]) for b in t] for a in t]
    for i in range(n):
        for j in range(n):
            d, expected = dims[i][j], (1,) if i == j else (0, 1)
            if d == 1:
                d, expected = hom_class_basis(cx[j], cx[i], 0).dim(), (1,)
            if d not in expected:
                raise failed(
                    f"Hom({object_label(summands[j])}, "
                    f"{object_label(summands[i])}) "
                    f"has dimension {d}, expected "
                    + " or ".join(map(str, expected))
                )

    def scalar(i: int, k: int, j: int) -> int:
        """e_ik . e_kj over e_ij, the composite T_j -> T_k -> T_i."""
        c = _product(cx[j], cx[k], cx[i])
        if c not in (0, 1, -1):
            raise failed(
                f"composition scalar {c} through {object_label(summands[k])} "
                "is not 0 or ±1"
            )
        return c

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
    def value(source: int, arrow_ids: Tuple[str, ...]) -> int:
        """The path's value over its block's basis class: an arrow is the
        basis class, and each further arrow multiplies by a scalar.  The
        Gabriel quiver is acyclic, so only the lazy path () ends at its
        source, with the identity as value."""
        if len(arrow_ids) < 2:
            return 1
        head = value(source, arrow_ids[:-1])
        i, (k, j) = source - 1, ends[arrow_ids[-1]]
        return head * scalar(i, k, j) if head and dims[i][j] else 0

    # relations: per vertex pair, the kernel of path evaluation v, whose
    # RREF rows are e_r - v_r v_L e_L for r != L, the last column where
    # v is non-zero (the e_r when v = 0)
    kernels: Dict[Tuple[int, int], List[List[int]]] = {}
    for i in range(n):
        for j in range(n):
            v = [value(i + 1, p) for p in pb[(i + 1, j + 1)]]
            last = max((s for s, c in enumerate(v) if c), default=-1)
            if (last >= 0) != (dims[i][j] == 1):
                raise failed(
                    "path algebra modulo relations does not match End(T) "
                    "dimension"
                )
            cols = range(len(v))
            kernels[(i, j)] = [
                [(s == r) - (s == last) * v[r] * v[last] for s in cols]
                for r in cols
                if r != last
            ]

    # minimal generators: the kernel rows whose pivot the ideal
    # S = arrow ideal . kernel + kernel . arrow ideal misses
    relations: List[PathVector] = []
    for i in range(n):
        for j in range(n):
            ker = kernels[(i, j)]
            if not ker:
                continue
            paths = pb[(i + 1, j + 1)]
            span: List[List[int]] = []
            for a in gq.arrows:
                # a before a kernel row of (a.target, j), or after one of
                # (i, a.source)
                for ok, x, y, pre, post in (
                    (a.source == i + 1, a.target, j + 1, (a.id,), ()),
                    (a.target == j + 1, i + 1, a.source, (), (a.id,)),
                ):
                    for u in kernels[(x - 1, y - 1)] if ok else ():
                        vec = [0] * len(paths)
                        for r, p in enumerate(pb[(x, y)]):
                            vec[index[(i + 1, pre + p + post)]] = u[r]
                        span.append(vec)
            # S lies in the kernel, so the kernel rows off S's pivots are
            # the RREF of the kernel modulo S
            v = [value(i + 1, p) for p in paths]
            if any(sum(map(mul, v, s)) for s in span):
                raise failed("relation generators are not independent")
            reached = set(_echelon(span, len(paths))[1])
            for g, pivot in zip(ker, pivot_columns(ker)):
                if pivot in reached:
                    continue
                terms = {
                    paths[r]: c for r, c in enumerate(g) if c != 0
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

