"""The n! fingerprint: every simultaneous vertex permutation of End(T)'s
data is tried and the lexicographically least tuple kept.  It is the
reference that silt.classify.fingerprint and least_relabelling are
tested against.
"""

import itertools
from typing import Sequence, Tuple

from silt.classify import ext_matrix, projective_dimension_of_simples
from silt.modules import BoundQuiverAlgebra, projectives


def least_key_reference(
    adj: Sequence[Sequence[int]],
    cart: Sequence[Sequence[int]],
    e1: Sequence[Sequence[int]],
    e2: Sequence[Sequence[int]],
    pds: Sequence[int],
) -> Tuple:
    n = len(adj)

    def permuted(mat, perm):
        return tuple(
            tuple(mat[perm[i]][perm[j]] for j in range(n)) for i in range(n)
        )

    best = None
    for perm in itertools.permutations(range(n)):
        cand = (
            permuted(adj, perm),
            permuted(cart, perm),
            permuted(e1, perm),
            permuted(e2, perm),
            tuple(pds[perm[i]] for i in range(n)),
        )
        if best is None or cand < best:
            best = cand
    return best


def fingerprint_reference(b: BoundQuiverAlgebra) -> Tuple:
    verts = b.gabriel.vertices
    n = len(verts)
    adj = [
        [
            sum(
                1
                for a in b.gabriel.arrows
                if a.source == verts[i] and a.target == verts[j]
            )
            for j in range(n)
        ]
        for i in range(n)
    ]
    cart = [p.dims for p in projectives(b)[1]]
    e1 = ext_matrix(b, 1)
    e2 = ext_matrix(b, 2)
    pds = [pd for _, pd in projective_dimension_of_simples(b)]
    return (n, b.dimension) + least_key_reference(adj, cart, e1, e2, pds)
