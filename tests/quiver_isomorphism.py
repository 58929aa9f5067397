"""Brute-force quiver isomorphism, for comparing Gabriel quivers in tests."""

import itertools
from typing import Dict, Tuple

from silt.quivers import Quiver


def quivers_isomorphic(a: Quiver, b: Quiver) -> bool:
    """Graph isomorphism by brute force over vertex bijections."""
    if len(a.vertices) != len(b.vertices) or len(a.arrows) != len(b.arrows):
        return False

    def pair_counts(q: Quiver) -> Dict[Tuple[int, int], int]:
        out: Dict[Tuple[int, int], int] = {}
        for ar in q.arrows:
            key = (ar.source, ar.target)
            out[key] = out.get(key, 0) + 1
        return out

    ca, cb = pair_counts(a), pair_counts(b)
    for perm in itertools.permutations(b.vertices):
        f = dict(zip(a.vertices, perm))
        if all(
            cb.get((f[s], f[t]), 0) == n for (s, t), n in ca.items()
        ):
            return True
    return False
