"""Algorithms 1 and 2 on quivers: the reference route that
silt.silting's table-driven enumeration is tested against.

Each vertex subset is a full subquiver built as its own Quiver, with its
own projectives, injectives and tau^{-1}, and the tilting modules of the
smaller quivers are lifted by zero to the bigger vertex set through
dimension vectors.  It builds a Quiver, its path tables, its roots and
its Coxeter table for every full subquiver it meets, which is why silt
reads all of them off one table per quiver instead.
"""

from functools import cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from silt.modules import (
    _translates,
    indecomposables,
    injective_dim_vectors,
    projective_dim_vectors,
)
from silt.quivers import Quiver
from silt.silting import Positions, summand_classes, two_term_objects

DimVector = Tuple[int, ...]


def from_summands(q: Quiver, summands: Iterable[DimVector]) -> Positions:
    """The object with these summands, given by their classes in K_0 (dim M
    for a module M, -dim P(v) for P(v)[1]) in any order: their positions
    in two_term_objects(q), sorted."""
    return tuple(sorted(map(two_term_objects(q).index, summands)))


def full_subquiver(q: Quiver, keep: Sequence[int]) -> Quiver:
    keep_set = set(keep)
    return Quiver(
        tuple(v for v in q.vertices if v in keep_set),
        tuple(
            a
            for a in q.arrows
            if a.source in keep_set and a.target in keep_set
        ),
    )


def restrict(q: Quiver, drop: Iterable[int]) -> Quiver:
    """Full subquiver on the complement of the given vertex set."""
    dropped = set(drop)
    return full_subquiver(q, tuple(v for v in q.vertices if v not in dropped))


@cache
def _tau_inverse_table(q: Quiver) -> Dict[DimVector, DimVector]:
    roots = indecomposables(q)
    backward = _translates(projective_dim_vectors(q), roots)
    return {roots[t]: roots[i] for t, i in backward.items()}


def tau_inverse(q: Quiver, d: DimVector) -> Optional[DimVector]:
    """tau^{-1} of the indecomposable d, or None when it is injective, off
    the Coxeter table that silt.modules._translates shares with tau."""
    if d not in indecomposables(q):
        raise ValueError(f"{d} is not an indecomposable dimension vector")
    return _tau_inverse_table(q).get(d)


def _lift_positions(q: Quiver, sub: Quiver) -> List[int]:
    """For each vertex of q, its position in the full subquiver sub, or
    len(sub.vertices) where sub drops it: the slot of the 0 that _lifted
    appends."""
    at = {v: i for i, v in enumerate(sub.vertices)}
    return [at.get(v, len(at)) for v in q.vertices]


def _lifted(picks: List[int], dims: Iterable[DimVector]) -> List[DimVector]:
    """Dimension vectors over sub extended by zero to q, through the
    _lift_positions of (q, sub)."""
    out = []
    for d in dims:
        padded = d + (0,)
        out.append(tuple([padded[i] for i in picks]))
    return out


@cache
def tilting_modules_alg1(q: Quiver) -> Tuple[Positions, ...]:
    """All basic tilting modules by subset recursion and tau-inverse sweeps.

    For each non-empty vertex subset I: take the projectives P(i), i in
    I, lift each tilting module N of the restricted quiver whose
    summands are not injective over the big algebra, and form
    M = P(I) + tau^{-1}N; then emit M, tau^{-1}M, tau^{-2}M, ... up to
    and including the first stage containing an injective summand.
    The modules come sorted by their sorted dimension vectors.
    """
    n = len(q.vertices)
    if n == 0:
        return ((),)
    projs = projective_dim_vectors(q)
    injs = set(injective_dim_vectors(q))
    found = set()
    for mask in range(1, 1 << n):
        keep_out = tuple(
            v for i, v in enumerate(q.vertices) if mask >> i & 1
        )
        sub = restrict(q, keep_out)
        picks = _lift_positions(q, sub)
        p_part = tuple(projs[q.index(v)] for v in keep_out)
        for nt in tilting_modules_alg1(sub):
            lifted = _lifted(picks, summand_classes(sub, nt))
            if any(d in injs for d in lifted):
                continue
            stage = p_part + tuple(tau_inverse(q, d) for d in lifted)
            guard = 0
            while True:
                found.add(tuple(sorted(stage)))
                if any(d in injs for d in stage):
                    break
                stage = tuple(tau_inverse(q, d) for d in stage)
                guard += 1
                if guard > 1000:
                    raise RuntimeError("tau-inverse sweep did not terminate")
    return tuple(
        from_summands(q, s) for s in sorted(found)
    )


@cache
def silting_alg2(q: Quiver) -> Tuple[Positions, ...]:
    """All basic two-term silting objects by subset recursion.

    For every vertex subset I (empty and full included), combine the
    shifted projectives P(i)[1], i in I, with each tilting module of
    the restricted quiver, lifted by zero to the big vertex set.  Each
    object is built as the increasing positions of its summands in
    two_term_objects, so sorting the positions sorts in its order.
    """
    n = len(q.vertices)
    objs = two_term_objects(q)
    at_dim = {o: i for i, o in enumerate(objs) if min(o) >= 0}
    at_shift = {
        v: objs.index(tuple(-c for c in d))
        for v, d in zip(q.vertices, projective_dim_vectors(q))
    }
    out = set()
    for mask in range(1 << n):
        shift_set = tuple(
            v for i, v in enumerate(q.vertices) if mask >> i & 1
        )
        sub = restrict(q, shift_set)
        picks = _lift_positions(q, sub)
        shifted = [at_shift[v] for v in shift_set]
        for nt in tilting_modules_alg1(sub):
            lifted = _lifted(picks, summand_classes(sub, nt))
            mods = [at_dim[d] for d in lifted]
            out.add(tuple(sorted(shifted + mods)))
    return tuple(sorted(out))
