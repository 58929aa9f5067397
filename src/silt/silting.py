"""Enumeration of tilting modules and two-term silting objects.

Two independent routes are provided for each enumeration.  The fast
route recurses over vertex subsets: restrict the quiver, lift tilting
modules of the smaller algebra, and (for tilting modules) sweep with
the inverse AR translate.  The brute-force route checks the defining
rigidity condition, Hom(X, Y[1]) = 0, over all summand subsets and
serves as an oracle.  Both brute forces read one table of
dim Hom(X, Y[1]): over a hereditary algebra Ext^1(M, N) = Hom(P_M, P_N[1])
for the minimal projective resolutions P_M, P_N, so the tilting modules
are the silting objects with no shifted summand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Dict, Iterable, List, Sequence, Tuple

from .complexes import (
    TwoTermComplex,
    hom_class_dim,
    resolve_dim,
    shifted_projective,
)
from .modules import (
    IndId,
    ar_quiver_two_term,
    indecomposables,
    injective_dim_vectors,
    projective_dim_vectors,
    tau_inverse,
)
from .quivers import Quiver, full_subquiver

DimVector = Tuple[int, ...]


@dataclass(frozen=True)
class TiltingModule:
    """Basic tilting module, stored as its sorted summand dimension vectors."""

    quiver: Quiver
    summands: Tuple[DimVector, ...]

    def __post_init__(self):
        n = len(self.quiver.vertices)
        if len(self.summands) != n:
            raise ValueError("a tilting module needs one summand per vertex")
        if list(self.summands) != sorted(set(self.summands)):
            raise ValueError("summands must be sorted and distinct")
        for d in self.summands:
            if len(d) != n:
                raise ValueError("summand dimension vector has wrong length")


@dataclass(frozen=True)
class SiltingObject:
    """Basic two-term silting object M + P[1], stored as sorted summand ids."""

    quiver: Quiver
    summands: Tuple[IndId, ...]

    def __post_init__(self):
        n = len(self.quiver.vertices)
        if len(self.summands) != n:
            raise ValueError("a silting object needs one summand per vertex")
        keys = [s.key() for s in self.summands]
        if keys != sorted(set(keys)):
            raise ValueError("summands must be sorted and distinct")

    @property
    def shifted_vertices(self) -> Tuple[int, ...]:
        return tuple(
            sorted(s.vertex for s in self.summands if s.kind == "shift")
        )

    @property
    def module_dims(self) -> Tuple[DimVector, ...]:
        return tuple(s.dim for s in self.summands if s.kind == "mod")

    def label(self) -> str:
        return "+".join(s.label() for s in self.summands)

    def to_json_dict(self) -> dict:
        return {
            "I": list(self.shifted_vertices),
            "modules": [list(d) for d in self.module_dims],
        }

    def to_ascii(self) -> str:
        ar = ar_quiver_two_term(self.quiver)
        return ar.to_ascii(selected=set(self.summands))


def restrict(q: Quiver, drop: Iterable[int]) -> Quiver:
    """Full subquiver on the complement of the given vertex set."""
    dropped = set(drop)
    return full_subquiver(q, tuple(v for v in q.vertices if v not in dropped))


def _extend_dims(q: Quiver, sub: Quiver, d: DimVector) -> DimVector:
    by_vertex = dict(zip(sub.vertices, d))
    return tuple(by_vertex.get(v, 0) for v in q.vertices)


@cache
def tilting_modules_alg1(q: Quiver) -> Tuple[TiltingModule, ...]:
    """All basic tilting modules by subset recursion and tau-inverse sweeps.

    For each non-empty vertex subset I: take the projectives P(i), i in
    I, lift each tilting module N of the restricted quiver whose
    summands are not injective over the big algebra, and form
    M = P(I) + tau^{-1}N; then emit M, tau^{-1}M, tau^{-2}M, ... up to
    and including the first stage containing an injective summand.
    """
    n = len(q.vertices)
    if n == 0:
        return (TiltingModule(q, ()),)
    projs = projective_dim_vectors(q)
    injs = set(injective_dim_vectors(q))
    found = set()
    for mask in range(1, 1 << n):
        keep_out = tuple(
            v for i, v in enumerate(q.vertices) if mask >> i & 1
        )
        sub = restrict(q, keep_out)
        p_part = tuple(projs[q.index(v)] for v in keep_out)
        for nt in tilting_modules_alg1(sub):
            lifted = tuple(_extend_dims(q, sub, d) for d in nt.summands)
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
    return tuple(TiltingModule(q, s) for s in sorted(found))


def _rigid_subsets(n: int, items: Sequence, table: Dict) -> List[Tuple[int, ...]]:
    """Index sets of the n-subsets of items with table[(a, b)] == 0 for
    every ordered pair of members, a == b included.

    Each index set is increasing, and they come in lexicographic order.
    """
    m = len(items)
    # compat[i]: bit j set iff the table vanishes on (i, j) and (j, i);
    # candidates start as the rigid items, so only those are ever chosen
    compat = [
        sum(
            1 << j
            for j in range(m)
            if table[(items[i], items[j])] == 0
            and table[(items[j], items[i])] == 0
        )
        for i in range(m)
    ]
    out: List[Tuple[int, ...]] = []
    chosen: List[int] = []

    def walk(cand: int):
        need = n - len(chosen)
        if need == 0:
            out.append(tuple(chosen))
            return
        while cand.bit_count() >= need:
            low = cand & -cand
            cand ^= low
            i = low.bit_length() - 1
            chosen.append(i)
            walk(cand & compat[i])
            chosen.pop()

    walk(sum(1 << i for i, a in enumerate(items) if table[(a, a)] == 0))
    return out


def summand_complex(q: Quiver, s: IndId) -> TwoTermComplex:
    """The two-term complex presenting a summand id (module or P[1])."""
    if s.kind == "mod":
        return resolve_dim(q, s.dim)
    return shifted_projective(q, s.vertex)


@cache
def silting_alg2(q: Quiver) -> Tuple[SiltingObject, ...]:
    """All basic two-term silting objects by subset recursion.

    For every vertex subset I (empty and full included), combine the
    shifted projectives P(i)[1], i in I, with each tilting module of
    the restricted quiver, lifted by zero to the big vertex set.
    """
    n = len(q.vertices)
    projs = projective_dim_vectors(q)
    out = set()
    for mask in range(1 << n):
        shift_set = tuple(
            v for i, v in enumerate(q.vertices) if mask >> i & 1
        )
        sub = restrict(q, shift_set)
        shifted = tuple(
            IndId.shifted(v, projs[q.index(v)]) for v in shift_set
        )
        for nt in tilting_modules_alg1(sub):
            mods = tuple(
                IndId.module(_extend_dims(q, sub, d)) for d in nt.summands
            )
            out.add(
                tuple(
                    sorted(shifted + mods, key=lambda s: s.key())
                )
            )
    return tuple(
        SiltingObject(q, s)
        for s in sorted(out, key=lambda t: [x.key() for x in t])
    )


@cache
def _hom_shift1_table(q: Quiver):
    """dim Hom(X, Y[1]) for all ordered pairs of two-term objects.

    The objects are the indecomposable modules and the shifted
    projectives, listed without the AR quiver.
    """
    projs = projective_dim_vectors(q)
    objs = tuple(IndId.module(d) for d in indecomposables(q)) + tuple(
        IndId.shifted(v, projs[q.index(v)]) for v in q.vertices
    )
    cx = {o: summand_complex(q, o) for o in objs}
    table = {
        (a, b): hom_class_dim(cx[a], cx[b], 1) for a in objs for b in objs
    }
    return objs, table


def is_presilting(q: Quiver, summands: Sequence[IndId]) -> bool:
    """True iff Hom(X, Y[1]) vanishes for every ordered summand pair."""
    cx = [summand_complex(q, s) for s in summands]
    return all(
        hom_class_dim(a, b, 1) == 0 for a in cx for b in cx
    )


@cache
def silting_bruteforce(q: Quiver) -> Tuple[SiltingObject, ...]:
    """All n-subsets of mod-or-shifted summands that are presilting.

    For two-term complexes a presilting set of full size n is silting,
    so no separate generation check is needed.
    """
    objs, table = _hom_shift1_table(q)
    out = [
        tuple(sorted((objs[i] for i in chosen), key=lambda s: s.key()))
        for chosen in _rigid_subsets(len(q.vertices), objs, table)
    ]
    return tuple(
        SiltingObject(q, s)
        for s in sorted(out, key=lambda t: [x.key() for x in t])
    )


@cache
def tilting_modules_bruteforce(q: Quiver) -> Tuple[TiltingModule, ...]:
    """All n-subsets of indecomposables with pairwise vanishing Ext^1:
    the brute-force silting objects with no shifted summand."""
    out = [
        tuple(sorted(t.module_dims))
        for t in silting_bruteforce(q)
        if not t.shifted_vertices
    ]
    return tuple(TiltingModule(q, s) for s in sorted(out))
