"""Enumeration of tilting modules and two-term silting objects.

Two independent routes are provided for each enumeration.  The fast
route recurses over vertex subsets: restrict the quiver, lift tilting
modules of the smaller algebra, and (for tilting modules) sweep with
the inverse AR translate.  The brute-force route checks the defining
rigidity condition, Hom(X, Y[1]) = 0, over all summand subsets and
serves as an oracle.  Both routes name summands by their positions in
two_term_objects, the indecomposable modules and shifted projectives in
IndId.key order.  The brute forces rank through the hom_class_dim cache
for exactly the pairs they visit: over a hereditary algebra Ext^1(M, N)
= Hom(P_M, P_N[1]) for the minimal projective resolutions P_M, P_N, so
the tilting brute force ranks module pairs only.  euler_table gives the
same dimensions as integers: mod KQ is representation-directed, so at
most one of Hom(X, Y) and Hom(X, Y[1]) is non-zero, and <[X], [Y]> is
the first minus the second.  End(T) assembly reads its premise and its
block dimensions off that table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import Callable, Dict, Iterable, List, Tuple

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
from .quivers import Quiver, euler_form, full_subquiver

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
        picks = _lift_positions(q, sub)
        p_part = tuple(projs[q.index(v)] for v in keep_out)
        for nt in tilting_modules_alg1(sub):
            lifted = _lifted(picks, nt.summands)
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


def _rigid_subsets(
    n: int, m: int, vanishes: Callable[[int, int], bool]
) -> List[Tuple[int, ...]]:
    """Index sets of the n-subsets of range(m) with vanishes(a, b) for
    every ordered pair of members, a == b included.

    Each index set is increasing, and they come in lexicographic order.
    vanishes is evaluated at most once per ordered pair.
    """
    # compat[i]: bit j set iff vanishes on (i, j) and (j, i), for j > i
    # only, since a choice only ever grows by larger indices; candidates
    # start as the rigid items, so only those are ever chosen
    compat = [0] * m
    for i, j in combinations(range(m), 2):
        if vanishes(i, j) and vanishes(j, i):
            compat[i] |= 1 << j
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

    walk(sum(1 << i for i in range(m) if vanishes(i, i)))
    return out


def summand_complex(q: Quiver, s: IndId) -> TwoTermComplex:
    """The two-term complex presenting a summand id (module or P[1])."""
    if s.kind == "mod":
        return resolve_dim(q, s.dim)
    return shifted_projective(q, s.vertex)


def two_term_objects(q: Quiver) -> Tuple[IndId, ...]:
    """The indecomposable two-term objects in IndId.key order: the
    modules in indecomposables order, then the shifted projectives
    sorted by dim P(v)."""
    shifts = sorted(zip(projective_dim_vectors(q), q.vertices))
    return tuple(IndId.module(d) for d in indecomposables(q)) + tuple(
        IndId.shifted(v, d) for d, v in shifts
    )


@cache
def euler_table(
    q: Quiver,
) -> Tuple[Dict[IndId, int], Tuple[Tuple[int, ...], ...]]:
    """Each object's position in two_term_objects(q), and the Euler forms
    chi[a][b] = <[X_a], [X_b]> with [M] = dim M and [P_v[1]] = -dim P_v:
    dim Hom(X_a, X_b) = max(0, chi[a][b]), and dim Hom(X_a, X_b[1]) is
    max(0, -chi[a][b]) when X_b is a module and 0 when it is shifted."""
    objs = two_term_objects(q)
    k0 = [o.dim if o.kind == "mod" else tuple(-c for c in o.dim) for o in objs]
    chi = tuple(tuple(euler_form(q, d, e) for e in k0) for d in k0)
    return {o: a for a, o in enumerate(objs)}, chi


@cache
def silting_alg2(q: Quiver) -> Tuple[SiltingObject, ...]:
    """All basic two-term silting objects by subset recursion.

    For every vertex subset I (empty and full included), combine the
    shifted projectives P(i)[1], i in I, with each tilting module of
    the restricted quiver, lifted by zero to the big vertex set.  Each
    object is built as the increasing positions of its summands in
    two_term_objects, so sorting the positions sorts by IndId.key.
    """
    n = len(q.vertices)
    objs = two_term_objects(q)
    at_dim = {o.dim: i for i, o in enumerate(objs) if o.kind == "mod"}
    at_shift = {o.vertex: i for i, o in enumerate(objs) if o.kind == "shift"}
    out = set()
    for mask in range(1 << n):
        shift_set = tuple(
            v for i, v in enumerate(q.vertices) if mask >> i & 1
        )
        sub = restrict(q, shift_set)
        picks = _lift_positions(q, sub)
        shifted = [at_shift[v] for v in shift_set]
        for nt in tilting_modules_alg1(sub):
            mods = [at_dim[d] for d in _lifted(picks, nt.summands)]
            out.add(tuple(sorted(shifted + mods)))
    return tuple(
        SiltingObject(q, tuple(objs[i] for i in s)) for s in sorted(out)
    )


@cache
def silting_bruteforce(q: Quiver) -> Tuple[SiltingObject, ...]:
    """All n-subsets of mod-or-shifted summands that are presilting.

    For two-term complexes a presilting set of full size n is silting,
    so no separate generation check is needed.  The rigid index sets
    are increasing and lexicographic over two_term_objects, which is in
    IndId.key order, so the objects come out sorted.
    """
    objs = two_term_objects(q)
    cx = [summand_complex(q, o) for o in objs]
    return tuple(
        SiltingObject(q, tuple(objs[i] for i in chosen))
        for chosen in _rigid_subsets(
            len(q.vertices),
            len(objs),
            lambda i, j: hom_class_dim(cx[i], cx[j], 1) == 0,
        )
    )


@cache
def tilting_modules_bruteforce(q: Quiver) -> Tuple[TiltingModule, ...]:
    """All n-subsets of indecomposables with pairwise vanishing
    Ext^1(M, N) = Hom(P_M, P_N[1]), ranked on module pairs only."""
    mods = indecomposables(q)
    cx = [resolve_dim(q, d) for d in mods]
    out = [
        tuple(sorted(mods[i] for i in chosen))
        for chosen in _rigid_subsets(
            len(q.vertices),
            len(mods),
            lambda i, j: hom_class_dim(cx[i], cx[j], 1) == 0,
        )
    ]
    return tuple(TiltingModule(q, s) for s in sorted(out))
