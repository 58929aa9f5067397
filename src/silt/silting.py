"""Enumeration of tilting modules and two-term silting objects.

Two independent routes are provided for each enumeration.  The fast
route is the subset recursion of Algorithms 1 and 2, run on one table
per quiver: a positive root is its position in indecomposables(q), and
a tilting module of the full subquiver on a vertex subset S is a bitmask
of roots of q.  Over a Dynkin forest the roots of that subquiver are the
roots of q supported in S, so lifting by zero is the identity.  Each S
gets tau^{-1}, its projectives and its injectives, read off q's Cartan
rows restricted to the paths inside S (modules._translates).  The
brute-force route checks the defining rigidity condition,
Hom(X, Y[1]) = 0, over all summand subsets and serves as an oracle.
An object, silting or tilting, is the int tuple of the strictly
increasing positions of its summands in modules.two_term_objects, read
with its quiver: the classes in K_0 of the indecomposable modules in
indecomposables order, then those of the shifted projectives, the one
order the AR quivers follow too.  A summand is its class
(summand_classes), so a shifted projective is a negative vector; an
object's label, as in 1+2[1], and its JSON form are silting_label and
silting_json.  A tilting module is an object with no shifted summand
(Adachi-Iyama-Reiten), so its positions are those of its roots in
indecomposables(q).  Both brute forces pick the rigid n-subsets of the
first m two-term objects (all of them for silting, the modules for
tilting), with dim Hom(X, Y[1]) from complexes.hom_class_dim for exactly
the pairs they visit: one small rank per pair over the cokernel table of
Y, which is built once per object.
Over a hereditary algebra Ext^1(M, N) = Hom(P_M, P_N[1]) for the minimal
projective resolutions P_M, P_N, so the tilting brute force ranks module
pairs only.  euler_table gives the same dimensions as integers, the
Euler forms of the classes: mod KQ is representation-directed, so at
most one of Hom(X, Y) and Hom(X, Y[1]) is non-zero, and <[X], [Y]> is
the first minus the second.  End(T) assembly reads its premise and its
block dimensions off that table, at the object's positions.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from typing import Callable, Dict, List, Tuple

from .complexes import (
    TwoTermComplex,
    hom_class_dim,
    resolve_dim,
    shifted_projective,
)
from .modules import (
    _translates,
    indecomposables,
    is_shift,
    negated,
    object_label,
    projective_dim_vectors,
    shift_vertex,
    two_term_objects,
)
from .quivers import Quiver, euler_form, single_path

DimVector = Tuple[int, ...]
Positions = Tuple[int, ...]


def summand_classes(q: Quiver, t: Positions) -> Tuple[DimVector, ...]:
    """The classes in K_0 of the summands at the positions t."""
    return tuple(map(two_term_objects(q).__getitem__, t))


def silting_label(q: Quiver, t: Positions) -> str:
    """The object's summands joined by "+", as in 1+2[1]."""
    return "+".join(map(object_label, summand_classes(q, t)))


def silting_json(q: Quiver, t: Positions) -> dict:
    """The object as JSON: the sorted vertices v of its summands P(v)[1]
    under "I", and its module summands' dimension vectors under "modules"."""
    objs, at = two_term_objects(q), shift_vertex(q)
    m = len(objs) - len(q.vertices)  # the modules are the positions below m
    return {
        "I": sorted(at[objs[i]] for i in t if i >= m),
        "modules": [objs[i] for i in t if i < m],
    }


def _bits(mask: int) -> Tuple[int, ...]:
    """The positions of the set bits of mask, increasing."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _subset_table(q: Quiver, on_path: Dict, supports: List[int], s: int):
    """tau^{-1}, the projectives and the injectives of the full subquiver
    on the vertex bitmask s: its roots are those of q supported in s, and
    its Cartan rows are q's restricted to the paths inside s.  Returns
    tau^{-1} from each non-injective root's position to its image's bit,
    each vertex's projective's bit, and the mask of the injectives."""
    vs, all_roots = _bits(s), indecomposables(q)
    inside = {uv for uv, m in on_path.items() if m | s == s}
    cartan = tuple(tuple(int((u, v) in inside) for v in vs) for u in vs)
    members = [r for r, m in enumerate(supports) if m | s == s]
    roots = [tuple(all_roots[r][v] for v in vs) for r in members]
    bit = {d: 1 << r for d, r in zip(roots, members)}
    backward = _translates(cartan, roots)[1]
    tau_inv = {members[t]: 1 << members[r] for t, r in backward.items()}
    projs = {v: bit[row] for v, row in zip(vs, cartan)}
    return tau_inv, projs, sum(bit[col] for col in zip(*cartan))


@cache
def _tilting_masks(q: Quiver) -> Tuple[Tuple[int, ...], ...]:
    """Algorithm 1 on every vertex subset s, smallest first: entry s
    holds the tilting modules of the full subquiver on s, as root masks.

    For each non-empty i inside s: take the projectives P(i) and each
    tilting module N of the subquiver on s minus i (done already) with no
    summand injective over s, and form M = P(i) + tau^{-1}N; then emit M,
    tau^{-1}M, tau^{-2}M, ... up to and including the first stage with
    an injective summand.  The projectives are distinct roots, and so
    are the images of distinct roots under tau^{-1}, so each sum of bits
    is a union; a P(i) that is also in tau^{-1}N merges with it, and
    the count check rejects the module.
    """
    target = {a.id: q.index(a.target) for a in q.arrows}
    on_path = {  # (u, v) -> the vertex mask of the path from u to v
        (i, j): sum(1 << target[a] for a in p) | 1 << i
        for i, u in enumerate(q.vertices)
        for j, v in enumerate(q.vertices)
        if (p := single_path(q, u, v)) is not None
    }
    supports = [
        sum(1 << i for i, c in enumerate(d) if c) for d in indecomposables(q)
    ]
    masks: List[Tuple[int, ...]] = [(0,)]
    for s in range(1, 1 << len(q.vertices)):
        tau_inv, projs, injs = _subset_table(q, on_path, supports, s)
        found = set()
        i = s
        while i:
            p_part = sum(map(projs.__getitem__, _bits(i)))
            for nt in masks[s ^ i]:
                if nt & injs:
                    continue
                stage = p_part | sum(map(tau_inv.__getitem__, _bits(nt)))
                guard = 0
                while True:
                    found.add(stage)
                    if stage & injs:
                        break
                    stage = sum(map(tau_inv.__getitem__, _bits(stage)))
                    guard += 1
                    if guard > 1000:
                        raise RuntimeError("tau-inverse sweep did not terminate")
            i = (i - 1) & s
        if any(m.bit_count() != s.bit_count() for m in found):
            raise ValueError("a tilting module needs one summand per vertex")
        masks.append(tuple(found))
    return tuple(masks)


def _by_module_dims(q: Quiver, mods) -> Tuple[Positions, ...]:
    """Tilting modules sorted by their sorted dimension vectors: through
    each root's rank in lexicographic order, the key is a list of ints."""
    roots = indecomposables(q)
    rank = [0] * len(roots)
    for r, a in enumerate(sorted(range(len(roots)), key=roots.__getitem__)):
        rank[a] = r
    return tuple(sorted(mods, key=lambda t: sorted(map(rank.__getitem__, t))))


@cache
def tilting_modules_alg1(q: Quiver) -> Tuple[Positions, ...]:
    """All basic tilting modules by Algorithm 1 (_tilting_masks), sorted
    by their sorted dimension vectors."""
    masks = _tilting_masks(q)[-1]
    return _by_module_dims(q, map(_bits, masks))


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


def summand_complex(q: Quiver, c: DimVector) -> TwoTermComplex:
    """The two-term complex presenting the summand of class c: a module's
    minimal projective presentation, or P(v)[1]."""
    if is_shift(c):
        return shifted_projective(q, shift_vertex(q)[c])
    return resolve_dim(q, c)


@cache
def euler_table(q: Quiver) -> Tuple[Tuple[int, ...], ...]:
    """The Euler forms chi[a][b] = <[X_a], [X_b]> over two_term_objects(q),
    with [M] = dim M and [P_v[1]] = -dim P_v: dim Hom(X_a, X_b) =
    max(0, chi[a][b]), and dim Hom(X_a, X_b[1]) is max(0, -chi[a][b])
    when X_b is a module and 0 when it is shifted."""
    k0 = two_term_objects(q)
    return tuple(tuple(euler_form(q, d, e) for e in k0) for d in k0)


@cache
def silting_alg2(q: Quiver) -> Tuple[Positions, ...]:
    """All basic two-term silting objects by subset recursion.

    For every vertex subset I (empty and full included), combine the
    shifted projectives P(i)[1], i in I, with each tilting module of
    the full subquiver on the complement (_tilting_masks).  A module's
    root positions are its positions in two_term_objects, and every
    shifted projective comes after them, so sorting the positions sorts
    in two_term_objects order.
    """
    objs = two_term_objects(q)
    shift_pos = [objs.index(negated(d)) for d in projective_dim_vectors(q)]
    masks = _tilting_masks(q)
    full = len(masks) - 1
    out = []
    for i in range(len(masks)):
        tail = tuple(sorted(map(shift_pos.__getitem__, _bits(i))))
        out.extend(_bits(m) + tail for m in masks[full ^ i])
    return tuple(sorted(out))


def _rigid_objects(q: Quiver, m: int) -> Tuple[Positions, ...]:
    """The objects on the n-subsets of the first m two-term objects with
    Hom(X, Y[1]) = 0 for every ordered pair of summands, in position
    order.  For two-term complexes a presilting set of full size n is
    silting, so no separate generation check is needed."""
    cx = [summand_complex(q, o) for o in two_term_objects(q)[:m]]
    chosen = _rigid_subsets(
        len(q.vertices), m, lambda i, j: hom_class_dim(cx[i], cx[j], 1) == 0
    )
    return tuple(chosen)


def silting_bruteforce(q: Quiver) -> Tuple[Positions, ...]:
    """All rigid n-subsets of the two-term objects, in position order, so
    the objects come out sorted."""
    return _rigid_objects(q, len(two_term_objects(q)))


def tilting_modules_bruteforce(q: Quiver) -> Tuple[Positions, ...]:
    """All rigid n-subsets of the modules, which come first in
    two_term_objects: Ext^1(M, N) = Hom(P_M, P_N[1]), ranked on module
    pairs only."""
    return _by_module_dims(q, _rigid_objects(q, len(indecomposables(q))))
