"""Homological classification of silted algebras.

A silted algebra B = End(T) has global dimension at most 3 (Buan-Zhou,
Silted algebras, 2016), and classify reads its homology off integer data
that End(T) assembly already holds (`homology`): dim Ext^1(S_i, S_j) is
the number of Gabriel arrows i -> j, dim Ext^2(S_i, S_j) the number of
minimal relations i -> j (Bongartz, Algebras and quadratic forms, 1983),
and sum_k (-1)^k dim Ext^k(S_i, S_j) is the entry (i, j) of the inverse
Cartan matrix, which leaves Ext^3.  A simple's projective dimension is
the largest k with Ext^k(S_i, -) non-zero.
Minimal projective resolutions of the simples, computed by
modules.minimal_resolution (projective cover, then kernel, repeated,
each term given by the copies of the P(v) it is made of), the same loop
that gives the minimal presentations over KQ, are the oracle for this:
`check_homology` compares the two and checks the premise gl.dim <= 3
(classify --oracle and paper-suite).  Both take a BoundQuiverAlgebra, so
they run unchanged on KQ itself (modules.path_algebra).
classify(q, t) takes the silting object T as its positions t and reads
every block off End(T) in one pass: the blocks are vertex sets
(endo.blocks), a block's global dimension is the largest projective
dimension of its simples, and its Cartan rows are those of End(T)
restricted to its vertices.  A record keeps t, and a report also takes
q, to label T.
Blocks with global dimension at most 2 are tilted and get a Dynkin type
from their rank and det(C + C^T) of their Cartan rows C, with the order of
their Coxeter matrix as the oracle; blocks of global dimension exactly 3
are strictly shod.  A permutation-invariant fingerprint groups
isomorphic algebras so enumerations can be counted up to isomorphism: the
lexicographically least (arrow counts, Cartan, Ext^1, Ext^2, pds) over all
simultaneous vertex permutations.  A refinement search finds it by
visiting only the permutations that minimise the arrow counts, one per
automorphism of the Gabriel quiver; a quiver with no arrows is the worst
case, with all n! of them.  Only the least tuple is kept and returned,
not the permutations that reach it.  The same canonical form matches an
algebra against a presentation given up to vertex relabelling
(`matches_presentation`), which answers whether a relabelling exists,
not which one.
"""
from __future__ import annotations

import csv
import io
from contextlib import contextmanager
from functools import cache
from operator import add
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .endo import blocks, cartan_data, endomorphism_algebra
from .linalg import Rows, determinant, integer_solve, matmul
from .modules import BoundQuiverAlgebra, minimal_resolution, simple_rep
from .quivers import DynkinType, Quiver, Record, coxeter_matrix
from .silting import Positions, silting_json, silting_label

RESOLUTION_CAP = 10


@cache
def _simple_resolutions(b: BoundQuiverAlgebra) -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
    """Per vertex: multiplicity vectors of the minimal resolution terms."""
    verts = b.gabriel.vertices
    out = []
    for v in verts:
        terms: List[Tuple[int, ...]] = []
        for copies in minimal_resolution(b, simple_rep(b.gabriel, v)):
            if len(terms) > RESOLUTION_CAP:
                raise RuntimeError(
                    f"resolution of the simple at {v} exceeded "
                    f"{RESOLUTION_CAP} steps"
                )
            mult = [0] * len(verts)
            for u, _ in copies:
                mult[verts.index(u)] += 1
            terms.append(tuple(mult))
        out.append(tuple(terms))
    return tuple(out)


def projective_dimension_of_simples(
    b: BoundQuiverAlgebra,
) -> Tuple[Tuple[int, int], ...]:
    res = _simple_resolutions(b)
    return tuple(
        (v, len(terms) - 1) for v, terms in zip(b.gabriel.vertices, res)
    )


def global_dimension(b: BoundQuiverAlgebra) -> int:
    return max((pd for _, pd in projective_dimension_of_simples(b)), default=0)


def ext_matrix(b: BoundQuiverAlgebra, k: int) -> Tuple[Tuple[int, ...], ...]:
    """dim Ext^k(S_i, S_j) = multiplicity of P(j) in resolution term k."""
    res = _simple_resolutions(b)
    n = len(b.gabriel.vertices)
    return tuple(
        tuple(
            res[i][k][j] if k < len(res[i]) else 0 for j in range(n)
        )
        for i in range(n)
    )


# --- Ext and projective dimensions off the presentation ---

class Homology(Record):
    """dim Ext^k(S_i, S_j) for k = 1, 2, 3 and (v, pd S_v), in the order
    of the Gabriel quiver's vertices."""

    ext1: Rows
    ext2: Rows
    ext3: Rows
    pds: Tuple[Tuple[int, int], ...]


def homology(b: BoundQuiverAlgebra) -> Homology:
    """Ext between the simples of a silted algebra and their pds, read off
    its arrows, its minimal relations and its integer inverse Cartan
    matrix C^-1, with Ext^3 = delta - Ext^1 + Ext^2 - C^-1.

    This needs gl.dim <= 3, which check_homology verifies.  A negative
    Ext^3 entry or a C^-1 that is not integral raises RuntimeError.
    """
    verts = b.gabriel.vertices
    n = len(verts)
    ix = {v: i for i, v in enumerate(verts)}
    ext1 = [[0] * n for _ in range(n)]
    for a in b.gabriel.arrows:
        ext1[ix[a.source]][ix[a.target]] += 1
    ext2 = [[0] * n for _ in range(n)]
    for r in b.relations:
        ext2[ix[r.source]][ix[r.target]] += 1
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = integer_solve(cartan_data(b), unit, "inverse Cartan matrix")
    ext3 = [
        [unit[i][j] - ext1[i][j] + ext2[i][j] - inv[i][j] for j in range(n)]
        for i in range(n)
    ]
    for u, row in zip(verts, ext3):
        for v, e in zip(verts, row):
            if e < 0:
                raise RuntimeError(f"Ext^3(S_{u}, S_{v}) = {e} is negative")
    mats = (ext1, ext2, ext3)
    pds = tuple(
        (v, max([k for k, m in enumerate(mats, 1) if any(m[i])], default=0))
        for i, v in enumerate(verts)
    )
    return Homology(*(tuple(map(tuple, m)) for m in mats), pds)


def check_homology(b: BoundQuiverAlgebra) -> None:
    """The oracle for `homology`: the minimal resolutions of the simples
    must give gl.dim <= 3, the same Ext^1, Ext^2, Ext^3 and the same pds."""
    g = global_dimension(b)
    if g > 3:
        raise RuntimeError(
            f"global dimension {g} is outside the silted range 0..3"
        )
    h = homology(b)
    for k, m in enumerate((h.ext1, h.ext2, h.ext3), 1):
        if m != ext_matrix(b, k):
            raise RuntimeError(
                f"Ext^{k} from the presentation {m} differs from the "
                f"resolutions {ext_matrix(b, k)}"
            )
    if h.pds != projective_dimension_of_simples(b):
        raise RuntimeError(
            f"pds from the presentation {h.pds} differ from the resolutions "
            f"{projective_dimension_of_simples(b)}"
        )


# --- tilted type from det(C + C^T) ---

def block_cartan(b: BoundQuiverAlgebra, verts: Sequence[int]) -> Rows:
    """The Cartan rows of b restricted to a block's vertices."""
    ix = {v: i for i, v in enumerate(b.gabriel.vertices)}
    cart = cartan_data(b)
    return tuple(tuple(cart[ix[v]][ix[u]] for u in verts) for v in verts)


def tilted_type(cartan: Rows) -> DynkinType:
    """Dynkin type of a tilted block, from its rank m and det(C + C^T) of
    its integer Cartan rows C.  A tilted algebra is derived equivalent to
    a Dynkin path algebra (Happel, 1988), so C + C^T, congruent to the
    symmetrised Euler form C^-1 + C^-T as det C = +-1, has the determinant
    of the root system's Cartan matrix (Bourbaki, ch. VI, plates I-VII),
    distinct at every rank.  Any other value raises RuntimeError."""
    m = len(cartan)
    det = determinant([list(map(add, r, c)) for r, c in zip(cartan, zip(*cartan))])
    for family, value, exists in (
        ("A", m + 1, True), ("D", 4, m >= 4), ("E", 9 - m, 6 <= m <= 8)
    ):
        if det == value and exists:
            return DynkinType.of([(family, m)])
    raise RuntimeError(f"det(C + C^T) = {det} matches no Dynkin type of rank {m}")


def check_tilted_types(r: ClassificationRecord) -> None:
    """The oracle for tilted_type: derived equivalent algebras have
    conjugate Coxeter matrices Phi = -C^-1 C^T, so a tilted block's Phi has
    its type's Coxeter number h as its order."""
    for bv in r.block_verdicts:
        if bv.dynkin is None:
            continue
        ((family, m),) = bv.dynkin.components
        h = {"A": m + 1, "D": 2 * m - 2, "E": {6: 12, 7: 18, 8: 30}.get(m)}[family]
        phi = coxeter_matrix(block_cartan(r.algebra, bv.vertices))
        unit = tuple(tuple(int(i == j) for j in range(m)) for i in range(m))
        power, order = phi, 1
        while power != unit and order <= h:
            power, order = matmul(power, phi, m), order + 1
        if order != h:
            got = order if power == unit else f"above {h}"
            raise RuntimeError(
                f"block {list(bv.vertices)} has type {bv.dynkin.label()}, but "
                f"its Coxeter matrix has order {got}, not the Coxeter number {h}"
            )


# --- classification records ---

class BlockVerdict(Record):
    vertices: Tuple[int, ...]
    gl_dim: int
    verdict: str  # "tilted" | "strictly_shod"
    dynkin: Optional[DynkinType]


class ClassificationRecord(Record):
    silting: Positions
    algebra: BoundQuiverAlgebra
    block_verdicts: Tuple[BlockVerdict, ...]
    is_tilted: bool
    label: str
    fingerprint: Tuple


def least_relabelling(
    adj: Sequence[Sequence[int]],
    mats: Sequence[Sequence[Sequence[int]]],
    vec: Sequence[int],
) -> Tuple:
    """The least (adj, *mats, vec) under one simultaneous relabelling.

    A permutation p sends each n x n matrix M to (M[p[i]][p[j]]) and vec
    to (vec[p[i]]); tuples compare row-major, adj first.  Returns that
    least tuple alone.

    Only the permutations that minimise adj can win, and they are found
    by individualisation-refinement (McKay & Piperno, Practical graph
    isomorphism II, 2014) restricted to this order.  Position i takes p_i
    from the first cell of an ordered partition of the unplaced
    vertices.  Row i of the permuted adj is then fixed as the placed
    columns, the diagonal, and each later cell sorted ascending by
    adj[p_i][.]; that sort splits the cells.  Level by level only the
    choices giving the least row survive, for n - 1 levels; the last
    vertex is then forced.  key compares adj's last row before the other
    matrices, so the least key over these completions, taken one at a
    time, is the least over the adj-minimal permutations, a coset of the
    automorphisms of adj.  The worst case, adj = 0, reaches all n!.
    """
    n = len(adj)
    level = [((), (tuple(range(n)),))]
    for _ in range(n - 1):
        best_row, survivors = None, []
        for placed, (first, *rest) in level:
            for v in first:
                r = adj[v]
                row = [r[u] for u in placed]
                row.append(r[v])
                refined = []
                for cell in [tuple(u for u in first if u != v), *rest]:
                    for val in sorted({r[u] for u in cell}):
                        part = tuple(u for u in cell if r[u] == val)
                        row += [val] * len(part)
                        refined.append(part)
                if best_row is None or row < best_row:
                    best_row, survivors = row, []
                if row == best_row:
                    survivors.append((placed + (v,), tuple(refined)))
        level = survivors

    def key(p):
        return tuple(
            tuple(tuple(m[i][j] for j in p) for i in p) for m in (adj, *mats)
        ) + (tuple(vec[i] for i in p),)

    return min(key(p + sum(cells, ())) for p, cells in level)


def fingerprint(b: BoundQuiverAlgebra, h: Homology) -> Tuple:
    """Isomorphism invariant: quiver, Cartan, Ext data, pds — up to one
    simultaneous vertex permutation, minimized lexicographically.

    The tuple is (n, dim B) followed by the least_relabelling of the
    arrow counts, the Cartan rows, Ext^1 and Ext^2 between simples and
    the projective dimensions of the simples, with h = homology(b).  Its
    search visits only the permutations that minimise the arrow counts,
    at most n! when the Gabriel quiver has no arrows, and keeps none of
    them.
    """
    least = least_relabelling(
        h.ext1,
        (cartan_data(b), h.ext1, h.ext2),
        [pd for _, pd in h.pds],
    )
    return (len(b.gabriel.vertices), b.dimension) + least


def matches_presentation(
    b: BoundQuiverAlgebra,
    arrows: Iterable[Tuple[int, int]],
    relations: Iterable[Tuple[int, int, int]],
) -> bool:
    """True iff some vertex relabelling matches the given presentation.

    ``arrows`` is a multiset of (source, target) pairs on vertices 1..n
    and ``relations`` a multiset of (source, target, path length)
    triples for monomial zero-relations.  A relation generator of B that
    mixes several paths never matches, nor does a vertex outside 1..n.
    Both sides are compared by one canonical form: the least tuple
    least_relabelling gives for the arrow counts, with the sorted
    relation lengths per (source, target).  No relabelling is returned.
    """
    n = len(b.gabriel.vertices)
    arrows, relations = list(arrows), list(relations)
    ends = [v for a in arrows for v in a] + [v for r in relations for v in r[:2]]
    if any(len(r.terms) != 1 for r in b.relations) or not all(
        1 <= v <= n for v in ends
    ):
        return False

    def form(arrows, relations):
        adj = [[0] * n for _ in range(n)]
        for s, t in arrows:
            adj[s - 1][t - 1] += 1
        lengths = [[[] for _ in range(n)] for _ in range(n)]
        for s, t, l in relations:
            lengths[s - 1][t - 1].append(l)
        rels = [[tuple(sorted(ls)) for ls in row] for row in lengths]
        return least_relabelling(adj, (rels,), [0] * n)

    ix = {v: i for i, v in enumerate(b.gabriel.vertices, 1)}
    own = form(
        [(ix[a.source], ix[a.target]) for a in b.gabriel.arrows],
        [(ix[r.source], ix[r.target], len(r.terms[0][0])) for r in b.relations],
    )
    return own == form(arrows, relations)


@contextmanager
def _stage(stage: str, q: Optional[Quiver] = None, t: Positions = ()):
    """Prefix a RuntimeError raised inside with the stage, led by the
    label of the silting object at the positions t over q when q is
    given.  The label is built only on that error path."""
    try:
        yield
    except RuntimeError as e:
        prefix = stage if q is None else f"{silting_label(q, t)}: {stage}"
        raise RuntimeError(f"{prefix}: {e}") from e


@cache
def classify(q: Quiver, t: Positions) -> ClassificationRecord:
    """Tilted-or-strictly-shod verdict for End(T), block by block, for
    the silting object at the positions t.

    The pds of the simples are read once off End(T)'s presentation and
    its Cartan matrix (`homology`); no simple is resolved.  A block's
    global dimension is the largest pd of its simples, and its Cartan
    rows are those of End(T) restricted to its vertices.
    """
    b = endomorphism_algebra(q, t)
    with _stage("ext", q, t):
        h = homology(b)
    pds = dict(h.pds)
    verdicts: List[BlockVerdict] = []
    comps: List[Tuple[str, int]] = []
    all_tilted = True
    for verts in blocks(b):
        g = max(pds[v] for v in verts)
        if g <= 2:
            with _stage("tilted type", q, t):
                dt = tilted_type(block_cartan(b, verts))
            verdicts.append(BlockVerdict(verts, g, "tilted", dt))
            comps.extend(dt.components)
        else:  # homology gives no pd above 3
            all_tilted = False
            verdicts.append(BlockVerdict(verts, g, "strictly_shod", None))
    label = (
        DynkinType.of(comps).label() if all_tilted else "strictly shod"
    )
    with _stage("fingerprint", q, t):
        fp = fingerprint(b, h)
    return ClassificationRecord(
        silting=t,
        algebra=b,
        block_verdicts=tuple(verdicts),
        is_tilted=all_tilted,
        label=label,
        fingerprint=fp,
    )


def dedupe(
    records: Sequence[ClassificationRecord],
) -> Tuple[Tuple[ClassificationRecord, ...], ...]:
    """Group records by fingerprint; groups and members canonically sorted."""
    grouped: Dict[Tuple, List[ClassificationRecord]] = {}
    for r in records:
        grouped.setdefault(r.fingerprint, []).append(r)
    out = []
    for fp in sorted(grouped):
        out.append(tuple(sorted(grouped[fp], key=lambda r: r.silting)))
    return tuple(out)


# --- reports ---

Groups = Sequence[Sequence[ClassificationRecord]]


def _quiver_sketch(b: BoundQuiverAlgebra) -> str:
    if not b.gabriel.arrows:
        return " ".join(str(v) for v in b.gabriel.vertices)
    arrows = ",".join(
        f"{a.source}>{a.target}" for a in b.gabriel.arrows
    )
    if b.relations:
        rels = ",".join(f"{r.source}~{r.target}" for r in b.relations)
        return f"{arrows};rel:{rels}"
    return arrows


def record_to_json(q: Quiver, r: ClassificationRecord) -> dict:
    return {
        "silting": silting_json(q, r.silting),
        "algebra": r.algebra.to_json_dict(),
        "blocks": [
            {
                "vertices": list(bv.vertices),
                "gl_dim": bv.gl_dim,
                "verdict": bv.verdict,
                "type": bv.dynkin.label() if bv.dynkin else None,
            }
            for bv in r.block_verdicts
        ],
        "classification": r.label,
        "fingerprint": r.fingerprint,
    }


def _summary_rows(q: Quiver, groups: Groups) -> List[List[str]]:
    """Header plus one row per isomorphism class, led by its first member."""
    rows = [["class", "count", "silting", "quiver", "classification"]]
    for i, g in enumerate(groups, start=1):
        rep = g[0]
        rows.append(
            [
                str(i),
                str(len(g)),
                silting_label(q, rep.silting),
                _quiver_sketch(rep.algebra),
                rep.label,
            ]
        )
    return rows


def summary_csv(q: Quiver, groups: Groups) -> str:
    return csv_table(_summary_rows(q, groups))


def summary_text(q: Quiver, groups: Groups) -> str:
    return text_table(_summary_rows(q, groups))


def text_table(rows: Sequence[Sequence[str]]) -> str:
    """Rows as left-aligned columns two spaces apart, one line each."""
    widths = [
        max(len(r[c]) for r in rows) for c in range(len(rows[0]))
    ]
    lines = [
        "  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip()
        for r in rows
    ]
    return "\n".join(lines) + "\n"


def csv_table(rows: Iterable[Sequence]) -> str:
    """Rows as CSV lines, each ending in a newline: every CSV report."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()
