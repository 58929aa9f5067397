"""Homological classification of silted algebras.

Each endomorphism algebra is probed through minimal projective
resolutions of its simple modules, computed by projective-cover /
kernel iteration over the algebra's indecomposable projectives.
Blocks with global dimension at most 2 are tilted and get a Dynkin type
from a Coxeter-polynomial reference table; blocks of global dimension
exactly 3 are strictly shod.  A permutation-invariant fingerprint groups
isomorphic algebras so enumerations can be counted up to isomorphism.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass
from functools import cache
from typing import Dict, List, Optional, Sequence, Tuple

from .endo import (
    BoundQuiverAlgebra,
    blocks,
    cartan_data,
    coxeter_polynomial,
    endomorphism_algebra,
)
from .modules import (
    Path,
    QuiverRep,
    kernel_subrep,
    minimal_cover,
    simple_rep,
)
from .quivers import Arrow, DynkinType, Quiver, cartan_matrix
from .silting import SiltingObject

RESOLUTION_CAP = 10


class _BoundAlgebraOps:
    """Projectives of a bound quiver algebra over its path-class basis."""

    def __init__(self, b: BoundQuiverAlgebra):
        self.quiver = b.gabriel
        self._projectives = dict(zip(b.gabriel.vertices, b.projectives))
        self._from: Dict[int, Dict[int, List[Tuple[str, ...]]]] = {
            v: {u: [] for u in b.gabriel.vertices} for v in b.gabriel.vertices
        }
        for s, t, arrows in b.basis_paths:
            self._from[s][t].append(arrows)

    def basis_paths(self, v: int) -> Dict[int, Tuple[Path, ...]]:
        return {
            u: tuple(Path(v, u, arrows) for arrows in self._from[v][u])
            for u in self.quiver.vertices
        }

    def projective(self, v: int) -> QuiverRep:
        return self._projectives[v]


@cache
def _simple_resolutions(b: BoundQuiverAlgebra) -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
    """Per vertex: multiplicity vectors of the minimal resolution terms."""
    alg = _BoundAlgebraOps(b)
    verts = b.gabriel.vertices
    out = []
    for v in verts:
        m = simple_rep(b.gabriel, v)
        terms: List[Tuple[int, ...]] = []
        while any(d != 0 for d in m.dims):
            if len(terms) > RESOLUTION_CAP:
                raise RuntimeError(
                    f"resolution of the simple at {v} exceeded "
                    f"{RESOLUTION_CAP} steps"
                )
            copies, p0, pi = minimal_cover(alg, m)
            mult = [0] * len(verts)
            for u, _ in copies:
                mult[verts.index(u)] += 1
            terms.append(tuple(mult))
            _, m = kernel_subrep(p0, pi)
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
    return max(pd for _, pd in projective_dimension_of_simples(b))


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


# --- tilted type via Coxeter polynomials ---

def _reference_quiver(n: int, branch: int) -> Quiver:
    """A_n for branch 0; otherwise the chain 1 -> ... -> n-1 with vertex n
    attached at vertex `branch`, which gives D_n for 2 and E_n for 3."""
    m = n - 1 if branch else n
    arrows = [Arrow(f"x{i}", i, i + 1) for i in range(1, m)]
    if branch:
        arrows.append(Arrow(f"x{n}", n, branch))
    return Quiver(tuple(range(1, n + 1)), tuple(arrows))


@cache
def _reference_polynomials(n: int) -> Dict[Tuple[int, ...], Tuple[str, int]]:
    """Coxeter polynomials of the Dynkin path algebras of rank n."""
    branches = {"A": 0}
    if n >= 4:
        branches["D"] = 2
    if 6 <= n <= 8:
        branches["E"] = 3
    table: Dict[Tuple[int, ...], Tuple[str, int]] = {}
    for family, branch in branches.items():
        poly = coxeter_polynomial(cartan_matrix(_reference_quiver(n, branch)))
        if poly in table:
            raise RuntimeError("reference Coxeter polynomials collide")
        table[poly] = (family, n)
    return table


def tilted_type(block: BoundQuiverAlgebra) -> DynkinType:
    """Dynkin type of a tilted block, from its Coxeter polynomial."""
    poly = cartan_data(block).coxeter_polynomial
    n = len(poly) - 1
    table = _reference_polynomials(n)
    if poly not in table:
        raise RuntimeError(
            f"no Dynkin type of rank {n} matches Coxeter polynomial {poly}"
        )
    return DynkinType.of([table[poly]])


# --- classification records ---

@dataclass(frozen=True)
class BlockVerdict:
    algebra: BoundQuiverAlgebra
    gl_dim: int
    verdict: str  # "tilted" | "strictly_shod"
    dynkin: Optional[DynkinType]


@dataclass(frozen=True)
class ClassificationRecord:
    silting: SiltingObject
    algebra: BoundQuiverAlgebra
    block_verdicts: Tuple[BlockVerdict, ...]
    is_tilted: bool
    label: str
    fingerprint: Tuple


def fingerprint(b: BoundQuiverAlgebra) -> Tuple:
    """Isomorphism invariant: quiver, Cartan, Ext data, pds — up to one
    simultaneous vertex permutation, minimized lexicographically."""
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
    cart = [p.dims for p in b.projectives]
    e1 = ext_matrix(b, 1)
    e2 = ext_matrix(b, 2)
    pds = [pd for _, pd in projective_dimension_of_simples(b)]

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
    return (n, b.dimension) + best


@cache
def classify(q: Quiver, t: SiltingObject) -> ClassificationRecord:
    """Tilted-or-strictly-shod verdict for End(T), block by block."""
    b = endomorphism_algebra(q, t)
    verdicts: List[BlockVerdict] = []
    comps: List[Tuple[str, int]] = []
    all_tilted = True
    for blk in blocks(b):
        g = global_dimension(blk)
        if g <= 2:
            dt = tilted_type(blk)
            verdicts.append(BlockVerdict(blk, g, "tilted", dt))
            comps.extend(dt.components)
        elif g == 3:
            all_tilted = False
            verdicts.append(BlockVerdict(blk, g, "strictly_shod", None))
        else:
            raise RuntimeError(
                f"global dimension {g} is outside the silted range 0..3"
            )
    label = (
        DynkinType.of(comps).label() if all_tilted else "strictly shod"
    )
    return ClassificationRecord(
        silting=t,
        algebra=b,
        block_verdicts=tuple(verdicts),
        is_tilted=all_tilted,
        label=label,
        fingerprint=fingerprint(b),
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
        members = sorted(
            grouped[fp],
            key=lambda r: [s.key() for s in r.silting.summands],
        )
        out.append(tuple(members))
    return tuple(out)


# --- reports ---

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


def record_to_json(r: ClassificationRecord) -> dict:
    return {
        "silting": r.silting.to_json_dict(),
        "algebra": r.algebra.to_json_dict(),
        "blocks": [
            {
                "vertices": list(bv.algebra.gabriel.vertices),
                "gl_dim": bv.gl_dim,
                "verdict": bv.verdict,
                "type": bv.dynkin.label() if bv.dynkin else None,
            }
            for bv in r.block_verdicts
        ],
        "classification": r.label,
        "fingerprint": _fingerprint_json(r.fingerprint),
    }


def _fingerprint_json(fp):
    if isinstance(fp, tuple):
        return [_fingerprint_json(x) for x in fp]
    return fp


def records_to_json(records: Sequence[ClassificationRecord]) -> list:
    return [record_to_json(r) for r in records]


def _summary_rows(
    groups: Sequence[Sequence[ClassificationRecord]],
) -> List[List[str]]:
    """Header plus one row per isomorphism class, led by its first member."""
    rows = [["class", "count", "silting", "quiver", "classification"]]
    for i, g in enumerate(groups, start=1):
        rep = g[0]
        rows.append(
            [
                str(i),
                str(len(g)),
                rep.silting.label(),
                _quiver_sketch(rep.algebra),
                rep.label,
            ]
        )
    return rows


def summary_csv(groups: Sequence[Sequence[ClassificationRecord]]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(_summary_rows(groups))
    return buf.getvalue()


def summary_text(groups: Sequence[Sequence[ClassificationRecord]]) -> str:
    return text_table(_summary_rows(groups))


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
