"""Quivers, Dynkin recognition, paths, and the bilinear forms of a path algebra.

Conventions fixed here and used everywhere else:

- Vertices are integer labels; the order given at parse time is the
  coordinate order for dimension vectors and matrices.
- Paths compose left to right: a path p from i to j satisfies
  p = e(i) * p * e(j), and longer paths are built by appending arrows.
- The Cartan matrix C has C[i][j] = number of paths i to j, so row i is
  the dimension vector of the projective at i (right modules).
- The Coxeter matrix is Phi = -C^{-1} C^T and acts on the right of row
  dimension vectors: dim(tau M) = dim(M) * Phi for non-projective M.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cache
from typing import Dict, List, Sequence, Tuple

from .linalg import RatMatrix


class QuiverError(ValueError):
    """Base class for quiver input problems."""


class QuiverSyntaxError(QuiverError):
    """Malformed quiver file, duplicate labels, or unknown endpoints."""


class QuiverCycleError(QuiverError):
    """The directed graph has an oriented cycle (infinite path algebra)."""


class NotDynkinError(QuiverError):
    """Underlying graph is not a disjoint union of A/D/E diagrams."""


@dataclass(frozen=True)
class Arrow:
    id: str
    source: int
    target: int


@dataclass(frozen=True)
class Quiver:
    vertices: Tuple[int, ...]
    arrows: Tuple[Arrow, ...]

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise QuiverSyntaxError("duplicate vertex labels")
        ids = [a.id for a in self.arrows]
        if len(set(ids)) != len(ids):
            raise QuiverSyntaxError("duplicate arrow ids")
        vset = set(self.vertices)
        for a in self.arrows:
            if a.source not in vset or a.target not in vset:
                raise QuiverSyntaxError(
                    f"arrow {a.id} uses unknown vertex"
                )
        _check_acyclic(self)

    def index(self, v: int) -> int:
        return self.vertices.index(v)

    def arrows_from(self, v: int) -> Tuple[Arrow, ...]:
        return tuple(
            a for a in sorted(self.arrows, key=lambda a: a.id) if a.source == v
        )


def _check_acyclic(q: Quiver) -> None:
    indeg = {v: 0 for v in q.vertices}
    for a in q.arrows:
        if a.source == a.target:
            raise QuiverCycleError(f"loop at vertex {a.source}")
        indeg[a.target] += 1
    queue = [v for v in q.vertices if indeg[v] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for a in q.arrows:
            if a.source == v:
                indeg[a.target] -= 1
                if indeg[a.target] == 0:
                    queue.append(a.target)
    if seen != len(q.vertices):
        raise QuiverCycleError("oriented cycle detected")


@dataclass(frozen=True)
class Path:
    """A path in a quiver; empty arrow sequence means the lazy path e(i)."""

    source: int
    target: int
    arrows: Tuple[str, ...]


@dataclass(frozen=True)
class DynkinType:
    """Multiset of (family, rank) components, canonically sorted."""

    components: Tuple[Tuple[str, int], ...]

    @staticmethod
    def of(components: Sequence[Tuple[str, int]]) -> "DynkinType":
        ordered = tuple(
            sorted(components, key=lambda c: (-c[1], c[0]))
        )
        return DynkinType(ordered)

    def label(self) -> str:
        return "⊔".join(f"{f}{r}" for f, r in self.components)


_ARROW_RE = re.compile(r"^(\w+):(-?\d+)->(-?\d+)$")


def parse_quiver(text: str) -> Quiver:
    """Parse the quiver file format or its JSON equivalent.

    Text format: a `vertices` line with integer labels, then `arrow`
    lines `arrow <id>:<src>-><tgt>`.  Statements may also be separated
    by `;`, the keyword `arrows` may carry several specs on one line,
    and `#` starts a comment.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_json(text)
    vertices: List[int] = []
    arrows: List[Arrow] = []
    saw_vertices = False
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0]
        for stmt in line.split(";"):
            tokens = stmt.split()
            if not tokens:
                continue
            head, rest = tokens[0], tokens[1:]
            if head == "vertices":
                try:
                    vertices.extend(int(t) for t in rest)
                except ValueError as exc:
                    raise QuiverSyntaxError(
                        f"bad vertex label in {stmt!r}"
                    ) from exc
                saw_vertices = True
            elif head in ("arrow", "arrows"):
                for spec in rest:
                    m = _ARROW_RE.match(spec)
                    if not m:
                        raise QuiverSyntaxError(f"bad arrow spec {spec!r}")
                    arrows.append(
                        Arrow(m.group(1), int(m.group(2)), int(m.group(3)))
                    )
            else:
                raise QuiverSyntaxError(f"unknown directive {head!r}")
    if not saw_vertices:
        raise QuiverSyntaxError("missing vertices line")
    return Quiver(tuple(vertices), tuple(arrows))


def _parse_json(text: str) -> Quiver:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise QuiverSyntaxError(f"bad JSON: {exc}") from exc
    try:
        vertices = tuple(int(v) for v in payload["vertices"])
        arrows = tuple(
            Arrow(str(a["id"]), int(a["source"]), int(a["target"]))
            for a in payload.get("arrows", [])
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise QuiverSyntaxError(f"bad quiver JSON structure: {exc}") from exc
    return Quiver(vertices, arrows)


def quiver_to_json(q: Quiver) -> dict:
    return {
        "vertices": list(q.vertices),
        "arrows": [
            {"id": a.id, "source": a.source, "target": a.target}
            for a in q.arrows
        ],
    }


def opposite(q: Quiver) -> Quiver:
    return Quiver(
        q.vertices,
        tuple(Arrow(a.id, a.target, a.source) for a in q.arrows),
    )


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


def _components(q: Quiver) -> List[List[int]]:
    adj: Dict[int, set] = {v: set() for v in q.vertices}
    for a in q.arrows:
        adj[a.source].add(a.target)
        adj[a.target].add(a.source)
    seen: set = set()
    comps: List[List[int]] = []
    for v in q.vertices:
        if v in seen:
            continue
        comp, stack = [], [v]
        seen.add(v)
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def _classify_component(q: Quiver, comp: List[int]) -> Tuple[str, int]:
    n = len(comp)
    edges = [
        a for a in q.arrows if a.source in comp  # both endpoints in comp
    ]
    if len(edges) != n - 1:
        raise NotDynkinError(
            "component has an underlying cycle or multiple edge"
        )
    deg = {v: 0 for v in comp}
    nbrs: Dict[int, List[int]] = {v: [] for v in comp}
    for a in edges:
        if a.target == a.source or a.target not in deg:
            raise NotDynkinError("component has an underlying cycle")
        deg[a.source] += 1
        deg[a.target] += 1
        nbrs[a.source].append(a.target)
        nbrs[a.target].append(a.source)
    pairs = {tuple(sorted((a.source, a.target))) for a in edges}
    if len(pairs) != len(edges):
        raise NotDynkinError("multiple edge between two vertices")
    if any(d > 3 for d in deg.values()):
        raise NotDynkinError("vertex of degree > 3")
    branch = [v for v in comp if deg[v] == 3]
    if not branch:
        return ("A", n)
    if len(branch) > 1:
        raise NotDynkinError("more than one branch vertex")
    center = branch[0]
    arms = []
    for first in nbrs[center]:
        length, prev, cur = 1, center, first
        while True:
            nxt = [w for w in nbrs[cur] if w != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    arms.sort()
    if arms[0] == 1 and arms[1] == 1:
        return ("D", arms[2] + 3)
    if arms == [1, 2, 2]:
        return ("E", 6)
    if arms == [1, 2, 3]:
        return ("E", 7)
    if arms == [1, 2, 4]:
        return ("E", 8)
    raise NotDynkinError(f"branch arms {arms} are not of type D or E")


def dynkin_type(q: Quiver) -> DynkinType:
    return DynkinType.of(
        [_classify_component(q, comp) for comp in _components(q)]
    )


@cache
def path_basis(q: Quiver) -> Tuple[Path, ...]:
    """All paths, ordered by source vertex, then length, then arrow ids."""
    out: List[Path] = []
    for v in q.vertices:
        frontier = [Path(v, v, ())]
        collected = [Path(v, v, ())]
        while frontier:
            nxt: List[Path] = []
            for p in frontier:
                for a in q.arrows_from(p.target):
                    nxt.append(Path(v, a.target, p.arrows + (a.id,)))
            nxt.sort(key=lambda p: p.arrows)
            collected.extend(nxt)
            frontier = nxt
        out.extend(collected)
    return tuple(out)


@cache
def paths_between(q: Quiver) -> Dict[Tuple[int, int], Tuple[Path, ...]]:
    """Canonical per-(source, target) path lists; basis of e_u A e_v."""
    table: Dict[Tuple[int, int], List[Path]] = {
        (u, v): [] for u in q.vertices for v in q.vertices
    }
    for p in path_basis(q):
        table[(p.source, p.target)].append(p)
    return {k: tuple(v) for k, v in table.items()}


@cache
def cartan_matrix(q: Quiver) -> RatMatrix:
    """C[i][j] = number of paths i to j; row i = dim vector of P(i)."""
    pb = paths_between(q)
    n = len(q.vertices)
    ent = tuple(
        Q(len(pb[(u, v)])) for u in q.vertices for v in q.vertices
    )
    return RatMatrix(n, n, ent)


@cache
def coxeter_matrix(q: Quiver) -> RatMatrix:
    """Phi = -C^{-1} C^T; acts on the right of row dimension vectors."""
    c = cartan_matrix(q)
    return c.inverse().mul(c.transpose()).neg()


def euler_form(q: Quiver, d: Sequence[int], e: Sequence[int]) -> int:
    """Euler form <d, e> = sum d_i e_i - sum over arrows i->j of d_i e_j."""
    n = len(q.vertices)
    if len(d) != n or len(e) != n:
        raise ValueError("dimension vector length mismatch")
    idx = {v: i for i, v in enumerate(q.vertices)}
    total = sum(d[i] * e[i] for i in range(n))
    for a in q.arrows:
        total -= d[idx[a.source]] * e[idx[a.target]]
    return total


def tits_form(q: Quiver, d: Sequence[int]) -> int:
    return euler_form(q, d, d)


@dataclass(frozen=True)
class PathVector:
    """Rational linear combination of paths sharing one (source, target).

    Terms are stored sorted by (length, arrow-id sequence) with nonzero
    coefficients only, so equal vectors compare and hash equal.
    """

    source: int
    target: int
    terms: Tuple[Tuple[Tuple[str, ...], Q], ...]

    @staticmethod
    def make(
        source: int,
        target: int,
        terms: Dict[Tuple[str, ...], Q],
    ) -> "PathVector":
        cleaned = tuple(
            (arrows, Q(c))
            for arrows, c in sorted(
                terms.items(), key=lambda t: (len(t[0]), t[0])
            )
            if c != 0
        )
        return PathVector(source, target, cleaned)

    @staticmethod
    def zero(source: int, target: int) -> "PathVector":
        return PathVector(source, target, ())

    @staticmethod
    def from_path(p: Path, coeff=Q(1)) -> "PathVector":
        return PathVector.make(p.source, p.target, {p.arrows: Q(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other: "PathVector") -> "PathVector":
        if (self.source, self.target) != (other.source, other.target):
            raise ValueError("path vector endpoint mismatch")
        acc = dict(self.terms)
        for arrows, c in other.terms:
            acc[arrows] = acc.get(arrows, Q(0)) + c
        return PathVector.make(self.source, self.target, acc)

    def scale(self, c) -> "PathVector":
        c = Q(c)
        return PathVector.make(
            self.source, self.target, {a: co * c for a, co in self.terms}
        )

    def mul(self, other: "PathVector") -> "PathVector":
        """Concatenation product; requires self.target == other.source."""
        if self.target != other.source:
            raise ValueError("paths do not compose")
        acc: Dict[Tuple[str, ...], Q] = {}
        for a1, c1 in self.terms:
            for a2, c2 in other.terms:
                key = a1 + a2
                acc[key] = acc.get(key, Q(0)) + c1 * c2
        return PathVector.make(self.source, other.target, acc)

    def coords(self, paths: Sequence[Path]) -> List[Q]:
        """Coordinates over a canonical path list for (source, target)."""
        lut = dict(self.terms)
        return [lut.get(p.arrows, Q(0)) for p in paths]
