"""Quivers, Dynkin recognition, paths, and the bilinear forms of a path algebra.

Conventions fixed here and used everywhere else:

- Vertices are integer labels; the order given at parse time is the
  coordinate order for dimension vectors and matrices.
- A path is the tuple of its arrow ids, () the lazy path, and its ends
  are its table key (source, target).  Paths compose left to right: a
  path p from i to j satisfies p = e(i) * p * e(j), and longer paths are
  built by appending arrows.
- The Cartan matrix C has C[i][j] = number of paths i to j, so row i is
  the dimension vector of the projective at i (right modules); its
  integer rows are modules.projective_dim_vectors.
- The Coxeter matrix Phi = -C^{-1} C^T is a function of the integer
  Cartan rows and acts on the right of row dimension vectors:
  dim(tau M) = dim(M) * Phi for non-projective M.
"""

from __future__ import annotations

import json
import re
from functools import cache
from math import prod
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from .linalg import integer_solve


class QuiverError(ValueError):
    """Base class for quiver input problems."""


class QuiverSyntaxError(QuiverError):
    """Malformed quiver file, duplicate labels, or unknown endpoints."""


class QuiverCycleError(QuiverError):
    """The directed graph has an oriented cycle (infinite path algebra)."""


class NotDynkinError(QuiverError):
    """Underlying graph is not a disjoint union of A/D/E diagrams."""


class _RecordType(type):
    """Builds each Record subclass from its annotations alone: they become
    its __slots__, in order, and its __init__ and _values are written
    once, here, the way namedtuple writes its __new__.  A field has no
    default: a class-level value of a field conflicts with its slot, and
    Python refuses to create the class.  The __init__ sets each field, and
    the stored hash to None, through its slot's own setter (a record's
    __setattr__ raises), then runs the class's own checks, its
    __post_init__, if it defines one; _values is the tuple of the fields."""

    def __new__(mcs, name, bases, ns):
        if not bases:  # Record itself
            return super().__new__(mcs, name, bases, ns)
        fields = tuple(ns.get("__annotations__", ()))
        ns["__slots__"] = ns["_fields"] = fields
        # the fields for ==, read in C: a bare value for one field
        ns["_key"] = attrgetter(*fields)
        cls = super().__new__(mcs, name, bases, ns)
        scope = {f"_set_{f}": getattr(cls, f).__set__ for f in fields + ("_hash",)}
        lines = [f"def __init__(self, {', '.join(fields)}):"]
        lines += [f"    _set_{f}(self, {f})" for f in fields]
        lines.append("    _set__hash(self, None)")
        if "__post_init__" in ns:
            lines.append("    self.__post_init__()")
        lines += ["def _values(self):", f"    return ({''.join(f'self.{f}, ' for f in fields)})"]
        exec("\n".join(lines), scope)
        cls.__init__, cls._values = scope["__init__"], scope["_values"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
        return cls


class Record(metaclass=_RecordType):
    """An immutable record whose fields are its class's annotations, in
    order, each declared once: _RecordType makes them the class's
    __slots__ and writes its __init__, so an instance carries no dict of
    its own.  A subclass puts its checks in __post_init__.  Assigning or
    deleting an attribute raises AttributeError.

    Two records are equal when they have the same type and equal fields.
    The hash is hash(tuple(fields)), stored on first use in the one slot
    the base holds: quivers, complexes and silting objects key many
    caches.  A record pickles as its type and fields, so unpickling runs
    the checks again and never carries the stored hash, since str hashes
    differ between processes.
    """

    __slots__ = ("_hash",)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return self is other or key(self) == key(other)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self._values())
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class Arrow(Record):
    id: str
    source: int
    target: int


class Quiver(Record):
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


class DynkinType(Record):
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


_ARROW_ID = r"\w+"
_ARROW_RE = re.compile(rf"^({_ARROW_ID}):(-?\d+)->(-?\d+)$")


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


def _json_arrow_id(x) -> str:
    if type(x) is not str or not re.fullmatch(_ARROW_ID, x):
        raise QuiverSyntaxError(
            f"arrow id {json.dumps(x)} is not a string of word characters"
        )
    return x


def _parse_json(text: str) -> Quiver:
    """The JSON form: lists `vertices` and `arrows`, every label a JSON
    integer and every arrow id a string matching the text format's ids;
    nothing is converted."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise QuiverSyntaxError(f"bad JSON: {exc}") from exc
    try:
        vertices, arrows = payload["vertices"], payload.get("arrows", [])
        if type(vertices) is not list or type(arrows) is not list:
            raise QuiverSyntaxError("vertices and arrows must be lists")
        arrows = [
            Arrow(_json_arrow_id(a["id"]), a["source"], a["target"])
            for a in arrows
        ]
    except (KeyError, TypeError) as exc:
        raise QuiverSyntaxError(f"bad quiver JSON structure: {exc}") from exc
    for v in vertices + [v for a in arrows for v in (a.source, a.target)]:
        if type(v) is not int:
            raise QuiverSyntaxError(f"vertex label {json.dumps(v)} is not an integer")
    return Quiver(tuple(vertices), tuple(arrows))


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


_E_EXPONENTS = {
    6: (1, 4, 5, 7, 8, 11),
    7: (1, 5, 7, 9, 11, 13, 17),
    8: (1, 7, 11, 13, 17, 19, 23, 29),
}


def _exponents(family: str, rank: int) -> Tuple[int, ...]:
    """The exponents of a Dynkin diagram; the largest is h - 1, for the
    Coxeter number h."""
    if family == "A":
        return tuple(range(1, rank + 1))
    if family == "D":
        return (*range(1, 2 * rank - 2, 2), rank - 1)
    return _E_EXPONENTS[rank]


def _catalan(q: Quiver, shift: int) -> int:
    """Product over the components of prod (e + h + shift) / (e + 1)."""
    count = 1
    for family, rank in dynkin_type(q).components:
        es = _exponents(family, rank)
        h = max(es) + 1
        count *= prod(e + h + shift for e in es) // prod(e + 1 for e in es)
    return count


def silting_count(q: Quiver) -> int:
    """The number of basic 2-term silting objects: the Catalan number of
    the Dynkin type (Fomin-Zelevinsky 2003), known from the type alone."""
    return _catalan(q, 1)


def tilting_count(q: Quiver) -> int:
    """The number of basic tilting modules: the positive Catalan number of
    the Dynkin type (Ringel 2016), which no orientation changes."""
    return _catalan(q, -1)


PathTable = Dict[Tuple[int, int], Tuple[Tuple[str, ...], ...]]
PathIndex = Dict[Tuple[int, Tuple[str, ...]], int]


def path_tables(q: Quiver) -> Tuple[PathTable, PathIndex]:
    """Per (source, target), the canonical basis of e_u A e_v: its paths
    by length, then arrow ids, from one breadth-first walk per source with
    each level sorted; and the index (source, arrow ids) -> a path's
    position in its list, through which the paths of End(T)'s Gabriel
    quiver concatenate.  Uncached; paths_between caches the input's."""
    out: Dict[int, List[Tuple[str, int]]] = {v: [] for v in q.vertices}
    for a in q.arrows:
        out[a.source].append((a.id, a.target))
    table = {(u, v): [] for u in q.vertices for v in q.vertices}
    index: PathIndex = {}
    for u in q.vertices:
        level = [((), u)]
        while level:
            for p, v in level:
                paths = table[(u, v)]
                index[(u, p)] = len(paths)
                paths.append(p)
            level = sorted((p + (a,), w) for p, v in level for a, w in out[v])
    return {k: tuple(v) for k, v in table.items()}, index


@cache
def paths_between(q: Quiver) -> PathTable:
    """path_tables' lists, cached for the input quiver."""
    return path_tables(q)[0]


def single_path(q: Quiver, u: int, v: int) -> Optional[Tuple[str, ...]]:
    """The path from u to v as its arrow ids, () at u == v, or None when
    there is none; () is falsy, so callers test `is None`.

    The underlying graph of a Dynkin quiver is a forest, so there is at
    most one; a second path raises ValueError.  Every map between
    projectives in silt is a matrix of scalars because of this, and this
    is the one place it is checked.
    """
    paths = paths_between(q)[(u, v)]
    if len(paths) > 1:
        raise ValueError(
            f"{len(paths)} paths run from vertex {u} to vertex {v}; "
            "a Dynkin quiver has at most one"
        )
    return paths[0] if paths else None


def coxeter_matrix(cartan: Tuple[Tuple[int, ...], ...]) -> Tuple[Tuple[int, ...], ...]:
    """Phi = -C^{-1} C^T as integer rows, for integer Cartan rows C.

    Raises ValueError when C is singular and RuntimeError when C^{-1} C^T
    is not integral (finite global dimension gives det C = +-1, Eilenberg).
    """
    phi = integer_solve(cartan, tuple(zip(*cartan)), "Coxeter matrix")
    return tuple(tuple(-e for e in row) for row in phi)


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


class PathVector(Record):
    """Integer linear combination of paths sharing one (source, target):
    a relation of a BoundQuiverAlgebra (maps between projectives over a
    Dynkin quiver are scalars, see single_path).

    Terms are stored sorted by (length, arrow-id sequence) with nonzero
    coefficients only, so equal vectors compare and hash equal.
    """

    source: int
    target: int
    terms: Tuple[Tuple[Tuple[str, ...], int], ...]

    @staticmethod
    def make(
        source: int,
        target: int,
        terms: Dict[Tuple[str, ...], int],
    ) -> "PathVector":
        cleaned = tuple(
            (arrows, c)
            for arrows, c in sorted(
                terms.items(), key=lambda t: (len(t[0]), t[0])
            )
            if c != 0
        )
        return PathVector(source, target, cleaned)
