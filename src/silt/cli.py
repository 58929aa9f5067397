"""Command-line front end for enumeration, classification, and reports.

Every report is rendered here, in JSON, CSV, ASCII and dot; silt.silting,
silt.modules and silt.classify only compute.  silt.classify, and End(T)
assembly with it, is imported only inside cmd_classify and _suite_rows,
so silting and ar load neither.

Commands
--------
ar           render the Auslander-Reiten quiver of a Dynkin quiver; with
             --two-term the shifted projectives are included
silting      enumerate basic 2-term silting objects (with --tilting-only,
             basic tilting modules), optionally cross-checked against the
             closed-form count of the Dynkin type and the brute-force
             enumeration (--oracle)
classify     classify the endomorphism algebra of every silting object
             and summarise the isomorphism classes
paper-suite  recompute every frozen count and structure over the bundled
             fixture quivers and print an expected-vs-computed table

Exit codes: 0 success, 1 oracle or suite failure, 2 input or output
error or a quiver over the size limit (silting and classify refuse more
than SIZE_LIMIT two-term silting objects), 3 quiver not of Dynkin type.
All output is deterministic: byte-identical across runs.  Every check
runs before the first byte is written, so a failed check prints nothing
to stdout and creates no --out file.  JSON reports are streamed by one
writer, ``_write_json``: the large arrays are converted one element at
a time and written in blocks, with exactly the bytes of
``json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False)``
plus a newline.  Nothing here is randomised.

``python -m silt.cli`` and the ``silt`` script both run ``entry_point``:
the process ends right after the report and stderr are flushed, without
the interpreter's teardown of the caches, and with the exit codes above.
``main`` itself returns its exit code, for callers in the same process.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from functools import partial
from importlib.resources import files
from json.encoder import encode_basestring
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Sequence, Tuple, Union

from .complexes import hom_class_dim
from .modules import (
    ArQuiver,
    BoundQuiverAlgebra,
    ar_quiver_mod,
    ar_quiver_two_term,
    build_representation,
    ext1_dim,
    hom_dim,
    indecomposables,
    is_shift,
    object_label,
    projective_dim_vectors,
    shift_vertex,
    tau,
    tau_nakayama,
    two_term_objects,
)
from .quivers import (
    NotDynkinError,
    Quiver,
    QuiverCycleError,
    QuiverError,
    dynkin_type,
    euler_form,
    opposite,
    parse_quiver,
    quiver_to_json,
    silting_count,
    tilting_count,
)
from .silting import (
    Positions,
    _stage,
    silting_alg2,
    silting_bruteforce,
    silting_label,
    summand_classes,
    summand_complex,
    tilting_modules_alg1,
    tilting_modules_bruteforce,
)

if TYPE_CHECKING:
    from .classify import ClassificationRecord

FIXTURE_NAMES = (
    "a1",
    "a2",
    "a3_linear",
    "a3_alt",
    "a4_linear",
    "a4_second",
    "a4_third",
    "d4",
    "d4_second",
    "d5",
)

EXPECTED_SILTING = {
    "a1": 2,
    "a2": 5,
    "a3_linear": 14,
    "a3_alt": 14,
    "a4_linear": 42,
    "a4_second": 42,
    "a4_third": 42,
    "d4": 50,
    "d4_second": 50,
    "d5": 182,
}

EXPECTED_TILTING = {
    "a1": 1,
    "a2": 2,
    "a3_linear": 5,
    "a3_alt": 5,
    "a4_linear": 14,
    "a4_second": 14,
    "a4_third": 14,
    "d4": 20,
    "d4_second": 20,
    "d5": 77,
}

EXPECTED_CLASSES = {
    "a3_linear": 5,
    "a3_alt": 6,
    "a4_linear": 15,
    "a4_second": 17,
    "a4_third": 16,
    "d4": 13,
    "d4_second": 11,
    "d5": 62,
}

EXPECTED_FAMILY_SPLITS = {
    "a3_linear": {"A3": 4, "A2⊔A1": 1},
    "a4_linear": {"A4": 10, "A3⊔A1": 4, "A2⊔A2": 1},
}

EXPECTED_STRICTLY_SHOD = {
    "a3_linear": 0,
    "a3_alt": 0,
    "a4_linear": 0,
    "a4_second": 0,
    "a4_third": 0,
    "d4": 1,
    "d4_second": 0,
    "d5": 4,
}

# Gabriel quiver arrows and monomial zero-relations (source, target,
# length) of the five strictly shod algebras, up to vertex relabelling.
STRICTLY_SHOD_PRESENTATIONS = (
    ("s1", "d4", ((1, 2), (2, 3), (3, 4)), ((1, 3, 2), (2, 4, 2))),
    ("s2", "d5", ((1, 2), (2, 3), (3, 4), (4, 5)), ((1, 4, 3), (3, 5, 2))),
    ("s3", "d5", ((1, 2), (2, 3), (3, 4), (5, 4)), ((1, 3, 2), (2, 4, 2))),
    ("s4", "d5", ((1, 2), (2, 3), (3, 4), (4, 5)), ((1, 3, 2), (2, 4, 2))),
    ("s5", "d5", ((1, 2), (2, 3), (3, 4), (2, 5)), ((1, 3, 2), (1, 5, 2), (2, 4, 2))),
)


class CliFailure(Exception):
    """Error carrying the process exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def _utf8_stdio() -> None:
    for stream in (sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):
            try:
                stream.reconfigure(encoding="utf-8")
            except (ValueError, OSError):
                pass


def _buffered(stream):
    """stream, or, when its binary layer is unbuffered (python -u,
    PYTHONUNBUFFERED), a buffered UTF-8 writer on its file descriptor.
    Unbuffered, the text layer hands each text to the OS once and drops
    what a pipe whose reader has gone did not take, so a closed stdout
    would go unreported; buffered, the rest is retried and raises."""
    raw = getattr(stream, "buffer", None)
    if not isinstance(raw, io.RawIOBase):
        return stream
    fd = io.FileIO(raw.fileno(), "w", closefd=False)
    return io.TextIOWrapper(io.BufferedWriter(fd), encoding="utf-8")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="silt",
        description="Tilting modules and 2-term silting over Dynkin path algebras.",
        epilog="All computation is deterministic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(
        p: argparse.ArgumentParser, formats=("json", "csv", "ascii")
    ) -> None:
        p.add_argument(
            "--format",
            choices=formats,
            default="ascii",
            help="output format (default: ascii)",
        )
        p.add_argument(
            "--out", metavar="PATH", default=None, help="write to file"
        )

    p_ar = sub.add_parser("ar", help="render the Auslander-Reiten quiver")
    p_ar.add_argument("quiver", help="quiver file or bundled fixture name")
    p_ar.add_argument(
        "--two-term",
        action="store_true",
        help="include the shifted projectives P[1]",
    )
    add_common(p_ar, ("json", "csv", "dot", "ascii"))

    p_si = sub.add_parser("silting", help="enumerate 2-term silting objects")
    p_si.add_argument("quiver", help="quiver file or bundled fixture name")
    p_si.add_argument(
        "--tilting-only",
        action="store_true",
        help="enumerate tilting modules instead",
    )
    p_si.add_argument(
        "--oracle",
        action="store_true",
        help=(
            "cross-check against the closed-form count and the brute-force "
            "enumeration"
        ),
    )
    add_common(p_si)

    p_cl = sub.add_parser(
        "classify", help="classify all silted endomorphism algebras"
    )
    p_cl.add_argument("quiver", help="quiver file or bundled fixture name")
    p_cl.add_argument(
        "--oracle",
        action="store_true",
        help=(
            "cross-check the enumeration against its closed-form count "
            "and brute force, each "
            "End(T)'s Ext and projective dimensions against minimal "
            "resolutions of its simples (gl.dim <= 3), its Cartan rows "
            "against the Hom complex, and the order of each tilted block's "
            "Coxeter matrix against its type's Coxeter number"
        ),
    )
    add_common(p_cl)

    p_ps = sub.add_parser(
        "paper-suite",
        help="recompute all frozen counts over the bundled fixtures",
    )
    add_common(p_ps)
    return parser


def _fixture_text(name: str) -> str:
    resource = files("silt").joinpath("fixtures", f"{name}.quiver")
    return resource.read_text(encoding="utf-8")


def _fixture_quiver(name: str) -> Quiver:
    return parse_quiver(_fixture_text(name))


def _load_quiver(spec: str) -> Quiver:
    """The quiver a file or fixture name gives, checked to be Dynkin.  A
    cycle or a non-Dynkin graph exits 3, every other input error 2."""
    path = Path(spec)
    if path.is_file():
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as e:
            raise CliFailure(2, f"cannot read {spec}: {e}")
    else:
        name = spec.lower().removesuffix(".quiver")
        if name in FIXTURE_NAMES:
            text = _fixture_text(name)
        else:
            raise CliFailure(
                2, f"no such quiver file or bundled fixture: {spec}"
            )
    try:
        q = parse_quiver(text)
        dynkin_type(q)
    except QuiverCycleError as e:
        raise CliFailure(3, f"{spec}: {e}")
    except NotDynkinError as e:
        raise CliFailure(3, f"{spec}: quiver is not of Dynkin type: {e}")
    except QuiverError as e:
        raise CliFailure(2, f"{spec}: {e}")
    return q


SIZE_LIMIT = 1_000_000  # A12 has 742,900 silting objects, A13 2,674,440


def _check_size(spec: str, q: Quiver) -> None:
    """Refuse, before any enumeration, a quiver with more than SIZE_LIMIT
    two-term silting objects.  --tilting-only is refused alike: its
    _tilting_masks hold one mask per silting object."""
    count = silting_count(q)
    if count > SIZE_LIMIT:
        what = f"{count:,} two-term silting objects"
        raise CliFailure(2, f"{spec}: {what}, above the limit of {SIZE_LIMIT:,}")


# A report is either finished text (csv, ascii, dot) or a JSON payload,
# which main streams through _write_json.
Report = Union[str, dict]


# map elements per write: about 200 KB of E7's silting report
_BLOCK = 256


def _write_json(payload, write: Callable[[str], object]) -> None:
    """Write json.dumps(payload, indent=2, sort_keys=True,
    ensure_ascii=False) + "\n", exactly, through write.

    Only the types silt's reports hold: dicts with str keys, arrays (lists,
    tuples, maps), str, int, bool and None; anything else raises TypeError.
    The text so far is written after every _BLOCK elements of a map, so an
    array given as map(convert, items) is converted a block at a time and
    neither it nor the document is ever whole in memory.  The text of each
    array of ints is kept, keyed by its values and its indent, with the
    array it was made from, so that a repeated one (a dimension vector, a
    Cartan row) is encoded once, and the same tuple again is not even
    type-checked."""
    parts: List[str] = []
    int_arrays: Dict[Tuple[Tuple[int, ...], str], Tuple[Sequence, str]] = {}

    def enc(o, nl: str) -> None:
        # nl is a newline and the indent of the line o starts on
        t = type(o)
        if t is str:
            parts.append(encode_basestring(o))
        elif t is int:
            parts.append(int.__repr__(o))
        elif o is None:
            parts.append("null")
        elif t is bool:
            parts.append("true" if o else "false")
        elif t is dict:
            # encode_basestring raises TypeError on a key that is not a str
            inner = nl + "  "
            lead = "{" + inner
            for k in sorted(o):
                parts.append(f"{lead}{encode_basestring(k)}: ")
                enc(o[k], inner)
                lead = "," + inner
            parts.append("{}" if lead[0] == "{" else nl + "}")
        elif t is list or t is tuple or t is map:
            inner = nl + "  "
            if t is tuple:
                # the very tuple kept needs no type check: a report repeats
                # the same dimension-vector tuples
                try:
                    kept = int_arrays.get((o, nl))
                except TypeError:  # an element that cannot be hashed
                    kept = None
                if kept is not None and kept[0] is o:
                    parts.append(kept[1])
                    return
            if t is not map and o and all(type(x) is int for x in o):
                # the types are checked first: True == 1 as a key
                key = (tuple(o), nl)
                kept = int_arrays.get(key)
                if kept is None:
                    body = ("," + inner).join(map(int.__repr__, o))
                    kept = int_arrays[key] = (o, "[" + inner + body + nl + "]")
                parts.append(kept[1])
                return
            lead = "[" + inner
            for i, x in enumerate(o, 1):
                parts.append(lead)
                enc(x, inner)
                lead = "," + inner
                if t is map and i % _BLOCK == 0:
                    write("".join(parts))
                    parts.clear()
            parts.append("[]" if lead[0] == "[" else nl + "]")
        else:
            raise TypeError(f"{t.__name__} is not a JSON report type")

    enc(payload, "\n")
    parts.append("\n")
    write("".join(parts))


def text_table(rows: Sequence[Sequence[str]]) -> str:
    """Rows as left-aligned columns two spaces apart, one line each."""
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
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


def _enumerate(
    q: Quiver, algorithmic, brute_force, count, what: str, oracle: bool
):
    """algorithmic(q), checked if asked against the closed-form count(q)
    and against brute_force(q).  An internal-check error names the stage
    it came from."""
    with _stage("enumeration"):
        objs = algorithmic(q)
        if oracle and len(objs) != count(q):
            raise RuntimeError(
                f"{what} count {len(objs)}, but the product formula "
                f"for {dynkin_type(q).label()} gives {count(q)}"
            )
    if oracle:
        with _stage("oracle"):
            brute = brute_force(q)
        # both come sorted alike, so only tuples that differ need sets
        if brute != objs and set(objs) != set(brute):
            found, brute = set(objs), set(brute)
            raise CliFailure(
                1,
                f"{what} oracle mismatch: {len(found - brute)} objects only "
                f"in the algorithmic list, {len(brute - found)} only in the "
                "brute-force list",
            )
    return objs


# --- ar ---

def ar_to_dot(ar: ArQuiver) -> str:
    lines = ["digraph ar {", "  rankdir=LR;"]
    for v in map(object_label, ar.vertices):
        lines.append(f'  "{v}" [shape=plaintext, label="{v}"];')
    for s, t in ar.arrows:
        lines.append(f'  "{object_label(s)}" -> "{object_label(t)}";')
    for m, t in ar.tau_pairs:
        lines.append(
            f'  "{object_label(m)}" -> "{object_label(t)}" '
            "[style=dashed, dir=none, constraint=false];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def ar_to_ascii(ar: ArQuiver, selected=None) -> str:
    """Grid rendering; selected summands are bullets, the rest circles."""
    if not ar.vertices:
        return "(empty quiver)\n"
    selected = selected or set()
    pos = dict(ar.layout)
    maxcol = max(c for c, _ in pos.values())
    maxrow = max(r for _, r in pos.values())
    cells: Dict[Tuple[int, int], str] = {}
    for v in ar.vertices:
        col, row = pos[v]
        marker = "•" if v in selected else "∘"
        cells[(row, col)] = f"{marker}{object_label(v)}"
    width = max(len(t) for t in cells.values()) + 2
    lines = []
    for r in range(maxrow + 1):
        line = "".join(
            cells.get((r, c), "").ljust(width)
            for c in range(maxcol + 1)
        )
        lines.append(line.rstrip())
    return "\n".join(lines) + "\n"


def cmd_ar(args) -> Report:
    q = _load_quiver(args.quiver)
    ar = ar_quiver_two_term(q) if args.two_term else ar_quiver_mod(q)
    if args.format == "ascii":
        return ar_to_ascii(ar)
    if args.format == "dot":
        return ar_to_dot(ar)
    if args.format == "json":
        return {
            "quiver": quiver_to_json(q),
            "two_term": bool(args.two_term),
            "vertices": list(map(object_label, ar.vertices)),
            "arrows": [list(map(object_label, a)) for a in ar.arrows],
            "tau": [list(map(object_label, p)) for p in ar.tau_pairs],
            "layout": {object_label(v): pos for v, pos in ar.layout},
        }
    rows = [("kind", "source", "target")]
    rows += [("arrow", *map(object_label, a)) for a in ar.arrows]
    rows += [("tau", *map(object_label, p)) for p in ar.tau_pairs]
    return csv_table(rows)


# --- silting ---

def silting_json(q: Quiver, t: Positions) -> dict:
    """The object as JSON: the sorted vertices v of its summands P(v)[1]
    under "I", and its module summands' dimension vectors under "modules"."""
    objs, at = two_term_objects(q), shift_vertex(q)
    m = len(objs) - len(q.vertices)  # the modules are the positions below m
    return {
        "I": sorted(at[objs[i]] for i in t if i >= m),
        "modules": [objs[i] for i in t if i < m],
    }


def _ascii_list(title: str, ar, q: Quiver, objs, labels) -> str:
    """The objects numbered, each with its label and ar with its summands
    marked."""
    parts = [f"{title}: {len(objs)}", ""]
    for i, (t, label) in enumerate(zip(objs, labels), start=1):
        art = ar_to_ascii(ar, selected=set(summand_classes(q, t))).rstrip("\n")
        parts += [f"#{i} {label}", art, ""]
    return "\n".join(parts).rstrip("\n") + "\n"


def _render_silting(q: Quiver, objs, fmt: str) -> Report:
    if fmt == "json":
        return {
            "quiver": quiver_to_json(q),
            "count": len(objs),
            "objects": map(partial(silting_json, q), objs),
        }
    if fmt == "csv":
        rows = [("index", "shifted", "modules")]
        for i, d in enumerate(map(partial(silting_json, q), objs), start=1):
            shifted = " ".join(map(str, d["I"]))
            rows.append((i, shifted, "+".join(map(object_label, d["modules"]))))
        return csv_table(rows)
    labels = map(partial(silting_label, q), objs)
    return _ascii_list("silting objects", ar_quiver_two_term(q), q, objs, labels)


def _render_tilting(q: Quiver, mods, fmt: str) -> Report:
    # a tilting module has no shifted summand: every position is a module
    dims = map(lambda m: sorted(summand_classes(q, m)), mods)
    if fmt == "json":
        return {
            "quiver": quiver_to_json(q),
            "count": len(mods),
            "modules": dims,
        }
    descs = ["+".join(map(object_label, ds)) for ds in dims]
    if fmt == "csv":
        return csv_table([("index", "summands"), *enumerate(descs, start=1)])
    return _ascii_list("tilting modules", ar_quiver_mod(q), q, mods, descs)


def cmd_silting(args) -> Report:
    q = _load_quiver(args.quiver)
    _check_size(args.quiver, q)
    if args.tilting_only:
        mods = _enumerate(
            q,
            tilting_modules_alg1,
            tilting_modules_bruteforce,
            tilting_count,
            "tilting",
            args.oracle,
        )
        return _render_tilting(q, mods, args.format)
    objs = _enumerate(
        q, silting_alg2, silting_bruteforce, silting_count, "silting", args.oracle
    )
    return _render_silting(q, objs, args.format)


# --- classify ---

Groups = Sequence[Sequence["ClassificationRecord"]]


def _quiver_sketch(b: BoundQuiverAlgebra) -> str:
    if not b.gabriel.arrows:
        return " ".join(str(v) for v in b.gabriel.vertices)
    arrows = ",".join(f"{a.source}>{a.target}" for a in b.gabriel.arrows)
    if b.relations:
        rels = ",".join(f"{r.source}~{r.target}" for r in b.relations)
        return f"{arrows};rel:{rels}"
    return arrows


def algebra_to_json(b: BoundQuiverAlgebra) -> dict:
    return {
        **quiver_to_json(b.gabriel),
        "relations": [
            [[c, list(arrows)] for arrows, c in rel.terms]
            for rel in b.relations
        ],
        "dimension": b.dimension,
    }


def record_to_json(q: Quiver, r: ClassificationRecord) -> dict:
    return {
        "silting": silting_json(q, r.silting),
        "algebra": algebra_to_json(r.algebra),
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


def _family_counts(groups) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for g in groups:
        counts[g[0].label] = counts.get(g[0].label, 0) + 1
    return dict(sorted(counts.items()))


def _render_classification(q: Quiver, records, groups, fmt: str) -> Report:
    fams = _family_counts(groups)
    shod = sum(1 for g in groups if not g[0].is_tilted)
    if fmt == "csv":
        return summary_csv(q, groups)
    if fmt == "json":
        return {
            "quiver": quiver_to_json(q),
            "count": len(records),
            "class_count": len(groups),
            "strictly_shod": shod,
            "families": fams,
            "records": map(partial(record_to_json, q), records),
        }
    lines = [summary_text(q, groups).rstrip("\n"), ""]
    lines.append(f"objects: {len(records)}")
    lines.append(f"classes: {len(groups)}")
    lines.append(f"strictly shod: {shod}")
    lines.append("families:")
    for lbl, c in fams.items():
        lines.append(f"  {lbl}: {c}")
    return "\n".join(lines) + "\n"


def _check_cartan(q: Quiver, t, cartan) -> None:
    """End(T)'s Cartan rows against ranks in the Hom complex: entry (i, j)
    is dim e_i B e_j = dim Hom(T_j, T_i), for T at the positions t."""
    summands = summand_classes(q, t)
    cx = [summand_complex(q, s) for s in summands]
    for i, row in enumerate(cartan):
        for j, c in enumerate(row):
            d = hom_class_dim(cx[j], cx[i], 0)
            if c != d:
                raise RuntimeError(
                    f"Cartan entry ({i + 1}, {j + 1}) is {c}, but "
                    f"Hom({object_label(summands[j])}, "
                    f"{object_label(summands[i])}) "
                    f"has dimension {d}"
                )


def cmd_classify(args) -> Report:
    from .classify import check_homology, check_tilted_types, classify, dedupe

    q = _load_quiver(args.quiver)
    _check_size(args.quiver, q)
    objs = _enumerate(
        q, silting_alg2, silting_bruteforce, silting_count, "silting", args.oracle
    )
    records = [classify(q, t) for t in objs]
    if args.oracle:
        for r in records:
            with _stage("oracle", q, r.silting):
                check_homology(r.algebra)
                _check_cartan(q, r.silting, r.algebra.cartan)
                check_tilted_types(r)
    groups = dedupe(records)
    return _render_classification(q, records, groups, args.format)


# --- paper-suite ---

SuiteRow = Tuple[int, str, str, str, bool]


def _raises(check: Callable[..., None], *args) -> bool:
    """Whether check(*args), one of classify --oracle's checks, fails."""
    try:
        check(*args)
    except RuntimeError:
        return True
    return False


def _suite_rows() -> List[SuiteRow]:
    """The rows of silt paper-suite: the seven criteria over the bundled
    fixtures, each row an expected and a computed value as strings."""
    from .classify import check_homology, classify, dedupe, matches_presentation

    rows: List[SuiteRow] = []
    quivers = {name: _fixture_quiver(name) for name in FIXTURE_NAMES}
    records_by_name: Dict[str, list] = {}
    groups_by_name: Dict[str, tuple] = {}

    def add(criterion: int, check: str, expected, computed) -> None:
        expected, computed = str(expected), str(computed)
        rows.append((criterion, check, expected, computed, expected == computed))

    # 1: enumeration counts
    with _stage("criterion 1"):
        for name, q in quivers.items():
            silting, tilting = silting_alg2(q), tilting_modules_alg1(q)
            add(1, f"silting count {name}", EXPECTED_SILTING[name], len(silting))
            add(1, f"tilting count {name}", EXPECTED_TILTING[name], len(tilting))

    # 2: classification class counts
    with _stage("criterion 2"):
        for name, q in quivers.items():
            records = [classify(q, t) for t in silting_alg2(q)]
            records_by_name[name] = records
            groups = groups_by_name[name] = dedupe(records)
            if name in EXPECTED_CLASSES:
                add(2, f"class count {name}", EXPECTED_CLASSES[name], len(groups))
            fams = _family_counts(groups)
            for lbl, cnt in EXPECTED_FAMILY_SPLITS.get(name, {}).items():
                add(2, f"classes {name} {lbl}", cnt, fams.get(lbl, 0))
            if name in EXPECTED_STRICTLY_SHOD:
                shod = sum(1 for g in groups if not g[0].is_tilted)
                expected = EXPECTED_STRICTLY_SHOD[name]
                add(2, f"strictly shod count {name}", expected, shod)

    # 3: strictly shod algebra structure: connected, of global dimension 3
    with _stage("criterion 3"):
        for label, name, arrows, rels in STRICTLY_SHOD_PRESENTATIONS:
            matching = sum(
                1
                for g in groups_by_name[name]
                if not g[0].is_tilted
                and matches_presentation(g[0].algebra, arrows, rels)
                and [bv.gl_dim for bv in g[0].block_verdicts] == [3]
            )
            add(3, f"{label} structure in {name}", 1, matching)

    # 4: oracle equivalence
    with _stage("criterion 4"):
        for name, q in quivers.items():
            for what, algorithmic, brute_force in (
                ("tilting", tilting_modules_alg1, tilting_modules_bruteforce),
                ("silting", silting_alg2, silting_bruteforce),
            ):
                same = set(algorithmic(q)) == set(brute_force(q))
                verdict = "equal" if same else "differs"
                add(4, f"{what} oracle {name}", "equal", verdict)

    # 5: homological invariants
    with _stage("criterion 5"):
        for name, q in quivers.items():
            inds = indecomposables(q)
            reps = {d: build_representation(q, d) for d in inds}
            projs = set(projective_dim_vectors(q))
            bad_euler = sum(
                hom_dim(q, reps[d], reps[e]) - ext1_dim(q, reps[d], reps[e])
                != euler_form(q, d, e)
                for d in inds
                for e in inds
            )
            add(5, f"euler identity {name}", 0, bad_euler)
            taus = {d: tau(q, d) for d in inds if d not in projs}
            bad_ar = sum(
                ext1_dim(q, reps[d], reps[e]) != hom_dim(q, reps[e], reps[td])
                for d, td in taus.items()
                for e in inds
            )
            add(5, f"ar formula {name}", 0, bad_ar)
            bad_tau = sum(td != tau_nakayama(q, d) for d, td in taus.items())
            add(5, f"tau agreement {name}", 0, bad_tau)
            # the Cartan rows and the homology of each End(T), checked as
            # classify --oracle checks them
            records = records_by_name[name]
            bad_cartan = sum(
                _raises(_check_cartan, q, r.silting, r.algebra.cartan)
                for r in records
            )
            bad_ext = sum(_raises(check_homology, r.algebra) for r in records)
            add(5, f"endo dimension {name}", 0, bad_cartan)
            add(5, f"ext matrices {name}", 0, bad_ext)

    # 6: duality under quiver opposition
    with _stage("criterion 6"):
        for name, q in quivers.items():
            qop = opposite(q)
            op_records = [classify(qop, t) for t in silting_alg2(qop)]
            objects, classes = len(records_by_name[name]), len(groups_by_name[name])
            add(6, f"opposite silting count {name}", objects, len(op_records))
            add(6, f"opposite class count {name}", classes, len(dedupe(op_records)))

    # 7: silting objects without shifts or without projective module
    # summands are tilted of the full quiver type
    with _stage("criterion 7"):
        for name, q in quivers.items():
            label_q = dynkin_type(q).label()
            projs = set(projective_dim_vectors(q))
            bad = 0
            for r in records_by_name[name]:
                # a projective is a positive class, never a shifted one
                cs = summand_classes(q, r.silting)
                applies = not any(map(is_shift, cs)) or projs.isdisjoint(cs)
                bad += applies and not (r.is_tilted and r.label == label_q)
            add(7, f"unshifted or projective-free {name}", 0, bad)

    return rows


SUITE_COLUMNS = ("criterion", "check", "expected", "computed", "status")


def _render_suite(rows: Sequence[SuiteRow], fmt: str) -> Report:
    npass = sum(1 for r in rows if r[4])
    table = [
        (c, check, exp, got, "pass" if ok else "FAIL")
        for c, check, exp, got, ok in rows
    ]
    if fmt == "csv":
        return csv_table([SUITE_COLUMNS, *table])
    if fmt == "json":
        return {
            "checks": [dict(zip(SUITE_COLUMNS, r)) for r in table],
            "passed": npass,
            "total": len(rows),
        }
    text = text_table(
        [SUITE_COLUMNS] + [[str(cell) for cell in r] for r in table]
    )
    return text + f"\nresult: {npass}/{len(rows)} checks pass\n"


def cmd_paper_suite(args) -> Tuple[Report, int]:
    rows = _suite_rows()
    report = _render_suite(rows, args.format)
    return report, 0 if all(r[4] for r in rows) else 1


# --- entry point ---

def _dispatch(args) -> Tuple[Report, int]:
    if args.command == "ar":
        return cmd_ar(args), 0
    if args.command == "silting":
        return cmd_silting(args), 0
    if args.command == "classify":
        return cmd_classify(args), 0
    return cmd_paper_suite(args)


def main(argv=None) -> int:
    _utf8_stdio()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if not e.code else int(e.code)
    try:
        report, code = _dispatch(args)
    except CliFailure as f:
        print(f"silt: error: {f.message}", file=sys.stderr)
        return f.code
    except (AssertionError, RuntimeError) as e:
        where = args.command
        if getattr(args, "quiver", None):
            where += f" {args.quiver}"
        print(f"silt: error: {where}: internal check failed: {e}", file=sys.stderr)
        return 1

    def emit(write) -> None:
        if isinstance(report, str):
            write(report)
        else:
            _write_json(report, write)

    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as f:
                emit(f.write)
        else:
            out = _buffered(sys.stdout)
            emit(out.write)
            out.flush()
    except OSError as e:
        if not args.out:
            # a closed stdout: the interpreter's last flush goes nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        where = args.out or "stdout"
        print(f"silt: error: cannot write {where}: {e}", file=sys.stderr)
        return 2
    return code


def entry_point() -> None:
    """The process entry of ``python -m silt.cli`` and the ``silt`` script:
    main, then stdout and stderr are flushed and the process ends at once,
    with main's exit code and without tearing the interpreter down.  A
    flush that raises falls back to sys.exit, so Python reports it as it
    does at exit; an exception out of main is not caught here."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    entry_point()
