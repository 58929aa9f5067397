"""Command-line front end for enumeration, classification, and reports.

Commands
--------
ar           render the Auslander-Reiten quiver of a Dynkin quiver; with
             --two-term the shifted projectives are included
silting      enumerate basic 2-term silting objects (with --tilting-only,
             basic tilting modules), optionally cross-checked against the
             brute-force enumeration (--oracle)
classify     classify the endomorphism algebra of every silting object
             and summarise the isomorphism classes
paper-suite  recompute every frozen count and structure over the bundled
             fixture quivers and print an expected-vs-computed table

Exit codes: 0 success, 1 oracle or suite failure, 2 input error, 3 quiver
not of Dynkin type.  All output is deterministic: byte-identical across
runs.  The environment variable SILT_SEED is reserved and unused; nothing
here is randomised.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from importlib.resources import files
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from .classify import (
    classify,
    dedupe,
    ext_matrix,
    records_to_json,
    summary_csv,
    summary_text,
    text_table,
)
from .complexes import hom_class_dim
from .endo import endomorphism_algebra, matches_presentation
from .modules import (
    IndId,
    ar_quiver_mod,
    ar_quiver_two_term,
    build_representation,
    ext1_dim,
    hom_dim,
    indecomposables,
    projective_dim_vectors,
    tau,
    tau_nakayama,
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
)
from .silting import (
    silting_alg2,
    silting_bruteforce,
    summand_complex,
    tilting_modules_alg1,
    tilting_modules_bruteforce,
)

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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="silt",
        description="Tilting modules and 2-term silting over Dynkin path algebras.",
        epilog=(
            "SILT_SEED is reserved and unused; all computation is "
            "deterministic."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format",
            choices=("json", "csv", "dot", "ascii"),
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
    add_common(p_ar)

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
        help="cross-check against the brute-force enumeration",
    )
    add_common(p_si)

    p_cl = sub.add_parser(
        "classify", help="classify all silted endomorphism algebras"
    )
    p_cl.add_argument("quiver", help="quiver file or bundled fixture name")
    p_cl.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check the enumeration against brute force",
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
    path = Path(spec)
    if path.is_file():
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as e:
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
        return parse_quiver(text)
    except QuiverCycleError as e:
        raise CliFailure(3, f"{spec}: {e}")
    except QuiverError as e:
        raise CliFailure(2, f"{spec}: {e}")


def _require_dynkin(q: Quiver) -> None:
    try:
        dynkin_type(q)
    except NotDynkinError as e:
        raise CliFailure(3, f"quiver is not of Dynkin type: {e}")


def _unsupported(fmt: str, command: str) -> CliFailure:
    return CliFailure(
        2, f"format {fmt!r} is not supported for command {command!r}"
    )


def _dump_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _dump_csv(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _check_oracle(algorithmic: set, brute: set, what: str) -> None:
    if algorithmic != brute:
        missing = len(brute - algorithmic)
        extra = len(algorithmic - brute)
        raise CliFailure(
            1,
            f"{what} oracle mismatch: {extra} objects only in the "
            f"algorithmic list, {missing} only in the brute-force list",
        )


# --- ar ---

def cmd_ar(args) -> str:
    q = _load_quiver(args.quiver)
    _require_dynkin(q)
    ar = ar_quiver_two_term(q) if args.two_term else ar_quiver_mod(q)
    if args.format == "ascii":
        if not ar.vertices:
            return "(empty quiver)\n"
        return ar.to_ascii()
    if args.format == "dot":
        return ar.to_dot()
    if args.format == "json":
        payload = {
            "quiver": quiver_to_json(q),
            "two_term": bool(args.two_term),
            "vertices": [v.label() for v in ar.vertices],
            "arrows": [[s.label(), t.label()] for s, t in ar.arrows],
            "tau": [[m.label(), t.label()] for m, t in ar.tau_pairs],
            "layout": {v.label(): list(pos) for v, pos in ar.layout},
        }
        return _dump_json(payload)
    rows = [("arrow", s.label(), t.label()) for s, t in ar.arrows]
    rows += [("tau", m.label(), t.label()) for m, t in ar.tau_pairs]
    return _dump_csv(("kind", "source", "target"), rows)


# --- silting ---

def _render_silting(q: Quiver, objs, fmt: str) -> str:
    if fmt == "json":
        return _dump_json(
            {
                "quiver": quiver_to_json(q),
                "count": len(objs),
                "objects": [t.to_json_dict() for t in objs],
            }
        )
    if fmt == "csv":
        rows = [
            (
                i,
                " ".join(str(v) for v in t.shifted_vertices),
                "+".join(IndId.module(d).label() for d in t.module_dims),
            )
            for i, t in enumerate(objs, start=1)
        ]
        return _dump_csv(("index", "shifted", "modules"), rows)
    if fmt == "ascii":
        parts = [f"silting objects: {len(objs)}", ""]
        for i, t in enumerate(objs, start=1):
            parts.append(f"#{i} {t.label()}")
            parts.append(t.to_ascii().rstrip("\n"))
            parts.append("")
        return "\n".join(parts).rstrip("\n") + "\n"
    raise _unsupported(fmt, "silting")


def _render_tilting(q: Quiver, mods, fmt: str) -> str:
    descs = [
        "+".join(IndId.module(d).label() for d in m.summands) for m in mods
    ]
    if fmt == "json":
        return _dump_json(
            {
                "quiver": quiver_to_json(q),
                "count": len(mods),
                "modules": [[list(d) for d in m.summands] for m in mods],
            }
        )
    if fmt == "csv":
        rows = list(enumerate(descs, start=1))
        return _dump_csv(("index", "summands"), rows)
    if fmt == "ascii":
        ar = ar_quiver_mod(q)
        parts = [f"tilting modules: {len(mods)}", ""]
        for i, (m, desc) in enumerate(zip(mods, descs), start=1):
            sel = {IndId.module(d) for d in m.summands}
            parts.append(f"#{i} {desc}")
            parts.append(ar.to_ascii(selected=sel).rstrip("\n"))
            parts.append("")
        return "\n".join(parts).rstrip("\n") + "\n"
    raise _unsupported(fmt, "silting")


def cmd_silting(args) -> str:
    q = _load_quiver(args.quiver)
    _require_dynkin(q)
    if args.tilting_only:
        mods = tilting_modules_alg1(q)
        if args.oracle:
            _check_oracle(
                set(mods), set(tilting_modules_bruteforce(q)), "tilting"
            )
        return _render_tilting(q, mods, args.format)
    objs = silting_alg2(q)
    if args.oracle:
        _check_oracle(set(objs), set(silting_bruteforce(q)), "silting")
    return _render_silting(q, objs, args.format)


# --- classify ---

def _family_counts(groups) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for g in groups:
        counts[g[0].label] = counts.get(g[0].label, 0) + 1
    return dict(sorted(counts.items()))


def _render_classification(q: Quiver, records, groups, fmt: str) -> str:
    fams = _family_counts(groups)
    shod = sum(1 for g in groups if not g[0].is_tilted)
    if fmt == "csv":
        return summary_csv(groups)
    if fmt == "json":
        return _dump_json(
            {
                "quiver": quiver_to_json(q),
                "count": len(records),
                "class_count": len(groups),
                "strictly_shod": shod,
                "families": fams,
                "records": records_to_json(records),
            }
        )
    if fmt == "ascii":
        lines = [summary_text(groups).rstrip("\n"), ""]
        lines.append(f"objects: {len(records)}")
        lines.append(f"classes: {len(groups)}")
        lines.append(f"strictly shod: {shod}")
        lines.append("families:")
        for lbl, c in fams.items():
            lines.append(f"  {lbl}: {c}")
        return "\n".join(lines) + "\n"
    raise _unsupported(fmt, "classify")


def cmd_classify(args) -> str:
    q = _load_quiver(args.quiver)
    _require_dynkin(q)
    objs = silting_alg2(q)
    if args.oracle:
        _check_oracle(set(objs), set(silting_bruteforce(q)), "silting")
    records = [classify(q, t) for t in objs]
    groups = dedupe(records)
    return _render_classification(q, records, groups, args.format)


# --- paper-suite ---

SuiteRow = Tuple[int, str, str, str, bool]


def _suite_rows() -> List[SuiteRow]:
    rows: List[SuiteRow] = []
    quivers = {name: _fixture_quiver(name) for name in FIXTURE_NAMES}
    records_by_name: Dict[str, list] = {}
    groups_by_name: Dict[str, tuple] = {}

    def add(criterion: int, check: str, expected, computed) -> None:
        rows.append(
            (
                criterion,
                check,
                str(expected),
                str(computed),
                str(expected) == str(computed),
            )
        )

    # 1: enumeration counts
    for name, q in quivers.items():
        add(1, f"silting count {name}", EXPECTED_SILTING[name], len(silting_alg2(q)))
        add(
            1,
            f"tilting count {name}",
            EXPECTED_TILTING[name],
            len(tilting_modules_alg1(q)),
        )

    # 2: classification class counts
    for name, q in quivers.items():
        records = [classify(q, t) for t in silting_alg2(q)]
        records_by_name[name] = records
        groups = dedupe(records)
        groups_by_name[name] = groups
        if name in EXPECTED_CLASSES:
            add(2, f"class count {name}", EXPECTED_CLASSES[name], len(groups))
        fams = _family_counts(groups)
        for lbl, cnt in EXPECTED_FAMILY_SPLITS.get(name, {}).items():
            add(2, f"classes {name} {lbl}", cnt, fams.get(lbl, 0))
        if name in EXPECTED_STRICTLY_SHOD:
            shod = sum(1 for g in groups if not g[0].is_tilted)
            add(
                2,
                f"strictly shod count {name}",
                EXPECTED_STRICTLY_SHOD[name],
                shod,
            )

    # 3: strictly shod algebra structure
    for label, name, arrows, rels in STRICTLY_SHOD_PRESENTATIONS:
        shod_groups = [g for g in groups_by_name[name] if not g[0].is_tilted]
        matching = [
            g
            for g in shod_groups
            if matches_presentation(g[0].algebra, arrows, rels)
            and all(bv.gl_dim == 3 for bv in g[0].block_verdicts)
        ]
        add(3, f"{label} structure in {name}", 1, len(matching))

    # 4: oracle equivalence
    for name, q in quivers.items():
        t_ok = set(tilting_modules_alg1(q)) == set(tilting_modules_bruteforce(q))
        s_ok = set(silting_alg2(q)) == set(silting_bruteforce(q))
        add(4, f"tilting oracle {name}", "equal", "equal" if t_ok else "differs")
        add(4, f"silting oracle {name}", "equal", "equal" if s_ok else "differs")

    # 5: homological invariants
    for name, q in quivers.items():
        inds = indecomposables(q)
        reps = {d: build_representation(q, d) for d in inds}
        projs = set(projective_dim_vectors(q))
        bad_euler = sum(
            1
            for d in inds
            for e in inds
            if hom_dim(q, reps[d], reps[e]) - ext1_dim(q, reps[d], reps[e])
            != euler_form(q, d, e)
        )
        add(5, f"euler identity {name}", 0, bad_euler)
        bad_ar = 0
        bad_tau = 0
        for d in inds:
            if d in projs:
                continue
            td = tau(q, d)
            if td != tau_nakayama(q, d):
                bad_tau += 1
            for e in inds:
                if ext1_dim(q, reps[d], reps[e]) != hom_dim(
                    q, reps[e], reps[td]
                ):
                    bad_ar += 1
        add(5, f"ar formula {name}", 0, bad_ar)
        add(5, f"tau agreement {name}", 0, bad_tau)
        bad_dim = 0
        bad_ext = 0
        for t in silting_alg2(q):
            b = endomorphism_algebra(q, t)
            cx = [summand_complex(q, s) for s in t.summands]
            total = sum(
                hom_class_dim(x, y, 0) for x in cx for y in cx
            )
            if b.dimension != total:
                bad_dim += 1
            verts = b.gabriel.vertices
            n = len(verts)
            ix = {v: i for i, v in enumerate(verts)}
            a_count = [[0] * n for _ in range(n)]
            for a in b.gabriel.arrows:
                a_count[ix[a.source]][ix[a.target]] += 1
            r_count = [[0] * n for _ in range(n)]
            for r in b.relations:
                r_count[ix[r.source]][ix[r.target]] += 1
            if tuple(tuple(r) for r in a_count) != ext_matrix(b, 1) or tuple(
                tuple(r) for r in r_count
            ) != ext_matrix(b, 2):
                bad_ext += 1
        add(5, f"endo dimension {name}", 0, bad_dim)
        add(5, f"ext matrices {name}", 0, bad_ext)

    # 6: duality under quiver opposition
    for name, q in quivers.items():
        qop = opposite(q)
        add(
            6,
            f"opposite silting count {name}",
            len(silting_alg2(q)),
            len(silting_alg2(qop)),
        )
        op_records = [classify(qop, t) for t in silting_alg2(qop)]
        add(
            6,
            f"opposite class count {name}",
            len(groups_by_name[name]),
            len(dedupe(op_records)),
        )

    # 7: silting objects without shifts or without projective module
    # summands are tilted of the full quiver type
    for name, q in quivers.items():
        label_q = dynkin_type(q).label()
        projs = set(projective_dim_vectors(q))
        bad = 0
        for t, rec in zip(silting_alg2(q), records_by_name[name]):
            applies = not t.shifted_vertices or all(
                d not in projs for d in t.module_dims
            )
            if applies and not (rec.is_tilted and rec.label == label_q):
                bad += 1
        add(7, f"unshifted or projective-free {name}", 0, bad)

    return rows


SUITE_COLUMNS = ("criterion", "check", "expected", "computed", "status")


def _render_suite(rows: Sequence[SuiteRow], fmt: str) -> str:
    npass = sum(1 for r in rows if r[4])
    table = [
        (c, check, exp, got, "pass" if ok else "FAIL")
        for c, check, exp, got, ok in rows
    ]
    if fmt == "csv":
        return _dump_csv(SUITE_COLUMNS, table)
    if fmt == "json":
        return _dump_json(
            {
                "checks": [dict(zip(SUITE_COLUMNS, r)) for r in table],
                "passed": npass,
                "total": len(rows),
            }
        )
    if fmt == "ascii":
        text = text_table(
            [SUITE_COLUMNS] + [[str(cell) for cell in r] for r in table]
        )
        return text + f"\nresult: {npass}/{len(rows)} checks pass\n"
    raise _unsupported(fmt, "paper-suite")


def cmd_paper_suite(args) -> Tuple[str, int]:
    rows = _suite_rows()
    text = _render_suite(rows, args.format)
    return text, 0 if all(r[4] for r in rows) else 1


# --- entry point ---

def _dispatch(args) -> Tuple[str, int]:
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
        text, code = _dispatch(args)
    except CliFailure as f:
        print(f"silt: error: {f.message}", file=sys.stderr)
        return f.code
    except (AssertionError, RuntimeError) as e:
        where = args.command
        if getattr(args, "quiver", None):
            where += f" {args.quiver}"
        print(f"silt: error: {where}: internal check failed: {e}", file=sys.stderr)
        return 1
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
