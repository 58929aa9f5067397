"""Run silt's own cross-checks on every orientation of the Dynkin diagrams
up to E8, outside the tier-1 suite (pytest does not collect this file).

    PYTHONPATH=src python tests/orientation_sweep.py [classify] [silting] [tilting] [ar] [reps] [census] [classify-e8 [INDEX ...]]

`classify` runs `silt classify --oracle --format csv` on every orientation
of A1-A5, D4, D5, E6 and E7 (148 quivers); `silting` runs
`silt silting --oracle --format csv` on every orientation of E8 (128
quivers); `tilting` runs `silt silting --tilting-only --oracle --format
csv`, which checks Algorithm 1 against its brute force, on every
orientation of E7 and E8 (192 quivers); `ar` runs `silt ar --two-term
--format json`, which places the tau^{-1}-orbits of the projectives in
ZQ^op and checks the vertex count, the mesh additivity and the copy of
the quiver among the shifted projectives, on every orientation of E7
and E8 (192 quivers); `reps` compares
`silt.modules.build_representation`, which climbs from cached Coxeter
images, with the step-by-step reflection reference
(`tests/reflection_reference.py`) on every root of every orientation of
E7 and E8 (192 quivers).  With no argument these five run, in that
order.  Each command run calls silt.cli.main in this process, writes its
output to a scratch file, and must exit 0: an internal check that fails,
such as an RREF that is not integral, exits 1 and names the quiver.
Every silt cache is cleared after each quiver, so memory stays that of
one run.  Prints one line per diagram with its wall time, and exits 1 if
any run did not exit 0 or any representation differs.

`census` runs only when named: it is a report, not a check, and leaves
the exit status alone.  On every orientation of D4, D5, D6, E6 and E7
(152 quivers, about ten minutes on a 2-core VM) it prints the kind of
the branch vertex (sink, source or neither), the number of isomorphism
classes of silted algebras and how many of them are strictly shod.  It
then says whether "no strictly shod class <=> the branch vertex is a
sink or a source" and "Q and its opposite have the same counts" held on
every orientation, and names those where not.

`classify-e8` also runs only when named: it runs `silt classify --oracle
--format csv` on the E8 orientations at the given indices into
`dynkin_orientations.orientations("E", 8)`, on all 128 when no index is
given (about two and a half minutes each on a 2-core VM).  Per
orientation it prints the kind of the branch vertex 3, the numbers of
silting objects, of isomorphism classes, of strictly shod classes and
of tilting complexes (T = M + P[1] with Hom(M, P) = 0), the sha256 of
the CSV and the wall time.  A run that does not exit 0 is a failure,
as in the sweeps above, and silt's error on stderr names the object's
label.  Indices 1, 17 and 32 are `1->2->...->7, 8->3` (branch vertex
neither), a sink and a source.
"""

import hashlib
import sys
import tempfile
import time
from pathlib import Path

import reflection_reference
import silt.cli
from dynkin_orientations import TYPES_WITH_E6, orientations
from silt.classify import classify, dedupe
from silt.modules import build_representation, indecomposables, is_shift
from silt.silting import euler_table, silting_alg2, two_term_objects

SWEEPS = {
    "classify": (
        ["classify", "--oracle", "--format", "csv"],
        TYPES_WITH_E6 + [("E", 7)],
    ),
    "silting": (["silting", "--oracle", "--format", "csv"], [("E", 8)]),
    "tilting": (
        ["silting", "--tilting-only", "--oracle", "--format", "csv"],
        [("E", 7), ("E", 8)],
    ),
    "ar": (["ar", "--two-term", "--format", "json"], [("E", 7), ("E", 8)]),
    "reps": (None, [("E", 7), ("E", 8)]),
}
CENSUS_TYPES = [("D", 4), ("D", 5), ("D", 6), ("E", 6), ("E", 7)]


def clear_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name.startswith("silt."):
            for obj in list(vars(module).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def sweep(name, command, types, scratch: Path) -> list:
    failed = []
    quiver, out = scratch / "q.quiver", scratch / "out"
    for kind, n in types:
        t0 = time.perf_counter()
        quivers = orientations(kind, n)
        for text, q in quivers:
            if command is None:
                ok = all(
                    build_representation(q, d)
                    == reflection_reference.build_representation(q, d)
                    for d in indecomposables(q)
                )
            else:
                quiver.write_text(text)
                argv = [command[0], str(quiver), *command[1:], "--out", str(out)]
                ok = silt.cli.main(argv) == 0
            if not ok:
                failed.append(f"{name} {kind}{n}:\n{text}")
            clear_caches()
        print(
            f"{name} {kind}{n}: {len(quivers)} orientations, "
            f"{time.perf_counter() - t0:.1f} s",
            flush=True,
        )
    return failed


def _vertex_kind(q, v) -> str:
    if all(a.target != v for a in q.arrows):
        return "source"
    return "sink" if all(a.source != v for a in q.arrows) else "neither"


def census(types) -> None:
    """Per orientation: the branch vertex's kind, the class count and the
    strictly shod class count; then the two statements checked on them."""
    seen = {}  # the arrows as (source, target) pairs -> the census row
    for kind, n in types:
        branch = n - 2 if kind == "D" else 3
        for _, q in orientations(kind, n):
            groups = dedupe([classify(q, t) for t in silting_alg2(q)])
            shod = sum(not g[0].is_tilted for g in groups)
            arrows = frozenset((a.source, a.target) for a in q.arrows)
            edges = " ".join(f"{s}->{t}" for s, t in sorted(arrows))
            name = f"{kind}{n} {edges}"
            at = _vertex_kind(q, branch)
            seen[arrows] = (name, at, len(groups), shod)
            print(
                f"census {name}: branch {branch} {at}, {len(groups)} classes, "
                f"{shod} strictly shod",
                flush=True,
            )
            clear_caches()
    rows = list(seen.values())
    shod_iff = [r[0] for r in rows if (r[3] == 0) != (r[1] != "neither")]
    opposite = [
        name
        for arrows, (name, _, classes, shod) in seen.items()
        if seen[frozenset((t, s) for s, t in arrows)][2:] != (classes, shod)
    ]
    for statement, bad in (
        ("0 strictly shod <=> branch vertex a sink or a source", shod_iff),
        ("Q and opposite(Q) have equal class and shod counts", opposite),
    ):
        verdict = "holds" if not bad else f"fails on {len(bad)}"
        print(f"census over {len(rows)} orientations: {statement}: {verdict}")
        for name in bad:
            print(f"  {name}")


def _tilting_complexes(q, objs) -> int:
    """How many of the silting objects T = M + P[1] are tilting complexes:
    Hom(M, P) = 0, that is chi[a][b] >= 0 for every module summand a and
    every shifted summand b."""
    chi, k0 = euler_table(q), two_term_objects(q)
    return sum(
        all(
            chi[a][b] >= 0
            for a in t
            if not is_shift(k0[a])
            for b in t
            if is_shift(k0[b])
        )
        for t in objs
    )


def classify_e8(indices, scratch: Path) -> list:
    """`classify --oracle --format csv` on the E8 orientations at the given
    indices into orientations("E", 8), on all 128 when none is given.
    Prints one row per orientation: the branch vertex's kind, the object,
    class, strictly shod and tilting-complex counts, the CSV's sha256 and
    the wall time of the run."""
    failed = []
    quiver, out = scratch / "q.quiver", scratch / "out.csv"
    quivers = orientations("E", 8)
    for i in indices or range(len(quivers)):
        text, q = quivers[i]
        edges = " ".join(f"{a.source}->{a.target}" for a in q.arrows)
        name = f"E8 #{i} {edges}"
        quiver.write_text(text)
        t0 = time.perf_counter()
        argv = ["classify", str(quiver), "--oracle", "--format", "csv"]
        if silt.cli.main([*argv, "--out", str(out)]) != 0:
            failed.append(f"classify-e8 {name}:\n{text}")
        else:
            wall = time.perf_counter() - t0
            objs = silting_alg2(q)
            groups = dedupe([classify(q, t) for t in objs])
            shod = sum(not g[0].is_tilted for g in groups)
            digest = hashlib.sha256(out.read_bytes()).hexdigest()
            print(
                f"classify-e8 {name}: branch 3 {_vertex_kind(q, 3)}, "
                f"{len(objs)} objects, {len(groups)} classes, {shod} strictly "
                f"shod, {_tilting_complexes(q, objs)} tilting complexes, "
                f"csv sha256 {digest}, {wall:.1f} s",
                flush=True,
            )
        clear_caches()
    return failed


def main(argv) -> int:
    names = [a for a in argv if not a.isdigit()] or list(SWEEPS)
    indices = [int(a) for a in argv if a.isdigit()]
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            if name == "census":
                census(CENSUS_TYPES)
                continue
            if name == "classify-e8":
                failed += classify_e8(indices, Path(tmp))
                continue
            failed += sweep(name, *SWEEPS[name], Path(tmp))
    for f in failed:
        print(f"FAILED {f}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
