"""Run silt's own cross-checks on every orientation of the Dynkin diagrams
up to E8, outside the tier-1 suite (pytest does not collect this file).

    PYTHONPATH=src python tests/orientation_sweep.py [classify] [silting] [tilting] [ar] [reps]

`classify` runs `silt classify --oracle --format csv` on every orientation
of A1-A5, D4, D5, E6 and E7 (148 quivers); `silting` runs
`silt silting --oracle --format csv` on every orientation of E8 (128
quivers); `tilting` runs `silt silting --tilting-only --oracle --format
csv`, which checks Algorithm 1 against its brute force, on every
orientation of E7 and E8 (192 quivers); `ar` runs `silt ar --two-term
--format json`, which checks the knitted AR quiver's mesh additivity and
its copy of the quiver among the shifted projectives, on every
orientation of E7 and E8 (192 quivers); `reps` compares
`silt.modules.build_representation`, which climbs from cached Coxeter
images, with the step-by-step reflection reference
(`tests/reflection_reference.py`) on every root of every orientation of
E7 and E8 (192 quivers).  With no argument all five run, in that order.
Each command run calls silt.cli.main in this process, writes its output
to a scratch file, and must exit 0: an internal check that fails, such
as an RREF that is not integral, exits 1 and names the quiver.  Every
silt cache is cleared after each quiver, so memory stays that of one
run.  Prints one line per diagram with its wall time, and exits 1 if
any run did not exit 0 or any representation differs.
"""

import sys
import tempfile
import time
from pathlib import Path

import reflection_reference
import silt.cli
from dynkin_orientations import TYPES_WITH_E6, orientations
from silt.modules import build_representation, indecomposables

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


def main(argv) -> int:
    names = argv or list(SWEEPS)
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            failed += sweep(name, *SWEEPS[name], Path(tmp))
    for f in failed:
        print(f"FAILED {f}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
