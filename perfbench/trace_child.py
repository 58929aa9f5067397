"""Run one silt command in this process with timing spans around each layer.

Usage: python3 perfbench/trace_child.py REPORT.json SPANS.tsv.gz -- SILT_ARGS...

The silt package must be importable (the benchmark puts the checkout's
``src`` on PYTHONPATH).  The command's output goes to this process's stdout
exactly as ``python -m silt.cli SILT_ARGS`` would write it, so the caller can
compare digests with the untraced run.

Spans are taken from outside the program: each traced public function is
replaced by a timing wrapper, rebound in the namespace of every ``silt.*``
module that holds it, so ``from .x import f`` call sites are traced too.
Every span (name, start, end, parent) is kept in memory and written to
SPANS.tsv.gz when the command ends; per-name calls, inclusive time and self
time (duration minus the time covered by child spans) are written to
REPORT.json together with the linalg size report and the cache report.
"""

from __future__ import annotations

import gzip
import importlib
import json
import math
import sys
import time
from array import array

# (span name, module, attribute); "Class.method" patches the class.  The
# three resolution entry points share one span name, and hom_class_basis
# reports as complexes.hom0 or complexes.hom1 by its shift k.
TRACED = (
    ("linalg.rref", "silt.linalg", "rref"),
    ("linalg.solve", "silt.linalg", "solve"),
    ("linalg.coords_in_rows", "silt.linalg", "coords_in_rows"),
    ("linalg.row_space_rref", "silt.linalg", "row_space_rref"),
    ("linalg.reduce_by_rref", "silt.linalg", "reduce_by_rref"),
    ("linalg.kernel_basis", "silt.linalg", "kernel_basis"),
    ("linalg.inverse", "silt.linalg", "RatMatrix.inverse"),
    ("linalg.charpoly", "silt.linalg", "RatMatrix.charpoly"),
    ("complexes.hom", "silt.complexes", "hom_class_basis"),
    ("complexes.compose", "silt.complexes", "compose"),
    ("modules.ext1_dim", "silt.modules", "ext1_dim"),
    ("modules.tau_inverse", "silt.modules", "tau_inverse"),
    ("modules.minimal_cover", "silt.modules", "minimal_cover"),
    ("modules.kernel_subrep", "silt.modules", "kernel_subrep"),
    ("silting.silting_alg2", "silt.silting", "silting_alg2"),
    ("silting.tilting_modules_alg1", "silt.silting", "tilting_modules_alg1"),
    ("silting.silting_bruteforce", "silt.silting", "silting_bruteforce"),
    ("silting.tilting_modules_bruteforce", "silt.silting", "tilting_modules_bruteforce"),
    ("endo.endomorphism_algebra", "silt.endo", "endomorphism_algebra"),
    ("endo.cartan_data", "silt.endo", "cartan_data"),
    ("endo.blocks", "silt.endo", "blocks"),
    ("classify.resolutions", "silt.classify", "projective_dimension_of_simples"),
    ("classify.resolutions", "silt.classify", "global_dimension"),
    ("classify.resolutions", "silt.classify", "ext_matrix"),
    ("classify.tilted_type", "silt.classify", "tilted_type"),
    ("classify.fingerprint", "silt.classify", "fingerprint"),
    ("classify.dedupe", "silt.classify", "dedupe"),
)

CACHED = (
    ("silt.complexes", "hom_class_basis"),
    ("silt.complexes", "identity_class"),
    ("silt.complexes", "resolve_dim"),
    ("silt.endo", "endomorphism_algebra"),
    ("silt.classify", "classify"),
    ("silt.classify", "_simple_resolutions"),
    ("silt.modules", "ext1_dim"),
    ("silt.modules", "hom_dim"),
    ("silt.modules", "tau_inverse"),
    ("silt.modules", "build_representation"),
    ("silt.modules", "minimal_presentation"),
)

# Elimination shapes are recorded where each of these enters linalg.
SHAPED = ("linalg.rref", "linalg.solve", "linalg.kernel_basis", "linalg.coords_in_rows")


class Tracer:
    """In-memory span recorder with per-name aggregates."""

    def __init__(self):
        self.names = ["cli"]
        self.name_ix = {"cli": 0}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []  # open span indices
        self.child = []  # time covered by children of each open span
        self.agg = {}  # name -> [calls, inclusive s, self s]
        self.shapes = {n: {} for n in SHAPED}
        self.entries = 0
        self.nonint = 0
        self.max_abs = 0
        self.dims = {}  # endomorphism_algebra arguments -> dimension
        self.perms = 0
        self.objects = 0

    def open(self, name: str) -> int:
        ix = self.name_ix.get(name)
        if ix is None:
            ix = self.name_ix[name] = len(self.names)
            self.names.append(name)
        span = len(self.span_name)
        self.span_name.append(ix)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.stack.append(span)
        self.child.append(0.0)
        return span

    def close(self, span: int, name: str, t0: float, t1: float) -> None:
        self.stack.pop()
        covered = self.child.pop()
        d = t1 - t0
        if self.child:
            self.child[-1] += d
        a = self.agg.get(name)
        if a is None:
            a = self.agg[name] = [0, 0.0, 0.0]
        a[0] += 1
        a[1] += d
        a[2] += d - covered
        self.span_start[span] = t0
        self.span_end[span] = t1

    def top_level(self) -> bool:
        """True when the innermost open span is the cli root."""
        return len(self.stack) == 1

    def note_shape(self, name: str, rows: int, cols: int) -> None:
        h = self.shapes[name]
        key = f"{rows}x{cols}"
        h[key] = h.get(key, 0) + 1

    def note_entries(self, entries) -> None:
        """Size report over rref inputs: every elimination reaches rref."""
        self.entries += len(entries)
        mx = self.max_abs
        for e in entries:
            if e.denominator != 1:
                self.nonint += 1
                if abs(e) > mx:
                    mx = abs(e)
            else:
                n = e.numerator
                if n > mx:
                    mx = n
                elif -n > mx:
                    mx = -n
        self.max_abs = mx


def _shape(name: str, args):
    if name == "linalg.coords_in_rows":
        # coords_in_rows(v, rows) solves a len(v) x len(rows) system.
        return len(args[0]), len(args[1])
    return args[0].rows, args[0].cols


def _wrap(tracer: Tracer, name: str, fn):
    clock = time.perf_counter
    shaped = name in SHAPED
    is_rref = name == "linalg.rref"
    is_hom = name == "complexes.hom"
    is_endo = name == "endo.endomorphism_algebra"
    is_fp = name == "classify.fingerprint"
    counts_objects = name in ("silting.silting_alg2", "silting.tilting_modules_alg1")

    def traced(*args, **kwargs):
        if is_hom:
            k = args[2] if len(args) > 2 else kwargs["k"]
            span_name = f"complexes.hom{k}"
        else:
            span_name = name
        if shaped:
            # Bookkeeping time counts as covered, so that it is not charged
            # to the caller's self time.
            h0 = clock()
            tracer.note_shape(name, *_shape(name, args))
            if is_rref:
                tracer.note_entries(args[0].entries)
            tracer.child[-1] += clock() - h0
        if is_fp:
            tracer.perms += math.factorial(len(args[0].gabriel.vertices))
        top = counts_objects and tracer.top_level()
        span = tracer.open(span_name)
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span, span_name, t0, clock())
        if is_endo:
            tracer.dims[args] = result.dimension
        if top:
            tracer.objects += len(result)
        return result

    return traced


def install(tracer: Tracer) -> None:
    """Replace every traced function by its wrapper wherever silt binds it."""
    import silt.cli  # noqa: F401  (imports every silt module)

    silt_modules = [
        m for n, m in sorted(sys.modules.items())
        if (n == "silt" or n.startswith("silt.")) and m is not None
    ]
    for name, modname, attr in TRACED:
        owner = importlib.import_module(modname)
        path = attr.split(".")
        for part in path[:-1]:
            owner = getattr(owner, part, None)
        orig = getattr(owner, path[-1], None)
        if orig is None:
            print(f"trace_child: {modname}.{attr} not found; {name} not traced", file=sys.stderr)
            continue
        wrapped = _wrap(tracer, name, orig)
        if len(path) > 1:
            setattr(owner, path[-1], wrapped)
            continue
        for m in silt_modules:
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, wrapped)


def cache_report(originals) -> dict:
    """hits, misses and currsize of every cache that still exists."""
    out = {}
    for (_, attr), fn in originals.items():
        info = getattr(fn, "cache_info", None)
        if info is not None:
            out[attr] = info()._asdict()
    return out


def write_spans(tracer: Tracer, path: str, t0: float) -> None:
    names = tracer.names
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
        f.write("span\tname\tparent\tstart_s\tend_s\n")
        for i in range(len(tracer.span_name)):
            f.write(
                f"{i}\t{names[tracer.span_name[i]]}\t{tracer.span_parent[i]}\t"
                f"{tracer.span_start[i] - t0:.7f}\t{tracer.span_end[i] - t0:.7f}\n"
            )


def main(argv) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    report_path, spans_path, silt_args = argv[0], argv[1], argv[3:]

    import silt.cli

    originals = {}
    for modname, attr in CACHED:
        fn = getattr(importlib.import_module(modname), attr, None)
        if fn is not None:
            originals[(modname, attr)] = fn
    tracer = Tracer()
    install(tracer)

    root = tracer.open("cli")
    t0 = time.perf_counter()
    try:
        code = silt.cli.main(silt_args)
    finally:
        t1 = time.perf_counter()
        tracer.close(root, "cli", t0, t1)
        sys.stdout.flush()

    write_spans(tracer, spans_path, t0)
    ops_memo = getattr(sys.modules["silt.classify"], "_OPS_MEMO", None)
    dims = list(tracer.dims.values())
    report = {
        "exit_code": code,
        "main_s": t1 - t0,
        "spans": len(tracer.span_name),
        "agg": tracer.agg,
        "shapes": tracer.shapes,
        "rref_entries": tracer.entries,
        "rref_nonint": tracer.nonint,
        "rref_max_abs": float(tracer.max_abs),
        "dim_b_max": max(dims, default=0),
        "dim_b_sum_sq": sum(d * d for d in dims),
        "fingerprint_perms": tracer.perms,
        "objects": tracer.objects,
        "caches": cache_report(originals),
        "ops_memo_size": None if ops_memo is None else len(ops_memo),
        # Time after the command returned; the caller subtracts it from the
        # traced wall time.
        "write_s": time.perf_counter() - t1,
    }
    with open(report_path, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
