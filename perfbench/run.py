"""Benchmark for the silt CLI: cold processes, exact outputs, per-layer trace.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a fixed list of ``python -m silt.cli`` invocations.  One
pass runs them one at a time, each as a fresh process, from this single
driver process: a closed loop with one client and the default ``--jobs 1``.
A run repeats whole passes until S seconds have elapsed, always completing
at least one.  silt is deterministic and takes no random input, so the
invocations are fixed; the seed shuffles their order within each pass and
sets the children's PYTHONHASHSEED, which the output must not depend on.

Every invocation is checked against the stdout sha256 and the counts frozen
in ``perfbench/expected.json``; it fails on a non-zero exit, a different
digest or a different count.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` makes the same
untraced pass(es), then one traced pass in which every invocation runs
through ``perfbench/trace_child.py``, and reports the per-layer metrics.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Per-pass figures, raw spans and
the per-invocation trace reports are written under ``.bench_build/perfbench``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_build" / "perfbench"

E7 = "perfbench/e7.quiver"
SMALL_FIXTURES = (
    "a1",
    "a2",
    "a3_linear",
    "a3_alt",
    "a4_linear",
    "a4_second",
    "a4_third",
    "d4",
    "d4_second",
)
D5 = ("classify", "d5", "--format", "json")

# Workload -> (quivers checked at set-up, silt invocations of one pass).
WORKLOADS = {
    "classify-d5": (("d5",), (D5,)),
    "oracle-e7": (
        (E7,),
        (
            ("silting", E7, "--oracle", "--format", "json"),
            ("silting", E7, "--tilting-only", "--oracle", "--format", "json"),
        ),
    ),
    "classify-small": (
        SMALL_FIXTURES,
        tuple(("classify", f, "--format", "json") for f in SMALL_FIXTURES),
    ),
}

# Set-up processes run before and after the passes, so that their median
# spans the run rather than one moment of it.
SETUP_REPEATS = 5
# No pass, and no extra traced command, is started unless it can end by
# this many seconds into the run: a run must exit within 180 s.
HARD_LIMIT_S = 170.0

# A fresh interpreter that imports the CLI (and with it every silt module),
# then parses and Dynkin-checks the workload's quivers, without enumerating.
SETUP_CODE = """
import sys
from importlib.resources import files
import silt.cli
from silt.quivers import dynkin_type, parse_quiver
for spec in sys.argv[1:]:
    if spec.endswith(".quiver"):
        text = open(spec, encoding="utf-8").read()
    else:
        text = files("silt").joinpath("fixtures", spec + ".quiver").read_text(encoding="utf-8")
    dynkin_type(parse_quiver(text))
"""

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "objects_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Span metrics: span name (see TRACED in trace_child.py) and the aggregates
# reported for it.  ".s" is inclusive time, ".self_s" excludes child spans.
LINALG_FUNCS = (
    "rref",
    "solve",
    "coords_in_rows",
    "row_space_rref",
    "reduce_by_rref",
    "kernel_basis",
    "inverse",
    "charpoly",
)
SPAN_METRICS = (
    *((f"linalg.{f}", ("calls", "s")) for f in LINALG_FUNCS),
    ("complexes.hom0", ("calls", "self_s")),
    ("complexes.hom1", ("calls", "self_s")),
    ("complexes.compose", ("calls", "self_s")),
    ("modules.ext1_dim", ("calls", "self_s")),
    ("modules.tau_inverse", ("calls", "self_s")),
    ("modules.minimal_cover", ("calls", "self_s")),
    ("modules.kernel_subrep", ("calls", "self_s")),
    ("silting.silting_alg2", ("self_s",)),
    ("silting.tilting_modules_alg1", ("self_s",)),
    ("silting.silting_bruteforce", ("self_s",)),
    ("silting.tilting_modules_bruteforce", ("self_s",)),
    ("endo.endomorphism_algebra", ("calls", "self_s")),
    ("endo.cartan_data", ("self_s",)),
    ("endo.blocks", ("self_s",)),
    ("classify.resolutions", ("self_s",)),
    ("classify.tilted_type", ("self_s",)),
    ("classify.fingerprint", ("calls", "self_s")),
    ("classify.dedupe", ("self_s",)),
    ("cli", ("self_s",)),
)
FIELD = {"calls": 0, "s": 1, "self_s": 2}
# Upper edges of the row and column buckets of the rref shape histogram.
SHAPE_EDGES = ("1", "4", "16", "64", "more")
CACHES = (
    "hom_class_basis",
    "identity_class",
    "resolve_dim",
    "endomorphism_algebra",
    "classify",
    "_simple_resolutions",
    "ext1_dim",
    "hom_dim",
    "tau_inverse",
    "build_representation",
    "minimal_presentation",
)
OTHER_UNITS = {
    "linalg.nonint_share": "ratio",
    "linalg.max_abs_entry": "magnitude",
    "silting.objects": "count",
    "endo.dim_b.max": "dim",
    "endo.dim_b.sum_sq": "count",
    "classify.fingerprint.perms": "count",
    "classify.ops_memo.size": "count",
    "cli.jobs2_speedup": "ratio",
    "trace.overhead_ratio": "ratio",
}


def per_layer_units() -> dict:
    """Every per-layer metric with its unit."""
    u = {}
    for span, fields in SPAN_METRICS:
        for f in fields:
            u[f"{span}.{f}"] = "count" if f == "calls" else "s"
    for r in SHAPE_EDGES:
        for c in SHAPE_EDGES:
            u[f"linalg.shape.{r}x{c}"] = "count"
    for c in CACHES:
        for k in ("hits", "misses", "currsize"):
            u[f"cache.{c.lstrip('_')}.{k}"] = "count"
    u.update(OTHER_UNITS)
    return u


class BenchError(Exception):
    """The checkout cannot be benchmarked."""


def check_output(args, res: dict, expected: dict) -> list:
    """Reasons the invocation's result is wrong; empty when it is right."""
    key = " ".join(args)
    exp = expected.get(key)
    if exp is None:
        return [f"no frozen expectation for {key!r}"]
    if res["code"] != 0:
        return [f"exit code {res['code']}: {res['stderr'].decode(errors='replace').strip()}"]
    bad = []
    digest = hashlib.sha256(res["stdout"]).hexdigest()
    if digest != exp["sha256"]:
        bad.append(f"stdout sha256 {digest} != {exp['sha256']}")
    try:
        payload = json.loads(res["stdout"])
    except ValueError:
        return bad + ["stdout is not JSON"]
    for k, v in exp["counts"].items():
        if payload.get(k) != v:
            bad.append(f"{k} = {payload.get(k)!r}, expected {v!r}")
    return bad


def shape_bucket(n: int) -> str:
    for edge in SHAPE_EDGES[:-1]:
        if n <= int(edge):
            return edge
    return SHAPE_EDGES[-1]


class Run:
    """One benchmark run: child processes, their deadline and the tally."""

    def __init__(self, seed: int, start: float):
        if not (ROOT / "src" / "silt" / "cli.py").is_file():
            raise BenchError(f"no silt sources under {ROOT / 'src'}")
        with open(BENCH / "expected.json", encoding="utf-8") as f:
            self.expected = json.load(f)["invocations"]
        self.rng = random.Random(seed)
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.env["PYTHONHASHSEED"] = str(seed % 2**32)
        self.deadline = start + HARD_LIMIT_S
        self.attempted = 0
        self.failed = 0
        OUT.mkdir(parents=True, exist_ok=True)

    def child(self, cmd) -> dict:
        """Run one process to completion: wall, rusage, stdout, exit code."""
        with open(OUT / "stderr.txt", "wb") as err:
            t0 = time.perf_counter()
            p = subprocess.Popen(
                cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=err
            )
            timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), p.kill)
            timer.start()
            try:
                out = p.stdout.read()
                p.stdout.close()
                _, status, ru = os.wait4(p.pid, 0)
                wall = time.perf_counter() - t0
            finally:
                timer.cancel()
                timer.join()
            p.returncode = os.waitstatus_to_exitcode(status)
        return {
            "wall_s": wall,
            "cpu_s": ru.ru_utime + ru.ru_stime,
            "rss_mb": ru.ru_maxrss / 1024.0,
            "code": p.returncode,
            "stdout": out,
            "stderr": (OUT / "stderr.txt").read_bytes()[-2000:],
        }

    def silt(self, args) -> dict:
        return self.child([sys.executable, "-m", "silt.cli", *args])

    def record(self, args, res: dict, what: str) -> bool:
        self.attempted += 1
        bad = check_output(args, res, self.expected)
        if bad:
            self.failed += 1
            print(f"FAIL {what} silt {' '.join(args)}: {'; '.join(bad)}", flush=True)
        return not bad

    def fits(self, seconds: float) -> bool:
        return time.monotonic() + seconds <= self.deadline

    def setup_walls(self, quivers) -> list:
        """Wall times of fresh set-up processes."""
        walls = []
        for _ in range(SETUP_REPEATS):
            res = self.child([sys.executable, "-c", SETUP_CODE, *quivers])
            if res["code"] != 0:
                raise BenchError(
                    "set-up probe failed: " + res["stderr"].decode(errors="replace")
                )
            walls.append(res["wall_s"])
        return walls

    def passes(self, invocations, seconds: float, start: float) -> list:
        """Untraced passes until `seconds` have elapsed (at least one)."""
        out = []
        while True:
            order = list(invocations)
            self.rng.shuffle(order)
            wall = cpu = rss = 0.0
            for args in order:
                res = self.silt(args)
                self.record(args, res, "untraced")
                wall += res["wall_s"]
                cpu += res["cpu_s"]
                rss = max(rss, res["rss_mb"])
            out.append({"order": order, "wall_s": wall, "cpu_s": cpu, "rss_mb": rss})
            if time.monotonic() - start >= seconds or not self.fits(wall):
                return out

    def traced_pass(self, workload: str, order) -> tuple:
        """One traced pass: the child trace reports and the traced wall."""
        reports = []
        wall = 0.0
        for i, args in enumerate(order):
            rep_path = OUT / f"trace-{workload}-{i}.json"
            rep_path.unlink(missing_ok=True)
            res = self.child(
                [
                    sys.executable,
                    str(BENCH / "trace_child.py"),
                    str(rep_path),
                    str(OUT / f"spans-{workload}-{i}.tsv.gz"),
                    "--",
                    *args,
                ]
            )
            if not self.record(args, res, "traced") or not rep_path.is_file():
                continue
            with open(rep_path, encoding="utf-8") as f:
                rep = json.load(f)
            reports.append(rep)
            wall += res["wall_s"] - rep["write_s"]
        return reports, wall

    def jobs2_speedup(self, jobs1_wall: float) -> float:
        """classify d5 wall at --jobs 1 over --jobs 2; 0 when not measured."""
        if b"--jobs" not in self.silt(("classify", "--help"))["stdout"]:
            print("cli.jobs2_speedup: classify has no --jobs flag; reported as 0 (absent)")
            return 0.0
        if not self.fits(1.25 * jobs1_wall):
            print("cli.jobs2_speedup: no time left in this run; reported as 0 (absent)")
            return 0.0
        res = self.silt(D5 + ("--jobs", "2"))
        if res["code"] == -signal.SIGKILL and not self.fits(0.0):
            print("cli.jobs2_speedup: stopped at the run's time limit; reported as 0 (absent)")
            return 0.0
        # The output must be byte-identical to the --jobs 1 output.
        if not self.record(D5, res, "--jobs 2"):
            return 0.0
        return jobs1_wall / res["wall_s"]


def end_to_end(passes, objects: int, setup_s: float) -> dict:
    wall = statistics.median(p["wall_s"] for p in passes)
    return {
        "wall_s": wall,
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "objects_per_s": objects / wall,
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "setup_s": setup_s,
    }


def per_layer(reports, traced_wall: float, untraced_wall: float, speedup: float) -> dict:
    """Per-layer metrics summed over the traced invocations of a workload.

    A metric whose layer the workload never reaches reads 0, as do
    ``classify.ops_memo.size`` once the memo is gone and
    ``cli.jobs2_speedup`` when it was not measured.
    """
    m = dict.fromkeys(per_layer_units(), 0.0)
    for span, fields in SPAN_METRICS:
        for f in fields:
            m[f"{span}.{f}"] = sum(
                r["agg"][span][FIELD[f]] for r in reports if span in r["agg"]
            )
    for r in reports:
        for shape, n in r["shapes"]["linalg.rref"].items():
            rows, cols = (int(x) for x in shape.split("x"))
            m[f"linalg.shape.{shape_bucket(rows)}x{shape_bucket(cols)}"] += n
        for c, info in r["caches"].items():
            for k in ("hits", "misses", "currsize"):
                m[f"cache.{c.lstrip('_')}.{k}"] += info[k]
    entries = sum(r["rref_entries"] for r in reports)
    nonint = sum(r["rref_nonint"] for r in reports)
    m["linalg.nonint_share"] = nonint / entries if entries else 0.0
    m["linalg.max_abs_entry"] = max((r["rref_max_abs"] for r in reports), default=0.0)
    m["silting.objects"] = sum(r["objects"] for r in reports)
    m["endo.dim_b.max"] = max((r["dim_b_max"] for r in reports), default=0)
    m["endo.dim_b.sum_sq"] = sum(r["dim_b_sum_sq"] for r in reports)
    m["classify.fingerprint.perms"] = sum(r["fingerprint_perms"] for r in reports)
    m["classify.ops_memo.size"] = sum(r["ops_memo_size"] or 0 for r in reports)
    m["cli.jobs2_speedup"] = speedup
    m["trace.overhead_ratio"] = traced_wall / untraced_wall
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    start = time.monotonic()
    quivers, invocations = WORKLOADS[args.workload]
    try:
        run = Run(args.seed, start)
        objects = sum(run.expected[" ".join(a)]["counts"]["count"] for a in invocations)
        setup = [] if args.trace else run.setup_walls(quivers)
        passes = run.passes(invocations, args.seconds, start)
        if not args.trace:
            setup += run.setup_walls(quivers)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: cannot run: {e!r}", file=sys.stderr)
        return 2
    details = {"workload": args.workload, "seed": args.seed, "passes": passes}
    if args.trace:
        untraced_wall = statistics.median(p["wall_s"] for p in passes)
        reports, traced_wall = run.traced_pass(args.workload, passes[-1]["order"])
        speedup = run.jobs2_speedup(untraced_wall) if invocations == (D5,) else 0.0
        metrics = per_layer(reports, traced_wall, untraced_wall, speedup)
        units = per_layer_units()
        details.update(traced_wall_s=traced_wall, reports=reports)
    else:
        metrics = end_to_end(passes, objects, statistics.median(setup))
        units = END_TO_END_UNITS
    details["metrics"] = metrics
    with open(OUT / f"run-{args.workload}-trace{args.trace}.json", "w", encoding="utf-8") as f:
        json.dump(details, f, indent=1, sort_keys=True)
    for k in units:
        print(f"{k:40s} {metrics[k]:.6g} {units[k]}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
