"""The benchmark's span and cache tables still name live code.

perfbench/trace_child.py replaces functions by name and reads the
cache_info of others; a name that no longer resolves is only reported on
stderr and its metrics read 0.  This test loads the script by path and
checks every silting, endo and classify entry, so that a refactor cannot
drop a span without a failing test.  It also runs the script's own
wrappers over a cold classify, so that every attribute they read off a
silt object (End(T)'s dimension, the fingerprint's algebra, the Matrix
that rref and kernel_basis receive, hom_class_basis's shift k as its
third argument) must still exist, and the compose span must still see
the calls End(T) assembly makes.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from silt.classify import classify
from silt.quivers import parse_quiver
from silt.silting import silting_alg2

SCRIPT = Path(__file__).resolve().parents[1] / "perfbench" / "trace_child.py"
MODULES = ("silt.silting", "silt.endo", "silt.classify")


def _load_trace_child():
    spec = importlib.util.spec_from_file_location("trace_child", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


TRACE_CHILD = _load_trace_child()
TRACED = [e for e in TRACE_CHILD.TRACED if e[1] in MODULES]
CACHED = [e for e in TRACE_CHILD.CACHED if e[0] in MODULES]


def test_the_tables_name_endo_and_classify():
    spans = {name for name, _, _ in TRACED}
    assert {"endo.blocks", "endo.cartan_data", "classify.resolutions"} <= spans
    assert {"classify.tilted_type", "classify.fingerprint"} <= spans
    assert ("silt.classify", "_simple_resolutions") in CACHED
    assert {
        "silting.silting_alg2",
        "silting.tilting_modules_alg1",
        "silting.silting_bruteforce",
        "silting.tilting_modules_bruteforce",
    } <= spans


@pytest.mark.parametrize("name, modname, attr", TRACED, ids=lambda x: x)
def test_every_traced_entry_resolves(name, modname, attr):
    owner = importlib.import_module(modname)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    assert callable(owner), f"{modname}.{attr} ({name}) not found"


@pytest.mark.parametrize("modname, attr", CACHED, ids=lambda x: x)
def test_every_cached_entry_has_cache_info(modname, attr):
    fn = getattr(importlib.import_module(modname), attr, None)
    assert callable(getattr(fn, "cache_info", None)), f"{modname}.{attr}"


# A3 relabelled, so that no End(T), record or Hom space of it is cached
A3_COLD = parse_quiver("vertices 31 32 33\narrows a:31->32 b:32->33\n")
READERS = (
    "complexes.hom",
    "complexes.compose",
    "endo.endomorphism_algebra",
    "classify.fingerprint",
    "linalg.rref",
    "linalg.kernel_basis",
)


def test_the_wrappers_read_live_attributes(monkeypatch):
    tracer = TRACE_CHILD.Tracer()
    tracer.open("cli")
    silt_modules = [
        m for n, m in sys.modules.items() if n.startswith("silt.") and m
    ]
    for name, modname, attr in TRACE_CHILD.TRACED:
        if name not in READERS:
            continue
        orig = getattr(importlib.import_module(modname), attr)
        wrapped = TRACE_CHILD._wrap(tracer, name, orig)
        for m in silt_modules:
            for key, val in list(vars(m).items()):
                if val is orig:
                    monkeypatch.setattr(m, key, wrapped)
    records = [classify(A3_COLD, t) for t in silting_alg2(A3_COLD)]
    assert sorted(tracer.dims.values()) == sorted(
        r.algebra.dimension for r in records
    )
    assert all(isinstance(d, int) for d in tracer.dims.values())
    assert tracer.perms == 6 * len(records)
    assert tracer.shapes["linalg.rref"] and tracer.entries > 0
    assert tracer.shapes["linalg.kernel_basis"]
    # hom_class_basis reports by its shift k, and End(T) composes classes
    assert tracer.agg["complexes.hom0"][0] > 0
    assert tracer.agg["complexes.compose"][0] > 0
