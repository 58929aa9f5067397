"""The benchmark's span and cache tables still name live code.

perfbench/trace_child.py replaces functions by name and reads the
cache_info of others; a name that no longer resolves is only reported on
stderr and its metrics read 0.  This test loads the script by path and
checks every endo and classify entry, so that a refactor cannot drop a
span without a failing test.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "perfbench" / "trace_child.py"
MODULES = ("silt.endo", "silt.classify")


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
