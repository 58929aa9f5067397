"""Every immutable record in silt, one sample each: fields that cannot be
assigned or deleted, slots and no per-instance dict, no hand-written
__init__, equality only within one type, the hash of the field tuple
(stored on first use) and a pickle without that stored hash."""

import ast
import inspect
import pickle
from importlib.resources import files

import pytest

import silt.classify
import silt.complexes
import silt.modules
import silt.quivers
import silt.silting
from silt.classify import classify, homology
from silt.complexes import hom_class_basis, resolve_dim
from silt.modules import ar_quiver_mod, build_representation
from silt.quivers import PathVector, Record, parse_quiver
from silt.silting import silting_alg2

A3 = parse_quiver(files("silt").joinpath("fixtures", "a3_linear.quiver").read_text())


def _samples():
    """One instance of each record class, keyed by the class; the End(T)
    picked has a relation, so its PathVector is a real one."""
    records = [classify(A3, t) for t in silting_alg2(A3)]
    r = next(r for r in records if r.algebra.relations)
    x = resolve_dim(A3, (1, 1, 1))
    out = [
        A3.arrows[0],
        A3,
        r.block_verdicts[0].dynkin,
        r.algebra.relations[0],
        build_representation(A3, (1, 1, 0)),
        r.algebra,
        x,
        ar_quiver_mod(A3),
        hom_class_basis(x, x, 0),
        homology(r.algebra),
        r.block_verdicts[0],
        r,
    ]
    return {type(s): s for s in out}


SAMPLES = _samples()


def _fields(s):
    return tuple(getattr(s, f) for f in type(s)._fields)


MODULES = (silt.quivers, silt.modules, silt.complexes, silt.silting, silt.classify)


def test_every_record_class_has_a_sample():
    defined = {
        c
        for m in MODULES
        for c in vars(m).values()
        if isinstance(c, type) and issubclass(c, Record) and c is not Record
    }
    assert len(defined) == 12
    assert set(SAMPLES) == defined


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_a_record_is_frozen(cls):
    s = SAMPLES[cls]
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(s, name, None)
        with pytest.raises(AttributeError):
            delattr(s, name)
    with pytest.raises(AttributeError):
        s.extra = 1


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_a_record_has_slots_and_no_dict(cls):
    s = SAMPLES[cls]
    assert not hasattr(s, "__dict__")
    assert cls.__slots__ == cls._fields and Record.__slots__ == ("_hash",)


def test_no_record_class_writes_its_own_init():
    # each record's __init__ is the one the Record metaclass writes
    found = [
        f"{m.__name__}.{node.name}"
        for m in MODULES
        for node in ast.walk(ast.parse(inspect.getsource(m)))
        if isinstance(node, ast.ClassDef)
        and any(getattr(b, "id", None) == "Record" for b in node.bases)
        and any(getattr(f, "name", None) == "__init__" for f in node.body)
    ]
    assert found == []


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_a_record_equals_only_its_own_type(cls):
    s = SAMPLES[cls]
    copy = cls(*_fields(s))
    assert copy == s and copy is not s and not copy != s
    # the same field values under another type, or as a bare tuple, differ
    other = type("Other", (Record,), {"__annotations__": dict.fromkeys(cls._fields)})
    twin = other(*_fields(s))
    assert twin._fields == cls._fields and twin != s and s != twin
    assert s != _fields(s)


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_a_record_hash_is_its_field_tuple_hash(cls):
    s = SAMPLES[cls]
    copy = cls(*_fields(s))
    assert copy._hash is None
    assert hash(copy) == hash(s) == hash(_fields(s))
    assert copy._hash == hash(_fields(s))  # stored on first use


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_a_record_pickles_without_its_stored_hash(cls):
    s = SAMPLES[cls]
    hash(s)
    back = pickle.loads(pickle.dumps(s))
    assert s._hash is not None and back._hash is None
    assert back == s and type(back) is cls
    assert hash(back) == hash(s)


def test_a_record_takes_its_fields_by_keyword_and_reprs_them():
    assert silt.quivers.Arrow(id="a", source=1, target=2) == A3.arrows[0]
    assert repr(A3.arrows[0]) == "Arrow(id='a', source=1, target=2)"
    assert PathVector.make(1, 2, {("a",): 0}).terms == ()


def test_a_class_level_value_on_a_field_is_refused():
    # a field has no default: its class-level value conflicts with its slot
    with pytest.raises(ValueError, match="'b' in __slots__ conflicts"):
        type("Pair", (Record,), {"__annotations__": {"a": int, "b": int}, "b": 5})
    pair = type("Pair", (Record,), {"__annotations__": {"a": int, "b": int}})
    with pytest.raises(TypeError):
        pair(1)
