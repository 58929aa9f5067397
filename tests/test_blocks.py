"""classify's one-pass block verdicts against the rebuilt block algebras.

classify reads the pds of End(T)'s simples once off its presentation
and reads each block off them and off End(T)'s Cartan rows.  The reference rebuilds every
block as a standalone algebra (tests/block_reference.py) and takes its
global dimension and tilted type from the block alone.
"""

from importlib.resources import files

import pytest

from block_reference import block_algebras
from dynkin_orientations import E6
from silt.classify import classify, global_dimension, tilted_type
from silt.cli import FIXTURE_NAMES
from silt.endo import cartan_data
from silt.quivers import parse_quiver
from silt.silting import silting_alg2, silting_label

DISCONNECTED = parse_quiver("vertices 1 2 3\narrow a:1->2\n")


def _fixture(name):
    return parse_quiver(
        files("silt").joinpath("fixtures", f"{name}.quiver").read_text()
    )


def _check_against_reference(q, objs):
    """Assert every verdict equals the reference; count the records with
    more than one block."""
    disconnected = 0
    for t in objs:
        rec, label = classify(q, t), silting_label(q, t)
        ref = block_algebras(rec.algebra)
        assert len(rec.block_verdicts) == len(ref), label
        disconnected += len(ref) > 1
        for bv, blk in zip(rec.block_verdicts, ref):
            g = global_dimension(blk)
            assert bv.vertices == blk.gabriel.vertices, label
            assert bv.gl_dim == g, label
            if g <= 2:
                assert bv.verdict == "tilted", label
                assert bv.dynkin == tilted_type(cartan_data(blk)), label
            else:
                assert bv.verdict == "strictly_shod", label
                assert bv.dynkin is None, label
    return disconnected


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_block_verdicts_match_reference_on_every_fixture_algebra(name):
    q = _fixture(name)
    disconnected = _check_against_reference(q, silting_alg2(q))
    if name == "d5":
        assert disconnected == 37


def test_block_verdicts_match_reference_on_a_disconnected_quiver():
    objs = silting_alg2(DISCONNECTED)
    # every End(T) over A2 + A1 splits into at least two blocks
    assert _check_against_reference(DISCONNECTED, objs) == len(objs) > 0


def test_block_verdicts_match_reference_on_every_twentieth_e6_object():
    objs = silting_alg2(E6)
    assert len(objs) == 833
    assert _check_against_reference(E6, objs[::20]) > 0
