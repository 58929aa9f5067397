"""Ext and projective dimensions read off End(T)'s presentation.

classify takes Ext^1 from the Gabriel arrows, Ext^2 from the minimal
relations and Ext^3 from the integer inverse Cartan matrix (`homology`).
The reference is the resolution route: minimal projective resolutions of
the simples (`ext_matrix`, `projective_dimension_of_simples`), which also
checks the premise gl.dim <= 3 that the formula cannot see.
"""

import json
from importlib.resources import files

import pytest

import silt.classify as classify_mod
import silt.modules as modules_mod
from dynkin_orientations import E6
from silt.classify import (
    _simple_resolutions,
    check_homology,
    homology,
)
from silt.cli import FIXTURE_NAMES, main
from silt.endo import endomorphism_algebra
from silt.modules import path_algebra, projectives
from silt.quivers import parse_quiver
from silt.silting import silting_alg2, silting_label


def _fixture(name):
    return parse_quiver(
        files("silt").joinpath("fixtures", f"{name}.quiver").read_text()
    )


def _check_against_resolutions(q, objs):
    """Assert that the oracle check_homology passes on every End(T): the
    formula equals the resolution route, with gl.dim <= 3; return how many
    algebras were compared.  The resolutions run over the P(v) derived
    from the printed relations alone, which must have End(T)'s Cartan
    rows."""
    for t in objs:
        b = endomorphism_algebra(q, t)
        _, reps = projectives(b)
        assert tuple(p.dims for p in reps) == b.cartan, silting_label(q, t)
        check_homology(b)
    return len(objs)


def test_formula_matches_resolutions_on_every_fixture_object():
    total = 0
    for name in FIXTURE_NAMES:
        q = _fixture(name)
        total += _check_against_resolutions(q, silting_alg2(q))
    assert total == 443


def test_formula_matches_resolutions_on_every_tenth_e6_object():
    assert _check_against_resolutions(E6, silting_alg2(E6)[::10]) == 84


def test_ext3_occurs_exactly_where_gl_dim_is_three():
    q = _fixture("d5")
    seen = set()
    for t in silting_alg2(q):
        h = homology(endomorphism_algebra(q, t))
        has_ext3 = any(map(any, h.ext3))
        assert has_ext3 == (max(pd for _, pd in h.pds) == 3)
        seen.add(has_ext3)
    assert seen == {False, True}


def _two_vertex_algebra():
    q = parse_quiver("vertices 1 2\narrow a:1->2\n")
    return endomorphism_algebra(q, silting_alg2(q)[0])


def test_negative_ext3_raises(monkeypatch):
    # C^-1 = ((2, -1), (-1, 1)) puts 1 - 2 = -1 at Ext^3(S_1, S_1)
    monkeypatch.setattr(
        classify_mod, "cartan_data", lambda b: ((1, 1), (1, 2))
    )
    with pytest.raises(RuntimeError, match=r"Ext\^3\(S_1, S_1\) = -1"):
        homology(_two_vertex_algebra())


def test_non_integral_inverse_cartan_matrix_raises(monkeypatch):
    monkeypatch.setattr(
        classify_mod, "cartan_data", lambda b: ((2, 1), (0, 1))
    )
    with pytest.raises(RuntimeError, match="inverse Cartan matrix"):
        homology(_two_vertex_algebra())


def test_check_homology_rejects_a_wrong_formula(monkeypatch):
    b = _two_vertex_algebra()
    check_homology(b)
    h = homology(b)
    wrong = classify_mod.Homology(h.ext1, h.ext2, h.ext3, ((1, 3), (2, 0)))
    monkeypatch.setattr(classify_mod, "homology", lambda b: wrong)
    with pytest.raises(RuntimeError, match="pds from the presentation"):
        check_homology(b)


def test_check_homology_rejects_gl_dim_above_three(monkeypatch):
    monkeypatch.setattr(classify_mod, "global_dimension", lambda b: 4)
    with pytest.raises(RuntimeError, match="global dimension 4"):
        check_homology(_two_vertex_algebra())


# D5 relabelled, so that no End(T) and no record of it is cached yet
D5_RELABELLED = (
    "vertices 11 12 13 14 15\n"
    "arrows a:11->13 b:12->13 c:13->14 d:14->15\n"
)


def test_cold_classify_resolves_no_simple(tmp_path, capsys, monkeypatch):
    # nor does it build the projectives of an End(T): it reads only their
    # arrows, relations and Cartan rows.  The enumeration still resolves
    # modules over KQ, through KQ's P(v).
    calls = []
    real = modules_mod.projectives

    def counting(b):
        calls.append(b)
        return real(b)

    monkeypatch.setattr(modules_mod, "projectives", counting)
    path = tmp_path / "d5_relabelled.quiver"
    path.write_text(D5_RELABELLED)
    _simple_resolutions.cache_clear()
    assert main(["classify", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 182
    assert _simple_resolutions.cache_info().misses == 0
    assert set(calls) <= {path_algebra(parse_quiver(D5_RELABELLED))}
    # the resolution route stays reachable, as the oracle
    assert main(["classify", str(path), "--oracle", "--format", "csv"]) == 0
    assert _simple_resolutions.cache_info().misses > 0
    assert len(set(calls)) > 1
