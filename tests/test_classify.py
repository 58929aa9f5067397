"""Oracle tests for homological classification of silted algebras."""

import json
from collections import Counter
from importlib.resources import files

import pytest

from quiver_isomorphism import quivers_isomorphic
from silt.quivers import dynkin_type, opposite, parse_quiver
from silt.modules import IndId, projective_dim_vectors
from silt.silting import SiltingObject, silting_alg2
from silt.endo import blocks, endomorphism_algebra
from silt.cli import FIXTURE_NAMES
from silt.classify import (
    ClassificationRecord,
    classify,
    dedupe,
    ext_matrix,
    global_dimension,
    projective_dimension_of_simples,
    records_to_json,
    summary_csv,
    summary_text,
    tilted_type,
    _reference_polynomials,
)

A1 = parse_quiver("vertices 1\n")
A2 = parse_quiver("vertices 1 2\narrow a:1->2\n")
A3 = parse_quiver("vertices 1 2 3\narrow a:1->2\narrow b:2->3\n")
A3_ALT = parse_quiver("vertices 1 2 3\narrow a:1->3\narrow b:2->3\n")
D4 = parse_quiver("vertices 1 2 3 4\narrow a:1->3\narrow b:2->3\narrow c:3->4\n")


def _regular_object(q):
    summands = tuple(
        sorted(
            (IndId.module(d) for d in projective_dim_vectors(q)),
            key=lambda s: s.key(),
        )
    )
    return SiltingObject(q, summands)


def _shift_object(q):
    summands = tuple(
        sorted(
            (
                IndId.shifted(v, d)
                for v, d in zip(q.vertices, projective_dim_vectors(q))
            ),
            key=lambda s: s.key(),
        )
    )
    return SiltingObject(q, summands)


# --- projective dimensions and global dimension ---

def test_hereditary_pds_at_most_one():
    for q in (A2, A3, D4):
        b = endomorphism_algebra(q, _regular_object(q))
        pds = dict(projective_dimension_of_simples(b))
        assert set(pds) == set(b.gabriel.vertices)
        assert max(pds.values()) == 1
        assert global_dimension(b) == 1


def test_semisimple_case_has_global_dimension_zero():
    b = endomorphism_algebra(A1, _regular_object(A1))
    assert projective_dimension_of_simples(b) == ((1, 0),)
    assert global_dimension(b) == 0


def test_disconnected_points_have_global_dimension_zero():
    obj = SiltingObject(
        A2,
        tuple(
            sorted(
                [IndId.module((0, 1)), IndId.shifted(1, (1, 1))],
                key=lambda s: s.key(),
            )
        ),
    )
    b = endomorphism_algebra(A2, obj)
    assert global_dimension(b) == 0


def test_global_dimension_three_occurs_over_d4():
    assert any(
        global_dimension(endomorphism_algebra(D4, t)) == 3
        for t in silting_alg2(D4)
    )


# --- tilted type ---

def test_tilted_type_of_hereditary_blocks():
    b = endomorphism_algebra(A2, _regular_object(A2))
    assert tilted_type(b).label() == "A2"
    bd = endomorphism_algebra(D4, _regular_object(D4))
    assert tilted_type(bd).label() == "D4"


RANK_SIX = {
    "A6": "vertices 1 2 3 4 5 6\narrows a:1->2 b:3->2 c:3->4 d:4->5 e:6->5\n",
    "D6": "vertices 1 2 3 4 5 6\narrows a:1->3 b:2->3 c:3->4 d:4->5 e:5->6\n",
    "E6": "vertices 1 2 3 4 5 6\narrows a:1->2 b:2->3 c:4->3 d:5->4 e:6->3\n",
}


@pytest.mark.parametrize("label", sorted(RANK_SIX))
def test_tilted_type_above_rank_five(label):
    q = parse_quiver(RANK_SIX[label])
    b = endomorphism_algebra(q, _regular_object(q))
    assert tilted_type(b).label() == label


def test_reference_polynomials_cover_every_type_up_to_rank_eight():
    for n in range(1, 9):
        families = sorted(f for f, r in _reference_polynomials(n).values())
        expected = ["A"] + ["D"] * (n >= 4) + ["E"] * (6 <= n <= 8)
        assert families == expected, n
        assert all(len(poly) == n + 1 for poly in _reference_polynomials(n))


# --- classify ---

def test_classify_regular_and_shifted_agree_with_quiver_type():
    for q in (A2, A3, A3_ALT, D4):
        r1 = classify(q, _regular_object(q))
        r2 = classify(q, _shift_object(q))
        assert r1.label == dynkin_type(q).label()
        assert r2.label == r1.label
        groups = dedupe([r1, r2])
        assert len(groups) == 1


def test_classify_a3_mixed_object_is_tilted_a2_and_a1():
    obj = SiltingObject(
        A3,
        tuple(
            sorted(
                [
                    IndId.shifted(1, (1, 1, 1)),
                    IndId.module((0, 1, 0)),
                    IndId.module((0, 1, 1)),
                ],
                key=lambda s: s.key(),
            )
        ),
    )
    assert obj in silting_alg2(A3)
    rec = classify(A3, obj)
    assert rec.is_tilted
    assert rec.label == "A2⊔A1"


def test_class_counts_small_types():
    expected = {A2: 2, A3: 5, A3_ALT: 6, D4: 13}
    for q, count in expected.items():
        records = [classify(q, t) for t in silting_alg2(q)]
        assert len(dedupe(records)) == count


def test_d4_has_exactly_one_strictly_shod_class():
    records = [classify(D4, t) for t in silting_alg2(D4)]
    shod = [g for g in dedupe(records) if not g[0].is_tilted]
    assert len(shod) == 1
    rep = shod[0][0]
    assert rep.label == "strictly shod"
    assert len(rep.block_verdicts) == 1
    blk = rep.block_verdicts[0]
    assert blk.gl_dim == 3
    a4_line = parse_quiver(
        "vertices 1 2 3 4\narrow x:1->2\narrow y:2->3\narrow z:3->4\n"
    )
    assert quivers_isomorphic(blk.algebra.gabriel, a4_line)
    rels = blk.algebra.relations
    assert len(rels) == 2
    for r in rels:
        assert len(r.terms) == 1
        (arrows, coeff) = r.terms[0]
        assert len(arrows) == 2
    assert len({(r.source, r.target) for r in rels}) == 2


def test_all_verdicts_in_dichotomy():
    for q in (A3, A3_ALT):
        for t in silting_alg2(q):
            rec = classify(q, t)
            for blk in rec.block_verdicts:
                assert blk.gl_dim in (0, 1, 2, 3)
                if blk.verdict == "tilted":
                    assert blk.gl_dim <= 2
                else:
                    assert blk.gl_dim == 3


def test_arrows_match_ext1_and_relations_match_ext2():
    for t in silting_alg2(A3_ALT):
        b = endomorphism_algebra(A3_ALT, t)
        e1 = ext_matrix(b, 1)
        e2 = ext_matrix(b, 2)
        verts = b.gabriel.vertices
        for i, u in enumerate(verts):
            for j, v in enumerate(verts):
                arrows = sum(
                    1
                    for a in b.gabriel.arrows
                    if a.source == u and a.target == v
                )
                rels = sum(
                    1
                    for r in b.relations
                    if r.source == u and r.target == v
                )
                assert e1[i][j] == arrows
                assert e2[i][j] == rels


def _class_summary(q):
    groups = dedupe([classify(q, t) for t in silting_alg2(q)])
    return {
        "objects": len(silting_alg2(q)),
        "classes": len(groups),
        "strictly_shod": sum(1 for g in groups if not g[0].is_tilted),
        "families": Counter(g[0].label for g in groups),
        "class_sizes": sorted(len(g) for g in groups),
    }


def test_opposite_class_counts_agree():
    # Hom_A(-, A) maps 2-term silting over A to 2-term silting over A^op
    # with End(T*) = End(T)^op, and tilted type and shod are self-dual
    for name in FIXTURE_NAMES:
        q = parse_quiver(
            files("silt").joinpath("fixtures", f"{name}.quiver").read_text()
        )
        assert _class_summary(q) == _class_summary(opposite(q)), name


# --- reports ---

def test_records_serialize_to_json():
    records = [classify(A2, t) for t in silting_alg2(A2)]
    payload = records_to_json(records)
    assert len(payload) == 5
    text = json.dumps(payload)
    assert "modules" in text


def test_summary_outputs():
    records = [classify(A2, t) for t in silting_alg2(A2)]
    groups = dedupe(records)
    csv_text = summary_csv(groups)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "class,count,silting,quiver,classification"
    assert len(lines) == 1 + len(groups)
    txt = summary_text(groups)
    assert "A2" in txt and "A1⊔A1" in txt
