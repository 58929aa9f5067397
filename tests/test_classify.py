"""Oracle tests for homological classification of silted algebras."""

import itertools
import json
import random
from collections import Counter
from importlib.resources import files

import pytest

import silt.classify as classify_mod
import silt.endo as endo_mod
from coxeter_reference import coxeter_type, reference_polynomials
from dynkin_orientations import E6
from quiver_isomorphism import quivers_isomorphic
from silting_reference import from_summands
from silt.quivers import dynkin_type, opposite, parse_quiver
from silt.modules import negated, projective_dim_vectors
from silt.silting import silting_alg2, silting_label
from silt.endo import cartan_data, endomorphism_algebra
from silt.cli import FIXTURE_NAMES, STRICTLY_SHOD_PRESENTATIONS
from silt.classify import (
    ClassificationRecord,
    block_cartan,
    classify,
    dedupe,
    global_dimension,
    matches_presentation,
    projective_dimension_of_simples,
    record_to_json,
    summary_csv,
    summary_text,
    tilted_type,
)

A1 = parse_quiver("vertices 1\n")
A2 = parse_quiver("vertices 1 2\narrow a:1->2\n")
A3 = parse_quiver("vertices 1 2 3\narrow a:1->2\narrow b:2->3\n")
A3_ALT = parse_quiver("vertices 1 2 3\narrow a:1->3\narrow b:2->3\n")
D4 = parse_quiver("vertices 1 2 3 4\narrow a:1->3\narrow b:2->3\narrow c:3->4\n")


def _fixture(name):
    return parse_quiver(
        files("silt").joinpath("fixtures", f"{name}.quiver").read_text()
    )


def _regular_object(q):
    return from_summands(q, projective_dim_vectors(q))


def _shift_object(q):
    return from_summands(q, map(negated, projective_dim_vectors(q)))


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
    obj = from_summands(A2, [(0, 1), (-1, -1)])  # S(2) + P(1)[1]
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
    assert tilted_type(cartan_data(b)).label() == "A2"
    bd = endomorphism_algebra(D4, _regular_object(D4))
    assert tilted_type(cartan_data(bd)).label() == "D4"


# A9 and D10 lie beyond every E type; the determinant rule covers them
# with no reference quiver
ABOVE_RANK_FIVE = {
    "A6": "vertices 1 2 3 4 5 6\narrows a:1->2 b:3->2 c:3->4 d:4->5 e:6->5\n",
    "D6": "vertices 1 2 3 4 5 6\narrows a:1->3 b:2->3 c:3->4 d:4->5 e:5->6\n",
    "E6": "vertices 1 2 3 4 5 6\narrows a:1->2 b:2->3 c:4->3 d:5->4 e:6->3\n",
    "A9": "vertices 1 2 3 4 5 6 7 8 9\n"
    "arrows a:1->2 b:3->2 c:3->4 d:5->4 e:5->6 f:7->6 g:7->8 h:9->8\n",
    "D10": "vertices 1 2 3 4 5 6 7 8 9 10\n"
    "arrows a:1->3 b:2->3 c:4->3 d:4->5 e:6->5 f:6->7 g:8->7 h:8->9 i:10->9\n",
}


@pytest.mark.parametrize("label", sorted(ABOVE_RANK_FIVE))
def test_tilted_type_above_rank_five(label):
    q = parse_quiver(ABOVE_RANK_FIVE[label])
    b = endomorphism_algebra(q, _regular_object(q))
    assert tilted_type(cartan_data(b)).label() == label


def _poly(*terms):
    """Coefficients, leading first, of the sum of c t^k over (k, c)."""
    deg = max(k for k, _ in terms)
    coeffs = [0] * (deg + 1)
    for k, c in terms:
        coeffs[deg - k] += c
    return tuple(coeffs)


def test_reference_polynomials_cover_every_type_up_to_rank_eight():
    # Coxeter polynomials of the Dynkin diagrams (Ringel, LNM 1099, 1984)
    closed = {
        ("E", 6): _poly((6, 1), (5, 1), (3, -1), (1, 1), (0, 1)),
        ("E", 7): _poly((7, 1), (6, 1), (4, -1), (3, -1), (1, 1), (0, 1)),
        ("E", 8): _poly(
            (8, 1), (7, 1), (5, -1), (4, -1), (3, -1), (1, 1), (0, 1)
        ),
    }
    for n in range(1, 9):
        closed[("A", n)] = _poly(*((k, 1) for k in range(n + 1)))
        if n >= 4:
            # (t^(n-1) + 1)(t + 1)
            closed[("D", n)] = _poly((n, 1), (n - 1, 1), (1, 1), (0, 1))
    for n in range(1, 9):
        want = {poly: t for t, poly in closed.items() if t[1] == n}
        assert reference_polynomials(n) == want, n


def test_tilted_type_outside_the_determinant_rule_names_the_object(
    monkeypatch,
):
    # a relabelled A2, so that no classify result is cached for it
    q = parse_quiver("vertices 71 72\narrow z:71->72\n")
    t = silting_alg2(q)[0]
    monkeypatch.setattr(classify_mod, "determinant", lambda rows: 0)
    with pytest.raises(RuntimeError) as err:
        classify(q, t)
    want = f"{silting_label(q, t)}: tilted type: det(C + C^T) = 0"
    assert want in str(err.value)


def _tilted_blocks(q):
    for t in silting_alg2(q):
        r = classify(q, t)
        for bv in r.block_verdicts:
            if bv.verdict == "tilted":
                yield block_cartan(r.algebra, bv.vertices), bv.dynkin


def test_coxeter_polynomials_agree_with_the_determinant_rule():
    # the Coxeter route of coxeter_reference, on every tilted block of the
    # fixtures and E6
    checked = 0
    for q in [_fixture(name) for name in FIXTURE_NAMES] + [E6]:
        for rows, dt in _tilted_blocks(q):
            assert coxeter_type(rows) == dt == tilted_type(rows), rows
            checked += 1
    assert checked == 1494


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
    obj = from_summands(
        A3,
        [
            (-1, -1, -1),  # P(1)[1]
            (0, 1, 0),
            (0, 1, 1),
        ],
    )
    assert obj in silting_alg2(A3)
    rec = classify(A3, obj)
    assert rec.is_tilted
    assert rec.label == "A2⊔A1"


def test_d4_has_exactly_one_strictly_shod_class():
    records = [classify(D4, t) for t in silting_alg2(D4)]
    shod = [g for g in dedupe(records) if not g[0].is_tilted]
    assert len(shod) == 1
    rep = shod[0][0]
    assert rep.label == "strictly shod"
    assert len(rep.block_verdicts) == 1
    blk = rep.block_verdicts[0]
    assert blk.gl_dim == 3
    # the single block is the whole algebra
    assert blk.vertices == rep.algebra.gabriel.vertices
    a4_line = parse_quiver(
        "vertices 1 2 3 4\narrow x:1->2\narrow y:2->3\narrow z:3->4\n"
    )
    assert quivers_isomorphic(rep.algebra.gabriel, a4_line)
    rels = rep.algebra.relations
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
        q = _fixture(name)
        assert _class_summary(q) == _class_summary(opposite(q)), name


# --- reports ---

def test_records_serialize_to_json():
    records = [classify(A2, t) for t in silting_alg2(A2)]
    payload = [record_to_json(A2, r) for r in records]
    assert len(payload) == 5
    text = json.dumps(payload)
    assert "modules" in text


# A3 relabelled, so that none of its End(T)s or records is cached yet
A3_UNSEEN = parse_quiver("vertices 71 72 73\narrows a:71->72 b:72->73\n")


def test_classify_builds_no_silting_label_when_nothing_fails(monkeypatch):
    # the labels name an object only in error messages
    objs = silting_alg2(A3_UNSEEN)
    calls = []

    def spy(q, t):
        calls.append(t)
        return silting_label(q, t)

    for mod in (classify_mod, endo_mod):
        monkeypatch.setattr(mod, "silting_label", spy)
    records = [classify(A3_UNSEEN, t) for t in objs]
    assert len(records) == 14
    assert calls == []


def test_summary_outputs():
    records = [classify(A2, t) for t in silting_alg2(A2)]
    groups = dedupe(records)
    csv_text = summary_csv(A2, groups)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "class,count,silting,quiver,classification"
    assert len(lines) == 1 + len(groups)
    txt = summary_text(A2, groups)
    assert "A2" in txt and "A1⊔A1" in txt


# --- presentations up to vertex relabelling ---

def _matches_by_permutation(b, arrows, relations):
    """The n! loop: try every vertex relabelling of b's presentation."""
    if any(len(r.terms) != 1 for r in b.relations):
        return False
    shapes = [(r.source, r.target, len(r.terms[0][0])) for r in b.relations]
    verts = b.gabriel.vertices
    for perm in itertools.permutations(range(1, len(verts) + 1)):
        sigma = dict(zip(verts, perm))
        got_arrows = sorted(
            (sigma[a.source], sigma[a.target]) for a in b.gabriel.arrows
        )
        got_rels = sorted((sigma[s], sigma[t], l) for s, t, l in shapes)
        if (got_arrows, got_rels) == (sorted(arrows), sorted(relations)):
            return True
    return False


def test_matches_presentation_agrees_with_the_permutation_loop():
    # against s1-s5 and against b's own presentation, randomly relabelled,
    # on every fixture End(T); a mixed relation never matches
    rng = random.Random(0)
    shod = [(arrows, rels) for _, _, arrows, rels in STRICTLY_SHOD_PRESENTATIONS]
    shod_hits = 0
    for q in map(_fixture, FIXTURE_NAMES):
        for t in silting_alg2(q):
            b, label = endomorphism_algebra(q, t), silting_label(q, t)
            for arrows, rels in shod:
                got = matches_presentation(b, arrows, rels)
                assert got == _matches_by_permutation(b, arrows, rels), label
                shod_hits += got
            n = len(b.gabriel.vertices)
            perm = dict(zip(b.gabriel.vertices, rng.sample(range(1, n + 1), n)))
            arrows = [(perm[a.source], perm[a.target]) for a in b.gabriel.arrows]
            rels = [
                (perm[r.source], perm[r.target], len(r.terms[0][0]))
                for r in b.relations
            ]
            monomial = all(len(r.terms) == 1 for r in b.relations)
            assert matches_presentation(b, arrows, rels) == monomial, label
    assert shod_hits > 0
