"""Acceptance suite: one test per reproduction criterion, tolerance zero.

Every expected number is frozen from the source tables for the bundled
fixture quivers.  The tables live in ``silt.cli``, which also checks them
in ``silt paper-suite``.  ``pytest -v`` reports one pass/fail line per
criterion through the test names; each test also prints an explicit
``CRITERION n: PASS`` line on success (visible with ``pytest -s``).
"""

from importlib.resources import files

from silt.quivers import (
    dynkin_type,
    euler_form,
    opposite,
    parse_quiver,
)
from silt.modules import (
    build_representation,
    ext1_dim,
    hom_dim,
    indecomposables,
    projective_dim_vectors,
    tau,
    tau_nakayama,
)
from silt.complexes import hom_class_dim
from silt.silting import (
    silting_alg2,
    silting_bruteforce,
    summand_complex,
    tilting_modules_alg1,
    tilting_modules_bruteforce,
)
from silt.endo import endomorphism_algebra
from silt.classify import classify, dedupe, ext_matrix, matches_presentation
from silt.cli import (
    EXPECTED_CLASSES,
    EXPECTED_FAMILY_SPLITS,
    EXPECTED_SILTING,
    EXPECTED_STRICTLY_SHOD,
    EXPECTED_TILTING,
    FIXTURE_NAMES,
    STRICTLY_SHOD_PRESENTATIONS,
)

QUIVERS = {
    name: parse_quiver(
        files("silt").joinpath("fixtures", f"{name}.quiver").read_text()
    )
    for name in FIXTURE_NAMES
}


def _groups(q):
    return dedupe([classify(q, t) for t in silting_alg2(q)])


def _family_counts(groups):
    counts = {}
    for g in groups:
        counts[g[0].label] = counts.get(g[0].label, 0) + 1
    return counts


def test_criterion_1_enumeration_counts():
    for name, q in QUIVERS.items():
        assert len(silting_alg2(q)) == EXPECTED_SILTING[name], name
        assert len(tilting_modules_alg1(q)) == EXPECTED_TILTING[name], name
    print("CRITERION 1 (enumeration counts): PASS")


def test_criterion_2_classification_counts():
    for name, expected in EXPECTED_CLASSES.items():
        groups = _groups(QUIVERS[name])
        assert len(groups) == expected, name
        shod = sum(1 for g in groups if not g[0].is_tilted)
        assert shod == EXPECTED_STRICTLY_SHOD[name], name
        fams = _family_counts(groups)
        for lbl, cnt in EXPECTED_FAMILY_SPLITS.get(name, {}).items():
            assert fams.get(lbl, 0) == cnt, (name, lbl)
    print("CRITERION 2 (classification class counts): PASS")


def test_criterion_3_strictly_shod_structure():
    shod_by_fixture = {
        name: [g for g in _groups(QUIVERS[name]) if not g[0].is_tilted]
        for name in ("d4", "d5")
    }
    assert len(shod_by_fixture["d4"]) == 1
    assert len(shod_by_fixture["d5"]) == 4
    matched = []
    for label, name, arrows, rels in STRICTLY_SHOD_PRESENTATIONS:
        hits = [
            g
            for g in shod_by_fixture[name]
            if matches_presentation(g[0].algebra, arrows, rels)
        ]
        assert len(hits) == 1, label
        rep = hits[0][0]
        assert len(rep.block_verdicts) == 1, label
        assert rep.block_verdicts[0].gl_dim == 3, label
        matched.append((name, rep.fingerprint))
    assert len(set(matched)) == 5
    print("CRITERION 3 (strictly shod structure s1-s5): PASS")


def test_criterion_4_oracle_equivalence():
    for name, q in QUIVERS.items():
        assert set(tilting_modules_alg1(q)) == set(
            tilting_modules_bruteforce(q)
        ), name
        assert set(silting_alg2(q)) == set(silting_bruteforce(q)), name
    print("CRITERION 4 (oracle equivalence): PASS")


def test_criterion_5_homological_invariants():
    for name, q in QUIVERS.items():
        inds = indecomposables(q)
        reps = {d: build_representation(q, d) for d in inds}
        projs = set(projective_dim_vectors(q))
        for d in inds:
            for e in inds:
                euler = hom_dim(q, reps[d], reps[e]) - ext1_dim(
                    q, reps[d], reps[e]
                )
                assert euler == euler_form(q, d, e), (name, d, e)
        for d in inds:
            if d in projs:
                continue
            td = tau(q, d)
            assert td == tau_nakayama(q, d), (name, d)
            for e in inds:
                assert ext1_dim(q, reps[d], reps[e]) == hom_dim(
                    q, reps[e], reps[td]
                ), (name, d, e)
        for t in silting_alg2(q):
            b = endomorphism_algebra(q, t)
            cx = [summand_complex(q, s) for s in t.summands]
            assert b.dimension == sum(
                hom_class_dim(x, y, 0) for x in cx for y in cx
            ), (name, t.summands)
            verts = b.gabriel.vertices
            n = len(verts)
            ix = {v: i for i, v in enumerate(verts)}
            a_count = [[0] * n for _ in range(n)]
            for a in b.gabriel.arrows:
                a_count[ix[a.source]][ix[a.target]] += 1
            r_count = [[0] * n for _ in range(n)]
            for r in b.relations:
                r_count[ix[r.source]][ix[r.target]] += 1
            assert tuple(tuple(r) for r in a_count) == ext_matrix(b, 1), (
                name,
                t.summands,
            )
            assert tuple(tuple(r) for r in r_count) == ext_matrix(b, 2), (
                name,
                t.summands,
            )
    print("CRITERION 5 (homological invariant suite): PASS")


def test_criterion_6_opposite_duality():
    for name, q in QUIVERS.items():
        qop = opposite(q)
        assert len(silting_alg2(qop)) == len(silting_alg2(q)), name
        assert len(_groups(qop)) == len(_groups(q)), name
    print("CRITERION 6 (invariance under quiver opposition): PASS")


def test_criterion_7_unshifted_or_projective_free_is_tilted_of_type_q():
    for name, q in QUIVERS.items():
        label_q = dynkin_type(q).label()
        projs = set(projective_dim_vectors(q))
        for t in silting_alg2(q):
            applies = not t.shifted_vertices or all(
                d not in projs for d in t.module_dims
            )
            if not applies:
                continue
            rec = classify(q, t)
            assert rec.is_tilted, (name, t.summands)
            assert rec.label == label_q, (name, t.summands)
    print("CRITERION 7 (unshifted/projective-free objects tilted of type Q): PASS")
