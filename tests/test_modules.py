"""Oracle tests for KQ-modules: roots, representations, Hom/Ext, tau, AR quivers."""

from fractions import Fraction
from operator import add
from pathlib import Path

import pytest

import reflection_reference
from dynkin_orientations import E6, TYPES_WITH_E6, orientations
from silting_reference import tau_inverse
from silt import modules, silting
from silt.classify import classify
from silt.silting import silting_alg2
from silt.quivers import NotDynkinError, dynkin_type, euler_form, parse_quiver
from silt.modules import (
    ArQuiver,
    TwoTermComplex,
    ar_quiver_mod,
    ar_quiver_two_term,
    build_representation,
    ext1_dim,
    hom_dim,
    indecomposables,
    injective_dim_vectors,
    is_shift,
    make_rep,
    minimal_presentation,
    object_label,
    projective_dim_vectors,
    shift_vertex,
    tau,
    tau_nakayama,
    two_term_objects,
)

A2 = parse_quiver("vertices 1 2\narrow a:1->2\n")
A3 = parse_quiver("vertices 1 2 3\narrow a:1->2\narrow b:2->3\n")
D4 = parse_quiver("vertices 1 2 3 4\narrow a:1->3\narrow b:2->3\narrow c:3->4\n")
D5 = parse_quiver(
    "vertices 1 2 3 4 5\narrow a:1->3\narrow b:2->3\narrow c:3->4\narrow d:4->5\n"
)
E7 = parse_quiver(
    (Path(__file__).resolve().parents[1] / "perfbench" / "e7.quiver").read_text()
)
E8 = parse_quiver(
    "vertices 1 2 3 4 5 6 7 8\narrows a:1->2 b:2->3 c:3->4 d:4->5 e:5->6 f:6->7 g:8->3\n"
)


# --- indecomposables = positive roots ---

def test_indecomposables_a2():
    assert set(indecomposables(A2)) == {(1, 0), (0, 1), (1, 1)}


def test_indecomposables_counts():
    assert len(indecomposables(A3)) == 6
    assert len(indecomposables(D4)) == 12
    assert len(indecomposables(D5)) == 20


def test_indecomposables_an_count():
    q = parse_quiver("vertices 1 2 3 4 5; arrows a:1->2 b:2->3 c:3->4 d:4->5")
    assert len(indecomposables(q)) == 15


def test_indecomposables_requires_dynkin():
    sq = parse_quiver(
        "vertices 1 2 3 4\narrow a:1->2\narrow b:1->3\narrow c:2->4\narrow d:3->4\n"
    )
    with pytest.raises(NotDynkinError):
        indecomposables(sq)


def test_d4_highest_root_present():
    assert (1, 1, 2, 1) in indecomposables(D4)


# --- projectives / injectives ---

def test_projective_dim_vectors_a2():
    assert projective_dim_vectors(A2) == ((1, 1), (0, 1))


def test_injective_dim_vectors_a2():
    assert injective_dim_vectors(A2) == ((1, 0), (1, 1))


# --- build_representation ---

def test_build_a2_big_module():
    rep = build_representation(A2, (1, 1))
    assert rep.dims == (1, 1)
    assert rep.mat("a") == ((1,),)


def test_build_simple():
    rep = build_representation(D4, (0, 0, 1, 0))
    assert rep.dims == (0, 0, 1, 0)
    # no reflection step runs: an arrow out of vertex 3 keeps one empty
    # row, and one into it has no rows
    for a in D4.arrows:
        assert rep.mat(a.id) == ((),) * rep.dim_at(a.source)


def test_build_deterministic():
    r1 = build_representation(D4, (1, 1, 2, 1))
    r2 = build_representation(D4, (1, 1, 2, 1))
    assert r1 == r2


def test_build_d4_exceptional_root():
    rep = build_representation(D4, (1, 1, 2, 1))
    assert rep.dims == (1, 1, 2, 1)
    # the two arm maps land in distinct lines of the 2-dim space at vertex 3
    from silt.linalg import rank

    assert rank(rep.mat("a") + rep.mat("b"), 2) == 2
    assert hom_dim(D4, rep, rep) == 1


def test_build_representation_matches_the_reflection_reference():
    # the int-row chain and the Quiver/QuiverRep chain build equal
    # representations of every root of every D5 orientation, of E6, E7
    # and E8; from E6 on, roots climb from their cached Coxeter images
    quivers = [q for _, q in orientations("D", 5)] + [E6, E7, E8]
    for q in quivers:
        for d in indecomposables(q):
            want = reflection_reference.build_representation(q, d)
            assert build_representation(q, d) == want, (q, d)


@pytest.fixture
def cold_representations():
    build_representation.cache_clear()
    yield
    build_representation.cache_clear()


@pytest.mark.parametrize("order", [1, -1], ids=["small first", "large first"])
def test_each_root_is_built_once(cold_representations, order):
    # a root climbs from its Coxeter image, which is a root and cached:
    # nothing that is not a root is built, and no root twice
    roots = indecomposables(E7)
    for d in roots[::order]:
        build_representation(E7, d)
    info = build_representation.cache_info()
    assert (len(roots), info.misses, info.currsize) == (63, 63, 63)


def test_reflection_checks_still_fire(cold_representations, monkeypatch):
    # (2, 1) is no root: the second step leaves the positive cone
    monkeypatch.setattr(modules, "indecomposables", lambda q: ((2, 1),))
    with pytest.raises(RuntimeError, match="positive cone"):
        build_representation(A2, (2, 1))
    # the null root of an affine A3 quiver is fixed by every whole cycle
    square = parse_quiver("vertices 1 2 3 4\narrows a:1->2 b:1->3 c:2->4 d:3->4\n")
    monkeypatch.setattr(modules, "indecomposables", lambda q: ((1, 1, 1, 1),))
    with pytest.raises(RuntimeError, match="did not terminate"):
        build_representation(square, (1, 1, 1, 1))
    monkeypatch.undo()
    rref = modules.row_space_rref
    monkeypatch.setattr(modules, "row_space_rref", lambda rows: rref(rows)[1:])
    with pytest.raises(RuntimeError, match="not injective"):
        build_representation(D4, (1, 1, 2, 1))
    monkeypatch.undo()
    coker = modules.cokernel_coords

    def one_more_free_column(basis, cols):
        free, image = coker(basis, cols)
        return free + [cols], image

    # one climb step, so the extra column reaches the final check
    monkeypatch.setattr(modules, "cokernel_coords", one_more_free_column)
    with pytest.raises(RuntimeError, match="wrong dims"):
        build_representation(A2, (1, 1))


def test_quiver_rep_entries_must_be_ints():
    # mirrors the Matrix check: an integral Fraction or a bool is no int
    for bad in (Fraction(1, 2), Fraction(1), True, 1.0):
        with pytest.raises(TypeError, match="ints"):
            make_rep(A3, (1, 1, 0), {"a": [(bad,)], "b": [()]})
    assert make_rep(A3, (1, 1, 0), {"a": [(1,)], "b": [()]}).mat("a") == ((1,),)


def test_quiver_rep_shape_validated():
    # a row per basis vector at the source, each as wide as the target
    for mats in (
        {"a": [(1,), (0,)], "b": [()]},  # two rows for a 1-dim source
        {"a": [], "b": [()]},  # no row for a 1-dim source
        {"a": [(1,)], "b": []},  # a 1-dim source of b with no row
        {"a": [(1,)], "b": [(0,)]},  # b's row wider than its 0-dim target
    ):
        with pytest.raises(ValueError, match="shape mismatch"):
            make_rep(A3, (1, 1, 0), mats)
    with pytest.raises(ValueError, match="shape mismatch at arrow a"):
        # a ragged matrix: its second row is too short
        make_rep(A3, (2, 2, 0), {"a": [(1, 0), (0,)], "b": [(), ()]})


def test_every_indecomposable_has_trivial_endos():
    for q in (A3, D4):
        for d in indecomposables(q):
            rep = build_representation(q, d)
            assert rep.dims == d
            assert hom_dim(q, rep, rep) == 1


# --- hom / ext ---

def test_hom_a2_examples():
    m01 = build_representation(A2, (0, 1))
    m11 = build_representation(A2, (1, 1))
    assert hom_dim(A2, m01, m11) == 1
    assert hom_dim(A2, m11, m01) == 0


def test_ext_projective_vanishes():
    p1 = build_representation(A2, (1, 1))
    for d in indecomposables(A2):
        assert ext1_dim(A2, p1, build_representation(A2, d)) == 0


def test_ext_a2_simples():
    s1 = build_representation(A2, (1, 0))
    s2 = build_representation(A2, (0, 1))
    assert ext1_dim(A2, s1, s2) == 1
    assert ext1_dim(A2, s2, s1) == 0


def test_ext1_reads_the_differential_coefficients(monkeypatch):
    # no Dynkin minimal presentation needs a coefficient other than a
    # sign, so a presentation P(2)^2 -> P(1)^2 with the coefficients
    # ((1, 1), (1, -1)) stands in for one: Hom(-, P(1)) turns it into
    # that matrix of rank 2, so Ext^1 is 0, while dropping the
    # coefficients would leave ((1, 1), (1, 1)) of rank 1
    pres = TwoTermComplex(A2, (2, 2), (1, 1), ((1, 1), (1, -1)))
    monkeypatch.setattr(modules, "minimal_presentation", lambda q, m: pres)
    p1 = build_representation(A2, (1, 1))
    assert ext1_dim.__wrapped__(A2, p1, p1) == 0


A2_OP = parse_quiver("vertices 1 2\narrow a:2->1\n")


def test_hom_rejects_a_module_over_another_quiver():
    # the same vertices and arrow id, the other way round: over A2 the
    # answer would read 1
    m = build_representation(A2, (1, 1))
    n = build_representation(A2_OP, (1, 0))
    with pytest.raises(ValueError, match="different quiver"):
        hom_dim(A2, m, n)
    with pytest.raises(ValueError, match="different quiver"):
        hom_dim(A2, n, m)


def test_ext1_rejects_a_module_over_another_quiver():
    s2 = build_representation(A2, (0, 1))
    n = build_representation(A2_OP, (1, 0))
    with pytest.raises(ValueError, match="different quiver"):
        ext1_dim(A2, s2, n)
    # another arrow id: the check comes before any lookup by arrow id
    other = parse_quiver("vertices 1 2\narrow b:1->2\n")
    with pytest.raises(ValueError, match="different quiver"):
        ext1_dim(A2, s2, build_representation(other, (1, 1)))


def test_euler_identity_exhaustive_a3_d4():
    for q in (A3, D4):
        reps = {d: build_representation(q, d) for d in indecomposables(q)}
        for dm, m in reps.items():
            for dn, n in reps.items():
                assert hom_dim(q, m, n) - ext1_dim(q, m, n) == euler_form(
                    q, dm, dn
                )


# --- tau ---

def test_tau_a2():
    assert tau(A2, (1, 0)) == (0, 1)


def test_tau_projectives_none():
    for p in projective_dim_vectors(A3):
        assert tau(A3, p) is None


def test_tau_a3():
    assert tau(A3, (1, 1, 0)) == (0, 1, 1)


def test_tau_inverse_a2():
    assert tau_inverse(A2, (0, 1)) == (1, 0)


def test_tau_inverse_injectives_none():
    for i in injective_dim_vectors(A2):
        assert tau_inverse(A2, i) is None


def test_tau_roundtrip():
    for q in (A3, D4):
        projs = set(projective_dim_vectors(q))
        for d in indecomposables(q):
            if d in projs:
                continue
            t = tau(q, d)
            assert tau_inverse(q, t) == d


# perfbench/e7.quiver: every arrow points into the branch vertex 3
E7_TEXT = """vertices 1 2 3 4 5 6 7
arrow a:1->2
arrow b:2->3
arrow c:4->3
arrow d:5->4
arrow e:6->5
arrow f:7->3
"""


def test_tau_matches_nakayama_construction():
    # tau reads the Coxeter table alone, so the independent Nakayama
    # construction has to agree on every non-projective indecomposable of
    # every orientation up to E6, and of E7
    quivers = [q for kind, n in TYPES_WITH_E6 for _, q in orientations(kind, n)]
    for q in quivers + [parse_quiver(E7_TEXT)]:
        projs = set(projective_dim_vectors(q))
        for d in injective_dim_vectors(q):
            assert tau_inverse(q, d) is None
        for d in indecomposables(q):
            if d in projs:
                assert tau(q, d) is None
                continue
            t = tau(q, d)
            assert t == tau_nakayama(q, d), (q, d)
            assert tau_inverse(q, t) == d, (q, d)


def test_coxeter_table_rejects_a_wrong_coxeter_matrix(monkeypatch):
    # the transposed Coxeter matrix does not map the non-projectives of A3
    # onto the non-injectives; a raising call leaves no cache entry behind
    q = parse_quiver("vertices 1 2 3\narrow tq1:1->2\narrow tq2:2->3\n")
    phi = modules.coxeter_matrix(projective_dim_vectors(q))
    monkeypatch.setattr(modules, "coxeter_matrix", lambda c: tuple(zip(*phi)))
    with pytest.raises(RuntimeError, match="not a bijection"):
        tau(q, (0, 1, 0))


def test_ar_formula_d4():
    reps = {d: build_representation(D4, d) for d in indecomposables(D4)}
    projs = set(projective_dim_vectors(D4))
    for dm, m in reps.items():
        if dm in projs:
            continue
        tm = reps[tau(D4, dm)]
        for dn, n in reps.items():
            assert ext1_dim(D4, m, n) == hom_dim(D4, n, tm)


# --- minimal presentation ---

def test_presentation_of_projective_trivial():
    pres = minimal_presentation(A2, build_representation(A2, (1, 1)))
    assert pres.deg0 == (1,)
    assert pres.deg_minus1 == ()


def test_presentation_a2_simple():
    pres = minimal_presentation(A2, build_representation(A2, (1, 0)))
    assert pres.deg0 == (1,)
    assert pres.deg_minus1 == (2,)
    # the coefficient of the one path from 1 to 2, the arrow a
    assert pres.diff == ((1,),)


def test_presentation_rejects_a_module_over_another_quiver():
    with pytest.raises(ValueError, match="module is over a different quiver"):
        minimal_presentation(A2, build_representation(A3, (1, 1, 0)))


def test_presentation_terms_are_the_whole_resolution():
    # two covers and one kernel give the presentation; the full loop,
    # run until its kernel is zero, has exactly those terms
    quivers = [q for kind, n in TYPES_WITH_E6 for _, q in orientations(kind, n)]
    for q in quivers:
        kq = modules.path_algebra(q)
        for d in indecomposables(q):
            m = build_representation(q, d)
            pres = minimal_presentation(q, m)
            steps = modules.minimal_resolution(kq, m)
            terms = [pres.deg0] + [pres.deg_minus1] * bool(pres.deg_minus1)
            assert [tuple(v for v, _ in c) for c in steps] == terms


def test_presentation_rejects_a_first_syzygy_that_is_not_projective(monkeypatch):
    # a cover of the syzygy that is larger than the syzygy has a kernel
    real, calls = modules.minimal_cover, []

    def cover(b, rep):
        copies, pi = real(b, rep)
        calls.append(rep)
        if len(calls) == 2:
            pi = [rows * 2 for rows in pi]
        return copies, pi

    monkeypatch.setattr(modules, "minimal_cover", cover)
    with pytest.raises(RuntimeError, match="first syzygy is not projective"):
        minimal_presentation.__wrapped__(A2, build_representation(A2, (1, 0)))
    assert len(calls) == 2


def test_cover_rows_are_the_path_actions():
    # minimal_cover walks each generator's unit row along each basis
    # path; the full matrix of the path action has the same row, over KQ
    # and over an algebra with relations
    algebras = [modules.path_algebra(q) for q in (A3, D4, D5, E6)]
    algebras += [
        b
        for b in (classify(D4, t).algebra for t in silting_alg2(D4))
        if b.relations
    ][:5]
    for b in algebras:
        q = b.gabriel
        basis, reps = modules.projectives(b)
        mods = list(reps) + [modules.simple_rep(q, v) for v in q.vertices]
        if not b.relations:
            mods += [build_representation(q, d) for d in indecomposables(q)]
        for rep in mods:
            copies, pi = modules.minimal_cover(b, rep)
            # one row per basis vector of the cover: its dimension vector
            cover_dims = [0] * len(q.vertices)
            for v, _ in copies:
                cover_dims = list(map(add, cover_dims, b.cartan[q.index(v)]))
            assert list(map(len, pi)) == cover_dims
            for l, rows in enumerate(pi):
                assert rows == [
                    list(modules.act_path(rep, v, arrows)[c])
                    for v, c in copies
                    for arrows in basis[q.index(v)][l]
                ]


# --- AR quivers ---

def test_ar_mod_a2():
    ar = ar_quiver_mod(A2)
    labels = set(map(object_label, ar.vertices))
    assert labels == {"01", "11", "10"}
    arrow_labels = {(object_label(s), object_label(t)) for s, t in ar.arrows}
    assert arrow_labels == {("01", "11"), ("11", "10")}
    tau_labels = {(object_label(m), object_label(t)) for m, t in ar.tau_pairs}
    assert tau_labels == {("10", "01")}


def test_ar_mod_counts():
    assert len(ar_quiver_mod(A3).vertices) == 6
    assert len(ar_quiver_mod(D4).vertices) == 12


def test_ar_layout_columns_step_one():
    for q in (A3, D4):
        ar = ar_quiver_mod(q)
        pos = dict(ar.layout)
        for s, t in ar.arrows:
            assert pos[t][0] == pos[s][0] + 1
        assert len(set(ar.layout)) == len(ar.vertices)


def _assert_mesh_additive(q, ar):
    incoming = {}
    for s, t in ar.arrows:
        incoming.setdefault(t, []).append(s)
    for m, tm in ar.tau_pairs:
        mids = incoming.get(m, [])
        total = tuple(
            sum(x[i] for x in mids) for i in range(len(q.vertices))
        )
        expected = tuple(a + b for a, b in zip(m, tm))
        assert total == expected


def test_ar_mesh_additivity():
    for q in (A3, D4, D5):
        _assert_mesh_additive(q, ar_quiver_mod(q))


def positive_roots(kind, n):
    return {"A": n * (n + 1) // 2, "D": n * (n - 1), "E": 36}[kind]


@pytest.mark.parametrize(
    "kind, n", TYPES_WITH_E6, ids=[f"{k}{n}" for k, n in TYPES_WITH_E6]
)
def test_ar_knits_on_every_orientation(kind, n):
    # the knit holds only if the levels of the projectives agree with
    # the arrows, which the fixtures alone do not exercise
    roots = positive_roots(kind, n)
    for text, q in orientations(kind, n):
        assert dynkin_type(q).components == ((kind, n),), text
        ar = ar_quiver_mod(q)
        assert len(ar.vertices) == roots, text
        _assert_mesh_additive(q, ar)
        pos = dict(ar.layout)
        assert all(pos[t][0] == pos[s][0] + 1 for s, t in ar.arrows), text
        assert len(set(pos.values())) == roots, text
        two = ar_quiver_two_term(q)
        assert len(two.vertices) == roots + n, text
        at = shift_vertex(q)
        shifted = {
            (at[s], at[t]) for s, t in two.arrows if is_shift(s) and is_shift(t)
        }
        assert shifted == {(a.target, a.source) for a in q.arrows}, text


@pytest.mark.parametrize(
    "kind, n", TYPES_WITH_E6, ids=[f"{k}{n}" for k, n in TYPES_WITH_E6]
)
def test_a_two_term_object_is_its_class_in_k0(kind, n):
    # [M] = dim M tells the modules apart (Gabriel), and [P(v)[1]] =
    # -dim P(v) is negative and tells the shifts apart, so the classes
    # name the two-term objects
    assert silting.two_term_objects is two_term_objects
    for text, q in orientations(kind, n):
        objs, roots = two_term_objects(q), indecomposables(q)
        assert len(set(objs)) == len(objs) == len(roots) + n, text
        assert objs[: len(roots)] == roots, text
        at = shift_vertex(q)
        assert len(at) == n, text
        for v, d in zip(q.vertices, projective_dim_vectors(q)):
            assert at[tuple(-c for c in d)] == v, text


def test_ar_two_term_a2_chain():
    ar = ar_quiver_two_term(A2)
    assert len(ar.vertices) == 5
    arrow_labels = {(object_label(s), object_label(t)) for s, t in ar.arrows}
    assert arrow_labels == {
        ("01", "11"),
        ("11", "10"),
        ("10", "01[1]"),
        ("01[1]", "11[1]"),
    }


def test_ar_two_term_counts():
    assert len(ar_quiver_two_term(A3).vertices) == 9
    assert len(ar_quiver_two_term(D4).vertices) == 16
    assert len(ar_quiver_two_term(D5).vertices) == 25


def test_ar_two_term_shifted_copy_of_q():
    for q in (A3, D4, D5):
        ar, at = ar_quiver_two_term(q), shift_vertex(q)
        shifted_arrows = {
            (at[s], at[t]) for s, t in ar.arrows if is_shift(s) and is_shift(t)
        }
        expected = {(a.target, a.source) for a in q.arrows}
        assert shifted_arrows == expected


def test_ind_id_labels():
    # an indecomposable two-term object is identified by its class in K_0
    assert object_label((1, 1, 2, 1)) == "1121"
    assert object_label((0, 0, -1, 0)) == "0010[1]"  # P(3)[1]


def test_ascii_render_has_markers():
    ar = ar_quiver_two_term(A2)
    txt = ar.to_ascii(selected={(0, 1), (1, 1)})
    assert "•" in txt and "∘" in txt


def test_dot_render_mentions_tau_dashed():
    ar = ar_quiver_mod(A2)
    dot = ar.to_dot()
    assert "digraph" in dot and "dashed" in dot
