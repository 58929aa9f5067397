"""Oracle tests for endomorphism algebras of silting objects."""

import json
import re
from functools import reduce
from importlib.resources import files

import pytest

import silt.complexes as complexes_mod
import silt.endo as endo_mod
import silt.linalg as linalg_mod
import silt.silting as silting_mod
from coxeter_reference import charpoly, coxeter_polynomial
from dynkin_orientations import E6
from endo_reference import (
    endomorphism_algebra_reference,
    reference_path_values,
)
from linalg_reference import add, inverse, mul, scale, transpose
from quiver_isomorphism import quivers_isomorphic
from silting_reference import from_summands
from silt.cli import FIXTURE_NAMES
from silt.quivers import (
    parse_quiver,
    path_tables,
    paths_between,
)
from silt.modules import (
    act_path,
    projective_dim_vectors,
    projectives,
)
from silt.classify import classify
from silt.silting import (
    euler_table,
    silting_alg2,
    silting_label,
    summand_classes,
    summand_complex,
    two_term_objects,
)
from silt.complexes import compose, hom_class_basis, hom_class_dim
from silt.endo import (
    BoundQuiverAlgebra,
    blocks,
    cartan_data,
    endomorphism_algebra,
)

A1 = parse_quiver("vertices 1\n")
A2 = parse_quiver("vertices 1 2\narrow a:1->2\n")
A3 = parse_quiver("vertices 1 2 3\narrow a:1->2\narrow b:2->3\n")
A3_ALT = parse_quiver("vertices 1 2 3\narrow a:1->3\narrow b:2->3\n")
D4 = parse_quiver("vertices 1 2 3 4\narrow a:1->3\narrow b:2->3\narrow c:3->4\n")
A4_SECOND = parse_quiver("vertices 1 2 3 4\narrow a:1->2\narrow b:3->2\narrow c:3->4\n")
A2_A1 = parse_quiver("vertices 1 2 3\narrow a:1->2\n")


def _fixture(name):
    return parse_quiver(
        files("silt").joinpath("fixtures", f"{name}.quiver").read_text()
    )


def _regular_object(q):
    """The silting object A_A: all projectives, nothing shifted."""
    return from_summands(q, projective_dim_vectors(q))


# --- End(A_A) recovers the path algebra ---

def test_end_of_regular_is_path_algebra():
    for q in (A2, A3, D4):
        b = endomorphism_algebra(q, _regular_object(q))
        assert b.dimension == len(path_tables(q)[1])
        assert quivers_isomorphic(b.gabriel, q)
        assert b.relations == ()


def test_quivers_isomorphic_helper():
    assert quivers_isomorphic(A3, parse_quiver("vertices 7 8 9; arrows x:9->8 y:8->7"))
    assert not quivers_isomorphic(A3, A3_ALT)
    assert not quivers_isomorphic(A2, A1)


# --- disconnected endomorphism algebra over A2 ---

def test_a2_module_plus_shift_is_two_points():
    obj = from_summands(A2, [(0, 1), (-1, -1)])  # S(2) + P(1)[1]
    b = endomorphism_algebra(A2, obj)
    assert len(b.gabriel.vertices) == 2
    assert b.gabriel.arrows == ()
    assert b.dimension == 2
    assert b.relations == ()
    assert blocks(b) == ((1,), (2,))
    # each block is one vertex whose e_v B e_v is one-dimensional
    assert cartan_data(b) == ((1, 0), (0, 1))


def test_connected_algebra_has_one_block():
    b = endomorphism_algebra(A3, _regular_object(A3))
    assert len(blocks(b)) == 1


# --- structural invariants over full enumerations ---

def test_dimension_is_sum_of_pairwise_homs():
    for obj in silting_alg2(A3):
        b = endomorphism_algebra(A3, obj)
        cx = [summand_complex(A3, s) for s in summand_classes(A3, obj)]
        expected = sum(
            hom_class_dim(x, y, 0) for x in cx for y in cx
        )
        assert b.dimension == expected


def _unit(n, k):
    return tuple(int(i == k) for i in range(n))


def test_relations_act_as_zero_on_projectives():
    # B_B is the sum of the P(v) = e_v B, so every relation of B must be
    # zero in End(T) itself: its paths, evaluated by the vector-space
    # reference composing the arrows' Hom classes in turn, sum to zero
    # in the block's Hom-class basis
    saw_relations = False
    for q in (A2, A3_ALT, D4, A4_SECOND):
        for obj in silting_alg2(q):
            b = endomorphism_algebra(q, obj)
            gq, _, path_value = reference_path_values(q, obj)
            assert gq == b.gabriel, silting_label(q, obj)
            for rel in b.relations:
                saw_relations = True
                values = [
                    [c * x for x in path_value(rel.source, rel.target, arrows)]
                    for arrows, c in rel.terms
                ]
                assert not any(map(sum, zip(*values))), silting_label(q, obj)
    assert saw_relations


def test_relations_act_as_zero_on_the_derived_projectives():
    # the P(v) that projectives() derives are B-modules: the signs and
    # coefficients of the relations reach their arrow matrices
    saw_mixed = False
    for q in (A2, A3_ALT, D4, A4_SECOND):
        for obj in silting_alg2(q):
            b = endomorphism_algebra(q, obj)
            for p in projectives(b)[1]:
                for rel in b.relations:
                    saw_mixed |= len(rel.terms) > 1
                    acted = reduce(add, (
                        scale(act_path(p, rel.source, arrows), c)
                        for arrows, c in rel.terms
                    ))
                    assert not any(map(any, acted))
    assert saw_mixed


def test_projective_dims_are_cartan_rows():
    for q in (A3_ALT, D4, A4_SECOND):
        for obj in silting_alg2(q):
            b = endomorphism_algebra(q, obj)
            cart = cartan_data(b)
            basis, reps = projectives(b)
            assert len(reps) == len(cart)
            verts = b.gabriel.vertices
            for p, row, paths in zip(reps, cart, basis):
                assert p.quiver == b.gabriel
                assert p.dims == row
                # the basis paths from v to u, counted independently
                assert row == tuple(map(len, paths))
            assert sum(sum(p.dims) for p in reps) == b.dimension


def test_basis_path_products_concatenate():
    # an arrow sends the basis path p to p followed by the arrow: the unit
    # vector of the concatenation when that is itself a basis path, and
    # otherwise a combination of basis paths with the same endpoints; the
    # path p itself sends the generator e_v to the unit vector at p
    for q in (A3_ALT, D4, A4_SECOND):
        for obj in silting_alg2(q):
            b = endomorphism_algebra(q, obj)
            basis, reps = projectives(b)
            ix = b.gabriel.index
            for a in b.gabriel.arrows:
                assert (a.id,) in basis[ix(a.source)][ix(a.target)]
            for v, p, paths_from_v in zip(b.gabriel.vertices, reps, basis):
                from_v = dict(zip(b.gabriel.vertices, paths_from_v))
                gen = from_v[v].index(())
                for u, paths in from_v.items():
                    for x, arrs in enumerate(paths):
                        row = act_path(p, v, arrs)[gen]
                        assert row == _unit(len(paths), x)
                for a in b.gabriel.arrows:
                    src, tgt = from_v[a.source], from_v[a.target]
                    m = p.mat(a.id)
                    assert len(m) == len(src)
                    assert all(len(r) == len(tgt) for r in m)
                    for x, arrs in enumerate(src):
                        if arrs + (a.id,) in tgt:
                            want = _unit(len(tgt), tgt.index(arrs + (a.id,)))
                            assert m[x] == want


def test_dropping_a_relation_breaks_the_cartan_rows():
    # every relation is a minimal generator of I, so without it some
    # e_v KQ e_u / I is too large and projectives() raises
    q = _fixture("d5")
    dropped = 0
    for obj in silting_alg2(q):
        b = endomorphism_algebra(q, obj)
        for k in range(len(b.relations)):
            rels = b.relations[:k] + b.relations[k + 1 :]
            with pytest.raises(RuntimeError, match="Cartan row"):
                projectives(BoundQuiverAlgebra(b.gabriel, rels, b.cartan))
            dropped += 1
    assert dropped == 138


def test_no_radical_square_in_diagonal_blocks():
    # for i != j, every map T_i -> T_j -> T_i is zero: End(T_i) is the
    # field, so B has no radical element in a diagonal block
    for q in (A3_ALT, D4, A4_SECOND):
        for obj in silting_alg2(q):
            cx = [summand_complex(q, s) for s in summand_classes(q, obj)]
            for i, ti in enumerate(cx):
                for j, tj in enumerate(cx):
                    if i == j:
                        continue
                    end = hom_class_basis(ti, ti, 0)
                    for g in hom_class_basis(ti, tj, 0).class_basis:
                        for f in hom_class_basis(tj, ti, 0).class_basis:
                            row = compose(ti, tj, ti, g, f)
                            assert not any(end.coords(row))


def test_relations_are_admissible_and_reproduce_dimension():
    saw_relations = False
    for q in (A3, D4):
        for obj in silting_alg2(q):
            b = endomorphism_algebra(q, obj)
            for rel in b.relations:
                saw_relations = True
                assert all(len(arrows) >= 2 for arrows, _ in rel.terms)
            # quotient dimension identity is asserted inside; re-check count here
            basis, _ = projectives(b)
            assert b.dimension == sum(len(p) for row in basis for p in row)
    assert saw_relations


def test_gabriel_vertices_are_summand_positions():
    for obj in silting_alg2(A3):
        b = endomorphism_algebra(A3, obj)
        assert b.gabriel.vertices == tuple(
            range(1, len(A3.vertices) + 1)
        )


# --- the scalar assembly against the vector-space reference ---

@pytest.mark.parametrize(
    "q, step",
    [pytest.param(_fixture(name), 1, id=name) for name in FIXTURE_NAMES]
    + [pytest.param(A2_A1, 1, id="a2+a1"), pytest.param(E6, 10, id="e6/10")],
)
def test_assembly_matches_vector_space_reference(q, step, monkeypatch):
    objs = silting_alg2(q)[::step]
    # from a cold cache, every compose is a miss of the triple scalar
    endo_mod._product.cache_clear()
    endo_mod.endomorphism_algebra.cache_clear()
    calls = 0

    def counting_compose(x, y, z, f, g):
        nonlocal calls
        calls += 1
        return compose(x, y, z, f, g)

    monkeypatch.setattr(endo_mod, "compose", counting_compose)
    algebras = [endomorphism_algebra(q, t) for t in objs]
    assert calls == endo_mod._product.cache_info().misses
    for t, b in zip(objs, algebras):
        ref, label = endomorphism_algebra_reference(q, t), silting_label(q, t)
        assert b.gabriel == ref.gabriel, label
        assert b.relations == ref.relations, label
        assert b.cartan == ref.cartan, label
        # every minimal relation is a zero or a commutativity relation
        # with coefficients ±1
        for rel in b.relations:
            assert len(rel.terms) in (1, 2), label
            assert all(c in (1, -1) for _, c in rel.terms), label


def _check_cartan_against_hom_bases(q, objs):
    for t in objs:
        cart = cartan_data(endomorphism_algebra(q, t))
        cx = [summand_complex(q, s) for s in summand_classes(q, t)]
        for i, row in enumerate(cart):
            for j, c in enumerate(row):
                d = hom_class_basis(cx[j], cx[i], 0).dim()
                assert c == d, silting_label(q, t)
    return len(objs)


def test_cartan_rows_are_hom_dimensions_on_every_fixture_object():
    # dim e_i B e_j = dim Hom(T_j, T_i): the Cartan rows come from the
    # Euler form table, and the Hom complex checks them here
    checked = sum(
        _check_cartan_against_hom_bases(q, silting_alg2(q))
        for q in map(_fixture, FIXTURE_NAMES)
    )
    assert checked == 443


def test_cartan_rows_are_hom_dimensions_on_every_tenth_e6_object():
    assert _check_cartan_against_hom_bases(E6, silting_alg2(E6)[::10]) == 84


# --- Cartan data ---

def test_cartan_data_single_point():
    b = endomorphism_algebra(A1, _regular_object(A1))
    cart = cartan_data(b)
    assert cart == ((1,),)
    assert coxeter_polynomial(cart) == (1, 1)


def test_cartan_data_a2_path_algebra():
    b = endomorphism_algebra(A2, _regular_object(A2))
    cart = cartan_data(b)
    # summands sort by total dimension, so vertex 1 is P(2) and vertex 2
    # is P(1); this is the usual triangular Cartan matrix re-ordered
    assert cart == ((1, 0), (1, 1))
    assert coxeter_polynomial(cart) == (1, 1, 1)


def test_coxeter_polynomial_orientation_invariant():
    pa = cartan_data(endomorphism_algebra(A3, _regular_object(A3)))
    pb = cartan_data(endomorphism_algebra(A3_ALT, _regular_object(A3_ALT)))
    assert coxeter_polynomial(pa) == coxeter_polynomial(pb) == (1, 1, 1, 1)


def test_coxeter_polynomial_equals_the_transposed_form_on_every_block():
    # Phi = -C^{-1} C^T is conjugate to the transpose of -C^{-T} C, so both
    # give the same polynomial on every block of every End(T) of D4; a
    # block's Cartan rows are End(T)'s restricted to its vertices
    for t in silting_alg2(D4):
        b = endomorphism_algebra(D4, t)
        cart = cartan_data(b)
        for verts in blocks(b):
            block_cart = tuple(
                tuple(cart[v - 1][u - 1] for u in verts) for v in verts
            )
            other = scale(mul(transpose(inverse(block_cart)), block_cart), -1)
            rows = [[int(e) for e in r] for r in other]
            assert coxeter_polynomial(block_cart) == charpoly(rows)


# --- serialization ---

def test_bound_quiver_algebra_json():
    b = endomorphism_algebra(A3, _regular_object(A3))
    d = b.to_json_dict()
    assert set(d) == {"vertices", "arrows", "relations", "dimension"}
    assert d["dimension"] == 6
    json.dumps(d)


def test_rejects_non_silting_input():
    bad = from_summands(A2, [(1, 0), (0, 1)])
    with pytest.raises(ValueError, match=re.escape(silting_label(A2, bad))):
        endomorphism_algebra(A2, bad)


# D4 relabelled, so that none of its End(T)s is cached yet
D4_COLD = parse_quiver(
    "vertices 51 52 53 54\narrows a:51->53 b:52->53 c:53->54\n"
)


def test_no_path_table_is_cached_for_a_gabriel_quiver():
    # End(T) assembly and the projectives of End(T) build their path
    # tables uncached, so only the input quiver's tables are kept
    objs = silting_alg2(D4_COLD)
    paths_between.cache_clear()
    for t in objs:
        projectives(endomorphism_algebra(D4_COLD, t))
    assert paths_between.cache_info().currsize <= 1


# A3 relabelled, so that none of its End(T)s is cached yet
A3_COLD = parse_quiver("vertices 41 42 43\narrows a:41->42 b:42->43\n")


def test_a_composition_scalar_of_2_is_an_assembly_error(monkeypatch):
    # End of the regular object is the path algebra, whose path of length
    # two has the composite of its two arrows as value
    t = _regular_object(A3_COLD)
    monkeypatch.setattr(endo_mod, "_product", lambda x, y, z: 2)
    with pytest.raises(RuntimeError) as err:
        endomorphism_algebra(A3_COLD, t)
    assert str(err.value).startswith(f"{silting_label(A3_COLD, t)}: ")
    assert "assembly:" in str(err.value)


def test_assembly_runs_no_rational_elimination(monkeypatch):
    # with the Hom spaces cached, End(T) is integer work: rref, which
    # kernel_basis and row_space_rref reach, is never called
    objs = silting_alg2(D4_COLD)
    for t in objs:
        endomorphism_algebra(D4_COLD, t)
    endo_mod.endomorphism_algebra.cache_clear()
    calls = 0
    rref = linalg_mod.rref

    def counting_rref(m):
        nonlocal calls
        calls += 1
        return rref(m)

    monkeypatch.setattr(linalg_mod, "rref", counting_rref)
    relations = sum(
        len(endomorphism_algebra(D4_COLD, t).relations) for t in objs
    )
    assert relations and calls == 0


# A4 relabelled, so that neither its End(T)s nor its Hom spaces are cached
A4_COLD = parse_quiver(
    "vertices 61 62 63 64\narrows a:61->62 b:63->62 c:63->64\n"
)


def test_classify_asks_the_hom_layer_only_about_non_zero_blocks(monkeypatch):
    # the premise and the block dimensions come from the Euler form table:
    # no Hom(X, Y[1]) is ranked, and a Hom basis is read only on a block
    # the table gives dimension 1
    q = A4_COLD
    objs = two_term_objects(q)
    chi = euler_table(q)
    pos = {summand_complex(q, o): a for a, o in enumerate(objs)}
    dim_calls, basis_reads = [], []

    def counting_dim(x, y, k):
        dim_calls.append((x, y, k))
        return hom_class_dim(x, y, k)

    def recording_basis(x, y, k):
        basis_reads.append((pos[x], pos[y], k))
        return hom_class_basis(x, y, k)

    monkeypatch.setattr(silting_mod, "hom_class_dim", counting_dim)
    monkeypatch.setattr(complexes_mod, "hom_class_dim", counting_dim)
    monkeypatch.setattr(endo_mod, "hom_class_basis", recording_basis)
    records = [classify(q, t) for t in silting_alg2(q)]
    assert len(records) == 42
    assert dim_calls == []
    assert basis_reads
    assert all(chi[a][b] == 1 and k == 0 for a, b, k in basis_reads)
