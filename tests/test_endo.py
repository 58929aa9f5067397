"""Oracle tests for endomorphism algebras of silting objects."""

import json
import re
from fractions import Fraction as Q

import pytest

from quiver_isomorphism import quivers_isomorphic
from silt.quivers import parse_quiver, path_basis
from silt.modules import (
    IndId,
    act_path,
    act_path_vector,
    projective_dim_vectors,
)
from silt.silting import SiltingObject, silting_alg2, summand_complex
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


def _regular_object(q):
    """The silting object A_A: all projectives, nothing shifted."""
    summands = tuple(
        sorted(
            (IndId.module(d) for d in projective_dim_vectors(q)),
            key=lambda s: s.key(),
        )
    )
    return SiltingObject(q, summands)


# --- End(A_A) recovers the path algebra ---

def test_end_of_regular_is_path_algebra():
    for q in (A2, A3, D4):
        b = endomorphism_algebra(q, _regular_object(q))
        assert b.dimension == len(path_basis(q))
        assert quivers_isomorphic(b.gabriel, q)
        assert b.relations == ()


def test_quivers_isomorphic_helper():
    assert quivers_isomorphic(A3, parse_quiver("vertices 7 8 9; arrows x:9->8 y:8->7"))
    assert not quivers_isomorphic(A3, A3_ALT)
    assert not quivers_isomorphic(A2, A1)


# --- disconnected endomorphism algebra over A2 ---

def test_a2_module_plus_shift_is_two_points():
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
    assert len(b.gabriel.vertices) == 2
    assert b.gabriel.arrows == ()
    assert b.dimension == 2
    assert b.relations == ()
    parts = blocks(b)
    assert len(parts) == 2
    assert all(p.dimension == 1 and len(p.gabriel.vertices) == 1 for p in parts)


def test_connected_algebra_has_one_block():
    b = endomorphism_algebra(A3, _regular_object(A3))
    assert len(blocks(b)) == 1


# --- structural invariants over full enumerations ---

def test_dimension_is_sum_of_pairwise_homs():
    for obj in silting_alg2(A3):
        b = endomorphism_algebra(A3, obj)
        cx = [summand_complex(A3, s) for s in obj.summands]
        expected = sum(
            hom_class_dim(x, y, 0) for x in cx for y in cx
        )
        assert b.dimension == expected


def _unit(n, k):
    return tuple(Q(1) if i == k else Q(0) for i in range(n))


def test_relations_act_as_zero_on_projectives():
    # P(v) = e_v B is a module over B, so every relation of B kills it
    saw_relations = False
    for q in (A2, A3_ALT, D4, A4_SECOND):
        for obj in silting_alg2(q):
            b = endomorphism_algebra(q, obj)
            for p in b.projectives:
                for rel in b.relations:
                    saw_relations = True
                    m = act_path_vector(p, rel)
                    assert not any(m.entries)
    assert saw_relations


def test_projective_dims_are_cartan_rows():
    for q in (A3_ALT, D4, A4_SECOND):
        for obj in silting_alg2(q):
            b = endomorphism_algebra(q, obj)
            cart = cartan_data(b).cartan
            assert len(b.projectives) == len(cart)
            verts = b.gabriel.vertices
            for v, p, row in zip(verts, b.projectives, cart):
                assert p.quiver == b.gabriel
                assert p.dims == row
                # the basis paths from v to u, counted independently
                assert row == tuple(
                    sum(1 for s, t, _ in b.basis_paths if (s, t) == (v, u))
                    for u in verts
                )
            assert sum(sum(p.dims) for p in b.projectives) == b.dimension


def test_basis_path_products_concatenate():
    # an arrow sends the basis path p to p followed by the arrow: the unit
    # vector of the concatenation when that is itself a basis path, and
    # otherwise a combination of basis paths with the same endpoints; the
    # path p itself sends the generator e_v to the unit vector at p
    for q in (A3_ALT, D4, A4_SECOND):
        for obj in silting_alg2(q):
            b = endomorphism_algebra(q, obj)
            for a in b.gabriel.arrows:
                assert (a.source, a.target, (a.id,)) in b.basis_paths
            for v, p in zip(b.gabriel.vertices, b.projectives):
                from_v = {u: [] for u in b.gabriel.vertices}
                for s, t, arrs in b.basis_paths:
                    if s == v:
                        from_v[t].append(arrs)
                gen = from_v[v].index(())
                for u, paths in from_v.items():
                    for x, arrs in enumerate(paths):
                        row = act_path(p, v, arrs).row(gen)
                        assert row == _unit(len(paths), x)
                for a in b.gabriel.arrows:
                    src, tgt = from_v[a.source], from_v[a.target]
                    m = p.mat(a.id)
                    assert (m.rows, m.cols) == (len(src), len(tgt))
                    for x, arrs in enumerate(src):
                        if arrs + (a.id,) in tgt:
                            want = _unit(len(tgt), tgt.index(arrs + (a.id,)))
                            assert m.row(x) == want


def test_no_radical_square_in_diagonal_blocks():
    # for i != j, every map T_i -> T_j -> T_i is zero: End(T_i) is the
    # field, so B has no radical element in a diagonal block
    for q in (A3_ALT, D4, A4_SECOND):
        for obj in silting_alg2(q):
            cx = [summand_complex(q, s) for s in obj.summands]
            for i, ti in enumerate(cx):
                for j, tj in enumerate(cx):
                    if i == j:
                        continue
                    for g in hom_class_basis(ti, tj, 0).elements():
                        for f in hom_class_basis(tj, ti, 0).elements():
                            assert compose(g, f).is_zero()


def test_relations_are_admissible_and_reproduce_dimension():
    saw_relations = False
    for q in (A3, D4):
        for obj in silting_alg2(q):
            b = endomorphism_algebra(q, obj)
            for rel in b.relations:
                saw_relations = True
                assert all(len(arrows) >= 2 for arrows, _ in rel.terms)
            # quotient dimension identity is asserted inside; re-check count here
            assert b.dimension == sum(
                1 for _ in b.basis_paths
            )
    assert saw_relations


def test_gabriel_vertices_are_summand_positions():
    for obj in silting_alg2(A3):
        b = endomorphism_algebra(A3, obj)
        assert b.gabriel.vertices == tuple(
            range(1, len(A3.vertices) + 1)
        )


# --- Cartan data ---

def test_cartan_data_single_point():
    b = endomorphism_algebra(A1, _regular_object(A1))
    cd = cartan_data(b)
    assert cd.cartan == ((1,),)
    assert cd.coxeter_polynomial == (1, 1)


def test_cartan_data_a2_path_algebra():
    b = endomorphism_algebra(A2, _regular_object(A2))
    cd = cartan_data(b)
    # summands sort by total dimension, so vertex 1 is P(2) and vertex 2
    # is P(1); this is the usual triangular Cartan matrix re-ordered
    assert cd.cartan == ((1, 0), (1, 1))
    assert cd.coxeter_polynomial == (1, 1, 1)


def test_coxeter_polynomial_orientation_invariant():
    pa = cartan_data(endomorphism_algebra(A3, _regular_object(A3)))
    pb = cartan_data(endomorphism_algebra(A3_ALT, _regular_object(A3_ALT)))
    assert pa.coxeter_polynomial == pb.coxeter_polynomial == (1, 1, 1, 1)


# --- serialization ---

def test_bound_quiver_algebra_json():
    b = endomorphism_algebra(A3, _regular_object(A3))
    d = b.to_json_dict()
    assert set(d) == {"vertices", "arrows", "relations", "dimension"}
    assert d["dimension"] == 6
    json.dumps(d)


def test_rejects_non_silting_input():
    bad = SiltingObject(
        A2,
        tuple(
            sorted(
                [IndId.module((1, 0)), IndId.module((0, 1))],
                key=lambda s: s.key(),
            )
        ),
    )
    with pytest.raises(ValueError, match=re.escape(bad.label())):
        endomorphism_algebra(A2, bad)
