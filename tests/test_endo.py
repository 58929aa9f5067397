"""Oracle tests for endomorphism algebras of silting objects."""

import json

import pytest

from silt.quivers import parse_quiver, path_basis, quivers_isomorphic
from silt.modules import IndId, projective_dim_vectors
from silt.silting import SiltingObject, silting_alg2, summand_complex
from silt.complexes import hom_class_dim
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


def test_multiplication_associative_on_basis():
    # the table's coordinates come from one inverse of the path-class basis
    for q in (A2, A3_ALT, D4, A4_SECOND):
        for obj in silting_alg2(q):
            b = endomorphism_algebra(q, obj)
            n = b.dimension
            for x in range(n):
                for y in range(n):
                    xy = b.multiply_coords(b.unit_coords(x), b.unit_coords(y))
                    for z in range(n):
                        lhs = b.multiply_coords(xy, b.unit_coords(z))
                        rhs = b.multiply_coords(
                            b.unit_coords(x),
                            b.multiply_coords(b.unit_coords(y), b.unit_coords(z)),
                        )
                        assert lhs == rhs


def test_basis_path_products_concatenate():
    # x.y is the concatenated path: zero unless the paths compose, the
    # unit vector when the concatenation is itself a basis path, and
    # otherwise a combination of basis paths with the same endpoints.
    for q in (A3_ALT, D4, A4_SECOND):
        for obj in silting_alg2(q):
            b = endomorphism_algebra(q, obj)
            index = {p: z for z, p in enumerate(b.basis_paths)}
            for x, (s, t, px) in enumerate(b.basis_paths):
                for y, (t2, u, py) in enumerate(b.basis_paths):
                    got = b.mult[x][y]
                    if t != t2:
                        assert not any(got)
                    elif (s, u, px + py) in index:
                        assert got == b.unit_coords(index[(s, u, px + py)])
                    else:
                        assert all(
                            c == 0 or b.basis_paths[z][:2] == (s, u)
                            for z, c in enumerate(got)
                        )


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


def test_dot_marks_relations_dotted():
    found = None
    for obj in silting_alg2(A3):
        b = endomorphism_algebra(A3, obj)
        if b.relations:
            found = b
            break
    assert found is not None
    dot = found.to_dot()
    assert dot.startswith("digraph")
    assert "dotted" in dot


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
    with pytest.raises(ValueError):
        endomorphism_algebra(A2, bad)
