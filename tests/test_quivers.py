"""Oracle tests for quivers: parsing, Dynkin recognition, paths, forms."""

import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linalg_reference import inverse
from silt.modules import projective_dim_vectors
from silt.quivers import (
    Arrow,
    DynkinType,
    NotDynkinError,
    Quiver,
    QuiverCycleError,
    QuiverSyntaxError,
    coxeter_matrix,
    dynkin_type,
    euler_form,
    opposite,
    parse_quiver,
    path_tables,
    paths_between,
    single_path,
)

A2 = parse_quiver("vertices 1 2\narrow a:1->2\n")
A3_LIN = parse_quiver("vertices 1 2 3\narrow a:1->2\narrow b:2->3\n")
D4 = parse_quiver("vertices 1 2 3 4\narrow a:1->3\narrow b:2->3\narrow c:3->4\n")
D5 = parse_quiver(
    "vertices 1 2 3 4 5\narrow a:1->3\narrow b:2->3\narrow c:3->4\narrow d:4->5\n"
)


# --- parsing ---

def test_parse_a2():
    assert A2.vertices == (1, 2)
    assert len(A2.arrows) == 1
    assert (A2.arrows[0].source, A2.arrows[0].target) == (1, 2)


def test_parse_semicolon_and_comments():
    q = parse_quiver("# a comment\nvertices 1 2; arrow a:1->2  # trailing\n")
    assert q == A2


def test_parse_compact_arrows_keyword():
    q = parse_quiver("vertices 1 2 3; arrows a:1->2 b:2->3")
    assert q == A3_LIN


def test_parse_loop_is_cycle_error():
    with pytest.raises(QuiverCycleError):
        parse_quiver("vertices 1\narrow a:1->1\n")


def test_parse_directed_cycle_error():
    with pytest.raises(QuiverCycleError):
        parse_quiver("vertices 1 2\narrow a:1->2\narrow b:2->1\n")


def test_parse_duplicate_vertex_error():
    with pytest.raises(QuiverSyntaxError):
        parse_quiver("vertices 1 1\n")


def test_parse_duplicate_arrow_id_error():
    with pytest.raises(QuiverSyntaxError):
        parse_quiver("vertices 1 2 3\narrow a:1->2\narrow a:2->3\n")


def test_parse_unknown_vertex_error():
    with pytest.raises(QuiverSyntaxError):
        parse_quiver("vertices 1 2\narrow a:1->3\n")


def test_parse_garbage_error():
    with pytest.raises(QuiverSyntaxError):
        parse_quiver("vortices 1 2\n")


def test_parse_json_equivalent():
    payload = {
        "vertices": [1, 2, 3, 4, 5],
        "arrows": [
            {"id": "a", "source": 1, "target": 3},
            {"id": "b", "source": 2, "target": 3},
            {"id": "c", "source": 3, "target": 4},
            {"id": "d", "source": 4, "target": 5},
        ],
    }
    assert parse_quiver(json.dumps(payload)) == D5


# labels must be JSON integers and both fields lists; nothing is converted
BAD_JSON = {
    "float vertex": {"vertices": [1.5, 2.7]},
    "float source": {
        "vertices": [1, 2], "arrows": [{"id": "a", "source": 1.2, "target": 2}]
    },
    "bool vertex": {"vertices": [True, 2]},
    "bool target": {
        "vertices": [1, 2], "arrows": [{"id": "a", "source": 1, "target": False}]
    },
    "string vertex": {"vertices": ["1", "2"]},
    "string source": {
        "vertices": [1, 2], "arrows": [{"id": "a", "source": "1", "target": 2}]
    },
    "string vertices": {"vertices": "12"},
    "object vertices": {"vertices": {"1": 1}},
    "object arrows": {"vertices": [1, 2], "arrows": {"id": "a"}},
    "null arrows": {"vertices": [1, 2], "arrows": None},
    "no vertices": {"arrows": []},
}

# arrow ids must be JSON strings of word characters, as in the text format
BAD_ARROW_IDS = {"null id": None, "list id": [1], "integer id": 1, "spaced id": "a b"}


@pytest.mark.parametrize(
    "arrow_id", BAD_ARROW_IDS.values(), ids=BAD_ARROW_IDS.keys()
)
def test_parse_json_rejects_arrow_ids_that_are_not_words(arrow_id):
    payload = {
        "vertices": [1, 2],
        "arrows": [{"id": arrow_id, "source": 1, "target": 2}],
    }
    with pytest.raises(QuiverSyntaxError, match="arrow id"):
        parse_quiver(json.dumps(payload))


@pytest.mark.parametrize("payload", BAD_JSON.values(), ids=BAD_JSON.keys())
def test_parse_json_rejects_labels_that_are_not_integers(payload):
    with pytest.raises(QuiverSyntaxError):
        parse_quiver(json.dumps(payload))


# --- dynkin_type ---

def test_dynkin_a3():
    assert dynkin_type(A3_LIN) == DynkinType((("A", 3),))


def test_dynkin_d4():
    assert dynkin_type(D4) == DynkinType((("D", 4),))


def test_dynkin_d5():
    assert dynkin_type(D5) == DynkinType((("D", 5),))


def test_dynkin_square_not_dynkin():
    sq = parse_quiver(
        "vertices 1 2 3 4\narrow a:1->2\narrow b:1->3\narrow c:2->4\narrow d:3->4\n"
    )
    with pytest.raises(NotDynkinError):
        dynkin_type(sq)


def test_dynkin_double_arrow_not_dynkin():
    kr = parse_quiver("vertices 1 2\narrow a:1->2\narrow b:1->2\n")
    with pytest.raises(NotDynkinError):
        dynkin_type(kr)


def test_dynkin_disconnected_components_sorted():
    q = parse_quiver("vertices 1 2 3\narrow a:1->2\n")
    assert dynkin_type(q) == DynkinType((("A", 2), ("A", 1)))
    assert dynkin_type(q).label() == "A2⊔A1"


def test_dynkin_label_multiset():
    q = parse_quiver("vertices 1 2 3\n")
    assert dynkin_type(q).label() == "A1⊔A1⊔A1"


# --- opposite ---

def test_opposite_reverses():
    op = opposite(A2)
    assert op.vertices == (1, 2)
    assert (op.arrows[0].source, op.arrows[0].target) == (2, 1)


def test_opposite_involution():
    for q in (A2, A3_LIN, D4, D5):
        assert opposite(opposite(q)) == q


def test_opposite_preserves_type():
    for q in (A2, A3_LIN, D4, D5):
        assert dynkin_type(opposite(q)) == dynkin_type(q)


# --- path_tables ---

def _path_count(q):
    return sum(map(len, path_tables(q)[0].values()))


def _reference_paths(q):
    """Every path of q by a plain depth-first search over its arrows,
    each (u, v) list sorted by length, then arrow ids."""
    table = {(u, v): [] for u in q.vertices for v in q.vertices}

    def walk(u, v, p):
        table[(u, v)].append(p)
        for a in q.arrows:
            if a.source == v:
                walk(u, a.target, p + (a.id,))

    for u in q.vertices:
        walk(u, u, ())
    return {k: sorted(ps, key=lambda p: (len(p), p)) for k, ps in table.items()}


def _assert_tables_match_reference(q):
    table, index = path_tables(q)
    expected = _reference_paths(q)
    assert table.keys() == expected.keys()
    for (u, v), paths in table.items():
        # every path from u to v exactly once, in (length, arrow ids) order
        assert list(paths) == expected[(u, v)]
        assert len(set(paths)) == len(paths)
        if u == v:
            assert paths[0] == ()
        for k, p in enumerate(paths):
            assert index[(u, p)] == k
    assert len(index) == sum(map(len, expected.values()))


def test_path_basis_a2():
    table, index = path_tables(A2)
    assert table == {(1, 1): ((),), (1, 2): (("a",),), (2, 1): (), (2, 2): ((),)}
    assert index == {(1, ()): 0, (1, ("a",)): 0, (2, ()): 0}


def test_path_basis_a3():
    table = path_tables(A3_LIN)[0]
    assert _path_count(A3_LIN) == 6
    pairs = ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))
    assert [table[k] for k in pairs] == [
        ((),), (("a",),), (("a", "b"),), ((),), (("b",),), ((),)
    ]


def test_path_basis_single_vertex():
    q = parse_quiver("vertices 7\n")
    assert path_tables(q) == ({(7, 7): ((),)}, {(7, ()): 0})


def test_path_basis_linear_count():
    # n(n+1)/2 paths on the linear A_n quiver
    q = parse_quiver(
        "vertices 1 2 3 4 5; arrows a:1->2 b:2->3 c:3->4 d:4->5"
    )
    assert _path_count(q) == 15


def test_path_index_points_into_paths_between():
    for q in (A2, A3_LIN, D4, D5):
        pb, index = paths_between(q), path_tables(q)[1]
        assert len(index) == _path_count(q)
        for (u, v), paths in pb.items():
            for k, p in enumerate(paths):
                assert index[(u, p)] == k


def test_path_tables_order_by_arrow_ids_not_input_order():
    # two arrows and three paths 1 -> 3; ids listed out of order
    q = parse_quiver("vertices 1 2 3\narrows d:1->3 b:1->2 a:1->2 c:2->3\n")
    assert path_tables(q)[0][(1, 3)] == (("d",), ("a", "c"), ("b", "c"))
    _assert_tables_match_reference(q)


def test_single_path_is_a_tuple_or_none():
    assert single_path(A3_LIN, 1, 3) == ("a", "b")
    assert single_path(D4, 2, 4) == ("b", "c")
    for q in (A2, A3_LIN, D4, D5):
        for v in q.vertices:
            assert single_path(q, v, v) == ()
    assert single_path(A3_LIN, 3, 1) is None
    assert single_path(D4, 1, 2) is None
    square = parse_quiver("vertices 1 2 3 4\narrows a:1->2 b:2->4 c:1->3 d:3->4\n")
    with pytest.raises(ValueError, match="2 paths run from vertex 1 to vertex 4"):
        single_path(square, 1, 4)


def test_quiver_hash_is_stored_field_hash():
    text = "vertices 1 2 3 4\narrow a:1->3\narrow b:2->3\narrow c:3->4\n"
    q, r = parse_quiver(text), parse_quiver(text)
    assert q == r and q is not r
    assert hash(q) == hash(r)
    assert hash(q) == hash((q.vertices, q.arrows))
    assert q._hash == hash(q)  # stored
    # the stored value stays out of pickles: str hashes are per process
    back = pickle.loads(pickle.dumps(q))
    assert back == q and back._hash is None


# --- euler_form ---

def test_euler_a2_diagonal():
    assert euler_form(A2, (1, 1), (1, 1)) == 1


def test_euler_zero_vector():
    assert euler_form(D5, (0, 0, 0, 0, 0), (1, 2, 3, 1, 1)) == 0


def test_euler_a2_off_diagonal():
    assert euler_form(A2, (1, 0), (0, 1)) == -1
    assert euler_form(A2, (0, 1), (1, 0)) == 0


# --- cartan / coxeter ---

def test_cartan_a2():
    assert projective_dim_vectors(A2) == ((1, 1), (0, 1))


def test_cartan_a3():
    assert projective_dim_vectors(A3_LIN) == ((1, 1, 1), (0, 1, 1), (0, 0, 1))


def apply_phi(q, d):
    phi = coxeter_matrix(projective_dim_vectors(q))
    n = len(d)
    return tuple(
        sum(d[i] * phi[i][j] for i in range(n)) for j in range(n)
    )


def test_coxeter_a2_translate():
    assert apply_phi(A2, (1, 0)) == (0, 1)


def test_coxeter_a3_translate():
    assert apply_phi(A3_LIN, (1, 1, 0)) == (0, 1, 1)


def test_coxeter_invertible():
    for q in (A2, A3_LIN, D4, D5):
        phi = coxeter_matrix(projective_dim_vectors(q))
        assert all(type(e) is int for row in phi for e in row)
        inverse(phi)  # raises if singular


def test_coxeter_matrix_rejects_singular_and_non_integral_cartan():
    with pytest.raises(ValueError, match="singular"):
        coxeter_matrix(((1, 1), (1, 1)))
    # det 2: C^{-1} C^T has entries 1/2
    with pytest.raises(RuntimeError, match="not integral"):
        coxeter_matrix(((2, 1), (0, 1)))
    assert coxeter_matrix(()) == ()


# --- properties over random acyclic quivers ---

@st.composite
def acyclic_quivers(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=6)) if pairs else []
    lines = ["vertices " + " ".join(str(i) for i in range(1, n + 1))]
    for k, (i, j) in enumerate(sorted(chosen)):
        lines.append(f"arrow x{k}:{i}->{j}")
    return parse_quiver("\n".join(lines))


@given(acyclic_quivers())
@settings(max_examples=80, deadline=None)
def test_opposite_involution_property(q):
    assert opposite(opposite(q)) == q


@given(acyclic_quivers())
@settings(max_examples=80, deadline=None)
def test_path_count_equals_cartan_sum(q):
    total = sum(sum(row) for row in projective_dim_vectors(q))
    assert _path_count(q) == total


@given(acyclic_quivers(), st.data())
@settings(max_examples=80, deadline=None)
def test_path_tables_match_a_depth_first_enumeration(q, data):
    # acyclic_quivers names arrows in source order; shuffle the ids so
    # that a level's arrow-id order differs from the walk's
    ids = data.draw(st.permutations([a.id for a in q.arrows]))
    q = Quiver(
        q.vertices,
        tuple(Arrow(i, a.source, a.target) for i, a in zip(ids, q.arrows)),
    )
    _assert_tables_match_reference(q)


@given(acyclic_quivers(), st.data())
@settings(max_examples=60, deadline=None)
def test_euler_form_matches_cartan_inverse(q, data):
    n = len(q.vertices)
    d = tuple(data.draw(st.integers(0, 3)) for _ in range(n))
    e = tuple(data.draw(st.integers(0, 3)) for _ in range(n))
    c_inv = inverse(projective_dim_vectors(q))
    expected = sum(
        d[i] * c_inv[i][j] * e[j] for i in range(n) for j in range(n)
    )
    assert euler_form(q, d, e) == expected
