"""Oracle tests for tilting-module and two-term-silting enumeration."""

import itertools
import json
from importlib.resources import files
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import silting_reference
from dynkin_orientations import E6, TYPES_UP_TO_D5, TYPES_WITH_E6, orientations
from endo_reference import is_presilting
from silting_reference import restrict
from silt.cli import FIXTURE_NAMES
from silt import silting
from silt.complexes import hom_class_dim
from silt.linalg import determinant
from silt.quivers import parse_quiver, silting_count, tilting_count
from silt.modules import (
    ar_quiver_two_term,
    build_representation,
    ext1_dim,
    indecomposables,
    is_shift,
    negated,
    projective_dim_vectors,
)
from silt.silting import (
    _rigid_subsets,
    euler_table,
    silting_alg2,
    silting_bruteforce,
    silting_json,
    summand_classes,
    summand_complex,
    tilting_modules_alg1,
    tilting_modules_bruteforce,
    two_term_objects,
)

A1 = parse_quiver("vertices 1\n")
A2 = parse_quiver("vertices 1 2\narrow a:1->2\n")
A3 = parse_quiver("vertices 1 2 3\narrow a:1->2\narrow b:2->3\n")
A3_ALT = parse_quiver("vertices 1 2 3\narrow a:1->3\narrow b:2->3\n")
A4 = parse_quiver("vertices 1 2 3 4\narrow a:1->2\narrow b:2->3\narrow c:3->4\n")
D4 = parse_quiver("vertices 1 2 3 4\narrow a:1->3\narrow b:2->3\narrow c:3->4\n")


def _fixture(name):
    return parse_quiver(
        files("silt").joinpath("fixtures", f"{name}.quiver").read_text()
    )


# --- restrict ---

def test_restrict_drops_vertex_and_keeps_inner_arrows():
    sub = restrict(A3, (1,))
    assert sub.vertices == (2, 3)
    assert [(a.id, a.source, a.target) for a in sub.arrows] == [("b", 2, 3)]


def test_restrict_everything_gives_empty_quiver():
    sub = restrict(A3, (1, 2, 3))
    assert sub.vertices == ()
    assert sub.arrows == ()


def test_restrict_middle_gives_isolated_vertices():
    sub = restrict(A3, (2,))
    assert sub.vertices == (1, 3)
    assert sub.arrows == ()


# --- the table-driven algorithms against the quiver-recursive reference ---

@pytest.mark.parametrize(
    "quivers",
    [
        pytest.param([q for _, q in orientations(k, n)], id=f"{k}{n}")
        for k, n in TYPES_UP_TO_D5
    ]
    + [pytest.param([E6], id="E6")],
)
def test_algorithms_1_and_2_match_the_reference(quivers):
    # equal tuples, in the same order, on every orientation
    for q in quivers:
        assert tilting_modules_alg1(q) == silting_reference.tilting_modules_alg1(q)
        assert silting_alg2(q) == silting_reference.silting_alg2(q)


# --- Algorithm 1 ---

def test_alg1_a1():
    (t,) = tilting_modules_alg1(A1)
    assert summand_classes(A1, t) == ((1,),)


def test_alg1_a2_exact():
    got = {summand_classes(A2, t) for t in tilting_modules_alg1(A2)}
    assert got == {((0, 1), (1, 1)), ((1, 0), (1, 1))}


def test_alg1_counts():
    assert len(tilting_modules_alg1(A3)) == 5
    assert len(tilting_modules_alg1(A4)) == 14
    assert len(tilting_modules_alg1(D4)) == 20


def test_alg1_summands_are_ext_rigid():
    for t in tilting_modules_alg1(A3_ALT):
        reps = [
            build_representation(A3_ALT, d) for d in summand_classes(A3_ALT, t)
        ]
        for x in reps:
            for y in reps:
                assert ext1_dim(A3_ALT, x, y) == 0


def test_tilting_oracle_equivalence():
    for q in (A2, A3, A3_ALT, D4):
        assert tilting_modules_alg1(q) == tilting_modules_bruteforce(q)


def test_tilting_lists_are_sorted_and_basic():
    for q in (A3, D4):
        dims = [sorted(summand_classes(q, t)) for t in tilting_modules_alg1(q)]
        assert dims == sorted(dims)
        for d in dims:
            assert len(d) == len(q.vertices)
            assert len(set(d)) == len(d)


# --- Algorithm 2 ---

def test_alg2_a2_exact():
    got = [silting_json(A2, obj) for obj in silting_alg2(A2)]
    assert sorted((d["I"], d["modules"]) for d in got) == [
        ([], [(0, 1), (1, 1)]),
        ([], [(1, 0), (1, 1)]),
        ([1], [(0, 1)]),
        ([1, 2], []),
        ([2], [(1, 0)]),
    ]


def test_alg2_counts():
    assert len(silting_alg2(A2)) == 5
    assert len(silting_alg2(A3)) == 14
    assert len(silting_alg2(D4)) == 50


def test_silting_oracle_equivalence():
    for q in (A2, A3, A3_ALT, D4):
        assert silting_alg2(q) == silting_bruteforce(q)


def test_a4_bruteforce_count():
    assert len(silting_bruteforce(A4)) == 42


# The brute force takes its objects from the roots, not the AR quiver.
A4_SOURCE_INSIDE = parse_quiver(
    "vertices 1 2 3 4\narrow a:2->1\narrow b:2->3\narrow c:3->4\n"
)
D5_BRANCH_OUT = parse_quiver(
    "vertices 1 2 3 4 5\narrow a:1->2\narrow b:2->3\narrow c:2->4\n"
    "arrow d:4->5\n"
)


@pytest.mark.parametrize(
    "q, count", [(A4_SOURCE_INSIDE, 42), (D5_BRANCH_OUT, 182)]
)
def test_bruteforce_needs_no_ar_quiver(q, count):
    brute = silting_bruteforce(q)
    assert brute == silting_alg2(q)
    assert len(brute) == count


def cluster_number(kind, n):
    """Number of 2-term silting objects, the clusters of the type
    (Fomin-Zelevinsky 2003): binomials for A and D, the E values frozen."""
    if kind == "A":
        return comb(2 * n + 2, n + 1) // (n + 2)
    if kind == "D":
        return (3 * n - 2) * comb(2 * n - 2, n - 1) // n
    return {6: 833, 7: 4160, 8: 25080}[n]


def positive_cluster_number(kind, n):
    """Number of tilting modules, the positive clusters (Fomin-Zelevinsky
    2003; Ringel 2016): binomials for A and D, the E values frozen."""
    if kind == "A":
        return comb(2 * n, n) // (n + 1)
    if kind == "D":
        return (3 * n - 4) * comb(2 * n - 3, n - 1) // n
    return {6: 418, 7: 2431, 8: 17342}[n]


@pytest.mark.parametrize(
    "kind, n", TYPES_UP_TO_D5, ids=[f"{k}{n}" for k, n in TYPES_UP_TO_D5]
)
def test_oracles_agree_on_every_orientation(kind, n):
    for text, q in orientations(kind, n):
        alg2 = set(silting_alg2(q))
        assert len(alg2) == cluster_number(kind, n), text
        assert alg2 == set(silting_bruteforce(q)), text
        alg1 = set(tilting_modules_alg1(q))
        assert len(alg1) == positive_cluster_number(kind, n), text
        assert alg1 == set(tilting_modules_bruteforce(q)), text
        # every object of the four enumerators is a tuple of n strictly
        # increasing positions in two_term_objects(q)
        positions = set(range(len(two_term_objects(q))))
        for enumerate_objects in (
            silting_alg2,
            silting_bruteforce,
            tilting_modules_alg1,
            tilting_modules_bruteforce,
        ):
            for t in enumerate_objects(q):
                assert type(t) is tuple and len(t) == n, text
                assert list(t) == sorted(set(t)) and set(t) <= positions, text


@pytest.mark.parametrize(
    "kind, n",
    TYPES_WITH_E6 + [("E", 7), ("E", 8)],
    ids=[f"{k}{n}" for k, n in TYPES_WITH_E6 + [("E", 7), ("E", 8)]],
)
def test_closed_form_counts_are_the_cluster_numbers(kind, n):
    # the product formulas of silt.quivers against the binomials above
    _, q = orientations(kind, n)[0]
    assert silting_count(q) == cluster_number(kind, n)
    assert tilting_count(q) == positive_cluster_number(kind, n)


def test_closed_form_counts_match_both_algorithms():
    # every fixture and every orientation up to E6, the quivers --oracle
    # checks the counts on
    quivers = [_fixture(name) for name in FIXTURE_NAMES] + [
        q for kind, n in TYPES_WITH_E6 for _, q in orientations(kind, n)
    ]
    for q in quivers:
        assert silting_count(q) == len(silting_alg2(q)), q
        assert tilting_count(q) == len(tilting_modules_alg1(q)), q
    assert len(quivers) == 97


def test_closed_form_counts_multiply_over_components():
    # A2 + A1 + D4: silting 5 * 2 * 50, tilting 2 * 1 * 20
    q = parse_quiver(
        "vertices 1 2 3 4 5 6 7\narrows a:1->2 b:4->6 c:5->6 d:6->7\n"
    )
    assert (silting_count(q), tilting_count(q)) == (500, 40)
    assert len(silting_alg2(q)) == 500
    assert len(tilting_modules_alg1(q)) == 40


def test_silting_classes_are_a_basis_of_the_grothendieck_group():
    # Adachi-Iyama-Reiten: the classes of the summands of a two-term
    # silting object form a Z-basis of K_0, with [M] = dim M for a module
    # and [P(v)[1]] = -dim P(v)
    quivers = [
        q for kind, n in TYPES_UP_TO_D5 for _, q in orientations(kind, n)
    ] + [E6]
    objects = 0
    for q in quivers:
        for obj in silting_alg2(q):
            assert determinant(summand_classes(q, obj)) in (1, -1), obj
            objects += 1
    assert (len(quivers), objects) == (56, 6661)


def test_e6_counts_are_the_cluster_numbers():
    assert len(silting_alg2(E6)) == 833
    assert len(tilting_modules_alg1(E6)) == positive_cluster_number("E", 6) == 418


@st.composite
def rigidity_tables(draw):
    m = draw(st.integers(min_value=0, max_value=9))
    n = draw(st.integers(min_value=0, max_value=4))
    vals = draw(
        st.lists(
            st.sampled_from((0, 0, 0, 1, 2)), min_size=m * m, max_size=m * m
        )
    )
    items = [f"x{i}" for i in range(m)]
    table = {
        (items[i], items[j]): vals[i * m + j]
        for i in range(m)
        for j in range(m)
    }
    return n, items, table


@given(rigidity_tables())
@settings(max_examples=300, deadline=None)
def test_rigid_subsets_match_combinations_filter(case):
    n, items, table = case
    want = [
        c
        for c in itertools.combinations(range(len(items)), n)
        if all(table[(items[i], items[j])] == 0 for i in c for j in c)
    ]
    vanishes = lambda i, j: table[(items[i], items[j])] == 0
    assert _rigid_subsets(n, len(items), vanishes) == want


@given(rigidity_tables())
@settings(max_examples=300, deadline=None)
def test_rigid_subsets_evaluate_each_ordered_pair_once(case):
    n, items, table = case
    seen = []

    def vanishes(i, j):
        seen.append((i, j))
        return table[(items[i], items[j])] == 0

    _rigid_subsets(n, len(items), vanishes)
    assert len(seen) == len(set(seen))


TEN_FIXTURES_AND_E6 = [
    pytest.param(_fixture(name), id=name) for name in FIXTURE_NAMES
] + [pytest.param(E6, id="e6")]


@pytest.mark.parametrize("q", TEN_FIXTURES_AND_E6)
def test_hom_shift1_table_is_the_euler_form_table(q):
    # the Hom complex route and the integer K_0 route share no code: over
    # every ordered pair, Hom(X, Y) = max(0, chi) and Hom(X, Y[1]) is
    # max(0, -chi) into a module and 0 into a shifted projective
    objs = two_term_objects(q)
    chi = euler_table(q)
    cx = [summand_complex(q, o) for o in objs]
    pairs = [(a, b) for a in range(len(objs)) for b in range(len(objs))]
    assert len(pairs) == len(chi) ** 2 == len(objs) ** 2
    for a, b in pairs:
        x, y = cx[a], cx[b]
        assert hom_class_dim(x, y, 0) == max(0, chi[a][b]), (objs[a], objs[b])
        shift1 = 0 if is_shift(objs[b]) else max(0, -chi[a][b])
        assert hom_class_dim(x, y, 1) == shift1, (objs[a], objs[b])


@pytest.mark.parametrize("q", TEN_FIXTURES_AND_E6)
def test_rigid_subsets_of_the_euler_table_are_silting_alg2(q):
    # a third enumeration: the rigid n-sets of the K_0 rigidity table,
    # with no Hom space computed, are the positions of silting_alg2
    objs = two_term_objects(q)
    chi = euler_table(q)
    rigid = _rigid_subsets(
        len(q.vertices),
        len(objs),
        lambda a, b: is_shift(objs[b]) or chi[a][b] >= 0,
    )
    assert rigid == list(silting_alg2(q))


@pytest.mark.parametrize("q", TEN_FIXTURES_AND_E6)
def test_two_term_objects_are_key_ordered_and_oracles_agree_in_order(q):
    # the modules by dimension and then lexicographically, then the
    # shifted projectives P(v)[1] by dim P(v)
    objs, m = two_term_objects(q), len(indecomposables(q))
    modules, shifts = objs[:m], objs[m:]
    keys = [(0, sum(d), d) for d in modules] + [(1, negated(c)) for c in shifts]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert len(objs) == m + len(q.vertices)
    assert not any(map(is_shift, modules)) and all(map(is_shift, shifts))
    assert sorted(map(negated, shifts)) == sorted(projective_dim_vectors(q))
    # the same tuple, in the same order, not only the same set
    assert silting_bruteforce(q) == silting_alg2(q)


# A3 relabelled, so that no enumeration of it is cached
A3_COLD = parse_quiver("vertices 41 42 43\narrows a:41->42 b:42->43\n")


def test_tilting_bruteforce_ranks_module_pairs_only(monkeypatch):
    seen = []

    def spy(x, y, k):
        seen.append((x, y, k))
        return hom_class_dim(x, y, k)

    monkeypatch.setattr(silting, "hom_class_dim", spy)
    assert len(tilting_modules_bruteforce(A3_COLD)) == 5
    assert seen
    # a shifted projective P(v)[1] is the complex with nothing in degree 0
    assert all(x.deg0 and y.deg0 and k == 1 for x, y, k in seen)


def test_opposite_duality_of_counts():
    from silt.quivers import opposite

    for q in (A3, D4):
        assert len(silting_alg2(q)) == len(silting_alg2(opposite(q)))


def test_counts_depend_only_on_type():
    assert len(silting_alg2(A3)) == len(silting_alg2(A3_ALT))
    a3_rev = parse_quiver("vertices 1 2 3\narrow a:2->1\narrow b:2->3\n")
    assert len(silting_alg2(a3_rev)) == 14


def test_tilting_modules_are_the_unshifted_silting_objects():
    quivers = [
        q for kind, n in TYPES_UP_TO_D5 for _, q in orientations(kind, n)
    ] + [E6]
    for q in quivers:
        unshifted = {
            o for o in silting_alg2(q) if not silting_json(q, o)["I"]
        }
        assert set(tilting_modules_alg1(q)) == unshifted


def test_module_part_is_supported_off_shifted_set():
    for q in (A3, D4):
        for obj in silting_alg2(q):
            d = silting_json(q, obj)
            for v in d["I"]:
                i = q.index(v)
                assert all(m[i] == 0 for m in d["modules"])


# --- presilting predicate ---

def test_projectives_are_presilting():
    assert is_presilting(A3, projective_dim_vectors(A3))


def test_ext_pair_is_not_presilting():
    assert not is_presilting(A2, [(1, 0), (0, 1)])


def test_module_plus_shifted_projective_presilting():
    assert is_presilting(A2, [(0, 1), (-1, -1)])  # S(2) + P(1)[1]


def test_every_enumerated_object_is_presilting():
    for obj in silting_alg2(A3_ALT):
        assert is_presilting(A3_ALT, summand_classes(A3_ALT, obj))


# --- serialization ---

def test_silting_json_shape():
    obj = sorted(
        silting_alg2(A2), key=lambda o: (len(silting_json(A2, o)["I"]), o)
    )[-1]
    d = silting_json(A2, obj)
    assert set(d) == {"I", "modules"}
    assert d["I"] == [1, 2]
    assert d["modules"] == []
    json.dumps(d)  # serializable


def test_silting_ascii_marks_exactly_the_summands():
    ar = ar_quiver_two_term(A2)
    for obj in silting_alg2(A2):
        art = ar.to_ascii(selected=set(summand_classes(A2, obj)))
        assert art.count("•") == len(obj)
        assert art.count("∘") == 5 - len(obj)


def test_summand_complex_kinds():
    x = summand_complex(A2, (1, 0))
    assert x.deg_minus1 == (2,) and x.deg0 == (1,)
    y = summand_complex(A2, (0, -1))  # P(2)[1]
    assert y.deg_minus1 == (2,) and y.deg0 == ()
