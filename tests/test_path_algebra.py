"""classify's stages on the path algebra KQ, where every answer is known.

KQ is hereditary: the simple S_i has the minimal resolution
0 -> (sum over arrows i -> j of P(j)) -> P(i) -> S_i -> 0.  So the global
dimension is 1 (0 without arrows), Ext^1(S_i, S_j) counts the arrows
i -> j, Ext^2 vanishes, and the tilted type is the Dynkin type of Q.  KQ
is also End of the regular object, so both give one fingerprint.
"""


import pytest

from dynkin_orientations import TYPES_UP_TO_D5, TYPES_WITH_E6, orientations
from silting_reference import from_summands
from silt import complexes, endo, modules
from silt.classify import (
    ext_matrix,
    fingerprint,
    global_dimension,
    homology,
    projective_dimension_of_simples,
    tilted_type,
)
from silt.endo import cartan_data, endomorphism_algebra
from silt.modules import (
    build_representation,
    minimal_presentation,
    minimal_resolution,
    path_algebra,
    projective_dim_vectors,
    projectives,
)
from silt.quivers import (
    dynkin_type,
    parse_quiver,
    path_tables,
    paths_between,
)

E7 = parse_quiver(
    "vertices 1 2 3 4 5 6 7\n"
    "arrows a:1->2 b:2->3 c:4->3 d:5->4 e:6->5 f:7->3\n"
)
E8 = parse_quiver(
    "vertices 1 2 3 4 5 6 7 8\n"
    "arrows a1:1->2 a2:2->3 a3:3->4 a4:4->5 a5:5->6 a6:6->7 a7:3->8\n"
)
D4 = parse_quiver("vertices 1 2 3 4\narrow a:1->3\narrow b:2->3\narrow c:3->4\n")
A4_SECOND = parse_quiver(
    "vertices 1 2 3 4\narrow a:1->2\narrow b:3->2\narrow c:3->4\n"
)
# not Dynkin, so two arrows or two paths can join one pair of vertices
KRONECKER = parse_quiver("vertices 1 2\narrows a:1->2 b:1->2\n")
SQUARE = parse_quiver("vertices 1 2 3 4\narrows a:1->2 b:1->3 c:2->4 d:3->4\n")

CASES = [
    (f"{kind}{n}", [q for _, q in orientations(kind, n)])
    for kind, n in TYPES_WITH_E6
] + [("E7", [E7]), ("E8", [E8])]


def _arrow_counts(q):
    return tuple(
        tuple(
            sum(1 for a in q.arrows if (a.source, a.target) == (u, v))
            for v in q.vertices
        )
        for u in q.vertices
    )


def _assert_homology_matches_resolutions(b):
    h = homology(b)
    assert h.ext1 == ext_matrix(b, 1)
    assert h.ext2 == ext_matrix(b, 2)
    assert h.ext3 == ext_matrix(b, 3)
    assert h.pds == projective_dimension_of_simples(b)


def _regular_object(q):
    return from_summands(q, projective_dim_vectors(q))


def test_cases_cover_every_orientation_plus_e7_and_e8():
    assert sum(len(qs) for _, qs in CASES) == 87 + 2
    assert dynkin_type(E7).label() == "E7"
    assert dynkin_type(E8).label() == "E8"


@pytest.mark.parametrize(
    "quivers", [qs for _, qs in CASES], ids=[k for k, _ in CASES]
)
def test_classify_stages_on_the_path_algebra(quivers):
    for q in quivers:
        b = path_algebra(q)
        n = len(q.vertices)
        assert b.gabriel == q and b.relations == ()
        assert b.dimension == len(path_tables(q)[1])
        assert global_dimension(b) == (1 if q.arrows else 0)
        assert ext_matrix(b, 1) == _arrow_counts(q)
        assert ext_matrix(b, 2) == ((0,) * n,) * n
        _, reps = projectives(b)
        assert tuple(p.dims for p in reps) == projective_dim_vectors(q)
        assert tilted_type(cartan_data(b)) == dynkin_type(q)
        _assert_homology_matches_resolutions(b)


@pytest.mark.parametrize(
    "kind, n", TYPES_UP_TO_D5, ids=[f"{k}{n}" for k, n in TYPES_UP_TO_D5]
)
def test_path_algebra_is_end_of_the_regular_object(kind, n):
    for _, q in orientations(kind, n):
        end = endomorphism_algebra(q, _regular_object(q))
        kq = path_algebra(q)
        assert fingerprint(kq, homology(kq)) == fingerprint(end, homology(end))


@pytest.mark.parametrize(
    "q", [KRONECKER, SQUARE], ids=["kronecker", "square"]
)
def test_resolutions_over_a_path_algebra_beyond_dynkin(q):
    b = path_algebra(q)
    n = len(q.vertices)
    assert global_dimension(b) == 1
    assert ext_matrix(b, 1) == _arrow_counts(q)
    assert ext_matrix(b, 2) == ((0,) * n,) * n
    _, reps = projectives(b)
    assert tuple(p.dims for p in reps) == projective_dim_vectors(q)
    _assert_homology_matches_resolutions(b)
    # each projective is its own minimal resolution
    for v, p in zip(q.vertices, reps):
        assert list(minimal_resolution(b, p)) == [[(v, 0)]]


@pytest.mark.parametrize(
    "q", [D4, A4_SECOND, KRONECKER, SQUARE],
    ids=["d4", "a4_second", "kronecker", "square"],
)
def test_path_algebra_projectives_append_the_arrow(q):
    # P(v): an arrow a sends the basis path p to the unit vector at p a
    b = path_algebra(q)
    pb, index = paths_between(q), path_tables(q)[1]
    basis, reps = projectives(b)
    for v, p_v, paths_from_v in zip(q.vertices, reps, basis):
        assert paths_from_v == tuple(
            pb[(v, u)] for u in q.vertices
        )
        for a in q.arrows:
            width = len(pb[(v, a.target)])
            expected = tuple(
                tuple(int(t == index[(v, p + (a.id,))]) for t in range(width))
                for p in pb[(v, a.source)]
            )
            assert p_v.mat(a.id) == expected


def test_one_algebra_type_and_one_complex_type():
    assert endo.BoundQuiverAlgebra is modules.BoundQuiverAlgebra
    assert complexes.TwoTermComplex is modules.TwoTermComplex
    pres = minimal_presentation(D4, build_representation(D4, (1, 1, 2, 1)))
    assert isinstance(pres, modules.TwoTermComplex)
    assert (pres.deg_minus1, pres.deg0) == ((4,), (1, 2))
