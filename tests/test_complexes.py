"""Oracle tests for two-term complexes of projectives and homotopy Hom spaces."""

import pickle
import random

from importlib.resources import files
from pathlib import Path

import pytest

from silt.cli import FIXTURE_NAMES
from silt.linalg import Matrix, kernel_basis, reduce_by_rref, row_space_rref
from silt.quivers import PathVector, parse_quiver, paths_between
from silt.modules import (
    build_representation,
    ext1_dim,
    hom_dim,
    indecomposables,
    minimal_presentation,
)
from silt.complexes import (
    TwoTermComplex,
    _cokernels,
    _layout,
    compose,
    hom_class_basis,
    hom_class_dim,
    resolve_dim,
    shifted_projective,
)

from complexes_reference import hom_shift_dim
from dynkin_orientations import E6, TYPES_WITH_E6, orientations
from path_vector_maps import (
    compose_mats,
    compose_reference,
    diff_mat,
    identity_reference,
    mat_to_vec,
    mats,
    pv_add,
    pv_mul,
    pv_scale,
    pv_zero,
    vec_to_mat,
)

A2 = parse_quiver("vertices 1 2\narrow a:1->2\n")
A3 = parse_quiver("vertices 1 2 3\narrow a:1->2\narrow b:2->3\n")
D4 = parse_quiver("vertices 1 2 3 4\narrow a:1->3\narrow b:2->3\narrow c:3->4\n")
A4_SECOND = parse_quiver("vertices 1 2 3 4\narrow a:1->2\narrow b:3->2\narrow c:3->4\n")


def two_term_complexes(q):
    objs = [resolve_dim(q, d) for d in indecomposables(q)]
    return objs + [shifted_projective(q, v) for v in q.vertices]


def zero_row(x, y):
    """The zero chain map X -> Y, as a row of Hom-complex coordinates."""
    q = x.quiver
    return [0] * (
        _layout(q, x.deg0, y.deg0)[1]
        + _layout(q, x.deg_minus1, y.deg_minus1)[1]
    )


# --- resolve ---

def test_resolve_projective_is_stalk():
    x = minimal_presentation(A2, build_representation(A2, (1, 1)))
    assert x.deg0 == (1,)
    assert x.deg_minus1 == ()
    assert x.diff == ((),)


def test_resolve_simple_top_a2():
    x = resolve_dim(A2, (1, 0))
    assert x.deg0 == (1,)
    assert x.deg_minus1 == (2,)
    # the coefficient of the one path 1 -> 2, the arrow a
    assert x.diff == ((1,),)
    assert diff_mat(x)[0][0] == PathVector.make(1, 2, {("a",): 1})


def test_resolve_dim_matches_resolve():
    for d in indecomposables(A3):
        m = build_representation(A3, d)
        assert resolve_dim(A3, d) == minimal_presentation(A3, m)


def test_resolve_differential_entries_are_radical():
    for d in indecomposables(D4):
        x = resolve_dim(D4, d)
        for row in diff_mat(x):
            for pv in row:
                assert all(len(arrows) >= 1 for arrows, _ in pv.terms)


def test_complex_validates_entry_endpoints():
    # P(1) -> P(2) is zero in A2: no path runs from 2 to 1
    assert TwoTermComplex(A2, (1,), (2,), ((0,),)).diff == ((0,),)
    with pytest.raises(ValueError, match="no path runs from 2 to 1"):
        TwoTermComplex(A2, (1,), (2,), ((1,),))


# --- shifted projectives ---

def test_shifted_projective_shape():
    x = shifted_projective(A2, 2)
    assert x.deg_minus1 == (2,)
    assert x.deg0 == ()
    assert x.diff == ()


# --- hom_class_basis: dimensions ---

def test_end_of_indecomposable_is_one_dimensional():
    x = resolve_dim(A2, (1, 1))
    assert hom_class_dim(x, x, 0) == 1


def test_shift_one_recovers_ext1_a2():
    x = resolve_dim(A2, (1, 0))
    y = resolve_dim(A2, (0, 1))
    assert hom_class_dim(x, y, 1) == 1


def test_no_maps_from_shifted_to_module():
    x = shifted_projective(A2, 1)
    y = resolve_dim(A2, (0, 1))
    assert hom_class_dim(x, y, 0) == 0


def test_large_shifts_vanish_and_minus_one_rejected():
    x = resolve_dim(A2, (1, 1))
    y = resolve_dim(A2, (0, 1))
    for k in (2, 3, -2, -5):
        assert hom_class_dim(x, y, k) == 0
    with pytest.raises(ValueError):
        hom_class_dim(x, y, -1)
    # only Hom(X, Y) has a basis; Hom(X, Y[1]) is only a dimension
    for k in (1, -1, 2):
        with pytest.raises(ValueError):
            hom_class_basis(x, y, k)


def test_hom_dims_match_module_homs_exhaustively():
    # the shift-1 dimensions are the table both brute-force oracles read,
    # so this cross-checks it against the module-side Ext^1 on every
    # fixture, every orientation of D5 and the shared E6
    for q in _fixtures() + [q for _, q in orientations("D", 5)] + [E6]:
        for dm in indecomposables(q):
            m = build_representation(q, dm)
            x = minimal_presentation(q, m)
            for dn in indecomposables(q):
                n = build_representation(q, dn)
                y = minimal_presentation(q, n)
                assert hom_class_dim(x, y, 0) == hom_dim(q, m, n)
                assert hom_class_dim(x, y, 1) == ext1_dim(q, m, n)


def _fixtures():
    return [
        parse_quiver(
            files("silt").joinpath("fixtures", f"{name}.quiver").read_text()
        )
        for name in FIXTURE_NAMES
    ]


# the benchmark's E7 quiver; the file is only read
E7_BENCH = parse_quiver(
    (Path(__file__).resolve().parents[1] / "perfbench" / "e7.quiver").read_text()
)


def _assert_shift_one_matches_the_whole_differential(q):
    objs = two_term_complexes(q)
    for x in objs:
        for y in objs:
            assert hom_class_dim(x, y, 1) == hom_shift_dim(x, y), (x, y)


@pytest.mark.parametrize(
    "kind, n", [pytest.param(k, n, id=f"{k}{n}") for k, n in TYPES_WITH_E6]
)
def test_shift_one_matches_the_whole_differential_on_every_orientation(kind, n):
    # the two-quotient route against the rank of all of d^0, for every
    # ordered pair of two-term objects
    for _, q in orientations(kind, n):
        _assert_shift_one_matches_the_whole_differential(q)


def test_shift_one_matches_the_whole_differential_on_fixtures_and_e7():
    for q in _fixtures() + [E7_BENCH]:
        _assert_shift_one_matches_the_whole_differential(q)


def _random_complexes(q, rng, count):
    """Complexes with up to three summands a side, repeats allowed, and
    coefficients in -1..1 wherever a path runs, whose cokernel table has
    an integral RREF (silt's elimination raises otherwise)."""
    out = []
    while len(out) < count:
        minus1, zero = (
            tuple(rng.choice(q.vertices) for _ in range(rng.randint(0, 3)))
            for _ in range(2)
        )
        diff = tuple(
            tuple(
                rng.randint(-1, 1) if paths_between(q)[(b, a)] else 0
                for a in minus1
            )
            for b in zero
        )
        y = TwoTermComplex(q, minus1, zero, diff)
        try:
            _cokernels(y)
        except RuntimeError:
            continue
        out.append(y)
    return out


def test_shift_one_matches_the_whole_differential_on_any_signs():
    # a presentation's differential has its entries on a tree, where a
    # sign can be moved into a basis vector; with repeated summands the
    # signs of these complexes matter
    rng = random.Random(39)
    for q in (A3, D4, A4_SECOND):
        objs = _random_complexes(q, rng, 40)
        for x in objs:
            for y in objs:
                assert hom_class_dim(x, y, 1) == hom_shift_dim(x, y), (x, y)


def test_cokernel_table_is_the_module_at_each_vertex():
    # N_w is H^0 at w: the module's space for its presentation, zero for
    # P(v)[1]; a free summand's coordinates are a unit vector
    for q in _fixtures() + [E6]:
        for d in indecomposables(q):
            table = _cokernels(resolve_dim(q, d))
            assert tuple(len(table[w][0]) for w in q.vertices) == d
            for w in q.vertices:
                free, coords = table[w]
                for k, j in enumerate(free):
                    assert coords[j] == [int(i == k) for i in range(len(free))]
        for v in q.vertices:
            table = _cokernels(shifted_projective(q, v))
            assert all(table[w][0] == [] for w in q.vertices)


# k = 0 only: Hom(X, Y[1]) has no basis to compare its dimension with
@pytest.mark.parametrize(
    "q, k",
    [
        pytest.param(D4, 0, id="d4-k0"),
        pytest.param(A4_SECOND, 0, id="a4_second-k0"),
    ],
)
def test_shift_one_dim_is_basis_size(q, k):
    # hom_class_dim takes ranks in the Hom complex, hom_class_basis
    # builds the basis
    objs = two_term_complexes(q)
    for x in objs:
        for y in objs:
            assert hom_class_dim(x, y, k) == hom_class_basis(x, y, k).dim()


def _homotopy_rref_by_unit_vectors(x, y):
    """Shift-1 homotopy RREF built one unit vector at a time: the image of
    h -> h d_X on Hom(X^0, Y^0), then of h -> d_Y h on Hom(X^{-1}, Y^{-1})."""
    q = x.quiver
    _, total = _layout(q, x.deg_minus1, y.deg0)
    rows = []
    for srcs, tgts, image in (
        (x.deg0, y.deg0, lambda h: compose_mats(
            x.deg_minus1, x.deg0, y.deg0, h, diff_mat(x))),
        (x.deg_minus1, y.deg_minus1, lambda h: compose_mats(
            x.deg_minus1, y.deg_minus1, y.deg0, diff_mat(y), h)),
    ):
        _, n = _layout(q, srcs, tgts)
        for t in range(n):
            unit = [int(s == t) for s in range(n)]
            h = vec_to_mat(q, srcs, tgts, unit)
            rows.append(mat_to_vec(q, x.deg_minus1, y.deg0, image(h)))
    return row_space_rref(rows)


def _hom0_by_unit_vectors(x, y):
    """Hom(X, Y) built one unit vector at a time: the chain maps are the
    kernel of (f_0, f) -> f_0 d_X - d_Y f, the null-homotopic maps the
    span of (d_Y h, h d_X), all through path-vector matrices."""
    q = x.quiver
    _, n0 = _layout(q, x.deg0, y.deg0)
    _, nm = _layout(q, x.deg_minus1, y.deg_minus1)
    _, nw = _layout(q, x.deg_minus1, y.deg0)
    _, nh = _layout(q, x.deg0, y.deg_minus1)

    def units(n):
        return [[int(s == t) for s in range(n)] for t in range(n)]

    cols = []
    for vec in units(n0 + nm):
        f0 = vec_to_mat(q, x.deg0, y.deg0, vec[:n0])
        fm = vec_to_mat(q, x.deg_minus1, y.deg_minus1, vec[n0:])
        lhs = compose_mats(x.deg_minus1, x.deg0, y.deg0, f0, diff_mat(x))
        rhs = compose_mats(x.deg_minus1, y.deg_minus1, y.deg0, diff_mat(y), fm)
        defect = tuple(
            tuple(pv_add(a, pv_scale(b, -1)) for a, b in zip(ra, rb))
            for ra, rb in zip(lhs, rhs)
        )
        cols.append(mat_to_vec(q, x.deg_minus1, y.deg0, defect))
    constraint = Matrix(
        nw, n0 + nm, tuple(c[r] for r in range(nw) for c in cols)
    )
    z_rows = kernel_basis(constraint)
    h_rows = []
    for unit in units(nh):
        h = vec_to_mat(q, x.deg0, y.deg_minus1, unit)
        f0 = compose_mats(x.deg0, y.deg_minus1, y.deg0, diff_mat(y), h)
        fm = compose_mats(x.deg_minus1, x.deg0, y.deg_minus1, h, diff_mat(x))
        h_rows.append(
            mat_to_vec(q, x.deg0, y.deg0, f0)
            + mat_to_vec(q, x.deg_minus1, y.deg_minus1, fm)
        )
    b_rref = row_space_rref(h_rows)
    cands = [reduce_by_rref(z, b_rref) for z in z_rows]
    return row_space_rref(cands), b_rref


def test_hom_complex_matches_unit_vector_route():
    # kernel_basis depends on column signs, so this also pins the minus
    # sign on d_Y f in d^0
    objs = two_term_complexes(D4)
    mixed = 0
    for x in objs:
        for y in objs:
            basis, homotopy = _hom0_by_unit_vectors(x, y)
            sp = hom_class_basis(x, y, 0)
            assert sp.class_basis == tuple(tuple(r) for r in basis)
            assert sp.homotopy_rref == tuple(tuple(r) for r in homotopy)
            mixed += bool(basis and homotopy)
    assert mixed


def test_shift_one_homotopies_match_unit_vector_route():
    # Hom(X, Y[1]) is all of Hom(X^{-1}, Y^0) modulo the homotopies
    for q in (D4, A4_SECOND):
        objs = two_term_complexes(q)
        both = 0
        for x in objs:
            for y in objs:
                total = _layout(q, x.deg_minus1, y.deg0)[1]
                homotopy = _homotopy_rref_by_unit_vectors(x, y)
                dim = hom_class_dim(x, y, 1)
                assert dim == total - len(homotopy)
                both += bool(dim and homotopy)
        assert both


def test_two_paths_between_vertices_are_rejected():
    # Hom(P(4), P(1)) is spanned by both paths 1 -> 4 of the commutative
    # square; Hom(P(1), P(4)) = 0 reads no block with a path
    square = parse_quiver(
        "vertices 1 2 3 4\narrows a:1->2 b:2->4 c:1->3 d:3->4\n"
    )
    p1, p4 = shifted_projective(square, 1), shifted_projective(square, 4)
    assert hom_class_dim(p1, p4, 0) == 0
    with pytest.raises(ValueError) as err:
        hom_class_dim(p4, p1, 0)
    assert "from vertex 1 to vertex 4" in str(err.value)


def test_shifted_homs_match_path_spaces():
    pb = paths_between(A3)
    for i in A3.vertices:
        for j in A3.vertices:
            got = hom_class_dim(
                shifted_projective(A3, i), shifted_projective(A3, j), 0
            )
            assert got == len(pb[(j, i)])


def test_module_to_shifted_is_ext1_to_projective():
    pb = paths_between(A3)
    for d in indecomposables(A3):
        m = build_representation(A3, d)
        x = minimal_presentation(A3, m)
        for i in A3.vertices:
            proj = build_representation(
                A3, tuple(len(pb[(i, u)]) for u in A3.vertices)
            )
            expected = ext1_dim(A3, m, proj)
            assert hom_class_dim(x, shifted_projective(A3, i), 0) == expected
            assert hom_class_dim(x, shifted_projective(A3, i), 1) == 0


def test_shifted_to_module_shift_one_is_fiber_dimension():
    for d in indecomposables(A3):
        y = resolve_dim(A3, d)
        for i in A3.vertices:
            got = hom_class_dim(shifted_projective(A3, i), y, 1)
            assert got == d[A3.index(i)]


# --- chain-map identity of basis elements ---

def _check_square(x, y, row):
    f0, fm1 = mats(x, y, row)
    d_x, d_y = diff_mat(x), diff_mat(y)
    # f0 after d_X equals d_Y after fm1, entrywise as path vectors
    for j in range(len(y.deg0)):
        for i in range(len(x.deg_minus1)):
            lhs = pv_zero(y.deg0[j], x.deg_minus1[i])
            for t in range(len(x.deg0)):
                lhs = pv_add(lhs, pv_mul(f0[j][t], d_x[t][i]))
            rhs = pv_zero(y.deg0[j], x.deg_minus1[i])
            for t in range(len(y.deg_minus1)):
                rhs = pv_add(rhs, pv_mul(d_y[j][t], fm1[t][i]))
            assert lhs == rhs


def test_basis_elements_satisfy_chain_square():
    for dm in indecomposables(A3):
        x = resolve_dim(A3, dm)
        for dn in indecomposables(A3):
            y = resolve_dim(A3, dn)
            for row in hom_class_basis(x, y, 0).class_basis:
                _check_square(x, y, row)


# --- composition ---

def test_identity_is_a_unit():
    # the identity is the identity matrix in each degree, so composing
    # with it returns the very row, and its class is the basis class
    for q, d in ((A2, (1, 1)), (D4, (1, 1, 2, 1))):
        x = resolve_dim(q, d)
        ident = identity_reference(x)
        sp = hom_class_basis(x, x, 0)
        assert sp.coords(ident) == (1,)
        for row in sp.class_basis:
            assert compose(x, x, x, row, ident) == list(row)
            assert compose(x, x, x, ident, row) == list(row)


def test_composite_through_zero_hom_space_is_zero():
    x = resolve_dim(A2, (0, 1))
    y = resolve_dim(A2, (1, 1))
    z = resolve_dim(A2, (1, 0))
    (f,) = hom_class_basis(x, y, 0).class_basis
    (g,) = hom_class_basis(y, z, 0).class_basis
    target = hom_class_basis(x, z, 0)
    assert target.dim() == 0
    # the composite is a chain map, and null-homotopic
    assert target.coords(compose(x, y, z, f, g)) == ()


def test_composition_recovers_arrow_path():
    # T = P(1) + P(2) in A2: Hom(P(2), P(1)) is spanned by the arrow path
    x = resolve_dim(A2, (0, 1))
    y = resolve_dim(A2, (1, 1))
    (f,) = hom_class_basis(x, y, 0).class_basis
    f0, _ = mats(x, y, f)
    assert f0[0][0] == PathVector.make(1, 2, {("a",): 1})
    assert compose(x, y, y, f, identity_reference(y)) == list(f)
    assert compose(x, x, y, identity_reference(x), f) == list(f)


def test_composition_associative_along_a3_chain():
    w = resolve_dim(A3, (0, 0, 1))
    x = resolve_dim(A3, (0, 1, 1))
    y = resolve_dim(A3, (1, 1, 1))
    z = resolve_dim(A3, (1, 1, 0))
    (f,) = hom_class_basis(w, x, 0).class_basis
    (g,) = hom_class_basis(x, y, 0).class_basis
    (h,) = hom_class_basis(y, z, 0).class_basis
    left = compose(w, y, z, compose(w, x, y, f, g), h)
    assert left == compose(w, x, z, f, compose(x, y, z, g, h))


def test_compose_rejects_mismatched_objects():
    # rows of Hom(X, Y) and Hom(Y, Z) of lengths 1 and 2, passed swapped
    x = resolve_dim(A3, (1, 1, 1))
    y = resolve_dim(A3, (1, 1, 0))
    z = resolve_dim(A3, (1, 0, 0))
    (f,) = hom_class_basis(x, y, 0).class_basis
    (g,) = hom_class_basis(y, z, 0).class_basis
    assert (len(f), len(g)) == (1, 2)
    assert hom_class_basis(x, z, 0).coords(compose(x, y, z, f, g)) == (1,)
    with pytest.raises(ValueError):
        compose(x, y, z, g, f)


def test_compose_rejects_rows_of_the_wrong_length():
    x = resolve_dim(A3, (0, 1, 1))
    y = resolve_dim(A3, (1, 1, 1))
    z = resolve_dim(A3, (1, 1, 0))
    (f,) = hom_class_basis(x, y, 0).class_basis
    (g,) = hom_class_basis(y, z, 0).class_basis
    for bad_f, bad_g in ((f + (0,), g), (f, g + (0,)), (f[:-1], g), (f, g[:-1])):
        with pytest.raises(ValueError, match="expected a chain-map row"):
            compose(x, y, z, bad_f, bad_g)


def test_zero_class_composes_to_zero():
    x = resolve_dim(A3, (0, 0, 1))
    y = resolve_dim(A3, (0, 1, 1))
    z = resolve_dim(A3, (1, 1, 1))
    (g,) = hom_class_basis(y, z, 0).class_basis
    got = compose(x, y, z, zero_row(x, y), g)
    assert got == zero_row(x, z)
    assert hom_class_basis(x, z, 0).coords(got) == (0,)


def test_zero_dimensional_space_keeps_chain_map_length():
    # Hom(P(2), S(1)) vanishes in A2, but its zero class still has a
    # representative as long as the chain-map layout
    p2, s1 = (resolve_dim(A2, d) for d in ((0, 1), (1, 0)))
    zero = hom_class_basis(p2, s1, 0)
    assert zero.dim() == 0
    assert zero_row(p2, s1) == [0]
    assert zero.coords([0]) == ()
    mat0, matm = mats(p2, s1, [0])
    assert mat0 == ((pv_zero(1, 2),),) and matm == ((),)
    assert compose(p2, s1, s1, [0], identity_reference(s1)) == [0]


# --- the coordinate product against the path-vector route ---

@pytest.mark.parametrize(
    "q, composable, nonzero",
    [
        pytest.param(D4, 416, 271, id="d4"),
        pytest.param(A4_SECOND, 208, 140, id="a4_second"),
    ],
)
def test_compose_matches_path_vector_route(q, composable, nonzero):
    # every composable pair of basis classes, X -> Y -> Z over all objects
    objs = two_term_complexes(q)
    basis = {
        (x, y): hom_class_basis(x, y, 0).class_basis for x in objs for y in objs
    }
    pairs = products = 0
    for x in objs:
        for y in objs:
            for z in objs:
                target = hom_class_basis(x, z, 0)
                for f in basis[(x, y)]:
                    for g in basis[(y, z)]:
                        got = compose(x, y, z, f, g)
                        assert got == compose_reference(x, y, z, f, g)
                        pairs += 1
                        products += any(target.coords(got))
    assert (pairs, products) == (composable, nonzero)


def _lazy_path_identity(x):
    """The identity chain map of X in coordinates: a 1 at each diagonal
    position, where the one path is the lazy path."""
    q = x.quiver
    vec = []
    for vs in (x.deg0, x.deg_minus1):
        pos, n = _layout(q, vs, vs)
        part = [0] * n
        for ji, t in pos.items():
            j, i = divmod(ji, len(vs))
            if j == i:
                part[t] = 1
        vec += part
    return vec


@pytest.mark.parametrize("q", [D4, A4_SECOND], ids=["d4", "a4_second"])
def test_identity_matches_path_vector_route(q):
    for x in two_term_complexes(q):
        assert _lazy_path_identity(x) == identity_reference(x)
        assert hom_class_basis(x, x, 0).coords(identity_reference(x)) == (1,)


def test_vector_of_sums_the_basis_rows():
    # the vector of a class is its coordinates times the basis rows, and
    # coords reads them back: classes with several non-zero coordinates,
    # so rows must accumulate; adding a null-homotopic row leaves the
    # coordinates as they are
    objs = two_term_complexes(D4)
    wide = [
        sp
        for sp in (hom_class_basis(x, y, 0) for x in objs for y in objs)
        if sp.dim() >= 2
    ]
    assert len(wide) == 3
    for sp in wide:
        coords = tuple(k + 2 for k in range(sp.dim()))
        row = [
            sum(c * b[t] for c, b in zip(coords, sp.class_basis))
            for t in range(len(sp.class_basis[0]))
        ]
        assert sp.coords(row) == coords
        for h in sp.homotopy_rref:
            assert sp.coords([a - 3 * b for a, b in zip(row, h)]) == coords


def test_coords_rejects_a_row_off_the_chain_maps():
    # a unit row of End(X) that is no chain map, for some X on D4
    for x in two_term_complexes(D4):
        sp = hom_class_basis(x, x, 0)
        n = len(sp.class_basis[0])
        for t in range(n):
            unit = [int(s == t) for s in range(n)]
            try:
                sp.coords(unit)
            except ValueError as err:
                assert str(err) == "vector is not a chain map modulo homotopy"
                return
    raise AssertionError("every unit row of End(X) on D4 is a chain map")


def test_complex_hash_is_stored_field_hash():
    # minimal_presentation returns the cached one, so build an equal copy
    x = minimal_presentation(D4, build_representation(D4, (1, 1, 2, 1)))
    y = TwoTermComplex(x.quiver, x.deg_minus1, x.deg0, x.diff)
    assert x == y and x is not y
    assert hash(x) == hash(y)
    assert hash(x) == hash((x.quiver, x.deg_minus1, x.deg0, x.diff))
    assert x._hash == hash(x)  # stored
    # the stored value stays out of pickles: str hashes are per process
    back = pickle.loads(pickle.dumps(x))
    assert back == x and back._hash is None


def test_class_coords_and_dim_accessors():
    x = resolve_dim(A3, (1, 1, 1))
    sp = hom_class_basis(x, x, 0)
    assert sp.dim() == 1
    (ident,) = sp.class_basis
    assert sp.coords(ident) == (1,)
    # the basis of End(X) is the identity
    assert sp.coords(identity_reference(x)) == (1,)
