"""Oracle tests for two-term complexes of projectives and homotopy Hom spaces."""

from fractions import Fraction as Q

from importlib.resources import files

import pytest

from silt.cli import FIXTURE_NAMES
from silt.linalg import RatMatrix, kernel_basis, reduce_by_rref, row_space_rref
from silt.quivers import PathVector, parse_quiver, paths_between
from silt.modules import build_representation, ext1_dim, hom_dim, indecomposables
from silt.complexes import (
    TwoTermComplex,
    _compose_mats,
    _layout,
    _mat_to_vec,
    _vec_to_mat,
    compose,
    hom_class_basis,
    hom_class_dim,
    identity_class,
    resolve,
    resolve_dim,
    shifted_projective,
)

A2 = parse_quiver("vertices 1 2\narrow a:1->2\n")
A3 = parse_quiver("vertices 1 2 3\narrow a:1->2\narrow b:2->3\n")
D4 = parse_quiver("vertices 1 2 3 4\narrow a:1->3\narrow b:2->3\narrow c:3->4\n")
A4_SECOND = parse_quiver("vertices 1 2 3 4\narrow a:1->2\narrow b:3->2\narrow c:3->4\n")


def two_term_objects(q):
    objs = [resolve_dim(q, d) for d in indecomposables(q)]
    return objs + [shifted_projective(q, v) for v in q.vertices]


# --- resolve ---

def test_resolve_projective_is_stalk():
    x = resolve(A2, build_representation(A2, (1, 1)))
    assert x.deg0 == (1,)
    assert x.deg_minus1 == ()
    assert x.diff == ((),)


def test_resolve_simple_top_a2():
    x = resolve_dim(A2, (1, 0))
    assert x.deg0 == (1,)
    assert x.deg_minus1 == (2,)
    pv = x.diff[0][0]
    assert pv.source == 1 and pv.target == 2
    assert pv.terms == ((("a",), Q(1)),)


def test_resolve_dim_matches_resolve():
    for d in indecomposables(A3):
        assert resolve_dim(A3, d) == resolve(A3, build_representation(A3, d))


def test_resolve_differential_entries_are_radical():
    for d in indecomposables(D4):
        x = resolve_dim(D4, d)
        for row in x.diff:
            for pv in row:
                assert all(len(arrows) >= 1 for arrows, _ in pv.terms)


def test_complex_validates_entry_endpoints():
    bad = PathVector.make(2, 1, {(): 1})
    with pytest.raises(ValueError):
        TwoTermComplex(A2, (2,), (1,), ((bad,),))


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
    # so this cross-checks it against the module-side Ext^1 on every fixture
    for name in FIXTURE_NAMES:
        q = parse_quiver(
            files("silt").joinpath("fixtures", f"{name}.quiver").read_text()
        )
        for dm in indecomposables(q):
            m = build_representation(q, dm)
            x = resolve(q, m)
            for dn in indecomposables(q):
                n = build_representation(q, dn)
                y = resolve(q, n)
                assert hom_class_dim(x, y, 0) == hom_dim(q, m, n)
                assert hom_class_dim(x, y, 1) == ext1_dim(q, m, n)


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
    objs = two_term_objects(q)
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
        (x.deg0, y.deg0, lambda h: _compose_mats(
            x.deg_minus1, x.deg0, y.deg0, h, x.diff)),
        (x.deg_minus1, y.deg_minus1, lambda h: _compose_mats(
            x.deg_minus1, y.deg_minus1, y.deg0, y.diff, h)),
    ):
        _, n = _layout(q, srcs, tgts)
        for t in range(n):
            unit = [Q(1) if s == t else Q(0) for s in range(n)]
            h = _vec_to_mat(q, srcs, tgts, unit)
            rows.append(_mat_to_vec(q, x.deg_minus1, y.deg0, image(h)))
    return row_space_rref(rows, total)


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
        return [[Q(1) if s == t else Q(0) for s in range(n)] for t in range(n)]

    cols = []
    for vec in units(n0 + nm):
        f0 = _vec_to_mat(q, x.deg0, y.deg0, vec[:n0])
        fm = _vec_to_mat(q, x.deg_minus1, y.deg_minus1, vec[n0:])
        lhs = _compose_mats(x.deg_minus1, x.deg0, y.deg0, f0, x.diff)
        rhs = _compose_mats(x.deg_minus1, y.deg_minus1, y.deg0, y.diff, fm)
        defect = tuple(
            tuple(a.add(b.scale(Q(-1))) for a, b in zip(ra, rb))
            for ra, rb in zip(lhs, rhs)
        )
        cols.append(_mat_to_vec(q, x.deg_minus1, y.deg0, defect))
    constraint = RatMatrix(
        nw, n0 + nm, tuple(c[r] for r in range(nw) for c in cols)
    )
    z_rows = kernel_basis(constraint)
    h_rows = []
    for unit in units(nh):
        h = _vec_to_mat(q, x.deg0, y.deg_minus1, unit)
        f0 = _compose_mats(x.deg0, y.deg_minus1, y.deg0, y.diff, h)
        fm = _compose_mats(x.deg_minus1, x.deg0, y.deg_minus1, h, x.diff)
        h_rows.append(
            _mat_to_vec(q, x.deg0, y.deg0, f0)
            + _mat_to_vec(q, x.deg_minus1, y.deg_minus1, fm)
        )
    b_rref = row_space_rref(h_rows, n0 + nm)
    cands = [reduce_by_rref(z, b_rref) for z in z_rows]
    return row_space_rref(cands, n0 + nm), b_rref


def test_hom_complex_matches_unit_vector_route():
    # kernel_basis depends on column signs, so this also pins the minus
    # sign on d_Y f in d^0
    objs = two_term_objects(D4)
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
        objs = two_term_objects(q)
        both = 0
        for x in objs:
            for y in objs:
                total = _layout(q, x.deg_minus1, y.deg0)[1]
                homotopy = _homotopy_rref_by_unit_vectors(x, y)
                dim = hom_class_dim(x, y, 1)
                assert dim == total - len(homotopy)
                both += bool(dim and homotopy)
        assert both


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
        x = resolve(A3, m)
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

def _check_square(x, y, cls):
    f0, fm1 = cls.mats()
    # f0 after d_X equals d_Y after fm1, entrywise as path vectors
    for j in range(len(y.deg0)):
        for i in range(len(x.deg_minus1)):
            lhs = PathVector.zero(y.deg0[j], x.deg_minus1[i])
            for t in range(len(x.deg0)):
                lhs = lhs.add(f0[j][t].mul(x.diff[t][i]))
            rhs = PathVector.zero(y.deg0[j], x.deg_minus1[i])
            for t in range(len(y.deg_minus1)):
                rhs = rhs.add(y.diff[j][t].mul(fm1[t][i]))
            assert lhs == rhs


def test_basis_elements_satisfy_chain_square():
    for dm in indecomposables(A3):
        x = resolve_dim(A3, dm)
        for dn in indecomposables(A3):
            y = resolve_dim(A3, dn)
            for cls in hom_class_basis(x, y, 0).elements():
                _check_square(x, y, cls)


# --- composition ---

def test_identity_is_a_unit():
    for q, d in ((A2, (1, 1)), (D4, (1, 1, 2, 1))):
        x = resolve_dim(q, d)
        ident = identity_class(x)
        for cls in hom_class_basis(x, x, 0).elements():
            assert compose(cls, ident) == cls
            assert compose(ident, cls) == cls


def test_composite_through_zero_hom_space_is_zero():
    x = resolve_dim(A2, (0, 1))
    y = resolve_dim(A2, (1, 1))
    z = resolve_dim(A2, (1, 0))
    (f,) = hom_class_basis(x, y, 0).elements()
    (g,) = hom_class_basis(y, z, 0).elements()
    target = hom_class_basis(x, z, 0)
    assert target.dim() == 0
    assert compose(f, g) == target.zero_class()


def test_composition_recovers_arrow_path():
    # T = P(1) + P(2) in A2: Hom(P(2), P(1)) is spanned by the arrow path
    x = resolve_dim(A2, (0, 1))
    y = resolve_dim(A2, (1, 1))
    (f,) = hom_class_basis(x, y, 0).elements()
    f0, _ = f.mats()
    assert f0[0][0] == PathVector.make(1, 2, {("a",): 1})
    assert compose(f, identity_class(y)) == f
    assert compose(identity_class(x), f) == f


def test_composition_associative_along_a3_chain():
    w = resolve_dim(A3, (0, 0, 1))
    x = resolve_dim(A3, (0, 1, 1))
    y = resolve_dim(A3, (1, 1, 1))
    z = resolve_dim(A3, (1, 1, 0))
    (f,) = hom_class_basis(w, x, 0).elements()
    (g,) = hom_class_basis(x, y, 0).elements()
    (h,) = hom_class_basis(y, z, 0).elements()
    assert compose(compose(f, g), h) == compose(f, compose(g, h))


def test_compose_rejects_mismatched_objects():
    x = resolve_dim(A2, (0, 1))
    y = resolve_dim(A2, (1, 1))
    z = resolve_dim(A2, (1, 0))
    (f,) = hom_class_basis(x, y, 0).elements()
    (g,) = hom_class_basis(y, z, 0).elements()
    with pytest.raises(ValueError):
        compose(g, f)


def test_zero_class_composes_to_zero():
    x = resolve_dim(A3, (0, 0, 1))
    y = resolve_dim(A3, (0, 1, 1))
    z = resolve_dim(A3, (1, 1, 1))
    zero_xy = hom_class_basis(x, y, 0).zero_class()
    (g,) = hom_class_basis(y, z, 0).elements()
    assert compose(zero_xy, g) == hom_class_basis(x, z, 0).zero_class()


def test_zero_dimensional_space_keeps_chain_map_length():
    # Hom(P(2), S(1)) vanishes in A2, but its zero class still has a
    # representative as long as the chain-map layout
    p2, s1 = (resolve_dim(A2, d) for d in ((0, 1), (1, 0)))
    zero = hom_class_basis(p2, s1, 0)
    assert zero.dim() == 0
    assert zero.vector_of(zero.zero_class()) == [Q(0)]
    mat0, matm = zero.zero_class().mats()
    assert mat0 == ((PathVector.zero(1, 2),),) and matm == ((),)
    assert compose(zero.zero_class(), identity_class(s1)) == zero.zero_class()


def test_class_coords_and_dim_accessors():
    x = resolve_dim(A3, (1, 1, 1))
    sp = hom_class_basis(x, x, 0)
    assert sp.dim() == 1
    (ident,) = sp.elements()
    assert len(ident.coords) == 1
    assert identity_class(x).coords == ident.coords
