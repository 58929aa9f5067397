"""Oracle tests for exact rational matrices: rank, kernel, coordinates,
determinant, and the reference module's charpoly."""

from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coxeter_reference import charpoly
from linalg_reference import add, determinant_reference, inverse, scale
from silt.linalg import (
    RatMatrix,
    _echelon,
    coords_in_rows,
    determinant,
    identity,
    integer_solve,
    kernel_basis,
    pivot_columns,
    rank,
    rref,
    row_space_rref,
)


def M(rows):
    return RatMatrix.from_rows(rows)


# --- rank ---

def test_rank_identity():
    assert rank(identity(2)) == 2


def test_rank_zero():
    assert rank(M([[0, 0], [0, 0]])) == 0


def test_rank_proportional_rows():
    assert rank(M([[1, 2], [2, 4]])) == 1


def test_rank_exact_fractions():
    # 1/3 arithmetic must not lose exactness
    m = M([[Q(1, 3), 1], [1, 3]])
    assert rank(m) == 1


# --- kernel_basis ---

def test_kernel_of_identity_empty():
    assert kernel_basis(identity(2)) == []


def test_kernel_one_dim():
    ker = kernel_basis(M([[1, -1]]))
    assert ker == [[1, 1]]


def test_kernel_of_zero_map():
    ker = kernel_basis(M([[0, 0, 0], [0, 0, 0]]))
    assert len(ker) == 3


def _annihilated(m, v):
    return all(e == 0 for e in m.mul(RatMatrix(m.cols, 1, tuple(v))).entries)


def test_kernel_vectors_annihilated():
    m = M([[1, 2, 3], [4, 5, 6]])
    ker = kernel_basis(m)
    assert len(ker) == 1
    assert all(_annihilated(m, v) for v in ker)


# --- coordinates over an RREF basis ---

def test_pivot_columns():
    assert pivot_columns([[0, 1, 2], [0, 0, 0, 1]]) == [1, 3]
    assert pivot_columns([]) == []


def test_coords_read_off_pivots():
    rows = [[1, 0, 2], [0, 1, 3]]
    assert coords_in_rows([5, 7, 31], rows) == [5, 7]


def test_coords_off_span_absent():
    assert coords_in_rows([0, 0, 1], [[1, 0, 2], [0, 1, 3]]) is None
    assert coords_in_rows([1], []) is None
    assert coords_in_rows([0, 0], []) == []


# --- helpers used downstream ---

def test_inverse_roundtrip():
    m = M([[1, 1], [0, 1]])
    assert m.mul(inverse(m)) == identity(2)


def _charpoly_reference(m):
    """Reference characteristic polynomial: Faddeev-LeVerrier in Fractions,
    M_k = m (M_{k-1} + c_{k-1} I), c_k = -tr(M_k) / k."""
    n = m.rows
    coeffs = [Q(1)]
    m_k = identity(n)
    for k in range(1, n + 1):
        m_k = m.mul(m_k)
        c = -sum((m_k.at(i, i) for i in range(n)), Q(0)) / k
        coeffs.append(c)
        if k < n:
            m_k = add(m_k, scale(identity(n), c))
    return coeffs


def test_charpoly_of_companion():
    # charpoly(-C^{-T} C) for the rank-2 linear-quiver Cartan is t^2 + t + 1
    c = M([[1, 1], [0, 1]])
    phi = scale(inverse(c).transpose().mul(c), -1)
    rows = [[int(e) for e in r] for r in phi.to_rows()]
    assert charpoly(rows) == (1, 1, 1)
    assert _charpoly_reference(phi) == [1, 1, 1]


def test_charpoly_identity():
    assert charpoly([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == (1, -3, 3, -1)
    assert _charpoly_reference(identity(3)) == [1, -3, 3, -1]


def test_charpoly_rejects_inexact_division_and_non_square():
    # a Fraction entry makes -tr(M_1) / 1 leave a remainder
    with pytest.raises(RuntimeError, match="inexact"):
        charpoly([[Q(1, 2)]])
    with pytest.raises(ValueError, match="non-square"):
        charpoly([[1, 2]])


@st.composite
def int_square_matrices(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    return [
        draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
        for _ in range(n)
    ]


@given(int_square_matrices())
@example([])
@settings(max_examples=150, deadline=None)
def test_charpoly_matches_fraction_reference(rows):
    got = charpoly(rows)
    assert all(type(c) is int for c in got)
    assert list(got) == _charpoly_reference(RatMatrix(
        len(rows), len(rows), tuple(e for r in rows for e in r)
    ))


# --- determinant ---

def test_determinant_swaps_rows_at_a_zero_pivot():
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[0, 2, 1], [0, 1, 3], [4, 0, 0]]) == 20
    assert determinant([[1, 1, 0], [1, 1, 1], [0, 1, 1]]) == -1


def test_determinant_of_singular_empty_and_non_square_matrices():
    assert determinant([]) == 1
    assert determinant([[1, 2], [2, 4]]) == 0
    assert determinant([[0, 0], [0, 1]]) == 0
    with pytest.raises(ValueError, match="non-square"):
        determinant([[1, 2]])


@st.composite
def determinant_inputs(draw):
    """Integer square matrices, some with a zero first pivot and some made
    singular by a last row that combines the first two."""
    rows = draw(int_square_matrices())
    kind = draw(st.sampled_from(("any", "zero first pivot", "singular")))
    if kind == "zero first pivot" and rows:
        rows[0][0] = 0
    if kind == "singular" and len(rows) > 2:
        c = draw(st.integers(-3, 3))
        rows[-1] = [a + c * b for a, b in zip(rows[0], rows[1])]
    return kind, rows


@given(determinant_inputs())
@example(("zero first pivot", [[0, 1, 2], [0, 3, 4], [5, 6, 7]]))
@example(("singular", [[1, 2, 3], [4, 5, 6], [9, 12, 15]]))
@settings(max_examples=200, deadline=None)
def test_determinant_matches_fraction_reference(case):
    kind, rows = case
    got = determinant(rows)
    assert type(got) is int
    assert got == determinant_reference(rows)
    if kind == "singular" and len(rows) > 2:
        assert got == 0


# --- properties ---

@st.composite
def rat_matrices(draw):
    rows = draw(st.integers(min_value=1, max_value=4))
    cols = draw(st.integers(min_value=1, max_value=4))
    nums = draw(
        st.lists(
            st.integers(min_value=-6, max_value=6),
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    dens = draw(
        st.lists(
            st.integers(min_value=1, max_value=3),
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    entries = [Q(n, d) for n, d in zip(nums, dens)]
    return RatMatrix(rows, cols, tuple(entries))


@given(rat_matrices())
@settings(max_examples=120, deadline=None)
def test_rank_nullity(m):
    ker = kernel_basis(m)
    assert rank(m) + len(ker) == m.cols
    assert all(_annihilated(m, v) for v in ker)


@given(rat_matrices(), st.data())
@settings(max_examples=80, deadline=None)
def test_coords_recover_combination(m, data):
    basis = row_space_rref(m.to_rows())
    coeffs = data.draw(
        st.lists(
            st.integers(min_value=-5, max_value=5).map(Q),
            min_size=len(basis),
            max_size=len(basis),
        )
    )
    v = [
        sum((c * r[j] for c, r in zip(coeffs, basis)), Q(0))
        for j in range(m.cols)
    ]
    assert coords_in_rows(v, basis) == coeffs
    if len(basis) < m.cols:
        # a unit vector at a free column lies off the span
        free = min(set(range(m.cols)) - set(pivot_columns(basis)))
        off = [Q(1) if j == free else Q(0) for j in range(m.cols)]
        assert coords_in_rows(off, basis) is None


@st.composite
def rat_matrices_with_dependent_rows(draw):
    """Rational matrices of any shape, empty ones included, with some rows
    made rational combinations of earlier ones."""
    cols = draw(st.integers(min_value=0, max_value=6))
    fracs = st.builds(
        Q,
        st.integers(min_value=-9, max_value=9),
        st.integers(min_value=1, max_value=7),
    )
    rows = draw(
        st.lists(
            st.lists(fracs, min_size=cols, max_size=cols), max_size=5
        )
    )
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if not rows:
            break
        coeffs = draw(st.lists(fracs, min_size=len(rows), max_size=len(rows)))
        combo = [
            sum((c * r[j] for c, r in zip(coeffs, rows)), Q(0))
            for j in range(cols)
        ]
        rows.insert(draw(st.integers(0, len(rows))), combo)
    return RatMatrix(len(rows), cols, tuple(e for r in rows for e in r))


def _gauss_jordan_rref(m):
    """Reference RREF: Gauss-Jordan elimination in Fractions, first usable
    pivot row, each pivot row divided through before it clears its column."""
    rows = m.to_rows()
    pivots = []
    r = 0
    for c in range(m.cols):
        if r == m.rows:
            break
        pivot_row = next((i for i in range(r, m.rows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = Q(1) / rows[r][c]
        rows[r] = [e * inv for e in rows[r]]
        for i in range(m.rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


@given(rat_matrices_with_dependent_rows())
@example(RatMatrix(0, 3, ()))
@example(RatMatrix(3, 0, ()))
@settings(max_examples=300, deadline=None)
def test_elimination_matches_gauss_jordan_reference(m):
    ref_rows, ref_pivots = _gauss_jordan_rref(m)
    red, pivots = rref(m)
    assert (red.to_rows(), pivots) == (ref_rows, ref_pivots)
    assert all(type(e) is Q for e in red.entries)
    assert rank(m) == len(ref_pivots)
    # one kernel vector per free column of the reference RREF
    kernel = []
    for fc in range(m.cols):
        if fc not in ref_pivots:
            v = [Q(0)] * m.cols
            v[fc] = Q(1)
            for r, pc in enumerate(ref_pivots):
                v[pc] = -ref_rows[r][fc]
            kernel.append(v)
    assert kernel_basis(m) == kernel


@st.composite
def sparse_int_matrices(draw):
    """Sparse integer rows like the Hom complex's: most entries 0, the rest
    +-1 or small integers, with some rows sums or differences of others.
    Row 0 is non-zero in column 0 and row 1 is zero there but not in
    column 1, so the first pivot passes over a row it has nothing to
    clear, and that row pivots later."""
    n_rows = draw(st.integers(2, 7))
    cols = draw(st.integers(2, 8))
    entry = draw(st.sampled_from((
        st.sampled_from((-1, 0, 0, 0, 1)),
        st.sampled_from((-3, -2, -1, 0, 0, 0, 0, 0, 0, 1, 2, 3)),
    )))
    rows = [[draw(entry) for _ in range(cols)] for _ in range(n_rows)]
    rows[0][0] = draw(st.sampled_from((-2, -1, 1, 2)))
    rows[1][0] = 0
    rows[1][1] = draw(st.sampled_from((-1, 1)))
    for _ in range(draw(st.integers(0, 2))):
        a, b = (draw(st.integers(0, len(rows) - 1)) for _ in range(2))
        sign = draw(st.sampled_from((-1, 1)))
        rows.append([x + sign * y for x, y in zip(rows[a], rows[b])])
    return rows


@given(sparse_int_matrices())
@settings(max_examples=300, deadline=None)
def test_sparse_int_elimination_matches_gauss_jordan_reference(rows):
    m = M(rows)
    ref_rows, ref_pivots = _gauss_jordan_rref(m)
    red, pivots = rref(m)
    assert pivots == ref_pivots
    assert red.to_rows() == ref_rows
    assert rank(m) == len(ref_pivots)
    # the Hom complex hands int rows to the elimination directly
    echelon, pivots = _echelon([list(r) for r in rows], m.cols)
    assert pivots == ref_pivots
    assert all(type(e) is int for r in echelon for e in r)


@st.composite
def square_rat_matrices(draw):
    """Top-left square blocks of rat_matrices_with_dependent_rows(): a
    combination of rows stays one when columns are dropped, so both
    singular and invertible matrices come up."""
    m = draw(rat_matrices_with_dependent_rows())
    n = min(m.rows, m.cols)
    return RatMatrix(n, n, tuple(m.at(i, j) for i in range(n) for j in range(n)))


@given(square_rat_matrices())
@settings(max_examples=200, deadline=None)
def test_inverse_matches_gauss_jordan_reference(m):
    # the inverse is the right half of the reference RREF of [m | I]
    n = m.rows
    aug = RatMatrix(n, 2 * n, tuple(
        m.at(i, j) if j < n else Q(int(j - n == i))
        for i in range(n)
        for j in range(2 * n)
    ))
    rows, pivots = _gauss_jordan_rref(aug)
    if pivots[:n] == list(range(n)):
        assert inverse(m).to_rows() == [r[n:] for r in rows]
    else:
        with pytest.raises(ValueError, match="singular"):
            inverse(m)


@st.composite
def integer_systems(draw):
    """A square integer A (often unimodular: unitriangular times a
    permutation, as Cartan matrices are) and an integer B."""
    n = draw(st.integers(0, 5))
    m = draw(st.integers(0, 4))
    entry = st.integers(-3, 3)
    if draw(st.booleans()):
        a = [
            [int(i == j) if i <= j else draw(entry) for j in range(n)]
            for i in range(n)
        ]
        a = [a[i] for i in draw(st.permutations(range(n)))]
    else:
        a = [[draw(entry) for _ in range(n)] for _ in range(n)]
    b = [[draw(entry) for _ in range(m)] for _ in range(n)]
    return a, b


@given(integer_systems())
@settings(max_examples=300, deadline=None)
@example(([[1, 1], [1, 1]], [[1], [0]]))
@example(([[2, 1], [0, 1]], [[1], [0]]))
@example(([], []))
def test_integer_solve_matches_gauss_jordan_reference(system):
    # X is the right block of the reference RREF of [A | B]
    a, b = system
    n = len(a)
    rows, pivots = _gauss_jordan_rref(
        M([[*ra, *rb] for ra, rb in zip(a, b)])
    )
    if pivots[:n] != list(range(n)):
        with pytest.raises(ValueError, match="singular"):
            integer_solve(a, b)
        return
    x = [r[n:] for r in rows[:n]]
    if any(e.denominator != 1 for r in x for e in r):
        with pytest.raises(RuntimeError, match="X is not integral"):
            integer_solve(a, b, "X")
        return
    assert integer_solve(a, b) == tuple(tuple(int(e) for e in r) for r in x)


def test_rank_of_empty_shapes():
    assert rank(RatMatrix(0, 0, ())) == 0
    assert rank(RatMatrix(0, 3, ())) == 0
    assert rank(RatMatrix(3, 0, ())) == 0


def test_rank_exact_on_growing_minors():
    # Hilbert matrices are non-singular, with denominators in every row.
    n = 6
    h = M([[Q(1, i + j + 1) for j in range(n)] for i in range(n)])
    assert rank(h) == n
    # the last row replaced by the sum of the others: rank drops by one
    rows = h.to_rows()
    rows[-1] = [sum(c) for c in zip(*rows[:-1])]
    assert rank(M(rows)) == n - 1


def test_entries_are_fractions_whatever_the_input():
    for m in (RatMatrix(1, 3, (1, Q(1, 2), 0)), M([[1, Q(1, 2), 0]])):
        assert all(type(e) is Q for e in m.entries)
        assert m.entries == (Q(1), Q(1, 2), Q(0))


def test_entries_length_validated():
    with pytest.raises(ValueError):
        RatMatrix(2, 2, (Q(1),))
