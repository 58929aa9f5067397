"""Oracle tests for exact integer matrices: rank, rref, kernel,
coordinates, integer_solve, the determinant and the product against the
Fraction references of linalg_reference, and the reference module's
charpoly."""

from fractions import Fraction as Q
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coxeter_reference import charpoly
from linalg_reference import (
    add,
    determinant_reference,
    gauss_jordan_rref,
    inverse,
    is_integral,
    mul,
    scale,
    transpose,
)
from silt.linalg import (
    Matrix,
    _echelon,
    coords_in_rows,
    determinant,
    integer_solve,
    kernel_basis,
    matmul,
    pivot_columns,
    rank,
    rref,
    row_space_rref,
)


def M(rows):
    return Matrix.from_rows(rows)


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _rows(m):
    """The int rows of a Matrix record."""
    return [list(m.entries[i * m.cols : (i + 1) * m.cols]) for i in range(m.rows)]


# --- rank ---

def test_rank_identity():
    assert rank(identity(2), 2) == 2


def test_rank_zero():
    assert rank([[0, 0], [0, 0]], 2) == 0


def test_rank_proportional_rows():
    assert rank([[1, 2], [2, 4]], 2) == 1


def test_rank_exact_on_large_entries():
    # entries past float precision must not lose exactness: det = -1
    big = 10**20
    assert rank([[big + 1, big], [big, big - 1]], 2) == 2
    assert rank([[3**40, 3**41], [1, 3]], 2) == 1


def test_rank_leaves_its_rows_as_they_were():
    rows = [(0, 1), (2, 4), (1, 2)]
    assert rank(rows, 2) == 2
    assert rows == [(0, 1), (2, 4), (1, 2)]


# --- kernel_basis ---

def test_kernel_of_identity_empty():
    assert kernel_basis(M(identity(2))) == []


def test_kernel_one_dim():
    ker = kernel_basis(M([[1, -1]]))
    assert ker == [[1, 1]]


def test_kernel_of_zero_map():
    ker = kernel_basis(M([[0, 0, 0], [0, 0, 0]]))
    assert len(ker) == 3


def _annihilated(m, v):
    return all(e == 0 for (e,) in mul(_rows(m), [[x] for x in v]))


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
    m = [[1, 1], [0, 1]]
    assert mul(m, inverse(m)) == identity(2)


def _charpoly_reference(m):
    """Reference characteristic polynomial: Faddeev-LeVerrier in Fractions,
    M_k = m (M_{k-1} + c_{k-1} I), c_k = -tr(M_k) / k."""
    n = len(m)
    coeffs = [Q(1)]
    ident = identity(n)
    m_k = ident
    for k in range(1, n + 1):
        m_k = mul(m, m_k)
        c = -sum((m_k[i][i] for i in range(n)), Q(0)) / k
        coeffs.append(c)
        if k < n:
            m_k = add(m_k, scale(ident, c))
    return coeffs


def test_charpoly_of_companion():
    # charpoly(-C^{-T} C) for the rank-2 linear-quiver Cartan is t^2 + t + 1
    c = [[1, 1], [0, 1]]
    phi = scale(mul(transpose(inverse(c)), c), -1)
    rows = [[int(e) for e in r] for r in phi]
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
    assert list(got) == _charpoly_reference(rows)


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
#
# A rational matrix has the row space, and so the rank and kernel, of the
# integer matrix made by clearing each row's denominators, so integer
# inputs lose nothing.  Where the reference RREF is integral, silt must
# equal it; where it is not, every routine that reaches rref must raise.


@st.composite
def int_matrices(draw):
    """Integer matrices of any shape, empty ones included, with some rows
    integer combinations of the others.  Half of them are U R for an
    integral RREF R and a unimodular U (a permutation of a unitriangular
    matrix): U R has R's row space, so its RREF is R, which is integral."""
    cols = draw(st.integers(min_value=0, max_value=6))
    entry = st.integers(min_value=-9, max_value=9)
    if draw(st.booleans()):
        rows = draw(
            st.lists(st.lists(entry, min_size=cols, max_size=cols), max_size=5)
        )
    else:
        pivots = sorted(
            draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=min(cols, 5)))
        )
        r = [
            [
                int(c == p) if c <= p or c in pivots else draw(entry)
                for c in range(cols)
            ]
            for p in pivots
        ]
        n = len(r)
        u = [
            [int(i == j) if i <= j else draw(st.integers(-3, 3)) for j in range(n)]
            for i in range(n)
        ]
        u = [u[i] for i in draw(st.permutations(range(n)))]
        rows = [
            [sum(a * b[c] for a, b in zip(ui, r)) for c in range(cols)]
            for ui in u
        ]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if not rows:
            break
        coeffs = draw(
            st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows))
        )
        combo = [
            sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(cols)
        ]
        rows.insert(draw(st.integers(0, len(rows))), combo)
    return Matrix(len(rows), cols, tuple(e for r in rows for e in r))


def _reference(m):
    """The reference RREF of m, its pivots, and whether it is integral."""
    rows, pivots = gauss_jordan_rref(_rows(m), m.cols)
    return rows, pivots, is_integral(rows)


def _raises_not_integral(f, *args):
    with pytest.raises(RuntimeError, match="not integral"):
        f(*args)


# an integral RREF, [[1, 0, -1], [0, 1, 2]], and one with halves
INTEGRAL = M([[1, 2, 3], [4, 5, 6]])
HALVES = M([[2, 1, 0], [0, 1, 1]])


@given(int_matrices())
@example(INTEGRAL)
@example(HALVES)
@settings(max_examples=120, deadline=None)
def test_rank_nullity(m):
    _, ref_pivots, integral = _reference(m)
    assert rank(_rows(m), m.cols) == len(ref_pivots)
    if not integral:
        _raises_not_integral(kernel_basis, m)
        return
    ker = kernel_basis(m)
    assert rank(_rows(m), m.cols) + len(ker) == m.cols
    assert all(_annihilated(m, v) for v in ker)


@given(int_matrices(), st.lists(st.integers(-5, 5), min_size=6, max_size=6))
@example(INTEGRAL, [3, -2, 0, 0, 0, 0])
@example(HALVES, [1, 1, 0, 0, 0, 0])
@settings(max_examples=80, deadline=None)
def test_coords_recover_combination(m, coeffs):
    if not _reference(m)[2]:
        _raises_not_integral(row_space_rref, _rows(m))
        return
    basis = row_space_rref(_rows(m))
    # an RREF basis has at most one row per column, and at most 6 columns
    coeffs = coeffs[: len(basis)]
    v = [sum(c * r[j] for c, r in zip(coeffs, basis)) for j in range(m.cols)]
    assert coords_in_rows(v, basis) == coeffs
    if len(basis) < m.cols:
        # a unit vector at a free column lies off the span
        free = min(set(range(m.cols)) - set(pivot_columns(basis)))
        off = [int(j == free) for j in range(m.cols)]
        assert coords_in_rows(off, basis) is None


@given(int_matrices())
@example(Matrix(0, 3, ()))
@example(Matrix(3, 0, ()))
@example(INTEGRAL)
@example(HALVES)
@settings(max_examples=300, deadline=None)
def test_elimination_matches_gauss_jordan_reference(m):
    ref_rows, ref_pivots, integral = _reference(m)
    assert rank(_rows(m), m.cols) == len(ref_pivots)
    if not integral:
        for f in (rref, kernel_basis):
            _raises_not_integral(f, m)
        return
    red, pivots = rref(m)
    assert (red, pivots) == (ref_rows, ref_pivots)
    assert all(type(e) is int for r in red for e in r)
    # one kernel vector per free column of the reference RREF
    kernel = []
    for fc in range(m.cols):
        if fc not in ref_pivots:
            v = [0] * m.cols
            v[fc] = 1
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
@example([[1, 0, 1], [0, 1, -1]])
@example([[2, 1, 0], [0, 1, 1]])
@settings(max_examples=300, deadline=None)
def test_sparse_int_elimination_matches_gauss_jordan_reference(rows):
    m = M(rows)
    ref_rows, ref_pivots, integral = _reference(m)
    assert rank(rows, m.cols) == len(ref_pivots)
    # the Hom complex hands int rows to the elimination directly
    echelon, pivots = _echelon([list(r) for r in rows], m.cols)
    assert pivots == ref_pivots
    assert all(type(e) is int for r in echelon for e in r)
    if not integral:
        _raises_not_integral(rref, m)
        return
    red, pivots = rref(m)
    assert pivots == ref_pivots
    assert red == ref_rows


@st.composite
def square_int_matrices(draw):
    """Top-left square blocks of int_matrices(): a combination of rows
    stays one when columns are dropped, so both singular and invertible
    matrices come up."""
    m = draw(int_matrices())
    n = min(m.rows, m.cols)
    return [r[:n] for r in _rows(m)[:n]]


@given(square_int_matrices())
@example([[1, 2], [2, 4]])
@example([[1, 1], [0, 1]])
@example([[2, 1], [0, 1]])
@settings(max_examples=200, deadline=None)
def test_inverse_matches_gauss_jordan_reference(rows):
    # the reference inverse, the right half of the reference RREF of
    # [M | I], is a two-sided inverse exactly where silt's determinant is
    # non-zero, and integer_solve(M, I) gives it where it is integral
    ident = identity(len(rows))
    if determinant(rows) == 0:
        with pytest.raises(ValueError, match="singular"):
            inverse(rows)
        with pytest.raises(ValueError, match="singular"):
            integer_solve(rows, ident)
        return
    inv = inverse(rows)
    assert mul(rows, inv) == ident == mul(inv, rows)
    if is_integral(inv):
        assert integer_solve(rows, ident) == tuple(map(tuple, inv))
    else:
        _raises_not_integral(integer_solve, rows, ident)


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
    rows, pivots = gauss_jordan_rref(
        [[*ra, *rb] for ra, rb in zip(a, b)], n + (len(b[0]) if b else 0)
    )
    if pivots[:n] != list(range(n)):
        with pytest.raises(ValueError, match="singular"):
            integer_solve(a, b)
        return
    x = [r[n:] for r in rows[:n]]
    if not is_integral(x):
        with pytest.raises(RuntimeError, match="X is not integral"):
            integer_solve(a, b, "X")
        return
    assert integer_solve(a, b) == tuple(tuple(int(e) for e in r) for r in x)


def test_rref_names_a_non_integral_form():
    with pytest.raises(RuntimeError, match="row echelon form is not integral"):
        rref(M([[2, 1]]))
    assert rref(M([[2, 4], [0, 0]])) == ([[1, 2], [0, 0]], [0])


def test_rank_of_empty_shapes():
    assert rank([], 0) == 0
    assert rank([], 3) == 0
    assert rank([(), (), ()], 0) == 0


def test_rank_exact_on_growing_minors():
    # Hilbert matrices are non-singular; times the lcm of their
    # denominators they are integer matrices with fast-growing minors
    n = 6
    den = lcm(*range(1, 2 * n))
    rows = [[den // (i + j + 1) for j in range(n)] for i in range(n)]
    assert rank(rows, n) == n
    # the last row replaced by the sum of the others: rank drops by one
    rows[-1] = [sum(c) for c in zip(*rows[:-1])]
    assert rank(rows, n) == n - 1


def test_fraction_entries_raise_type_error():
    # an integral Fraction is still not an int
    for entries in ((1, Q(1, 2), 0), (Q(1),), (1.0,)):
        with pytest.raises(TypeError, match="ints"):
            Matrix(1, len(entries), entries)
    with pytest.raises(TypeError, match="ints"):
        M([[1, Q(1, 2), 0]])
    assert M([[1, 2, 0]]).entries == (1, 2, 0)


def test_entries_length_validated():
    with pytest.raises(ValueError):
        Matrix(2, 2, (1,))


# --- the product ---

@st.composite
def int_products(draw):
    """Int rows a (r x k) and b (k x c), each of r, k and c possibly 0:
    with k = 0, b has no rows and only the column count c gives its shape."""
    r, k, c = (draw(st.integers(0, 4)) for _ in range(3))
    entry = st.integers(-5, 5)
    a = [tuple(draw(entry) for _ in range(k)) for _ in range(r)]
    b = [tuple(draw(entry) for _ in range(c)) for _ in range(k)]
    return a, b, c


@given(int_products())
@example(([], [(1, 2)], 2))
@example(([(1,), (2,)], [()], 0))
@example(([(), ()], [], 3))
@example(([], [], 2))
@settings(max_examples=200, deadline=None)
def test_matmul_matches_the_fraction_reference(case):
    a, b, cols = case
    got = matmul(a, b, cols)
    assert type(got) is tuple and all(type(r) is tuple for r in got)
    assert all(type(e) is int for r in got for e in r)
    assert len(got) == len(a) and all(len(r) == cols for r in got)
    # the reference needs k >= 1; with k = 0 the product is zero
    want = mul(a, b) if b else [[0] * cols for _ in a]
    assert [list(r) for r in got] == want


def test_matmul_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="shape mismatch"):
        matmul([(1, 2)], [(1,)], 1)
    with pytest.raises(ValueError, match="shape mismatch"):
        matmul([(1,)], [(1, 2)], 3)
    with pytest.raises(ValueError, match="shape mismatch"):
        matmul([(1,)], [], 2)
