"""Exact references in Fractions, on plain row lists: Gauss-Jordan RREF,
the matrix inverse as the right half of the RREF of [M | I], the
determinant by Gaussian elimination, and the product, sum and scalar
multiple of matrices.  The tests use them to build Coxeter matrices and
to check silt's integer routines (rref, kernel_basis, integer_solve,
coxeter_matrix, euler_form, determinant) independently; none of them
calls silt."""

from fractions import Fraction as Q


def gauss_jordan_rref(rows, cols):
    """Reference RREF of a cols-wide matrix: Gauss-Jordan elimination in
    Fractions, first usable pivot row, each pivot row divided through
    before it clears its column.  Returns (rows, pivot columns)."""
    rows = [[Q(e) for e in r] for r in rows]
    pivots = []
    r = 0
    for c in range(cols):
        if r == len(rows):
            break
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = Q(1) / rows[r][c]
        rows[r] = [e * inv for e in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def is_integral(rows):
    return all(e.denominator == 1 for r in rows for e in r)


def inverse(rows):
    """M^{-1} as the right half of the rref of [M | I]; raises ValueError
    when M is singular or not square."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("inverse of non-square matrix")
    aug = [[*r, *(int(i == j) for j in range(n))] for i, r in enumerate(rows)]
    red, pivots = gauss_jordan_rref(aug, 2 * n)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [r[n:] for r in red]


def transpose(rows):
    return [list(c) for c in zip(*rows)]


def mul(a, b):
    """The product of an n x k and a k x m matrix, k >= 1."""
    return [[sum(x * y for x, y in zip(r, c)) for c in zip(*b)] for r in a]


def add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def scale(rows, c):
    return [[Q(c) * e for e in r] for r in rows]


def determinant_reference(rows) -> Q:
    """det by Gaussian elimination in Fractions: the product of the
    pivots, negated once per row swap; 0 when a column has no pivot."""
    m = [[Q(e) for e in r] for r in rows]
    n, det = len(m), Q(1)
    for k in range(n):
        p = next((i for i in range(k, n) if m[i][k]), None)
        if p is None:
            return Q(0)
        if p != k:
            m[k], m[p] = m[p], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return det
