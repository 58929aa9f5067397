"""Matrix inverse by row reduction of [M | I], the determinant by
Gaussian elimination over Fractions, and the sum and scalar multiple of
matrices: references the tests use to build Coxeter matrices and to
check silt's integer routines (coxeter_matrix, euler_form, integer_solve,
determinant) independently."""

from fractions import Fraction as Q

from silt.linalg import RatMatrix, rref


def add(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("shape mismatch in matrix sum")
    return RatMatrix(
        a.rows, a.cols, tuple(x + y for x, y in zip(a.entries, b.entries))
    )


def scale(m: RatMatrix, c) -> RatMatrix:
    return RatMatrix(m.rows, m.cols, tuple(Q(c) * e for e in m.entries))


def inverse(m: RatMatrix) -> RatMatrix:
    """M^{-1} as the right half of the rref of [M | I]; raises ValueError
    when M is singular or not square."""
    if m.rows != m.cols:
        raise ValueError("inverse of non-square matrix")
    n = m.rows
    aug = RatMatrix(
        n,
        2 * n,
        tuple(
            m.at(i, j) if j < n else Q(1 if j - n == i else 0)
            for i in range(n)
            for j in range(2 * n)
        ),
    )
    red, pivots = rref(aug)
    if [p for p in pivots if p < n] != list(range(n)):
        raise ValueError("matrix is singular")
    return RatMatrix(
        n, n, tuple(red.at(i, n + j) for i in range(n) for j in range(n))
    )


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
