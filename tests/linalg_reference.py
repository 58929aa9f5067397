"""Matrix inverse by row reduction of [M | I]: a reference the tests use
to build Coxeter matrices and to check silt's integer routines
(coxeter_matrix, euler_form, integer_solve) independently."""

from fractions import Fraction as Q

from silt.linalg import RatMatrix, rref


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
