"""Exact linear algebra over the integers.

A matrix is its ``int`` rows (``Rows``), and ``matmul`` is the one
product; ``Matrix``, a checked row-major record, is only the input of
``rref`` and ``kernel_basis``.  There is no floating point anywhere.
Over a Dynkin quiver every indecomposable has a basis in which its
matrices are 0/1 (Ringel, "Exceptional modules are tree modules"), and
every reduced echelon form silt takes has been integral on every
orientation tests/orientation_sweep.py covers; ``rref`` raises where one
is not.  All
routines are deterministic: identical inputs give identical outputs, bit
for bit.  Row-reduction always picks the first usable pivot row, so
reduced echelon forms (and everything derived from them: kernels and
canonical subspace bases) are canonical.  Coordinates over an RREF basis
are read off its pivot columns, and those modulo its span off its free
columns (``cokernel_coords``).  One elimination serves ``rank``, ``rref``
and ``integer_solve``: it runs on plain ``int`` rows, where a pivot
rewrites only the rows with a non-zero entry in its column and keeps each
of them primitive.  ``rref`` and ``integer_solve`` then divide each row by
its pivot in one place, ``_divide``, which raises RuntimeError when that
division is not exact.  ``determinant`` is the one other elimination:
fraction-free Bareiss, for tilted_type's integer.
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import Iterable, List, Optional, Sequence, Tuple


Rows = Tuple[Tuple[int, ...], ...]  # a matrix: its int rows


class Matrix:
    """The input record of ``rref`` and ``kernel_basis``: an immutable
    integer matrix stored row-major.  Every other routine takes int rows."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Tuple[int, ...]):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(entries) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries, got {len(entries)}"
            )
        if not set(map(type, entries)) <= {int}:
            raise TypeError("matrix entries must be ints")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", tuple(entries))

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "Matrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat: List[int] = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(row)
        return cls(r, c, tuple(flat))


def matmul(
    a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], cols: int
) -> Rows:
    """The product of int rows a and b, where b is cols wide: cols is given
    because b may have no rows."""
    b_cols = tuple(zip(*b)) if b else ((),) * cols
    if len(b_cols) != cols or any(len(row) != len(b) for row in a):
        raise ValueError("shape mismatch in matrix product")
    return tuple(tuple(sum(map(mul, row, col)) for col in b_cols) for row in a)


def _echelon(
    rows: List[List[int]], cols: int
) -> Tuple[List[List[int]], List[int]]:
    """Integer row echelon form of integer rows and its pivot columns.

    A pivot p clears its column only from the rows below it that have a
    non-zero entry f there: row <- p row - f top, divided by the gcd of
    its entries to keep it primitive.  Each row stays a non-zero multiple
    of the Gaussian elimination row over the rationals, so zero patterns,
    pivots and rank are those of Gaussian elimination.  Zero rows never
    pivot and sink below the pivot rows.  Only the non-zero rows are
    returned, one per pivot.  The list `rows` is reduced in place.
    """
    pivots: List[int] = []
    r, n = 0, len(rows)
    for c in range(cols):
        if r == n:
            break
        for i in range(r, n):
            if rows[i][c]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        top = rows[r]
        p = top[c]
        for i in range(r + 1, n):
            f = rows[i][c]
            if f:
                row = [p * a - f * b for a, b in zip(rows[i], top)]
                g = gcd(*row)
                rows[i] = [a // g for a in row] if g > 1 else row
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def _reduced(
    rows: List[List[int]], cols: int
) -> Tuple[List[List[int]], List[int]]:
    """The rref of integer rows, each row still scaled by its pivot entry.

    The entries above each pivot of the integer echelon form are cleared
    bottom up, still in integers.
    """
    rows, pivots = _echelon(rows, cols)
    for k in range(len(rows) - 1, 0, -1):
        c, low = pivots[k], rows[k]
        p = low[c]
        for i in range(k):
            f = rows[i][c]
            if f:
                rows[i] = [p * a - f * b for a, b in zip(rows[i], low)]
    return rows, pivots


def _divide(
    rows: List[List[int]], pivots: List[int], what: str
) -> List[List[int]]:
    """Each row divided by its entry at its pivot column; raises
    RuntimeError, naming the result as `what`, when a division is not
    exact."""
    out = []
    for row, c in zip(rows, pivots):
        p = row[c]
        if any(e % p for e in row):
            raise RuntimeError(f"{what} is not integral")
        out.append([e // p for e in row])
    return out


def rref(m: Matrix) -> Tuple[List[List[int]], List[int]]:
    """Reduced row echelon form, as m.rows int rows with the zero rows
    last, and the list of pivot columns.

    Integer elimination throughout; each row is divided by its pivot once,
    at the end, and RuntimeError is raised when the RREF is not integral.
    """
    c = m.cols
    rows = [list(m.entries[i * c : (i + 1) * c]) for i in range(m.rows)]
    rows, pivots = _reduced(rows, c)
    red = _divide(rows, pivots, "row echelon form")
    return red + [[0] * c for _ in range(m.rows - len(red))], pivots


def integer_solve(
    a: Sequence[Sequence[int]],
    b: Sequence[Sequence[int]],
    what: str = "solution",
) -> Tuple[Tuple[int, ...], ...]:
    """The integer rows of X with A X = B, for a square integer A.

    X is the right block of the rref of [A | B].  Raises ValueError when
    A is singular and RuntimeError, naming X as `what`, when X is not
    integral.
    """
    n = len(a)
    width = len(b[0]) if n else 0
    rows, pivots = _reduced([[*ra, *rb] for ra, rb in zip(a, b)], n + width)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in _divide(rows, pivots, what))


def determinant(rows: Sequence[Sequence[int]]) -> int:
    """det of a square integer matrix, by fraction-free Bareiss elimination:
    each entry below a pivot's row becomes a minor of the input, so its
    division by the previous pivot is exact, and the last pivot is det.  A
    zero pivot swaps in the first lower row with a non-zero entry in its
    column, flipping the sign; with none, det = 0."""
    m, sign, prev = [list(r) for r in rows], 1, 1
    if any(len(r) != len(m) for r in m):
        raise ValueError("determinant of non-square matrix")
    for k in range(len(m)):
        i = next((i for i in range(k, len(m)) if m[i][k]), None)
        if i is None:
            return 0
        if i != k:
            m[k], m[i], sign = m[i], m[k], -sign
        top, p = m[k], m[k][k]
        for row in m[k + 1 :]:
            row[k:] = [
                (p * a - row[k] * b) // prev for a, b in zip(row[k:], top[k:])
            ]
        prev = p
    return sign * prev


def rank(rows: Sequence[Sequence[int]], cols: int) -> int:
    """Rank of cols-wide int rows: the number of pivots of the integer
    echelon form."""
    return len(_echelon(list(rows), cols)[1])


def kernel_basis(m: Matrix) -> List[List[int]]:
    """Canonical basis of the right null space, as row lists.

    One basis vector per free column of the RREF: entry 1 at the free
    column, minus the pivot-row coefficients elsewhere.
    """
    red, pivots = rref(m)
    pivot_set = set(pivots)
    basis: List[List[int]] = []
    for fc in range(m.cols):
        if fc in pivot_set:
            continue
        v = [0] * m.cols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def row_space_rref(rows: Iterable[Sequence[int]]) -> List[List[int]]:
    """Canonical (RREF) basis of the span of the given row vectors."""
    rows = [list(r) for r in rows]
    if not rows:
        return []
    red, pivots = rref(Matrix.from_rows(rows))
    return red[: len(pivots)]


def pivot_columns(rows: Sequence[Sequence[int]]) -> List[int]:
    """Column of the leading non-zero entry of each row of an echelon basis."""
    return [next(i for i, e in enumerate(r) if e != 0) for r in rows]


def cokernel_coords(
    basis: Sequence[Sequence[int]], cols: int
) -> Tuple[List[int], List[List[int]]]:
    """The quotient of cols-wide rows by the span of an RREF row basis, in
    the coordinates of the basis's free columns: those columns, and per
    column c the image of the unit vector at c.  A free column maps to
    a unit vector, and the pivot column of row r to minus row r at the
    free columns."""
    pivot_row = dict(zip(pivot_columns(basis), basis))
    free = [c for c in range(cols) if c not in pivot_row]
    image = []
    for c in range(cols):
        row = pivot_row.get(c)
        if row is None:
            image.append([int(f == c) for f in free])
        else:
            image.append([-row[f] for f in free])
    return free, image


def reduce_by_rref(
    v: Sequence[int], basis: Sequence[Sequence[int]]
) -> List[int]:
    """Reduce v modulo the span of an RREF row basis."""
    v = list(v)
    for row, pc in zip(basis, pivot_columns(basis)):
        f = v[pc]
        if f != 0:
            v = [a - f * b for a, b in zip(v, row)]
    return v


def coords_in_rows(
    v: Sequence[int], rows: Sequence[Sequence[int]]
) -> Optional[List[int]]:
    """Coefficients x with sum_i x_i rows[i] = v, or None if v not in span.

    The rows must be an RREF basis, so x_i is v at the pivot of row i.
    """
    if any(reduce_by_rref(v, rows)):
        return None
    return [v[p] for p in pivot_columns(rows)]
