"""Exact linear algebra over the integers.

Every matrix entry is an ``int``; there is no floating point anywhere.
Over a Dynkin quiver every indecomposable has a basis in which its
matrices are 0/1 (Ringel, "Exceptional modules are tree modules"), and
every reduced echelon form silt takes has been integral on every
orientation tests/orientation_sweep.py covers; ``rref`` raises where one
is not.  All
routines are deterministic: identical inputs give identical outputs, bit
for bit.  Row-reduction always picks the first usable pivot row, so
reduced echelon forms (and everything derived from them: kernels and
canonical subspace bases) are canonical.  Coordinates over an RREF basis
are read off its pivot columns.  One elimination serves ``rank``, ``rref``
and ``integer_solve``: it runs on plain ``int`` rows, where a pivot
rewrites only the rows with a non-zero entry in its column and keeps each
of them primitive.  ``rref`` and ``integer_solve`` then divide each row by
its pivot in one place, ``_divide``, which raises RuntimeError when that
division is not exact.  ``determinant`` is the one other elimination:
fraction-free Bareiss, for tilted_type's integer.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, List, Optional, Sequence, Tuple


class Matrix:
    """Immutable integer matrix stored row-major."""

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

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> List[List[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols}, {self.to_rows()})"

    def transpose(self) -> "Matrix":
        ent = tuple(
            self.at(i, j) for j in range(self.cols) for i in range(self.rows)
        )
        return Matrix(self.cols, self.rows, ent)

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        ent: List[int] = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                s = 0
                for k in range(self.cols):
                    if ri[k]:
                        s += ri[k] * other.at(k, j)
                ent.append(s)
        return Matrix(self.rows, other.cols, tuple(ent))


def identity(n: int) -> Matrix:
    return Matrix(n, n, tuple(int(i == j) for i in range(n) for j in range(n)))


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
    r = 0
    for c in range(cols):
        if r == len(rows):
            break
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        top = rows[r]
        p = top[c]
        for i in range(r + 1, len(rows)):
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


def rref(m: Matrix) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form and the list of pivot columns.

    Integer elimination throughout; each row is divided by its pivot once,
    at the end, and RuntimeError is raised when the RREF is not integral.
    """
    rows, pivots = _reduced(m.to_rows(), m.cols)
    ent = [e for row in _divide(rows, pivots, "row echelon form") for e in row]
    ent.extend([0] * ((m.rows - len(rows)) * m.cols))
    return Matrix(m.rows, m.cols, tuple(ent)), pivots


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


def rank(m: Matrix) -> int:
    """Rank: the number of pivots of the integer echelon form."""
    return len(_echelon(m.to_rows(), m.cols)[1])


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
            v[pc] = -red.at(r, fc)
        basis.append(v)
    return basis


def row_space_rref(rows: Iterable[Sequence[int]]) -> List[List[int]]:
    """Canonical (RREF) basis of the span of the given row vectors."""
    rows = [list(r) for r in rows]
    if not rows:
        return []
    red, pivots = rref(Matrix.from_rows(rows))
    return [list(red.row(i)) for i in range(len(pivots))]


def pivot_columns(rows: Sequence[Sequence[int]]) -> List[int]:
    """Column of the leading non-zero entry of each row of an echelon basis."""
    return [next(i for i, e in enumerate(r) if e != 0) for r in rows]


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
