"""Dynkin types of tilted blocks by Coxeter polynomials: the reference
route that silt.classify.tilted_type's determinant rule is tested
against.

A tilted algebra is derived equivalent to a Dynkin path algebra, so its
Coxeter matrix Phi = -C^{-1} C^T is conjugate to that algebra's and has
the same characteristic polynomial.  At each rank the A, D and E path
algebras have distinct Coxeter polynomials, so a block's polynomial
names its type: it is looked up among those of one reference quiver per
type of the block's rank, built here.  It costs a characteristic
polynomial per block and reference quivers per rank, which is why silt
reads the type off one determinant instead.
"""

from functools import cache
from typing import Dict, Sequence, Tuple

from silt.modules import projective_dim_vectors
from silt.quivers import Arrow, DynkinType, Quiver, coxeter_matrix


def charpoly(rows: Sequence[Sequence[int]]) -> Tuple[int, ...]:
    """det(tI - M) of an integer matrix M, leading coefficient first.

    Faddeev-LeVerrier: M_1 = M, c_k = -tr(M_k) / k, M_{k+1} = M (M_k + c_k I).
    Each c_k is a coefficient of an integer polynomial, so the division is
    exact; a remainder raises RuntimeError.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("charpoly of non-square matrix")
    coeffs = [1]
    m_k = [list(r) for r in rows]
    for k in range(1, n + 1):
        c, rem = divmod(-sum(m_k[i][i] for i in range(n)), k)
        if rem:
            raise RuntimeError(f"Faddeev-LeVerrier division by {k} is inexact")
        coeffs.append(c)
        if k < n:
            for i in range(n):
                m_k[i][i] += c
            cols = list(zip(*m_k))
            m_k = [
                [sum(a * b for a, b in zip(r, col)) for col in cols]
                for r in rows
            ]
    return tuple(coeffs)


@cache
def coxeter_polynomial(cartan: Tuple[Tuple[int, ...], ...]) -> Tuple[int, ...]:
    """Coefficients of det(t - Phi), leading first, for integer Cartan rows
    C and Phi = -C^{-1} C^T."""
    return charpoly(coxeter_matrix(cartan))


def reference_quiver(n: int, branch: int) -> Quiver:
    """A_n for branch 0; otherwise the chain 1 -> ... -> n-1 with vertex n
    attached at vertex `branch`, which gives D_n for 2 and E_n for 3."""
    m = n - 1 if branch else n
    arrows = [Arrow(f"x{i}", i, i + 1) for i in range(1, m)]
    if branch:
        arrows.append(Arrow(f"x{n}", n, branch))
    return Quiver(tuple(range(1, n + 1)), tuple(arrows))


@cache
def reference_polynomials(n: int) -> Dict[Tuple[int, ...], Tuple[str, int]]:
    """Coxeter polynomials of the Dynkin path algebras of rank n."""
    branches = {"A": 0}
    if n >= 4:
        branches["D"] = 2
    if 6 <= n <= 8:
        branches["E"] = 3
    table: Dict[Tuple[int, ...], Tuple[str, int]] = {}
    for family, branch in branches.items():
        poly = coxeter_polynomial(
            projective_dim_vectors(reference_quiver(n, branch))
        )
        if poly in table:
            raise RuntimeError("reference Coxeter polynomials collide")
        table[poly] = (family, n)
    return table


def coxeter_type(cartan: Tuple[Tuple[int, ...], ...]) -> DynkinType:
    """Dynkin type of a tilted block, from the Coxeter polynomial of its
    integer Cartan rows."""
    poly = coxeter_polynomial(cartan)
    n = len(poly) - 1
    table = reference_polynomials(n)
    if poly not in table:
        raise RuntimeError(
            f"no Dynkin type of rank {n} matches Coxeter polynomial {poly}"
        )
    return DynkinType.of([table[poly]])
