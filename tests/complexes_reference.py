"""The one-step route to dim Hom(X, Y[1]): the cokernel of the whole
differential d^0 of the Hom complex, as a rank.

silt.complexes.hom_class_dim takes Hom(X, Y[1]) in two quotients, through
one cokernel table per complex Y; this reference ranks d^0(f_0, f) =
f_0 d_X - d_Y f on all of Hom(X^0, Y^0) + Hom(X^{-1}, Y^{-1}) at once,
from the same builder _d0 that hom_class_basis reads.
"""

from silt.complexes import _d0
from silt.linalg import rank


def hom_shift_dim(x, y):
    """dim Hom(X, Y[1]) = dim Hom(X^{-1}, Y^0) - rank d^0."""
    d0, _, nw = _d0(x, y)
    return nw - rank(d0, nw)
