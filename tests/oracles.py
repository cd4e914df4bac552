"""Dense reference implementations of production routes: slow and N x N,
but written straight from the definitions they check."""

import numpy as np

from gbdp.commute import DEFAULT_TOL
from gbdp.model import directional_matrix


def commutes_direct(model, i, j, tol=DEFAULT_TOL):
    """(bool, max residual) for max-abs(P_i P_j - P_j P_i) <= tol, from
    the dense directional matrices."""
    model.shape.check_directions(i, j)
    pi = directional_matrix(model, i)
    pj = directional_matrix(model, j)
    residual = float(np.abs(pi @ pj - pj @ pi).max())
    return residual <= tol, residual
