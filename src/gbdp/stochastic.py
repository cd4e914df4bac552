"""Perron-root normalization of parametrized models.

The full matrix of a parametrized model is B (sum_i A(i)) B^-1, so its row
sums all equal 1 - a exactly when (1 - a)/rho times sum_i A(i) has Perron
root 1 - a and B^-1's diagonal is the Perron vector.  M = sum_i A(i) is the
Kronecker sum of the symmetric blocks U(i), so its Perron root is
sum_i lam_max(U(i)) and its Perron vector is the Kronecker product of the
blocks' top eigenvectors (Horn & Johnson, Topics in Matrix Analysis, 4.4).
M is irreducible iff every block is: a Cartesian product of graphs is
connected iff each factor is.  normalize_stochastic reads this pair off the
per-axis eigensystems, scales every gamma by (1 - alpha_self)/rho and
replaces the vertex weights by the reciprocal Perron components (gauged to
1 at the origin).  Commutation is untouched: the bilinear identities scale
uniformly.  No N x N matrix is formed; the tests check the result
against power iteration on the dense M.
"""

from functools import reduce

import numpy as np

from .errors import DomainError, StructureError
from .lattice import grid_states
from .model import ROW_SUM_TOL, check_self_mass
from .param import Parametrization
from .spectral import axis_eigensystems


def _strongly_connected(m):
    """Both-ways reachability of every node from node 0 on the nonzero pattern."""
    n = m.shape[0]
    for mat in (m, m.T):
        succ = [np.flatnonzero(mat[i] > 0) for i in range(n)]
        seen = np.zeros(n, dtype=bool)
        stack = [0]
        seen[0] = True
        while stack:
            i = stack.pop()
            for j in succ[i]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        if not seen.all():
            return False
    return True


def normalize_stochastic(p, alpha_self=0.0):
    """Rescale a parametrization so the full matrix is stochastic.

    The result's model has every row sum equal to 1 - alpha_self; adding the
    scalar self mass makes it exactly stochastic.
    """
    a = check_self_mass(alpha_self)
    blocks, systems = axis_eigensystems(p)
    if not all(_strongly_connected(u) for u in blocks):
        raise StructureError(
            "weight matrix is reducible (a direction's block is disconnected)"
        )
    rho = sum(float(s.values[-1]) for s in systems)
    v = reduce(np.kron, [s.vectors[:, -1] for s in systems])
    c = (1.0 - a) / rho
    alpha = dict(zip(grid_states(p.shape), (v[0] / v).tolist()))
    gamma = {cls: c * g for cls, g in p.gamma.items()}
    return Parametrization(p.shape, alpha, gamma)


def is_stochastic(p_matrix, tol=ROW_SUM_TOL):
    """True iff every row sum lies in [1 - tol, 1 + tol]."""
    m = np.asarray(p_matrix, dtype=float)
    if m.size and float(m.min()) < 0.0:
        raise DomainError("matrix has a negative entry (%g)" % float(m.min()))
    row_sums = m.sum(axis=1)
    return bool(np.all(np.abs(row_sums - 1.0) <= tol))
