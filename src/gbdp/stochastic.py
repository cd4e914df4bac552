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
uniformly.  perron, power iteration on a dense matrix, runs on no
production path: it is kept as the independent oracle.
"""

from functools import reduce

import numpy as np

from .errors import ConvergenceError, DomainError, StructureError
from .lattice import grid_states
from .model import ROW_SUM_TOL, check_self_mass
from .param import Parametrization
from .spectral import axis_eigensystems

# successive-iterate threshold and iteration cap of the oracle's power method
VECTOR_TOL = 1e-13
ITERATION_CAP_PER_SIZE = 100
# bound on the converged eigenpair residual relative to norm(M, inf): an
# iterate that moved at most VECTOR_TOL leaves a residual near 1.5 times
# VECTOR_TOL (the shift is half the norm); the rest is margin for rounding
PERRON_RESIDUAL_TOL = 1e-10


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


def perron(m, v0=None):
    """Perron root and unit-sum positive eigenvector of an irreducible
    non-negative matrix; the dense oracle for normalize_stochastic.

    Power iteration on M + eps*I with eps = 0.5*norm(M, inf): the shift
    breaks the period-2 oscillation of bipartite-like patterns (grids with
    only odd jump sizes) without changing eigenvectors, and is subtracted
    from the converged root.  An optional positive starting vector v0
    replaces the default uniform start; the limit does not depend on it.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError("expected a square matrix, got shape %s" % (m.shape,))
    if m.size and float(m.min()) < 0.0:
        raise DomainError("matrix has a negative entry (%g)" % float(m.min()))
    n = m.shape[0]
    norm = float(np.abs(m).sum(axis=1).max())
    if norm == 0.0:
        raise StructureError("matrix has no nonzero entries")
    if not _strongly_connected(m):
        raise StructureError(
            "matrix is reducible (nonzero pattern is not strongly connected)"
        )
    eps = 0.5 * norm
    if v0 is None:
        v = np.full(n, 1.0 / n)
    else:
        v = np.asarray(v0, dtype=float)
        if v.shape != (n,) or float(v.min()) <= 0.0:
            raise DomainError("starting vector must be positive of length %d" % n)
        v = v / v.sum()
    cap = ITERATION_CAP_PER_SIZE * n
    for _ in range(cap):
        w = m @ v + eps * v
        w /= w.sum()
        if float(np.abs(w - v).max()) <= VECTOR_TOL:
            v = w
            break
        v = w
    else:
        raise ConvergenceError(
            "power iteration did not converge within %d iterations" % cap
        )
    rho = float((m @ v).sum())
    residual = float(np.abs(m @ v - rho * v).max())
    if residual > PERRON_RESIDUAL_TOL * norm:
        raise ConvergenceError(
            "eigenpair residual %g exceeds %g after convergence"
            % (residual, PERRON_RESIDUAL_TOL * norm)
        )
    return rho, v


def normalize_stochastic(p, alpha_self=0.0):
    """Rescale a parametrization so the full matrix is stochastic.

    The result's model has every row sum equal to 1 - alpha_self; adding the
    scalar self mass makes it exactly stochastic.
    """
    a = check_self_mass(alpha_self)
    decomp, systems = axis_eigensystems(p)
    if not all(_strongly_connected(u) for u in decomp.blocks):
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
