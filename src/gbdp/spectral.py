"""Block decomposition and closed-form k-step transition probabilities.

For a parametrized model with equal jump bounds l1 = l2, each directional
matrix factors as P_i = B A(i) B^-1 where B is the diagonal of vertex
weights (the parametrization's alpha_vector) and A(i) acts on coordinate i
alone: it is the Kronecker product I x ... x U(i) x ... x I with one copy
of a symmetric banded block U(i) of size n_i + 1 in slot i.  The block
entries are the edge weights, U(i)[r, r+x] = gamma(i, r, x), zero on the
diagonal and beyond bandwidth l; block_decompose returns just the blocks.

Because the A(i) act on disjoint tensor slots, the full k-step matrix has
the closed form

    P^(k)[u, v] = b_u * sum over eigenindex tuples (r_1..r_q) of
                  (sum_i lam(i)_{r_i})^k * prod_i w(i)_{r_i}[u_i] w(i)_{r_i}[v_i]
                  / b_v

with (lam(i), w(i)) the eigensystem of U(i).  A scalar self-transition mass
a commutes with everything and simply shifts each eigenvalue sum by a.

When l1 != l2 the blocks are not symmetric and this route is refused;
matrix_power on the full matrix is then the only route.
"""

from collections.abc import Mapping
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DomainError, UnsupportedConfigError
from .lattice import edge_table, is_integer, require_equal_bounds
from .model import check_self_mass

# eigenvector components below this count as zero when fixing the sign:
# block eigenvectors often have components that are exactly zero (by the
# block's symmetry) but come out of eigh as rounding noise of either sign
SIGN_LEAD_TOL = 1e-8


def block_decompose(p):
    """The blocks [U(1), ..., U(q)] of a parametrization with l1 = l2:
    U(i) is symmetric, of size n_i + 1, with U(i)[r, r+x] = gamma(i, r, x)."""
    require_equal_bounds(p.shape, "the symmetric block decomposition")
    blocks = [np.zeros((n + 1, n + 1)) for n in p.shape.dims]
    for (i, r, x), g in zip(edge_table(p.shape).classes.tolist(),
                            p.gamma_vector.tolist()):
        blocks[i - 1][r, r + x] = blocks[i - 1][r + x, r] = g
    return blocks


@dataclass
class EigenSystem:
    values: object  # ascending eigenvalues
    vectors: object  # orthonormal eigenvectors as columns, vectors[:, r]


def symmetric_eigen(u):
    """Eigensystem of a matrix that is symmetric bit for bit.

    Eigenvalues ascending; each eigenvector's sign is fixed by making its
    first non-negligible component positive, so output is deterministic.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DomainError("expected a square matrix, got shape %s" % (u.shape,))
    if not np.array_equal(u, u.T):
        raise DomainError("matrix is not symmetric (max asymmetry %g)"
                          % float(np.abs(u - u.T).max()))
    values, vectors = np.linalg.eigh(u)
    for r in range(vectors.shape[1]):
        col = vectors[:, r]
        lead = np.flatnonzero(np.abs(col) > SIGN_LEAD_TOL)
        if lead.size and col[lead[0]] < 0:
            vectors[:, r] = -col
    return EigenSystem(values, vectors)


def axis_eigensystems(p):
    """The blocks of p and the eigensystem of each."""
    blocks = block_decompose(p)
    return blocks, [symmetric_eigen(u) for u in blocks]


def k_step(p, k, alpha_self=0.0):
    """The k-step transition matrix of the parametrized model, spectrally,
    when every state also holds mass alpha_self in place.

    Only a scalar self mass is supported: a non-scalar diagonal does not
    commute with the directional matrices, so no closed form exists.
    """
    if isinstance(alpha_self, Mapping):
        raise UnsupportedConfigError(
            "per-state self-transition table does not commute with the "
            "directional matrices; use matrix_power on the full matrix"
        )
    a = check_self_mass(alpha_self)
    k = _check_power(k)
    _, systems = axis_eigensystems(p)
    if k == 0:  # the closed form gives I only up to rounding
        return np.eye(p.shape.n_states)
    w = reduce(np.kron, [s.vectors for s in systems])
    lam = reduce(np.add.outer, [s.values for s in systems]).ravel()
    inner = (w * (a + lam) ** k) @ w.T
    inner *= p.alpha_vector[:, None]
    inner /= p.alpha_vector[None, :]
    return inner


def matrix_power(p_matrix, k):
    """Plain k-th matrix power (binary exponentiation); the oracle route."""
    k = _check_power(k)
    return np.linalg.matrix_power(np.asarray(p_matrix, dtype=float), k)


def _check_power(k):
    if not is_integer(k) or k < 0:
        raise DomainError("step count must be a non-negative integer, got %r" % (k,))
    return int(k)
