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

with (lam(i), w(i)) the eigenpairs np.linalg.eigh returns for U(i).  The
signs eigh gives the eigenvectors do not matter: each column meets only
itself in w w^T, and negation is exact.  A scalar self-transition mass a
commutes with everything and simply shifts each eigenvalue sum by a.

When l1 != l2 the blocks are not symmetric and this route is refused;
matrix_power on the full matrix is then the only route.
"""

from collections.abc import Mapping
from functools import reduce

import numpy as np

from .errors import DomainError, UnsupportedConfigError
from .lattice import edge_table, is_integer, require_equal_bounds
from .model import check_self_mass


def block_decompose(p):
    """The blocks [U(1), ..., U(q)] of a parametrization with l1 = l2:
    U(i) is symmetric, of size n_i + 1, with U(i)[r, r+x] = gamma(i, r, x)."""
    require_equal_bounds(p.shape, "the symmetric block decomposition")
    blocks = [np.zeros((n + 1, n + 1)) for n in p.shape.dims]
    for (i, r, x), g in zip(edge_table(p.shape).classes.tolist(),
                            p.gamma_vector.tolist()):
        blocks[i - 1][r, r + x] = blocks[i - 1][r + x, r] = g
    return blocks


def axis_eigensystems(p):
    """The blocks of p and the (ascending eigenvalues, orthonormal
    eigenvector columns) pair np.linalg.eigh returns for each."""
    blocks = block_decompose(p)
    return blocks, [np.linalg.eigh(u) for u in blocks]


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
    w = reduce(np.kron, [vectors for _, vectors in systems])
    lam = reduce(np.add.outer, [values for values, _ in systems]).ravel()
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
