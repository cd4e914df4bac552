"""Block decomposition and closed-form k-step transition probabilities.

For a parametrized model with equal jump bounds l1 = l2, each directional
matrix factors as P_i = B A(i) B^-1 where B is the diagonal of vertex
weights and A(i) acts on coordinate i alone: it is the Kronecker product
I x ... x U(i) x ... x I with one copy of a symmetric banded block U(i) of
size n_i + 1 in slot i.  The block entries are the edge weights,
U(i)[r, r+x] = gamma(i, r, x), zero on the diagonal and beyond bandwidth l.

Because the A(i) act on disjoint tensor slots, the full k-step matrix has
the closed form

    P^(k)[u, v] = b_u * sum over eigenindex tuples (r_1..r_q) of
                  (sum_i lam(i)_{r_i})^k * prod_i w(i)_{r_i}[u_i] w(i)_{r_i}[v_i]
                  / b_v

with (lam(i), w(i)) the eigensystem of U(i).  A scalar self-transition mass
a commutes with everything and simply shifts each eigenvalue sum by a.

When l1 != l2 the blocks are not symmetric and this route is refused;
matrix_power remains available as the general fallback.
"""

from collections.abc import Mapping
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DomainError, UnsupportedConfigError
from .lattice import grid_states, require_equal_bounds
from .param import edge_classes

# residual bound for eigendecomposition contracts (reconstruction,
# orthonormality, symmetry of the input)
EIGEN_TOL = 1e-10


@dataclass
class BlockDecomposition:
    shape: object
    b: dict  # state -> positive diagonal entry of B (the vertex weights)
    blocks: list  # blocks[i-1]: symmetric banded matrix of size n_i + 1


def block_decompose(p):
    """Blocks and conjugating diagonal for a parametrization with l1 = l2."""
    shape = p.shape
    require_equal_bounds(shape, "the symmetric block decomposition")
    blocks = [np.zeros((n + 1, n + 1)) for n in shape.dims]
    for c in edge_classes(shape):
        u, r, x = blocks[c.direction - 1], c.offset, c.step
        u[r, r + x] = u[r + x, r] = p.gamma[c]
    return BlockDecomposition(shape, dict(p.alpha), blocks)


def direction_operator(decomp, i):
    """Full-size A(i), dense N x N, for the oracles in tests and demos."""
    shape = decomp.shape
    if not 1 <= i <= shape.q:
        raise DomainError("direction %d outside 1..%d" % (i, shape.q))
    factors = [np.eye(n + 1) for n in shape.dims]
    factors[i - 1] = decomp.blocks[i - 1]
    return reduce(np.kron, factors)


def b_vector(decomp):
    """Diagonal of B in lattice index order."""
    return np.array([decomp.b[u] for u in grid_states(decomp.shape)])


@dataclass
class EigenSystem:
    values: object  # ascending eigenvalues
    vectors: object  # orthonormal eigenvectors as columns, vectors[:, r]


def symmetric_eigen(u, tol=EIGEN_TOL):
    """Eigensystem of a symmetric matrix.

    Eigenvalues ascending; each eigenvector's sign is fixed by making its
    first non-negligible component positive, so output is deterministic.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DomainError("expected a square matrix, got shape %s" % (u.shape,))
    if u.size and float(np.abs(u - u.T).max()) > tol:
        raise DomainError(
            "matrix is not symmetric within %g (max asymmetry %g)"
            % (tol, float(np.abs(u - u.T).max()))
        )
    values, vectors = np.linalg.eigh((u + u.T) / 2.0)
    vectors = vectors.copy()
    for r in range(vectors.shape[1]):
        col = vectors[:, r]
        lead = np.flatnonzero(np.abs(col) > 1e-8)
        if lead.size and col[lead[0]] < 0:
            vectors[:, r] = -col
    return EigenSystem(values, vectors)


def axis_eigensystems(p):
    """Block decomposition of p and the eigensystem of each of its blocks."""
    decomp = block_decompose(p)
    return decomp, [symmetric_eigen(u) for u in decomp.blocks]


def k_step(p, k):
    """The k-step transition matrix of the parametrized model, spectrally."""
    return k_step_with_self(p, 0.0, k)


def k_step_with_self(p, alpha_self, k):
    """k-step matrix when every state also holds mass alpha_self in place.

    Only a scalar self mass is supported: a non-scalar diagonal does not
    commute with the directional matrices, so no closed form exists.
    """
    if isinstance(alpha_self, Mapping):
        raise UnsupportedConfigError(
            "per-state self-transition table does not commute with the "
            "directional matrices; use matrix_power on the full matrix"
        )
    a = float(alpha_self)
    if not 0.0 <= a < 1.0:
        raise DomainError("self mass %r outside [0, 1)" % alpha_self)
    k = _check_power(k)
    decomp, systems = axis_eigensystems(p)
    b = b_vector(decomp)
    w = reduce(np.kron, [s.vectors for s in systems])
    lam = reduce(np.add.outer, [s.values for s in systems]).ravel()
    inner = (w * (a + lam) ** k) @ w.T
    return b[:, None] * inner / b[None, :]


def matrix_power(p_matrix, k):
    """Plain k-th matrix power (binary exponentiation); the oracle route."""
    k = _check_power(k)
    return np.linalg.matrix_power(np.asarray(p_matrix, dtype=float), k)


def _check_power(k):
    if int(k) != k or k < 0:
        raise DomainError("step count must be a non-negative integer, got %r" % (k,))
    return int(k)
