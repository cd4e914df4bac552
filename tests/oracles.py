"""Reference implementations of production routes: slow (dense N x N, or
one Python object per entry), but written straight from the definitions
they check.  No production path runs them."""

import json
from collections.abc import Mapping
from functools import reduce

import numpy as np

from gbdp.commute import DEFAULT_TOL
from gbdp.errors import DomainError, StructureError
from gbdp.lattice import Edge, edge_table, in_grid
from gbdp.spectral import block_decompose
from gbdp.stochastic import _strongly_connected

# successive-iterate threshold and iteration cap of perron's power method
VECTOR_TOL = 1e-13
ITERATION_CAP_PER_SIZE = 100
# bound on the converged eigenpair residual relative to norm(M, inf): an
# iterate that moved at most VECTOR_TOL leaves a residual near 1.5 times
# VECTOR_TOL (the shift is half the norm); the rest is margin for rounding
PERRON_RESIDUAL_TOL = 1e-10


def shifted(u, direction, step):
    """State u with coordinate `direction` (1-based) moved by `step`."""
    i = direction - 1
    return u[:i] + (u[i] + step,) + u[i + 1:]


def edge_between(shape, u, v):
    """The Edge u -> v if the pair is adjacent on the grid, else None."""
    u, v = tuple(u), tuple(v)
    if not (in_grid(shape, u) and in_grid(shape, v)):
        return None
    diff = [i for i in range(shape.q) if u[i] != v[i]]
    if len(diff) != 1:
        return None
    i = diff[0]
    step = v[i] - u[i]
    if 0 < step <= shape.l1 or 0 < -step <= shape.l2:
        return Edge(u, v, i + 1, step)
    return None


def constraint_edges(c):
    """The four directed edges of a commute.Constraint.

    Returns ((left1, left2), (right1, right2)); the identity says the product
    of the left pair equals the product of the right pair.
    """
    v1 = shifted(c.base, c.i, c.step_i)
    v2 = shifted(c.base, c.j, c.step_j)
    w = shifted(v1, c.j, c.step_j)
    return ((c.base, v1), (v1, w)), ((c.base, v2), (v2, w))


def directional_matrix(model, i):
    """Dense matrix P_i of moves along coordinate i (1-based); other
    entries zero.

    Keys that are not legal grid edges (a validation violation) are skipped.
    """
    shape = model.shape
    shape.check_directions(i)
    t = edge_table(shape)
    out = np.zeros((shape.n_states, shape.n_states))
    out[t.src, t.dst] = np.where(t.direction == i, model.edge_prob, 0.0)
    return out


def direction_operator(p, i):
    """Dense N x N A(i) of a parametrization: the Kronecker product of
    identities with its block i in slot i."""
    shape = p.shape
    shape.check_directions(i)
    factors = [np.eye(n + 1) for n in shape.dims]
    factors[i - 1] = block_decompose(p)[i - 1]
    return reduce(np.kron, factors)


def commutes_direct(model, i, j, tol=DEFAULT_TOL):
    """(bool, max residual) for max-abs(P_i P_j - P_j P_i) <= tol, from
    the dense directional matrices."""
    model.shape.check_directions(i, j)
    pi = directional_matrix(model, i)
    pj = directional_matrix(model, j)
    residual = float(np.abs(pi @ pj - pj @ pi).max())
    return residual <= tol, residual


def perron(m):
    """Perron root and unit-sum positive eigenvector of an irreducible
    non-negative matrix; the dense oracle for normalize_stochastic.

    Power iteration from the uniform vector on M + eps*I with eps =
    0.5*norm(M, inf): the shift breaks the period-2 oscillation of
    bipartite-like patterns (grids with only odd jump sizes) without
    changing eigenvectors, and is subtracted from the converged root.
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
    v = np.full(n, 1.0 / n)
    cap = ITERATION_CAP_PER_SIZE * n
    for _ in range(cap):
        w = m @ v + eps * v
        w /= w.sum()
        if float(np.abs(w - v).max()) <= VECTOR_TOL:
            v = w
            break
        v = w
    else:
        raise RuntimeError(
            "power iteration did not converge within %d iterations" % cap
        )
    rho = float((m @ v).sum())
    residual = float(np.abs(m @ v - rho * v).max())
    if residual > PERRON_RESIDUAL_TOL * norm:
        raise RuntimeError(
            "eigenpair residual %g exceeds %g after convergence"
            % (residual, PERRON_RESIDUAL_TOL * norm)
        )
    return rho, v


def _state_key(u):
    return ",".join(str(c) for c in u)


def _shape_doc(shape):
    return {"q": shape.q, "dims": list(shape.dims),
            "l1": shape.l1, "l2": shape.l2}


def _dump(doc, path):
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def save_model(model, path):
    """fileio.save_model as json.dump of the whole document, one dict per
    edge."""
    edges = [
        {"from": list(u), "to": list(v), "prob": p}
        for (u, v), p in sorted(model.probs.items())
    ]
    self_prob = model.self_prob
    if isinstance(self_prob, Mapping):
        self_prob = {_state_key(u): d for u, d in sorted(self_prob.items())}
    _dump({
        "format_version": 1,
        "shape": _shape_doc(model.shape),
        "self": self_prob,
        "edges": edges,
        "absorbing": model.absorbing,
    }, path)


def save_params(p, path):
    """fileio.save_params as json.dump of the whole document."""
    _dump({
        "format_version": 1,
        "shape": _shape_doc(p.shape),
        "alpha": {_state_key(u): a for u, a in sorted(p.alpha.items())},
        "gamma": {"%d,%d,%d" % c: g for c, g in sorted(p.gamma.items())},
    }, path)
