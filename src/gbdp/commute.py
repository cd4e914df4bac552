"""Commutation tests for directional transition matrices.

Two routes are provided and kept deliberately independent:

* commutes_direct multiplies the dense directional matrices and measures
  max-abs(P_i P_j - P_j P_i);
* constraint_residuals evaluates the bilinear two-step identities whose
  joint vanishing is equivalent to commutation.

Each constraint compares the two orders of a pair of jumps: one of signed
size a along direction i, one of signed size b along direction j.  With
w = u + a e_i + b e_j, the identity is

    p(u, u + a e_i) p(u + a e_i, w)  =  p(u, u + b e_j) p(u + b e_j, w).

The four sign patterns of (a, b) are families 1..4: (+,+), (+,-), (-,+),
(-,-).  A constraint is generated exactly when all four corner states lie
on the grid; an entry (s, t) of the commutator difference is identically
zero unless both opposite corners s and t are on the grid, and on an
axis-aligned box that forces all four corners in, so the in-grid rule loses
nothing.  Constraints whose probabilities happen to all be zero are still
generated (their residual is exactly 0).
"""

from typing import NamedTuple

import numpy as np

from .errors import DomainError, UnsupportedConfigError
from .lattice import edge_table, grid_states, shifted
from .model import directional_matrix

# probabilities are O(1) so products are O(1); absolute tolerance
DEFAULT_TOL = 1e-12


class Constraint(NamedTuple):
    """One bilinear commutation identity, human-readable on failure."""

    family: int  # 1..4 by sign pattern of (step_i, step_j)
    i: int
    j: int
    base: tuple
    step_i: int  # signed jump along direction i (first factor on the left)
    step_j: int  # signed jump along direction j


def constraint_edges(c):
    """The four directed edges of a constraint.

    Returns ((left1, left2), (right1, right2)); the identity says the product
    of the left pair equals the product of the right pair.
    """
    v1 = shifted(c.base, c.i, c.step_i)
    v2 = shifted(c.base, c.j, c.step_j)
    w = shifted(v1, c.j, c.step_j)
    return ((c.base, v1), (v1, w)), ((c.base, v2), (v2, w))


def constraint_columns(shape, i, j):
    """Edge columns (left1, left2, right1, right2) of the constraints of
    the direction pair (i, j), one array each, in pair_constraints order."""
    if i == j:
        raise DomainError("self-commutation of direction %d is vacuous" % i)
    if not (1 <= i <= shape.q and 1 <= j <= shape.q):
        raise DomainError(
            "direction pair (%d, %d) outside 1..%d" % (i, j, shape.q)
        )
    t = edge_table(shape)
    lmax = max(shape.l1, shape.l2)
    # lookup slots of (step_i, step_j): by family (signs), then by sizes
    si, sj, xi, xj = np.indices((2, 2, lmax, lmax)).reshape(4, -1)
    slot_i, slot_j = si * lmax + xi, sj * lmax + xj
    first_i, first_j = t.column[:, i - 1, slot_i], t.column[:, j - 1, slot_j]
    base, k = np.nonzero((first_i >= 0) & (first_j >= 0))
    left1, right1 = first_i[base, k], first_j[base, k]
    left2 = t.column[t.dst[left1], j - 1, slot_j[k]]
    right2 = t.column[t.dst[right1], i - 1, slot_i[k]]
    return left1, left2, right1, right2


def pair_constraints(shape, i, j):
    """All constraints for the direction pair (i, j), in a fixed order.

    Order: base state (lattice order), then family, then |step_i|, |step_j|.
    """
    t = edge_table(shape)
    states = grid_states(shape)
    left1, _, right1, _ = constraint_columns(shape, i, j)
    return [
        Constraint(1 + 2 * (a < 0) + (b < 0), i, j, states[s], a, b)
        for s, a, b in zip(t.src[left1].tolist(), t.step[left1].tolist(),
                           t.step[right1].tolist())
    ]


def constraint_residuals(model, i, j):
    """(Constraint, residual) for every constraint of the pair (i, j).

    residual = left product - right product, with any absent edge
    contributing probability 0.
    """
    left1, left2, right1, right2 = constraint_columns(model.shape, i, j)
    p = model.edge_prob
    res = p[left1] * p[left2] - p[right1] * p[right2]
    return list(zip(pair_constraints(model.shape, i, j), res.tolist()))


def commutes_direct(model, i, j, tol=DEFAULT_TOL):
    """(bool, max residual) for max-abs(P_i P_j - P_j P_i) <= tol."""
    if i == j:
        raise DomainError("self-commutation of direction %d is vacuous" % i)
    pi = directional_matrix(model, i)
    pj = directional_matrix(model, j)
    residual = float(np.abs(pi @ pj - pj @ pi).max())
    return residual <= tol, residual


class MinorGroup(NamedTuple):
    """A 2x4 probability matrix over one grid rectangle and its 2x2 minors.

    For the rectangle with corners s=(i,j), B=(i+a,j), C=(i,j+b), t=(i+a,j+b):
    row 0 holds the out-edges of the diagonal {s, t}, row 1 those of {B, C},
    columns aligned so that matching columns are jumps of the same direction
    and size: [s->B, t->B, t->C, s->C] over [C->t, C->s, B->s, B->t].
    All six minors vanish iff the four commutation identities on this
    rectangle hold (for positive entries: iff the rows are proportional).
    """

    base: tuple
    steps: tuple
    matrix: object  # 2x4 array
    minors: dict  # (col, col) -> 2x2 minor value


def rank1_minor_report(model):
    """Rectangle-by-rectangle rank-1 check for 2-D models."""
    shape = model.shape
    if shape.q != 2:
        raise UnsupportedConfigError(
            "rank-1 minor report is defined for 2-D grids only (q=%d)" % shape.q
        )
    n1, n2 = shape.dims
    lmax = min(shape.l1, shape.l2)
    out = []
    for a in range(1, lmax + 1):
        for b in range(1, lmax + 1):
            for i in range(0, n1 - a + 1):
                for j in range(0, n2 - b + 1):
                    s, t = (i, j), (i + a, j + b)
                    bb, cc = (i + a, j), (i, j + b)
                    m = np.array([
                        [model.p(s, bb), model.p(t, bb),
                         model.p(t, cc), model.p(s, cc)],
                        [model.p(cc, t), model.p(cc, s),
                         model.p(bb, s), model.p(bb, t)],
                    ])
                    minors = {}
                    for c in range(4):
                        for d in range(c + 1, 4):
                            minors[(c, d)] = float(
                                m[0, c] * m[1, d] - m[0, d] * m[1, c]
                            )
                    out.append(MinorGroup((i, j), (a, b), m, minors))
    return out
