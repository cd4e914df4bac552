"""Commutation test for directional transition matrices.

One route: per-constraint residuals.  An entry (s, t) of P_i P_j has at
most one nonzero term, the path that moves along i first, so an entry of
P_i P_j - P_j P_i is that path's product minus the product of the path
that moves along j first.  That difference is the residual of exactly one
constraint below, computed with the same floating-point operations, so
commutes_direct, the maximum absolute residual, equals max-abs of the
dense commutator bit for bit with no N x N matrix.  The dense commutator
in tests/oracles.py is the independent oracle.

The constraints of a pair are edge columns of the edge table, cached per
shape and pair like the edge table.  The constraints' edges spelled out as
coordinate pairs are a test oracle.

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
generated (their residual is exactly 0).  On a 2-D grid with positive
probabilities, the four identities of a rectangle say that the jumps out of
its two diagonals are proportional (a rank-1 2x4 matrix).
"""

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .lattice import edge_table, grid_states, move_slot

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


def constraint_columns(shape, i, j):
    """Edge columns (left1, left2, right1, right2) of the constraints of
    the direction pair (i, j), one read-only array each, in
    pair_constraints order."""
    shape.check_directions(i, j)
    return _pair_columns(shape, int(i), int(j))


@lru_cache(maxsize=16)
def _pair_columns(shape, i, j):
    """constraint_columns of a checked pair (i, j) of plain ints."""
    t = edge_table(shape)
    lmax = max(shape.l1, shape.l2)
    # lookup slots of (step_i, step_j): by family (signs), then by sizes
    si, sj, xi, xj = np.indices((2, 2, lmax, lmax)).reshape(4, -1)
    slot_i = move_slot((1 - 2 * si) * (xi + 1), lmax)
    slot_j = move_slot((1 - 2 * sj) * (xj + 1), lmax)
    first_i, first_j = t.column[:, i - 1, slot_i], t.column[:, j - 1, slot_j]
    base, k = np.nonzero((first_i >= 0) & (first_j >= 0))
    left1, right1 = first_i[base, k], first_j[base, k]
    left2 = t.column[t.dst[left1], j - 1, slot_j[k]]
    right2 = t.column[t.dst[right1], i - 1, slot_i[k]]
    columns = left1, left2, right1, right2
    for a in columns:
        a.flags.writeable = False
    return columns


def constraint_labels(shape, left1, right1):
    """The Constraint of each constraint whose first left and first right
    edge columns are left1 and right1, as constraint_columns gives them;
    pass a subset of the columns to label a subset of the constraints."""
    t = edge_table(shape)
    a, b = t.step[left1], t.step[right1]
    family = 1 + 2 * (a < 0) + (b < 0)
    bases = map(grid_states(shape).__getitem__, t.src[left1].tolist())
    return list(map(Constraint._make, zip(
        family.tolist(), t.direction[left1].tolist(),
        t.direction[right1].tolist(), bases, a.tolist(), b.tolist())))


def pair_constraints(shape, i, j):
    """All constraints for the direction pair (i, j), in a fixed order.

    Order: base state (lattice order), then family, then |step_i|, |step_j|.
    """
    left1, _, right1, _ = constraint_columns(shape, i, j)
    return constraint_labels(shape, left1, right1)


def _residuals(model, columns):
    """left product - right product of the constraints at `columns`, as
    constraint_columns gives them."""
    left1, left2, right1, right2 = columns
    p = model.edge_prob
    return p[left1] * p[left2] - p[right1] * p[right2]


def pair_residuals(model, i, j):
    """The residual of every constraint of the pair (i, j), as an array in
    pair_constraints order.

    residual = left product - right product, with any absent edge
    contributing probability 0.
    """
    return _residuals(model, constraint_columns(model.shape, i, j))


def constraint_residuals(model, i, j):
    """(Constraint, residual) for every constraint of the pair (i, j)."""
    columns = constraint_columns(model.shape, i, j)
    return list(zip(constraint_labels(model.shape, columns[0], columns[2]),
                    _residuals(model, columns).tolist()))


def commutes_direct(model, i, j, tol=DEFAULT_TOL):
    """(bool, max residual) for max-abs(P_i P_j - P_j P_i) <= tol.

    The max residual is the largest absolute constraint residual of the
    pair, which equals max-abs of the commutator bit for bit.
    """
    residual = float(np.abs(pair_residuals(model, i, j)).max())
    return residual <= tol, residual
