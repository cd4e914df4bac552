"""Commutation tests for directional transition matrices.

Two routes are provided and kept deliberately independent:

* commutes_direct measures max-abs(P_i P_j - P_j P_i) from a join of the
  edge table with itself: every two-step path of an i-edge then a j-edge,
  or a j-edge then an i-edge, grouped by its two ends.  It reads only the
  edges' src, dst and direction, never the move lookup the constraints
  use, and needs memory O(E l) for E edges, not O(N^2).  The join depends
  only on the shape and the pair, so it is cached like the edge table;
* constraint_residuals evaluates the bilinear two-step identities whose
  joint vanishing is equivalent to commutation.

Both read edges as columns of the edge table.  The dense commutator and the
constraints' edges spelled out as coordinate pairs are test oracles.

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
    the direction pair (i, j), one array each, in pair_constraints order."""
    shape.check_directions(i, j)
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
    return left1, left2, right1, right2


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


def _two_step_paths(t, first, second):
    """(start, end, head, tail) of every path of a `first`-direction edge
    column `head` followed by a `second`-direction edge column `tail`."""
    a = np.flatnonzero(t.direction == first)
    b = np.flatnonzero(t.direction == second)
    # edge columns are in src order, so the b-edges out of state s are
    # b[offset[s]:offset[s + 1]]
    offset = np.concatenate(
        ([0], np.cumsum(np.bincount(t.src[b], minlength=len(t.coords)))))
    mid = t.dst[a]
    count = offset[mid + 1] - offset[mid]
    head = np.repeat(a, count)
    # the k-th path of an a-edge takes the k-th b-edge out of its dst
    shift = np.repeat(offset[mid] - np.cumsum(count) + count, count)
    tail = b[np.arange(len(head)) + shift]
    return t.src[head], t.dst[tail], head, tail


@lru_cache(maxsize=16)
def _commutator_paths(shape, i, j):
    """Edge columns of the two-step paths of every entry (s, e) of
    P_i P_j - P_j P_i that one reaches, as a read-only (2, 2, entries)
    array: [0] the path along i then j, [1] along j then i, each as (head,
    tail) columns; -1 where the entry has no such path."""
    t = edge_table(shape)
    paths = _two_step_paths(t, i, j), _two_step_paths(t, j, i)
    start, end, head, tail = (np.concatenate(x) for x in zip(*paths))
    order = np.lexsort((end, start))
    start, end = start[order], end[order]
    entry = np.cumsum(np.concatenate(
        ([True], (start[1:] != start[:-1]) | (end[1:] != end[:-1])))) - 1
    side = (order >= len(paths[0][0])).astype(int)
    out = np.full((2, 2, entry[-1] + 1), -1)
    out[side, 0, entry] = head[order]
    out[side, 1, entry] = tail[order]
    out.flags.writeable = False
    return out


def commutes_direct(model, i, j, tol=DEFAULT_TOL):
    """(bool, max residual) for max-abs(P_i P_j - P_j P_i) <= tol.

    An entry (s, e) of P_i P_j has at most one nonzero term, the path that
    moves along i first, so the commutator entry is that path's product
    minus the product of the path that moves along j first: exactly what
    the dense products give, with no N x N matrix.
    """
    model.shape.check_directions(i, j)
    (h1, t1), (h2, t2) = _commutator_paths(model.shape, i, j)
    p = np.append(model.edge_prob, 0.0)  # column -1 has probability 0
    residual = float(np.abs(p[h1] * p[t1] - p[h2] * p[t2]).max())
    return residual <= tol, residual
