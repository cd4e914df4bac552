"""Integer constraint and parameter matrices with certified ranks.

Q has one row per bilinear commutation constraint and one column per
directed edge; the row carries +1 on the two left-product edges and -1 on
the two right-product edges.  R has one row per parameter (vertex weights
first, then edge classes) and the same columns; the column of edge (u, v)
carries +1 at alpha_u, -1 at alpha_v and +1 at the edge's class.  Taking
logarithms of the positive parametrization shows every row of R solves
every constraint, so Q R^T = 0.  With jumps of size x >= 2 more vectors
solve them: a constraint uses its edge along each axis once on each side, with
the same coordinates along that axis, so the flow around a cycle of a
single-axis line graph, copied to every perpendicular position, solves
every constraint too.  Z holds one such flow per (axis, x >= 2, offset),
and the closed-form rank of Q overcounts by exactly |Z|.

certified_ranks proves rank Q without eliminating Q, by two bounds that
must meet:

* lower, by propagation: F holds the unit step into each state along its
  first nonzero axis, a spanning tree, and every edge on the axis lines
  through the origin.  From F, level by level, a constraint left with one
  unknown edge pins it; the pins are triangular, so rank Q >= their count.
* upper, by counting the kernel: every constraint is two paths between the
  same ends whose opposite legs are the same move (class and signed step).
  So every difference of vertex potentials and every function of an edge's
  (class, step) solves it; R's and Z's rows are among them.  These span
  N - 1 + sum_i (E_i - n_i) dimensions, where E_i is the edge count of the
  one-axis shape (n_i,) with the same l: rank [V; W] = rank V + rank(W K)
  for V the incidence rows, W the (class, step) indicators and K a basis of
  the cycle space (Biggs, Algebraic Graph Theory, 2nd ed., 1993), and the
  fundamental cycles on the axis lines through the origin reduce W K to one
  line graph per axis.  So rank Q <= cols - that count.

|F| is that count, so the bounds meet once every edge outside F is pinned,
and the pinning constraints then have Q's kernel: an explicit minimal set
of constraints that ensure the commutation.  If every edge's reverse is an
edge of its class and every class has an edge, each class has a 2-cycle on
which the vertex rows vanish, so by the same identity rank R = N - 1 +
#classes = rows - 1.  nonzeros_Q and nonzeros_R give Q and R for dumps;
build_Q, build_R and integer_rank are oracles.
"""

from collections import namedtuple
from dataclasses import dataclass
from itertools import combinations
from math import gcd
from typing import NamedTuple

import numpy as np

from .commute import constraint_columns, constraint_labels
from .errors import GbdpError
from .lattice import edge_pairs, edge_table, grid_states, require_equal_bounds
from .param import edge_classes


@dataclass
class IntMatrix:
    entries: object  # 2-D integer array
    row_labels: list
    col_labels: list

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=np.int64)
        if self.entries.shape != (len(self.row_labels), len(self.col_labels)):
            raise ValueError(
                "legend lengths %d x %d do not match entries shape %s"
                % (len(self.row_labels), len(self.col_labels),
                   self.entries.shape)
            )

    @property
    def rows(self):
        return self.entries.shape[0]

    @property
    def cols(self):
        return self.entries.shape[1]


def _constraint_columns(shape):
    """Edge columns (left1, left2, right1, right2) of every constraint as a
    (4, constraints) array, pair-major: Q's rows in order."""
    return np.hstack([np.stack(constraint_columns(shape, i, j))
                      for i, j in combinations(range(1, shape.q + 1), 2)]
                     or [np.zeros((4, 0), dtype=np.int64)])


# the nonzero entries of a labelled integer matrix, in row-major order
Nonzeros = namedtuple("Nonzeros", "row col value row_labels col_labels")


def _row_major(row, col, value, row_labels, col_labels):
    order = np.lexsort((col, row))
    return Nonzeros(row[order], col[order], value[order], row_labels,
                    col_labels)


def nonzeros_Q(shape):
    """Constraint matrix Q: rows ordered by direction pair (i < j), then by
    the constraint order of the commute module."""
    require_equal_bounds(shape, "constraint matrix")
    cols = _constraint_columns(shape)
    n = cols.shape[1]
    return _row_major(np.tile(np.arange(n), 4), cols.ravel(),
                      np.repeat([1, 1, -1, -1], n),
                      constraint_labels(shape, cols[0], cols[2]),
                      edge_pairs(shape))


def nonzeros_R(shape):
    """Parameter matrix R: vertex rows (lattice order) then class rows."""
    require_equal_bounds(shape, "parameter matrix")
    t = edge_table(shape)
    n = len(t.src)
    labels = ([("alpha", u) for u in grid_states(shape)]
              + [("gamma", c) for c in edge_classes(shape)])
    return _row_major(np.concatenate([t.src, t.dst, shape.n_states + t.cls]),
                      np.tile(np.arange(n), 3), np.repeat([1, -1, 1], n),
                      labels, edge_pairs(shape))


def _dense(m):
    entries = np.zeros((len(m.row_labels), len(m.col_labels)), dtype=np.int64)
    entries[m.row, m.col] = m.value
    return IntMatrix(entries, m.row_labels, m.col_labels)


def build_Q(shape):
    """Q as a dense IntMatrix, for tests and demos."""
    return _dense(nonzeros_Q(shape))


def build_R(shape):
    """R as a dense IntMatrix, for tests and demos."""
    return _dense(nonzeros_R(shape))


def integer_rank(m):
    """Rank over the rationals by fraction-free elimination on exact integers.

    Rows are reduced against stored echelon pivot rows with the
    cross-multiplication update r <- pivot_lead * r - r_lead * pivot, each
    result divided by its gcd; no floating point is involved anywhere.
    """
    entries = m.entries if isinstance(m, IntMatrix) else np.asarray(m)
    pivots = {}
    for raw in entries:
        nonzero = np.flatnonzero(raw)
        row = dict(zip(nonzero.tolist(), map(int, raw[nonzero].tolist())))
        while row:
            lead = min(row)
            if lead not in pivots:
                pivots[lead] = _gcd_normalized(row)
                break
            pivot = pivots[lead]
            a, b = row[lead], pivot[lead]
            merged = {j: b * v for j, v in row.items()}
            for j, v in pivot.items():
                merged[j] = merged.get(j, 0) - a * v
            row = _gcd_normalized({j: v for j, v in merged.items() if v})
    return len(pivots)


def _gcd_normalized(row):
    if not row:
        return row
    g = 0
    for v in row.values():
        g = gcd(g, v)
    if row[min(row)] < 0:
        g = -g
    if g not in (0, 1):
        row = {j: v // g for j, v in row.items()}
    return row


def rank_formula_R(shape):
    """Closed form: l*sum(n_i) + prod(n_i + 1) - q*l*(l-1)/2 - 1."""
    require_equal_bounds(shape, "rank formula")
    l = shape.l1
    return (
        l * sum(shape.dims)
        + shape.n_states
        - shape.q * l * (l - 1) // 2
        - 1
    )


def rank_formula_Q(shape):
    """Closed form: 2*sum_i sum_x (n_i - x + 1) prod_{j != i}(n_j + 1)
    - l*sum(n_i) - prod(n_i + 1) + q*l*(l-1)/2 + 1, that is Q's column
    count minus rank_formula_R."""
    return order_formula_Q(shape)[1] - rank_formula_R(shape)


def order_formula_Q(shape):
    """(row count, column count) of Q from the closed-form order expressions.

    Axis i has jumps_i = sum_x (n_i - x + 1) edge pairs along each line, and
    prod_{k != i}(n_k + 1) such lines; a direction pair (i, j) has four
    sign families per pair of jumps in each (i, j) plane.
    """
    require_equal_bounds(shape, "order formula")
    dims, n = shape.dims, shape.n_states
    jumps = [sum(d - x + 1 for x in range(1, shape.l1 + 1)) for d in dims]
    rows = sum(4 * n // ((dims[i] + 1) * (dims[j] + 1)) * jumps[i] * jumps[j]
               for i in range(shape.q) for j in range(i + 1, shape.q))
    cols = sum(2 * n // (d + 1) * x for d, x in zip(dims, jumps))
    return rows, cols


def _free_edges(t):
    """F over the columns of edge table t: +1 steps whose source is 0 before
    their axis (the tree), and edges whose source is 0 off it (axis lines)."""
    zero = t.coords[t.src] == 0
    axes = np.arange(zero.shape[1])
    axis = t.direction[:, None] - 1
    tree = (t.step == 1) & (zero | (axes >= axis)).all(axis=1)
    return tree | (zero | (axes == axis)).all(axis=1)


def _propagate(cols, known):
    """The pinning constraints, ascending, of the constraints with edge
    columns `cols`, from the edges that the mask `known` marks: level by
    level, each constraint with one unknown edge pins it, the lowest-numbered
    where several share an edge, until a level pins nothing.  A pin's other
    edges are known before its level, so the pins are triangular."""
    flat = cols.ravel()
    # the constraints of edge e are of_edge[start[e]:start[e + 1]]
    of_edge = np.argsort(flat)
    of_edge %= cols.shape[1]
    start = np.r_[0, np.cumsum(np.bincount(flat, minlength=len(known)))]
    known = known.copy()
    unknown = (~known[cols]).sum(axis=0)
    ready = np.flatnonzero(unknown == 1)
    pins = [ready[:0]]
    while ready.size:
        edges = cols[:, ready]
        edge, first = np.unique((edges * ~known[edges]).sum(axis=0),
                                return_index=True)
        known[edge] = True
        pins.append(ready[first])
        size = start[edge + 1] - start[edge]
        touched = of_edge[np.repeat(start[edge] - np.cumsum(size) + size, size)
                          + np.arange(size.sum())]
        np.subtract.at(unknown, touched, 1)
        ready = np.sort(touched[unknown[touched] == 1])
    return np.sort(np.concatenate(pins))


class RankCertificate(NamedTuple):
    """Certified ranks of Q and R for one shape.

    free is F and basis the pinning rows of Q (pair-major, pair_constraints
    order within a pair), both ascending.  The basis rows are independent
    and have Q's kernel: len(basis) = rank_Q = cols - |F|, with |F| the
    kernel count N - 1 + sum_i (E_i - n_i); rank_R = params - 1.
    """

    rows: int  # constraints: Q's row count
    cols: int  # edges
    params: int  # vertices and edge classes: R's row count
    rank_Q: int
    rank_R: int
    free: np.ndarray
    basis: np.ndarray


def _repeats_its_legs(t, cols):
    """Whether each constraint is two paths between the same ends whose
    opposite legs (left1 and right2, left2 and right1) are the same move."""
    left1, left2, right1, right2 = cols

    def same_move(a, b):
        return (t.cls[a] == t.cls[b]) & (t.step[a] == t.step[b])

    return ((t.src[left1] == t.src[right1]) & (t.dst[left1] == t.src[left2])
            & (t.dst[right1] == t.src[right2])
            & (t.dst[left2] == t.dst[right2])
            & same_move(left1, right2) & same_move(left2, right1))


def certified_ranks(shape):
    """Rank Q and rank R, each certified by two bounds that meet, without
    forming Q, R or Z of the shape.  GbdpError if the bounds disagree."""
    require_equal_bounds(shape, "rank certificate")
    t = edge_table(shape)
    cols = _constraint_columns(shape)
    bad = np.flatnonzero(~_repeats_its_legs(t, cols))
    if bad.size:
        raise GbdpError(
            "rank of Q not certified: constraint %d is not two paths between "
            "the same ends with opposite legs the same move" % bad[0])
    n_cols, free = len(t.src), _free_edges(t)
    basis = _propagate(cols, free)
    l = shape.l1
    # 2 sum_x (n - x + 1) is E_i, the edge count of the one-axis shape (n,)
    kernel = shape.n_states - 1 + sum(
        2 * sum(n - x + 1 for x in range(1, l + 1)) - n for n in shape.dims)
    if len(basis) != n_cols - kernel:
        raise GbdpError(
            "rank of Q not certified: propagation gives rank Q >= %d, the "
            "kernel count gives rank Q <= %d" % (len(basis), n_cols - kernel))
    params = shape.n_states + len(t.classes)
    # an edge and its reverse form a 2-cycle that only their class row sees
    rev = t.reverse
    lonely = (rev < 0) | (t.src[rev] != t.dst) | (t.cls[rev] != t.cls)
    empty = np.bincount(t.cls, minlength=len(t.classes)) == 0
    if lonely.any() or empty.any():
        raise GbdpError(
            "rank of R not certified: %d edges have no reverse in their "
            "class, %d classes have no edge" % (lonely.sum(), empty.sum()))
    return RankCertificate(cols.shape[1], n_cols, params, len(basis),
                           params - 1, np.flatnonzero(free), basis)
