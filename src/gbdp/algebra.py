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

* lower, by propagation: walking the edge columns in order, an unknown
  column joins the free set F, and a constraint left with one unknown edge
  pins that edge.  The pinning constraints are triangular on the edges they
  pin, so they are independent and rank Q >= cols - |F|.
* upper, by the kernel: Q [R; Z]^T = 0, summed exactly over the sparse
  columns without forming Q, gives rank Q <= cols - rank [R; Z].

When they meet, the pinning constraints have Q's kernel: they are an
explicit minimal set of constraints that ensure the commutation.  The
fraction-free elimination integer_rank computes rank R and rank [R; Z];
build_Q and build_R give the labelled dense matrices for dumps and serve,
with integer_rank, as the oracles of the certificate.
"""

from collections import deque
from dataclasses import dataclass
from math import gcd
from typing import NamedTuple

import numpy as np

from .commute import constraint_columns, pair_constraints
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


def _direction_pairs(shape):
    return [(i, j) for i in range(1, shape.q + 1)
            for j in range(i + 1, shape.q + 1)]


def _constraint_columns(shape):
    """Edge columns (left1, left2, right1, right2) of every constraint as a
    (4, constraints) array, pair-major: Q's rows in order."""
    return np.hstack([np.stack(constraint_columns(shape, i, j))
                      for i, j in _direction_pairs(shape)]
                     or [np.zeros((4, 0), dtype=np.int64)])


def build_Q(shape):
    """Constraint matrix: rows ordered by direction pair (i < j), then by
    the constraint order of the commute module."""
    require_equal_bounds(shape, "constraint matrix")
    cols = _constraint_columns(shape)
    edges = edge_pairs(shape)
    entries = np.zeros((cols.shape[1], len(edges)), dtype=np.int64)
    rows = np.arange(cols.shape[1])
    entries[rows, cols[0]] = entries[rows, cols[1]] = 1
    entries[rows, cols[2]] = entries[rows, cols[3]] = -1
    labels = [c for i, j in _direction_pairs(shape)
              for c in pair_constraints(shape, i, j)]
    return IntMatrix(entries, labels, edges)


def _parameter_rows(shape):
    """R's entries as int8: vertex rows (lattice order), then class rows."""
    t = edge_table(shape)
    cols = np.arange(len(t.src))
    entries = np.zeros((shape.n_states + len(t.classes), len(cols)),
                       dtype=np.int8)
    entries[t.src, cols] = 1
    entries[t.dst, cols] = -1
    entries[shape.n_states + t.cls, cols] = 1
    return entries


def build_R(shape):
    """Parameter matrix: vertex rows (lattice order) then class rows."""
    require_equal_bounds(shape, "parameter matrix")
    labels = ([("alpha", u) for u in grid_states(shape)]
              + [("gamma", c) for c in edge_classes(shape)])
    return IntMatrix(_parameter_rows(shape), labels, edge_pairs(shape))


def integer_rank(m):
    """Rank over the rationals by fraction-free elimination on exact integers.

    Rows are reduced against stored echelon pivot rows with the
    cross-multiplication update r <- pivot_lead * r - r_lead * pivot, each
    result divided by its gcd; no floating point is involved anywhere.
    """
    entries = m.entries if isinstance(m, IntMatrix) else np.asarray(m)
    return sum(_raises_rank(entries)) if entries.size else 0


def _raises_rank(entries):
    """For each row in order, whether it is independent of the rows before
    it, so the running count is the rank of every leading block of rows."""
    pivots = {}
    for raw in entries:
        row = {j: int(v) for j, v in enumerate(raw) if v}
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
        yield bool(row)


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


def line_cycle_kernel(shape):
    """Z as int8: one row per edge class of jump size x >= 2, in class
    order (axis, x, offset r), one column per edge.

    The row of class (i, r, x) is the flow around the cycle that the jump
    r -> r + x closes with the x unit steps it spans on the line graph of
    axis i, at every perpendicular position: +1 on the jump, -1 on each
    forward unit step from r to r + x, and the negatives on the reverse
    edges.
    """
    require_equal_bounds(shape, "line cycle kernel")
    t = edge_table(shape)
    offset, size = t.classes[:, 1], t.classes[:, 2]
    cycle = np.cumsum(size >= 2) - 1  # Z row of each class of size >= 2
    z = np.zeros((np.count_nonzero(size >= 2), len(t.src)), dtype=np.int8)
    sign = np.sign(t.step)
    jump = np.flatnonzero(size[t.cls] >= 2)
    z[cycle[t.cls[jump]], jump] = sign[jump]
    unit = np.flatnonzero(size[t.cls] == 1)
    axis, k = t.direction[unit], offset[t.cls[unit]]
    room = np.array(shape.dims)[axis - 1]
    # the first class of (axis, x): classes run by axis, size, offset
    first = np.zeros((shape.q + 1, shape.l1 + 1), dtype=int)
    first[t.classes[offset == 0, 0], size[offset == 0]] = np.flatnonzero(
        offset == 0)
    for x in range(2, shape.l1 + 1):
        for back in range(x):  # unit step k lies in cycle r = k - back
            r = k - back
            on = (r >= 0) & (r + x <= room)
            z[cycle[first[axis[on], x] + r[on]], unit[on]] = -sign[unit[on]]
    return z


def _propagate(cols, n_cols):
    """(F, pinning constraints) of the constraints with edge columns `cols`.

    Walks the columns in order.  An unknown column joins F; a constraint
    left with one unknown edge waits in a queue, then pins that edge unless
    another constraint pinned it first.  Each pinning constraint's other
    edges are known before it pins, so the pinning constraints are
    triangular on the edges they pin.
    """
    n = cols.shape[1]
    flat = cols.ravel()
    # the constraints of edge e are of_edge[start[e]:start[e + 1]]
    of_edge = (np.argsort(flat, kind="stable") % n).tolist()
    start = [0] + np.cumsum(np.bincount(flat, minlength=n_cols)).tolist()
    edges = cols.T.tolist()
    unknown = [4] * n  # edges of each constraint not yet propagated
    known = [False] * n_cols
    free, pins = [], []
    queue = deque()
    for c in range(n_cols):
        if known[c]:
            continue
        known[c] = True
        free.append(c)
        queue.append(c)
        while queue:
            e = queue.popleft()
            for k in of_edge[start[e]:start[e + 1]]:
                unknown[k] -= 1
                if unknown[k] == 1:
                    last = [f for f in edges[k] if not known[f]]
                    if last:
                        known[last[0]] = True
                        pins.append(k)
                        queue.append(last[0])
    return np.array(free, dtype=int), np.sort(np.array(pins, dtype=int))


def _annihilates(cols, m):
    """Whether Q m^T = 0, for Q the constraints with edge columns `cols`.

    Sums the signed nonzeros of each constraint's four columns of m by
    (constraint, row) key; the sums are of small integers, so exact.
    """
    col, row = np.nonzero(m.T)  # sorted by column
    val = m[row, col].astype(np.int64)
    start = np.searchsorted(col, np.arange(m.shape[1] + 1))
    edge = cols.ravel()
    count = start[edge + 1] - start[edge]
    at = (np.repeat(start[edge] - np.cumsum(count) + count, count)
          + np.arange(count.sum()))
    constraint = np.repeat(np.tile(np.arange(cols.shape[1]), 4), count)
    sign = np.repeat(np.repeat([1, 1, -1, -1], cols.shape[1]), count)
    _, key = np.unique(constraint * m.shape[0] + row[at], return_inverse=True)
    return not np.bincount(key, weights=sign * val[at]).any()


class RankCertificate(NamedTuple):
    """Certified ranks of Q and R for one shape.

    free is F, the edge columns propagation leaves free; basis holds the
    rows of Q (pair-major, pair_constraints order within a pair) that pin
    every other column.  Both ascending.  The basis rows are independent
    and have Q's kernel; len(basis) = rank_Q and |F| = rank [R; Z].
    """

    rows: int  # constraints: Q's row count
    cols: int  # edges
    params: int  # vertices and edge classes: R's row count
    rank_Q: int
    rank_R: int
    free: np.ndarray
    basis: np.ndarray


def certified_ranks(shape):
    """Rank Q and rank R, rank Q certified by propagation against the
    kernel [R; Z] without forming Q.  GbdpError if the bounds disagree."""
    require_equal_bounds(shape, "rank certificate")
    cols = _constraint_columns(shape)
    n_cols = len(edge_table(shape).src)
    free, basis = _propagate(cols, n_cols)
    r = _parameter_rows(shape)
    rz = np.vstack([r, line_cycle_kernel(shape)])
    if not _annihilates(cols, rz):
        raise GbdpError("rank of Q not certified: Q [R; Z]^T is not zero")
    independent = list(_raises_rank(rz))  # R's rows lead: one elimination
    rank_rz = sum(independent)
    if rank_rz != len(free):
        raise GbdpError(
            "rank of Q not certified: propagation gives rank Q >= %d, the "
            "kernel [R; Z] gives rank Q <= %d"
            % (n_cols - len(free), n_cols - rank_rz))
    return RankCertificate(cols.shape[1], n_cols, len(r), len(basis),
                           sum(independent[:len(r)]), free, basis)
