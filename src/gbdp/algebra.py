"""Integer constraint and parameter matrices with exact ranks.

Q has one row per bilinear commutation constraint and one column per
directed edge; the row carries +1 on the two left-product edges and -1 on
the two right-product edges.  R has one row per parameter (vertex weights
first, then edge classes) and the same columns; the column of edge (u, v)
carries +1 at alpha_u, -1 at alpha_v and +1 at the edge's class.  Taking
logarithms of the positive parametrization shows every row of R solves
every constraint, so Q R^T = 0 always.  Whether the two row spaces fill
the whole edge space (rank Q + rank R = column count) is checked rather
than assumed: it holds for unit jumps, but with multi-step jumps the
constraints also admit independent forward/backward class scalings, one
free direction per independent cycle of each single-direction line graph,
so the ranks fall short of the column count by exactly that cycle count.
verify_orthocomplement reports the facts; the closed-form rank expressions
are provided for comparison against the exact fraction-free elimination.
"""

from dataclasses import dataclass
from math import gcd

import numpy as np

from .commute import constraint_columns, pair_constraints
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


def build_Q(shape):
    """Constraint matrix: rows ordered by direction pair (i < j), then by
    the constraint order of the commute module."""
    require_equal_bounds(shape, "constraint matrix")
    pairs = [(i, j) for i in range(1, shape.q + 1)
             for j in range(i + 1, shape.q + 1)]
    cols = np.hstack([constraint_columns(shape, i, j) for i, j in pairs]
                     or [np.zeros((4, 0), dtype=np.int64)])
    edges = edge_pairs(shape)
    entries = np.zeros((cols.shape[1], len(edges)), dtype=np.int64)
    rows = np.arange(cols.shape[1])
    entries[rows, cols[0]] = entries[rows, cols[1]] = 1
    entries[rows, cols[2]] = entries[rows, cols[3]] = -1
    labels = [c for i, j in pairs for c in pair_constraints(shape, i, j)]
    return IntMatrix(entries, labels, edges)


def build_R(shape):
    """Parameter matrix: vertex rows (lattice order) then class rows."""
    require_equal_bounds(shape, "parameter matrix")
    t = edge_table(shape)
    states = grid_states(shape)
    classes = edge_classes(shape)
    cols = np.arange(len(t.src))
    entries = np.zeros((len(states) + len(classes), len(cols)),
                       dtype=np.int64)
    entries[t.src, cols] = 1
    entries[t.dst, cols] = -1
    entries[len(states) + t.cls, cols] = 1
    labels = ([("alpha", u) for u in states]
              + [("gamma", c) for c in classes])
    return IntMatrix(entries, labels, edge_pairs(shape))


def integer_rank(m):
    """Rank over the rationals by fraction-free elimination on exact integers.

    Rows are reduced against stored echelon pivot rows with the
    cross-multiplication update r <- pivot_lead * r - r_lead * pivot, each
    result divided by its gcd; no floating point is involved anywhere.
    """
    entries = m.entries if isinstance(m, IntMatrix) else np.asarray(m)
    if entries.size == 0:
        return 0
    pivots = {}
    rank = 0
    for raw in entries:
        row = {j: int(v) for j, v in enumerate(raw) if v}
        while row:
            lead = min(row)
            if lead not in pivots:
                pivots[lead] = _gcd_normalized(row)
                rank += 1
                break
            pivot = pivots[lead]
            a, b = row[lead], pivot[lead]
            merged = {j: b * v for j, v in row.items()}
            for j, v in pivot.items():
                merged[j] = merged.get(j, 0) - a * v
            row = _gcd_normalized({j: v for j, v in merged.items() if v})
    return rank


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
    - l*sum(n_i) - prod(n_i + 1) + q*l*(l-1)/2 + 1."""
    require_equal_bounds(shape, "rank formula")
    l = shape.l1
    total = 0
    for i in range(shape.q):
        perp = 1
        for j in range(shape.q):
            if j != i:
                perp *= shape.dims[j] + 1
        total += sum(shape.dims[i] - x + 1 for x in range(1, l + 1)) * perp
    return (
        2 * total
        - l * sum(shape.dims)
        - shape.n_states
        + shape.q * l * (l - 1) // 2
        + 1
    )


def order_formula_Q(shape):
    """(row count, column count) of Q from the closed-form order expressions."""
    require_equal_bounds(shape, "order formula")
    l = shape.l1
    rows = 0
    for i in range(shape.q):
        for j in range(i + 1, shape.q):
            perp = 1
            for k in range(shape.q):
                if k != i and k != j:
                    perp *= shape.dims[k] + 1
            rows += 4 * perp * sum(
                (shape.dims[i] - x + 1) * (shape.dims[j] - y + 1)
                for x in range(1, l + 1)
                for y in range(1, l + 1)
            )
    cols = 0
    for i in range(shape.q):
        perp = 1
        for j in range(shape.q):
            if j != i:
                perp *= shape.dims[j] + 1
        cols += 2 * perp * sum(
            shape.dims[i] - x + 1 for x in range(1, l + 1)
        )
    return rows, cols


@dataclass
class OrthocomplementReport:
    shape: object
    Q: IntMatrix
    R: IntMatrix
    product_zero: bool  # Q R^T is the zero matrix, exact integers
    rank_Q: int
    rank_R: int

    @property
    def cols(self):
        return self.Q.cols

    @property
    def ranks_sum_to_cols(self):
        return self.rank_Q + self.rank_R == self.cols

    @property
    def complement(self):
        return self.product_zero and self.ranks_sum_to_cols


def verify_orthocomplement(shape):
    """Check Q R^T = 0 and rank Q + rank R = column count, both exactly."""
    q = build_Q(shape)
    r = build_R(shape)
    return OrthocomplementReport(
        shape=shape,
        Q=q,
        R=r,
        product_zero=not (q.entries @ r.entries.T).any(),
        rank_Q=integer_rank(q),
        rank_R=integer_rank(r),
    )
