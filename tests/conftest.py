"""Shared helpers: seeded generators, random model factories, the grid
graph and the line-cycle law of the constraint rank."""

import numpy as np
import pytest

from gbdp import GridShape, Parametrization, build_grid, build_model, edge_classes
from gbdp import algebra
from gbdp.lattice import edge_table
from gbdp.param import EdgeClass

# the worked 3x3-states-per-direction grid with jumps up to 2
EXP_SHAPE = GridShape((2, 2), 2, 2)

# small shapes of one to three axes with unit and longer jumps
SWEEP = [
    GridShape((3,), 1, 1),
    GridShape((4,), 2, 2),
    GridShape((1, 1), 1, 1),
    GridShape((2, 2), 1, 1),
    GridShape((2, 2), 2, 2),
    GridShape((3, 2), 2, 2),
    GridShape((3, 3), 2, 2),
    GridShape((2, 2, 2), 1, 1),
    GridShape((2, 2, 2), 2, 2),
]


@pytest.fixture
def rng():
    return np.random.default_rng(20230817)


def make_parametrization(shape, rng, low=0.5, high=2.0):
    grid = build_grid(shape)
    alpha = {u: float(rng.uniform(low, high)) for u in grid.states}
    gamma = {c: float(rng.uniform(low, high)) for c in edge_classes(shape)}
    return Parametrization(shape, alpha, gamma)


def make_commuting_model(shape, rng, **kwargs):
    return build_model(make_parametrization(shape, rng), **kwargs)


def class_of(u, v):
    """The class of the adjacent pair {u, v}, from its coordinates alone:
    the changed axis, the smaller endpoint on it, and the jump size."""
    (i,) = [i for i in range(len(u)) if u[i] != v[i]]
    return EdgeClass(i + 1, min(u[i], v[i]), abs(v[i] - u[i]))


def grid_adjacency(shape):
    """0/1 adjacency matrix of the grid graph, from the edge table."""
    t = edge_table(shape)
    adj = np.zeros((shape.n_states, shape.n_states), dtype=np.int64)
    adj[t.src, t.dst] = 1
    return adj


def grid_laplacian(shape):
    """Laplacian Deg - A of the grid graph."""
    adj = grid_adjacency(shape)
    return np.diag(adj.sum(axis=1)) - adj


def random_monotone_path(u, rng):
    """A unit-step lattice path from the origin to u, one of many."""
    cur = [0] * len(u)
    path = [tuple(cur)]
    while tuple(cur) != tuple(u):
        open_dirs = [i for i, c in enumerate(cur) if c < u[i]]
        cur[int(rng.choice(open_dirs))] += 1
        path.append(tuple(cur))
    return path


def path_beta(model, path):
    """Product of forward over backward probabilities along a path."""
    out = 1.0
    for a, b in zip(path, path[1:]):
        out *= model.p(a, b) / model.p(b, a)
    return out


def line_cycle_count(shape):
    """Independent cycles summed over the q single-direction line graphs.

    A line on n + 1 points with jumps up to l has (n - x + 1) extra edges
    for each jump size x >= 2 beyond the spanning path, each an independent
    cycle; multi-step constraint systems leave one free scaling per cycle.
    """
    return sum(
        n - x + 1
        for n in shape.dims
        for x in range(2, shape.l1 + 1)
        if n - x + 1 > 0
    )


def _cycle_flow(r, x):
    """Antisymmetric flow around the line cycle closed by the jump r -> r+x:
    +1 on the jump, -1 on each forward unit step it spans, and the negatives
    on the reverse edges."""
    flow = {(r, r + x): 1, (r + x, r): -1}
    for k in range(r, r + x):
        flow[(k, k + 1)] = -1
        flow[(k + 1, k)] = 1
    return flow


def line_cycle_kernel(shape, col_labels):
    """Integer matrix Z, one row per (axis, jump size x >= 2, offset r).

    Each row is the cycle flow of _cycle_flow on the line graph of one axis,
    copied to every perpendicular position; col_labels are the (u, v) edge
    columns of build_Q / build_R.  A constraint uses its edge along each
    axis once on each side, with the same source and target coordinate on
    that axis, so any function of (axis, line source, line target) solves
    it: Q Z^T = 0, and rank Q <= cols - rank [R; Z].  With R, it is the
    oracle of the kernel count that algebra.certified_ranks uses instead.
    """
    cycles = [
        (i, _cycle_flow(r, x))
        for i, n in enumerate(shape.dims)
        for x in range(2, shape.l1 + 1)
        for r in range(n - x + 1)
    ]
    z = np.zeros((len(cycles), len(col_labels)), dtype=np.int64)
    for k, (u, v) in enumerate(col_labels):
        axis = next(i for i in range(len(u)) if u[i] != v[i])
        for row, (i, flow) in enumerate(cycles):
            if i == axis:
                z[row, k] = flow.get((u[axis], v[axis]), 0)
    return z


def one_more_free(cols, known, propagate=algebra._propagate):
    """algebra._propagate without its last pin, which leaves one more edge
    free than the kernel count, so that the rank bounds of certified_ranks
    disagree."""
    return propagate(cols, known)[:-1]
