"""Grid enumeration, indexing, edge structure and the grid graph."""

from itertools import product

import numpy as np
import pytest

from gbdp import (
    GridShape,
    IntMatrix,
    build_grid,
    directed_edges,
    integer_rank,
)
from gbdp.errors import DomainError, ShapeError
from gbdp.lattice import (
    edge_columns, edge_pairs, edge_table, in_grid)
from gbdp.param import edge_classes
from oracles import edge_between, shifted
from conftest import class_of, grid_adjacency, grid_laplacian

# q = 1, 2, 3, with and without l1 = l2
TABLE_SWEEP = [((1,), 1, 1), ((3,), 2, 1), ((4,), 1, 3), ((2, 2), 2, 2),
               ((3, 2), 2, 1), ((2, 3), 1, 2), ((2, 1, 2), 1, 1),
               ((2, 2, 2), 2, 1), ((3, 2, 2), 2, 2)]


def test_two_by_two_grid_lists_states_lexicographically():
    grid = build_grid(GridShape((2, 2), 2, 2))
    assert grid.states == [
        (0, 0), (0, 1), (0, 2),
        (1, 0), (1, 1), (1, 2),
        (2, 0), (2, 1), (2, 2),
    ]


def test_smallest_one_dimensional_grid_has_two_states():
    assert build_grid(GridShape((1,), 1, 1)).states == [(0,), (1,)]


def test_three_dimensional_index_uses_last_coordinate_fastest():
    grid = build_grid(GridShape((2, 2, 2), 2, 2))
    assert len(grid) == 27
    assert grid.index_of((1, 0, 2)) == 1 * 9 + 0 * 3 + 2 == 11


@pytest.mark.parametrize("dims,l1,l2", [
    ((2, 2), 2, 2), ((3, 2), 2, 1), ((1,), 1, 1), ((2, 3, 4), 2, 2),
])
def test_index_bijection(dims, l1, l2):
    grid = build_grid(GridShape(dims, l1, l2))
    for k, u in enumerate(grid.states):
        assert grid.index_of(u) == k


def test_index_of_off_grid_state_is_a_domain_error():
    grid = build_grid(GridShape((2, 2), 1, 1))
    for u in ((3, 0), (0.5, 1), (1, -1), (1,), (1, float("nan")), ("1", 1),
              5, None):
        with pytest.raises(DomainError, match="not on the grid"):
            grid.index_of(u)


def test_index_of_takes_integral_floats_and_numpy_integers():
    grid = build_grid(GridShape((2, 2), 1, 1))
    assert grid.index_of((1.0, 1)) == grid.index_of((1, 1)) == 4
    assert grid.index_of(np.array([2, 1])) == 7


@pytest.mark.parametrize("dims,l1,l2,bad", [
    ((), 1, 1, "q >= 1"),
    ((2, 0), 1, 1, "n_2 >= 1"),
    ((2, 2), 0, 1, "l1 >= 1"),
    ((2, 2), 3, 1, "max\\(l1, l2\\) <= min\\(dims\\)"),
    ((3, 2, 4), 2, 3, "max\\(l1, l2\\) <= min\\(dims\\)"),
    ((2 ** 32, 2 ** 31), 1, 1, "prod\\(n_i \\+ 1\\) < 2\\^63"),
    ((1, 10 ** 400), 1, 1, "prod\\(n_i \\+ 1\\) < 2\\^63"),
    ((2 ** 31, 2 ** 31), 1, 1, "edge table's move lookup"),
    ((2.5, 2), 1, 1, "n_1 is an integer"),
    ((2, 2.0), 1, 1, "n_2 is an integer"),
    (("3", 2), 1, 1, "n_1 is an integer"),
    ((True, 2), 1, 1, "n_1 is an integer"),
    ((2, 2), 1.5, 1.5, "l1 is an integer"),
    ((2, 2), 1, True, "l2 is an integer"),
    (5, 1, 1, "dims is a sequence"),
    (None, 1, 1, "dims is a sequence"),
])
def test_shape_violations_name_the_invariant(dims, l1, l2, bad):
    with pytest.raises(ShapeError, match=bad):
        GridShape(dims, l1, l2)


def test_numpy_integer_shapes_are_plain_ints():
    shape = GridShape(np.array([2, 3]), np.int64(2), np.uint8(1))
    assert shape == GridShape((2, 3), 2, 1)
    assert all(type(x) is int for x in shape.dims + (shape.l1, shape.l2))


def test_directed_edge_count_for_jumps_up_to_two():
    assert len(directed_edges(GridShape((2, 2), 2, 2))) == 36


def test_directed_edge_count_for_unit_jumps():
    # 2 * (2*3 + 2*3) by the count formula, also by brute enumeration
    shape = GridShape((2, 2), 1, 1)
    edges = directed_edges(shape)
    assert len(edges) == 24
    brute = sum(
        1
        for u in build_grid(shape).states
        for v in build_grid(shape).states
        if edge_between(shape, u, v) is not None
    )
    assert brute == 24


def test_single_undirected_edge_grid():
    edges = directed_edges(GridShape((1,), 1, 1))
    assert [(e.u, e.v) for e in edges] == [((0,), (1,)), ((1,), (0,))]


def test_asymmetric_jump_bounds_respected_per_edge():
    shape = GridShape((2, 2), 2, 1)
    edges = directed_edges(shape)
    assert len(edges) == 30  # 9 forward + 6 backward per direction
    for e in edges:
        if e.step > 0:
            assert e.step <= shape.l1
        else:
            assert -e.step <= shape.l2
        assert e.v == shifted(e.u, e.direction, e.step)
        assert in_grid(shape, e.u) and in_grid(shape, e.v)


@pytest.mark.parametrize("dims,l", [((2, 2), 1), ((2, 2), 2), ((3, 2), 2),
                                    ((2, 2, 2), 2)])
def test_edge_symmetry(dims, l):
    shape = GridShape(dims, l, l)
    pairs = {(e.u, e.v) for e in directed_edges(shape)}
    assert pairs == {(v, u) for u, v in pairs}


def test_edge_count_formula_for_equal_bounds():
    for dims, l in [((2, 2), 2), ((3, 4), 2), ((2, 2, 2), 2), ((5,), 3)]:
        shape = GridShape(dims, l, l)
        expect = 0
        for i, n in enumerate(dims):
            perp = 1
            for j, m in enumerate(dims):
                if j != i:
                    perp *= m + 1
            expect += 2 * perp * sum(n - x + 1 for x in range(1, l + 1))
        assert len(directed_edges(shape)) == expect


def test_interior_state_degree_with_size_two_jumps_clipped():
    # from (1,1) on dims=(2,2): size-2 moves exit in every direction
    shape = GridShape((2, 2), 2, 2)
    adj = grid_adjacency(shape)
    grid = build_grid(shape)
    k = grid.index_of((1, 1))
    assert adj[k].sum() == 4
    neighbors = {grid.states[j] for j in np.flatnonzero(adj[k])}
    assert neighbors == {(0, 1), (2, 1), (1, 0), (1, 2)}


def test_path_graph_laplacian():
    lap = grid_laplacian(GridShape((2,), 1, 1))
    assert lap.tolist() == [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]


def test_laplacian_rows_sum_to_zero_and_adjacency_is_symmetric():
    adj = grid_adjacency(GridShape((3, 2), 2, 2))
    lap = grid_laplacian(GridShape((3, 2), 2, 2))
    assert (adj == adj.T).all()
    assert set(np.unique(adj)) <= {0, 1}
    assert (lap.sum(axis=1) == 0).all()


@pytest.mark.parametrize("dims,l", [((2, 2), 2), ((2, 2), 1), ((3, 3), 2),
                                    ((2, 2, 2), 2), ((4,), 2)])
def test_grid_graph_is_connected(dims, l):
    shape = GridShape(dims, l, l)
    lap = grid_laplacian(shape)
    n = lap.shape[0]
    labels = list(range(n))
    rank = integer_rank(IntMatrix(lap, labels, labels))
    assert rank == n - 1


def test_degree_sum_is_twice_the_undirected_edge_count():
    shape = GridShape((3, 2), 2, 2)
    adj = grid_adjacency(shape)
    assert adj.sum() == len(directed_edges(shape))


def test_edge_between_rejects_diagonal_and_oversized_moves():
    shape = GridShape((2, 2), 1, 1)
    assert edge_between(shape, (0, 0), (1, 1)) is None
    assert edge_between(shape, (0, 0), (2, 0)) is None  # size 2 > l1
    assert edge_between(shape, (0, 0), (0, 0)) is None
    e = edge_between(shape, (2, 0), (1, 0))
    assert e.direction == 1 and e.step == -1


@pytest.mark.parametrize("dims,l1,l2", TABLE_SWEEP)
def test_edge_table_lists_exactly_the_pairs_edge_between_accepts(dims, l1, l2):
    shape = GridShape(dims, l1, l2)
    states = list(product(*(range(n + 1) for n in dims)))
    assert build_grid(shape).states == states
    index = {u: k for k, u in enumerate(states)}
    brute = []
    for u in states:
        edges = [e for e in (edge_between(shape, u, v) for v in states) if e]
        edges.sort(key=lambda e: (e.direction, e.step < 0, abs(e.step)))
        brute += [(index[e.u], index[e.v], e.direction, e.step) for e in edges]
    t = edge_table(shape)
    table = list(zip(t.src.tolist(), t.dst.tolist(), t.direction.tolist(),
                     t.step.tolist()))
    assert table == brute
    pairs = [(states[s], states[d]) for s, d, _, _ in brute]
    assert edge_columns(shape, pairs).tolist() == list(range(len(brute)))
    assert [(e.u, e.v) for e in directed_edges(shape)] == pairs
    reverse = [pairs.index((v, u)) if (v, u) in pairs else -1
               for u, v in pairs]
    assert t.reverse.tolist() == reverse


@pytest.mark.parametrize("dims,l1,l2", TABLE_SWEEP)
def test_edge_columns_find_exactly_the_pairs_edge_between_accepts(dims, l1, l2):
    shape = GridShape(dims, l1, l2)
    box = list(product(*(range(-1, n + 2) for n in dims)))  # one step off
    pairs = [(u, v) for u in box for v in box]
    pairs += [(u[1:], v) for u, v in pairs[:50]]
    pairs += [(u, v + (0,)) for u, v in pairs[:50]]
    # fractional coordinates or steps are no edge; integral floats are
    edges = edge_pairs(shape)
    half = [tuple(c + 0.5 for c in u) for u, _ in edges]
    pairs += [(h, tuple(c + 0.5 for c in v)) for h, (_, v) in zip(half, edges)]
    pairs += [(u, h) for h, (u, _) in zip(half, edges)]
    pairs += [(tuple(map(float, u)), tuple(map(float, v))) for u, v in edges]
    column = {pair: k for k, pair in enumerate(edges)}
    assert edge_columns(shape, pairs).tolist() == [
        column[(u, v)] if edge_between(shape, u, v) else -1 for u, v in pairs]


@pytest.mark.parametrize("dims,l1,l2", TABLE_SWEEP)
def test_edge_table_classes_follow_edge_classes_order(dims, l1, l2):
    shape = GridShape(dims, l1, l2)
    lmax = max(l1, l2)
    classes = [(i + 1, r, x) for i, n in enumerate(dims)
               for x in range(1, lmax + 1) for r in range(n - x + 1)]
    assert edge_classes(shape) == classes
    t = edge_table(shape)
    for e, k in zip(directed_edges(shape), t.cls.tolist()):
        assert classes[k] == class_of(e.u, e.v)


def test_edge_table_is_read_only_and_built_once_per_shape():
    shape = GridShape((2, 2), 2, 2)
    assert edge_table(GridShape((2, 2), 2, 2)) is edge_table(shape)
    with pytest.raises(ValueError):
        edge_table(shape).src[0] = 5
