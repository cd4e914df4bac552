"""Integer constraint and parameter matrices, exact and certified ranks."""

from itertools import product

import numpy as np
import pytest

from gbdp import (
    GridShape,
    IntMatrix,
    TransitionModel,
    build_Q,
    build_R,
    certified_ranks,
    commutes_direct,
    constraint_residuals,
    integer_rank,
    order_formula_Q,
    rank_formula_Q,
    rank_formula_R,
    recover_params,
)
from gbdp import algebra
from gbdp.commute import DEFAULT_TOL, Constraint
from gbdp.errors import ConsistencyError, GbdpError, UnsupportedConfigError
from gbdp.lattice import edge_columns, edge_pairs, edge_table
from gbdp.param import EdgeClass
import conftest
from conftest import (EXP_SHAPE, SWEEP, grid_laplacian, line_cycle_count,
                      one_more_free)


def test_reference_orders():
    q = build_Q(EXP_SHAPE)
    r = build_R(EXP_SHAPE)
    assert (q.rows, q.cols) == (36, 36)
    assert (r.rows, r.cols) == (15, 36)


@pytest.mark.parametrize("shape", SWEEP)
def test_order_formula_matches_the_built_matrix(shape):
    q = build_Q(shape)
    assert order_formula_Q(shape) == (q.rows, q.cols)
    assert build_R(shape).cols == q.cols


def test_constraint_row_carries_its_four_edges():
    q = build_Q(EXP_SHAPE)
    c = Constraint(1, 1, 2, (0, 0), 1, 1)
    row = q.entries[q.row_labels.index(c)]
    col = {edge: k for k, edge in enumerate(q.col_labels)}
    assert row[col[((0, 0), (1, 0))]] == 1
    assert row[col[((1, 0), (1, 1))]] == 1
    assert row[col[((0, 0), (0, 1))]] == -1
    assert row[col[((0, 1), (1, 1))]] == -1
    assert np.count_nonzero(row) == 4


def test_every_constraint_row_balances():
    for shape in (EXP_SHAPE, GridShape((2, 2, 2), 2, 2)):
        q = build_Q(shape)
        assert np.all(q.entries.sum(axis=1) == 0)
        assert np.all((q.entries == 1).sum(axis=1) == 2)
        assert np.all((q.entries == -1).sum(axis=1) == 2)
        pairs = [(c.i, c.j) for c in q.row_labels]
        assert pairs == sorted(pairs)


def test_parameter_column_structure():
    r = build_R(EXP_SHAPE)
    col = r.col_labels.index(((0, 0), (1, 0)))
    by_label = dict(zip(r.row_labels, r.entries[:, col]))
    assert by_label[("alpha", (0, 0))] == 1
    assert by_label[("alpha", (1, 0))] == -1
    assert by_label[("gamma", EdgeClass(1, 0, 1))] == 1
    assert np.count_nonzero(r.entries[:, col]) == 3
    assert np.all(np.count_nonzero(r.entries, axis=0) == 3)
    assert np.all(r.entries.sum(axis=0) == 1)


def test_parameter_gram_matrix_blocks():
    r = build_R(EXP_SHAPE)
    gram = r.entries @ r.entries.T
    lap = grid_laplacian(EXP_SHAPE)
    assert np.array_equal(gram[:9, :9], 2 * lap)
    assert np.array_equal(gram[9:, 9:], 6 * np.eye(6, dtype=np.int64))
    assert not gram[:9, 9:].any()


def test_integer_rank_basics():
    assert integer_rank(np.eye(5, dtype=np.int64)) == 5
    assert integer_rank(np.zeros((3, 4), dtype=np.int64)) == 0
    assert integer_rank(np.ones((3, 3), dtype=np.int64)) == 1
    assert integer_rank(np.array([[2, 4], [1, 2]])) == 1
    assert integer_rank(np.array([[2, 3], [5, 7]])) == 2
    assert integer_rank(IntMatrix(np.eye(2, dtype=np.int64),
                                  ["a", "b"], ["x", "y"])) == 2


def test_integer_rank_of_the_grid_laplacian():
    lap = grid_laplacian(EXP_SHAPE)
    assert integer_rank(lap) == 8


def test_integer_rank_against_floating_point(rng):
    for _ in range(10):
        m = rng.integers(-3, 4, size=(7, 9))
        assert integer_rank(m) == np.linalg.matrix_rank(m)


@pytest.mark.parametrize("shape", SWEEP)
def test_parameter_rank_matches_the_closed_form(shape):
    assert integer_rank(build_R(shape)) == rank_formula_R(shape)


@pytest.mark.parametrize("shape", SWEEP)
def test_constraint_rank_is_the_closed_form_minus_the_line_cycles(shape):
    expected = rank_formula_Q(shape) - line_cycle_count(shape)
    assert integer_rank(build_Q(shape)) == expected


@pytest.mark.parametrize("shape", SWEEP)
def test_line_cycle_kernel_certifies_the_rank_gap(shape):
    q = build_Q(shape)
    r = build_R(shape)
    z = conftest.line_cycle_kernel(shape, q.col_labels)
    assert z.shape == (line_cycle_count(shape), q.cols)
    assert z.any(axis=1).all()
    assert not z.sum(axis=1).any()
    assert not (q.entries @ z.T).any()
    assert integer_rank(np.vstack([r.entries, z])) == integer_rank(r) + len(z)


def test_a_single_forward_unit_edge_is_not_in_the_kernel():
    q = build_Q(EXP_SHAPE)
    for k, (u, v) in enumerate(q.col_labels):
        if sum(b - a for a, b in zip(u, v)) == 1:
            e = np.zeros(q.cols, dtype=np.int64)
            e[k] = 1
            assert (q.entries @ e).any(), (u, v)


@pytest.mark.parametrize("shape", SWEEP)
def test_constraint_and_parameter_rows_are_orthogonal(shape):
    q = build_Q(shape)
    r = build_R(shape)
    assert not (q.entries @ r.entries.T).any()


def test_unit_jump_report_is_a_full_complement():
    cert = certified_ranks(GridShape((1, 1), 1, 1))
    assert (cert.rank_Q, cert.rank_R, cert.cols) == (3, 5, 8)
    assert cert.rank_Q + cert.rank_R == cert.cols


def test_multi_step_report_shows_the_rank_gap():
    cert = certified_ranks(EXP_SHAPE)
    assert (cert.rows, cert.cols, cert.params) == (36, 36, 15)
    assert (cert.rank_Q, cert.rank_R) == (20, 14)
    assert cert.cols - cert.rank_Q - cert.rank_R == line_cycle_count(
        EXP_SHAPE
    )


def test_single_direction_grid_has_no_constraints():
    shape = GridShape((3,), 1, 1)
    q = build_Q(shape)
    assert q.rows == 0 and integer_rank(q) == 0
    cert = certified_ranks(shape)
    assert cert.rows == cert.rank_Q == len(cert.basis) == 0
    assert cert.free.tolist() == list(range(6))
    assert cert.rank_R == cert.cols == 6


def test_unequal_jump_bounds_are_refused():
    shape = GridShape((2, 2), 2, 1)
    for fn in (build_Q, build_R, rank_formula_Q, rank_formula_R,
               order_formula_Q, certified_ranks):
        with pytest.raises(UnsupportedConfigError, match="equal jump bounds"):
            fn(shape)


@pytest.mark.parametrize("shape", SWEEP)
def test_certified_ranks_equal_the_exact_elimination(shape):
    cert = certified_ranks(shape)
    q = build_Q(shape)
    r = build_R(shape)
    assert (cert.rows, cert.cols, cert.params) == (q.rows, q.cols, r.rows)
    assert cert.rank_Q == integer_rank(q) == len(cert.basis)
    assert cert.rank_R == integer_rank(r)
    z = conftest.line_cycle_kernel(shape, q.col_labels)
    assert len(cert.free) == integer_rank(np.vstack([r.entries, z]))
    # the basis rows are independent, so with rank_Q of them they span Q
    assert integer_rank(q.entries[cert.basis]) == len(cert.basis)
    assert np.all(np.diff(cert.basis) > 0) and np.all(np.diff(cert.free) > 0)


@pytest.mark.parametrize("shape", SWEEP)
def test_potentials_and_functions_of_the_move_solve_every_constraint(shape,
                                                                     rng):
    # the lemma behind the kernel count of certified_ranks
    t = edge_table(shape)
    q = build_Q(shape).entries
    f = rng.integers(-3, 4, size=(len(t.classes), 2))
    assert not (q @ f[t.cls, (t.step > 0).astype(int)]).any()
    phi = rng.integers(-3, 4, size=shape.n_states)
    assert not (q @ (phi[t.src] - phi[t.dst])).any()


# every shape of one or two axes with dims <= 6, three axes with dims <= 3
# and four axes with dims <= 2, at every l <= min(dims), and six larger
RANK_SWEEP = [
    GridShape(dims, l, l)
    for q, top in ((1, 6), (2, 6), (3, 3), (4, 2))
    for dims in product(range(1, top + 1), repeat=q)
    for l in range(1, min(dims) + 1)
] + [GridShape((1,) * 5, 1, 1), GridShape((2,) * 5, 1, 1),
     GridShape((2,) * 5, 2, 2), GridShape((1,) * 6, 1, 1),
     GridShape((4, 4, 4), 2, 2), GridShape((8, 8), 4, 4)]


@pytest.mark.parametrize("shape", RANK_SWEEP, ids=str)
def test_the_certified_rank_follows_the_line_cycle_law(shape):
    cert = certified_ranks(shape)
    assert cert.rank_Q == rank_formula_Q(shape) - line_cycle_count(shape)
    assert len(cert.free) == cert.cols - cert.rank_Q


@pytest.mark.parametrize("shape", SWEEP)
def test_the_free_edges_are_a_spanning_tree_and_the_axis_lines(shape):
    def free(u, v):
        (i,) = [i for i in range(len(u)) if u[i] != v[i]]
        # the unit step into v along the first axis where v is nonzero
        tree = v[i] == u[i] + 1 and not any(v[:i])
        # an edge on the axis line of axis i through the origin
        line = not any(u[:i] + u[i + 1:])
        return tree or line

    expected = [k for k, (u, v) in enumerate(edge_pairs(shape)) if free(u, v)]
    assert certified_ranks(shape).free.tolist() == expected


@pytest.mark.parametrize("dims, l, rank_q, free, rank_r", [
    ((9, 9, 9), 2, 9126, 1074, 1050),
    ((31, 31), 4, 13671, 1433, 1259),
])
def test_certificates_of_the_benchmark_shapes(dims, l, rank_q, free, rank_r):
    # the ranks that a full elimination of [R; Z] gave on these shapes
    shape = GridShape(dims, l, l)
    cert = certified_ranks(shape)
    assert (cert.rank_Q, len(cert.free), cert.rank_R) == (rank_q, free,
                                                          rank_r)
    assert cert.rank_Q == rank_formula_Q(shape) - line_cycle_count(shape)


def solve_basis(q, cert, y_free):
    """Edge log-weights that take y_free on F and solve the basis rows of
    q: each pass pins the unknown edge of every basis row left with one."""
    rows = q.entries[cert.basis]
    y = np.zeros(q.cols, dtype=np.int64)
    known = np.zeros(q.cols, dtype=bool)
    y[cert.free], known[cert.free] = y_free, True
    while not known.all():
        open_ = (rows != 0) & ~known
        ready = np.flatnonzero(open_.sum(axis=1) == 1)
        assert ready.size, "the basis rows are not triangular"
        edge = open_[ready].argmax(axis=1)
        y[edge] = -(rows[ready] @ y) * rows[ready, edge]
        known[edge] = True
    return y


@pytest.mark.parametrize("shape", SWEEP)
def test_weights_on_the_free_edges_propagate_to_a_kernel_vector(shape, rng):
    cert = certified_ranks(shape)
    q = build_Q(shape)
    y = solve_basis(q, cert, rng.integers(-3, 4, size=len(cert.free)))
    assert not (q.entries @ y).any()


def test_a_propagated_model_commutes_but_has_no_parametrization(rng):
    cert = certified_ranks(EXP_SHAPE)
    y_free = rng.integers(-2, 3, size=len(cert.free))
    # the line cycle closed by the jump (0,0)->(2,0), all of it free,
    # carries one unit, on the jump alone, whatever the rest of the draw
    cycle = edge_columns(EXP_SHAPE, [
        ((0, 0), (2, 0)), ((2, 0), (0, 0)), ((0, 0), (1, 0)),
        ((1, 0), (0, 0)), ((1, 0), (2, 0)), ((2, 0), (1, 0))])
    y_free[np.searchsorted(cert.free, cycle)] = [1, 0, 0, 0, 0, 0]
    y = solve_basis(build_Q(EXP_SHAPE), cert, y_free)
    model = TransitionModel(EXP_SHAPE, dict(zip(edge_pairs(EXP_SHAPE),
                                                0.05 * np.exp(0.1 * y))))
    assert max(abs(v) for _, v in constraint_residuals(model, 1, 2)) <= (
        DEFAULT_TOL)
    assert commutes_direct(model, 1, 2)[0]
    # its line-cycle part is no vertex/class parametrization: the erratum
    with pytest.raises(ConsistencyError):
        recover_params(model)


def test_disagreeing_bounds_are_an_error(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(algebra, "_propagate", one_more_free)
        with pytest.raises(GbdpError, match="rank Q >= 19, the kernel .* "
                                            "rank Q <= 20"):
            certified_ranks(EXP_SHAPE)
    shape = GridShape((3, 2), 2, 2)
    real = algebra._constraint_columns(shape)
    cols = real.copy()
    monkeypatch.setattr(algebra, "_constraint_columns", lambda shape: cols)
    # the same moves in opposite order, but the right path starts at (2, 0)
    cols[:, 5] = edge_columns(shape, [((0, 0), (1, 0)), ((1, 0), (1, 1)),
                                      ((2, 0), (2, 1)), ((0, 1), (1, 1))])
    with pytest.raises(GbdpError, match="constraint 5 is not two paths "
                                        "between the same ends"):
        certified_ranks(shape)
    # two paths from (1, 0) to (2, 0), by +2 then -1 and by -1 then +2:
    # the ends agree, but the two +2 jumps lie in different classes
    cols[:, 5] = real[:, 5]
    cols[:, 7] = edge_columns(shape, [((1, 0), (3, 0)), ((3, 0), (2, 0)),
                                      ((1, 0), (0, 0)), ((0, 0), (2, 0))])
    with pytest.raises(GbdpError, match="constraint 7 is not two paths "
                                        "between the same ends"):
        certified_ranks(shape)


def test_an_uncertified_rank_R_is_an_error(monkeypatch):
    t = edge_table(EXP_SHAPE)
    # no 2-cycle closes: the reverse of each edge is the next column, the
    # edge itself (same class, wrong source) or missing
    for reverse in (np.roll(t.reverse, 1), np.arange(36), np.full(36, -1)):
        monkeypatch.setattr(algebra, "edge_table", lambda shape: t._replace(
            reverse=reverse))
        with pytest.raises(GbdpError, match="rank of R not certified: 36 "
                                            "edges have no reverse in their "
                                            "class, 0 classes have no edge"):
            certified_ranks(EXP_SHAPE)
    # one more class than the edges use
    monkeypatch.setattr(algebra, "edge_table", lambda shape: t._replace(
        classes=np.vstack([t.classes, t.classes[:1]])))
    with pytest.raises(GbdpError, match="rank of R not certified: 0 edges "
                                        "have no reverse in their class, 1 "
                                        "classes have no edge"):
        certified_ranks(EXP_SHAPE)


def test_int_matrix_checks_its_legends():
    with pytest.raises(ValueError, match="legend lengths"):
        IntMatrix(np.zeros((2, 2), dtype=np.int64), ["r"], ["c1", "c2"])
