"""The commutation check: constraint enumeration and residuals, and
commutes_direct against the dense commutator of tests/oracles.py."""

import numpy as np
import pytest

from gbdp import (
    GridShape,
    TransitionModel,
    build_grid,
    commutes_direct,
    constraint_residuals,
    pair_constraints,
)
from gbdp import commute
from gbdp.commute import Constraint, constraint_columns
from gbdp.errors import DomainError
from gbdp.lattice import directed_edges, in_grid
import oracles
from oracles import constraint_edges, shifted
from conftest import EXP_SHAPE, SWEEP, make_commuting_model


def test_parametrized_model_commutes_by_both_routes(rng):
    model = make_commuting_model(EXP_SHAPE, rng)
    ok, residual = commutes_direct(model, 1, 2)
    assert ok and residual <= 1e-12
    _, worst = oracles.commutes_direct(model, 1, 2)
    assert worst <= 1e-14


def test_zero_model_commutes_with_all_residuals_exactly_zero():
    model = TransitionModel(EXP_SHAPE, {}, absorbing=True)
    ok, residual = commutes_direct(model, 1, 2)
    assert ok and residual == 0.0
    residuals = constraint_residuals(model, 1, 2)
    assert len(residuals) == 36
    assert all(r == 0.0 for _, r in residuals)


def test_constant_probability_unit_jump_model_balances_exactly():
    shape = GridShape((2, 2), 1, 1)
    c = 0.17
    model = TransitionModel(
        shape, {(e.u, e.v): c for e in directed_edges(shape)}, absorbing=True
    )
    assert all(r == 0.0 for _, r in constraint_residuals(model, 1, 2))


def test_single_edge_perturbation_breaks_both_routes(rng):
    model = make_commuting_model(EXP_SHAPE, rng)
    probs = dict(model.probs)
    probs[((0, 0), (1, 0))] += 0.1
    bad = TransitionModel(EXP_SHAPE, probs)
    ok, residual = commutes_direct(bad, 1, 2)
    assert not ok and residual > 1e-12
    _, worst = oracles.commutes_direct(bad, 1, 2)
    assert worst > 1e-12


def test_both_routes_agree_on_random_and_perturbed_models(rng):
    shapes = [EXP_SHAPE, GridShape((2, 2), 1, 1), GridShape((3, 3), 2, 2),
              GridShape((2, 2, 2), 2, 2)]
    for trial in range(20):
        shape = shapes[trial % len(shapes)]
        model = make_commuting_model(shape, rng)
        if trial % 2:
            probs = dict(model.probs)
            edge = list(probs)[int(rng.integers(len(probs)))]
            probs[edge] += 0.1
            model = TransitionModel(shape, probs)
        for i in range(1, shape.q + 1):
            for j in range(i + 1, shape.q + 1):
                direct, _ = commutes_direct(model, i, j)
                _, worst = oracles.commutes_direct(model, i, j)
                assert direct == (worst <= 1e-12)


def oracle_models(shape, rng):
    """Two commuting models (one absorbing), then the first with one edge
    times 1.5, with that edge deleted, and with a key that is no edge."""
    commuting = make_commuting_model(shape, rng)
    absorbing = make_commuting_model(shape, rng, absorbing=True)
    edge = list(commuting.probs)[int(rng.integers(len(commuting.probs)))]
    perturbed, deleted = dict(commuting.probs), dict(commuting.probs)
    perturbed[edge] *= 1.5
    del deleted[edge]
    illegal = dict(commuting.probs)
    origin = (0,) * shape.q
    illegal[(origin, shifted(origin, 1, shape.l1 + 1))] = 0.5  # too long
    return [commuting, absorbing] + [TransitionModel(shape, probs)
                                     for probs in (perturbed, deleted, illegal)]


@pytest.mark.parametrize("shape", SWEEP + [
    GridShape((3, 2), 2, 1), GridShape((2, 3), 1, 2),
    GridShape((2, 2, 2), 2, 1)])
def test_sparse_commutator_equals_the_dense_oracle_bit_for_bit(shape, rng):
    models = oracle_models(shape, rng)
    assert models[-1].illegal
    for model in models:
        for i in range(1, shape.q + 1):
            for j in range(i + 1, shape.q + 1):
                got = commutes_direct(model, i, j)
                want = oracles.commutes_direct(model, i, j)
                assert got == want and got[1].hex() == want[1].hex()


def test_constraint_count_matches_the_clipped_rectangle_formula():
    for dims, l in [((2, 2), 2), ((2, 2), 1), ((3, 2), 2), ((4, 3), 2)]:
        shape = GridShape(dims, l, l)
        m, n = dims[0] + 1, dims[1] + 1
        expect = 4 * sum(
            (m - x) * (n - y)
            for x in range(1, l + 1)
            for y in range(1, l + 1)
        )
        assert len(pair_constraints(shape, 1, 2)) == expect


def test_exp_shape_generates_the_thirty_six_constraints():
    cons = pair_constraints(EXP_SHAPE, 1, 2)
    assert len(cons) == 36
    assert {c.family for c in cons} == {1, 2, 3, 4}
    # descriptors carry (family, directions, base, signed steps)
    c = cons[0]
    assert c.base == (0, 0) and (c.i, c.j) == (1, 2)
    assert c.step_i > 0 and c.step_j > 0


def brute_constraints(shape, i, j):
    """Every (base, a, b) with all four corners on the grid, in the
    documented order: base (lattice order), family, |a|, |b|."""
    bounds = {1: shape.l1, -1: shape.l2}
    out = []
    for u in build_grid(shape).states:
        for family, (si, sj) in enumerate(((1, 1), (1, -1), (-1, 1),
                                           (-1, -1)), 1):
            for xa in range(1, bounds[si] + 1):
                for xb in range(1, bounds[sj] + 1):
                    v = shifted(shifted(u, i, si * xa), j, sj * xb)
                    if in_grid(shape, v):
                        out.append(Constraint(family, i, j, u, si * xa,
                                              sj * xb))
    return out


@pytest.mark.parametrize("dims,l1,l2", [
    ((2, 2), 2, 2), ((3, 2), 2, 1), ((2, 3), 1, 2), ((2, 1, 2), 1, 1),
    ((2, 2, 2), 2, 1), ((3, 2, 2), 2, 2),
])
def test_constraint_columns_are_the_edges_of_each_constraint(dims, l1, l2):
    shape = GridShape(dims, l1, l2)
    pairs = [(e.u, e.v) for e in directed_edges(shape)]
    for i in range(1, shape.q + 1):
        for j in range(1, shape.q + 1):
            if i == j:
                continue
            cons = pair_constraints(shape, i, j)
            assert cons == brute_constraints(shape, i, j)
            columns = np.array(constraint_columns(shape, i, j)).T
            assert len(columns) == len(cons)
            for c, (a1, a2, b1, b2) in zip(cons, columns.tolist()):
                left, right = constraint_edges(c)
                assert (pairs[a1], pairs[a2]) == left
                assert (pairs[b1], pairs[b2]) == right


def test_constraint_residuals_build_the_constraint_columns_once(monkeypatch,
                                                                rng):
    model = make_commuting_model(EXP_SHAPE, rng)
    expected = list(zip(pair_constraints(EXP_SHAPE, 1, 2),
                        commute.pair_residuals(model, 1, 2).tolist()))
    calls = []
    build = commute.constraint_columns

    def counted(shape, i, j):
        calls.append((i, j))
        return build(shape, i, j)

    monkeypatch.setattr(commute, "constraint_columns", counted)
    assert constraint_residuals(model, 1, 2) == expected
    assert calls == [(1, 2)]


def test_constraint_edges_of_the_unit_square_identity():
    c = Constraint(1, 1, 2, (0, 0), 1, 1)
    left, right = constraint_edges(c)
    assert left == (((0, 0), (1, 0)), ((1, 0), (1, 1)))
    assert right == (((0, 0), (0, 1)), ((0, 1), (1, 1)))


def test_all_four_constraint_corners_stay_on_the_grid():
    for c in pair_constraints(GridShape((3, 2), 2, 2), 1, 2):
        for pair in constraint_edges(c):
            for u, v in pair:
                assert all(0 <= u[k] <= (3, 2)[k] for k in range(2))
                assert all(0 <= v[k] <= (3, 2)[k] for k in range(2))


def test_self_pair_and_out_of_range_pair_are_domain_errors():
    model = TransitionModel(EXP_SHAPE, {}, absorbing=True)
    with pytest.raises(DomainError, match="vacuous"):
        commutes_direct(model, 1, 1)
    with pytest.raises(DomainError, match="vacuous"):
        pair_constraints(EXP_SHAPE, 2, 2)
    for i, j in ((1, 3), (1.5, 2), (1, 2.0), (True, 2)):
        with pytest.raises(DomainError, match="outside 1..2"):
            pair_constraints(EXP_SHAPE, i, j)
        with pytest.raises(DomainError, match="outside 1..2"):
            commutes_direct(model, i, j)
