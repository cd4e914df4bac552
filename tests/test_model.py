"""Transition storage, validation, and matrix assembly."""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest

import gbdp.model
from gbdp import (
    GridShape,
    Parametrization,
    TransitionModel,
    build_grid,
    build_model,
    commutes_direct,
    constraint_residuals,
    edge_classes,
    full_matrix,
    load_model,
    recover_params,
    row_mass,
    save_model,
    validate,
)
from gbdp.errors import DomainError
from gbdp.simulate import cdf_table
from oracles import directional_matrix, edge_between
from conftest import (EXP_SHAPE, SWEEP, make_commuting_model,
                      make_parametrization)


def test_one_dimensional_tridiagonal_assembly():
    shape = GridShape((2,), 1, 1)
    model = TransitionModel(shape, {
        ((0,), (1,)): 0.5, ((1,), (0,)): 0.3,
        ((1,), (2,)): 0.7, ((2,), (1,)): 0.4,
    })
    expect = np.array([
        [0.0, 0.5, 0.0],
        [0.3, 0.0, 0.7],
        [0.0, 0.4, 0.0],
    ])
    assert (directional_matrix(model, 1) == expect).all()


def test_empty_model_gives_zero_matrix():
    model = TransitionModel(EXP_SHAPE, {})
    assert not directional_matrix(model, 1).any()
    assert not directional_matrix(model, 2).any()


def test_direction_out_of_range_is_a_domain_error():
    model = TransitionModel(EXP_SHAPE, {})
    for i in (3, 0, 1.5, 2.0, True):
        with pytest.raises(DomainError, match="direction %s outside 1..2" % i):
            directional_matrix(model, i)
    assert np.array_equal(directional_matrix(model, np.int64(2)),
                          directional_matrix(model, 2))


def test_directional_matrices_split_the_probabilities(rng):
    model = make_commuting_model(EXP_SHAPE, rng)
    p1 = directional_matrix(model, 1)
    p2 = directional_matrix(model, 2)
    grid_probs = p1 + p2
    assert np.count_nonzero(p1) + np.count_nonzero(p2) == len(model.probs)
    assert grid_probs.sum() == pytest.approx(sum(model.probs.values()))


def test_full_matrix_is_directional_sum_plus_self(rng):
    model = make_commuting_model(EXP_SHAPE, rng, self_prob=0.25)
    total = directional_matrix(model, 1) + directional_matrix(model, 2)
    total += np.diag(model.self_mass)
    assert np.abs(full_matrix(model) - total).max() == 0.0


def test_self_only_model_is_scaled_identity():
    model = TransitionModel(EXP_SHAPE, {}, self_prob=0.3, absorbing=True)
    assert np.abs(full_matrix(model) - 0.3 * np.eye(9)).max() == 0.0


def test_per_state_self_table():
    shape = GridShape((1,), 1, 1)
    model = TransitionModel(
        shape, {}, self_prob={(0,): 0.2, (1,): 0.9}, absorbing=True
    )
    assert model.self_of((0,)) == 0.2
    assert full_matrix(model).tolist() == [[0.2, 0.0], [0.0, 0.9]]


def test_boundary_zeros(rng):
    # no entry may land outside the band of legal jumps
    model = make_commuting_model(GridShape((3, 2), 2, 2), rng)
    shape = model.shape
    grid = build_grid(shape)
    for i in (1, 2):
        mat = directional_matrix(model, i)
        for a in np.argwhere(mat != 0):
            u, v = grid.states[a[0]], grid.states[a[1]]
            e = edge_between(shape, u, v)
            assert e is not None and e.direction == i


def test_validate_flags_mass_above_one():
    shape = GridShape((1,), 1, 1)
    model = TransitionModel(shape, {((0,), (1,)): 0.9}, self_prob=0.2)
    report = validate(model)
    assert any("mass exceeds 1 at (0,)" in r for r in report)


def test_validate_flags_illegal_edge():
    model = TransitionModel(EXP_SHAPE, {((2, 0), (3, 0)): 0.1}, absorbing=True)
    report = validate(model)
    assert any("exits grid" in r for r in report)


def test_validate_flags_self_mass_off_the_grid():
    # the sampler and row_mass never read these keys
    shape = GridShape((1,), 1, 1)
    table = {(2,): 0.1, (0.5,): 0.1, (1.0,): 0.5}
    model = TransitionModel(shape, {((0,), (1,)): 1.0, ((1,), (0,)): 0.5},
                            self_prob=table)
    assert validate(model) == ["self-transition at off-grid state (2,)",
                               "self-transition at off-grid state (0.5,)"]


def test_a_bool_self_table_key_is_off_the_grid():
    # (True, 0) == (1, 0), but in_grid refuses it, so no state reads it
    model = TransitionModel(GridShape((2, 2), 1, 1), {},
                            self_prob={(True, 0): 0.5}, absorbing=True)
    assert validate(model) == ["self-transition at off-grid state (True, 0)"]
    assert not model.self_mass.any()


def test_p_and_self_of_read_no_key_that_the_tables_refuse():
    # a dict lookup of (1, 0) finds the key (True, 0), which equals it
    model = TransitionModel(GridShape((2, 2), 1, 1),
                            {((True, 0), (0, 0)): 0.5},
                            self_prob={(True, 0): 0.5}, absorbing=True)
    assert not model.edge_prob.any() and not model.self_mass.any()
    for u in ((1, 0), (True, 0)):
        assert model.p(u, (0, 0)) == 0.0 and model.self_of(u) == 0.0


@pytest.mark.parametrize("self_prob", [None, 0.25, {(1, 1): 0.25}])
def test_p_and_self_of_equal_the_entries_of_the_full_matrix(self_prob):
    model = make_commuting_model(EXP_SHAPE, np.random.default_rng(3),
                                 self_prob=self_prob)
    states, full = build_grid(EXP_SHAPE).states, full_matrix(model)
    for a, u in enumerate(states):
        assert model.self_of(u) == full[a, a]
        for b, v in enumerate(states):
            assert model.p(u, v) == (full[a, b] if a != b else 0.0)
    assert model.p((3, 0), (2, 0)) == model.self_of((3, 0)) == 0.0


def test_validate_flags_probability_outside_unit_interval():
    model = TransitionModel(
        EXP_SHAPE, {((0, 0), (1, 0)): 1.5}, absorbing=True
    )
    assert any("outside (0, 1]" in r for r in validate(model))


def test_validate_flags_missing_mass_without_sink():
    shape = GridShape((1,), 1, 1)
    model = TransitionModel(shape, {((0,), (1,)): 0.5, ((1,), (0,)): 1.0})
    report = validate(model)
    assert any("no absorbing sink" in r for r in report)
    assert not validate(TransitionModel(shape, model.probs, absorbing=True))


def test_validate_accepts_stochastic_model():
    shape = GridShape((1,), 1, 1)
    model = TransitionModel(
        shape, {((0,), (1,)): 1.0, ((1,), (0,)): 0.4}, self_prob={(1,): 0.6}
    )
    assert validate(model) == []


def test_sink_mass_accounting():
    shape = GridShape((1,), 1, 1)
    model = TransitionModel(shape, {((0,), (1,)): 0.75}, absorbing=True)
    mass = row_mass(model)
    assert mass.tolist() == [0.75, 0.0]


@pytest.mark.parametrize("key", [
    ((1,), (0,)),  # wrong length
    ((2, 0), (3, 0)),  # off the grid
    ((1, 1), (0, 0)),  # diagonal
    ((0, 0), (2, 0)),  # jump larger than l1
    ((1, 1), (1, 1)),  # self-loop
    ((10 ** 400, 0), (0, 0)),  # a coordinate beyond the double range
    ((True, 0), (0, 0)),  # a bool coordinate
    (("1", 1), (0, 1)),  # a string coordinate
])
def test_malformed_keys_are_reported_and_otherwise_ignored(key):
    shape = GridShape((2, 2), 1, 1)
    good = make_commuting_model(shape, np.random.default_rng(5),
                                self_prob={(1, 1): 0.25})
    # a bool key equals the int key of its edge, which it would replace
    probs = {k: p for k, p in good.probs.items() if k != key}
    good = TransitionModel(shape, probs, self_prob=good.self_prob)
    bad = TransitionModel(shape, {**probs, key: 0.5},
                          self_prob=good.self_prob)
    message = "edge %s->%s exits grid or is not a legal jump" % key
    assert message in validate(bad) and message not in validate(good)
    assert (row_mass(bad) == row_mass(good)).all()
    assert (full_matrix(bad) == full_matrix(good)).all()
    for i in (1, 2):
        assert (directional_matrix(bad, i) == directional_matrix(good, i)).all()


def test_a_model_is_read_only():
    probs, table = {((0,), (1,)): 0.5}, {(0,): 0.2}
    model = TransitionModel(GridShape((1,), 1, 1), probs, self_prob=table)
    probs[((0,), (1,))], table[(0,)] = 0.9, 0.9  # the model keeps copies
    with pytest.raises(TypeError):
        model.probs[((0,), (1,))] = 0.9
    with pytest.raises(TypeError):
        model.self_prob[(1,)] = 0.1
    for field in ("shape", "probs", "absorbing", "edge_prob"):
        with pytest.raises(FrozenInstanceError):
            setattr(model, field, None)
    for resolved in (model.edge_prob, model.self_mass):
        with pytest.raises(ValueError, match="read-only"):
            resolved[0] = 0.9
    assert model.p((0,), (1,)) == 0.5 and model.self_of((0,)) == 0.2
    assert model.edge_prob.tolist() == [0.5, 0.0]
    assert model.self_mass.tolist() == [0.2, 0.0]


def test_keys_are_resolved_once_per_model(monkeypatch, tmp_path):
    """build_model and load_model hand over their edge columns, so their
    models look up no key; a model built from a dict looks its keys up
    once."""
    calls = []
    resolve = gbdp.model.edge_columns

    def counted(shape, pairs):
        calls.append(shape)
        return resolve(shape, pairs)

    shape = GridShape((2, 1, 2), 1, 1)
    built = build_model(make_parametrization(
        shape, np.random.default_rng(1), low=0.2, high=0.4), 0.1)
    save_model(built, tmp_path / "m.json")
    loaded = load_model(tmp_path / "m.json")
    by_hand = TransitionModel(shape, dict(built.probs), 0.1)
    monkeypatch.setattr(gbdp.model, "edge_columns", counted)
    for model, lookups in ((built, 0), (loaded, 0), (by_hand, 1)):
        validate(model)
        row_mass(model)
        full_matrix(model)
        for i in range(1, shape.q + 1):
            directional_matrix(model, i)
            for j in range(i + 1, shape.q + 1):
                constraint_residuals(model, i, j)
                commutes_direct(model, i, j)
        recover_params(model)
        cdf_table(model)
        assert calls == [shape] * lookups
        calls.clear()


@pytest.mark.parametrize("shape", SWEEP, ids=str)
def test_models_that_carry_columns_equal_the_model_of_their_dict(shape,
                                                                 tmp_path):
    rng = np.random.default_rng(shape.n_states)
    p = make_parametrization(shape, rng, low=0.2, high=0.4)
    p = Parametrization(shape, p.alpha, {  # a class with no edges
        **p.gamma, edge_classes(shape)[-1]: 0.0})
    table = {u: float(rng.uniform(0.0, 0.2)) for u in build_grid(shape).states}
    path = tmp_path / "m.json"
    for self_prob in (None, 0.25, table):
        for absorbing in (False, True):
            built = build_model(p, self_prob, absorbing)
            save_model(built, path)
            for m in (built, load_model(path)):
                again = TransitionModel(m.shape, dict(m.probs), m.self_prob,
                                        m.absorbing)
                assert again == m
                assert list(again.probs.items()) == list(m.probs.items())
                assert (again.edge_prob == m.edge_prob).all()
                assert again.illegal == m.illegal == ()
                assert (again.self_mass == m.self_mass).all()


def test_self_mass_is_a_real_number_not_a_bool():
    check = gbdp.model.check_self_mass
    assert check(0) == 0.0
    assert check(np.float32(0.25)) == 0.25
    for bad in ("0.5", "abc", True, np.bool_(False), None, 10 ** 400):
        with pytest.raises(DomainError, match="must be a real number"):
            check(bad)
