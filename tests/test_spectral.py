"""Block decomposition, small-block eigensystems, closed-form k-step matrices."""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from gbdp import (
    GridShape,
    Parametrization,
    block_decompose,
    build_grid,
    build_model,
    edge_classes,
    full_matrix,
    k_step,
    matrix_power,
    normalize_stochastic,
    symmetric_eigen,
)
from gbdp.errors import DomainError, UnsupportedConfigError
from gbdp.param import EdgeClass
from oracles import direction_operator, directional_matrix
from conftest import EXP_SHAPE, make_commuting_model, make_parametrization


def test_block_entries_are_the_class_weights(rng):
    p = make_parametrization(EXP_SHAPE, rng)
    g = p.gamma
    u1 = block_decompose(p)[0]
    expected = np.array([
        [0.0, g[EdgeClass(1, 0, 1)], g[EdgeClass(1, 0, 2)]],
        [g[EdgeClass(1, 0, 1)], 0.0, g[EdgeClass(1, 1, 1)]],
        [g[EdgeClass(1, 0, 2)], g[EdgeClass(1, 1, 1)], 0.0],
    ])
    assert np.array_equal(u1, expected)


def test_block_sizes_and_bandwidth(rng):
    shape = GridShape((3, 2), 2, 2)
    u1, u2 = block_decompose(make_parametrization(shape, rng))
    assert u1.shape == (4, 4) and u2.shape == (3, 3)
    assert np.array_equal(u1, u1.T)
    assert u1[0, 3] == 0.0 and u1[3, 0] == 0.0
    assert np.all(np.diag(u1) == 0.0) and np.all(np.diag(u2) == 0.0)
    assert np.count_nonzero(u1) == 2 * 5 and np.count_nonzero(u2) == 2 * 3


def test_decomposition_refuses_unequal_jump_bounds():
    shape = GridShape((2, 2), 2, 1)
    grid = build_grid(shape)
    p = Parametrization(
        shape,
        {u: 1.0 for u in grid.states},
        {c: 1.0 for c in edge_classes(shape)},
    )
    with pytest.raises(UnsupportedConfigError, match="symmetric"):
        block_decompose(p)
    with pytest.raises(UnsupportedConfigError, match="symmetric"):
        k_step(p, 3)


def test_direction_operators_conjugate_to_the_model(rng):
    for dims, l in [((2, 2), 2), ((3, 2), 2), ((2, 2, 2), 2)]:
        shape = GridShape(dims, l, l)
        p = make_parametrization(shape, rng)
        model = build_model(p)
        b = p.alpha_vector
        for i in range(1, shape.q + 1):
            conj = b[:, None] * direction_operator(p, i) / b[None, :]
            assert np.abs(conj - directional_matrix(model, i)).max() <= 1e-12


def test_direction_operator_is_a_kronecker_factor(rng):
    p = make_parametrization(EXP_SHAPE, rng)
    u1, u2 = block_decompose(p)
    eye = np.eye(3)
    assert np.array_equal(direction_operator(p, 1), np.kron(u1, eye))
    assert np.array_equal(direction_operator(p, 2), np.kron(eye, u2))
    for i in (3, 1.5, True):
        with pytest.raises(DomainError, match="outside 1..2"):
            direction_operator(p, i)


def test_b_vector_follows_state_order(rng):
    p = make_parametrization(EXP_SHAPE, rng)
    b = p.alpha_vector
    states = build_grid(EXP_SHAPE).states
    assert b[0] == p.alpha[states[0]] and b[7] == p.alpha[states[7]]
    assert p.gamma_vector.tolist() == [p.gamma[c]
                                       for c in edge_classes(EXP_SHAPE)]
    flat = Parametrization(
        EXP_SHAPE, {u: 1.0 for u in states}, p.gamma
    )
    assert np.all(flat.alpha_vector == 1.0)
    # the weights are read-only: a change needs a new parametrization
    with pytest.raises(FrozenInstanceError):
        p.gamma = {}
    with pytest.raises(TypeError):
        p.alpha[states[0]] = -1.0
    with pytest.raises(TypeError):
        p.gamma[EdgeClass(1, 0, 1)] = float("nan")
    for vec in (p.alpha_vector, p.gamma_vector):
        with pytest.raises(ValueError, match="read-only"):
            vec[0] = -1.0


@pytest.mark.parametrize("n", [2, 5, 17, 50])
def test_eigensystem_contracts_on_random_symmetric_input(n, rng):
    x = rng.normal(size=(n, n))
    s = x + x.T
    es = symmetric_eigen(s)
    w, lam = es.vectors, es.values
    assert np.abs((w * lam) @ w.T - s).max() <= 1e-10
    assert np.abs(w.T @ w - np.eye(n)).max() <= 1e-10
    assert np.all(np.diff(lam) >= 0)
    for r in range(n):
        lead = np.flatnonzero(np.abs(w[:, r]) > 1e-8)
        assert w[lead[0], r] > 0


def test_eigensystem_of_the_complete_coupling_block():
    es = symmetric_eigen(np.ones((3, 3)) - np.eye(3))
    assert np.allclose(es.values, [-1.0, -1.0, 2.0], atol=1e-12)
    assert np.allclose(es.vectors[:, 2], np.full(3, 3 ** -0.5), atol=1e-12)


def test_eigensystem_of_the_single_swap_block():
    es = symmetric_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
    r = 2 ** -0.5
    assert np.allclose(es.values, [-1.0, 1.0], atol=1e-14)
    assert np.allclose(es.vectors, [[r, r], [-r, r]], atol=1e-14)


def test_eigensystem_rejects_bad_input():
    with pytest.raises(DomainError, match="square"):
        symmetric_eigen(np.zeros((2, 3)))
    for off in (0.5, np.nextafter(1.0, 2.0)):  # exact symmetry only
        with pytest.raises(DomainError, match="not symmetric"):
            symmetric_eigen(np.array([[0.0, 1.0], [off, 0.0]]))


def test_zero_steps_is_the_identity(rng):
    p = make_parametrization(EXP_SHAPE, rng)
    assert np.array_equal(k_step(p, 0), np.eye(9))
    assert np.array_equal(k_step(p, 0, 0.3), np.eye(9))


def test_one_step_is_the_model_matrix(rng):
    p = make_parametrization(EXP_SHAPE, rng)
    assert np.abs(k_step(p, 1) - full_matrix(build_model(p))).max() <= 1e-12


@pytest.mark.parametrize("dims,l", [((2, 2), 1), ((2, 2), 2), ((3, 2), 2),
                                    ((2, 2, 2), 2)])
@pytest.mark.parametrize("k", [2, 5, 10, 30])
def test_spectral_route_matches_repeated_multiplication(dims, l, k, rng):
    p = normalize_stochastic(make_parametrization(GridShape(dims, l, l), rng))
    direct = matrix_power(full_matrix(build_model(p)), k)
    assert np.abs(k_step(p, k) - direct).max() <= 1e-9


def test_raw_weights_also_agree_for_small_powers(rng):
    p = make_parametrization(GridShape((3, 3), 2, 2), rng)
    m = full_matrix(build_model(p))
    for k in (2, 3):
        scale = np.abs(m).max() ** k
        assert np.abs(k_step(p, k) - matrix_power(m, k)).max() <= 1e-12 * scale


def test_scalar_self_mass_shifts_the_spectrum(rng):
    a = 0.3
    p = normalize_stochastic(make_parametrization(EXP_SHAPE, rng), alpha_self=a)
    shifted = full_matrix(build_model(p)) + a * np.eye(9)
    for k in (1, 4, 12):
        direct = matrix_power(shifted, k)
        assert np.abs(k_step(p, k, a) - direct).max() <= 1e-10


def test_zero_self_mass_reduces_to_the_plain_route(rng):
    p = make_parametrization(EXP_SHAPE, rng)
    assert np.array_equal(k_step(p, 7, 0.0), k_step(p, 7))


def test_per_state_self_table_is_refused(rng):
    p = make_parametrization(EXP_SHAPE, rng)
    table = {u: 0.1 for u in build_grid(EXP_SHAPE).states}
    with pytest.raises(UnsupportedConfigError, match="does not commute"):
        k_step(p, 2, table)


def test_self_mass_range_is_checked(rng):
    p = make_parametrization(EXP_SHAPE, rng)
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(DomainError, match="outside"):
            k_step(p, 2, bad)
    with pytest.raises(DomainError, match="must be a real number"):
        k_step(p, 2, "0.5")


def test_step_counts_must_be_non_negative_integers(rng):
    p = make_parametrization(EXP_SHAPE, rng)
    for bad in (-1, 2.5, 2.0, True, float("nan"), float("inf"), "2", None):
        with pytest.raises(DomainError, match="non-negative integer"):
            k_step(p, bad)
        with pytest.raises(DomainError, match="non-negative integer"):
            matrix_power(np.eye(2), bad)
    for k in (np.int64(2), np.uint8(2)):
        assert np.array_equal(k_step(p, k), k_step(p, 2))
        assert np.array_equal(matrix_power(np.eye(2), k), np.eye(2))


def test_matrix_power_basics(rng):
    m = rng.uniform(size=(4, 4))
    assert np.array_equal(matrix_power(m, 0), np.eye(4))
    assert np.array_equal(matrix_power(m, 1), m)
    assert np.abs(matrix_power(m, 3) - m @ m @ m).max() <= 1e-14
