"""Perron pairs and stochastic rescaling."""

import numpy as np
import pytest

from gbdp import (
    GridShape,
    Parametrization,
    commutes_direct,
    edge_classes,
    empirical_kstep,
    build_grid,
    build_model,
    full_matrix,
    is_stochastic,
    normalize_stochastic,
    validate,
)
from gbdp.errors import DomainError, StructureError
from gbdp.param import EdgeClass
from gbdp.spectral import block_decompose
from oracles import _strongly_connected, direction_operator, perron
from conftest import EXP_SHAPE, make_parametrization


def test_perron_of_the_all_ones_matrix():
    rho, v = perron(np.ones((3, 3)))
    assert rho == pytest.approx(3.0, abs=1e-10)
    assert np.allclose(v, 1.0 / 3.0, atol=1e-10)


def test_perron_survives_a_two_cycle():
    rho, v = perron(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert rho == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(v, 0.5, atol=1e-10)


def test_perron_of_the_uniform_weight_grid():
    states = build_grid(EXP_SHAPE).states
    p = Parametrization(
        EXP_SHAPE,
        {u: 1.0 for u in states},
        {c: 1.0 for c in edge_classes(EXP_SHAPE)},
    )
    m = direction_operator(p, 1) + direction_operator(p, 2)
    rho, v = perron(m)
    assert rho == pytest.approx(4.0, abs=1e-10)
    assert np.allclose(v, 1.0 / 9.0, atol=1e-10)
    assert rho == pytest.approx(float(np.linalg.eigvalsh(m).max()), abs=1e-10)


def test_perron_residual_guarantee(rng):
    for _ in range(5):
        m = rng.uniform(0.1, 1.0, size=(8, 8))
        rho, v = perron(m)
        norm = float(np.abs(m).sum(axis=1).max())
        assert np.abs(m @ v - rho * v).max() <= 1e-10 * norm
        assert v.sum() == pytest.approx(1.0, abs=1e-12)
        assert v.min() > 0


def test_perron_input_checks():
    with pytest.raises(DomainError, match="square"):
        perron(np.ones((2, 3)))
    with pytest.raises(DomainError, match="negative"):
        perron(np.array([[1.0, -0.1], [0.2, 1.0]]))
    with pytest.raises(StructureError, match="no nonzero"):
        perron(np.zeros((3, 3)))
    with pytest.raises(StructureError, match="reducible"):
        perron(np.eye(3))
    with pytest.raises(StructureError, match="reducible"):
        perron(np.array([[1.0, 1.0], [0.0, 1.0]]))


# q = 1 stays out: with l = 1 an end state's single edge must round to
# exactly 1, which neither Perron route guarantees
NORMALIZE_SWEEP = [((2, 2), 2), ((3, 3), 1), ((3, 3), 2), ((2, 2, 2), 2),
                   ((4, 4), 2), ((9, 9), 2)]


def test_normalize_makes_every_row_sum_one(rng):
    for dims, l in NORMALIZE_SWEEP:
        shape = GridShape(dims, l, l)
        for _ in range(4):
            p = normalize_stochastic(make_parametrization(shape, rng))
            model = build_model(p)
            m = full_matrix(model)
            assert np.abs(m.sum(axis=1) - 1.0).max() <= 1e-10
            assert is_stochastic(m, tol=1e-10)
            assert validate(model) == []
            freq = empirical_kstep(model, (0,) * shape.q, 3, 50, seed=1)
            assert sum(freq.values()) == pytest.approx(1.0)


def test_normalize_agrees_with_the_dense_perron_oracle(rng):
    for dims, l in [((2, 2), 2), ((3, 3), 1), ((3, 3), 2), ((2, 2, 2), 2),
                    ((4, 4), 2), ((4, 4), 4)]:
        shape = GridShape(dims, l, l)
        p = make_parametrization(shape, rng)
        q = normalize_stochastic(p)
        rho, v = perron(sum(direction_operator(p, i)
                            for i in range(1, shape.q + 1)))
        for c in p.gamma:
            assert p.gamma[c] / q.gamma[c] == pytest.approx(rho, rel=1e-9)
        for k, u in enumerate(build_grid(shape).states):
            assert q.alpha[u] == pytest.approx(v[0] / v[k], rel=1e-9)


def test_normalize_preserves_commutation(rng):
    shape = GridShape((2, 2, 2), 2, 2)
    model = build_model(normalize_stochastic(make_parametrization(shape, rng)))
    for i, j in ((1, 2), (1, 3), (2, 3)):
        ok, residual = commutes_direct(model, i, j)
        assert ok and residual <= 1e-12


def test_normalize_gauges_the_origin_to_one(rng):
    p = normalize_stochastic(make_parametrization(EXP_SHAPE, rng))
    assert p.alpha[(0, 0)] == 1.0


def test_normalize_scales_every_class_by_the_same_factor(rng):
    p = make_parametrization(EXP_SHAPE, rng)
    q = normalize_stochastic(p)
    ratios = [q.gamma[c] / p.gamma[c] for c in p.gamma]
    assert max(ratios) - min(ratios) <= 1e-15 * max(ratios)


def test_self_mass_shrinks_the_scale_by_its_complement(rng):
    p = make_parametrization(EXP_SHAPE, rng)
    full = normalize_stochastic(p, alpha_self=0.0)
    half = normalize_stochastic(p, alpha_self=0.5)
    for c in p.gamma:
        assert half.gamma[c] == 0.5 * full.gamma[c]
    m = full_matrix(build_model(half))
    assert np.abs(m.sum(axis=1) - 0.5).max() <= 1e-10
    assert is_stochastic(m + 0.5 * np.eye(9), tol=1e-10)


def test_normalize_checks_the_self_mass_range(rng):
    p = make_parametrization(EXP_SHAPE, rng)
    for bad in (-0.2, 1.0):
        with pytest.raises(DomainError, match="outside"):
            normalize_stochastic(p, alpha_self=bad)


def test_normalize_rejects_a_disconnected_weight_pattern(rng):
    p = make_parametrization(GridShape((2,), 1, 1), rng)
    p = Parametrization(p.shape, p.alpha, {**p.gamma, EdgeClass(1, 1, 1): 0.0})
    with pytest.raises(StructureError, match="reducible"):
        normalize_stochastic(p)
    p = make_parametrization(GridShape((2, 2), 1, 1), rng)
    p = Parametrization(p.shape, p.alpha, {**p.gamma, EdgeClass(2, 1, 1): 0.0})
    with pytest.raises(StructureError, match="reducible"):
        normalize_stochastic(p)
    # on (3,) l=2 the edges 0-2 and 1-3 cross every cut between neighbours
    # yet leave {0, 2} and {1, 3} apart; with only 1-2 at 0, the edges
    # 0-1, 2-3, 0-2 and 1-3 form the cycle 0-1-3-2-0
    p = make_parametrization(GridShape((3,), 2, 2), rng)
    units = [EdgeClass(1, r, 1) for r in range(3)]
    cut = Parametrization(p.shape, p.alpha,
                          {**p.gamma, **dict.fromkeys(units, 0.0)})
    with pytest.raises(StructureError, match="reducible"):
        normalize_stochastic(cut)
    cycle = Parametrization(p.shape, p.alpha, {**p.gamma, units[1]: 0.0})
    assert normalize_stochastic(cycle).shape == p.shape
    # random zero patterns: refused exactly when the oracle's search finds
    # a disconnected block
    seen = set()
    for _ in range(200):
        q = int(rng.integers(1, 3))
        dims = tuple(int(n) for n in rng.integers(1, 7, size=q))
        l = int(rng.integers(1, min(3, *dims) + 1))
        p = make_parametrization(GridShape(dims, l, l), rng)
        zero = rng.uniform(size=len(p.gamma)) < rng.uniform(0.1, 0.6)
        p = Parametrization(p.shape, p.alpha, {
            c: 0.0 if z else g for (c, g), z in zip(p.gamma.items(), zero)})
        connected = all(map(_strongly_connected, block_decompose(p)))
        seen.add(connected)
        if connected:
            normalize_stochastic(p)
        else:
            with pytest.raises(StructureError, match="reducible"):
                normalize_stochastic(p)
    assert seen == {True, False}


def test_is_stochastic_cases():
    assert is_stochastic(np.eye(4))
    assert is_stochastic(np.full((3, 3), 1.0 / 3.0))
    assert not is_stochastic(0.9 * np.eye(4))
    assert is_stochastic(np.array([[0.5, 0.5 + 5e-13], [0.0, 1.0]]))
    with pytest.raises(DomainError, match="negative"):
        is_stochastic(np.array([[1.1, -0.1], [0.0, 1.0]]))
