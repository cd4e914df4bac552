"""Monte Carlo sampling against exact transition rows."""

import warnings

import numpy as np
import pytest

import sampler_oracle
from gbdp import (
    GridShape,
    Parametrization,
    TransitionModel,
    build_grid,
    build_model,
    empirical_kstep,
    full_matrix,
    matrix_power,
    normalize_stochastic,
    row_mass,
    validate,
)
from gbdp.errors import DomainError
from gbdp.lattice import grid_states
from gbdp.simulate import CHUNK, cdf_table, philox_uniforms, step
from conftest import EXP_SHAPE, make_parametrization


CHAIN = TransitionModel(
    GridShape((2,), 1, 1),
    {((1,), (0,)): 0.3, ((1,), (2,)): 0.2,
     ((0,), (1,)): 0.5, ((2,), (1,)): 0.5},
    self_prob=0.5,
)


def draw(model, u, r):
    """One transition from u on the uniform draw r, through the sampler's
    own table and step; returns the next state, or None if absorbed."""
    states = grid_states(model.shape)
    bounds, targets = cdf_table(model)
    (v,) = step(bounds, targets, np.array([states.index(u)]), np.array([r]))
    return states[v] if v < len(states) else None


def test_step_picks_by_cumulative_interval():
    assert draw(CHAIN, (1,), 0.0) == (0,)
    assert draw(CHAIN, (1,), 0.29) == (0,)
    assert draw(CHAIN, (1,), 0.3) == (2,)
    assert draw(CHAIN, (1,), 0.35) == (2,)
    assert draw(CHAIN, (1,), 0.5) == (1,)
    assert draw(CHAIN, (1,), 0.999) == (1,)


def test_step_sends_missing_mass_to_the_sink():
    model = TransitionModel(
        GridShape((1,), 1, 1), {((0,), (1,)): 0.5}, absorbing=True
    )
    assert draw(model, (0,), 0.2) == (1,)
    assert draw(model, (0,), 0.7) is None
    assert draw(model, (1,), 0.1) is None


def test_the_sampler_never_takes_a_key_that_is_not_an_edge():
    # (1,1) -> (0,0) is diagonal: validate rejects it and row_mass ignores
    # it, so the sampler must ignore it too
    probs = {((1, 1), (1, 0)): 0.5, ((1, 1), (0, 1)): 0.5,
             ((1, 1), (0, 0)): 0.5}
    for u, vs in (((0, 0), [(1, 0), (0, 1)]), ((1, 0), [(0, 0), (1, 1)]),
                  ((0, 1), [(0, 0), (1, 1)])):
        probs.update({(u, v): 0.5 for v in vs})
    model = TransitionModel(GridShape((1, 1), 1, 1), probs)
    assert validate(model) == [
        "edge (1, 1)->(0, 0) exits grid or is not a legal jump"
    ]
    assert row_mass(model).tolist() == [1.0] * 4
    freq = empirical_kstep(model, (1, 1), 1, 10000, seed=1)
    assert set(freq) == {(1, 0), (0, 1)}
    assert abs(freq[(1, 0)] - 0.5) <= 0.02


def test_zero_steps_is_a_point_mass():
    assert empirical_kstep(CHAIN, (1,), 0, 50, seed=3) == {(1,): 1.0}


def test_runs_are_reproducible_and_seed_sensitive():
    a = empirical_kstep(CHAIN, (0,), 4, 2000, seed=11)
    b = empirical_kstep(CHAIN, (0,), 4, 2000, seed=11)
    c = empirical_kstep(CHAIN, (0,), 4, 2000, seed=12)
    assert a == b == empirical_kstep(CHAIN, (0.0,), 4, 2000, seed=11)
    assert a != c
    assert empirical_kstep(CHAIN, [0], 4, 2000, np.int64(11)) == a
    assert sum(a.values()) == pytest.approx(1.0, abs=1e-12)


def test_one_step_frequencies_match_the_transition_row(rng):
    p = normalize_stochastic(make_parametrization(EXP_SHAPE, rng))
    model = build_model(p)
    trials = 100000
    freq = empirical_kstep(model, (0, 0), 1, trials, seed=20230817)
    for v in build_grid(EXP_SHAPE).states:
        prob = model.p((0, 0), v)
        sigma = (prob * (1.0 - prob) / trials) ** 0.5
        assert abs(freq.get(v, 0.0) - prob) <= 4.0 * sigma + 1e-9


def test_total_variation_shrinks_with_more_trials(rng):
    p = normalize_stochastic(make_parametrization(EXP_SHAPE, rng))
    model = build_model(p)
    grid = build_grid(EXP_SHAPE)
    exact = matrix_power(full_matrix(model), 5)[grid.index_of((1, 1))]

    def tv(trials):
        freq = empirical_kstep(model, (1, 1), 5, trials, seed=99)
        return 0.5 * sum(
            abs(freq.get(v, 0.0) - exact[k])
            for k, v in enumerate(grid.states)
        )

    small, big = tv(1000), tv(100000)
    assert big <= 0.02
    assert big <= small + 0.01


def test_absorbed_trajectories_tally_under_none():
    model = TransitionModel(
        GridShape((1,), 1, 1), {((0,), (1,)): 0.5}, absorbing=True
    )
    assert empirical_kstep(model, (0,), 3, 400, seed=5) == {None: 1.0}
    one = empirical_kstep(model, (0,), 1, 4000, seed=5)
    assert set(one) == {(1,), None}
    assert abs(one[(1,)] - 0.5) <= 0.03


def test_sampling_guards():
    lossy = TransitionModel(GridShape((1,), 1, 1), {((0,), (1,)): 0.5})
    with pytest.raises(DomainError, match="cannot sample"):
        empirical_kstep(lossy, (0,), 1, 10, seed=0)
    heavy = TransitionModel(
        GridShape((1,), 1, 1),
        {((0,), (1,)): 0.9, ((1,), (0,)): 0.9},
        self_prob=0.2,
    )
    with pytest.raises(DomainError, match="exceeds 1"):
        empirical_kstep(heavy, (0,), 1, 10, seed=0)
    # each row sums to 1, so only the entry checks can refuse these
    shape, nan = GridShape((2,), 2, 2), float("nan")
    rows = {((0,), (1,)): 0.6, ((0,), (2,)): 0.4, ((1,), (0,)): 0.5,
            ((1,), (2,)): 0.5, ((2,), (0,)): 0.3, ((2,), (1,)): 0.7}
    for edit, self_prob, message in (
            ({((0,), (1,)): 1.2, ((0,), (2,)): -0.2}, None,
             r"probability 1.2 on edge \(0,\)->\(1,\) outside \[0, 1\]"),
            ({((0,), (1,)): nan}, None, "probability nan on edge"),
            ({}, {(0,): nan}, r"row mass nan at \(0,\) is not finite"),
            ({((0,), (1,)): 0.8}, {(0,): -0.2},
             r"self mass -0.2 at \(0,\) outside \[0, 1\]")):
        model = TransitionModel(shape, {**rows, **edit}, self_prob)
        with pytest.raises(DomainError, match="cannot sample: " + message):
            empirical_kstep(model, (0,), 1, 10, seed=0)
    with pytest.raises(DomainError, match="trials must be positive"):
        empirical_kstep(CHAIN, (0,), 1, 0, seed=0)
    for trials in (2.5, 3.0, True, "10", None):
        with pytest.raises(DomainError, match="trials must be an integer"):
            empirical_kstep(CHAIN, (0,), 1, trials, seed=0)
    with pytest.raises(DomainError, match="non-negative integer"):
        empirical_kstep(CHAIN, (0,), -1, 10, seed=0)
    with pytest.raises(DomainError, match="non-negative integer"):
        empirical_kstep(CHAIN, (0,), 1.5, 10, seed=0)
    for seed in (1.5, 5.0, True, "5", None):
        with pytest.raises(DomainError, match="seed must be an integer"):
            empirical_kstep(CHAIN, (0,), 1, 10, seed=seed)
    for start in ((9,), (0.5,), (0, 0), ("0",), (True,), 5):
        with pytest.raises(DomainError, match="not on the grid"):
            empirical_kstep(CHAIN, start, 1, 10, seed=0)


@pytest.mark.parametrize("seed", [0, 7, 2 ** 53 + 1, 2 ** 63 - 1, 2 ** 64 - 1])
@pytest.mark.parametrize("k", [1, 4, 5, 9])
def test_uniforms_are_numpy_philox_streams_bit_for_bit(seed, k):
    first, count = CHUNK - 3, 6  # both sides of a chunk boundary
    got = np.concatenate(
        [philox_uniforms(seed, first, count, b) for b in range(-(-k // 4))],
        axis=1,
    )[:, :k]
    for i in range(count):
        key = np.array([seed % 2 ** 64, first + i], dtype=np.uint64)
        want = np.random.Generator(np.random.Philox(key=key)).random(k)
        assert got[i].tobytes() == want.tobytes()


def oracle_models(shape):
    """A stochastic and an absorbing model, both with self mass."""
    rng = np.random.default_rng(list(shape.dims) + [shape.l1])
    pn = normalize_stochastic(make_parametrization(shape, rng))

    def scaled(keep):
        return Parametrization(
            shape, pn.alpha, {c: keep * g for c, g in pn.gamma.items()})

    return (build_model(scaled(0.7), self_prob=0.3),
            build_model(scaled(0.7), self_prob=0.2, absorbing=True))


@pytest.mark.parametrize("shape, u0", [
    (GridShape((2, 2), 2, 2), (1, 1)),
    (GridShape((4, 4, 4), 2, 2), (2, 2, 2)),
    (GridShape((9, 9), 4, 4), (4, 4)),
])
def test_sampler_equals_the_per_trajectory_oracle(shape, u0):
    trials = CHUNK + 37
    for model in oracle_models(shape):
        assert empirical_kstep(model, u0, 5, trials, seed=42) == (
            sampler_oracle.empirical_kstep(model, u0, 5, trials, seed=42))


def test_every_integer_seed_keys_its_own_stream():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runs = {seed: empirical_kstep(CHAIN, (0,), 4, 2000, seed=seed)
                for seed in (-1, -2, 2 ** 63 + 5, 2 ** 63 + 6)}
    assert runs[-1] != runs[-2]
    assert runs[2 ** 63 + 5] != runs[2 ** 63 + 6]
    # -1 and 2**64 - 1 are the same key, whatever the integer type
    for same in (2 ** 64 - 1, np.int64(-1), np.uint64(2 ** 64 - 1)):
        assert runs[-1] == empirical_kstep(CHAIN, (0,), 4, 2000, seed=same)
    for seed in (-2, 2 ** 63 + 6):
        assert runs[seed] == sampler_oracle.empirical_kstep(
            CHAIN, (0,), 4, 2000, seed)
