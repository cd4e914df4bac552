"""Parametrization: class labels, model building, recovery."""

import numpy as np
import pytest

from gbdp import (
    GridShape,
    Parametrization,
    TransitionModel,
    build_model,
    commutes_direct,
    edge_classes,
    recover_params,
)
from gbdp.errors import (
    ConsistencyError,
    DomainError,
    PositivityError,
    UnsupportedConfigError,
)
from gbdp.lattice import build_grid, directed_edges, edge_columns, edge_table
from gbdp.param import EdgeClass
from conftest import (
    EXP_SHAPE,
    class_of,
    make_commuting_model,
    make_parametrization,
    path_beta,
    random_monotone_path,
)


def test_class_of_a_distance_two_horizontal_edge():
    col = edge_columns(EXP_SHAPE, [((0, 1), (2, 1))])[0]
    cls = edge_classes(EXP_SHAPE)[edge_table(EXP_SHAPE).cls[col]]
    assert cls == class_of((0, 1), (2, 1)) == EdgeClass(1, 0, 2)


def test_class_is_symmetric_in_the_endpoints():
    t = edge_table(EXP_SHAPE)
    assert (t.reverse >= 0).all()
    assert np.array_equal(t.cls[t.reverse], t.cls)


def test_direction_one_class_count_on_the_three_by_three_grid():
    shape = GridShape((3, 3), 2, 2)
    assert sum(c.direction == 1 for c in edge_classes(shape)) == 5


def test_every_edge_maps_to_a_listed_class():
    for shape in (EXP_SHAPE, GridShape((3, 2, 2), 2, 2)):
        listed = set(edge_classes(shape))
        for e in directed_edges(shape):
            assert class_of(e.u, e.v) in listed


def test_edge_class_count():
    # (edge classes, vertices): one gamma per class and one alpha per state
    for shape, counts in ((EXP_SHAPE, (6, 9)),
                          (GridShape((5,), 1, 1), (5, 6)),
                          (GridShape((3, 4, 2), 2, 2), (15, 60))):
        assert (len(edge_classes(shape)), shape.n_states) == counts


def test_constant_parameters_give_a_constant_commuting_model():
    alpha = {u: 1.0 for u in build_grid(EXP_SHAPE).states}
    gamma = {c: 0.21 for c in edge_classes(EXP_SHAPE)}
    model = build_model(Parametrization(EXP_SHAPE, alpha, gamma))
    assert set(model.probs.values()) == {0.21}
    ok, _ = commutes_direct(model, 1, 2)
    assert ok


def test_build_model_applies_the_vertex_and_class_weights(rng):
    p = make_parametrization(EXP_SHAPE, rng)
    model = build_model(p)
    first = p.alpha[(0, 0)] * p.gamma[EdgeClass(1, 0, 1)] / p.alpha[(1, 0)]
    assert model.p((0, 0), (1, 0)) == first
    up_two = p.alpha[(2, 0)] * p.gamma[EdgeClass(2, 0, 2)] / p.alpha[(2, 2)]
    assert model.p((2, 0), (2, 2)) == up_two


def test_three_directions_commute_pairwise(rng):
    model = make_commuting_model(GridShape((2, 2, 2), 2, 2), rng)
    for i, j in ((1, 2), (1, 3), (2, 3)):
        ok, residual = commutes_direct(model, i, j)
        assert ok and residual <= 1e-12


def test_zero_gamma_class_drops_its_edges(rng):
    p = make_parametrization(EXP_SHAPE, rng)
    p = Parametrization(p.shape, p.alpha, {**p.gamma, EdgeClass(1, 0, 2): 0.0})
    model = build_model(p)
    assert model.p((0, 0), (2, 0)) == 0.0
    assert model.p((2, 1), (0, 1)) == 0.0
    assert model.p((0, 0), (1, 0)) > 0.0


def test_symmetric_model_recovers_trivial_weights():
    shape = GridShape((2, 2), 1, 1)
    rng = np.random.default_rng(7)
    by_class = {c: float(rng.uniform(0.1, 0.3)) for c in edge_classes(shape)}
    probs = {
        (e.u, e.v): by_class[class_of(e.u, e.v)]
        for e in directed_edges(shape)
    }
    model = TransitionModel(shape, probs, absorbing=True)
    p = recover_params(model)
    assert all(a == 1.0 for a in p.alpha.values())
    for cls, val in by_class.items():
        assert p.gamma[cls] == pytest.approx(val, abs=1e-14)


def test_one_dimensional_measure_follows_the_ratio_products():
    shape = GridShape((2,), 1, 1)
    model = TransitionModel(shape, {
        ((0,), (1,)): 0.5, ((1,), (0,)): 0.3,
        ((1,), (2,)): 0.7, ((2,), (1,)): 0.4,
    }, absorbing=True)
    p = recover_params(model)
    beta1 = 0.5 / 0.3
    beta2 = beta1 * 0.7 / 0.4
    assert p.alpha[(0,)] == 1.0
    assert p.alpha[(1,)] == pytest.approx(beta1 ** -0.5, rel=1e-14)
    assert p.alpha[(2,)] == pytest.approx(beta2 ** -0.5, rel=1e-14)


@pytest.mark.parametrize("dims,l", [((2, 2), 2), ((3, 3), 2), ((2, 2, 2), 2),
                                    ((4, 2), 2), ((3, 3), 3)])
def test_round_trip_reproduces_the_model(dims, l, rng):
    model = make_commuting_model(GridShape(dims, l, l), rng)
    rebuilt = build_model(recover_params(model))
    assert set(rebuilt.probs) == set(model.probs)
    worst = max(
        abs(rebuilt.probs[e] - model.probs[e]) for e in model.probs
    )
    assert worst <= 1e-10


def test_recovered_weights_match_originals_up_to_the_origin_gauge(rng):
    p = make_parametrization(EXP_SHAPE, rng)
    q = recover_params(build_model(p))
    scale = p.alpha[(0, 0)]
    for u, a in q.alpha.items():
        assert a == pytest.approx(p.alpha[u] / scale, rel=1e-9)
    for c, g in q.gamma.items():
        assert g == pytest.approx(p.gamma[c], rel=1e-9)


def test_gauge_freedom_in_the_vertex_weights(rng):
    p = make_parametrization(EXP_SHAPE, rng)
    base = build_model(p).probs
    doubled = Parametrization(
        EXP_SHAPE, {u: 2.0 * a for u, a in p.alpha.items()}, p.gamma
    )
    assert build_model(doubled).probs == base
    generic = Parametrization(
        EXP_SHAPE, {u: 1.7 * a for u, a in p.alpha.items()}, p.gamma
    )
    for e, v in build_model(generic).probs.items():
        assert v == pytest.approx(base[e], rel=5e-15)


def test_beta_path_independence_on_commuting_models(rng):
    for dims, l in [((2, 2), 2), ((3, 2), 2), ((2, 2, 2), 2)]:
        shape = GridShape(dims, l, l)
        model = make_commuting_model(shape, rng)
        states = build_grid(shape).states
        for _ in range(10):
            u = states[int(rng.integers(1, len(states)))]
            b1 = path_beta(model, random_monotone_path(u, rng))
            b2 = path_beta(model, random_monotone_path(u, rng))
            assert abs(b1 - b2) <= 1e-10 * max(1.0, b1)


def test_translation_invariance_of_recovered_class_weights(rng):
    model = make_commuting_model(GridShape((3, 2), 2, 2), rng)
    p = recover_params(model)
    for e in directed_edges(model.shape):
        if e.step < 0:
            continue
        cls = class_of(e.u, e.v)
        val = model.p(e.u, e.v) * p.alpha[e.v] / p.alpha[e.u]
        assert val == pytest.approx(p.gamma[cls], rel=1e-10)


def test_recovery_refuses_unequal_jump_bounds(rng):
    shape = GridShape((2, 2), 2, 1)
    probs = {(e.u, e.v): 0.1 for e in directed_edges(shape)}
    model = TransitionModel(shape, probs, absorbing=True)
    with pytest.raises(UnsupportedConfigError, match="equal jump bounds"):
        recover_params(model)


def test_recovery_requires_positive_probabilities(rng):
    model = make_commuting_model(EXP_SHAPE, rng)
    probs = dict(model.probs)
    del probs[((0, 0), (1, 0))]
    with pytest.raises(PositivityError, match="strictly positive"):
        recover_params(TransitionModel(EXP_SHAPE, probs))


def test_recovery_rejects_non_commuting_models(rng):
    model = make_commuting_model(EXP_SHAPE, rng)
    probs = dict(model.probs)
    probs[((0, 0), (1, 0))] *= 1.5
    with pytest.raises(ConsistencyError, match="does not commute"):
        recover_params(TransitionModel(EXP_SHAPE, probs))


def test_biased_cycle_has_no_balancing_measure():
    shape = GridShape((1, 1), 1, 1)
    cw = [((0, 0), (1, 0)), ((1, 0), (1, 1)), ((1, 1), (0, 1)),
          ((0, 1), (0, 0))]
    probs = {}
    for u, v in cw:
        probs[(u, v)] = 0.4
        probs[(v, u)] = 0.2
    model = TransitionModel(shape, probs, absorbing=True)
    with pytest.raises(ConsistencyError):
        recover_params(model)


def test_parametrization_refuses_non_finite_weights():
    alpha = {u: 1.0 for u in build_grid(EXP_SHAPE).states}
    gamma = {c: 1.0 for c in edge_classes(EXP_SHAPE)}
    for x in (float("nan"), float("inf")):
        with pytest.raises(PositivityError, match="strictly positive and "
                                                  "finite"):
            Parametrization(EXP_SHAPE, {**alpha, (1, 1): x}, gamma)
        with pytest.raises(PositivityError, match="non-negative and finite"):
            Parametrization(EXP_SHAPE, alpha,
                            {**gamma, EdgeClass(2, 0, 2): x})


def test_parametrization_container_validates_its_tables():
    grid_states = build_grid(EXP_SHAPE).states
    alpha = {u: 1.0 for u in grid_states}
    gamma = {c: 1.0 for c in edge_classes(EXP_SHAPE)}
    with pytest.raises(PositivityError, match="strictly positive"):
        Parametrization(EXP_SHAPE, {**alpha, (0, 0): 0.0}, gamma)
    with pytest.raises(DomainError, match="missing entry"):
        Parametrization(EXP_SHAPE, {u: 1.0 for u in grid_states[1:]}, gamma)
    with pytest.raises(DomainError, match="one entry per edge class"):
        short = dict(gamma)
        del short[EdgeClass(1, 0, 1)]
        Parametrization(EXP_SHAPE, alpha, short)
    with pytest.raises(PositivityError, match="non-negative"):
        Parametrization(
            EXP_SHAPE, alpha, {**gamma, EdgeClass(1, 0, 1): -0.5}
        )


LINE = GridShape((2,), 1, 1)


@pytest.mark.parametrize("alpha, gamma, message", [
    ({}, {(1, 0): 1.0}, r"gamma key \(1, 0\) is not an edge class"),
    ({}, {(1, 0, 1, 2): 1.0}, r"gamma key \(1, 0, 1, 2\) is not an edge"),
    ({}, {"1,0,1": 1.0}, "gamma key '1,0,1' is not an edge class"),
    ({(1,): "x"}, {}, r"alpha at \(1,\) must be a real number \(got 'x'\)"),
    ({(1,): None}, {}, r"alpha at \(1,\) must be a real number \(got None\)"),
    ({(1,): 10 ** 400}, {}, r"alpha at \(1,\) must be a real number"),
    ({(1,): "2"}, {}, r"alpha at \(1,\) must be a real number \(got '2'\)"),
    ({}, {(1, 0, 1): "0.5"}, r"gamma at EdgeClass\(direction=1, offset=0, "
     r"step=1\) must be a real number \(got '0.5'\)"),
    ({(1,): True}, {}, r"alpha at \(1,\) must be a real number \(got True\)"),
    ({}, {(1, 1, 1): False}, r"gamma at .* must be a real number \(got "
     r"False\)"),
], ids=["short-key", "long-key", "string-key", "string-alpha", "none-alpha",
        "huge-alpha", "numeric-string-alpha", "numeric-string-gamma",
        "bool-alpha", "bool-gamma"])
def test_parametrization_names_a_malformed_key_or_weight(alpha, gamma,
                                                         message):
    full_alpha = {u: 1.0 for u in build_grid(LINE).states}
    full_gamma = {c: 1.0 for c in edge_classes(LINE)}
    with pytest.raises(DomainError, match=message):
        Parametrization(LINE, {**full_alpha, **alpha}, {**full_gamma, **gamma})


def test_parametrization_takes_numpy_scalars_as_floats():
    alpha = {u: np.float64(1.5) for u in build_grid(LINE).states}
    gamma = {c: np.int64(2) for c in edge_classes(LINE)}
    p = Parametrization(LINE, alpha, gamma)
    assert {type(w) for w in [*p.alpha.values(), *p.gamma.values()]} == {float}
    assert set(p.alpha.values()) == {1.5} and set(p.gamma.values()) == {2.0}
