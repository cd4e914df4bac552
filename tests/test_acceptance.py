"""Acceptance gate: end-to-end checks with fixed tolerances and time budgets.

Each check prints exactly one PASS/FAIL line (bypassing capture) so the
verdicts are visible in any run.  Expected values and tolerances are stated
inline; a check fails loudly rather than adapting to what the code produces.
"""

import itertools
import time

import numpy as np

from gbdp import (
    GridShape,
    Parametrization,
    build_grid,
    build_model,
    build_Q,
    build_R,
    commutes_direct,
    edge_classes,
    empirical_kstep,
    full_matrix,
    integer_rank,
    k_step,
    matrix_power,
    normalize_stochastic,
    rank_formula_Q,
    rank_formula_R,
    recover_params,
    TransitionModel,
)
from gbdp.errors import UnsupportedConfigError
from gbdp.lattice import directed_edges
import oracles
from oracles import direction_operator, perron
from conftest import (
    EXP_SHAPE,
    line_cycle_count,
    line_cycle_kernel,
    make_commuting_model,
    make_parametrization,
    path_beta,
    random_monotone_path,
)


def report(capsys, num, label, ok, elapsed, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    line = "acceptance %2d: %s: %s (%.2fs, budget %gs)%s" % (
        num, label, status, elapsed, budget,
        " " + detail if detail else "",
    )
    with capsys.disabled():
        print(line)
    assert ok, line


def test_01_reference_orders(capsys):
    t0 = time.perf_counter()
    q = build_Q(EXP_SHAPE)
    r = build_R(EXP_SHAPE)
    got = ((q.rows, q.cols), (r.rows, r.cols))
    elapsed = time.perf_counter() - t0
    ok = got == ((36, 36), (15, 36)) and elapsed < 1.0
    report(capsys, 1, "constraint and parameter orders 36x36 / 15x36",
           ok, elapsed, 1.0, "got %s" % (got,) if not ok else "")


def test_02_reference_exact_ranks(capsys):
    # The paper's closed form counts 22 constraints on the reference shape.
    # Exact elimination gives 20: the 2 line cycles of jump size 2 (one per
    # axis) are kernel directions of Q outside the row space of R, so
    # rank Q <= 36 - rank [R; Z] = 20, and the elimination attains it.
    t0 = time.perf_counter()
    q = build_Q(EXP_SHAPE)
    r = build_R(EXP_SHAPE)
    z = line_cycle_kernel(EXP_SHAPE, q.col_labels)
    rank_r = integer_rank(r)
    rank_q = integer_rank(q)
    rank_rz = integer_rank(np.vstack([r.entries, z]))
    closed = rank_formula_Q(EXP_SHAPE)
    cycles = line_cycle_count(EXP_SHAPE)
    kernel_ok = len(z) == 2 and not (q.entries @ z.T).any()
    elapsed = time.perf_counter() - t0
    ok = (
        (rank_r, rank_q, closed, cycles) == (14, 20, 22, 2)
        and kernel_ok
        and rank_rz == 16
        and elapsed < 5.0
    )
    report(capsys, 2,
           "exact ranks R=14 and Q=20 (paper's closed form 22 minus "
           "2 line cycles) on the reference shape",
           ok, elapsed, 5.0,
           "got R=%d Q=%d, closed form %d, %d line cycles, "
           "QZ^T=0 with |Z|=%d: %s, rank [R; Z]=%d"
           % (rank_r, rank_q, closed, cycles, len(z), kernel_ok, rank_rz))


def test_03_orthocomplement_sweep(capsys):
    # Q is the exact orthogonal complement of [R; Z], Z the line-cycle
    # kernel rows; for unit jumps Z is empty and this is rank Q + rank R.
    t0 = time.perf_counter()
    shapes = [
        GridShape(dims, l, l)
        for q in (2, 3)
        for dims in itertools.product((2, 3, 4), repeat=q)
        for l in (1, 2)
    ]
    bad = []
    for shape in shapes:
        qm = build_Q(shape)
        rm = build_R(shape)
        z = line_cycle_kernel(shape, qm.col_labels)
        rank_rz = integer_rank(np.vstack([rm.entries, z]))
        if (qm.entries @ rm.entries.T).any() or (qm.entries @ z.T).any():
            bad.append((shape, "product"))
        elif len(z) != line_cycle_count(shape):
            bad.append((shape, "kernel count"))
        elif rank_rz != integer_rank(rm) + len(z):
            bad.append((shape, "Z dependent"))
        elif integer_rank(qm) + rank_rz != qm.cols:
            bad.append((shape, "rank sum"))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 120.0
    report(capsys, 3,
           "QR^T=0, QZ^T=0 and rank Q + rank [R; Z] = cols "
           "over the 72-shape sweep",
           ok, elapsed, 120.0,
           "failed on %d/%d shapes: %s" % (
               len(bad), len(shapes),
               ", ".join("%s l=%d %s" % (s.dims, s.l1, why)
                         for s, why in bad))
           if bad else "")


def test_04_unit_jump_rank_formulas(capsys):
    t0 = time.perf_counter()
    shapes = [(2, 2), (3, 3), (2, 3), (4, 4), (3, 2), (4, 2),
              (2, 2, 2), (3, 3, 3), (2, 3, 4), (5,)]
    bad = []
    for dims in shapes:
        shape = GridShape(dims, 1, 1)
        if integer_rank(build_R(shape)) != rank_formula_R(shape):
            bad.append((dims, "R"))
        if integer_rank(build_Q(shape)) != rank_formula_Q(shape):
            bad.append((dims, "Q"))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 30.0
    report(capsys, 4, "closed-form ranks exact on 10 unit-jump shapes",
           ok, elapsed, 30.0, "mismatches: %s" % bad if bad else "")


def _pairs(shape):
    return [(i, j) for i in range(1, shape.q + 1)
            for j in range(i + 1, shape.q + 1)]


def _both_routes_commute(model, tol=1e-12):
    """commutes_direct and the dense commutator both pass every pair."""
    return all(commutes_direct(model, i, j, tol)[0]
               and oracles.commutes_direct(model, i, j, tol)[0]
               for i, j in _pairs(model.shape))


def test_05_commutation_equivalence(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(51)
    shapes = [
        GridShape((2, 2), 2, 2), GridShape((3, 3), 2, 2),
        GridShape((4, 4), 2, 2), GridShape((5, 5), 2, 2),
        GridShape((2, 2, 2), 2, 2), GridShape((3, 3, 3), 2, 2),
        GridShape((4, 4, 4), 1, 1), GridShape((9, 9), 2, 2),
    ]
    checked = 0
    failures = []
    for n in range(104):
        shape = shapes[n % len(shapes)]
        model = make_commuting_model(shape, rng)
        if not _both_routes_commute(model):
            failures.append((n, "clean model flagged"))
            continue
        probs = dict(model.probs)
        edge = list(probs)[int(rng.integers(len(probs)))]
        probs[edge] *= 0.5
        broken = TransitionModel(shape, probs)
        direct_bad = not all(
            commutes_direct(broken, i, j)[0] for i, j in _pairs(shape)
        )
        dense_bad = not all(
            oracles.commutes_direct(broken, i, j, 1e-12)[0]
            for i, j in _pairs(shape)
        )
        if not (direct_bad and dense_bad):
            failures.append((n, "perturbation missed"))
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = not failures and checked >= 100 and elapsed < 60.0
    report(capsys, 5, "both commutation routes agree on %d models" % checked,
           ok, elapsed, 60.0, "failures: %s" % failures[:3] if failures else "")


def test_06_spectral_kstep(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(61)
    worst = 0.0
    for _ in range(20):
        base = make_parametrization(EXP_SHAPE, rng)
        p = normalize_stochastic(base)
        m = full_matrix(build_model(p))
        for k in (0, 1, 2, 5, 10, 30):
            worst = max(worst, float(np.abs(
                k_step(p, k) - matrix_power(m, k)
            ).max()))
        for a in (0.1, 0.5):
            pa = normalize_stochastic(base, alpha_self=a)
            ma = full_matrix(build_model(pa)) + a * np.eye(9)
            for k in (0, 1, 2, 5, 10, 30):
                worst = max(worst, float(np.abs(
                    k_step(pa, k, a) - matrix_power(ma, k)
                ).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 30.0
    report(capsys, 6, "spectral k-step matches matrix powers on 20 models",
           ok, elapsed, 30.0, "max deviation %.2e" % worst)


ROUND_TRIP_SHAPES = [
    GridShape((2, 2), 2, 2), GridShape((3, 3), 2, 2),
    GridShape((3, 2), 2, 2), GridShape((2, 2, 2), 2, 2),
    GridShape((2, 2), 1, 1),
]


def _round_trip_models():
    rng = np.random.default_rng(71)
    for n in range(50):
        shape = ROUND_TRIP_SHAPES[n % len(ROUND_TRIP_SHAPES)]
        yield make_commuting_model(shape, rng), rng


def test_07_parametrization_round_trip(capsys):
    t0 = time.perf_counter()
    worst_entry = 0.0
    worst_path = 0.0
    for model, rng in _round_trip_models():
        rebuilt = build_model(recover_params(model))
        worst_entry = max(worst_entry, max(
            abs(rebuilt.probs[e] - p) for e, p in model.probs.items()
        ))
        states = build_grid(model.shape).states
        for _ in range(10):
            u = states[int(rng.integers(1, len(states)))]
            b1 = path_beta(model, random_monotone_path(u, rng))
            b2 = path_beta(model, random_monotone_path(u, rng))
            worst_path = max(worst_path, abs(b1 - b2))
    elapsed = time.perf_counter() - t0
    ok = worst_entry <= 1e-10 and worst_path <= 1e-10 and elapsed < 30.0
    report(capsys, 7, "50-model round trip and path-independent ratios",
           ok, elapsed, 30.0,
           "max entry %.2e, max path gap %.2e" % (worst_entry, worst_path))


def test_08_detailed_balance(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for model, _ in _round_trip_models():
        p = recover_params(model)
        beta = {u: a ** -2 for u, a in p.alpha.items()}
        for e in directed_edges(model.shape):
            gap = abs(
                beta[e.u] * model.p(e.u, e.v) - beta[e.v] * model.p(e.v, e.u)
            )
            worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    report(capsys, 8, "recovered measure balances every edge",
           ok, elapsed, 10.0, "max imbalance %.2e" % worst)


def test_09_stochasticization(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(91)
    row_gap = 0.0
    commute_ok = True
    cases = [EXP_SHAPE] * 10 + [GridShape((2, 2, 2), 2, 2)] * 5 + [
        GridShape((3, 3), 2, 2)] * 5
    for shape in cases:
        p = normalize_stochastic(make_parametrization(shape, rng))
        model = build_model(p)
        m = full_matrix(model)
        row_gap = max(row_gap, float(np.abs(m.sum(axis=1) - 1.0).max()))
        commute_ok = commute_ok and _both_routes_commute(model)
    states = build_grid(EXP_SHAPE).states
    flat = Parametrization(
        EXP_SHAPE,
        {u: 1.0 for u in states},
        {c: 1.0 for c in edge_classes(EXP_SHAPE)},
    )
    m = direction_operator(flat, 1) + direction_operator(flat, 2)
    rho, v = perron(m)
    dense_rho = float(np.linalg.eigvalsh(m).max())
    uniform_ok = (
        abs(rho - 4.0) <= 1e-10
        and abs(rho - dense_rho) <= 1e-10
        and float(np.abs(v - 1.0 / 9.0).max()) <= 1e-10
    )
    elapsed = time.perf_counter() - t0
    ok = row_gap <= 1e-10 and commute_ok and uniform_ok and elapsed < 5.0
    report(capsys, 9, "stochastic rescaling and the uniform-weight root",
           ok, elapsed, 5.0,
           "max row gap %.2e, rho %.12f" % (row_gap, rho))


def test_10_monte_carlo_consistency(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    p = normalize_stochastic(make_parametrization(EXP_SHAPE, rng))
    model = build_model(p)
    grid = build_grid(EXP_SHAPE)
    start = (1, 1)
    exact = matrix_power(full_matrix(model), 5)[grid.index_of(start)]
    freq = empirical_kstep(model, start, 5, 10 ** 5, seed=4242)
    tv = 0.5 * sum(
        abs(freq.get(u, 0.0) - exact[k]) for k, u in enumerate(grid.states)
    )
    elapsed = time.perf_counter() - t0
    ok = tv <= 0.02 and elapsed < 30.0
    report(capsys, 10, "sampled 5-step law close to the exact row",
           ok, elapsed, 30.0, "TV %.4f" % tv)


def test_11_asymmetric_bounds_negative_control(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(111)
    p = make_parametrization(GridShape((2, 2), 2, 1), rng)
    refused = False
    try:
        k_step(p, 3)
    except UnsupportedConfigError:
        refused = True
    power = matrix_power(full_matrix(build_model(p)), 3)
    power_ok = power.shape == (9, 9) and np.isfinite(power).all()
    elapsed = time.perf_counter() - t0
    ok = refused and power_ok and elapsed < 1.0
    report(capsys, 11, "unequal jump bounds refuse the spectral route only",
           ok, elapsed, 1.0)
