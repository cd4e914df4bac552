"""Benchmark worker: the part of the benchmark that imports gbdp.

The driver (run.py) starts it as a subprocess, one mode per call:

    worker.py setup --workload W --seed N --dir D --out R.json
    worker.py tour  --workload W --dir D --budget S --start I --out R.json
    worker.py check --workload W --dir D --ops OPS.json --out R.json
    worker.py trace --workload W --seed N --dir D --budget S --out R.json
                    --spans SPANS.jsonl

`setup` generates and saves the inputs and the oracles, `tour` times the
README library tour, `check` checks the outputs of the CLI runs, and
`trace` replays every subcommand and the tour as the same sequence of
public calls, with spans around each call.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc

import numpy as np

import checks
from spans import Tracer
from workloads import INPUT_SETS, KSTEP_K, SIM_K, SINK_KEEP, WORKLOADS

from gbdp import (
    GridShape,
    Parametrization,
    build_grid,
    build_model,
    build_Q,
    build_R,
    commutes_direct,
    constraint_residuals,
    directed_edges,
    edge_classes,
    empirical_kstep,
    fileio,
    full_matrix,
    integer_rank,
    k_step,
    matrix_power,
    normalize_stochastic,
    recover_params,
    validate,
)
from gbdp.commute import DEFAULT_TOL
from gbdp.stochastic import is_stochastic

SETUP_BUDGET_S = 1.5  # set-up repeats until this much time is spent
SETUP_REPS = (3, 200)  # at least, at most


def plain(name, fn, *args):
    """The untraced counterpart of Tracer.call."""
    return fn(*args)


def shape_of(w):
    return GridShape(tuple(w["dims"]), w["l"], w["l"])


def inputs(d, i):
    """Paths of input set i: P, PN and M, and the oracles of its checks."""
    paths = {name: os.path.join(d, "%s-%d.json" % (name, i))
             for name in ("P", "PN", "M")}
    for name in ("kstep", "sim"):
        paths[name] = os.path.join(d, "oracle-%s-%d.npy" % (name, i))
    return paths


def load_set(d, i):
    """(P, k-step oracle, simulate law) of input set i."""
    paths = inputs(d, i)
    return (fileio.load_params(paths["P"]), np.load(paths["kstep"]),
            np.load(paths["sim"]))


def make_params(shape, rng, call):
    """Random parametrization, alpha and gamma uniform in [0.5, 2]."""
    grid = call("lattice.build_grid", build_grid, shape)
    alpha = {u: float(rng.uniform(0.5, 2.0)) for u in grid.states}
    gamma = {c: float(rng.uniform(0.5, 2.0)) for c in edge_classes(shape)}
    return Parametrization(shape, alpha, gamma)


def generate(w, seed, i, d, call=plain):
    """Make and save input set i: P, PN = normalize(P) and the absorbing
    model M that keeps SINK_KEEP of its mass per step."""
    shape = shape_of(w)
    p = make_params(shape, np.random.default_rng([seed, i]), call)
    pn = call("stochastic.normalize_stochastic", normalize_stochastic, p)
    kept = Parametrization(
        shape, pn.alpha, {c: SINK_KEEP * g for c, g in pn.gamma.items()}
    )
    m = call("param.build_model", build_model, kept, None, True)
    paths = inputs(d, i)
    call("fileio.save_params", fileio.save_params, p, paths["P"])
    call("fileio.save_params", fileio.save_params, pn, paths["PN"])
    call("fileio.save_model", fileio.save_model, m, paths["M"])
    return p, pn, m


def blas_threads():
    """Thread count of the OpenBLAS library numpy loaded, if it is one."""
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
    }


def cpu_model():
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.machine()


def cmd_setup(a, w):
    """Make every input set, in turn, until SETUP_BUDGET_S has passed."""
    times, sets = [], {}
    spent = time.perf_counter()
    while len(times) < SETUP_REPS[1] and (
        len(times) < max(SETUP_REPS[0], INPUT_SETS)
        or time.perf_counter() - spent < SETUP_BUDGET_S
    ):
        i = len(times) % INPUT_SETS
        t0 = time.perf_counter()
        sets[i] = generate(w, a.seed, i, a.dir)
        times.append(time.perf_counter() - t0)
    # oracles, outside the timed region.  M's matrix is SINK_KEEP times
    # PN's, so its exact k-step law is SINK_KEEP^k times PN's.
    start = build_grid(shape_of(w)).index_of(tuple(w["start"]))
    for i, (_, pn, _) in sets.items():
        paths = inputs(a.dir, i)
        full = full_matrix(build_model(pn))
        np.save(paths["kstep"], matrix_power(full, KSTEP_K))
        np.save(paths["sim"],
                SINK_KEEP ** SIM_K * matrix_power(full, SIM_K)[start])
    return {"setup_s": times, "env": environment()}


def tour(p, call=plain):
    """The README library tour on one parametrization."""
    model = call("param.build_model", build_model, p)
    report = call("model.validate", validate, model)
    pairs = {}
    for i, j in checks.pairs_of(p.shape.q):
        pairs[(i, j)] = (
            call("commute.commutes_direct", commutes_direct, model, i, j),
            call("commute.constraint_residuals", constraint_residuals,
                 model, i, j),
        )
    recovered = call("param.recover_params", recover_params, model)
    pn = call("stochastic.normalize_stochastic", normalize_stochastic, p)
    kstep = call("spectral.k_step", k_step, pn, KSTEP_K)
    return {"model": model, "report": report, "pairs": pairs,
            "recovered": recovered, "kstep": kstep}


def cmd_tour(a, w):
    """Tour passes over the input sets, from set --start on."""
    sets = [load_set(a.dir, i) for i in range(INPUT_SETS)]
    times, verdicts = [], []
    spent = time.perf_counter()
    while not times or time.perf_counter() - spent < a.budget:
        p, oracle, _ = sets[(a.start + len(times)) % INPUT_SETS]
        t0 = time.perf_counter()
        out = tour(p)
        times.append(time.perf_counter() - t0)
        verdicts.append(checks.check_tour(out, oracle, KSTEP_K))
    return {"tour_s": times, "verdicts": verdicts}


def cmd_check(a, w):
    """Check the output of every CLI run the driver recorded in --ops."""
    with open(a.ops) as f:
        ops = json.load(f)
    sets = [load_set(a.dir, i) for i in range(INPUT_SETS)]
    out, seen = [], {}
    for op in ops:
        kind, code = op["kind"], op["exit"]
        with open(op["stdout"]) as f:
            text = f.read()
        # an output identical to one already checked gets the same verdict
        key = (kind, op["set"], code, text, digest(op["out"]))
        if key not in seen:
            try:
                seen[key] = check_cli(kind, code, text, op["out"], w,
                                      *sets[op["set"]])
            except Exception as exc:  # a malformed output fails its check
                seen[key] = checks.verdict(kind, ["check raised %r" % (exc,)])
        out.append(seen[key])
    return {"verdicts": out}


def digest(path):
    if path is None or not os.path.exists(path):
        return None
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def check_cli(kind, code, text, path, w, p, oracle, exact):
    if kind == "check-commute":
        return checks.check_commute(checks.parse_commute(text),
                                    len(w["dims"]), code)
    if kind == "kstep":
        return checks.check_kstep_csv(path, oracle, w["dims"], KSTEP_K, code)
    if kind == "normalize":
        return checks.check_normalize(path, p,
                                      checks.parse_normalize_claim(text), code)
    if kind == "simulate":
        return checks.check_simulate_csv(path, exact, w["dims"], w["trials"],
                                         code)
    return checks.check_ranks(checks.parse_ranks(text), w["rank_dims"],
                              w["rank_l"], code)


# -- traced replay ----------------------------------------------------------

def replay_setup(t, w, seed, i, d):
    generate(w, seed, i, d, t.call)
    return {"lattice.edges": len(
        t.call("lattice.directed_edges", directed_edges, shape_of(w)))}


def replay_check_commute(t, paths):
    model = t.call("fileio.load_model", fileio.load_model, paths["M"])
    verdicts = []
    for i, j in checks.pairs_of(model.shape.q):
        ok, residual = t.call("commute.commutes_direct", commutes_direct,
                              model, i, j, DEFAULT_TOL)
        residuals = t.call("commute.constraint_residuals",
                           constraint_residuals, model, i, j)
        worst = max(abs(r) for _, r in residuals)
        word = "commute" if ok and worst <= DEFAULT_TOL else "FAIL"
        verdicts.append((i, j, residual, worst, word, len(residuals)))
    return verdicts


def replay_kstep(t, paths, out):
    p = t.call("fileio.load_params", fileio.load_params, paths["PN"])
    matrix = t.call("spectral.k_step", k_step, p, KSTEP_K)
    labels = t.call("lattice.build_grid", build_grid, p.shape).states
    with t.span("fileio.write_matrix_csv"):
        with open(out, "w", newline="") as f:
            fileio.write_matrix_csv(f, labels, matrix)


def replay_normalize(t, paths, out):
    p = t.call("fileio.load_params", fileio.load_params, paths["P"])
    result = t.call("stochastic.normalize_stochastic", normalize_stochastic, p)
    t.call("fileio.save_params", fileio.save_params, result, out)
    model = t.call("param.build_model", build_model, result)
    check = t.call("model.full_matrix", full_matrix, model)
    return "yes" if is_stochastic(check, 1e-10) else "NO"


def replay_simulate(t, w, seed, paths, out):
    model = t.call("fileio.load_model", fileio.load_model, paths["M"])
    freqs = t.call("simulate.empirical_kstep", empirical_kstep, model,
                   tuple(w["start"]), SIM_K, w["trials"], seed)
    with t.span("fileio.write_frequency_csv"):
        with open(out, "w", newline="") as f:
            fileio.write_frequency_csv(f, freqs, w["trials"])


def replay_ranks(t, w):
    shape = GridShape(tuple(w["rank_dims"]), w["rank_l"], w["rank_l"])
    q = t.call("algebra.build_Q", build_Q, shape)
    r = t.call("algebra.build_R", build_R, shape)
    return {
        "q_rows": q.rows,
        "cols": q.cols,
        "product_zero": not (q.entries @ r.entries.T).any(),
        "rank_q": t.call("algebra.integer_rank", integer_rank, q),
        "rank_r": t.call("algebra.integer_rank", integer_rank, r),
    }


def replay_oracle(t, paths):
    pn = fileio.load_params(paths["PN"])
    full = t.call("model.full_matrix", full_matrix, build_model(pn))
    t.call("spectral.matrix_power", matrix_power, full, KSTEP_K)


# Each layer metric is the layer's self time within one replay of its home
# operation (summed over that replay's calls), median over replay rounds.
HOME = {
    "fileio.load_model": "check-commute",
    "fileio.load_params": "kstep",
    "fileio.save_model": "setup",
    "fileio.save_params": "normalize",
    "fileio.write_matrix_csv": "kstep",
    "fileio.write_frequency_csv": "simulate",
    "lattice.build_grid": "setup",
    "lattice.directed_edges": "setup",
    "param.build_model": "tour",
    "param.recover_params": "tour",
    "model.validate": "tour",
    "model.full_matrix": "oracle",
    "commute.commutes_direct": "check-commute",
    "commute.constraint_residuals": "check-commute",
    "spectral.k_step": "kstep",
    "spectral.matrix_power": "oracle",
    "stochastic.normalize_stochastic": "normalize",
    "simulate.empirical_kstep": "simulate",
    "algebra.build_Q": "ranks",
    "algebra.build_R": "ranks",
    "algebra.integer_rank": "ranks",
}


def peak_mb(fn, *args):
    """Peak of the memory a call allocates, by tracemalloc."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def cmd_trace(a, w):
    d = a.dir
    shape = shape_of(w)
    sets = [load_set(d, i) for i in range(INPUT_SETS)]
    scratch = os.path.join(d, "replay")
    os.makedirs(scratch, exist_ok=True)
    rounds, verdicts, records = [], [], []
    untraced, traced = [], []
    counts = {}
    kstep_csv = os.path.join(scratch, "kstep.csv")
    norm_out = os.path.join(scratch, "normalize.json")
    sim_csv = os.path.join(scratch, "simulate.csv")
    spent = time.perf_counter()
    while not rounds or time.perf_counter() - spent < a.budget:
        r = len(rounds)
        i = r % INPUT_SETS
        paths = inputs(d, i)
        p, oracle, exact = sets[i]
        ops = [
            ("setup", lambda t: replay_setup(t, w, a.seed, i, scratch)),
            ("check-commute", lambda t: replay_check_commute(t, paths)),
            ("kstep", lambda t: replay_kstep(t, paths, kstep_csv)),
            ("normalize", lambda t: replay_normalize(t, paths, norm_out)),
            ("simulate",
             lambda t: replay_simulate(t, w, a.seed, paths, sim_csv)),
            ("ranks", lambda t: replay_ranks(t, w)),
            ("tour", lambda t: tour(p, t.call)),
            ("oracle", lambda t: replay_oracle(t, paths)),
        ]
        # the untraced tour, for the tracing overhead; alternate which of
        # the two tours runs first
        ops.insert(6 + r % 2, ("untraced", None))
        selfs = {}
        for name, run in ops:
            if run is None:
                t0 = time.perf_counter()
                out = tour(p)
                untraced.append(time.perf_counter() - t0)
                verdicts.append(checks.check_tour(out, oracle, KSTEP_K))
                del out
                continue
            t = Tracer()
            with t.span("op." + name):
                result = run(t)
            selfs[name] = t.self_times()
            records += [dict(rec, round=r, op=name) for rec in t.records()]
            # checks, outside every span
            if name == "setup":
                counts.update(result)
            elif name == "check-commute":
                verdicts.append(checks.check_commute(
                    [v[:5] for v in result], shape.q))
                counts["commute.constraints"] = sum(v[5] for v in result)
            elif name == "kstep":
                verdicts.append(checks.check_kstep_csv(
                    kstep_csv, oracle, w["dims"], KSTEP_K))
                counts["fileio.kstep_csv_bytes"] = os.path.getsize(kstep_csv)
            elif name == "normalize":
                verdicts.append(checks.check_normalize(norm_out, p, result))
            elif name == "simulate":
                verdicts.append(checks.check_simulate_csv(
                    sim_csv, exact, w["dims"], w["trials"]))
            elif name == "ranks":
                verdicts.append(checks.check_ranks(
                    result, w["rank_dims"], w["rank_l"]))
                counts["algebra.q_rows"] = result["q_rows"]
            elif name == "tour":
                traced.append(t.spans[0][2] - t.spans[0][1])
                verdicts.append(checks.check_tour(result, oracle, KSTEP_K))
            del result
        rounds.append(selfs)

    metrics = {
        fn + "_s": statistics.median(s[home].get(fn, 0.0) for s in rounds)
        for fn, home in HOME.items()
    }
    metrics.update(counts)
    sim = metrics["simulate.empirical_kstep_s"]
    metrics["simulate.trajectories_per_s"] = w["trials"] / sim
    metrics["simulate.absorbed_frac"] = statistics.median(
        v["absorbed"] for v in verdicts if v["kind"] == "simulate")
    metrics["stochastic.row_gap_max"] = max(
        v["row_gap"] for v in verdicts if "row_gap" in v)
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(untraced))

    p = sets[0][0]
    pn = fileio.load_params(inputs(d, 0)["PN"])
    model = fileio.load_model(inputs(d, 0)["M"])
    metrics["spectral.k_step.peak_mb"] = peak_mb(k_step, pn, KSTEP_K)
    metrics["stochastic.normalize_stochastic.peak_mb"] = peak_mb(
        normalize_stochastic, p)
    metrics["commute.commutes_direct.peak_mb"] = peak_mb(
        commutes_direct, model, 1, 2)
    metrics["model.full_matrix.peak_mb"] = peak_mb(full_matrix, model)

    with open(a.spans, "w") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")
    return {"metrics": metrics, "verdicts": verdicts, "rounds": len(rounds)}


MODES = {"setup": cmd_setup, "tour": cmd_tour, "check": cmd_check,
         "trace": cmd_trace}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=sorted(MODES))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--budget", type=float, default=1.0)
    ap.add_argument("--start", type=int, default=0)
    ap.add_argument("--ops")
    ap.add_argument("--spans")
    ap.add_argument("--out", required=True)
    a = ap.parse_args(argv)
    result = MODES[a.mode](a, WORKLOADS[a.workload])
    with open(a.out, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
