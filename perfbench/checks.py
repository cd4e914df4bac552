"""Checks of every benchmark output against an independent oracle.

Each check returns a verdict dict.  `ok` is False when the output
contradicts its oracle or a guarantee the program itself prints.
`strict_ok` is False when the output breaks a stricter invariant that is
a known defect at the seed: normalize's row sums miss 1 by up to ~1e-10,
so its output fails `validate` at `model.ROW_SUM_TOL` and sometimes the
command's own printed 1e-10 self-check (see NOTES.md).  An operation
fails, and its run is incorrect, when `ok` is False; one that misses only
a strict check lowers the `ok_frac` metric.
"""

import csv
import itertools
import math
import re

import numpy as np

from gbdp import build_model, fileio, full_matrix, validate
from gbdp.commute import DEFAULT_TOL
from gbdp.model import ROW_SUM_TOL
from gbdp.param import CONSISTENCY_RTOL

EPS = float(np.finfo(float).eps)
# family-wise false-alarm probability of the simulate check
SIM_DELTA = 1e-9
# Row gap beyond which a normalize output is wrong, not merely unconverged:
# the seed's power iteration leaves gaps up to ~1e-10 (the known defect);
# a wrong Perron root or vector misses by far more than 1e-6.
NORMALIZE_SANITY_TOL = 1e-6
# normalized gammas are the input's times one constant, one rounding each
GAMMA_RATIO_RTOL = 4 * EPS


def verdict(kind, problems, strict_problems=(), **extra):
    out = {
        "kind": kind,
        "ok": not problems,
        "strict_ok": not strict_problems,
        "detail": "; ".join(list(problems) + list(strict_problems))[:400],
    }
    out.update(extra)
    return out


def states_of(dims):
    """Grid states in lexicographic order, last coordinate fastest."""
    return list(itertools.product(*(range(n + 1) for n in dims)))


def label(u):
    return "(" + ",".join(str(c) for c in u) + ")"


def kstep_atol(n_states, k):
    """A-priori bound on the rounding of k products of n-term sums of
    probabilities: both routes stay within k * n * eps of the exact law."""
    return k * n_states * EPS


def pair_constraint_count(dims, l, i, j):
    """Constraints of the direction pair (i, j), 1-based: four sign
    families, each (n_i - x + 1)(n_j - y + 1) rectangles per jump pair,
    times the states of the other axes."""
    perp = math.prod(n + 1 for k, n in enumerate(dims) if k not in (i - 1, j - 1))
    rects = sum(
        max(dims[i - 1] - x + 1, 0) * max(dims[j - 1] - y + 1, 0)
        for x in range(1, l + 1)
        for y in range(1, l + 1)
    )
    return 4 * perp * rects


def pairs_of(q):
    return [(i, j) for i in range(1, q + 1) for j in range(i + 1, q + 1)]


# -- check-commute ----------------------------------------------------------

_PAIR_LINE = re.compile(
    r"pair \((\d+),(\d+)\): commutator residual (\S+), "
    r"max constraint residual (\S+) \[(\w+)\]"
)


def parse_commute(stdout):
    return [
        (int(m[1]), int(m[2]), float(m[3]), float(m[4]), m[5])
        for m in _PAIR_LINE.finditer(stdout)
    ]


def check_commute(verdicts, q, exit_code=0):
    """Every pair of the model (commuting by construction) reads `commute`
    with both residuals within the default tolerance."""
    problems = []
    if exit_code != 0:
        problems.append("exit %r, expected 0" % exit_code)
    if sorted((i, j) for i, j, *_ in verdicts) != pairs_of(q):
        problems.append("pairs %s, expected %s"
                        % ([v[:2] for v in verdicts], pairs_of(q)))
    for i, j, residual, worst, word in verdicts:
        if word != "commute" or residual > DEFAULT_TOL or worst > DEFAULT_TOL:
            problems.append("pair (%d,%d): %s, residuals %.3e, %.3e"
                            % (i, j, word, residual, worst))
    return verdict("check-commute", problems)


# -- kstep ------------------------------------------------------------------

def check_kstep_csv(path, oracle, dims, k, exit_code=0):
    """The CSV matches matrix_power(full_matrix(model), k) entrywise."""
    if exit_code != 0:
        return verdict("kstep", ["exit %r, expected 0" % exit_code])
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    labels = [label(u) for u in states_of(dims)]
    if rows[0] != ["state"] + labels or [r[0] for r in rows[1:]] != labels:
        return verdict("kstep", ["state labels differ from lattice order"])
    matrix = np.array([r[1:] for r in rows[1:]], dtype=float)
    return check_kstep_matrix(matrix, oracle, k, kind="kstep")


def check_kstep_matrix(matrix, oracle, k, kind):
    problems = []
    if matrix.shape != oracle.shape:
        problems.append("shape %s, expected %s" % (matrix.shape, oracle.shape))
    else:
        err = float(np.abs(matrix - oracle).max())
        atol = kstep_atol(oracle.shape[0], k)
        if not err <= atol:
            problems.append("max |k_step - matrix_power| %.3e > %.3e"
                            % (err, atol))
    return verdict(kind, problems)


# -- normalize --------------------------------------------------------------

def check_normalize(out_path, p_in, claim, exit_code=0):
    """The output rescales the input's gammas by one constant and has row
    sums near 1; strictly, the command's own self-check printed "yes" and
    the output passes the library's `validate`."""
    if exit_code != 0:
        return verdict("normalize", ["exit %r, expected 0" % exit_code])
    p_out = fileio.load_params(out_path)
    problems, strict = [], []
    if claim != "yes":
        strict.append("command printed stochastic within 1e-10: %r" % (claim,))
    ratios = np.array([p_out.gamma[c] / g for c, g in p_in.gamma.items()])
    spread = float(ratios.max() / ratios.min() - 1.0)
    if not spread <= GAMMA_RATIO_RTOL:
        problems.append("gamma ratios spread %.3e" % spread)
    model = build_model(p_out)
    gap = float(np.abs(full_matrix(model).sum(axis=1) - 1.0).max())
    if not gap <= NORMALIZE_SANITY_TOL:
        problems.append("row gap %.3e > %.0e" % (gap, NORMALIZE_SANITY_TOL))
    report = validate(model)
    if report:
        strict.append("validate: %d violations at ROW_SUM_TOL %.0e, first: %s"
                      % (len(report), ROW_SUM_TOL, report[0]))
    return verdict("normalize", problems, strict, row_gap=gap)


_NORMALIZE_LINE = re.compile(r"row sums stochastic within 1e-10: (\w+)")


def parse_normalize_claim(stdout):
    m = _NORMALIZE_LINE.search(stdout)
    return m[1] if m else None


# -- simulate ---------------------------------------------------------------

def bernstein_halfwidth(p, trials, cells):
    """|frequency - p| bound holding for all `cells` at once with
    probability 1 - SIM_DELTA (Bernstein's inequality)."""
    log_term = math.log(2 * cells / SIM_DELTA)
    a = log_term / (3 * trials)
    return a + math.sqrt(a * a + 2 * p * (1 - p) * log_term / trials)


def check_simulate_csv(path, exact_row, dims, trials, exit_code=0):
    """Frequencies of every state and of the sink lie within the binomial
    bound of the exact law row matrix_power(full_matrix(M), k)[start]."""
    if exit_code != 0:
        return verdict("simulate", ["exit %r, expected 0" % exit_code])
    labels = [label(u) for u in states_of(dims)] + ["sink"]
    exact = dict(zip(labels, list(exact_row) + [1.0 - float(exact_row.sum())]))
    counts = dict.fromkeys(labels, 0)
    problems = []
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if rows[0] != ["state", "count", "frequency"]:
        problems.append("header %r" % (rows[0],))
    for name, count, _ in rows[1:]:
        if name not in counts:
            problems.append("unknown state %r" % name)
            continue
        counts[name] = int(count)
    if sum(counts.values()) != trials:
        problems.append("counts sum to %d, not %d"
                        % (sum(counts.values()), trials))
    for name, p in exact.items():
        freq = counts[name] / trials
        bound = bernstein_halfwidth(p, trials, len(labels))
        if abs(freq - p) > bound:
            problems.append("%s: frequency %.5f vs exact %.5f (bound %.5f)"
                            % (name, freq, p, bound))
    return verdict("simulate", problems, absorbed=counts["sink"] / trials)


# -- ranks ------------------------------------------------------------------

_RANKS_LINE = re.compile(
    r"Q: (\d+)x(\d+) rank (\d+) \(formula (\d+)\); "
    r"R: (\d+)x(\d+) rank (\d+) \(formula (\d+)\); QR\^T=0: (yes|NO)"
)


def parse_ranks(stdout):
    m = _RANKS_LINE.search(stdout)
    if not m:
        return None
    return {"q_rows": int(m[1]), "cols": int(m[2]), "rank_q": int(m[3]),
            "rank_r": int(m[7]), "product_zero": m[9] == "yes"}


def line_cycle_count(dims, l):
    """Independent cycles of the single-axis line graphs: one per extra
    edge of each jump size x >= 2 beyond the spanning path."""
    return sum(n - x + 1 for n in dims for x in range(2, l + 1) if n - x + 1 > 0)


def rank_r_formula(dims, l):
    q = len(dims)
    return l * sum(dims) + math.prod(n + 1 for n in dims) - q * l * (l - 1) // 2 - 1


def check_ranks(values, dims, l, exit_code=None):
    """Judged on the printed ranks: QR^T = 0, rank R equals its formula
    and rank Q + rank R + line cycles equals the column count.  The
    command exits 1 exactly when line cycles exist (the documented
    erratum of the closed-form rank of Q)."""
    if values is None:
        return verdict("ranks", ["no rank line printed"])
    problems = []
    cycles = line_cycle_count(dims, l)
    if exit_code is not None and exit_code != (1 if cycles else 0):
        problems.append("exit %r with %d line cycles" % (exit_code, cycles))
    if not values["product_zero"]:
        problems.append("QR^T != 0")
    if values["rank_r"] != rank_r_formula(dims, l):
        problems.append("rank R %d, formula %d"
                        % (values["rank_r"], rank_r_formula(dims, l)))
    if values["rank_q"] + values["rank_r"] + cycles != values["cols"]:
        problems.append("rank Q %d + rank R %d + cycles %d != %d columns"
                        % (values["rank_q"], values["rank_r"], cycles,
                           values["cols"]))
    return verdict("ranks", problems)


# -- the library tour -------------------------------------------------------

def expected_violations(model):
    """Number of entries `validate` must report, counted independently:
    edges outside (0, 1] plus rows whose mass misses 1 by ROW_SUM_TOL."""
    mass = {}
    bad_edges = 0
    for (u, _), p in model.probs.items():
        if not 0.0 < p <= 1.0:
            bad_edges += 1
        mass[u] = mass.get(u, 0.0) + p
    bad_rows = 0
    for u in states_of(model.shape.dims):
        m = mass.get(u, 0.0) + model.self_of(u)
        if m > 1.0 + ROW_SUM_TOL or (not model.absorbing and m < 1.0 - ROW_SUM_TOL):
            bad_rows += 1
    return bad_edges + bad_rows


def check_tour(out, oracle, k):
    """out: the tour's results (see worker.tour)."""
    model = out["model"]
    shape = model.shape
    problems = []
    if len(out["report"]) != expected_violations(model):
        problems.append("validate reported %d violations, expected %d"
                        % (len(out["report"]), expected_violations(model)))
    if sorted(out["pairs"]) != pairs_of(shape.q):
        problems.append("pairs checked: %s" % sorted(out["pairs"]))
    for (i, j), ((ok, residual), residuals) in out["pairs"].items():
        worst = max(abs(r) for _, r in residuals)
        if not ok or residual > DEFAULT_TOL or worst > DEFAULT_TOL:
            problems.append("pair (%d,%d) residuals %.3e, %.3e"
                            % (i, j, residual, worst))
        want = pair_constraint_count(shape.dims, shape.l1, i, j)
        if len(residuals) != want:
            problems.append("pair (%d,%d): %d constraints, expected %d"
                            % (i, j, len(residuals), want))
    rebuilt = build_model(out["recovered"])
    keys = list(model.probs)
    a = np.array([model.probs[key] for key in keys])
    b = np.array([rebuilt.probs.get(key, 0.0) for key in keys])
    rel = float(np.abs(b / a - 1.0).max())
    if len(rebuilt.probs) != len(keys) or not rel <= CONSISTENCY_RTOL:
        problems.append("recovered parameters rebuild the model to %.3e" % rel)
    kstep = check_kstep_matrix(out["kstep"], oracle, k, "tour")
    if not kstep["ok"]:
        problems.append(kstep["detail"])
    return verdict("tour", problems)
