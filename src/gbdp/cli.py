"""Command-line interface.

Subcommands: check-commute, kstep, ranks, normalize, simulate.  Exit codes
are a stable contract: 0 = success / affirmative verdict, 1 = negative
verdict, 2 = input or configuration error.  The default commutation
tolerance (1e-12) can be overridden with the GBDP_TOL environment variable;
--tol beats both.  All tables are CSV, all numbers full double precision.
"""

import argparse
import math
import os
import sys

from . import commute, fileio
from .algebra import rank_formula_Q, rank_formula_R, verify_orthocomplement
from .errors import GbdpError
from .lattice import GridShape, build_grid
from .model import full_matrix
from .param import build_model
from .simulate import empirical_kstep
from .spectral import k_step_with_self, matrix_power
from .stochastic import is_stochastic, normalize_stochastic


def default_tol():
    env = os.environ.get("GBDP_TOL")
    try:
        tol = float(env) if env else commute.DEFAULT_TOL
    except ValueError:
        tol = math.nan
    if not 0.0 <= tol < math.inf:
        raise GbdpError("GBDP_TOL must be a finite, non-negative number, "
                        "got %r" % env)
    return tol


def describe_constraint(c):
    return (
        "family %d at base %s: step %+d along direction %d vs "
        "step %+d along direction %d"
        % (c.family, c.base, c.step_i, c.i, c.step_j, c.j)
    )


def cmd_check_commute(args):
    model = fileio.load_model(args.model)
    tol = args.tol if args.tol is not None else default_tol()
    q = model.shape.q
    if q == 1:
        print("single direction: commutation is vacuous")
        return 0
    all_ok = True
    for i in range(1, q + 1):
        for j in range(i + 1, q + 1):
            ok, residual = commute.commutes_direct(model, i, j, tol)
            residuals = commute.constraint_residuals(model, i, j)
            worst = max(abs(r) for _, r in residuals)
            verdict = "commute" if ok and worst <= tol else "FAIL"
            print(
                "pair (%d,%d): commutator residual %.3e, "
                "max constraint residual %.3e [%s]"
                % (i, j, residual, worst, verdict)
            )
            if not ok or worst > tol:
                all_ok = False
                failing = [c for c, r in residuals if abs(r) > tol]
                for c in failing[:10]:
                    print("  violated: " + describe_constraint(c))
                if len(failing) > 10:
                    print("  ... and %d more" % (len(failing) - 10))
    return 0 if all_ok else 1


def _write_matrix(out, shape, matrix):
    labels = build_grid(shape).states
    if out:
        with open(out, "w", newline="") as f:
            fileio.write_matrix_csv(f, labels, matrix)
    else:
        fileio.write_matrix_csv(sys.stdout, labels, matrix)


def cmd_kstep(args):
    p = fileio.load_params(args.params)
    if args.method == "spectral":
        matrix = k_step_with_self(p, args.self_mass, args.k)
    else:
        model = build_model(p, self_prob=args.self_mass or None)
        matrix = matrix_power(full_matrix(model), args.k)
    _write_matrix(args.out, p.shape, matrix)
    return 0


def _int_list(text, flag):
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError:
        raise GbdpError("%s must be comma-separated integers, got %r"
                        % (flag, text))


def cmd_ranks(args):
    shape = GridShape(_int_list(args.dims, "--dims"), args.l, args.l)
    rep = verify_orthocomplement(shape)
    q, r = rep.Q, rep.R
    formula_q = rank_formula_Q(shape)
    formula_r = rank_formula_R(shape)
    print(
        "Q: %dx%d rank %d (formula %d); R: %dx%d rank %d (formula %d); "
        "QR^T=0: %s; rank Q + rank R = columns: %s"
        % (
            q.rows, q.cols, rep.rank_Q, formula_q,
            r.rows, r.cols, rep.rank_R, formula_r,
            "yes" if rep.product_zero else "NO",
            "yes" if rep.ranks_sum_to_cols else "NO",
        )
    )
    if args.dump:
        for m, tag in ((q, ".Q"), (r, ".R")):
            paths = fileio.dump_int_matrix(m, args.dump + tag)
            print("wrote " + ", ".join(paths))
    ok = rep.complement and (rep.rank_Q, rep.rank_R) == (formula_q, formula_r)
    return 0 if ok else 1


def cmd_normalize(args):
    p = fileio.load_params(args.params)
    result = normalize_stochastic(p, args.self_mass)
    fileio.save_params(result, args.out)
    check = full_matrix(
        build_model(result, self_prob=args.self_mass or None)
    )
    print(
        "wrote %s; row sums stochastic within 1e-10: %s"
        % (args.out, "yes" if is_stochastic(check, 1e-10) else "NO")
    )
    return 0


def cmd_simulate(args):
    model = fileio.load_model(args.model)
    start = _int_list(args.start, "--from")
    freqs = empirical_kstep(model, start, args.k, args.trials, args.seed)
    if args.out:
        with open(args.out, "w", newline="") as f:
            fileio.write_frequency_csv(f, freqs, args.trials)
    else:
        fileio.write_frequency_csv(sys.stdout, freqs, args.trials)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gbdp",
        description="Generalized birth-death processes on finite grids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "check-commute",
        help="verify that all directional matrices pairwise commute",
    )
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--tol", type=float, default=None,
                   help="absolute tolerance (default 1e-12 or GBDP_TOL)")
    p.set_defaults(func=cmd_check_commute)

    p = sub.add_parser(
        "kstep", help="k-step transition matrix of a parametrized model"
    )
    p.add_argument("--params", required=True, help="parametrization JSON file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--self", dest="self_mass", type=float, default=0.0,
                   help="scalar self-transition mass")
    p.add_argument("--method", choices=("spectral", "power"),
                   default="spectral")
    p.add_argument("--out", help="output CSV (default stdout)")
    p.set_defaults(func=cmd_kstep)

    p = sub.add_parser(
        "ranks",
        help="orders, closed-form and exact ranks of the constraint and "
             "parameter matrices",
    )
    p.add_argument("--dims", required=True, help="comma-separated n_1,..,n_q")
    p.add_argument("--l", type=int, required=True, help="jump bound l1 = l2")
    p.add_argument("--dump", help="prefix for sparse triplet dumps")
    p.set_defaults(func=cmd_ranks)

    p = sub.add_parser(
        "normalize", help="rescale a parametrization to a stochastic model"
    )
    p.add_argument("--params", required=True, help="parametrization JSON file")
    p.add_argument("--self", dest="self_mass", type=float, default=0.0)
    p.add_argument("--out", required=True, help="output parametrization file")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser(
        "simulate", help="Monte Carlo k-step frequencies from one state"
    )
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--from", dest="start", required=True,
                   help="start state as comma-separated coordinates")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output CSV (default stdout)")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GbdpError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
