"""Command-line interface.

Subcommands: check-commute, kstep, ranks, normalize, simulate.  Exit codes
are a stable contract: 0 = success / affirmative verdict, 1 = negative
verdict, 2 = input or configuration error, or out of memory.  The
commutation tolerance defaults to 1e-12; --tol overrides it.  All tables
are CSV, all numbers full double precision.
"""

import argparse
import math
import sys

import numpy as np

from . import commute, fileio
from .algebra import (certified_ranks, nonzeros_Q, nonzeros_R,
                      rank_formula_Q, rank_formula_R)
from .errors import GbdpError
from .lattice import GridShape, build_grid
from .model import check_self_mass, full_matrix, row_mass
from .param import build_model
from .simulate import empirical_kstep
from .spectral import k_step, matrix_power
from .stochastic import normalize_stochastic

# the row-sum bound `gbdp normalize` reports against; looser than
# model.ROW_SUM_TOL because eigh's Perron vectors are accurate in norm, not
# per component, on long or one-axis grids
NORMALIZE_CHECK_TOL = 1e-10


def tolerance(text):
    """The value of --tol: a finite, non-negative number."""
    tol = float(text)
    if not 0.0 <= tol < math.inf:
        raise argparse.ArgumentTypeError(
            "must be a finite, non-negative number, got %r" % text)
    return tol


def describe_constraint(c):
    return (
        "family %d at base %s: step %+d along direction %d vs "
        "step %+d along direction %d"
        % (c.family, c.base, c.step_i, c.i, c.step_j, c.j)
    )


def cmd_check_commute(args):
    model = fileio.load_model(args.model)
    q = model.shape.q
    if q == 1:
        print("single direction: commutation is vacuous")
        return 0
    all_ok = True
    for i in range(1, q + 1):
        for j in range(i + 1, q + 1):
            # each commutator entry is one constraint residual, so the
            # largest residual is both numbers printed
            size = np.abs(commute.pair_residuals(model, i, j))
            worst = float(size.max())
            verdict = "commute" if worst <= args.tol else "FAIL"
            print(
                "pair (%d,%d): commutator residual %.3e, "
                "max constraint residual %.3e [%s]"
                % (i, j, worst, worst, verdict)
            )
            if worst > args.tol:
                all_ok = False
                failing = np.flatnonzero(size > args.tol)
                shown = failing[:10]
                left1, _, right1, _ = commute.constraint_columns(
                    model.shape, i, j)
                for c in commute.constraint_labels(
                        model.shape, left1[shown], right1[shown]):
                    print("  violated: " + describe_constraint(c))
                if len(failing) > 10:
                    print("  ... and %d more" % (len(failing) - 10))
    return 0 if all_ok else 1


def _write_csv(out, write, *args):
    """write(f, *args) to the file `out`, or to stdout when out is None."""
    if out:
        with open(out, "w", newline="") as f:
            write(f, *args)
    else:
        write(sys.stdout, *args)


def cmd_kstep(args):
    p = fileio.load_params(args.params)
    if p.shape.l1 == p.shape.l2:
        matrix = k_step(p, args.k, args.self_mass)
    else:  # the blocks are not symmetric: the dense power is the only route
        model = build_model(p, check_self_mass(args.self_mass) or None)
        matrix = matrix_power(full_matrix(model), args.k)
    _write_csv(args.out, fileio.write_matrix_csv,
               build_grid(p.shape).states, matrix)
    return 0


def _int_list(text, flag):
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError:
        raise GbdpError("%s must be comma-separated integers, got %r"
                        % (flag, text))


def cmd_ranks(args):
    shape = GridShape(_int_list(args.dims, "--dims"), args.l, args.l)
    cert = certified_ranks(shape)
    formula_q = rank_formula_Q(shape)
    formula_r = rank_formula_R(shape)
    complement = cert.rank_Q + cert.rank_R == cert.cols
    # certified_ranks returns only once every constraint is checked to be
    # two paths that repeat their legs, which makes Q R^T = 0
    print(
        "Q: %dx%d rank %d (formula %d); R: %dx%d rank %d (formula %d); "
        "QR^T=0: yes; rank Q + rank R = columns: %s"
        % (
            cert.rows, cert.cols, cert.rank_Q, formula_q,
            cert.params, cert.cols, cert.rank_R, formula_r,
            "yes" if complement else "NO",
        )
    )
    if args.dump:
        for m, tag in ((nonzeros_Q(shape), ".Q"), (nonzeros_R(shape), ".R")):
            paths = fileio.dump_int_matrix(m, args.dump + tag)
            print("wrote " + ", ".join(paths))
    ok = complement and (cert.rank_Q, cert.rank_R) == (formula_q, formula_r)
    return 0 if ok else 1


def cmd_normalize(args):
    p = fileio.load_params(args.params)
    result = normalize_stochastic(p, args.self_mass)
    fileio.save_params(result, args.out)
    mass = row_mass(build_model(result, self_prob=args.self_mass or None))
    ok = abs(mass - 1.0).max() <= NORMALIZE_CHECK_TOL
    print(
        "wrote %s; row sums stochastic within %g: %s"
        % (args.out, NORMALIZE_CHECK_TOL, "yes" if ok else "NO")
    )
    return 0


def cmd_simulate(args):
    model = fileio.load_model(args.model)
    start = _int_list(args.start, "--from")
    freqs = empirical_kstep(model, start, args.k, args.trials, args.seed)
    _write_csv(args.out, fileio.write_frequency_csv, freqs, args.trials)
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
    p.add_argument("--tol", type=tolerance, default=commute.DEFAULT_TOL,
                   help="absolute tolerance, finite and non-negative "
                        "(default %(default)g)")
    p.set_defaults(func=cmd_check_commute)

    p = sub.add_parser(
        "kstep", help="k-step transition matrix of a parametrized model: "
                      "spectral when l1 = l2, else the dense matrix power"
    )
    p.add_argument("--params", required=True, help="parametrization JSON file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--self", dest="self_mass", type=float, default=0.0,
                   help="scalar self-transition mass")
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
    except MemoryError as exc:
        print("error: out of memory: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
