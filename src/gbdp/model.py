"""Transition probability storage and matrix assembly.

A TransitionModel stores one-step probabilities sparsely, keyed by directed
edge (u, v); an absent key means probability zero.  Moves that would exit
the grid can never be legal keys.  Optional self-transition mass is either
a single scalar shared by all states or a per-state table.  When `absorbing`
is true, any per-row probability deficit is interpreted as mass sent to an
implicit sink state that never appears in matrices.

Dense matrices (the directional parts P_i, the self-transition diagonal D
and the full matrix P = sum_i P_i + D) are materialized on demand in the
lattice index order.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .lattice import build_grid, edge_between, in_grid

# absolute tolerance for the "row sum = 1" check; all arithmetic is double
# precision and grids are small
ROW_SUM_TOL = 1e-12


@dataclass
class TransitionModel:
    shape: object
    probs: dict  # (u, v) -> probability in (0, 1]
    self_prob: object = None  # None, scalar in [0, 1), or per-state map
    absorbing: bool = False

    def __post_init__(self):
        self.probs = {
            (tuple(u), tuple(v)): float(p) for (u, v), p in self.probs.items()
        }
        if isinstance(self.self_prob, dict):
            self.self_prob = {
                tuple(u): float(d) for u, d in self.self_prob.items()
            }

    def p(self, u, v):
        return self.probs.get((tuple(u), tuple(v)), 0.0)

    def self_of(self, u):
        if self.self_prob is None:
            return 0.0
        if isinstance(self.self_prob, dict):
            return self.self_prob.get(tuple(u), 0.0)
        return float(self.self_prob)


def validate(model):
    """List of human-readable invariant violations; empty iff the model is valid.

    Violations are data, not errors: callers decide whether to proceed.
    """
    shape = model.shape
    report = []
    for (u, v), p in model.probs.items():
        if edge_between(shape, u, v) is None:
            report.append(
                "edge %s->%s exits grid or is not a legal jump" % (u, v)
            )
        if not (0.0 < p <= 1.0):
            report.append(
                "probability %r on edge %s->%s outside (0, 1]" % (p, u, v)
            )
    if isinstance(model.self_prob, dict):
        for u, d in model.self_prob.items():
            if not in_grid(shape, u):
                report.append("self-transition at off-grid state %s" % (u,))
            if not (0.0 <= d < 1.0):
                report.append(
                    "self-probability %r at %s outside [0, 1)" % (d, u)
                )
    elif model.self_prob is not None:
        if not (0.0 <= float(model.self_prob) < 1.0):
            report.append(
                "scalar self-probability %r outside [0, 1)" % model.self_prob
            )
    grid = build_grid(shape)
    mass = row_mass(model)
    for k, u in enumerate(grid.states):
        if mass[k] > 1.0 + ROW_SUM_TOL:
            report.append("probability mass exceeds 1 at %s (%.17g)" % (u, mass[k]))
        elif not model.absorbing and mass[k] < 1.0 - ROW_SUM_TOL:
            report.append(
                "probability mass %.17g < 1 at %s with no absorbing sink"
                % (mass[k], u)
            )
    return report


def row_mass(model):
    """Per-state outgoing mass: sum of edge probabilities plus self mass."""
    grid = build_grid(model.shape)
    mass = np.zeros(len(grid))
    for (u, v), p in model.probs.items():
        if edge_between(model.shape, u, v) is not None:
            mass[grid.index_of(u)] += p
    for k, u in enumerate(grid.states):
        mass[k] += model.self_of(u)
    return mass


def directional_matrix(model, i):
    """Matrix P_i of moves along coordinate i (1-based); other entries zero.

    Keys that are not legal grid edges (a validation violation) are skipped.
    """
    shape = model.shape
    if not 1 <= i <= shape.q:
        raise DomainError(
            "direction %d outside 1..%d" % (i, shape.q)
        )
    grid = build_grid(shape)
    n = len(grid)
    out = np.zeros((n, n))
    for (u, v), p in model.probs.items():
        e = edge_between(shape, u, v)
        if e is not None and e.direction == i:
            out[grid.index_of(u), grid.index_of(v)] = p
    return out


def self_matrix(model):
    """Diagonal matrix D of self-transition probabilities."""
    grid = build_grid(model.shape)
    return np.diag([model.self_of(u) for u in grid.states])


def full_matrix(model):
    """P = sum over directions of P_i, plus D."""
    out = self_matrix(model)
    for i in range(1, model.shape.q + 1):
        out += directional_matrix(model, i)
    return out
