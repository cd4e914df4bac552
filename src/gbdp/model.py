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
from .lattice import edge_columns, edge_table, grid_states, in_grid

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


def edge_vector(model):
    """(probabilities in edge_table column order, keys that are no edge);
    such keys are validation violations and are otherwise ignored."""
    keys = list(model.probs)
    cols = edge_columns(model.shape, keys)
    probs = np.fromiter(model.probs.values(), dtype=float, count=len(keys))
    vec = np.zeros(len(edge_table(model.shape).src))
    vec[cols[cols >= 0]] = probs[cols >= 0]
    return vec, [key for key, c in zip(keys, cols.tolist()) if c < 0]


def self_vector(model):
    """Self-transition mass of every state, in lattice order."""
    return np.array([model.self_of(u) for u in grid_states(model.shape)])


def validate(model):
    """List of human-readable invariant violations; empty iff the model is valid.

    Violations are data, not errors: callers decide whether to proceed.
    """
    shape = model.shape
    report = []
    illegal = set(edge_vector(model)[1])
    for (u, v), p in model.probs.items():
        if (u, v) in illegal:
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
    for u, mass in zip(grid_states(shape), row_mass(model).tolist()):
        if mass > 1.0 + ROW_SUM_TOL:
            report.append("probability mass exceeds 1 at %s (%.17g)" % (u, mass))
        elif not model.absorbing and mass < 1.0 - ROW_SUM_TOL:
            report.append(
                "probability mass %.17g < 1 at %s with no absorbing sink"
                % (mass, u)
            )
    return report


def row_mass(model):
    """Per-state outgoing mass: sum of edge probabilities plus self mass."""
    vec, _ = edge_vector(model)
    src, n = edge_table(model.shape).src, model.shape.n_states
    return np.bincount(src, weights=vec, minlength=n) + self_vector(model)


def directional_matrix(model, i):
    """Matrix P_i of moves along coordinate i (1-based); other entries zero.

    Keys that are not legal grid edges (a validation violation) are skipped.
    """
    shape = model.shape
    if not 1 <= i <= shape.q:
        raise DomainError("direction %d outside 1..%d" % (i, shape.q))
    t = edge_table(shape)
    vec, _ = edge_vector(model)
    out = np.zeros((shape.n_states, shape.n_states))
    out[t.src, t.dst] = np.where(t.direction == i, vec, 0.0)
    return out


def self_matrix(model):
    """Diagonal matrix D of self-transition probabilities."""
    return np.diag(self_vector(model))


def full_matrix(model):
    """P = sum over directions of P_i, plus D."""
    t = edge_table(model.shape)
    vec, _ = edge_vector(model)
    out = self_matrix(model)
    out[t.src, t.dst] = vec
    return out
