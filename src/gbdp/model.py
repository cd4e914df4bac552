"""Transition probability storage and matrix assembly.

A TransitionModel stores one-step probabilities sparsely, keyed by directed
edge (u, v); an absent key means probability zero.  Moves that would exit
the grid can never be legal keys.  Optional self-transition mass is either
a single scalar shared by all states or a per-state table.  When `absorbing`
is true, any per-row probability deficit is interpreted as mass sent to an
implicit sink state that never appears in matrices.

A model is a value: its fields and tables are read-only after construction.
To change a probability, copy `dict(model.probs)`, edit the copy and build
a new model.  Every consumer reads `edge_prob`, `illegal` and `self_mass`,
which follow the shape's edge table.  The models of build_model and
load_model carry the edge column of each key from the start; a model built
from a dict by hand maps its keys to columns once, on first use.

full_matrix materializes the dense P = sum_i P_i + D, with P_i the moves
along coordinate i and D the diagonal of self masses, in the lattice index
order; only the dense k-step power needs it.  No production route forms a
single P_i: the dense P_i are test oracles.
"""

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from types import MappingProxyType

import numpy as np

from .errors import DomainError
from .lattice import (_state_index, edge_columns, edge_pairs, edge_table,
                      grid_states, in_grid, is_real, move_slot)

# absolute tolerance for the "row sum = 1" check; all arithmetic is double
# precision and grids are small
ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class TransitionModel:
    shape: object
    probs: Mapping  # (u, v) -> probability in (0, 1]
    self_prob: object = None  # None, scalar in [0, 1), or per-state map
    absorbing: bool = False

    def __post_init__(self):
        object.__setattr__(self, "probs", MappingProxyType({
            (tuple(u), tuple(v)): float(p) for (u, v), p in self.probs.items()
        }))
        if isinstance(self.self_prob, Mapping):
            object.__setattr__(self, "self_prob", MappingProxyType({
                tuple(u): float(d) for u, d in self.self_prob.items()
            }))

    @classmethod
    def _of_columns(cls, shape, columns, prob, self_prob, absorbing):
        """The model of the edges at edge_table `columns`, an int array of
        distinct columns, with probabilities `prob`, a float array aligned
        with it: its keys are those edges in the order of `columns`, and
        `columns` stands in for the lookup of `_columns`."""
        pairs = edge_pairs(shape)
        model = cls(shape, {}, self_prob, absorbing)
        object.__setattr__(model, "probs", MappingProxyType(dict(zip(
            map(pairs.__getitem__, columns.tolist()), prob.tolist()))))
        object.__setattr__(model, "_columns", columns)
        return model

    def p(self, u, v):
        """The probability of u -> v that edge_prob holds: 0 unless both
        ends are states in_grid accepts and u -> v is an edge."""
        u, v = tuple(u), tuple(v)
        shape = self.shape
        if not (in_grid(shape, u) and in_grid(shape, v)):
            return 0.0
        moves = [(axis, int(b) - int(a))
                 for axis, (a, b) in enumerate(zip(u, v)) if a != b]
        lmax = max(shape.l1, shape.l2)
        if len(moves) != 1 or abs(moves[0][1]) > lmax:
            return 0.0
        axis, step = moves[0]
        column = edge_table(shape).column[_state_index(shape, u), axis,
                                          move_slot(step, lmax)]
        return float(self.edge_prob[column]) if column >= 0 else 0.0

    def self_of(self, u):
        """The self mass of u that self_mass holds: 0 unless u is a state
        in_grid accepts."""
        if self.self_prob is None:
            return 0.0
        u = tuple(u)
        if not in_grid(self.shape, u):
            return 0.0
        return float(self.self_mass[_state_index(self.shape, u)])

    @cached_property
    def _columns(self):
        """The edge_table column of every key, in key order; -1 where the
        key is no edge, or has an end that in_grid refuses (a bool or a
        string coordinate)."""
        keys = list(self.probs)
        fit = [in_grid(self.shape, u) and in_grid(self.shape, v)
               for u, v in keys]
        columns = np.full(len(keys), -1)
        columns[fit] = edge_columns(self.shape, list(compress(keys, fit)))
        return columns

    @cached_property
    def edge_prob(self):
        """The probabilities in edge_table column order; keys that are no
        edge are left out."""
        on = self._columns >= 0
        vec = np.zeros(len(edge_table(self.shape).src))
        vec[self._columns[on]] = np.fromiter(
            self.probs.values(), float, len(self.probs))[on]
        vec.flags.writeable = False
        return vec

    @cached_property
    def illegal(self):
        """The keys that are no edge, in insertion order; such keys are
        validation violations and are otherwise ignored."""
        return tuple(key for key, c in zip(self.probs, self._columns.tolist())
                     if c < 0)

    @cached_property
    def self_mass(self):
        """Self-transition mass of every state, in lattice order; table keys
        that in_grid refuses are left out."""
        if isinstance(self.self_prob, Mapping):
            on = {u: d for u, d in self.self_prob.items()
                  if in_grid(self.shape, u)}
            mass = np.array([on.get(u, 0.0) for u in grid_states(self.shape)])
        else:
            mass = np.full(self.shape.n_states, float(self.self_prob or 0.0))
        mass.flags.writeable = False
        return mass


def check_self_mass(alpha_self):
    """alpha_self as a float; DomainError unless it is a real number, not
    a bool, in [0, 1)."""
    if not is_real(alpha_self):
        raise DomainError("self mass must be a real number, got %r"
                          % (alpha_self,))
    a = float(alpha_self)
    if not 0.0 <= a < 1.0:
        raise DomainError("self mass %r outside [0, 1)" % alpha_self)
    return a


def validate(model):
    """List of human-readable invariant violations; empty iff the model is valid.

    Violations are data, not errors: callers decide whether to proceed.
    """
    shape = model.shape
    report = []
    illegal = set(model.illegal)
    for (u, v), p in model.probs.items():
        if (u, v) in illegal:
            report.append(
                "edge %s->%s exits grid or is not a legal jump" % (u, v)
            )
        if not (0.0 < p <= 1.0):
            report.append(
                "probability %r on edge %s->%s outside (0, 1]" % (p, u, v)
            )
    if isinstance(model.self_prob, Mapping):
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
    src, n = edge_table(model.shape).src, model.shape.n_states
    return (np.bincount(src, weights=model.edge_prob, minlength=n)
            + model.self_mass)


def full_matrix(model):
    """P = sum over directions of P_i, plus D."""
    t = edge_table(model.shape)
    out = np.diag(model.self_mass)
    out[t.src, t.dst] = model.edge_prob
    return out
