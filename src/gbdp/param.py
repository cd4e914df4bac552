"""Vertex/edge parametrization of commuting models.

A model of the form

    p(u, v) = alpha_u * Gamma(u, v) / alpha_v

with alpha a positive weight per state and Gamma a positive weight constant
on each translation class of edges always has pairwise commuting
directional matrices.  A class is identified by its direction i, the
smaller endpoint offset r along that direction, and the jump size x
(r + x <= n_i); edges differing only in the perpendicular coordinates share
their Gamma.

A Parametrization is a read-only value, checked once; it also holds its
weights as arrays, which build_model, the blocks and k_step read.

build_model evaluates the formula; recover_params inverts it via the
reversible measure beta (path products of forward over backward
probabilities), with alpha_u = beta_u^(-1/2), gauged to beta = 1 at the
origin.  For unit jumps every positive commuting model is of this form.
With jumps of size >= 2 commutation alone is weaker (the forward and
backward weights of a class can scale independently), so recover_params
checks that every edge gives its class one weight, and raises
ConsistencyError for commuting models outside the parametrized family.
Parameters are determined up to one global constant.
"""

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import ConsistencyError, DomainError, PositivityError
from .lattice import (edge_pairs, edge_table, grid_states, is_real,
                      move_slot, require_equal_bounds)
from .model import TransitionModel

# relative tolerance for the agreement of a class's edges: beta is a
# product of at most sum(n_i) O(1) factors, which keeps relative error near
# machine precision
CONSISTENCY_RTOL = 1e-9


class EdgeClass(NamedTuple):
    """Canonical label of a translation class of edges."""

    direction: int  # 1-based
    offset: int  # smaller endpoint coordinate r
    step: int  # jump size x >= 1; r + x <= n_direction


def edge_classes(shape):
    """All edge classes, ordered by direction, jump size, offset."""
    return [EdgeClass(*c) for c in edge_table(shape).classes.tolist()]


@dataclass(frozen=True)
class Parametrization:
    """alpha: state -> finite positive weight; gamma: EdgeClass -> finite
    non-negative weight; both read-only, and held again as read-only arrays,
    alpha_vector in lattice order and gamma_vector in edge_classes order.
    To change a weight, build Parametrization(shape, alpha, {**gamma, c: g}).

    A zero gamma drops the edges of that class from generated models (such
    models may fail irreducibility checks downstream); strictly positive
    gamma is required by the operations that assume it.
    """

    shape: object
    alpha: Mapping
    gamma: Mapping
    alpha_vector: np.ndarray = field(init=False, repr=False, compare=False)
    gamma_vector: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        alpha = _weights(self.alpha, "alpha", tuple, "a state")
        gamma = _weights(self.gamma, "gamma", lambda c: EdgeClass(*c),
                         "an edge class (direction, offset, step)")
        states = grid_states(self.shape)
        for u in states:
            if u not in alpha:
                raise DomainError("alpha missing entry for state %s" % (u,))
            if not 0.0 < alpha[u] < math.inf:
                raise PositivityError(
                    "alpha at %s must be strictly positive and finite (got %r)"
                    % (u, alpha[u])
                )
        if len(alpha) != len(states):
            raise DomainError("alpha has entries for off-grid states: %s"
                              % sorted(alpha.keys() - set(states)))
        classes = edge_classes(self.shape)
        wanted = set(classes)
        if gamma.keys() != wanted:
            raise DomainError(
                "gamma must have exactly one entry per edge class (missing "
                "%s, extra %s)" % (sorted(wanted - gamma.keys()),
                                   sorted(gamma.keys() - wanted)))
        for c, g in gamma.items():
            if not 0.0 <= g < math.inf:
                raise PositivityError(
                    "gamma for class %s must be non-negative and finite "
                    "(got %r)" % (c, g))
        a = np.fromiter(map(alpha.__getitem__, states), float, len(states))
        g = np.fromiter(map(gamma.__getitem__, classes), float, len(classes))
        a.flags.writeable = g.flags.writeable = False
        object.__setattr__(self, "alpha", MappingProxyType(alpha))
        object.__setattr__(self, "gamma", MappingProxyType(gamma))
        object.__setattr__(self, "alpha_vector", a)
        object.__setattr__(self, "gamma_vector", g)


def _weights(table, name, key_of, what):
    """{key_of(key): float(weight)} over a weight table; DomainError names
    the first key that does not convert, or the first weight that is no
    real number within the double range (strings and bools are none)."""
    out = {}
    for key, w in table.items():
        try:
            key = key_of(key)
        except TypeError:
            raise DomainError("%s key %r is not %s"
                              % (name, key, what)) from None
        if not is_real(w):
            raise DomainError("%s at %s must be a real number (got %r)"
                              % (name, key, w))
        out[key] = float(w)
    return out


def build_model(p, self_prob=None, absorbing=False):
    """The model with p(u, v) = alpha_u * gamma(class) / alpha_v per edge.

    Raw outputs need not be sub-stochastic; Perron rescaling makes them so.
    Classes with gamma = 0 contribute no edge.
    """
    t, alpha = edge_table(p.shape), p.alpha_vector
    gamma = p.gamma_vector[t.cls]
    columns = np.flatnonzero(gamma != 0.0)
    prob = alpha[t.src[columns]] * gamma[columns] / alpha[t.dst[columns]]
    return TransitionModel._of_columns(p.shape, columns, prob, self_prob,
                                       absorbing)


def recover_params(model):
    """Invert the parametrization of a positive commuting model.

    beta is the product of forward over backward probabilities along unit
    steps from the origin, direction by direction.  Every edge must then
    give its class the same gamma = p(u, v) alpha_v / alpha_u (relative
    tolerance 1e-9): this is detailed balance on every edge, which makes
    beta path-independent, plus translation invariance of every class.
    """
    shape = model.shape
    require_equal_bounds(shape, "recovery")
    t = edge_table(shape)
    prob = model.edge_prob
    bad = np.flatnonzero(prob <= 0.0)
    if bad.size:
        raise PositivityError(
            "recovery needs strictly positive probabilities; edge %s->%s "
            "has %r" % (*edge_pairs(shape)[bad[0]], prob[bad[0]])
        )

    back = t.column[:, :, move_slot(-1, shape.l1)]  # unit backward moves
    ratio = np.where(back >= 0, prob[t.reverse[back]] / prob[back], 1.0)
    ratio = ratio.reshape(tuple(n + 1 for n in shape.dims) + (shape.q,))
    beta = np.ones(())
    for i in range(shape.q):  # the later coordinates stay at 0
        at = (slice(None),) * (i + 1) + (0,) * (shape.q - i - 1) + (i,)
        beta = beta[..., None] * np.cumprod(ratio[at], axis=-1)
    alpha = beta.ravel() ** -0.5

    val = prob * alpha[t.dst] / alpha[t.src]
    _, first = np.unique(t.cls, return_index=True)
    ref = val[first][t.cls]
    rel = np.abs(val - ref) / np.maximum(val, ref)
    k = int(np.argmax(rel))
    if rel[k] > CONSISTENCY_RTOL:
        raise ConsistencyError(
            "edge parameter differs across class %s "
            "(%.17g at %s->%s vs %.17g): model does not commute"
            % (edge_classes(shape)[t.cls[k]], val[k], *edge_pairs(shape)[k],
               ref[k])
        )
    return Parametrization(shape, dict(zip(grid_states(shape), alpha.tolist())),
                           dict(zip(edge_classes(shape), val[first].tolist())))

