"""Vertex/edge parametrization of commuting models.

A model of the form

    p(u, v) = alpha_u * Gamma(u, v) / alpha_v

with alpha a positive weight per state and Gamma a positive weight constant
on each translation class of edges always has pairwise commuting
directional matrices.  A class is identified by its direction i, the
smaller endpoint offset r along that direction, and the jump size x
(r + x <= n_i); edges differing only in the perpendicular coordinates share
their Gamma.

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

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConsistencyError, DomainError, PositivityError
from .lattice import (edge_columns, edge_pairs, edge_table, grid_states,
                      require_equal_bounds)
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


def edge_class_of(shape, u, v):
    """The class of the adjacent pair {u, v}; symmetric in u and v."""
    col = int(edge_columns(shape, [(tuple(u), tuple(v))])[0])
    if col < 0:
        raise DomainError(
            "states %s and %s are not adjacent on the grid"
            % (tuple(u), tuple(v))
        )
    return edge_classes(shape)[edge_table(shape).cls[col]]


@dataclass
class Parametrization:
    """alpha: state -> positive weight; gamma: EdgeClass -> non-negative weight.

    A zero gamma drops the edges of that class from generated models (such
    models may fail irreducibility checks downstream); strictly positive
    gamma is required by the operations that assume it.
    """

    shape: object
    alpha: dict
    gamma: dict

    def __post_init__(self):
        self.alpha = {tuple(u): float(a) for u, a in self.alpha.items()}
        self.gamma = {EdgeClass(*c): float(g) for c, g in self.gamma.items()}
        states = grid_states(self.shape)
        for u in states:
            if u not in self.alpha:
                raise DomainError("alpha missing entry for state %s" % (u,))
            if self.alpha[u] <= 0.0:
                raise PositivityError(
                    "alpha at %s must be strictly positive (got %r)"
                    % (u, self.alpha[u])
                )
        if len(self.alpha) != len(states):
            extra = set(self.alpha) - set(states)
            raise DomainError(
                "alpha has entries for off-grid states: %s" % sorted(extra)
            )
        wanted = set(edge_classes(self.shape))
        if set(self.gamma) != wanted:
            missing = sorted(wanted - set(self.gamma))
            extra = sorted(set(self.gamma) - wanted)
            raise DomainError(
                "gamma must have exactly one entry per edge class "
                "(missing %s, extra %s)" % (missing, extra)
            )
        for c, g in self.gamma.items():
            if g < 0.0:
                raise PositivityError(
                    "gamma for class %s must be non-negative (got %r)" % (c, g)
                )


def param_counts(shape):
    """(edge class count, vertex count) for l1 = l2 = l."""
    require_equal_bounds(shape, "parameter counting")
    return len(edge_table(shape).classes), shape.n_states


def build_model(p, self_prob=None, absorbing=False):
    """The model with p(u, v) = alpha_u * gamma(class) / alpha_v per edge.

    Raw outputs need not be sub-stochastic; Perron rescaling makes them so.
    Classes with gamma = 0 contribute no edge.
    """
    t = edge_table(p.shape)
    alpha = np.array([p.alpha[u] for u in grid_states(p.shape)])
    gamma = np.array([p.gamma[c] for c in edge_classes(p.shape)])[t.cls]
    prob = alpha[t.src] * gamma / alpha[t.dst]
    probs = {e: x for e, x, g in zip(edge_pairs(p.shape), prob.tolist(),
                                     gamma.tolist()) if g != 0.0}
    return TransitionModel(p.shape, probs, self_prob, absorbing)


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

    back = t.column[:, :, shape.l1]  # the unit backward moves
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


def detailed_balance_check(model, beta, tol=1e-10):
    """(bool, worst) for |beta_u p(u,v) - beta_v p(v,u)| <= tol on all edges.

    worst is (u, v, violation) for the largest violation.
    """
    beta = {tuple(u): float(b) for u, b in beta.items()}
    for u, b in beta.items():
        if b <= 0.0:
            raise PositivityError(
                "beta at %s must be strictly positive (got %r)" % (u, b)
            )
    t = edge_table(model.shape)
    b = np.array([beta[u] for u in grid_states(model.shape)])
    prob = model.edge_prob
    up = np.flatnonzero(t.step > 0)
    back = np.where(t.reverse[up] >= 0, prob[t.reverse[up]], 0.0)
    violation = np.abs(b[t.src[up]] * prob[up] - b[t.dst[up]] * back)
    k = int(np.argmax(violation))
    worst = edge_pairs(model.shape)[up[k]] + (float(violation[k]),)
    return worst[2] <= tol, worst
