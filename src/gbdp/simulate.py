"""Monte Carlo simulation of the chain, as an independent statistical oracle.

Randomness comes from numpy's counter-based Philox generator, keyed by
(seed, trajectory index): trajectory t of a run with master seed s draws
from Philox(key=[s, t]).  Output is therefore bit-reproducible across
platforms and trivially partitionable across workers.

Each step inverts the cumulative one-step distribution, with outgoing moves
ordered by target linear index, then the self-transition, then the sink.
A trajectory that falls into the sink (possible only for absorbing models)
terminates and is reported under the key None.
"""

import numpy as np

from .errors import DomainError
from .lattice import edge_table, grid_states
from .model import ROW_SUM_TOL, edge_vector, row_mass, self_vector


def _require_samplable(model):
    mass = row_mass(model)
    bad_hi = float(mass.max())
    if bad_hi > 1.0 + ROW_SUM_TOL:
        raise DomainError(
            "cannot sample: probability mass exceeds 1 (max row mass %.17g)"
            % bad_hi
        )
    if not model.absorbing and float(mass.min()) < 1.0 - ROW_SUM_TOL:
        raise DomainError(
            "cannot sample: model is not stochastic (min row mass %.17g) "
            "and has no absorbing sink" % float(mass.min())
        )


def _transition_table(model):
    """state -> (targets ordered by linear index then self, cumulative bounds)
    over the grid's edges, as in row_mass: illegal keys are never taken."""
    t = edge_table(model.shape)
    states = grid_states(model.shape)
    prob, _ = edge_vector(model)
    order = np.lexsort((t.dst, t.src))
    ends = np.searchsorted(t.src[order], range(len(states) + 1)).tolist()
    targets = [states[v] for v in t.dst[order].tolist()]
    probs, stay = prob[order].tolist(), self_vector(model).tolist()
    return {
        u: (targets[a:b] + [u], np.cumsum(probs[a:b] + [stay[k]]))
        for k, (u, a, b) in enumerate(zip(states, ends, ends[1:]))
    }


def _pick(targets, cum, r, absorbing):
    idx = int(np.searchsorted(cum, r, side="right"))
    if idx >= len(targets):
        # beyond all listed mass: the sink, or rounding slack at the top
        return None if absorbing else targets[-1]
    return targets[idx]


def empirical_kstep(model, u0, k, trials, seed):
    """Frequency of each end state over `trials` k-step trajectories from u0.

    Deterministic in (model, u0, k, trials, seed); absorbed trajectories are
    tallied under None.
    """
    u0 = tuple(u0)
    if trials < 1:
        raise DomainError("trials must be positive, got %r" % (trials,))
    if int(k) != k or k < 0:
        raise DomainError("step count must be a non-negative integer, got %r" % (k,))
    _require_samplable(model)
    table = _transition_table(model)
    if u0 not in table:
        raise DomainError("state %s is not on the grid" % (u0,))
    counts = {}
    for t in range(trials):
        rng = np.random.Generator(
            np.random.Philox(key=[seed % 2 ** 64, t])
        )
        u = u0
        if k:
            for r in rng.random(int(k)):
                targets, cum = table[u]
                u = _pick(targets, cum, r, model.absorbing)
                if u is None:
                    break
        counts[u] = counts.get(u, 0) + 1
    return {state: n / trials for state, n in counts.items()}
