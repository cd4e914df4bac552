"""The sampler as one numpy Philox generator per trajectory and one
binary search per step over a dict of per-state cumulative lists: slow,
but written straight from the module docstring of gbdp.simulate."""

import numpy as np

from gbdp.lattice import edge_table, grid_states


def transition_table(model):
    """state -> (targets ordered by linear index then self, cumulative
    bounds) over the grid's edges."""
    t = edge_table(model.shape)
    states = grid_states(model.shape)
    order = np.lexsort((t.dst, t.src))
    ends = np.searchsorted(t.src[order], range(len(states) + 1)).tolist()
    targets = [states[v] for v in t.dst[order].tolist()]
    probs, stay = model.edge_prob[order].tolist(), model.self_mass.tolist()
    return {
        u: (targets[a:b] + [u], np.cumsum(probs[a:b] + [stay[k]]))
        for k, (u, a, b) in enumerate(zip(states, ends, ends[1:]))
    }


def stream(seed, t):
    """The generator of trajectory t under master seed `seed`."""
    key = np.array([seed % 2 ** 64, t], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def empirical_kstep(model, u0, k, trials, seed):
    table = transition_table(model)
    counts = {}
    for t in range(trials):
        u = tuple(u0)
        for r in stream(seed, t).random(k):
            targets, cum = table[u]
            idx = int(np.searchsorted(cum, r, side="right"))
            if idx < len(targets):
                u = targets[idx]
            elif model.absorbing:
                u = None
                break
            else:
                u = targets[-1]
        counts[u] = counts.get(u, 0) + 1
    return {state: n / trials for state, n in counts.items()}
