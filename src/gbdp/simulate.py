"""Monte Carlo simulation of the chain, as an independent statistical oracle.

Randomness comes from the counter-based Philox4x64-10 generator, keyed by
(seed, trajectory index): trajectory t of a run with master seed s draws
the uniforms of np.random.Generator(np.random.Philox(key=[s mod 2**64, t])),
with the key taken as two exact uint64 words for every integer s, negative
or not.  Output is therefore bit-reproducible across platforms and
trivially partitionable across workers.

Philox is stateless (Salmon et al., "Parallel Random Numbers: As Easy as
1, 2, 3", SC'11): block b of a stream is a pure function of the key and
the counter (b + 1, 0, 0, 0).  So the stream is computed here in numpy
for a whole chunk of trajectories at once, and each step advances every
trajectory of the chunk together.  Chunks of CHUNK trajectories bound the
transient arrays; they do not change the draws.

Each step inverts the cumulative one-step distribution, with outgoing moves
ordered by target linear index, then the self-transition, then the sink.
A trajectory that falls into the sink (possible only for absorbing models)
terminates and is reported under the key None.
"""

import numpy as np

from .errors import DomainError
from .lattice import Grid, edge_table, is_integer
from .model import ROW_SUM_TOL, row_mass
from .spectral import _check_power

CHUNK = 4096  # trajectories stepped together

_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_U32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)


def _mulhilo(a, m):
    """(high, low) 64-bit words of the 128-bit products of the uint64
    array a with the constant m, from 32-bit halves."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    a_lo, a_hi = a & _U32, a >> _S32
    ll, lh, hl = a_lo * m_lo, a_lo * m_hi, a_hi * m_lo
    mid = (ll >> _S32) + (lh & _U32) + (hl & _U32)
    hi = a_hi * m_hi + (lh >> _S32) + (hl >> _S32) + (mid >> _S32)
    return hi, a * np.uint64(m)


def philox_uniforms(seed, first, count, block):
    """Uniforms 4*block .. 4*block + 3 of the streams of trajectories
    first .. first + count - 1, as a (count, 4) float64 array."""
    k0 = seed % 2 ** 64
    k1 = np.arange(first, first + count, dtype=np.uint64)
    c0 = np.full(count, block + 1, dtype=np.uint64)
    c1 = c2 = c3 = np.zeros(count, dtype=np.uint64)
    for r in range(10):
        hi0, lo0 = _mulhilo(c0, _PHILOX_M[0])
        hi1, lo1 = _mulhilo(c2, _PHILOX_M[1])
        key0 = np.uint64((k0 + r * _PHILOX_W[0]) % 2 ** 64)
        c0, c1, c2, c3 = hi1 ^ c1 ^ key0, lo1, hi0 ^ c3 ^ k1, lo0
        k1 = k1 + np.uint64(_PHILOX_W[1])
    words = np.stack([c0, c1, c2, c3], axis=1)
    return (words >> np.uint64(11)) * 2.0 ** -53


def _require_samplable(model):
    t, p = edge_table(model.shape), model.edge_prob

    def state(k):
        return tuple(t.coords[k].tolist())

    bad = np.flatnonzero(~((p >= 0.0) & (p <= 1.0)))  # NaN fails both
    if bad.size:
        k = bad[0]
        raise DomainError(
            "cannot sample: probability %r on edge %s->%s outside [0, 1]"
            % (float(p[k]), state(t.src[k]), state(t.dst[k])))
    mass = row_mass(model)
    bad = np.flatnonzero(~np.isfinite(mass))
    if bad.size:
        raise DomainError("cannot sample: row mass %r at %s is not finite"
                          % (float(mass[bad[0]]), state(bad[0])))
    bad = np.flatnonzero(model.self_mass < 0.0)
    if bad.size:  # a negative mass makes a CDF row fall
        raise DomainError("cannot sample: self mass %r at %s outside [0, 1]"
                          % (float(model.self_mass[bad[0]]), state(bad[0])))
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


def cdf_table(model):
    """(bounds, targets): row u lists the cumulative bounds of u's grid
    edges ordered by target index, then of u's self mass, then +inf.

    targets[u, j] is the state index picked by a draw r with j bounds of
    row u at or below r.  Index n (the number of states) is the sink; it
    is picked beyond the listed mass of an absorbing model, while a
    stochastic model stays put there.  Row n keeps the sink in place.
    Keys that are no grid edge are never taken, as in row_mass.
    """
    t = edge_table(model.shape)
    n = model.shape.n_states
    order = np.lexsort((t.dst, t.src))
    src = t.src[order]
    deg = np.bincount(src, minlength=n)
    slot = np.arange(len(src)) - (np.cumsum(deg) - deg)[src]
    width = int(deg.max()) + 2
    mass = np.zeros((n + 1, width))
    mass[src, slot] = model.edge_prob[order]
    mass[np.arange(n), deg] = model.self_mass
    bounds = np.cumsum(mass, axis=1)
    pad = np.arange(width) > np.append(deg, -1)[:, None]
    bounds[pad] = np.inf
    rows = np.arange(n + 1)[:, None]
    targets = np.where(pad, n if model.absorbing else rows, rows)
    targets[src, slot] = t.dst[order]
    return bounds, targets


def step(bounds, targets, cur, r):
    """Next state index of every trajectory at state index cur on draws r."""
    return targets[cur, (bounds[cur] <= r[:, None]).sum(axis=1)]


def empirical_kstep(model, u0, k, trials, seed):
    """Frequency of each end state over `trials` k-step trajectories from u0.

    Deterministic in (model, u0, k, trials, seed); absorbed trajectories are
    tallied under None.
    """
    if not is_integer(trials):
        raise DomainError("trials must be an integer, got %r" % (trials,))
    if trials < 1:
        raise DomainError("trials must be positive, got %r" % (trials,))
    k = _check_power(k)
    if not is_integer(seed):
        raise DomainError("seed must be an integer, got %r" % (seed,))
    trials, seed = int(trials), int(seed)
    _require_samplable(model)
    grid = Grid(model.shape)
    start = grid.index_of(u0)
    bounds, targets = cdf_table(model)
    n = len(grid)
    counts = np.zeros(n + 1, dtype=np.int64)
    for first in range(0, trials, CHUNK):
        m = min(CHUNK, trials - first)
        cur = np.full(m, start)
        for j in range(k):
            if j % 4 == 0:
                draws = philox_uniforms(seed, first, m, j // 4)
            cur = step(bounds, targets, cur, draws[:, j % 4])
        counts += np.bincount(cur, minlength=n + 1)
    return {
        (grid.states[i] if i < n else None): c / trials
        for i, c in enumerate(counts.tolist()) if c
    }
