"""
Closed-form k-step probabilities from small symmetric blocks
============================================================

With equal jump bounds the directional matrices share the conjugation
P_i = B A(i) B^{-1}, where each A(i) is a Kronecker product carrying one
small symmetric banded block.  Diagonalizing the blocks (sizes n_i + 1,
here 3 and 3) gives every power of the full transition matrix at once; no
9x9 matrix is ever multiplied.
"""

import numpy as np

from gbdp import (
    GridShape,
    Parametrization,
    build_grid,
    build_model,
    edge_classes,
    full_matrix,
    k_step,
    matrix_power,
    normalize_stochastic,
)
from gbdp.spectral import block_decompose

rng = np.random.default_rng(2)
shape = GridShape((2, 2), 2, 2)
grid = build_grid(shape)

raw = Parametrization(
    shape,
    {u: float(rng.uniform(0.5, 2.0)) for u in grid.states},
    {c: float(rng.uniform(0.5, 2.0)) for c in edge_classes(shape)},
)
p = normalize_stochastic(raw)  # rescale so every row sums to 1

# the two 3x3 blocks: symmetric, zero diagonal, bandwidth 2
for i, block in enumerate(block_decompose(p), start=1):
    print("block for direction %d:" % i)
    print(np.round(block, 4))

# spectral k-step against plain repeated multiplication
m = full_matrix(build_model(p))
for k in (1, 5, 30):
    gap = np.abs(k_step(p, k) - matrix_power(m, k)).max()
    print("k=%2d  max |spectral - power| = %.2e" % (k, gap))

# the 5-step distribution out of the center state
row = k_step(p, 5)[grid.index_of((1, 1))]
print("5-step law from (1,1):")
for u, prob in zip(grid.states, row):
    print("   %s  %.4f" % (u, prob))

# a scalar self-transition mass only shifts every block eigenvalue
a = 0.2
pa = normalize_stochastic(raw, alpha_self=a)
ma = full_matrix(build_model(pa)) + a * np.eye(len(grid))
gap = np.abs(k_step(pa, 10, a) - matrix_power(ma, 10)).max()
print("with self mass %.1f, k=10: max gap %.2e" % (a, gap))
