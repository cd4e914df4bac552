"""
Stochastic rescaling through the Perron root
============================================

Raw vertex/edge weights give a commuting model whose rows need not sum to
one.  The fix is global: scale every edge-class weight by 1/rho, where rho
is the Perron root of the weight matrix, and replace the vertex weights by
the reciprocal Perron vector.  Commutation is untouched because every
bilinear identity scales uniformly.  The weight matrix is a Kronecker sum
of one small symmetric block per axis, so rho is the sum of the blocks'
top eigenvalues; normalize_stochastic never builds the full matrix, and
the dense eigensolver below is only the cross-check.
"""

import numpy as np

from gbdp import (
    GridShape,
    Parametrization,
    build_grid,
    build_model,
    commutes_direct,
    edge_classes,
    full_matrix,
    normalize_stochastic,
)
from gbdp.spectral import block_decompose, symmetric_eigen

rng = np.random.default_rng(3)
shape = GridShape((2, 2), 2, 2)
grid = build_grid(shape)

raw = Parametrization(
    shape,
    {u: float(rng.uniform(0.5, 2.0)) for u in grid.states},
    {c: float(rng.uniform(0.5, 2.0)) for c in edge_classes(shape)},
)
rows = full_matrix(build_model(raw)).sum(axis=1)
print("raw row sums: min %.3f  max %.3f" % (rows.min(), rows.max()))

p = normalize_stochastic(raw)
rows = full_matrix(build_model(p)).sum(axis=1)
print("normalized row sums: all within %.1e of 1" % np.abs(rows - 1).max())
ok, residual = commutes_direct(build_model(p), 1, 2)
print("still commutes: %s (residual %.1e)" % (ok, residual))

# the all-ones weight case is fully explicit: along each axis every pair
# of the three levels is connected (steps 1 and 2), so the weight matrix
# is the 9x9 adjacency of K3 x K3 with Perron root 2 + 2 = 4 and uniform
# Perron vector
flat = Parametrization(
    shape,
    {u: 1.0 for u in grid.states},
    {c: 1.0 for c in edge_classes(shape)},
)
blocks = block_decompose(flat)
block_roots = [symmetric_eigen(u).values[-1] for u in blocks]
print("per-axis block roots: %s, sum %.12f"
      % (" + ".join("%.12f" % r for r in block_roots), sum(block_roots)))
weights = normalize_stochastic(flat).alpha.values()
print("normalized vertex weights (reciprocal Perron vector): spread %.1e"
      % (max(weights) - min(weights)))
u1, u2 = blocks
m = np.kron(u1, np.eye(len(u2))) + np.kron(np.eye(len(u1)), u2)
print("dense eigensolver on the 9x9 Kronecker sum agrees: %.12f"
      % np.linalg.eigvalsh(m).max())

# reducible patterns are refused rather than silently normalized
line = GridShape((2,), 1, 1)
bridge = edge_classes(line)[-1]
broken = Parametrization(
    line,
    {(k,): 1.0 for k in range(3)},
    {c: 0.0 if c == bridge else 1.0 for c in edge_classes(line)},
)
try:
    normalize_stochastic(broken)
except Exception as exc:
    print("zero weight on a bridging class: %s" % exc)
