"""
Commuting directional matrices on a 3x3 grid
============================================

A model on the grid {0,1,2} x {0,1,2} with jumps of one or two steps along
a single coordinate splits into a horizontal part P_1 and a vertical part
P_2.  For models built from vertex weights alpha and edge-class weights
gamma the two parts commute; breaking a single edge probability breaks
commutation, and both available checks notice.
"""

import numpy as np

from gbdp import (
    GridShape,
    Parametrization,
    TransitionModel,
    build_grid,
    build_model,
    commutes_direct,
    edge_classes,
)
from gbdp.commute import constraint_residuals

rng = np.random.default_rng(1)
shape = GridShape((2, 2), 2, 2)
grid = build_grid(shape)

# random positive weights: one alpha per state, one gamma per edge class
p = Parametrization(
    shape,
    {u: float(rng.uniform(0.5, 2.0)) for u in grid.states},
    {c: float(rng.uniform(0.5, 2.0)) for c in edge_classes(shape)},
)
model = build_model(p)
print("states:", len(grid), " edges:", len(model.probs))

# the commutator P_1 P_2 - P_2 P_1: each nonzero entry is one constraint
# residual below, so commutes_direct reports the largest with no matrix
ok, residual = commutes_direct(model, 1, 2)
print("matrix commutator residual: %.3e -> %s" % (residual, ok))

# the constraints: every 2x2 rectangle of moves gives a bilinear identity
# p(u,a) p(a,w) = p(u,b) p(b,w); all of them must vanish
residuals = constraint_residuals(model, 1, 2)
worst = max(abs(r) for _, r in residuals)
print("%d constraints, worst residual: %.3e" % (len(residuals), worst))

# now damage one edge and watch the check fail
probs = dict(model.probs)
probs[((0, 0), (1, 0))] *= 0.5
broken = TransitionModel(shape, probs)
ok, residual = commutes_direct(broken, 1, 2)
worst = max(abs(r) for _, r in constraint_residuals(broken, 1, 2))
print("after halving one edge: commutator %.3e -> %s, worst constraint %.3e"
      % (residual, ok, worst))
