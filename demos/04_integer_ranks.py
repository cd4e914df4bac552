"""
Certified ranks of the constraint and parameter matrices
========================================================

Taking logarithms turns the bilinear commutation constraints into integer
linear equations on the directed edges (matrix Q, entries in {-1,0,+1})
and the positive parametrization into an integer linear map (matrix R).
Q R^T = 0 always.  certified_ranks proves rank Q without eliminating Q.
The free set F is the unit step into each state along its first nonzero
axis (a spanning tree) plus every edge on the axis lines through the
origin; from F, level by level, each constraint left with one unknown edge
pins it, so the pinning constraints are independent (rank Q >= their
number).  Every constraint is two paths between the same ends that take
the same moves in opposite order, so vertex potentials and functions of an
edge's (class, step) lie in Q's kernel; counting the dimension they span,
through the cycles of one line graph per axis, gives rank Q <= columns -
that count, which is |F|.  The two bounds meet, so the reported numbers
carry no floating-point caveat, and the pinning constraints are an
explicit minimal set that ensures the commutation.
"""

from gbdp import (
    GridShape,
    build_Q,
    certified_ranks,
    integer_rank,
    rank_formula_Q,
    rank_formula_R,
)

# unit jumps: the two row spaces are exact orthogonal complements
shape = GridShape((2, 2), 1, 1)
cert = certified_ranks(shape)
print("unit jumps on the 3x3 grid:")
print("  Q rank %d + R rank %d = %d columns"
      % (cert.rank_Q, cert.rank_R, cert.cols))

# two-step jumps: the constraints leave more freedom than the closed-form
# count suggests.  Every constraint uses its edge along one axis once on
# each side, so the flow around a cycle of a single-axis line graph (a jump
# of size x >= 2 at offset r against the x unit steps it spans), copied to
# every perpendicular position, satisfies every constraint without being a
# vertex/class parametrization.  There is one such free direction per
# (axis, jump size >= 2, offset); the rank of Q falls short of the closed
# form by that count.
shape = GridShape((2, 2), 2, 2)
cert = certified_ranks(shape)
print("two-step jumps on the 3x3 grid:")
print("  Q is %dx%d, R is %dx%d"
      % (cert.rows, cert.cols, cert.params, cert.cols))
print("  certified rank Q = %d (closed form %d, elimination %d)"
      % (cert.rank_Q, rank_formula_Q(shape), integer_rank(build_Q(shape))))
print("  exact rank R = %d (closed form %d)"
      % (cert.rank_R, rank_formula_R(shape)))
cycles = sum(n - x + 1 for n in shape.dims for x in range(2, shape.l1 + 1))
print("  rank gap %d = line-graph cycles %d"
      % (cert.cols - cert.rank_Q - cert.rank_R, cycles))

# the minimal constraint set: these rows of Q alone ensure the commutation
q = build_Q(shape)
print("  %d of %d constraints suffice, pinning all but %d edges; the first:"
      % (len(cert.basis), cert.rows, len(cert.free)))
for k in cert.basis[:3]:
    c = q.row_labels[k]
    print("    family %d at %s: step %+d along %d vs step %+d along %d"
          % (c.family, c.base, c.step_i, c.i, c.step_j, c.j))

# the gap follows the cycle count across shapes
print("shape sweep (dims, l, gap, cycles):")
for dims, l in [((2, 2), 1), ((3, 3), 2), ((4, 4), 2), ((2, 2, 2), 2),
                ((3, 3), 3)]:
    cert = certified_ranks(GridShape(dims, l, l))
    gap = cert.cols - cert.rank_Q - cert.rank_R
    cycles = sum(n - x + 1 for n in dims for x in range(2, l + 1))
    print("  %-10s l=%d  gap %2d  cycles %2d" % (dims, l, gap, cycles))
