"""Finite q-dimensional grid state space.

States are plain tuples of non-negative ints.  The linear index order is
lexicographic with the last coordinate varying fastest, so for dims=(2,2)
the states are listed (0,0),(0,1),(0,2),(1,0),...,(2,2).  Every matrix in
this package (directional, full, block, constraint) uses this order, which
makes small cases comparable entry by entry against hand-written matrices.

A jump moves exactly one coordinate, up by at most l1 or down by at most l2.
The standing assumption is max(l1, l2) <= min(dims), so every jump size
occurs somewhere in every direction.
"""

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ShapeError, UnsupportedConfigError


def is_integer(x):
    """Whether x is an integer argument: a numbers.Integral, not a bool."""
    # plain ints skip the ABC check (30x slower) the loaders run per edge
    return type(x) is int or (
        isinstance(x, numbers.Integral) and not isinstance(x, bool))


def is_real(x):
    """Whether x is a real-number argument: a numbers.Real, not a bool,
    that float() converts (an integer beyond the double range does not)."""
    # plain floats skip the ABC check (about 0.5 us) Parametrization runs
    # per weight
    if type(x) is float:
        return True
    if not isinstance(x, numbers.Real) or isinstance(x, bool):
        return False
    try:
        float(x)
    except OverflowError:
        return False
    return True


@dataclass(frozen=True)
class GridShape:
    """Grid dimensions and jump bounds.

    dims = (n_1, ..., n_q): coordinate i ranges over 0..n_i.
    l1: largest forward jump; l2: largest backward jump.
    """

    dims: tuple
    l1: int
    l2: int

    def __post_init__(self):
        try:
            dims = tuple(self.dims)
        except TypeError:
            raise ShapeError("shape invariant violated: dims is a sequence "
                             "(got %r)" % (self.dims,)) from None
        names = ["n_%d" % i for i in range(1, len(dims) + 1)] + ["l1", "l2"]
        for name, x in zip(names, dims + (self.l1, self.l2)):
            if not is_integer(x):
                raise ShapeError("shape invariant violated: %s is an integer "
                                 "(got %r)" % (name, x))
        object.__setattr__(self, "dims", tuple(map(int, dims)))
        object.__setattr__(self, "l1", int(self.l1))
        object.__setattr__(self, "l2", int(self.l2))
        validate_shape(self)

    @property
    def q(self):
        return len(self.dims)

    @property
    def n_states(self):
        return math.prod(n + 1 for n in self.dims)

    def check_directions(self, i, j=None):
        """DomainError unless i (and j) are directions 1..q, and i != j."""
        for d in (i,) if j is None else (i, j):
            if not (is_integer(d) and 1 <= d <= self.q):
                raise DomainError("direction %s outside 1..%d" % (d, self.q))
        if i == j:
            raise DomainError("direction %d paired with itself is vacuous" % i)


def validate_shape(shape):
    """Raise ShapeError naming the violated invariant, if any."""
    if len(shape.dims) < 1:
        raise ShapeError("shape invariant violated: q >= 1 (dims is empty)")
    for i, n in enumerate(shape.dims):
        if n < 1:
            raise ShapeError(
                "shape invariant violated: n_%d >= 1 (got %d)" % (i + 1, n)
            )
    if shape.l1 < 1 or shape.l2 < 1:
        raise ShapeError(
            "shape invariant violated: l1 >= 1 and l2 >= 1 (got l1=%d, l2=%d)"
            % (shape.l1, shape.l2)
        )
    if max(shape.l1, shape.l2) > min(shape.dims):
        raise ShapeError(
            "shape invariant violated: max(l1, l2) <= min(dims) "
            "(got max jump %d on dims %s)"
            % (max(shape.l1, shape.l2), (shape.dims,))
        )
    if shape.n_states >= 2 ** 63:
        raise ShapeError(
            "shape invariant violated: prod(n_i + 1) < 2^63 "
            "(states are numbered by 64-bit integers)"
        )
    if shape.n_states * shape.q * 2 * max(shape.l1, shape.l2) >= 2 ** 60:
        raise ShapeError(
            "shape invariant violated: prod(n_i + 1) * q * 2 max(l1, l2) "
            "< 2^60 (the edge table's move lookup holds that many 64-bit "
            "integers)"
        )


def require_equal_bounds(shape, what):
    """Raise UnsupportedConfigError unless l1 = l2; `what` names the
    operation that needs it."""
    if shape.l1 != shape.l2:
        raise UnsupportedConfigError(
            "%s assumes equal jump bounds (l1=%d, l2=%d)"
            % (what, shape.l1, shape.l2)
        )


class Edge(NamedTuple):
    """Directed edge u -> v: coordinate `direction` (1-based) changes by `step`
    (positive = forward, negative = backward); all other coordinates match."""

    u: tuple
    v: tuple
    direction: int
    step: int


def in_grid(shape, u):
    """Whether u is a state: q whole real numbers (no bools) within bounds."""
    # a plain int skips is_real: within the bounds, float() converts it
    return len(u) == shape.q and all(
        (type(c) is int or is_real(c) and c % 1 == 0) and 0 <= c <= n
        for c, n in zip(u, shape.dims)
    )


def move_slot(step, lmax):
    """The slot of a move by signed `step` in edge_table's column lookup:
    forward steps 1..lmax first, then backward steps 1..lmax."""
    return np.where(step > 0, step - 1, lmax - step - 1)


EdgeTable = namedtuple(
    "EdgeTable", "coords src dst direction step cls reverse classes column")


@lru_cache(maxsize=16)
def edge_table(shape):
    """The directed edges of a shape as aligned read-only int arrays.

    coords[k] is the state of linear index k.  Edge column k, in
    directed_edges order, moves src[k] to dst[k] along direction[k] by
    step[k]; cls[k] is its row in classes, the (direction, offset, size)
    list of edge_classes; reverse[k] is the column of dst[k] -> src[k], or
    -1.  column[s, i - 1, move_slot(x, max(l1, l2))] is the column of the
    move from s along direction i by step x, or -1 where that move is no
    edge.
    """
    dims = np.array(shape.dims)
    lmax = max(shape.l1, shape.l2)
    steps = np.concatenate([np.arange(1, lmax + 1), -np.arange(1, lmax + 1)])
    strides = shape.n_states // np.cumprod(dims + 1)
    coords = np.indices(dims + 1).reshape(shape.q, -1).T
    to = coords[:, :, None] + steps
    bound = np.where(steps > 0, shape.l1, shape.l2)
    fits = (np.abs(steps) <= bound) & (to >= 0) & (to <= dims[:, None])
    column = np.where(fits, np.cumsum(fits).reshape(fits.shape) - 1, -1)
    src, axis, slot = np.nonzero(fits)
    step = steps[slot]
    dst = src + step * strides[axis]
    classes = np.array([(i + 1, r, x) for i, n in enumerate(shape.dims)
                        for x in range(1, lmax + 1) for r in range(n - x + 1)])
    class_id = np.zeros((shape.q + 1, dims.max(), lmax + 1), dtype=int)
    class_id[tuple(classes.T)] = np.arange(len(classes))
    offset = np.minimum(coords[src, axis], to[src, axis, slot])
    reverse = column[dst, axis, move_slot(-step, lmax)]
    table = EdgeTable(coords, src, dst, axis + 1, step,
                      class_id[axis + 1, offset, np.abs(step)], reverse,
                      classes, column)
    for a in table:
        a.flags.writeable = False
    return table


def grid_states(shape):
    """All states as tuples, in lattice order."""
    return list(map(tuple, edge_table(shape).coords.tolist()))


def _end_coordinates(pairs, fit, q):
    """The coordinates of the fitting pairs as floats, shape (pairs, 2, q)."""
    ends = chain.from_iterable(u + v for (u, v), f in zip(pairs, fit) if f)
    return np.fromiter(ends, float, 2 * q * sum(fit)).reshape(-1, 2, q)


def edge_columns(shape, pairs):
    """Edge column of each (u, v) pair of coordinate sequences; -1 where
    u -> v is not an edge.  The one map from coordinates to columns: the
    model file loader sends its (from, to) lists through it, and a model
    built from a dict by hand the keys whose ends in_grid accepts, once, on
    first use.  Coordinates are real numbers: bools and strings are read
    as the numbers float() makes of them."""
    q, t = shape.q, edge_table(shape)
    fit = [len(u) == q == len(v) for u, v in pairs]
    try:
        uv = _end_coordinates(pairs, fit, q)
    except OverflowError:  # a coordinate no float holds is on no grid
        box = shape.dims * 2
        fit = [f and all(0 <= c <= n for c, n in zip(u + v, box))
               for (u, v), f in zip(pairs, fit)]
        uv = _end_coordinates(pairs, fit, q)
    on = ((uv == np.floor(uv)) & (uv >= 0) & (uv <= shape.dims)).all((1, 2))
    u, v = uv[on].astype(int).transpose(1, 0, 2)
    d = v - u
    axis = np.abs(d).argmax(axis=1)
    step = d[np.arange(len(d)), axis]
    lmax = max(shape.l1, shape.l2)
    move = ((d != 0).sum(axis=1) == 1) & (np.abs(step) <= lmax)
    src = np.ravel_multi_index(u.T, np.add(shape.dims, 1))
    slot = move_slot(np.where(move, step, 1), lmax)
    out = np.full(len(pairs), -1)
    out[np.flatnonzero(fit)[on]] = np.where(move, t.column[src, axis, slot],
                                            -1)
    return out


class Grid:
    """Enumerated states of a GridShape with the index bijection."""

    def __init__(self, shape):
        self.shape = shape
        self.states = grid_states(shape)

    def __len__(self):
        return len(self.states)

    def index_of(self, u):
        """The linear index of state u; integral floats index like ints."""
        try:
            u = tuple(u)
        except TypeError:
            raise DomainError("state %r is not on the grid" % (u,)) from None
        if not in_grid(self.shape, u):
            raise DomainError("state %s is not on the grid" % (u,))
        return int(np.ravel_multi_index(tuple(map(int, u)),
                                        np.add(self.shape.dims, 1)))


def build_grid(shape):
    """Enumerate states in lexicographic order (last coordinate fastest)."""
    return Grid(shape)


def edge_pairs(shape):
    """The (u, v) state pair of every edge column."""
    t = edge_table(shape)
    states = grid_states(shape)
    return [(states[s], states[d])
            for s, d in zip(t.src.tolist(), t.dst.tolist())]


def directed_edges(shape):
    """All directed edges, one per ordered adjacent pair (u, v).

    Order: by source state index, then direction, then forward steps
    ascending, then backward steps ascending.
    """
    t = edge_table(shape)
    return [Edge(u, v, i, x) for (u, v), i, x in zip(
        edge_pairs(shape), t.direction.tolist(), t.step.tolist())]
