"""Generalized birth-death processes on finite q-dimensional grids.

Discrete-time Markov chains whose jumps move one coordinate at a time, up
to l1 steps forward or l2 backward.  The package verifies and constructs
models whose directional transition matrices commute, computes k-step
probabilities in closed form from small symmetric blocks, rescales models
to stochastic via the Perron root, and certifies the ranks of the integer
constraint and parameter matrices, with an explicit minimal set of
constraints that ensure the commutation.
"""

from .algebra import (
    IntMatrix,
    build_Q,
    build_R,
    certified_ranks,
    integer_rank,
    order_formula_Q,
    rank_formula_Q,
    rank_formula_R,
)
from .commute import (
    Constraint,
    commutes_direct,
    constraint_residuals,
    pair_constraints,
)
from .errors import (
    ConsistencyError,
    DomainError,
    FormatError,
    GbdpError,
    PositivityError,
    ShapeError,
    StructureError,
    UnsupportedConfigError,
)
from .fileio import load_model, load_params, save_model, save_params
from .lattice import (
    Edge,
    Grid,
    GridShape,
    build_grid,
    directed_edges,
)
from .model import (
    TransitionModel,
    full_matrix,
    row_mass,
    validate,
)
from .param import (
    EdgeClass,
    Parametrization,
    build_model,
    edge_classes,
    recover_params,
)
from .simulate import empirical_kstep
from .spectral import (
    EigenSystem,
    block_decompose,
    k_step,
    matrix_power,
    symmetric_eigen,
)
from .stochastic import is_stochastic, normalize_stochastic

__version__ = "0.1.0"
