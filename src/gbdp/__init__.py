"""Generalized birth-death processes on finite q-dimensional grids.

Discrete-time Markov chains whose jumps move one coordinate at a time, up
to l1 steps forward or l2 backward.  The package verifies and constructs
models whose directional transition matrices commute, computes k-step
probabilities in closed form from small symmetric blocks, rescales models
to stochastic via the Perron root, and builds the integer constraint and
parameter matrices, checking how their mutually orthogonal row spaces
fill the edge space.
"""

from .algebra import (
    IntMatrix,
    build_Q,
    build_R,
    integer_rank,
    order_formula_Q,
    rank_formula_Q,
    rank_formula_R,
    verify_orthocomplement,
)
from .commute import (
    Constraint,
    commutes_direct,
    constraint_residuals,
    pair_constraints,
    rank1_minor_report,
)
from .errors import (
    ConsistencyError,
    ConvergenceError,
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
    adjacency_and_laplacian,
    build_grid,
    directed_edges,
    edge_between,
)
from .model import (
    TransitionModel,
    directional_matrix,
    full_matrix,
    row_mass,
    validate,
)
from .param import (
    EdgeClass,
    Parametrization,
    build_model,
    detailed_balance_check,
    edge_class_of,
    edge_classes,
    param_counts,
    recover_params,
)
from .simulate import empirical_kstep
from .spectral import (
    BlockDecomposition,
    EigenSystem,
    block_decompose,
    direction_operator,
    k_step,
    k_step_with_self,
    matrix_power,
    symmetric_eigen,
)
from .stochastic import is_stochastic, normalize_stochastic, perron

__version__ = "0.1.0"
