"""Generalized q-Kneser graph toolkit.

Exact counting formulas (Gaussian binomials, degree, independence number,
treewidth), explicit graph construction over finite fields, extremal
t-intersecting families, constructive tree decompositions, and desk-scale
exact solvers that verify the formulas independently.
"""

from .errors import (
    AmbientMismatchError,
    BadQError,
    DimMismatchError,
    EmptyMatrixError,
    MalformedFileError,
    MalformedTreeError,
    NotIndependentError,
    NotPrimePowerError,
    OutOfRangeError,
    QKneserError,
    TooLargeError,
    UnsupportedFieldError,
    UsageError,
)
from .gf import GF, make_field
from .qcount import (
    Params,
    Window,
    alpha_formula,
    degree_formula,
    gauss,
    gauss_bounds_hold,
    gauss_identities_hold,
    intersect_count,
    layer_exceeds_alpha,
    pigeonhole_bound_holds,
    sweep_records,
    tw_formula_applies,
    tw_formula_cograssmann,
    tw_formula_qkneser,
    tw_value,
)
from .subspace import Subspace, canonicalize, enumerate_subspaces
from .graph import (
    Graph,
    build_cograssmann,
    build_qkneser,
    build_qkneser_all_t,
    edge_count,
    read_gr,
    write_gr,
)
from .ekr import (
    is_independent,
    max_independent_set_exact,
    nest_family,
    point_pencil,
)
from .td import TreeDecomposition, read_td, star_decomposition, validate, width, write_td
from .twsolve import (
    SeparatorWitness,
    SolveResult,
    balanced_separator_search,
    clique_lower_bound,
    decomposition_from_order,
    min_fill_order,
    minor_min_width,
    treewidth_exact,
)

__version__ = "0.1.0"
