"""Injective hulls of finite graphs and Helly-class recognition."""

from .detectors import (
    find_asteroidal_triple,
    find_cocomparability_violation,
    find_long_induced_cycle,
    find_odd_cycle,
    is_at_free,
    is_bipartite,
    is_chordal,
    is_split,
    is_square_chordal,
    verify_cocomparability_ordering,
)
from .dh import (
    FALSE_TWIN,
    PENDANT,
    TRUE_TWIN,
    HellificationResult,
    PruningSequence,
    PruningStep,
    TwinClassPoset,
    hellify_adjacency,
    hellify_dh,
    pruning_sequence,
    replay,
)
from .errors import (
    BudgetExceededError,
    DisconnectedGraphError,
    NotDistanceHereditaryError,
)
from .generators import (
    SplitMix64,
    cocomparability_family,
    crown_family,
    fixture,
    random_chordal,
    random_dh,
    random_pruning_sequence,
    split_family,
)
from .graphs import (
    DistanceMatrix,
    Graph,
    format_edge_list,
    is_isometric_subgraph,
    parse_edge_list,
    to_dot,
)
from .helly import (
    ExtendedSquare,
    TwoSet,
    all_extended_squares_suspended,
    disk_helly_up_to_radius,
    extended_squares,
    find_pseudo_modular_violation,
    is_dually_chordal,
    is_helly,
    is_neighborhood_helly,
    is_pseudo_modular,
    maximal_two_sets,
)
from .hulls import (
    InjectiveHull,
    build_injective_hull,
    disk_separates,
    enumerate_extremal_functions,
    helly_gap,
    hull_to_dot,
    hull_to_json,
    peripheral_vertices,
)
from .hyperbolicity import (
    HyperbolicityReport,
    find_alpha1_violation,
    four_point_hyp2,
    hyperbolicity,
    is_alpha1_metric,
)
from .isomorphism import are_isomorphic_small

__version__ = "0.1.0"
