"""The public names of ``tightspan``, ``Graph`` and ``InjectiveHull``, and the
slots of ``Graph``, pinned.

A name that is added, or a removed one that comes back, fails here until this
list is changed on purpose.
"""

import types

import tightspan
from tightspan import build_injective_hull, fixture

PACKAGE = [
    "BudgetExceededError", "DisconnectedGraphError", "ExtendedSquare", "FALSE_TWIN", "Graph",
    "HyperbolicityReport", "InjectiveHull", "NotDistanceHereditaryError", "PENDANT",
    "PruningSequence", "PruningStep", "SplitMix64", "TRUE_TWIN", "TwoSet",
    "all_extended_squares_suspended", "build_injective_hull", "cocomparability_family",
    "crown_family", "disk_helly_up_to_radius", "disk_separates", "enumerate_extremal_functions",
    "extended_squares", "find_alpha1_violation", "find_asteroidal_triple",
    "find_cocomparability_violation", "find_long_induced_cycle", "find_odd_cycle",
    "find_pseudo_modular_violation", "fixture", "format_edge_list", "hellify_adjacency",
    "hellify_dh", "helly_gap", "hull_to_dot", "hull_to_json", "hyperbolicity",
    "is_alpha1_metric", "is_at_free", "is_bipartite", "is_chordal", "is_dually_chordal",
    "is_helly", "is_isometric_subgraph", "is_neighborhood_helly", "is_pseudo_modular",
    "is_split", "is_square_chordal", "maximal_two_sets", "parse_edge_list",
    "peripheral_vertices", "pruning_sequence", "random_chordal", "random_dh",
    "random_pruning_sequence", "replay", "split_family", "to_dot",
    "verify_cocomparability_ordering",
]

GRAPH = [
    "adj", "degree", "disk_mask", "distances", "edges", "from_edge_list", "has_edge", "induced",
    "is_connected", "label", "labels", "m", "n", "neighbors", "power",
]

HULL = ["added", "hull", "is_real", "n_helly", "n_real", "source", "vectors"]

# A graph's own fields and its two caches: the distance rows, and every other
# derived structure under one key per builder. A new per-structure slot fails
# here until this list is changed on purpose.
GRAPH_SLOTS = ("n", "adj", "labels", "_dm", "_cache")


def _public(names):
    return sorted(name for name in names if not name.startswith("_"))


def test_public_names_are_pinned():
    package = (n for n, v in vars(tightspan).items() if not isinstance(v, types.ModuleType))
    assert _public(package) == PACKAGE
    assert _public(dir(fixture("C4"))) == GRAPH
    assert _public(dir(build_injective_hull(fixture("C4")))) == HULL


def test_graph_slots_are_pinned():
    assert tightspan.Graph.__slots__ == GRAPH_SLOTS
