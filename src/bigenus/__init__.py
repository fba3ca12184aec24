"""Genus bounds and embeddings of random bipartite graphs.

The pipeline: generate a random bipartite graph, orient it by fair
coins, enumerate short closed trails in the orientation, mirror them
for its reverse, match them arc-disjointly, remove blossoms, and assemble the
surviving trails into a rotation system whose traced faces give an
upper genus bound. Euler-style counting gives the matching lower
bound, and a small-graph oracle checks both on instances where the
exact genus is computable.
"""

from .bigraph import (BipartiteGraph, Digraph, GenParams, Graph,
                      complete_bipartite_graph, complete_graph, cycle_graph,
                      gen_random_bipartite, orient_randomly, path_graph,
                      read_bipartite, read_digraph, standard_graph,
                      write_bipartite, write_digraph)
from .blossom import (Blossom, assemble_rotation, find_blossoms,
                      make_blossom_free)
from .embedding import (FaceSet, RotationSystem, genus_of_embedding,
                        sorted_rotation, trace_faces)
from .errors import (BudgetExceededError, GuardError,
                     InternalConsistencyError, ValidationError)
from .estimator import (GenusEstimate, PipelineConfig, estimate_genus,
                        euler_lower_bound, psi, reduce_small_part,
                        refined_lower_bound, regime_classify,
                        small_p_asymptote_check)
from .oracle import (PincerResult, SearchBudget, exact_genus,
                     genus_formula_reference, minimum_genus_rotation,
                     pincer_genus, rotation_system_count,
                     small_part_exact_genus)
from .trails import (TrailHypergraph, build_trail_hypergraph,
                     check_matching_conditions, count_short_closed_trails,
                     find_disjoint_mirror_matching, find_matching,
                     theoretical_delta)

__version__ = "0.1.0"

__all__ = [
    "BipartiteGraph", "Digraph", "GenParams", "Graph",
    "complete_bipartite_graph", "complete_graph", "cycle_graph",
    "gen_random_bipartite", "orient_randomly", "path_graph",
    "read_bipartite", "read_digraph", "standard_graph",
    "write_bipartite", "write_digraph",
    "Blossom", "assemble_rotation", "find_blossoms",
    "make_blossom_free",
    "FaceSet", "RotationSystem", "genus_of_embedding", "sorted_rotation",
    "trace_faces",
    "BudgetExceededError", "GuardError", "InternalConsistencyError",
    "ValidationError",
    "GenusEstimate", "PipelineConfig", "estimate_genus", "euler_lower_bound",
    "psi", "reduce_small_part", "refined_lower_bound", "regime_classify",
    "small_p_asymptote_check",
    "PincerResult", "SearchBudget", "exact_genus", "genus_formula_reference",
    "minimum_genus_rotation", "pincer_genus", "rotation_system_count",
    "small_part_exact_genus",
    "TrailHypergraph", "build_trail_hypergraph",
    "check_matching_conditions", "count_short_closed_trails",
    "find_disjoint_mirror_matching", "find_matching", "theoretical_delta",
    "__version__",
]
