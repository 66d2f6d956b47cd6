"""Metric dimension of circulant graphs C(n, +/-{1..t}).

Closed-form dimensions and bounds, exact search that fixes vertex 0 with
an independent brute-force oracle, explicit basis constructions, and an
empirically validated registry of the lower-bound lemma battery.
"""

from .constructions import Answer, basis_t4
from .formulas import BoundsReport, formula_dim, known_bounds, split
from .graph import (
    CirculantGraph,
    diameter_set,
    distance_bfs,
    distance_closed_form,
    make_consecutive,
)
from .lemmas import (
    REGISTRY,
    LemmaDescriptor,
    check_all,
    check_lemma,
    instantiate,
    manifest,
    window_bound_counterexample,
    window_tightness,
)
from .resolve import (
    Cluster,
    WitnessPair,
    equivalence_classes,
    is_cluster_for,
    is_resolving,
    pair_resolvers,
    representation,
    resolves_cluster,
)
from .solver import (
    BudgetExceededError,
    DimResult,
    NoBasisWithinError,
    brute_force_dim,
    exact_dim,
    find_basis_of_size,
    min_resolvers,
)

__version__ = "0.1.0"

__all__ = [
    "Answer",
    "BoundsReport",
    "BudgetExceededError",
    "CirculantGraph",
    "Cluster",
    "DimResult",
    "LemmaDescriptor",
    "NoBasisWithinError",
    "REGISTRY",
    "WitnessPair",
    "basis_t4",
    "brute_force_dim",
    "check_all",
    "check_lemma",
    "diameter_set",
    "distance_bfs",
    "distance_closed_form",
    "equivalence_classes",
    "exact_dim",
    "find_basis_of_size",
    "formula_dim",
    "instantiate",
    "is_cluster_for",
    "is_resolving",
    "known_bounds",
    "make_consecutive",
    "manifest",
    "min_resolvers",
    "pair_resolvers",
    "representation",
    "resolves_cluster",
    "split",
    "window_bound_counterexample",
    "window_tightness",
]
