"""Metric dimension of circulant graphs C(n, +/-{1..t}).

Closed-form dimensions and bounds, exact search that fixes vertex 0 with
an independent brute-force oracle, explicit basis constructions, and an
empirically validated registry of the lower-bound lemma battery.  The
battery loads on first use of a lemma name or of ``check-lemmas``: no
module on the ``dim``/``verify`` path imports it at top level.
"""

from .constructions import Answer, basis_t4
from .formulas import BoundsReport, formula_dim, known_bounds, split
from .graph import CirculantGraph, make_consecutive
from .resolve import (
    Cluster,
    WitnessPair,
    equivalence_classes,
    is_resolving,
    representation,
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

_LEMMA_NAMES = ("REGISTRY", "LemmaDescriptor", "check_lemma", "instantiate",
                "manifest", "window_bound_counterexample", "window_tightness")

__all__ = [
    "Answer",
    "BoundsReport",
    "BudgetExceededError",
    "CirculantGraph",
    "Cluster",
    "DimResult",
    "NoBasisWithinError",
    "WitnessPair",
    "basis_t4",
    "brute_force_dim",
    "equivalence_classes",
    "exact_dim",
    "find_basis_of_size",
    "formula_dim",
    "is_resolving",
    "known_bounds",
    "make_consecutive",
    "min_resolvers",
    "representation",
    "split",
    *_LEMMA_NAMES,
]


def __getattr__(name):
    # import_module, not ``from . import lemmas``: that would ask this hook again
    if name != "lemmas" and name not in _LEMMA_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    lemmas = import_module(".lemmas", __name__)
    globals().update((n, getattr(lemmas, n)) for n in _LEMMA_NAMES)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__, "lemmas"})
