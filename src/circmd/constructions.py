"""Checked answers to "what is dim C(n, +/-{1..t})?", with a witness basis.

``answer`` picks the route, applies ``max_k`` and checks the basis with
one ``is_resolving`` call; ``dim``, ``construct`` and ``table --check``
each make one call.  ``auto`` and ``formula`` take ``formula_dim``, with
the t = 4 table row as the basis, else the least basis of that size;
``search`` runs ``exact_dim``, as ``auto`` does where no formula applies
(a note marks the complete-graph fringe); ``oracle`` runs
``brute_force_dim``.  The table holds t = 4 rows only.  ``SPORADIC``
holds single orders (tag ``remark-<n>``):

    n = 5:   {0, 1, 2, 3}
    n = 11:  {0, 2, 3, 10}
    n = 19:  published as {0, 2, 7, 19}, but 19 = 0 (mod 19) collapses
             that set to three vertices; the lex-least 4-element basis
             {0, 2, 7, 14} stands in.

``FAMILIES`` holds one affine rule per residue r: for n = 8k + r, k >= 1,
each vertex is a + b*k.

    n = 8k + 7 (upper-8k7):  {0, 1, 2, 3, 4, 5}
    n = 8k + 9 (upper-8k9):  {0, 1, 4, 7, 4k+6, 4k+7}

Every other basis comes from a search and is tagged ``search-fallback``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .formulas import formula_dim
from .graph import CirculantGraph, make_consecutive
from .resolve import WitnessPair, is_resolving
from .solver import (
    DimResult,
    NoBasisWithinError,
    brute_force_dim,
    exact_dim,
    find_basis_of_size,
)

METHODS = ("auto", "formula", "search", "oracle")
REMARK_19_PUBLISHED = (0, 2, 7, 19)

SPORADIC = {5: (0, 1, 2, 3), 11: (0, 2, 3, 10), 19: (0, 2, 7, 14)}
# residue r -> (source tag, (a, b) per vertex a + b*k of n = 8k + r)
FAMILIES = {
    7: ("upper-8k7", ((0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (5, 0))),
    9: ("upper-8k9", ((0, 0), (1, 0), (4, 0), (7, 0), (6, 4), (7, 4))),
}
_NOTES = {19: (f"published witness {list(REMARK_19_PUBLISHED)} collapses to "
               f"{sorted({v % 19 for v in REMARK_19_PUBLISHED})} mod 19; replaced "
               f"by the lex-least basis {list(SPORADIC[19])}")}


class NoFormulaError(LookupError):
    """Raised for ``method="formula"`` where no closed-form dimension applies."""


@dataclass(frozen=True)
class Answer:
    n: int
    t: int
    dim: int
    basis: tuple[int, ...]
    method: str  # "formula", or the search's "search" | "oracle"
    source: str  # remark-<n> (SPORADIC), a FAMILIES tag, or search-fallback
    note: Optional[str] = None
    unresolved: Optional[WitnessPair] = None  # the least pair the basis leaves
    search: Optional[DimResult] = None  # when a search gave dim

    @property
    def verified(self) -> bool:
        return self.unresolved is None

    @property
    def matches_formula(self) -> bool:
        return formula_dim(self.n, self.t) == len(self.basis)


def _table_entry(n: int) -> Optional[tuple]:
    """(basis, source, note) from the t = 4 table, or None if no row covers n."""
    if n in SPORADIC:
        return SPORADIC[n], f"remark-{n}", _NOTES.get(n)
    for residue, (source, rule) in FAMILIES.items():
        k, rest = divmod(n - residue, 8)
        if rest == 0 and k >= 1:
            return tuple(a + b * k for a, b in rule), source, None
    return None


def answer(g: CirculantGraph, t: int, method: str = "auto",
           max_k: Optional[int] = None, budget: Optional[int] = None) -> Answer:
    """dim of g = C(n, +/-{1..t}) by ``method`` with a checked basis; a
    dimension above ``max_k`` raises ``NoBasisWithinError``.  The requested
    t, not ``g.t``, keys the formula and the table row: C(5, +/-{1..4})
    folds to ``g.t == 2``."""
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if max_k is not None and max_k < 1:
        raise ValueError("max_k must be at least 1")
    dim = formula_dim(g.n, t)
    if dim is None and method == "formula":
        raise NoFormulaError(f"no closed-form dimension known for n={g.n}, t={t}")
    search = None
    if dim is None or method in ("search", "oracle"):  # both stop at max_k themselves
        search = (brute_force_dim if method == "oracle" else exact_dim)(
            g, max_k=max_k, budget=budget)
        complete = dim is None and g.diameter == 1
        note = "complete-graph fringe: dimension from exact search" if complete else None
        dim, basis, method = search.dim, search.basis, search.method
        source = "search-fallback"
    elif max_k is not None and dim > max_k:  # before any basis is built
        raise NoBasisWithinError(f"no resolving set of size <= {max_k} found for {g}")
    else:
        entry = _table_entry(g.n) if t == 4 else None
        basis, source, note = entry or (find_basis_of_size(g, dim, budget),
                                        "search-fallback", None)
        method = "formula"
    return Answer(g.n, t, dim, tuple(sorted(basis)), method, source, note,
                  is_resolving(g, basis), search)


def basis_t4(n: int, budget: Optional[int] = None) -> Answer:
    """A checked metric basis of C(n, +/-{1,2,3,4}) with its provenance tag."""
    if n < 5:
        raise ValueError(f"basis_t4 needs n >= 5, got {n}")
    return answer(make_consecutive(n, 4), 4, budget=budget)


def verify_construction_range(residue: int, k_max: int) -> list[Answer]:
    """Check the table's family for n = 8k + residue, k = 1..k_max."""
    if residue not in FAMILIES:
        raise ValueError(f"closed-form families exist for residues "
                         f"{sorted(FAMILIES)}, got {residue}")
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    return [basis_t4(8 * k + residue) for k in range(1, k_max + 1)]
