"""Explicit metric bases for C(n, +/-{1..t}) and their verification.

``witness`` gives every formula-route basis: ``dim``'s formula route (any
t) and ``construct`` (t = 4) both take theirs from it, and it checks each
basis once.  Its t = 4 witnesses live in one table, which holds t = 4 rows
only.  ``SPORADIC`` holds single orders (tag ``remark-<n>``):

    n = 5:   {0, 1, 2, 3}
    n = 11:  {0, 2, 3, 10}
    n = 19:  published as {0, 2, 7, 19}, but 19 = 0 (mod 19) collapses
             that set to three vertices; the lex-least 4-element basis
             {0, 2, 7, 14} stands in.

``FAMILIES`` holds one affine rule per residue r: for n = 8k + r, k >= 1,
each vertex is a + b*k.

    n = 8k + 7 (upper-8k7):  {0, 1, 2, 3, 4, 5}
    n = 8k + 9 (upper-8k9):  {0, 1, 4, 7, 4k+6, 4k+7}

Every other order, and every order for t != 4, gets a witness from a
search constrained to the formula's dimension, or from exact search where
no formula applies (the complete-graph fringe), tagged ``search-fallback``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .formulas import formula_dim
from .graph import CirculantGraph, make_consecutive
from .resolve import WitnessPair, is_resolving
from .solver import exact_dim, find_basis_of_size

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


@dataclass(frozen=True)
class ConstructionReport:
    n: int
    basis: tuple[int, ...]
    source: str  # remark-<n> (SPORADIC), a FAMILIES tag, or search-fallback
    matches_formula: bool
    note: Optional[str] = None
    unresolved: Optional[WitnessPair] = None  # the least pair the basis leaves

    @property
    def verified(self) -> bool:
        return self.unresolved is None


def _report(g: CirculantGraph, t: int, basis: tuple[int, ...], source: str,
            note: Optional[str] = None) -> ConstructionReport:
    return ConstructionReport(
        n=g.n, basis=tuple(sorted(basis)), source=source,
        matches_formula=formula_dim(g.n, t) == len(basis), note=note,
        unresolved=is_resolving(g, basis))


def _table_entry(n: int) -> Optional[tuple]:
    """(basis, source, note) from the t = 4 table, or None if no row covers n."""
    if n in SPORADIC:
        return SPORADIC[n], f"remark-{n}", _NOTES.get(n)
    for residue, (source, rule) in FAMILIES.items():
        k, rest = divmod(n - residue, 8)
        if rest == 0 and k >= 1:
            return tuple(a + b * k for a, b in rule), source, None
    return None


def witness(g: CirculantGraph, t: int, budget: Optional[int] = None
            ) -> ConstructionReport:
    """A checked metric basis of g = C(n, +/-{1..t}) with its provenance
    tag: the table row (t = 4 only), else the least basis of the formula's
    size, else, where no formula applies, the one exact search finds.  The
    requested t, not ``g.t``, picks the row: ``make_consecutive`` folds
    steps beyond n // 2, so C(5, +/-{1..4}) has ``g.t == 2``."""
    entry = _table_entry(g.n) if t == 4 else None
    if entry is not None:
        return _report(g, t, *entry)
    target = formula_dim(g.n, t)
    if target is not None:
        return _report(g, t, find_basis_of_size(g, target, budget=budget),
                       "search-fallback")
    return _report(g, t, exact_dim(g, budget=budget).basis, "search-fallback",
                   note="complete-graph fringe: dimension from exact search")


def basis_t4(n: int, budget: Optional[int] = None) -> ConstructionReport:
    """A verified metric basis of C(n, +/-{1,2,3,4}) with its provenance tag."""
    if n < 5:
        raise ValueError(f"basis_t4 needs n >= 5, got {n}")
    return witness(make_consecutive(n, 4), 4, budget)


def verify_construction_range(residue: int, k_max: int) -> list[ConstructionReport]:
    """Check the table's family for n = 8k + residue, k = 1..k_max."""
    if residue not in FAMILIES:
        raise ValueError(f"closed-form families exist for residues "
                         f"{sorted(FAMILIES)}, got {residue}")
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    return [basis_t4(8 * k + residue) for k in range(1, k_max + 1)]
