"""Checked answers to "what is dim C(n, +/-{1..t})?", with a witness basis.

``answer`` builds C(n, +/-{1..t}), picks the route, applies ``max_k`` and
checks the basis with one ``is_resolving`` call; ``dim``, ``construct`` and
``table --check`` each make one call.  ``auto`` and ``formula`` take
``formula_dim``, with the ``formulas`` table row as the basis, else the
least basis of that size (tag ``search-fallback``); ``search`` runs
``exact_dim``, as ``auto`` does where no formula applies (a note marks the
complete-graph fringe); ``oracle`` runs ``brute_force_dim``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .formulas import FAMILIES, SPORADIC, formula_dim
from .graph import make_consecutive
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
_NOTES = {(4, 19): (f"published witness {list(REMARK_19_PUBLISHED)} collapses to "
                    f"{sorted({v % 19 for v in REMARK_19_PUBLISHED})} mod 19; "
                    f"replaced by the lex-least basis {list(SPORADIC[4, 19])}")}


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


def _table_entry(n: int, t: int) -> Optional[tuple]:
    """(basis, source, note) from the table, or None if no row covers n."""
    if (t, n) in SPORADIC:
        return SPORADIC[t, n], f"remark-{n}", _NOTES.get((t, n))
    k, r = divmod(n - 2, 2 * t)
    if k >= 1 and (t, r + 2) in FAMILIES:
        source, rule = FAMILIES[t, r + 2]
        return tuple(a + b * k for a, b in rule), source, None
    return None


def answer(n: int, t: int, method: str = "auto", max_k: Optional[int] = None,
           budget: Optional[int] = None) -> Answer:
    """dim C(n, +/-{1..t}) by ``method`` with a checked basis; a dimension
    above ``max_k`` raises ``NoBasisWithinError``."""
    g = make_consecutive(n, t)
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if max_k is not None and max_k < 1:
        raise ValueError("max_k must be at least 1")
    dim = formula_dim(n, t)
    if dim is None and method == "formula":
        raise NoFormulaError(f"no closed-form dimension known for n={n}, t={t}")
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
        basis, source, note = _table_entry(n, t) or (
            find_basis_of_size(g, dim, budget), "search-fallback", None)
        method = "formula"
    return Answer(n, t, dim, tuple(sorted(basis)), method, source, note,
                  is_resolving(g, basis), search)


def basis_t4(n: int, budget: Optional[int] = None) -> Answer:
    """A checked metric basis of C(n, +/-{1,2,3,4}) with its provenance tag."""
    if n < 5:
        raise ValueError(f"basis_t4 needs n >= 5, got {n}")
    return answer(n, 4, budget=budget)


def verify_construction_range(residue: int, k_max: int) -> list[Answer]:
    """Check the table's t = 4 family for n = 8k + residue, k = 1..k_max."""
    if (4, residue) not in FAMILIES:
        raise ValueError(f"no t = 4 family for residue {residue}; "
                         f"the (t, s) rows are {sorted(FAMILIES)}")
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    return [basis_t4(8 * k + residue) for k in range(1, k_max + 1)]
