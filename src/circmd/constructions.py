"""Checked answers to "what is dim C(n, +/-{1..t})?", with a witness basis.

``answer`` builds C(n, +/-{1..t}), picks the route, applies ``max_k`` and
checks the basis with one ``is_resolving`` call; ``dim``, ``construct`` and
``table --check`` each make one call.  ``auto`` and ``formula`` take the
dimension of ``formulas.table_row`` and its witness as the basis, else the
least basis of that size (tag ``search-fallback``); ``search`` runs
``exact_dim``, as ``auto`` does where no formula applies (a note marks the
complete-graph fringe); ``oracle`` runs ``brute_force_dim``.
"""

from __future__ import annotations

from collections import namedtuple

from .formulas import SPORADIC, formula_dim, table_row
from .graph import make_consecutive
from .resolve import is_resolving
from .solver import NoBasisWithinError, brute_force_dim, exact_dim, find_basis_of_size

METHODS = ("auto", "formula", "search", "oracle")
REMARK_19_PUBLISHED = (0, 2, 7, 19)
_NOTES = {(4, 19): (f"published witness {list(REMARK_19_PUBLISHED)} collapses to "
                    f"{sorted({v % 19 for v in REMARK_19_PUBLISHED})} mod 19; "
                    f"replaced by the lex-least basis {list(SPORADIC[4, 19])}")}


class NoFormulaError(LookupError):
    """Raised for ``method="formula"`` where no closed-form dimension applies."""


class Answer(namedtuple("Answer", "n t dim basis method source note unresolved search",
                        defaults=(None, None, None))):
    """``method`` is "formula" or the search's "search" | "oracle"; ``source``
    is remark-<n> (SPORADIC), a FAMILIES tag or search-fallback; ``unresolved``
    is the least pair the basis leaves, and ``search`` the DimResult when a
    search gave dim."""

    __slots__ = ()

    @property
    def verified(self) -> bool:
        return self.unresolved is None

    @property
    def matches_formula(self) -> bool:
        return formula_dim(self.n, self.t) == len(self.basis)


def answer(n: int, t: int, method: str = "auto", max_k: int | None = None,
           budget: int | None = None) -> Answer:
    """dim C(n, +/-{1..t}) by ``method`` with a checked basis; a dimension
    above ``max_k`` raises ``NoBasisWithinError``."""
    g = make_consecutive(n, t)
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if max_k is not None and max_k < 1:
        raise ValueError("max_k must be at least 1")
    row = table_row(n, t)
    if row is None and method == "formula":
        raise NoFormulaError(f"no closed-form dimension known for n={n}, t={t}")
    search = None
    if row is None or method in ("search", "oracle"):  # both stop at max_k themselves
        search = (brute_force_dim if method == "oracle" else exact_dim)(
            g, max_k=max_k, budget=budget)
        complete = row is None and g.diameter == 1
        note = "complete-graph fringe: dimension from exact search" if complete else None
        dim, basis, method = search.dim, search.basis, search.method
        source = "search-fallback"
    elif max_k is not None and row[0] > max_k:  # before any basis is built
        raise NoBasisWithinError(f"no resolving set of size <= {max_k} found for {g}")
    else:
        dim, witness = row
        basis, source = witness or (find_basis_of_size(g, dim, budget), "search-fallback")
        note, method = _NOTES.get((t, n)), "formula"
    return Answer(n, t, dim, tuple(sorted(basis)), method, source, note,
                  is_resolving(g, basis), search)


def basis_t4(n: int, budget: int | None = None) -> Answer:
    """A checked metric basis of C(n, +/-{1,2,3,4}) with its provenance tag."""
    if n < 5:
        raise ValueError(f"basis_t4 needs n >= 5, got {n}")
    return answer(n, 4, budget=budget)
