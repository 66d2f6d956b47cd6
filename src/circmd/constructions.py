"""Explicit metric bases for C(n, +/-{1,2,3,4}) and their verification.

Closed-form witnesses exist for two residue families and three sporadic
orders:

    n = 8k + 9 (k >= 1):  {0, 1, 4, 7, 4k+6, 4k+7}
    n = 8k + 7 (k >= 1):  {0, 1, 2, 3, 4, 5}
    n = 5:                {0, 1, 2, 3}
    n = 11:               {0, 2, 3, 10}
    n = 19:               published as {0, 2, 7, 19}, but 19 = 0 (mod 19)
                          collapses that set to three vertices; the
                          lex-least 4-element basis {0, 2, 7, 14} stands in.

All remaining residues get witnesses from a search constrained to the
known dimension, tagged ``search-fallback``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .formulas import formula_dim
from .graph import CirculantGraph, make_consecutive
from .resolve import is_resolving
from .solver import exact_dim, find_basis_of_size

REMARK_19_PUBLISHED = (0, 2, 7, 19)


@dataclass(frozen=True)
class ConstructionReport:
    n: int
    basis: tuple[int, ...]
    source: str  # remark-5 | remark-11 | remark-19 | upper-8k7 | upper-8k9 | search-fallback
    verified: bool
    matches_formula: bool
    note: Optional[str] = None


def family_basis_8k9(k: int) -> tuple[int, ...]:
    """Witness {0, 1, 4, 7, 4k+6, 4k+7} for n = 8k + 9, k >= 1."""
    if k < 1:
        raise ValueError("family needs k >= 1")
    return (0, 1, 4, 7, 4 * k + 6, 4 * k + 7)


def family_basis_8k7(k: int) -> tuple[int, ...]:
    """Witness {0, 1, 2, 3, 4, 5} for n = 8k + 7, k >= 1."""
    if k < 1:
        raise ValueError("family needs k >= 1")
    return (0, 1, 2, 3, 4, 5)


def _report(g: CirculantGraph, basis: tuple[int, ...], source: str,
            note: Optional[str] = None) -> ConstructionReport:
    verified = is_resolving(g, basis) is None
    target = formula_dim(g.n, 4)
    return ConstructionReport(
        n=g.n, basis=tuple(sorted(basis)), source=source, verified=verified,
        matches_formula=target is not None and len(basis) == target, note=note)


def basis_t4(n: int, budget: Optional[int] = None) -> ConstructionReport:
    """A verified metric basis of C(n, +/-{1,2,3,4}) with its provenance tag."""
    if n < 5:
        raise ValueError(f"basis_t4 needs n >= 5, got {n}")
    g = make_consecutive(n, 4)
    if n == 5:
        return _report(g, (0, 1, 2, 3), "remark-5")
    if n == 11:
        return _report(g, (0, 2, 3, 10), "remark-11")
    if n == 19:
        # The published 4-set contains vertex 19 = 0 (mod 19), a duplicate
        # of vertex 0; the lex-least 4-element basis replaces it.
        basis = (0, 2, 7, 14)
        collapsed = sorted({v % 19 for v in REMARK_19_PUBLISHED})
        return _report(
            g, basis, "remark-19",
            note=(f"published witness {list(REMARK_19_PUBLISHED)} collapses to "
                  f"{collapsed} mod 19; replaced by the lex-least basis "
                  f"{list(basis)}"))
    if n % 8 == 1 and n >= 17:
        return _report(g, family_basis_8k9((n - 9) // 8), "upper-8k9")
    if n % 8 == 7 and n >= 15:
        return _report(g, family_basis_8k7((n - 7) // 8), "upper-8k7")
    target = formula_dim(n, 4)
    if target is not None:
        basis = find_basis_of_size(g, target, budget=budget)
        assert basis is not None
        return _report(g, basis, "search-fallback")
    # complete-graph fringe n in {6..9}: no formula, full exact search
    result = exact_dim(g, budget=budget)
    return _report(g, result.basis, "search-fallback",
                   note="complete-graph fringe: dimension from exact search")


@dataclass(frozen=True)
class RangeVerdict:
    k: int
    n: int
    basis: tuple[int, ...]
    resolving: bool
    size_matches_formula: bool

    @property
    def ok(self) -> bool:
        return self.resolving and self.size_matches_formula


def verify_construction_range(residue: int, k_max: int) -> list[RangeVerdict]:
    """Check the closed-form family for n = 8k + residue, k = 1..k_max."""
    if residue not in (7, 9):
        raise ValueError(f"closed-form families exist for residues 7 and 9, got {residue}")
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    family = family_basis_8k7 if residue == 7 else family_basis_8k9
    verdicts = []
    for k in range(1, k_max + 1):
        n = 8 * k + residue
        g = make_consecutive(n, 4)
        basis = family(k)
        verdicts.append(RangeVerdict(
            k=k, n=n, basis=basis,
            resolving=is_resolving(g, basis) is None,
            size_matches_formula=len(basis) == formula_dim(n, 4)))
    return verdicts
