"""Closed-form metric dimensions and published bounds for C(n, +/-{1..t}).

Every closed form is one table, keyed by t and by the residue s of
n = 2t*k + s, where k = (n - 2) // 2t and 2 <= s <= 2t + 1.  Then k >= 1
exactly when n >= 2t + 2.  ``split`` is the one place that works out
(k, s), and ``table_row`` the one place that reads the table.

``DIMS[t][s - 2]`` is the dimension for n >= 2t + 2:

    t = 2:  s = 2..5   ->  3 3 3 4         (4 when n = 1 mod 4)
    t = 3:  s = 2..7   ->  4 4 4 4 4 5     (5 when n = 1 mod 6)
    t = 4:  s = 2..9   ->  5 5 4 5 5 6 6 6

``SPORADIC[(t, n)]`` is a witness basis at one order (tag ``remark-<n>``),
and the dimension there is its size, ahead of ``DIMS``:

    t = 4, n = 5:   {0, 1, 2, 3}
    t = 4, n = 11:  {0, 2, 3, 10}
    t = 4, n = 19:  published as {0, 2, 7, 19}, but 19 = 0 (mod 19)
                    collapses that set to three vertices; the lex-least
                    4-element basis {0, 2, 7, 14} stands in.

``FAMILIES[(t, s)]`` is (tag, rule): a basis for every n = 2t*k + s with
k >= 1, with vertex a + b*k for each (a, b) of the rule:

    t = 4, s = 7 (upper-8k7):  {0, 1, 2, 3, 4, 5}
    t = 4, s = 9 (upper-8k9):  {0, 1, 4, 7, 4k+6, 4k+7}

Below n = 2t + 2 the graph is complete or nearly so, and no row but a
sporadic one applies.  ``known_bounds`` states no bound there, nor for
t = 1: like ``table_row`` it returns None where none of its rules
applies.  For t = 4 the paper states its residue formula from n = 6, but
C(8, +/-{1..4}) and C(9, +/-{1..4}) are complete graphs with dimensions
7 and 8, which the residue cases would contradict; n = 6..9 is left to
exact search (see the divergence note in the table output).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

DIMS = {2: (3, 3, 3, 4), 3: (4, 4, 4, 4, 4, 5), 4: (5, 5, 4, 5, 5, 6, 6, 6)}
SPORADIC = {(4, 5): (0, 1, 2, 3), (4, 11): (0, 2, 3, 10), (4, 19): (0, 2, 7, 14)}
FAMILIES = {
    (4, 7): ("upper-8k7", ((0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (5, 0))),
    (4, 9): ("upper-8k9", ((0, 0), (1, 0), (4, 0), (7, 0), (6, 4), (7, 4))),
}


def split(n: int, t: int) -> tuple[int, int]:
    """Write n = 2t*k + s with k >= 1 and 2 <= s <= 2t + 1; needs t >= 1
    and n >= 2t + 2."""
    if t < 1 or n < 2 * t + 2:
        raise ValueError(f"n = 2tk + s needs t >= 1 and n >= 2t + 2, got n={n}, t={t}")
    k = (n - 2) // (2 * t)
    return k, n - 2 * t * k


def table_row(n: int, t: int) -> Optional[tuple[int, Optional[tuple[tuple[int, ...], str]]]]:
    """(dim, (basis, source) or None) from the table, or None where no row
    applies: a ``SPORADIC`` witness first, then ``DIMS`` with the
    ``FAMILIES`` witness, if any, for n >= 2t + 2."""
    if n < 3:
        raise ValueError(f"order must be at least 3, got {n}")
    if (t, n) in SPORADIC:
        return len(SPORADIC[t, n]), (SPORADIC[t, n], f"remark-{n}")
    if t not in DIMS or n < 2 * t + 2:
        return None
    k, s = split(n, t)
    if (t, s) not in FAMILIES:
        return DIMS[t][s - 2], None
    source, rule = FAMILIES[t, s]
    return DIMS[t][s - 2], (tuple(a + b * k for a, b in rule), source)


def formula_dim(n: int, t: int) -> Optional[int]:
    """Known exact metric dimension, or None where no formula applies."""
    row = table_row(n, t)
    return None if row is None else row[0]


@dataclass(frozen=True)
class BoundsReport:
    lower: int
    upper: Optional[int]
    provenance: tuple[str, ...]

    def __post_init__(self):
        if self.lower < 1:
            raise ValueError("lower bound must be at least 1")
        if self.upper is not None and self.lower > self.upper:
            raise ValueError("lower bound exceeds upper bound")


def known_bounds(n: int, t: int) -> Optional[BoundsReport]:
    """Best general bounds on dim C(n, +/-{1..t}), or None where no rule
    applies: t < 2, or n < 2t + 2, where the graph is complete or nearly so.

    Each rule is a residue test on s of n = 2t*k + s (``split``) and is
    tagged in the provenance when it fires:

    - lb-general:   dim >= t, always.
    - lb-residue:   dim >= t + 1 iff t + 2 <= s <= 2t + 1 (Vetrik,
                    Canad. Math. Bull. 2017).
    - ub-even-step: dim <= t + 1 + ((s - t - 2) mod 2t) / 2 iff t and n
                    are both even, that is n = 2kt + t + 2p with the
                    least p >= 1 (Chau and Gosselin, Opuscula Math. 2017).
    - ub-residue:   dim <= t + 1 iff 2 <= s <= t + 2.
    """
    if t < 2 or n < 2 * t + 2:
        return None
    _, s = split(n, t)
    lower, provenance = t, ["lb-general"]
    upper: Optional[int] = None
    if s >= t + 2:
        lower = t + 1
        provenance.append("lb-residue")
    if t % 2 == 0 and n % 2 == 0:
        upper = t + 1 + (s - t - 2) % (2 * t) // 2
        provenance.append("ub-even-step")
    if s <= t + 2:
        upper = t + 1
        provenance.append("ub-residue")
    return BoundsReport(lower, upper, tuple(provenance))
