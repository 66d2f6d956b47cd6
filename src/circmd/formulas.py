"""Closed-form metric dimensions and published bounds for C(n, +/-{1..t}).

The dimension is fully determined for t in {2, 3, 4}:

    t = 2:  4 when n = 1 (mod 4), else 3            (n >= 6)
    t = 3:  5 when n = 1 (mod 6), else 4            (n >= 8)
    t = 4:  4 when n = 4 (mod 8)
            5 when n = +/-2 or +/-3 (mod 8)         (n >= 10)
            6 when n = 0 or +/-1 (mod 8)
            with sporadic exceptions dim = 4 at n in {5, 11, 19}.

For t = 4 the residue formula is stated for n >= 6, but C(8, +/-{1..4}) and
C(9, +/-{1..4}) are complete graphs with dimensions 7 and 8, which the
residue cases would contradict.  We therefore abstain on n in {6..9} and
leave that fringe to exact search; see the divergence note in the table
output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

T4_EXCEPTIONS = frozenset({5, 11, 19})


def formula_dim(n: int, t: int) -> Optional[int]:
    """Known exact metric dimension, or None where no formula applies."""
    if n < 3:
        raise ValueError(f"order must be at least 3, got {n}")
    if t == 2 and n >= 6:
        return 4 if n % 4 == 1 else 3
    if t == 3 and n >= 8:
        return 5 if n % 6 == 1 else 4
    if t == 4:
        if n in T4_EXCEPTIONS:
            return 4
        if n >= 10:
            r = n % 8
            if r == 4:
                return 4
            if r in (2, 3, 5, 6):
                return 5
            return 6  # r in (0, 1, 7)
    return None


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


def known_bounds(n: int, t: int) -> BoundsReport:
    """Best general bounds on dim C(n, +/-{1..t}) for n >= 2t + 2.

    Each rule is a residue test on r = (n - 2) mod 2t and is tagged in the
    provenance when it fires:

    - lb-general:   dim >= t, always (n >= 2t + 2).
    - lb-residue:   dim >= t + 1 iff r >= t, that is n = 2kt + s with
                    t + 2 <= s <= 2t + 1 (Vetrik, Canad. Math. Bull. 2017).
    - ub-even-step: dim <= t + 1 + ((n - t - 2) mod 2t) / 2 iff t and n
                    are both even, that is n = 2kt + t + 2p with the
                    least p >= 1 (Chau and Gosselin, Opuscula Math. 2017).
    - ub-residue:   dim <= t + 1 iff r <= t, that is n = 2kt + s with
                    k >= 1 and 2 <= s <= t + 2.

    Below n = 2t + 2 the graph is complete (dim = n - 1) and none of
    these rules applies, so that range is rejected.
    """
    if t < 2:
        raise ValueError(f"bounds require t >= 2, got {t}")
    if n < 2 * t + 2:
        raise ValueError(f"complete-graph range: bounds require n >= {2 * t + 2}, got {n}")
    r = (n - 2) % (2 * t)
    lower, provenance = t, ["lb-general"]
    upper: Optional[int] = None
    if r >= t:
        lower = t + 1
        provenance.append("lb-residue")
    if t % 2 == 0 and n % 2 == 0:
        upper = t + 1 + (n - t - 2) % (2 * t) // 2
        provenance.append("ub-even-step")
    if r <= t:
        upper = t + 1
        provenance.append("ub-residue")
    return BoundsReport(lower, upper, tuple(provenance))
