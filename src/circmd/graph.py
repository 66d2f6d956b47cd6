"""Circulant graphs on Z_n with precomputed distance rows.

A circulant graph C(n, +/-S) has vertices 0..n-1 and an edge between i and j
whenever (j - i) mod n or (i - j) mod n lies in the step set S.  Rotation
i -> i + c is an automorphism, so the full distance table is determined by
the single row of distances from vertex 0.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .formulas import split


def canonical_steps(n: int, raw_steps) -> tuple[int, ...]:
    """Fold steps into [1, n//2], drop zeros, merge duplicates.

    A step s and n - s generate the same edges, and s = 0 mod n generates
    none, so every step set has a unique canonical form inside [1, n//2].
    """
    if n < 3:
        raise ValueError(f"order must be at least 3, got {n}")
    folded = set()
    for s in raw_steps:
        s = s % n
        if s == 0:
            continue
        folded.add(min(s, n - s))
    if not folded:
        raise ValueError("step set is empty after canonicalization")
    return tuple(sorted(folded))


@dataclass(frozen=True)
class CirculantGraph:
    """Immutable circulant graph; safe for concurrent read access.  Its
    lazy entries, ``dist_row``, ``diameter``, ``layers``, ``planes``, each
    mask in ``spheres`` and each entry of ``separators``, are filled on
    first use: two readers may both fill one, with the same value."""

    n: int
    steps: tuple[int, ...]

    def __post_init__(self):
        steps = canonical_steps(self.n, self.steps)
        object.__setattr__(self, "steps", steps)
        if math.gcd(self.n, *steps) != 1:
            raise ValueError(f"C({self.n}, {steps}) is disconnected")

    @property
    def is_consecutive(self) -> bool:
        """True when the step set is {1, 2, ..., t}: t distinct steps up to t."""
        return len(self.steps) == self.steps[-1]

    @property
    def t(self) -> int:
        """Largest step; for consecutive step sets this is the usual t."""
        return self.steps[-1]

    @cached_property
    def dist_row(self) -> tuple[int, ...]:
        """Distances from vertex 0; entry d gives dist(0, d).

        For consecutive step sets the closed form ceil(d / t) fills the
        half row d = 0..n//2 in one pass, and entry n - d mirrors entry d;
        other step sets take a BFS.  Rotation invariance extends it to all
        pairs.
        """
        if self.is_consecutive:
            n, t = self.n, self.t
            half = [-(-d // t) for d in range(n // 2 + 1)]
            return tuple(half + half[(n - 1) // 2:0:-1])
        return tuple(_bfs_row(self.n, self.steps, 0))

    @cached_property
    def spheres(self) -> dict[int, int]:
        """Entry r: ``sphere(r)``, kept on first use."""
        return {}

    def sphere(self, r: int) -> int:
        """Mask of the vertices at distance r <= diameter from 0, doubled
        (m | m << n) so that ``>> (n - x)`` rotates it to x: for consecutive
        steps the arc t(r-1)+1 .. min(tr, n//2) and its mirror (r = 0: {0}),
        else one pass over ``layers``, which fills every radius."""
        spheres, n = self.spheres, self.n
        if r not in spheres:
            if self.is_consecutive:
                t = self.t
                lo, hi = t * (r - 1) + 1, min(t * r, n // 2)
                arc = (1 << hi - lo + 1) - 1
                m = arc << lo | arc << n - hi if r else 1
                spheres[r] = m | m << n
            else:
                for d, layer in enumerate(self.layers):
                    m = sum(1 << y for y in layer)
                    spheres[d] = m | m << n
        return spheres[r]

    @cached_property
    def layers(self) -> list[list[int]]:
        """Entry d: the vertices at distance d from 0, ascending."""
        layers: list[list[int]] = [[] for _ in range(self.diameter + 1)]
        for y, d in enumerate(self.dist_row):
            layers[d].append(y)
        return layers

    @cached_property
    def separators(self) -> list[Optional[int]]:
        """Entry delta, for delta <= n // 2: ``separator(delta)`` once that
        has run, else None."""
        return [None] * (self.n // 2 + 1)

    def separator(self, delta: int) -> int:
        """The doubled mask m | m << n of m = sep(0, delta), the y with
        d(0, y) != d(0, y - delta), for delta <= n // 2, stored in
        ``separators``.  Two distances differ exactly when some plane
        differs at y, so m = OR over ``planes`` P of P ^ rot(P, delta), one
        shift of P doubled."""
        n, mask = self.n, 0
        for plane, twice in self.planes:
            mask |= plane ^ (twice >> (n - delta))
        mask &= (1 << n) - 1
        mask |= mask << n
        self.separators[delta] = mask
        return mask

    @cached_property
    def planes(self) -> list[tuple[int, int]]:
        """Plane b, alone and doubled: the y whose d(0, y) has bit b set."""
        n, planes = self.n, [0] * self.diameter.bit_length()
        for d, layer in enumerate(self.layers):
            bits, b = sum(1 << y for y in layer), 0
            while d:  # layer d joins the planes of the set bits of d
                if d & 1:
                    planes[b] |= bits
                d, b = d >> 1, b + 1
        return [(plane, plane | plane << n) for plane in planes]

    def dist(self, i: int, j: int) -> int:
        return self.dist_row[(j - i) % self.n]

    @cached_property
    def diameter(self) -> int:
        return max(self.dist_row)

    @property
    def vertices(self) -> range:
        return range(self.n)

    def __repr__(self):
        return f"CirculantGraph(n={self.n}, steps={self.steps})"


def make_consecutive(n: int, t: int) -> CirculantGraph:
    """Build C(n, +/-{1, ..., t}).

    Steps beyond n//2 fold back, so t >= n//2 yields the complete graph;
    only the steps up to n//2 are built, so a huge t costs nothing extra.
    """
    if t < 1:
        raise ValueError(f"max step must be at least 1, got {t}")
    return CirculantGraph(n, tuple(range(1, min(t, n // 2) + 1)))


def distance_closed_form(n: int, t: int, i: int, j: int) -> int:
    """Hop count between i and j in C(n, +/-{1..t}), one pair at a time:
    the reference ``dist_row`` is checked against.

    With delta the circular gap between i and j folded into [0, n//2],
    the distance is ceil(delta / t): each hop covers at most t positions
    along the shorter arc.
    """
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"vertices must lie in [0, {n}), got ({i}, {j})")
    if not 1 <= t <= n // 2:
        raise ValueError(f"closed form needs 1 <= t <= n//2, got t={t}, n={n}")
    delta = (j - i) % n
    if delta > n // 2:
        delta = n - delta
    return -(-delta // t)


def _bfs_row(n: int, steps, source: int) -> list[int]:
    dist = [-1] * n
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for s in steps:
            for u in ((v + s) % n, (v - s) % n):
                if dist[u] < 0:
                    dist[u] = dist[v] + 1
                    queue.append(u)
    return dist


def check_vertices(g: CirculantGraph, vertices: Iterable[int]) -> None:
    """Raise ValueError unless every vertex lies in [0, n).  A plain loop:
    it costs less than min and max on the small sets the oracle checks."""
    n = g.n
    for x in vertices:
        if not 0 <= x < n:
            raise ValueError(f"vertex must lie in [0, {n}), got {x}")


def distance_bfs(g: CirculantGraph, i: int, j: int) -> int:
    """Independent shortest-path oracle: plain BFS from i, no closed form."""
    if not (0 <= i < g.n and 0 <= j < g.n):
        raise ValueError(f"vertices must lie in [0, {g.n}), got ({i}, {j})")
    return _bfs_row(g.n, g.steps, i)[j]


def diameter_set(g: CirculantGraph, v: int) -> frozenset[int]:
    """Vertices at diameter distance from v, for t = 4 and n = 8k + r.

    For these graphs the diameter is k + 1 and the far set from v is the
    arc {v + 4k + 1, ..., v + 4k + r - 1} of size r - 1.
    """
    if not (g.is_consecutive and g.t == 4):
        raise ValueError("diameter_set requires step set {1,2,3,4}")
    check_vertices(g, (v,))
    k, r = split(g.n, 4)
    return frozenset((v + 4 * k + j) % g.n for j in range(1, r))
