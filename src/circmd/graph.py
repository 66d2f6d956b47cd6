"""Circulant graphs C(n, +/-{1..t}) on Z_n, each distance row built on first read.

C(n, +/-{1..t}) has vertices 0..n-1 and an edge between i and j whenever
their circular gap is at most t.  Rotation i -> i + c is an automorphism,
so the full distance table is determined by the single row of distances
from vertex 0, and that row is the closed form ceil(gap / t).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from functools import cached_property


class CirculantGraph(namedtuple("CirculantGraph", "n t")):
    """C(n, +/-{1..t}) for n >= 3 and 1 <= t <= n // 2; immutable and safe
    for concurrent read access.  Its lazy entries, ``dist_row``, ``planes``
    and each entry of ``separators`` and ``probe_twins``, are filled on
    first use, in the instance ``__dict__``: two readers may both fill one,
    with the same value."""

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, n: int, t: int):
        if n < 3:
            raise ValueError(f"order must be at least 3, got {n}")
        if not 1 <= t <= n // 2:
            raise ValueError(f"max step must lie in [1, {n // 2}], got {t}")
        return tuple.__new__(cls, (n, t))

    @cached_property
    def dist_row(self) -> tuple[int, ...]:
        """Entry d: dist(0, d) = ceil(d / t), for ``dist`` and ``resolve``: 0 and
        t copies of each distance 1..diameter, cut at d = n // 2 and mirrored."""
        half = [0, *sorted([*range(1, self.diameter + 1)] * self.t)][:self.n // 2 + 1]
        return tuple(half + half[(self.n - 1) // 2:0:-1])

    def arc(self, d: int) -> range:
        """The y in 1..n//2 at distance d from 0, for 1 <= d <= diameter:
        t(d-1)+1 .. min(td, n//2), as d(0, y) = ceil(y / t)."""
        return range(self.t * (d - 1) + 1, min(self.t * d, self.n // 2) + 1)

    def arc_mask(self, d: int) -> int:
        """Mask of the vertices at distance d from 0: ``arc(d)`` and its mirror."""
        arc = self.arc(d)
        ones = (1 << len(arc)) - 1
        return ones << arc.start | ones << self.n + 1 - arc.stop

    @cached_property
    def separators(self) -> list[int | None]:
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
        """Plane b, alone and doubled: the y whose d(0, y) has bit b set.  On
        1..n//2 these are runs of t * 2^b ones at period t * 2^(b+1) from
        y = t(2^b - 1) + 1, laid down by one repunit multiply and cut at
        n // 2; the other half is that half reversed, bit y to bit n - y."""
        n, t, half, planes = self.n, self.t, self.n // 2, []
        for b in range(self.diameter.bit_length()):
            run, period = t << b, t << b + 1
            start = run - t + 1
            repunit = ((1 << period * ((half - start) // period + 1)) - 1) // ((1 << period) - 1)
            m = ((1 << run) - 1) * repunit << start & (2 << half) - 1
            plane = m | int(f"{m:0{n + 1}b}"[::-1], 2)
            planes.append((plane, plane | plane << n))
        return planes

    @cached_property
    def probe_twins(self) -> list[int | None]:
        """Entry x: None until ``is_resolving`` packs the probes' twins about x."""
        return [None] * self.n

    def dist(self, i: int, j: int) -> int:
        return self.dist_row[(j - i) % self.n]

    @property
    def diameter(self) -> int:
        """ceil((n // 2) / t), the distance of the antipode n // 2."""
        return -(-(self.n // 2) // self.t)

    @property
    def vertices(self) -> range:
        return range(self.n)

    def __repr__(self):
        return f"CirculantGraph(n={self.n}, steps={tuple(range(1, self.t + 1))})"


def make_consecutive(n: int, t: int) -> CirculantGraph:
    """Build C(n, +/-{1, ..., t}).

    Steps beyond n//2 fold back, so t >= n//2 yields the complete graph
    C(n, +/-{1..n//2}); a huge t costs nothing extra.
    """
    if t < 1:
        raise ValueError(f"max step must be at least 1, got {t}")
    return CirculantGraph(n, min(t, n // 2))


def check_vertices(g: CirculantGraph, vertices: Iterable[int]) -> None:
    """Raise ValueError unless every vertex lies in [0, n).  The oracle's
    ``is_resolving`` runs this loop, message included, inline."""
    n = g.n
    for x in vertices:
        if not 0 <= x < n:
            raise ValueError(f"vertex must lie in [0, {n}), got {x}")
