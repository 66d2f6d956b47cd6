"""Circulant graphs C(n, +/-{1..t}) on Z_n, each distance row built once, on first read.

C(n, +/-{1..t}) has vertices 0..n-1 and an edge between i and j whenever
their circular gap is at most t.  Rotation i -> i + c is an automorphism,
so the full distance table is determined by the single row of distances
from vertex 0, and that row is the closed form ceil(gap / t).
"""

from __future__ import annotations

import sys
from array import array
from collections import namedtuple
from collections.abc import Iterable
from functools import cached_property


class CirculantGraph(namedtuple("CirculantGraph", "n t")):
    """C(n, +/-{1..t}) for n >= 3 and 1 <= t <= n // 2; immutable and safe for concurrent
    read access.  Lazy entries ``dist_row`` and ``packed_row`` (neither reads the other),
    ``planes`` and each entry of ``separators`` and ``probe_twins`` fill on first use in
    the instance ``__dict__``; two readers may both fill one, with the same value."""

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, n: int, t: int):
        if n < 3:
            raise ValueError(f"order must be at least 3, got {n}")
        if not 1 <= t <= n // 2:
            raise ValueError(f"max step must lie in [1, {n // 2}], got {t}")
        return tuple.__new__(cls, (n, t))

    def _little_endian_row(self) -> tuple[array, int]:
        """(row, W): entry d is dist(0, d) = ceil(min(d, n - d) / t) in little-endian
        W-bit fields, top bits clear.  Entries 0..n//2 are one int's fields, laid down by
        doubling: if fields 1..tm hold 1..m, they and their copy plus m, tm up, hold 1..2m."""
        n, t, i = self.n, self.t, (self.diameter.bit_length() // 8).bit_length()
        W, width = 8 << i, (n // 2 + 1) * (8 << i)
        ones = run = int.from_bytes((1).to_bytes(1 << i, "little") * t, "little") << W
        m = 1  # run: fields 1..tm; ones: 1 in each of them
        while t * m * W < width:
            run |= run + m * ones << t * m * W
            ones |= ones << t * m * W
            m *= 2
        row = array("BHIQ"[i], (run & (1 << width) - 1).to_bytes(width >> 3, "little"))
        row += row[(n - 1) // 2:0:-1]
        return row, W

    @cached_property
    def dist_row(self) -> array:
        """Entry d: dist(0, d), in native byte order; read by ``dist`` and the zips."""
        row = self._little_endian_row()[0]
        if sys.byteorder == "big":
            row.byteswap()
        return row

    @cached_property
    def packed_row(self) -> tuple[int, int, int]:
        """(R, H, W): the distance row three times over as one int, field v at bit
        v * W; and the mask of its first n fields' top bits.  Reads no ``dist_row``."""
        row, W = self._little_endian_row()
        return (int.from_bytes(row.tobytes() * 3, "little"),
                int.from_bytes((1 << W - 1).to_bytes(W >> 3, "little") * self.n, "little"), W)

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
        """Entry x: None until a repeat ``is_resolving`` packs the probes' twins about x."""
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
