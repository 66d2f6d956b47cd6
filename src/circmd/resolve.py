"""Resolving sets: representations, witness pairs, blocks and clusters.

An ordered landmark list X assigns each vertex v the distance tuple
r(v|X).  X resolves the graph when these tuples are pairwise distinct.
The machinery below also covers the finer notions used by the lower-bound
arguments: the equivalence "same representation under S", blocks (subsets
of one equivalence class) and clusters (tuples of blocks that have to be
resolved simultaneously, each block internally).

The short-pair lemma: X resolves C(n, ±{1..t}) exactly when it separates
every pair at circular gap <= G = max(2, 2t - 1); a complete graph has no
other pair, and n >= 2t + 2 keeps each distance below in [0, n/2].
1. A tied pair v, w (no x in X separates it) has gap < t, or its axis c = v + w
   lies in 2x + [1-t, t-1] (mod n) for each x in X: d(x, v) = d(x, w) > 0 puts
   v, w at x ± s, x ± s' with s, s' in one arc of at most t values; on one
   side of x the gap is |s - s'| < t, on opposite sides v + w = 2x ± (s - s').
2. At gap >= t, each x is p + e or p' + e, p = c/2, p' = p + n/2, |e| <= E <=
   (t-1)/2, and the pair is p ± a, 0 < a <= n/4 (swap p, p'), so a >= t/2 > E.
   x = p + e ties it iff [a - |e|, a + |e|) holds no multiple of t, x = p' + e
   iff [n/2 - a - |e|, n/2 - a + |e|) holds none; a -> a - t shifts each by t,
   so some tied a lies in (E, E + t].  If a < t, the gap 2a is below 2t.
3. If a > t, each x = p + e has |e| < b = a - t, and p ± b is tied, of gap 2b < t:
   at p + e the interval lies in (0, t), at p' + e in the old one shifted by t
   (for |e| > b it is [n/2 - |e| - b, n/2 - |e| + b)).  If a = t, each x at p is
   p, and p' ± b, b the least vertex offset above E, is tied, of gap 2b <= t + 1:
   x = p is on its axis, and at p' + e, [b - |e|, b + |e|) lies in (0, t).

``equivalence_classes`` and the cluster checks zip r(v|X) for all v from
rows sliced from dist_row on every call; ``is_resolving`` zips nothing: it
reads the graph's packed row, and probe twins only once that row is built.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence

from .graph import CirculantGraph, check_vertices


class WitnessPair(namedtuple("WitnessPair", "u v")):
    """Two distinct vertices sharing a representation; a failure certificate."""

    __slots__ = ()
    _make = classmethod(lambda cls, pair: cls(*pair))  # so _replace validates too

    def __new__(cls, u: int, v: int):
        if u == v:
            raise ValueError("witness pair must consist of distinct vertices")
        return tuple.__new__(cls, (u, v))


class Cluster(namedtuple("Cluster", "blocks")):
    """Ordered tuple of pairwise-disjoint nonempty blocks, each of distinct
    vertices; field ``blocks`` holds them as frozensets."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, blocks: Iterable[Iterable[int]]):
        listed = [list(b) for b in blocks]  # each block read once
        frozen = tuple(map(frozenset, listed))
        if not frozen:
            raise ValueError("cluster needs at least one block")
        seen: set[int] = set()
        for b, vertices in zip(frozen, listed):
            if not b:
                raise ValueError("cluster blocks must be nonempty")
            if len(b) != len(vertices):  # a repeat is refused, not merged
                raise ValueError(f"block {sorted(vertices)} has duplicate vertices")
            if seen & b:
                raise ValueError(f"cluster blocks overlap: {sorted(seen & b)}")
            seen |= b
        return tuple.__new__(cls, (frozen,))

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset().union(*self.blocks)


_PROBES = 5  # vertices checked for a twin, packed per landmark, before the packed row


def _reps(g: CirculantGraph, landmarks: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """r(v|X) for v = 0..n-1, zipped from dist_row rotated to each landmark."""
    row, n = g.dist_row, g.n
    columns = [row[-x % n:] + row[:-x % n] for x in landmarks]
    return zip(*columns) if columns else iter([()] * n)


def representation(g: CirculantGraph, v: int, landmarks: Sequence[int]) -> tuple[int, ...]:
    """r(v|X): the distances from v to the landmarks, in their order, each
    the closed form ceil(min(d, n - d) / t) of its gap d: no distance row
    is built, however large n."""
    landmarks = tuple(landmarks)
    if not landmarks:
        raise ValueError("landmark list must be nonempty")
    check_vertices(g, (v, *landmarks))
    n, t = g.n, g.t
    return tuple(-(-min(d, n - d) // t) for d in ((v - x) % n for x in landmarks))


def _least_collision(keys: Sequence[tuple[int, ...]],
                     vertices: Sequence[int]) -> WitnessPair | None:
    """Lexicographically least pair of sorted vertices with equal keys, or
    None; keys[i] is the representation of vertices[i]."""
    last = dict(zip(keys, vertices))
    for i, (u, key) in enumerate(zip(vertices, keys)):
        if last[key] != u:
            return WitnessPair(u, vertices[keys.index(key, i + 1)])


def _tied_pairs(g: CirculantGraph, X: set[int]) -> Iterator[WitnessPair]:
    """Per gap and per axis checked, the least pair v < w that no landmark in X
    separates (built unvalidated), off the zero fields of ORs of packed rows:
    by step 1 of the short-pair lemma, each has gap < t or such an axis c."""
    (R, H, W), n, t = g.packed_row, g.n, g.t  # three turns, top bits, field width
    M = (1 << (n + t) * W) - 1  # n fields, and t to shift in from past n
    rows = {x: R >> (n - x) * W & M for x in X}  # row(x), field v: d(x, v)
    for d in range(1, t):  # row(x) ^ row(x - d), field v: (v, v + d) or (v + d - n, v)
        acc = 0
        for r in rows.values():
            acc |= r ^ r >> d * W
        if z := H - acc & H:  # zero fields' top bits: each top bit clear, none borrows
            u = z | z >> (n - d) * W  # (v + d - n, v) read at field v + d - n
            u = (u & -u).bit_length() // W - 1
            yield tuple.__new__(WitnessPair, (u, u + (d if z >> u * W + W - 1 & 1 else n - d)))
    x0, h = next(iter(X)), t - 1
    if all((2 * (x - x0) + 2 * h) % n <= 4 * h for x in X):  # every window meets x0's
        for c in {(2 * x0 + j) % n for j in range(-h, h + 1)}:
            if all((c - 2 * x + h) % n <= 2 * h for x in X):  # row(x) ^ row(c - x)
                acc = sum(1 << v * W for v in {c // 2, (c + n) // 2} if 2 * v % n == c)
                for x, r in rows.items():  # acc starts nonzero at the v with 2v = c
                    acc |= r ^ R >> (n - (c - x) % n) * W
                if z := H - acc & H:  # field v: (v, c - v)
                    v = (z & -z).bit_length() // W - 1
                    yield tuple.__new__(WitnessPair, (v, (c - v) % n))


def is_resolving(g: CirculantGraph, landmarks: Iterable[int]) -> WitnessPair | None:
    """None when the set resolves the graph, else the least unresolved pair.
    Every landmark must lie in [0, n).

    Once ``packed_row`` is built (a first check builds it), field u (at bit u * n) of the
    AND of the landmarks' ``probe_twins`` entries holds the twins above probe u: its lowest
    bit u * n + w gives the least pair (u, w), as a twin below u pairs with u at its own
    probe, and w > u, so it is built unvalidated.  Else, on a complete graph the two
    least vertices outside X are the least pair; on any other, ``_tied_pairs`` decides."""
    X = set(landmarks)
    if not X:
        raise ValueError("landmark set must be nonempty")
    n, t, twins = g.n, g.t, 0
    for x in X:  # every landmark checked before any entry is filled
        if not 0 <= x < n:
            raise ValueError(f"vertex must lie in [0, {n}), got {x}")
    if "packed_row" in g.__dict__:  # checked before: probes pay off only on repeats
        table, twins = g.probe_twins, -1
    for x in (X if twins else ()):
        entry = table[x]
        if entry is None:  # field u: u's sphere about x above u, empty if x = u
            top, packed, last = 1 << n, 0, -1
            for u in range(min(_PROBES, n)):
                r = -(-min((u - x) % n, (x - u) % n) // t)  # d(x, u), the closed form
                if r != last:  # arc_mask(r), {0} at r = 0, doubled and rotated to x
                    last, m = r, g.arc_mask(r) if r else 1
                    sphere = (m | m << n) >> n - x
                packed |= (sphere & top - (2 << u)) << u * n
            table[x] = entry = packed
        twins &= entry
    if twins:
        return tuple.__new__(WitnessPair, divmod((twins & -twins).bit_length() - 1, n))
    if g.diameter == 1:  # complete: each vertex outside X has r(v|X) = (1, ..., 1)
        outside = (v for v in range(n) if v not in X)
        u, w = next(outside, None), next(outside, None)
        return None if w is None else tuple.__new__(WitnessPair, (u, w))
    return min(_tied_pairs(g, X), default=None)


def equivalence_classes(g: CirculantGraph, landmarks: Iterable[int]) -> list[list[int]]:
    """Partition of V by equal representation, classes ordered by least
    member.  Every landmark must lie in [0, n)."""
    X = set(landmarks)
    if not X:
        raise ValueError("landmark set must be nonempty")
    check_vertices(g, X)
    classes: dict[tuple[int, ...], list[int]] = {}
    for v, rep in enumerate(_reps(g, X)):
        classes.setdefault(rep, []).append(v)
    return list(classes.values())


# is_cluster_for, resolves_cluster and pair_resolvers serve only the tests,
# but perfbench/tracing.py wraps them by name; they move to
# tests/references.py once the benchmark drops their spans.
def is_cluster_for(g: CirculantGraph, landmarks: Iterable[int], cluster: Cluster) -> bool:
    """True iff each block is a block under the landmarks and the blocks
    lie in pairwise distinct representation classes.  Every landmark and
    block vertex must lie in [0, n)."""
    X = set(landmarks)
    check_vertices(g, (*X, *cluster.vertices))
    reps = list(_reps(g, X))
    block_reps = [{reps[v] for v in block} for block in cluster.blocks]
    return (all(len(r) == 1 for r in block_reps)
            and len(set().union(*block_reps)) == len(block_reps))


def resolves_cluster(g: CirculantGraph, landmarks: Iterable[int],
                     cluster: Cluster) -> WitnessPair | None:
    """None when every block is internally resolved, else the least stuck pair.
    Only collisions inside a block count, not those across blocks.  An empty
    landmark set resolves nothing, so it succeeds exactly when all blocks are
    singletons.  Every landmark and block vertex must lie in [0, n)."""
    X = set(landmarks)
    check_vertices(g, (*X, *cluster.vertices))
    reps = list(_reps(g, X))
    blocks = [sorted(block) for block in cluster.blocks]
    stuck = (_least_collision([reps[v] for v in b], b) for b in blocks)
    return min(filter(None, stuck), default=None)


def pair_resolvers(g: CirculantGraph, i: int) -> frozenset[int]:
    """Vertices x with d(x, i) != d(x, i+1), found by scanning all of V.
    Every resolving set meets it for every i, as some landmark separates
    the adjacent pair {i, i+1}."""
    check_vertices(g, (i,))
    j = (i + 1) % g.n
    return frozenset(x for x in g.vertices if g.dist(x, i) != g.dist(x, j))
