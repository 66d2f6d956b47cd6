"""Resolving sets: representations, witness pairs, blocks and clusters.

An ordered landmark list X assigns each vertex v the distance tuple
r(v|X).  X resolves the graph when these tuples are pairwise distinct.
The machinery below also covers the finer notions used by the lower-bound
arguments: the equivalence "same representation under S", blocks (subsets
of one equivalence class) and clusters (tuples of blocks that have to be
resolved simultaneously, each block internally).

Each check zips r(v|X) for all v from rows sliced from dist_row on every
call; is_resolving only when its landmarks' ``probe_twins`` leave no twin.
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


_PROBES = 5  # vertices checked for a twin, packed per landmark, before any zip


def _reps(g: CirculantGraph, landmarks: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """r(v|X) for v = 0..n-1, zipped from dist_row rotated to each landmark."""
    row, n = g.dist_row, g.n
    columns = [row[-x % n:] + row[:-x % n] for x in landmarks]
    return zip(*columns) if columns else iter([()] * n)


def representation(g: CirculantGraph, v: int, landmarks: Sequence[int]) -> tuple[int, ...]:
    """r(v|X): the distances from v to the landmarks, in their order."""
    landmarks = tuple(landmarks)
    if not landmarks:
        raise ValueError("landmark list must be nonempty")
    check_vertices(g, (v, *landmarks))
    return tuple(g.dist(x, v) for x in landmarks)


def _least_collision(keys: Sequence[tuple[int, ...]],
                     vertices: Sequence[int]) -> WitnessPair | None:
    """Lexicographically least pair of sorted vertices with equal keys, or
    None; keys[i] is the representation of vertices[i]."""
    last = dict(zip(keys, vertices))
    for i, (u, key) in enumerate(zip(vertices, keys)):
        if last[key] != u:
            return WitnessPair(u, vertices[keys.index(key, i + 1)])


def is_resolving(g: CirculantGraph, landmarks: Iterable[int]) -> WitnessPair | None:
    """None when the set resolves the graph, else the least unresolved pair.
    Every landmark must lie in [0, n).

    Field u (at bit u * n) of the AND of the landmarks' ``probe_twins``
    entries holds the twins above probe u: its lowest bit u * n + w gives
    the least pair (u, w), as a twin below u pairs with u at its own probe;
    w > u, so the pair is built unvalidated.  Else one list of the zipped
    keys decides and gives the least pair."""
    X = set(landmarks)
    if not X:
        raise ValueError("landmark set must be nonempty")
    n, table, twins = g.n, g.probe_twins, -1
    for x in X:  # every landmark checked before any entry is filled
        if not 0 <= x < n:
            raise ValueError(f"vertex must lie in [0, {n}), got {x}")
    for x in X:
        entry = table[x]
        if entry is None:  # field u: u's sphere about x above u, empty if x = u
            row, top, packed, last = g.dist_row, 1 << n, 0, -1
            for u in range(min(_PROBES, n)):
                r = row[u - x]
                if r != last:  # arc_mask(r), {0} at r = 0, doubled and rotated to x
                    last, m = r, g.arc_mask(r) if r else 1
                    sphere = (m | m << n) >> n - x
                packed |= (sphere & top - (2 << u)) << u * n
            table[x] = entry = packed
        twins &= entry
    if twins:
        return tuple.__new__(WitnessPair, divmod((twins & -twins).bit_length() - 1, n))
    keys = list(_reps(g, X))
    if len(set(keys)) == n:
        return None
    return _least_collision(keys, g.vertices)


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

    Only collisions inside a block count; identical representations across
    blocks are permitted.  An empty landmark set resolves nothing, so it
    succeeds exactly when all blocks are singletons.  Every landmark and
    block vertex must lie in [0, n).
    """
    X = set(landmarks)
    check_vertices(g, (*X, *cluster.vertices))
    reps = list(_reps(g, X))
    blocks = [sorted(block) for block in cluster.blocks]
    stuck = (_least_collision([reps[v] for v in b], b) for b in blocks)
    return min(filter(None, stuck), default=None)


def pair_resolvers(g: CirculantGraph, i: int) -> frozenset[int]:
    """Vertices x with d(x, i) != d(x, i+1), found by scanning all of V.

    Every resolving set must intersect this set for every i, since some
    landmark has to separate the adjacent pair {i, i+1}.
    """
    check_vertices(g, (i,))
    j = (i + 1) % g.n
    return frozenset(x for x in g.vertices if g.dist(x, i) != g.dist(x, j))
