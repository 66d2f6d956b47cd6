"""Resolving sets: representations, witness pairs, blocks and clusters.

An ordered landmark list X assigns each vertex v the distance tuple
r(v|X).  X resolves the graph when these tuples are pairwise distinct.
The machinery below also covers the finer notions used by the lower-bound
arguments: the equivalence "same representation under S", blocks (subsets
of one equivalence class) and clusters (tuples of blocks that have to be
resolved simultaneously, each block internally).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .graph import CirculantGraph, split_8k_r


@dataclass(frozen=True)
class WitnessPair:
    """Two distinct vertices sharing a representation; a failure certificate."""

    u: int
    v: int

    def __post_init__(self):
        if self.u == self.v:
            raise ValueError("witness pair must consist of distinct vertices")


@dataclass(frozen=True)
class Cluster:
    """Ordered tuple of pairwise-disjoint nonempty vertex sets (blocks)."""

    blocks: tuple[frozenset[int], ...]

    def __init__(self, blocks: Iterable[Iterable[int]]):
        frozen = tuple(frozenset(b) for b in blocks)
        if not frozen:
            raise ValueError("cluster needs at least one block")
        seen: set[int] = set()
        for b in frozen:
            if not b:
                raise ValueError("cluster blocks must be nonempty")
            if seen & b:
                raise ValueError(f"cluster blocks overlap: {sorted(seen & b)}")
            seen |= b
        object.__setattr__(self, "blocks", frozen)

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset().union(*self.blocks)


def _coords(g: CirculantGraph, v: int, landmarks: Sequence[int]) -> tuple[int, ...]:
    row = g.dist_row
    n = g.n
    return tuple(row[(v - x) % n] for x in landmarks)


def representation(g: CirculantGraph, v: int, landmarks: Sequence[int]) -> tuple[int, ...]:
    """r(v|X): the distances from v to the landmarks, in their order."""
    landmarks = tuple(landmarks)
    if not landmarks:
        raise ValueError("landmark list must be nonempty")
    for x in (v, *landmarks):
        if not 0 <= x < g.n:
            raise ValueError(f"vertex must lie in [0, {g.n}), got {x}")
    return _coords(g, v, landmarks)


def _least_collision(g: CirculantGraph, vertices: Iterable[int],
                     landmarks: Sequence[int]) -> Optional[WitnessPair]:
    """Lexicographically least pair of vertices with equal representations."""
    first_seen: dict[tuple[int, ...], int] = {}
    best: Optional[tuple[int, int]] = None
    for v in sorted(vertices):
        rep = _coords(g, v, landmarks)
        u = first_seen.setdefault(rep, v)
        if u != v and (best is None or (u, v) < best):
            best = (u, v)
    return WitnessPair(*best) if best else None


def is_resolving(g: CirculantGraph, landmarks: Iterable[int]) -> Optional[WitnessPair]:
    """None when the set resolves the graph, else the least unresolved pair."""
    X = sorted(set(landmarks))
    if not X:
        raise ValueError("landmark set must be nonempty")
    return _least_collision(g, g.vertices, X)


def equivalence_classes(g: CirculantGraph, landmarks: Iterable[int]) -> list[list[int]]:
    """Partition of V by equal representation, classes ordered by least member."""
    X = sorted(set(landmarks))
    if not X:
        raise ValueError("landmark set must be nonempty")
    classes: dict[tuple[int, ...], list[int]] = {}
    for v in g.vertices:
        classes.setdefault(_coords(g, v, X), []).append(v)
    return sorted(classes.values(), key=lambda c: c[0])


def is_cluster_for(g: CirculantGraph, landmarks: Iterable[int], cluster: Cluster) -> bool:
    """True iff each block is a block under the landmarks and the blocks
    lie in pairwise distinct representation classes."""
    X = sorted(set(landmarks))
    reps = []
    for block in cluster.blocks:
        members = sorted(block)
        ref = _coords(g, members[0], X)
        if any(_coords(g, v, X) != ref for v in members[1:]):
            return False
        reps.append(ref)
    return len(set(reps)) == len(reps)


def resolves_cluster(g: CirculantGraph, landmarks: Iterable[int],
                     cluster: Cluster) -> Optional[WitnessPair]:
    """None when every block is internally resolved, else the least stuck pair.

    Only collisions inside a block count; identical representations across
    blocks are permitted.  An empty landmark set resolves nothing, so it
    succeeds exactly when all blocks are singletons.
    """
    X = sorted(set(landmarks))
    best: Optional[WitnessPair] = None
    for block in cluster.blocks:
        w = _least_collision(g, block, X)
        if w is not None and (best is None or (w.u, w.v) < (best.u, best.v)):
            best = w
    return best


def pair_resolvers(g: CirculantGraph, i: int) -> frozenset[int]:
    """Vertices x with d(x, i) != d(x, i+1), found by scanning all of V.

    Every resolving set must intersect this set for every i, since some
    landmark has to separate the adjacent pair {i, i+1}.
    """
    if not g.is_consecutive:
        raise ValueError("pair_resolvers requires a consecutive step set")
    if not 0 <= i < g.n:
        raise ValueError(f"vertex must lie in [0, {g.n}), got {i}")
    j = (i + 1) % g.n
    return frozenset(x for x in g.vertices if g.dist(x, i) != g.dist(x, j))


def pair_resolvers_arithmetic(g: CirculantGraph, i: int) -> frozenset[int]:
    """Arithmetic form of pair_resolvers for t = 4, n = 8k + r: the two
    progressions {i - 4j} and {i + 1 + 4j}, 0 <= j <= k.  Kept separate
    from the scan so the two can be cross-checked."""
    if not (g.is_consecutive and g.t == 4):
        raise ValueError("arithmetic form requires step set {1,2,3,4}")
    k, _ = split_8k_r(g.n)
    down = ((i - 4 * j) % g.n for j in range(k + 1))
    up = ((i + 1 + 4 * j) % g.n for j in range(k + 1))
    return frozenset(down) | frozenset(up)
