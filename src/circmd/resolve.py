"""Resolving sets: representations, witness pairs, blocks and clusters.

An ordered landmark list X assigns each vertex v the distance tuple
r(v|X).  X resolves the graph when these tuples are pairwise distinct.
The machinery below also covers the finer notions used by the lower-bound
arguments: the equivalence "same representation under S", blocks (subsets
of one equivalence class) and clusters (tuples of blocks that have to be
resolved simultaneously, each block internally).

Each check zips r(v|X) for all v from its landmarks' rows, sliced from
dist_row once per graph into g.rows.  is_resolving zips only when no probe
u < _PROBES has a twin on the graph's sphere masks: a set failing at a probe
slices no row, a one-shot resolving check holds its k rows, and the oracle
those of the subsets the probes leave open, at most the n x n table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .formulas import split
from .graph import CirculantGraph, check_vertices


@dataclass(frozen=True, order=True)
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


_PROBES = 5  # vertices checked for a twin from sphere masks before any zip


def _reps(g: CirculantGraph, landmarks: Iterable[int]) -> list[tuple[int, ...]]:
    """Entry v is r(v|X), zipped from the landmarks' rows, each sliced once per graph."""
    rows, row, n = g.rows, g.dist_row, g.n
    columns = [rows[x] if x in rows else rows.setdefault(x, row[-x % n:] + row[:-x % n])
               for x in landmarks]
    return list(zip(*columns)) if columns else [()] * n


def representation(g: CirculantGraph, v: int, landmarks: Sequence[int]) -> tuple[int, ...]:
    """r(v|X): the distances from v to the landmarks, in their order."""
    landmarks = tuple(landmarks)
    if not landmarks:
        raise ValueError("landmark list must be nonempty")
    check_vertices(g, (v, *landmarks))
    return tuple(g.dist(x, v) for x in landmarks)


def _least_collision(keys: Sequence[tuple[int, ...]],
                     vertices: Sequence[int]) -> Optional[WitnessPair]:
    """Lexicographically least pair of sorted vertices with equal keys;
    keys[i] is the representation of vertices[i]."""
    if len(set(keys)) == len(vertices):
        return None
    last = dict(zip(keys, vertices))
    for i, (u, key) in enumerate(zip(vertices, keys)):
        if last[key] != u:
            return WitnessPair(u, vertices[keys.index(key, i + 1)])


def _landmark_set(g: CirculantGraph, landmarks: Iterable[int]) -> set[int]:
    X = set(landmarks)
    if not X:
        raise ValueError("landmark set must be nonempty")
    check_vertices(g, X)
    return X


def is_resolving(g: CirculantGraph, landmarks: Iterable[int]) -> Optional[WitnessPair]:
    """None when the set resolves the graph, else the least unresolved pair.
    Every landmark must lie in [0, n).

    The twins above each probe u < _PROBES, the AND of the spheres through
    u about the landmarks, come first: the first u with one gives the least
    pair, as a twin w < u would have paired with u at w's own probe.
    """
    X = _landmark_set(g, landmarks)
    n, row, spheres, sphere = g.n, g.dist_row, g.spheres, g.sphere
    for u in range(min(_PROBES, n)):
        if u in X:  # only u is at distance 0 from u
            continue
        twins = (1 << n) - (2 << u)  # the vertices above u
        for x in X:
            r = row[u - x]
            twins &= (spheres[r] if r in spheres else sphere(r)) >> n - x
            if not twins:
                break
        else:
            return WitnessPair(u, (twins & -twins).bit_length() - 1)
    return _least_collision(_reps(g, X), g.vertices)


def equivalence_classes(g: CirculantGraph, landmarks: Iterable[int]) -> list[list[int]]:
    """Partition of V by equal representation, classes ordered by least
    member.  Every landmark must lie in [0, n)."""
    classes: dict[tuple[int, ...], list[int]] = {}
    for v, rep in enumerate(_reps(g, _landmark_set(g, landmarks))):
        classes.setdefault(rep, []).append(v)
    return list(classes.values())


def is_cluster_for(g: CirculantGraph, landmarks: Iterable[int], cluster: Cluster) -> bool:
    """True iff each block is a block under the landmarks and the blocks
    lie in pairwise distinct representation classes.  Every landmark and
    block vertex must lie in [0, n)."""
    X = set(landmarks)
    check_vertices(g, (*X, *cluster.vertices))
    reps = _reps(g, X)
    block_reps = [{reps[v] for v in block} for block in cluster.blocks]
    return (all(len(r) == 1 for r in block_reps)
            and len(set().union(*block_reps)) == len(block_reps))


def resolves_cluster(g: CirculantGraph, landmarks: Iterable[int],
                     cluster: Cluster) -> Optional[WitnessPair]:
    """None when every block is internally resolved, else the least stuck pair.

    Only collisions inside a block count; identical representations across
    blocks are permitted.  An empty landmark set resolves nothing, so it
    succeeds exactly when all blocks are singletons.  Every landmark and
    block vertex must lie in [0, n).
    """
    X = set(landmarks)
    check_vertices(g, (*X, *cluster.vertices))
    reps = _reps(g, X)
    blocks = [sorted(block) for block in cluster.blocks]
    stuck = (_least_collision([reps[v] for v in b], b) for b in blocks)
    return min(filter(None, stuck), default=None)


def pair_resolvers(g: CirculantGraph, i: int) -> frozenset[int]:
    """Vertices x with d(x, i) != d(x, i+1), found by scanning all of V.

    Every resolving set must intersect this set for every i, since some
    landmark has to separate the adjacent pair {i, i+1}.
    """
    if not g.is_consecutive:
        raise ValueError("pair_resolvers requires a consecutive step set")
    check_vertices(g, (i,))
    j = (i + 1) % g.n
    return frozenset(x for x in g.vertices if g.dist(x, i) != g.dist(x, j))


def pair_resolvers_arithmetic(g: CirculantGraph, i: int) -> frozenset[int]:
    """Arithmetic form of pair_resolvers for t = 4, n = 8k + r: the two
    progressions {i - 4j} and {i + 1 + 4j}, 0 <= j <= k.  Kept separate
    from the scan so the two can be cross-checked."""
    if not (g.is_consecutive and g.t == 4):
        raise ValueError("arithmetic form requires step set {1,2,3,4}")
    k, _ = split(g.n, 4)
    down = ((i - 4 * j) % g.n for j in range(k + 1))
    up = ((i + 1 + 4 * j) % g.n for j in range(k + 1))
    return frozenset(down) | frozenset(up)
