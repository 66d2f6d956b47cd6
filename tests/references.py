"""Reference forms the tests check the package against.

Each recomputes by a second route what the package answers by its own:
distances one pair at a time (closed form), one vertex at a time (the
distance row) and by a BFS that shares no code with ``CirculantGraph``,
the layers of vertices by distance from 0 off that BFS, the probe twins
of ``is_resolving`` and its least unresolved pair one pair at a time, the
far set and the R_i sets of the t = 4 analysis in their arithmetic form,
and the whole lemma battery in one call.
Tests import it by module name, as they import ``conftest``.
"""

from circmd.formulas import split
from circmd.graph import CirculantGraph, check_vertices
from circmd.lemmas import REGISTRY, LemmaReport, check_lemma


def _check_pair(n: int, i: int, j: int) -> None:
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"vertices must lie in [0, {n}), got ({i}, {j})")


def distance_closed_form(n: int, t: int, i: int, j: int) -> int:
    """Hop count between i and j in C(n, +/-{1..t}), one pair at a time.

    With delta the circular gap between i and j folded into [0, n//2],
    the distance is ceil(delta / t): each hop covers at most t positions
    along the shorter arc.
    """
    _check_pair(n, i, j)
    if not 1 <= t <= n // 2:
        raise ValueError(f"closed form needs 1 <= t <= n//2, got t={t}, n={n}")
    delta = (j - i) % n
    if delta > n // 2:
        delta = n - delta
    return -(-delta // t)


def dist_row_per_vertex(n: int, t: int) -> tuple[int, ...]:
    """Entry d: dist(0, d), the closed form ceil(d / t) computed for each
    d = 0..n//2 in turn, with entry n - d mirroring entry d."""
    half = [-(-d // t) for d in range(n // 2 + 1)]
    return tuple(half + half[(n - 1) // 2:0:-1])


def probe_twins_pairwise(g: CirculantGraph, x: int, probes: int) -> int:
    """Entry x of ``g.probe_twins`` off ``g.dist``, one pair at a time: at
    bit offset u * n, for each probe u < probes, the w > u with
    d(w, x) = d(u, x)."""
    n = g.n
    return sum(1 << u * n + w for u in range(min(probes, n))
               for w in range(u + 1, n) if g.dist(w, x) == g.dist(u, x))


def least_unresolved_pair_pairwise(n: int, t: int, X) -> tuple[int, int] | None:
    """The least pair u < w with d(u, x) = d(w, x) for every landmark x, or
    None: the distances by ``distance_closed_form``, the pairs compared one
    at a time in lexicographic order."""
    reps = [[distance_closed_form(n, t, v, x) for x in X] for v in range(n)]
    for u in range(n):
        for w in range(u + 1, n):
            if reps[u] == reps[w]:
                return u, w
    return None


def bfs_row(g: CirculantGraph, i: int) -> list[int]:
    """Hop counts from i to every vertex by a breadth-first search from i,
    level by level over the steps +/-1..t."""
    n, steps = g.n, range(1, g.t + 1)
    row = [-1] * n
    level, d = {i}, 0
    while level:
        for v in level:
            row[v] = d
        level = {u for v in level for s in steps
                 for u in ((v + s) % n, (v - s) % n) if row[u] < 0}
        d += 1
    return row


def layers(g: CirculantGraph) -> list[list[int]]:
    """Entry d: the vertices at distance d from 0, ascending, read off
    ``bfs_row`` from 0."""
    row = bfs_row(g, 0)
    by_distance: list[list[int]] = [[] for _ in range(max(row) + 1)]
    for y, d in enumerate(row):
        by_distance[d].append(y)
    return by_distance


def distance_bfs(g: CirculantGraph, i: int, j: int) -> int:
    """Hop count between i and j, read off ``bfs_row`` from i."""
    _check_pair(g.n, i, j)
    return bfs_row(g, i)[j]


def diameter_set(g: CirculantGraph, v: int) -> frozenset[int]:
    """Vertices at diameter distance from v, for t = 4 and n = 8k + r.

    For these graphs the diameter is k + 1 and the far set from v is the
    arc {v + 4k + 1, ..., v + 4k + r - 1} of size r - 1.
    """
    if g.t != 4:
        raise ValueError("diameter_set requires step set {1,2,3,4}")
    check_vertices(g, (v,))
    k, r = split(g.n, 4)
    return frozenset((v + 4 * k + j) % g.n for j in range(1, r))


def pair_resolvers_arithmetic(g: CirculantGraph, i: int) -> frozenset[int]:
    """Arithmetic form of ``pair_resolvers`` for t = 4, n = 8k + r: the two
    progressions {i - 4j} and {i + 1 + 4j}, 0 <= j <= k."""
    if g.t != 4:
        raise ValueError("arithmetic form requires step set {1,2,3,4}")
    k, _ = split(g.n, 4)
    down = ((i - 4 * j) % g.n for j in range(k + 1))
    up = ((i + 1 + 4 * j) % g.n for j in range(k + 1))
    return frozenset(down) | frozenset(up)


def check_all(k_range=(1, 2, 3)) -> list[LemmaReport]:
    """``check_lemma`` for every registry entry over the same k."""
    return [check_lemma(d, k_range) for d in REGISTRY.values()]
