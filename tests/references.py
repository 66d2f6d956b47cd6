"""Reference forms the tests check the package against.

Each recomputes by a second route what the package answers by its own:
distances one pair at a time (closed form) and by a BFS that shares no
code with ``CirculantGraph``, the far set and the R_i sets of the t = 4
analysis in their arithmetic form, and the whole lemma battery in one call.
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


def distance_bfs(g: CirculantGraph, i: int, j: int) -> int:
    """Hop count between i and j by a breadth-first search from i, level
    by level over the step set, that stops at the level holding j."""
    n = g.n
    _check_pair(n, i, j)
    seen, level, d = {i}, {i}, 0
    while j not in level:
        level = {(v + e) % n for v in level for s in g.steps for e in (s, -s)} - seen
        seen |= level
        d += 1
    return d


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


def pair_resolvers_arithmetic(g: CirculantGraph, i: int) -> frozenset[int]:
    """Arithmetic form of ``pair_resolvers`` for t = 4, n = 8k + r: the two
    progressions {i - 4j} and {i + 1 + 4j}, 0 <= j <= k."""
    if not (g.is_consecutive and g.t == 4):
        raise ValueError("arithmetic form requires step set {1,2,3,4}")
    k, _ = split(g.n, 4)
    down = ((i - 4 * j) % g.n for j in range(k + 1))
    up = ((i + 1 + 4 * j) % g.n for j in range(k + 1))
    return frozenset(down) | frozenset(up)


def check_all(k_range=(1, 2, 3)) -> list[LemmaReport]:
    """``check_lemma`` for every registry entry over the same k."""
    return [check_lemma(d, k_range) for d in REGISTRY.values()]
