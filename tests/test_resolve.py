import itertools
import random
from collections import Counter
from operator import eq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circmd.resolve as resolve
from circmd.formulas import split
from circmd.graph import CirculantGraph, make_consecutive
from circmd.resolve import (
    _PROBES,
    Cluster,
    WitnessPair,
    equivalence_classes,
    is_cluster_for,
    is_resolving,
    pair_resolvers,
    representation,
    resolves_cluster,
)

from references import (
    bfs_row,
    dist_row_per_vertex,
    least_unresolved_pair_pairwise,
    pair_resolvers_arithmetic,
    probe_twins_pairwise,
)

orders_t4 = st.integers(min_value=10, max_value=40)


def landmark_sets(n_max=40):
    return orders_t4.flatmap(lambda n: st.tuples(
        st.just(n),
        st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=6)))


def test_representation_example():
    g = make_consecutive(13, 4)
    assert representation(g, 6, (0, 1, 4)) == (2, 2, 1)


def test_representation_builds_no_distance_row():
    # verify prints the witnesses' representations: on C(4000007, +/-{1..4})
    # the basis 0..4 ties 2000005 and 2000006 at distance 500001 from each
    # landmark, and reading that must not build the 16 MB distance row
    rng = random.Random(57)
    for _ in range(500):
        n = rng.randint(3, 60)
        g = CirculantGraph(n, rng.randint(1, n // 2))
        v, X = rng.randrange(n), rng.sample(range(n), rng.randint(1, min(n, 6)))
        rep = representation(g, v, X)
        assert "dist_row" not in g.__dict__ and rep == tuple(g.dist(x, v) for x in X), (g, v, X)
    g = make_consecutive(4_000_007, 4)
    for v in (2_000_005, 2_000_006):
        assert representation(g, v, range(5)) == (500_001,) * 5
    assert "dist_row" not in g.__dict__


def test_witness_pair_rejects_equal_vertices():
    with pytest.raises(ValueError):
        WitnessPair(3, 3)


def test_non_resolving_set_yields_least_witness():
    g = make_consecutive(10, 4)
    w = is_resolving(g, (0, 1, 2, 3))
    assert (w.u, w.v) == (4, 9)


def test_known_resolving_set():
    g = make_consecutive(13, 4)
    assert is_resolving(g, (0, 1, 2, 3, 4)) is None


@given(landmark_sets())
@settings(deadline=None)
def test_resolving_iff_all_classes_singletons(case):
    n, X = case
    g = make_consecutive(n, 4)
    classes = equivalence_classes(g, X)
    singleton = all(len(c) == 1 for c in classes)
    assert (is_resolving(g, X) is None) == singleton
    assert sorted(v for c in classes for v in c) == list(range(n))


@given(landmark_sets())
@settings(deadline=None)
def test_superset_of_resolving_set_resolves(case):
    n, X = case
    g = make_consecutive(n, 4)
    if is_resolving(g, X) is None:
        assert is_resolving(g, set(X) | {(min(X) + 1) % n}) is None


@given(landmark_sets(), st.integers(min_value=1, max_value=39))
@settings(deadline=None)
def test_shift_covariance(case, c):
    n, X = case
    g = make_consecutive(n, 4)
    shifted = {(x + c) % n for x in X}
    assert (is_resolving(g, X) is None) == (is_resolving(g, shifted) is None)


def test_equivalence_classes_example():
    g = make_consecutive(13, 4)
    assert equivalence_classes(g, (0,)) == [
        [0], [1, 2, 3, 4, 9, 10, 11, 12], [5, 6, 7, 8]]


def test_landmarks_outside_the_vertex_range_are_rejected():
    # a landmark n or -n would wrap to vertex 0 and pass as resolving; a
    # block vertex -1 would read the representation of n - 1
    g = make_consecutive(13, 4)
    cluster = Cluster([[1, 12], [5, 8]])
    assert is_resolving(g, (0, 1, 2, 3, 4)) is None
    for X in [(13, 1, 2, 3, 4), (-13, 14, 2, 3, 4), (0, -1), (12, 13)]:
        for check in (is_resolving, equivalence_classes,
                      lambda g, X: representation(g, 0, X),
                      lambda g, X: resolves_cluster(g, X, cluster),
                      lambda g, X: is_cluster_for(g, X, cluster)):
            with pytest.raises(ValueError, match=r"must lie in \[0, 13\)"):
                check(g, X)
    for bad in (Cluster([[-1, 12]]), Cluster([[1, 13]])):
        with pytest.raises(ValueError, match=r"must lie in \[0, 13\)"):
            resolves_cluster(g, (0,), bad)
        with pytest.raises(ValueError, match=r"must lie in \[0, 13\)"):
            is_cluster_for(g, (0,), bad)
    with pytest.raises(ValueError, match=r"must lie in \[0, 13\)"):
        representation(g, 13, (0,))
    # no landmarks at all: an empty set would read every vertex as one class
    for check in (is_resolving, equivalence_classes,
                  lambda g, X: representation(g, 0, X)):
        with pytest.raises(ValueError, match="landmark (set|list) must be nonempty"):
            check(g, [])


def test_cluster_rejects_overlap_and_empty():
    with pytest.raises(ValueError):
        Cluster([[0, 1], [1, 2]])
    with pytest.raises(ValueError):
        Cluster([[0, 1], []])
    with pytest.raises(ValueError):
        Cluster([])
    # a repeated vertex is refused, not merged into a smaller block
    with pytest.raises(ValueError, match="duplicate vertices"):
        Cluster([[0, 1, 0]])
    with pytest.raises(ValueError, match="duplicate vertices"):
        Cluster([iter([2, 3, 2])])
    c = Cluster([[0, 1]])
    with pytest.raises(AttributeError):
        c.blocks = ()
    with pytest.raises(ValueError, match="at least one block"):
        c._replace(blocks=())


def test_is_cluster_for_requires_distinct_classes():
    g = make_consecutive(13, 4)
    assert is_cluster_for(g, (0,), Cluster([[1, 2], [5, 6]]))
    # both blocks sit in the same class under S = {0}
    assert not is_cluster_for(g, (0,), Cluster([[1, 2], [3, 4]]))


def test_resolves_cluster_ignores_cross_block_collisions():
    g = make_consecutive(13, 4)
    cluster = Cluster([[0, 1], [2, 3, 4]])
    # within-block separation only; 3 resolves {0,1} apart and the triple
    w = resolves_cluster(g, (0, 2, 3), cluster)
    assert w is None
    assert resolves_cluster(g, (6,), cluster) is not None


def test_empty_landmarks_resolve_only_singletons():
    g = make_consecutive(13, 4)
    assert resolves_cluster(g, (), Cluster([[1], [5]])) is None
    assert resolves_cluster(g, (), Cluster([[1, 2]])) is not None


def _reference_pairs(g, X, vertices):
    """Colliding pairs u < v of the given vertices, in lexicographic order,
    found by comparing distance tuples pair by pair."""
    def same(u, v):
        return tuple(g.dist(u, x) for x in X) == tuple(g.dist(v, x) for x in X)
    return [(u, v) for u, v in itertools.combinations(sorted(vertices), 2)
            if same(u, v)]


def _random_case(rng):
    n = rng.randint(3, 40)
    g = make_consecutive(n, rng.randint(1, n // 2))
    X = [rng.randrange(n) for _ in range(rng.randint(1, 5))]  # unsorted, may repeat
    draw = rng.random()
    if draw < 0.1:
        X = rng.sample(range(n), n)  # all of V
    elif draw < 0.5:
        X += range(_PROBES)[:n]  # every probe a landmark: the packed row decides
    return g, X


def test_resolve_matches_pairwise_reference():
    # is_resolving's routes: a twin found by a probe, a least twin beyond
    # the probes, a resolving set; and sets without 0
    rng = random.Random(909)
    routes = Counter()
    for _ in range(400):
        g, X = _random_case(rng)
        pairs = _reference_pairs(g, X, g.vertices)
        w = is_resolving(g, X)
        assert (None if w is None else (w.u, w.v)) == (pairs[0] if pairs else None)
        routes["resolving" if not pairs else
               "probe" if pairs[0][0] < _PROBES else "beyond probes"] += 1
        routes["without 0"] += 0 not in X
        least = {v: v for v in g.vertices}
        for u, v in reversed(pairs):  # the least partner of v is set last
            least[v] = u
        assert equivalence_classes(g, X) == [
            [v for v in g.vertices if least[v] == r] for r in g.vertices if least[r] == r]
        perm = rng.sample(range(g.n), g.n)
        cuts = sorted(rng.sample(range(1, g.n), min(g.n - 1, rng.randint(1, 4))))
        cluster = Cluster(perm[a:b] for a, b in zip([0, *cuts], [*cuts, g.n]))
        Y = X if rng.random() < 0.8 else []
        stuck = [p for b in cluster.blocks for p in _reference_pairs(g, Y, b)]
        w = resolves_cluster(g, Y, cluster)
        assert (None if w is None else (w.u, w.v)) == min(stuck, default=None)
    assert len(routes) == 4 and min(routes.values()) >= 50, routes


def _check_all_against_reference(g, X, rng):
    """Every resolve function on (g, X) against ``_reference_pairs``."""
    pairs = _reference_pairs(g, X, g.vertices)
    w = is_resolving(g, X)
    assert (None if w is None else (w.u, w.v)) == (pairs[0] if pairs else None)
    least = {v: v for v in g.vertices}
    for u, v in reversed(pairs):  # the least partner of v is set last
        least[v] = u
    classes = [[v for v in g.vertices if least[v] == r] for r in g.vertices if least[r] == r]
    assert equivalence_classes(g, X) == classes
    v = rng.randrange(g.n)
    assert representation(g, v, X) == tuple(g.dist(v, x) for x in X)
    perm = rng.sample(range(g.n), g.n)
    cuts = sorted(rng.sample(range(1, g.n), min(g.n - 1, rng.randint(1, 4))))
    drawn = Cluster(perm[a:b] for a, b in zip([0, *cuts], [*cuts, g.n]))
    # a cluster by construction: nonempty parts of distinct classes
    picked = rng.sample(classes, min(len(classes), 3))
    true = Cluster(rng.sample(c, rng.randint(1, len(c))) for c in picked)
    for cluster in (drawn, true):
        stuck = [p for b in cluster.blocks for p in _reference_pairs(g, X, b)]
        w = resolves_cluster(g, X, cluster)
        assert (None if w is None else (w.u, w.v)) == min(stuck, default=None)
        block_classes = [{least[v] for v in b} for b in cluster.blocks]
        assert is_cluster_for(g, X, cluster) == (
            all(len(c) == 1 for c in block_classes)
            and len(set().union(*block_classes)) == len(cluster.blocks))
    assert is_cluster_for(g, X, true)


def _assert_masks_match_the_definition(g):
    # one probe-twin entry per vertex, some filled, each filled one exact; a
    # complete graph answers every check without a probe, and has no table
    if g.diameter == 1:
        assert "probe_twins" not in g.__dict__, g
        return
    assert len(g.probe_twins) == g.n and any(g.probe_twins)
    for x, packed in enumerate(g.probe_twins):
        assert packed in (None, probe_twins_pairwise(g, x, _PROBES)), (g, x)


def test_warm_sphere_masks_match_the_pairwise_reference():
    # one graph object answers many landmark sets from the probe twins it
    # keeps; the answers must not depend on which entries earlier calls filled
    rng = random.Random(2026)
    for g in (make_consecutive(29, 3), make_consecutive(31, 7)):
        for i in range(60):
            X = [rng.randrange(g.n) for _ in range(rng.randint(1, 5))]  # unsorted, may repeat
            if i % 10 == 9:
                X = rng.sample(range(g.n), g.n)  # all of V
            _check_all_against_reference(g, X, rng)
        _assert_masks_match_the_definition(g)
        fresh = CirculantGraph(g.n, g.t)  # equal, with no masks yet
        assert fresh == g and "probe_twins" not in fresh.__dict__
        X = rng.sample(range(g.n), 4)
        _check_all_against_reference(fresh, X, rng)
        assert "probe_twins" not in fresh.__dict__  # a first check creates no table
        _check_all_against_reference(fresh, X, rng)
        _assert_masks_match_the_definition(fresh)
    # two graphs of one order, different t, called in turn
    a, b = make_consecutive(13, 4), make_consecutive(13, 6)
    for _ in range(30):
        X = [rng.randrange(13) for _ in range(rng.randint(1, 4))]
        for g in (a, b, a):
            _check_all_against_reference(g, X, rng)
    for g in (a, b):
        _assert_masks_match_the_definition(g)
    # a warm graph still rejects a landmark outside [0, 13), and fills no mask
    is_resolving(a, range(13))
    warm = list(a.probe_twins)
    cluster = Cluster([[1, 12], [5, 8]])
    for X in [(13, 1, 2), (0, -1), (-13,)]:
        for check in (is_resolving, equivalence_classes,
                      lambda g, X: representation(g, 0, X),
                      lambda g, X: resolves_cluster(g, X, cluster),
                      lambda g, X: is_cluster_for(g, X, cluster)):
            with pytest.raises(ValueError, match=r"must lie in \[0, 13\)"):
                check(a, X)
    assert a.probe_twins == warm


def test_probe_twins_fill_only_the_landmarks_entries():
    # a graph's first check creates no table; each later call fills exactly
    # the entries of its landmarks not yet filled, each the pairwise packing,
    # and a call that rejects a landmark fills none
    g = make_consecutive(809, 4)
    is_resolving(g, (0, 1, 4, 7, 406, 407))
    assert "probe_twins" not in g.__dict__
    filled = set()
    for X in ((0, 1, 4, 7, 406, 407), (5, 0, 1), (0, 300), range(5), (808, 404, 405)):
        is_resolving(g, X)
        filled |= set(X)
        assert {x for x, e in enumerate(g.probe_twins) if e is not None} == filled, X
    for X in ((809, 2, 3), (9, 10, -1)):
        with pytest.raises(ValueError, match=r"must lie in \[0, 809\)"):
            is_resolving(g, X)
    assert {x for x, e in enumerate(g.probe_twins) if e is not None} == filled
    for x in filled:
        assert g.probe_twins[x] == probe_twins_pairwise(g, x, _PROBES), x
    # every entry of the small orders, where n < _PROBES cuts the fields; a
    # complete graph (t = n // 2) reads no probe on any check
    for n in range(3, 13):
        for t in range(1, n // 2 + 1):
            g = make_consecutive(n, t)
            for _ in range(2):
                is_resolving(g, g.vertices)
            if t == n // 2:
                assert "probe_twins" not in g.__dict__, g
            else:
                assert g.probe_twins == [probe_twins_pairwise(g, x, _PROBES)
                                         for x in g.vertices], g


def test_a_first_check_builds_only_the_packed_row():
    # one check on a fresh graph leaves the packed row as its only lazy entry,
    # and none on a complete graph; a repeat reads the probes off the closed
    # form, not the distance row; and a distance-row read, which the benchmark
    # tracer makes on every graph, builds no packed row and leaves the next
    # call a first check
    lazy = {"dist_row", "packed_row", "planes", "separators", "probe_twins"}
    rng = random.Random(5657)
    complete = 0
    for _ in range(400):
        g, X = _random_case(rng)
        pairs = _reference_pairs(CirculantGraph(*g), X, g.vertices)  # off a copy of g
        want = pairs[0] if pairs else None
        assert is_resolving(g, X) == want, (g, X)
        built = {"packed_row"} if g.diameter > 1 else set()
        assert lazy & g.__dict__.keys() == built, (g, X)
        assert is_resolving(g, X) == want and "dist_row" not in g.__dict__, (g, X)
        for read in (lambda h: h.dist_row, lambda h: h.dist(0, 1)):
            h = CirculantGraph(*g)
            read(h)
            assert lazy & h.__dict__.keys() == {"dist_row"}, (g, X)
            assert is_resolving(h, X) == want, (g, X)
            assert lazy & h.__dict__.keys() == {"dist_row", *built}, (g, X)
        complete += g.diameter == 1
    assert complete >= 20, complete


def test_the_answer_does_not_depend_on_the_route():
    # a graph's first check reads no probe and decides on the packed row; a
    # second check, and a check on a graph warmed by other landmark sets,
    # read the probes first: all three give the pairwise reference's pair
    rng = random.Random(5555)
    probed = 0
    for _ in range(600):
        g, X = _random_case(rng)
        pairs = _reference_pairs(g, X, g.vertices)
        want = pairs[0] if pairs else None
        assert is_resolving(g, X) == want, (g, X)
        assert set(g.probe_twins) == {None}, (g, X)
        assert is_resolving(g, X) == want, (g, X)
        warm = CirculantGraph(*g)
        for _ in range(3):
            is_resolving(warm, rng.sample(range(g.n), rng.randint(1, g.n)))
        assert is_resolving(warm, X) == want, (g, X)
        probed += want is not None and want[0] < _PROBES and want[0] not in X
    assert probed >= 100, probed


def _no_fallback(g, landmarks):
    raise AssertionError("a probe should have decided this set")


def test_a_probe_decides_before_the_packed_row(monkeypatch):
    # a least twin found by a probe reads no packed row, on a graph checked once
    for X, u, v in (((5, 0, 1), 2, 3), ((407, 0, 4, 1), 2, 3),
                    ((0, 300), 1, 2), ((1, 2, 3, 4), 0, 5)):
        g = make_consecutive(809, 4)
        assert is_resolving(g, X) == WitnessPair(u, v)
        with monkeypatch.context() as m:
            m.setattr(resolve, "_tied_pairs", _no_fallback)
            assert is_resolving(g, X) == WitnessPair(u, v)
    # a resolving set, or one whose least twin lies beyond the probes
    # (every probe a landmark), is decided on the packed row
    assert is_resolving(g, (407, 0, 4, 1, 406, 7)) is None
    assert is_resolving(g, range(5)) == WitnessPair(405, 406)
    # no landmarks: only singleton blocks are resolved
    h = make_consecutive(13, 4)
    assert resolves_cluster(h, (), Cluster([[1], [5]])) is None
    assert resolves_cluster(h, (), Cluster([[3, 1], [5, 2]])) == WitnessPair(1, 3)
    assert not is_cluster_for(h, (), Cluster([[1], [5]]))


def _route(n, t, X, pair):
    """Which check of ``is_resolving`` finds the least pair: a probe, the gap
    check (circular gap under t) or the axis check, or none (resolving)."""
    if pair is None:
        return "resolving"
    if pair[0] < _PROBES and pair[0] not in X:
        return "probe"
    return "gap" if min((pair[1] - pair[0]) % n, (pair[0] - pair[1]) % n) < t else "axis"


def test_least_pair_matches_the_pairwise_reference_on_random_sets():
    # every route of is_resolving against the closed form, least pair
    # included; with every probe a landmark, the gap and axis checks decide
    rng = random.Random(5050)
    routes = Counter()
    for _ in range(4000):
        n = rng.randint(3, 200)
        t = rng.randint(1, min(6, n // 2)) if rng.random() < 0.8 else rng.randint(1, n // 2)
        X = rng.sample(range(n), rng.randint(1, min(n, 6)))
        if rng.random() < 0.2:  # every window holds the axis 2a
            a = rng.randrange(n)
            X = [x for x in range(n) if min((2 * x - 2 * a) % n, (2 * a - 2 * x) % n) < t]
            X = rng.sample(X, rng.randint(1, len(X)))
        if rng.random() < 0.5:
            X += range(_PROBES)[:n]
        want = least_unresolved_pair_pairwise(n, t, X)
        assert is_resolving(CirculantGraph(n, t), X) == want, (n, t, X)
        routes[_route(n, t, X, want)] += 1
    assert len(routes) == 4 and min(routes.values()) >= 15, routes  # the axis route: 20


def test_least_pair_matches_the_pairwise_reference_on_structured_sets(monkeypatch):
    # runs 0..k-1, antipodal pairs, landmarks whose windows share the axis
    # 2a (so the axis check runs), cycles (t = 1) and complete graphs
    # (t = n // 2), which every t up to n // 2 includes
    rng = random.Random(6060)
    routes = Counter()
    for n in [*range(3, 41), 64, 101, 150, 200]:
        for t in (range(1, n // 2 + 1) if n <= 40 else (1, 2, 5, n // 2)):
            a = rng.randrange(n)
            axis = [x for x in range(n) if min((2 * x - 2 * a) % n, (2 * a - 2 * x) % n) < t]
            cases = [range(min(k, n)) for k in (1, 2, 3, 5, 6)]
            cases += [(a, (a + n // 2) % n), (0, n // 2, a, (a + n // 2) % n), axis,
                      rng.sample(axis, rng.randint(1, len(axis))), [*axis, *range(_PROBES)[:n]],
                      [x for x in range(n) if x != a]]
            for X in cases:
                want = least_unresolved_pair_pairwise(n, t, X)
                assert is_resolving(CirculantGraph(n, t), X) == want, (n, t, X)
                routes[_route(n, t, X, want)] += 1
    assert len(routes) == 4 and min(routes.values()) >= 30, routes
    # on a complete graph the vertices outside X are the twins, and once the
    # probes find none the two least of them are read off without the packed row
    monkeypatch.setattr(resolve, "_tied_pairs", None)
    for n in (3, 4, 5, 6, 7, 12, 64, 200):
        for outside in ((), (0,), (3,), (n - 1,), (0, 1), (2, n - 1), (5, 6),
                        (n - 2, n - 1), (6, 9, n - 1)):
            X = [v for v in range(n) if v not in outside]
            if X:
                want = least_unresolved_pair_pairwise(n, n // 2, X)
                assert is_resolving(CirculantGraph(n, n // 2), X) == want, (n, outside)
    k2000 = CirculantGraph(2000, 1000)
    assert is_resolving(k2000, range(1999)) is None
    assert is_resolving(k2000, range(1998)) == (1998, 1999)
    assert is_resolving(k2000, [*range(5, 1000), *range(1001, 2000)]) == (0, 1)


def _least_tied_gap(n, t, X, top):
    """The least circular gap d <= top of a pair that no landmark in X
    separates, or None, off representations zipped from the distance row
    computed one vertex at a time."""
    row = dist_row_per_vertex(n, t)
    reps = list(zip(*[row[-x:] + row[:-x] for x in X]))  # entry v: r(v|X)
    return next((d for d in range(1, top + 1) if any(map(eq, reps, reps[d:] + reps[:d]))), None)


def test_short_pair_lemma():
    # a set resolves exactly when it separates every pair at circular gap
    # <= G = max(2, 2t - 1), the short-pair lemma of circmd.resolve
    sets = 0
    for n in range(3, 15):  # every set containing 0, against separators by BFS
        for t in range(1, n // 2 + 1):
            g, G = make_consecutive(n, t), max(2, 2 * t - 1)
            rows = [bfs_row(g, x) for x in range(n)]
            short = [sum(1 << x for x, row in enumerate(rows) if row[u] != row[(u + d) % n])
                     for d in range(1, min(G, n // 2) + 1) for u in range(n)]
            for r in range(n):
                for rest in itertools.combinations(range(1, n), r):
                    m = sum(1 << x for x in rest) | 1
                    resolves = is_resolving(g, (0, *rest)) is None
                    assert resolves == all(s & m for s in short), (n, t, rest)
                    sets += 1
    assert sets == 103_764
    # landmarks clustered about a point and its antipode, where step 1 of the
    # proof leaves long tied pairs: the least of these often spans over G
    rng = random.Random(2707)
    long = 0
    for _ in range(3000):
        t = rng.randint(1, 12)
        n, G = rng.randint(2 * t + 2, 4 * t + 302), max(2, 2 * t - 1)
        b, w = rng.randrange(n), rng.randint(0, t // 2)
        X = {(b + rng.choice((0, n // 2 + rng.randint(0, n % 2))) + rng.randint(-w, w)) % n
             for _ in range(rng.randint(1, 6))}
        pair = is_resolving(CirculantGraph(n, t), X)
        assert (pair is None) == (_least_tied_gap(n, t, X, G) is None), (n, t, X)
        long += pair is not None and min((pair.v - pair.u) % n, (pair.u - pair.v) % n) > G
    assert long >= 300, long
    # the bound is tight: each set's least tied pair has gap exactly G
    for t, n, X, pair in [(2, 10, {0, 1}, (2, 9)), (3, 16, {0, 1, 8, 9}, (3, 14)),
                          (1, 6, {0, 3}, (1, 5))]:
        assert _least_tied_gap(n, t, X, n // 2) == max(2, 2 * t - 1), (n, t, X)
        assert is_resolving(CirculantGraph(n, t), X) == pair


def _least_pair_of(classes):
    """The least pair of the first class with two members, or None."""
    return next(((c[0], c[1]) for c in classes if len(c) > 1), None)


def test_wide_fields_match_the_equivalence_classes():
    # t = 1 puts the diameter n // 2 past 127 at n = 512..1400, so the packed
    # row takes 2-byte fields; against the zipped classes of the same sets
    rng = random.Random(7070)
    for n in range(512, 1401, 11):
        g = CirculantGraph(n, 1)
        for X in (rng.sample(range(n), rng.randint(1, 4)), (5, 5 + n // 2),
                  rng.sample(range(n), 2) + [*range(_PROBES)]):
            assert is_resolving(g, X) == _least_pair_of(equivalence_classes(g, X)), (n, X)
    # and past 2^15 - 1 at n = 140,000, so its fields take 4 bytes
    g = CirculantGraph(140000, 1)
    assert g.diameter == 70000
    assert is_resolving(g, (0, 1)) is None
    assert is_resolving(g, (5, 6, 70000)) is None
    assert is_resolving(g, (0, 70000)) == WitnessPair(1, 139999)


def test_fields_widen_to_four_bytes_at_diameter_2_to_the_15():
    # t = 1 puts the diameter at 127 for n = 254 and 255, the widest 1-byte
    # field with its top bit clear, and at 128 one order later; likewise at
    # 32,767 for n = 65,534 and 65,535, and 32,768 one order later.  The packed
    # row, filled apart from the distance row, holds the same first n fields
    for n in (*range(254, 258), *range(65534, 65538)):
        g, width = CirculantGraph(n, 1), 1 if n < 256 else 2 if n < 65536 else 4
        R, _, W = g.packed_row
        assert "dist_row" not in g.__dict__ and W == 8 * width, n
        fields = (R & (1 << n * W) - 1).to_bytes(n * width, "little")
        assert tuple(int.from_bytes(fields[i:i + width], "little")
                     for i in range(0, n * width, width)) == dist_row_per_vertex(n, 1), n
        assert tuple(g.dist_row) == dist_row_per_vertex(n, 1), n
        assert g.dist_row.itemsize == width, n
        assert is_resolving(CirculantGraph(n, 1), {0}) == WitnessPair(1, n - 1), n
        assert is_resolving(CirculantGraph(n, 1), {0, 1}) is None, n


def _no_kernel_mask(*_):
    raise AssertionError("is_resolving read the search kernel's masks")


def test_is_resolving_reads_no_kernel_mask(monkeypatch):
    # the oracle shares no mask code with the search kernel: with planes,
    # separators and separator refused, fresh graphs still answer by the
    # packed row, and then by the probes, resolving or not
    monkeypatch.setattr(CirculantGraph, "planes", property(_no_kernel_mask))
    monkeypatch.setattr(CirculantGraph, "separators", property(_no_kernel_mask))
    monkeypatch.setattr(CirculantGraph, "separator", _no_kernel_mask)
    for n, t, X, want in ((809, 4, (5, 0, 1), (2, 3)),  # a probe's twin
                          (809, 4, (0, 1, 4, 7, 406, 407), None),
                          (809, 4, range(5), (405, 406)),  # a tie at gap 1
                          (42, 5, range(5), (5, 41)),  # a tie about the axis 4
                          (10, 3, (0, 1, 2, 5), None),  # the axis 2 checked
                          (140000, 1, (0, 1), None)):
        g = CirculantGraph(n, t)
        with pytest.raises(AssertionError, match="kernel's masks"):
            g.planes
        for _ in range(2):
            assert is_resolving(g, X) == want, (n, t, X)


def test_witness_pairs_are_validated_named_tuples():
    # a plain (u, v) compares equal to WitnessPair(u, v), so the type is
    # checked: the probe and packed-row routes build their pairs without the
    # constructor, resolves_cluster through it
    rng = random.Random(4040)
    routes = Counter()
    for _ in range(300):
        g, X = _random_case(rng)
        w = is_resolving(g, X)
        stuck = resolves_cluster(g, X, Cluster([rng.sample(range(g.n), min(g.n, 4))]))
        for pair, route in ((w, "probe" if w and w.u < _PROBES else "packed"),
                            (stuck, "cluster")):
            if pair is not None:
                assert type(pair) is WitnessPair and pair.u < pair.v, (g, X, pair)
                routes[route] += 1
    assert len(routes) == 3 and min(routes.values()) >= 30, routes
    w = WitnessPair(v=23, u=1)
    for make in (lambda: WitnessPair(3, 3), lambda: WitnessPair._make((3, 3)),
                 lambda: w._replace(v=1)):
        with pytest.raises(ValueError, match="distinct vertices"):
            make()
    assert w._replace(v=24) == WitnessPair._make((1, 24)) == (1, 24)
    assert repr(w) == "WitnessPair(u=1, v=23)" and w == (1, 23)
    assert hash(w) == hash((1, 23)) and len({w, (1, 23)}) == 1
    assert (0, 30) < w < WitnessPair(1, 24) < (2, 3)
    assert sorted([WitnessPair(2, 3), (1, 30), w]) == [w, (1, 30), (2, 3)]
    with pytest.raises(AttributeError):
        w.u = 2
    assert not hasattr(w, "__dict__")


def test_pair_resolvers_example():
    g = make_consecutive(13, 4)
    assert pair_resolvers(g, 0) == frozenset({0, 1, 5, 9})
    g21 = make_consecutive(21, 4)
    assert pair_resolvers(g21, 3) == frozenset({3, 4, 8, 12, 16, 20})
    with pytest.raises(ValueError, match="requires step set"):
        pair_resolvers_arithmetic(make_consecutive(13, 3), 0)


def test_pair_resolvers_scan_matches_arithmetic_form():
    for n in range(10, 42):
        g = make_consecutive(n, 4)
        k, _ = split(n, 4)
        for i in range(n):
            R = pair_resolvers(g, i)
            assert R == pair_resolvers_arithmetic(g, i)
            assert len(R) == 2 * k + 2


def test_every_resolving_set_hits_every_pair_resolver_set():
    g = make_consecutive(13, 4)
    B = (0, 1, 2, 3, 4)
    assert is_resolving(g, B) is None
    for i in range(13):
        assert set(B) & pair_resolvers(g, i)
