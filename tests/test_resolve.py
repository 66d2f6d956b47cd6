import itertools
import random
from collections import Counter

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

from references import pair_resolvers_arithmetic, probe_twins_pairwise

orders_t4 = st.integers(min_value=10, max_value=40)


def landmark_sets(n_max=40):
    return orders_t4.flatmap(lambda n: st.tuples(
        st.just(n),
        st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=6)))


def test_representation_example():
    g = make_consecutive(13, 4)
    assert representation(g, 6, (0, 1, 4)) == (2, 2, 1)


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
        X += range(_PROBES)[:n]  # every probe a landmark: the zip decides
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
    # one probe-twin entry per vertex, some filled, each filled one exact
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
        assert fresh == g and fresh.probe_twins == [None] * g.n
        _check_all_against_reference(fresh, rng.sample(range(g.n), 4), rng)
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
    # a fresh graph has no entry; each call fills exactly the entries of
    # its landmarks not yet filled, each the pairwise packing, and a call
    # that rejects a landmark fills none
    g = make_consecutive(809, 4)
    assert g.probe_twins == [None] * 809
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
    # every entry of the small orders, where n < _PROBES cuts the fields
    for n in range(3, 13):
        for t in range(1, n // 2 + 1):
            g = make_consecutive(n, t)
            is_resolving(g, g.vertices)
            assert g.probe_twins == [probe_twins_pairwise(g, x, _PROBES)
                                     for x in g.vertices], g


def _no_zip(g, landmarks):
    raise AssertionError("a probe should have decided this set")


def test_a_probe_decides_before_any_zip(monkeypatch):
    # a least twin found by a probe zips no representation, on a fresh graph
    with monkeypatch.context() as m:
        m.setattr(resolve, "_reps", _no_zip)
        for X, u, v in (((5, 0, 1), 2, 3), ((407, 0, 4, 1), 2, 3),
                        ((0, 300), 1, 2), ((1, 2, 3, 4), 0, 5)):
            g = make_consecutive(809, 4)
            assert is_resolving(g, X) == WitnessPair(u, v)
    # a resolving set, or one whose least twin lies beyond the probes
    # (every probe a landmark), is zipped
    assert is_resolving(g, (407, 0, 4, 1, 406, 7)) is None
    assert is_resolving(g, range(5)) == WitnessPair(405, 406)
    # no landmarks: only singleton blocks are resolved
    h = make_consecutive(13, 4)
    assert resolves_cluster(h, (), Cluster([[1], [5]])) is None
    assert resolves_cluster(h, (), Cluster([[3, 1], [5, 2]])) == WitnessPair(1, 3)
    assert not is_cluster_for(h, (), Cluster([[1], [5]]))


def test_witness_pairs_are_validated_named_tuples():
    # a plain (u, v) compares equal to WitnessPair(u, v), so the type is
    # checked: the probe route builds its pair without the constructor, the
    # zip route and resolves_cluster through it
    rng = random.Random(4040)
    routes = Counter()
    for _ in range(300):
        g, X = _random_case(rng)
        w = is_resolving(g, X)
        stuck = resolves_cluster(g, X, Cluster([rng.sample(range(g.n), min(g.n, 4))]))
        for pair, route in ((w, "probe" if w and w.u < _PROBES else "zip"),
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
