import hashlib
import itertools
import random
from collections import Counter
from functools import cached_property

import pytest

import circmd.lemmas as lemmas
import circmd.solver as solver
from circmd.formulas import split
from circmd.graph import CirculantGraph, make_consecutive
from circmd.lemmas import (
    ANCHOR_PROBES,
    REGISTRY,
    LemmaDescriptor,
    _check_cluster_instantiation,
    _find_inducing_set,
    _gap_witness,
    _simple_cluster,
    check_lemma,
    instantiate,
    manifest,
    window_bound_counterexample,
    window_tightness,
)
from circmd.resolve import (
    Cluster, is_cluster_for, is_resolving, pair_resolvers, representation)
from circmd.solver import min_resolvers

@pytest.fixture
def fresh_graphs():
    """An empty ``lemmas._graph`` cache for a test that patches the graph
    builder: it reads no graph an earlier test cached, and leaves none of
    its own to later tests."""
    lemmas._graph.cache_clear()
    yield
    lemmas._graph.cache_clear()


EXPECTED_IDS = {
    "L3.1-window", "Obs-0123", "L-2-4-3-r56", "L-8-AkBk", "L-7-Ak",
    "L-7-AkBk", "L-2-22-3", "r5-0156", "r5-025-67", "r5-lemma-01",
    "r5-lemma-02", "r5-01257", "r5-023568", "r5-lemma-03", "m3-2-3-2",
    "m3-2-7-2a", "m3-2-5-2", "m3-222", "m3-2-7-2b", "m3-2-1-2",
    "min-dist-789", "thm-general-t", "thm-vetrik-lb",
}


def test_registry_has_exactly_the_23_descriptors():
    assert set(REGISTRY) == EXPECTED_IDS
    assert len(REGISTRY) == 23


def test_manifest_covers_registry():
    entries = manifest()
    assert {e["id"] for e in entries} == EXPECTED_IDS
    for e in entries:
        assert e["claim"]
        assert e["kind"] in ("cluster", "basis-gap", "dim-lower")


def _instance(d, n, params):
    """(blocks, excluded) of the instance of ``d`` at n with these params."""
    (instance,) = [i[1:] for i in d.instances(n, split(n, 4)[0]) if i[0] == params]
    return instance


def _check_at_anchor_0(d, n):
    """check_lemma's result for the one instance of ``d`` at n, anchor 0."""
    return _check_cluster_instantiation(d, n, 0, {}, *_instance(d, n, {}))


def test_instantiate_example():
    d = REGISTRY["L-2-4-3-r56"]
    g, blocks, allowed = instantiate(13, 0, *_instance(d, 13, {"ell": 0, "sign": 1}))
    assert blocks == [[0, 1], [2, 3, 4]]
    assert type(allowed) is range and allowed == g.vertices == range(13)
    # the mirrored instance wraps mod n; excluded offsets leave a sorted list
    mirrored = instantiate(13, 1, *_instance(d, 13, {"ell": 0, "sign": -1}))
    assert mirrored[1] == [[1, 0], [12, 11, 10]]
    d = REGISTRY["L-2-22-3"]
    g, blocks, allowed = instantiate(23, 1, *_instance(d, 23, {"ell": 1}))
    assert blocks == [[2, 3], [11, 12], [13, 14], [20, 21, 22]]
    assert allowed == [v for v in range(23) if v not in (3, 7)]


def test_collision_test_agrees_with_cluster():
    # instantiate builds a Cluster only when the shifted offsets collide or
    # a block is empty: over every template instance for k = 1..6 at both
    # anchors it raises exactly when Cluster of the shifted blocks does, with
    # its message, and otherwise returns the blocks Cluster would hold and
    # the vertices less the excluded ones
    count, refusals = 0, Counter()
    for d in REGISTRY.values():
        if d.kind != "cluster":
            continue
        for k, r in itertools.product(range(1, 7), sorted(d.residues)):
            n = 8 * k + r
            for _, blocks, excluded in d.instances(n, k):
                count += 1
                for a in ANCHOR_PROBES:
                    shifted = [[(a + x) % n for x in b] for b in blocks]
                    try:
                        cluster = Cluster(shifted)
                    except ValueError as exc:
                        with pytest.raises(ValueError) as info:
                            instantiate(n, a, blocks, excluded)
                        assert str(info.value) == str(exc), (d.id, n, a)
                        refusals[str(exc).split(":")[0]] += 1
                        continue
                    g, got, allowed = instantiate(n, a, blocks, excluded)
                    assert tuple(map(frozenset, got)) == cluster.blocks, (d.id, n, a)
                    out = {(a + x) % n for x in excluded}
                    assert list(allowed) == sorted(set(range(n)) - out), (d.id, n, a)
    assert count == 1336
    assert refusals == {"cluster blocks overlap": 12}


def test_cluster_orders_lie_in_the_descriptor_residues():
    # instantiate takes the order as given; check_lemma alone picks it
    for d in REGISTRY.values():
        if d.kind == "cluster":
            report = check_lemma(d, (1, 2))
            assert report.results, d.id
            assert {split(r.n, 4)[1] for r in report.results} <= set(d.residues), d.id


def test_cluster_templates_are_pinned():
    # every instance for k = 1..6, so also the orders the k <= 3 report
    # pins below never reach
    digest, count = hashlib.sha256(), 0
    for d in REGISTRY.values():
        if d.kind != "cluster":
            continue
        for k, r in itertools.product(range(1, 7), sorted(d.residues)):
            n = 8 * k + r
            for params, blocks, excluded in d.instances(n, k):
                digest.update(repr((d.id, n, sorted(params.items()),
                                    [list(b) for b in blocks], sorted(excluded))).encode())
                count += 1
    assert count == 1336
    assert digest.hexdigest().startswith("2ecf265470278ca1")


def test_check_lemma_refuses_a_descriptor_it_cannot_check(monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("swept an unknown dim-lower claim")

    monkeypatch.setattr(lemmas, "brute_force_dim", no_sweep)
    bound = LemmaDescriptor(id="my-bound", kind="dim-lower", claim="dim >= 2")
    with pytest.raises(ValueError, match="'thm-general-t' and 'thm-vetrik-lb'"):
        check_lemma(bound, (1,))
    bare = LemmaDescriptor(id="bare", kind="cluster", claim="no template",
                           claimed_min=2, residues=(5,))
    with pytest.raises(ValueError, match="'bare' has no instances"):
        check_lemma(bare, (1,))
    # a misspelt kind is not read as a cluster claim
    typo = LemmaDescriptor(id="typo", kind="clustr", claim="misspelt", claimed_min=2,
                           residues=(5,), instances=lambda n, k: [({}, [[0, 1]], ())])
    with pytest.raises(ValueError, match="'typo' has unknown kind 'clustr'"):
        check_lemma(typo, (1,))
    # with no residues there is no order to check, which is not a pass
    for kind, template in (("cluster", typo.instances), ("basis-gap", None)):
        empty = LemmaDescriptor(id="z", kind=kind, claim="...", claimed_min=5,
                                instances=template)
        with pytest.raises(ValueError, match=f"{kind} descriptor 'z' has no residues"):
            check_lemma(empty, (1,))


def test_wraparound_collision_is_degenerate():
    d = REGISTRY["L-2-22-3"]
    # at k = 1, ell = 1 the triple {a+15, a+16, a+17} wraps onto itself
    with pytest.raises(ValueError, match="overlap"):
        instantiate(15, 0, *_instance(d, 15, {"ell": 1}))
    # a block whose offsets meet mod n is degenerate, not a smaller block
    dup = LemmaDescriptor(id="dup", kind="cluster", claim="0, 1 and n", claimed_min=3,
                          residues=(5,), instances=lambda n, k: [({}, [[0, 1, n]], ())])
    result = _check_at_anchor_0(dup, 13)
    assert result.status == "degenerate"
    assert result.detail == "dup: block [0, 0, 1] has duplicate vertices"
    # the refusals no registered template meets: an empty block, and no block
    for blocks, message in (([[0, 1], []], "cluster blocks must be nonempty"),
                            ([], "cluster needs at least one block")):
        hollow = _simple_cluster("hollow", "an empty block or none", (5,), 2, blocks)
        result = _check_at_anchor_0(hollow, 13)
        assert (result.status, result.detail) == ("degenerate", f"hollow: {message}")


def test_fast_descriptors_pass_at_k1():
    for did in ("Obs-0123", "r5-0156", "m3-2-1-2", "m3-222"):
        report = check_lemma(REGISTRY[did], (1,))
        assert not report.failed
        assert any(r.status == "pass" for r in report.results)


def test_min_k_scoping_skips_small_orders():
    report = check_lemma(REGISTRY["m3-2-5-2"], (1,))
    assert report.results == ()


def test_cluster_check_reports_vacuous_and_fail():
    # a too-small witness makes a claim of two or more blocks vacuous when
    # no landmark set of size <= 3 induces the cluster, and false when one
    # does; a one-block claim presumes no cluster and simply fails
    vacuous = _simple_cluster("five-four", "blocks of five and four", (5,), 9,
                              [list(range(5)), [5, 6, 7, 8]])
    result = _check_at_anchor_0(vacuous, 13)
    assert result.status == "vacuous"
    g, blocks, _ = instantiate(13, 0, *_instance(vacuous, 13, {}))
    assert _find_inducing_set(g, blocks) is None

    false = _simple_cluster("two-pairs", "two pairs", (5,), 3, [[0, 1], [2, 3]])
    result = _check_at_anchor_0(false, 13)
    assert result.status == "fail"
    assert result.detail == "(0, 2) resolves the cluster with 2 < 3"
    g, blocks, _ = instantiate(13, 0, *_instance(false, 13, {}))
    assert _find_inducing_set(g, blocks) == (6,)
    assert is_cluster_for(g, (6,), Cluster(blocks))

    pair = _simple_cluster("pair", "one pair", (5,), 3, [[0, 1]])
    result = _check_at_anchor_0(pair, 13)
    assert result.status == "fail"
    assert result.detail == "(0,) resolves the cluster with 1 < 3"

    # with R_0 excluded nothing left can separate the pair {0, 1}
    walled = LemmaDescriptor(
        id="walled-pair", kind="cluster", claim="one pair, R_0 excluded",
        claimed_min=3, residues=(5,),
        instances=lambda n, k: [({}, [[0, 1]], pair_resolvers(make_consecutive(n, 4), 0))])
    for n in (13, 21):
        result = _check_at_anchor_0(walled, n)
        assert result.status == "pass"
        assert result.detail == "unresolvable within the allowed set"


def _sweep_inducing_set(g, cluster):
    """Reference: the first landmark set of at most 3 outside vertices, by
    size then lexicographically, under which the cluster is a cluster."""
    outside = sorted(set(g.vertices) - cluster.vertices)
    for size in range(1, 4):
        for S in itertools.combinations(outside, size):
            if is_cluster_for(g, S, cluster):
                return S
    return None


def test_inducing_set_matches_sweep():
    rng = random.Random(11)
    outcomes = set()
    for _ in range(200):
        n, t = rng.randrange(8, 30), rng.randrange(1, 5)
        g = make_consecutive(n, t)
        vs = rng.sample(range(n), rng.randrange(2, 8))
        cuts = sorted(rng.sample(range(1, len(vs)), rng.randrange(1, min(4, len(vs)))))
        cluster = Cluster(vs[i:j] for i, j in zip([0] + cuts, cuts + [len(vs)]))
        found = _find_inducing_set(g, cluster.blocks)
        assert found == _sweep_inducing_set(g, cluster), (n, t, cluster)
        outcomes.add(found is None)
    assert outcomes == {True, False}


def test_anchor_probes_are_translations():
    assert ANCHOR_PROBES == (0, 1)


# the three statements below pin published bounds that are actually false
# on excluded slices of their parameter space; the registry must keep
# excluding them, and these counterexamples must stay counterexamples


def test_window_bound_fails_for_residues_3_and_4():
    for n in (11, 12, 19, 20, 27, 28, 35, 36):
        subset, probes = window_bound_counterexample(n)
        g = make_consecutive(n, 4)
        reps = [representation(g, v, probes) for v in subset]
        assert len(set(reps)) == len(subset)  # 2 probes resolve a 4-set
        assert len(probes) == 2 < len(subset) - 1
    with pytest.raises(ValueError):
        window_bound_counterexample(13)


def test_window_residues_exclude_3_and_4():
    assert set(REGISTRY["L3.1-window"].residues) == {2, 5, 6, 7, 8, 9}


def test_r56_pair_triple_bound_fails_at_ell_k_for_r2():
    for k in (1, 2, 3):
        n = 8 * k + 2
        g = make_consecutive(n, 4)
        res = min_resolvers(g, [[0, 1], [4 * k + 2, 4 * k + 3, 4 * k + 4]], g.vertices)
        assert res.size == 2  # the published claim says >= 3
        grid = [p for p, _, _ in REGISTRY["L-2-4-3-r56"].instances(n, k)]
        assert all(p["ell"] <= k - 1 for p in grid)


def test_pair_ladder_bound_fails_at_n11():
    g = make_consecutive(11, 4)
    res = min_resolvers(g, [[0, 1], [7, 8]], g.vertices)
    assert res.size == 1  # the published claim says >= 2 for all 8k+3


def test_window_tightness_witnesses():
    witnesses = window_tightness(13)
    assert set(witnesses) == {2, 3, 4, 5}
    g = make_consecutive(13, 4)
    for ell, w in witnesses.items():
        assert len(w["subset"]) == ell
        assert len(w["resolvers"]) == ell - 1
        exact = min_resolvers(g, [w["subset"]], g.vertices)
        assert exact.size == ell - 1


def test_dim_lower_descriptors_pass():
    for did in ("thm-general-t", "thm-vetrik-lb"):
        report = check_lemma(REGISTRY[did], (1,))
        assert not report.failed
        assert all(r.status == "pass" for r in report.results)
    # a dim-lower sweep reads only max(k_range): it checks every order up
    # to it, so (3,) reports the 28 orders of (1, 2, 3); a cluster
    # descriptor checks the orders of each k given, 14 against 42
    general = REGISTRY["thm-general-t"]
    assert check_lemma(general, (3,)) == check_lemma(general, (1, 2, 3))
    assert len(check_lemma(general, (3,)).results) == 28
    obs = REGISTRY["Obs-0123"]
    assert [len(check_lemma(obs, ks).results) for ks in ((3,), (1, 2, 3))] == [14, 42]


def test_dim_lower_reports_are_pinned():
    # the oracle stops below each bound; the reports for k = 1..4 are those
    # of the full sweep to the dimension
    digest = hashlib.sha256()
    for d in REGISTRY.values():
        if d.kind == "dim-lower":
            digest.update(repr(check_lemma(d, (1, 2, 3, 4))).encode())
    assert digest.hexdigest().startswith("ae7abe0bc6edfae6")


def test_cluster_and_basis_gap_reports_are_pinned():
    digest = hashlib.sha256()
    for d in REGISTRY.values():
        if d.kind != "dim-lower":
            digest.update(repr(check_lemma(d, (1, 2, 3))).encode())
    assert digest.hexdigest().startswith("06d4312c9d4e666c")


def test_dim_lower_failure_reports_the_exact_dimension(monkeypatch, fresh_graphs):
    # every cycle has dimension 2, below the bound t of thm-general-t for t >= 3
    monkeypatch.setattr(lemmas, "make_consecutive", lambda n, t: make_consecutive(n, 1))
    report = check_lemma(REGISTRY["thm-general-t"], (1,))
    details = {dict(r.params)["t"]: r.detail for r in report.failed}
    assert details == {3: "dim 2 < 3", 4: "dim 2 < 4", 5: "dim 2 < 5"}
    assert all(r.status == "pass" for r in report.results if dict(r.params)["t"] == 2)


def test_check_lemma_builds_one_graph_per_order(monkeypatch, fresh_graphs):
    built = []

    def counting(n, t):
        built.append((n, t))
        return make_consecutive(n, t)

    monkeypatch.setattr(lemmas, "make_consecutive", counting)
    for did in ("L-2-4-3-r56", "min-dist-789"):
        built.clear()
        report = check_lemma(REGISTRY[did], (1, 2))
        assert built == [(n, 4) for n in sorted({r.n for r in report.results})], did
        built.clear()  # the graphs are kept for the process: a second check builds none
        assert check_lemma(REGISTRY[did], (1, 2)) == report and not built, did
    # one key per (n, t): thm-general-t reads the cluster claims' t = 4 graphs
    lemmas._graph.cache_clear()
    built.clear()
    check_lemma(REGISTRY["Obs-0123"], (1,))
    assert built == [(n, 4) for n in (10, 12, 13, 14, 15, 16, 17)]
    built.clear()
    report = check_lemma(REGISTRY["thm-general-t"], (1,))
    swept = [(dict(r.params)["n"], dict(r.params)["t"]) for r in report.results]
    assert {(10, 4), (11, 4), (12, 4)} <= set(swept)
    assert sorted(built) == [key for key in sorted(swept) if key not in ((10, 4), (12, 4))]
    # the whole battery at k = 1..3 builds each of its 59 graphs once, and its
    # reports are the same on a cold cache and on a warm one
    lemmas._graph.cache_clear()
    built.clear()
    cold = [check_lemma(d, (1, 2, 3)) for d in REGISTRY.values()]
    assert len(built) == len(set(built)) == 59
    built.clear()
    assert [check_lemma(d, (1, 2, 3)) for d in REGISTRY.values()] == cold and not built


def test_check_lemma_builds_one_separator_table_per_order(monkeypatch, fresh_graphs):
    # every kernel at an order reads that order's one table: 96 kernels
    # (min_resolvers calls and inducing-set searches) over 9 orders, and
    # each order's table is built once
    kernels, built = [], []

    class Counting(solver._Kernel):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            kernels.append(self)

    def counting(g):
        built.append(g.n)
        return build(g)

    build = CirculantGraph.separators.func
    table = cached_property(counting)
    table.__set_name__(CirculantGraph, "separators")
    monkeypatch.setattr(solver, "_Kernel", Counting)
    monkeypatch.setattr(CirculantGraph, "separators", table)
    report = check_lemma(REGISTRY["L-2-4-3-r56"], (1, 2, 3))
    orders = {r.n for r in report.results}
    assert len(orders) == 9 and len(kernels) == 96
    assert len({id(k.g.separators) for k in kernels}) == 9
    assert sorted(built) == sorted(orders)  # the reads above built none


def test_check_lemma_refuses_an_empty_k_range():
    for did in ("thm-general-t", "min-dist-789", "Obs-0123"):
        for k_range, message in (([], "k_range must be nonempty"),
                                 ([0], "k values must be at least 1")):
            with pytest.raises(ValueError, match=message):
                check_lemma(REGISTRY[did], k_range)


def test_basis_gap_rotation_reduction_matches_sweep():
    # the battery never reaches a failing gap (min_gap <= 1 wherever a
    # resolving 5-set exists), so check the reduction against every gap
    for n in range(10, 24):
        g = make_consecutive(n, 4)
        swept = set()
        for rest in itertools.combinations(range(1, n), 4):
            B = (0,) + rest
            if is_resolving(g, B) is None:
                swept |= {min((j - i) % n, (i - j) % n)
                          for i, j in itertools.combinations(B, 2)}
        reduced = {gap for gap in range(1, n // 2 + 1)
                   if _gap_witness(g, gap, 5) is not None}
        assert reduced == swept, n
    # a claimed 6-set bound does reach the gap loop: where r - 6 > 1 some
    # resolving 6-set has a pair one apart
    six = LemmaDescriptor(id="gap-6", kind="basis-gap", claim="gaps of 6-sets",
                          claimed_min=6, residues=(7, 8, 9))
    failing = {16: ((0, 1, 3, 4, 6, 9), 2), 17: ((0, 1, 4, 7, 10, 11), 3),
               24: ((0, 1, 3, 4, 6, 9), 2), 25: ((0, 1, 4, 7, 14, 15), 3)}
    results = check_lemma(six, (1, 2)).results
    assert [r.n for r in results] == [15, 16, 17, 23, 24, 25]
    for result in results:
        if result.n not in failing:
            assert result.n in (15, 23) and result.status == "pass"
            continue
        B, min_gap = failing[result.n]
        assert result.status == "fail"
        assert result.detail == f"resolving set {B} has gap 1 < {min_gap}"
        assert is_resolving(make_consecutive(result.n, 4), B) is None
        assert B[1] - B[0] == 1
