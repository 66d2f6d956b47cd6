import hashlib
import itertools
import random

import pytest

import circmd.lemmas as lemmas
import circmd.solver as solver
from circmd.graph import make_consecutive
from circmd.lemmas import (
    ANCHOR_PROBES,
    REGISTRY,
    DegenerateInstantiationError,
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


def test_instantiate_example():
    d = REGISTRY["L-2-4-3-r56"]
    g, cluster, allowed = instantiate(d, 13, {"a": 0, "ell": 0, "sign": 1})
    assert cluster.blocks == (frozenset({0, 1}), frozenset({2, 3, 4}))
    assert allowed == frozenset(range(13))


def test_instantiate_rejects_wrong_residue():
    d = REGISTRY["m3-2-1-2"]
    with pytest.raises(ValueError, match="admits residues"):
        instantiate(d, 13, {"a": 0})
    with pytest.raises(ValueError, match="has no cluster template"):
        instantiate(REGISTRY["thm-general-t"], 13, {"a": 0})


def test_wraparound_collision_is_degenerate():
    d = REGISTRY["L-2-22-3"]
    # at k = 1, ell = 1 the triple {a+15, a+16, a+17} wraps onto itself
    with pytest.raises(DegenerateInstantiationError):
        instantiate(d, 15, {"a": 0, "ell": 1})
    # a block whose offsets meet mod n is degenerate, not a smaller block
    dup = LemmaDescriptor(id="dup", kind="cluster", claim="0, 1 and n", claimed_min=3,
                          residues=(5,), blocks_fn=lambda n, k, p: [[0, 1, n]])
    result = _check_cluster_instantiation(dup, 13, {"a": 0})
    assert result.status == "degenerate"
    assert result.detail == "dup: block [0, 0, 1] has duplicate vertices mod 13"


def test_fast_descriptors_pass_at_k1():
    for did in ("Obs-0123", "r5-0156", "m3-2-1-2", "m3-222"):
        report = check_lemma(REGISTRY[did], (1,))
        assert report.ok
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
    result = _check_cluster_instantiation(vacuous, 13, {"a": 0})
    assert result.status == "vacuous"
    g, cluster, _ = instantiate(vacuous, 13, {"a": 0})
    assert _find_inducing_set(g, cluster) is None

    false = _simple_cluster("two-pairs", "two pairs", (5,), 3, [[0, 1], [2, 3]])
    result = _check_cluster_instantiation(false, 13, {"a": 0})
    assert result.status == "fail"
    assert result.detail == "(0, 2) resolves the cluster with 2 < 3"
    g, cluster, _ = instantiate(false, 13, {"a": 0})
    assert _find_inducing_set(g, cluster) == (6,)
    assert is_cluster_for(g, (6,), cluster)

    pair = _simple_cluster("pair", "one pair", (5,), 3, [[0, 1]])
    result = _check_cluster_instantiation(pair, 13, {"a": 0})
    assert result.status == "fail"
    assert result.detail == "(0,) resolves the cluster with 1 < 3"

    # with R_0 excluded nothing left can separate the pair {0, 1}
    walled = LemmaDescriptor(
        id="walled-pair", kind="cluster", claim="one pair, R_0 excluded",
        claimed_min=3, residues=(5,), blocks_fn=lambda n, k, p: [[0, 1]],
        excluded_fn=lambda n, k, p: pair_resolvers(make_consecutive(n, 4), 0))
    for n in (13, 21):
        result = _check_cluster_instantiation(walled, n, {"a": 0})
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
        found = _find_inducing_set(g, cluster)
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
        cluster = Cluster([[0, 1], [4 * k + 2, 4 * k + 3, 4 * k + 4]])
        res = min_resolvers(g, cluster, g.vertices)
        assert res.size == 2  # the published claim says >= 3
        grid = list(REGISTRY["L-2-4-3-r56"].param_grid(n, k))
        assert all(p["ell"] <= k - 1 for p in grid)


def test_pair_ladder_bound_fails_at_n11():
    g = make_consecutive(11, 4)
    cluster = Cluster([[0, 1], [7, 8]])
    res = min_resolvers(g, cluster, g.vertices)
    assert res.size == 1  # the published claim says >= 2 for all 8k+3


def test_window_tightness_witnesses():
    witnesses = window_tightness(13)
    assert set(witnesses) == {2, 3, 4, 5}
    g = make_consecutive(13, 4)
    for ell, w in witnesses.items():
        assert len(w["subset"]) == ell
        assert len(w["resolvers"]) == ell - 1
        cluster = Cluster([list(w["subset"])])
        exact = min_resolvers(g, cluster, g.vertices)
        assert exact.size == ell - 1


def test_dim_lower_descriptors_pass():
    for did in ("thm-general-t", "thm-vetrik-lb"):
        report = check_lemma(REGISTRY[did], (1,))
        assert report.ok
        assert all(r.status == "pass" for r in report.results)


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


def test_dim_lower_failure_reports_the_exact_dimension(monkeypatch):
    # every cycle has dimension 2, below the bound t of thm-general-t for t >= 3
    monkeypatch.setattr(lemmas, "make_consecutive", lambda n, t: make_consecutive(n, 1))
    report = check_lemma(REGISTRY["thm-general-t"], (1,))
    details = {dict(r.params)["t"]: r.detail for r in report.failed}
    assert details == {3: "dim 2 < 3", 4: "dim 2 < 4", 5: "dim 2 < 5"}
    assert all(r.status == "pass" for r in report.results if dict(r.params)["t"] == 2)


def test_check_lemma_builds_one_graph_per_order(monkeypatch):
    built = []

    def counting(n, t):
        built.append(n)
        return make_consecutive(n, t)

    monkeypatch.setattr(lemmas, "make_consecutive", counting)
    lemmas._graph.cache_clear()
    for did in ("L-2-4-3-r56", "min-dist-789"):
        built.clear()
        report = check_lemma(REGISTRY[did], (1, 2))
        assert built == sorted({r.n for r in report.results}), did


def test_check_lemma_builds_one_separator_table_per_order(monkeypatch):
    # every kernel at an order reads that order's one table: 96 kernels
    # (min_resolvers calls and inducing-set searches) over 9 orders
    kernels = []

    class Counting(solver._Kernel):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            kernels.append(self)

    monkeypatch.setattr(solver, "_Kernel", Counting)
    solver._separators.cache_clear()
    report = check_lemma(REGISTRY["L-2-4-3-r56"], (1, 2, 3))
    orders = {r.n for r in report.results}
    assert len(orders) == 9 and len(kernels) == 96
    assert solver._separators.cache_info().misses == 9
    assert len({id(k.table) for k in kernels if k.table is not None}) == 9


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
