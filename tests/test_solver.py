import hashlib
import itertools
import random
import sys
import threading
from collections import Counter

import pytest

from circmd.formulas import formula_dim
from circmd.graph import CirculantGraph, make_consecutive
from circmd.resolve import Cluster, is_resolving, pair_resolvers, resolves_cluster
from circmd.solver import (
    BudgetExceededError,
    DimResult,
    MinResolversResult,
    NoBasisWithinError,
    brute_force_dim,
    exact_dim,
    find_basis_of_size,
    min_resolvers,
)
from circmd import cli, solver
from circmd.solver import _Kernel, _basis_with_zero, _sphere_pairs

from references import bfs_row, layers, pair_resolvers_arithmetic


def _sep(kernel, u, v):
    # the mask of one pair
    return next(kernel.pair_masks([(u, v)]))


def _layer_pairs(g):
    # the pairs inside each sphere around 0, sphere by sphere
    return [(u, v) for s in layers(g) for u, v in itertools.combinations(s, 2)]


def test_exact_matches_oracle_on_small_orders():
    for n, t, expected in [(10, 4, 5), (11, 4, 4), (12, 4, 4), (13, 3, 5),
                           (8, 4, 7), (9, 4, 8), (9, 2, 4), (12, 2, 3)]:
        g = make_consecutive(n, t)
        res = exact_dim(g)
        oracle = brute_force_dim(g)
        assert res.dim == expected
        assert res.dim == oracle.dim
        assert is_resolving(g, res.basis) is None


def test_result_is_least_basis_containing_zero():
    g = make_consecutive(12, 4)
    res = exact_dim(g)
    assert res.basis[0] == 0
    assert res.basis == brute_force_dim(g).basis


def test_dim_result_equality_ignores_search_effort():
    a = DimResult(4, (0, 1, 2, 3), "search", nodes_explored=10)
    b = DimResult(4, (0, 1, 2, 3), "search", nodes_explored=99,
                  exhausted_sizes=(3,))
    assert a == b
    assert not (a != b) and hash(a) == hash(b)
    assert a != DimResult(4, (0, 1, 2, 3), "search", lower_bound_used=2)
    with pytest.raises(AttributeError):
        a.dim = 5


def test_search_answers_are_pinned():
    # dim, lex-least basis and exhausted sizes for t = 4, n = 10..49; the
    # node total bounds the work the cuts leave, and may only fall: 5,645
    # with the orbit cut's mirror-image half (8,131 with rotations alone and
    # the last two picks read off one scan of the narrowest unhit mask or
    # the first pick's range, 8,133 with a per-pick loop kept for the
    # range, 21,578 with one pass per first pick, 52,269 without the orbit
    # cut, 107,774 with only the empty-separator rule)
    digest = hashlib.sha256()
    nodes = 0
    for n in range(10, 50):
        r = exact_dim(make_consecutive(n, 4))
        digest.update(repr((n, r.dim, r.basis, r.exhausted_sizes)).encode())
        nodes += r.nodes_explored
    assert digest.hexdigest().startswith("252d51579314351c")
    assert nodes <= 5_645


def test_orbit_cut_agrees_with_oracle_on_small_orders():
    # exact_dim extends only prenecklace gap sequences: dim and the
    # lex-least basis must still match the oracle's plain sweep, also at
    # orders below 2t + 2 and on complete graphs, where t folds to n // 2
    for t in range(1, 7):
        for n in range(7, 19):
            g = make_consecutive(n, t)
            res, oracle = exact_dim(g), brute_force_dim(g)
            assert (res.dim, res.basis) == (oracle.dim, oracle.basis), g


def test_search_bases_are_dihedral_least():
    # a rotation or a mirror image of a resolving set resolves, so the least
    # one containing 0 has cyclic gaps no greater than any rotation of
    # themselves or of their reversal; the orbit cut must keep that set.  The
    # budget is explicit: the default guard refuses C(35, 8) at n = 36, t = 6
    for t in range(1, 7):
        for n in range(2 * t + 2, 41):
            g = make_consecutive(n, t)
            r = exact_dim(g, budget=10**9)
            bases = {r.basis, *(find_basis_of_size(g, k, 10**9) for k in (r.dim, r.dim + 1))}
            for basis in bases:
                gaps = [b - a for a, b in zip(basis, basis[1:] + (n,))]
                for seq in (gaps, gaps[::-1]):
                    for i in range(len(seq)):
                        assert gaps <= seq[i:] + seq[:i], (n, t, basis)


def test_orbit_cut_matches_the_plain_kernel():
    # same basis and exhausted sizes as the kernel without the cut, on
    # t = 2..6 (150 orders); the node totals are pinned, so a bound that
    # is off by one but still sound, or a plain path that changes, shows
    cut_nodes = plain_nodes = 0
    for t, n_max in ((2, 43), (3, 43), (4, 49), (5, 31), (6, 29)):
        for n in range(2 * t + 2, n_max + 1):
            g = make_consecutive(n, t)
            res = exact_dim(g)
            kernel = _Kernel(g, range(1, n))
            found = kernel.hit(kernel.pair_masks(_layer_pairs(g)),
                               range(res.lower_bound_used - 1, n), None)
            basis = (0,) + found
            exhausted = tuple(p + 1 for p in kernel.exhausted)
            assert (res.basis, res.exhausted_sizes) == (basis, exhausted), (n, t)
            cut_nodes += res.nodes_explored
            plain_nodes += kernel.nodes
    assert (cut_nodes, plain_nodes) == (22_676, 64_996)


def test_oracle_answers_are_pinned():
    # the oracle's plain enumeration must not move: dim, basis, exhausted
    # sizes and node count for t = 1..4, n = 2t+2..20 (12,789 nodes)
    digest = hashlib.sha256()
    for t in range(1, 5):
        for n in range(2 * t + 2, 21):
            r = brute_force_dim(make_consecutive(n, t))
            digest.update(repr((t, n, r.dim, r.basis, r.exhausted_sizes,
                                r.nodes_explored)).encode())
    assert digest.hexdigest().startswith("a1c435c758a0af3b")


def test_oracle_checks_each_subset_with_one_is_resolving_call(monkeypatch):
    # the benchmark's lemma workload times the oracle's sweep as
    # is_resolving calls, one per node; a sweep that moves the subset check
    # elsewhere must fail here, not only under the benchmark's tracer
    checked = []

    def counting(g, landmarks):
        checked.append(tuple(landmarks))
        return is_resolving(g, landmarks)

    monkeypatch.setattr(solver, "is_resolving", counting)
    r = brute_force_dim(make_consecutive(20, 4))
    assert len(checked) == r.nodes_explored == 416
    assert len(set(checked)) == 416 and checked[-1] == r.basis


def test_oracle_max_k_stops_the_sweep():
    def answer(r):
        return r.dim, r.basis, r.exhausted_sizes, r.nodes_explored

    for t in range(2, 5):
        for n in range(2 * t + 2, 21):
            g = make_consecutive(n, t)
            full = brute_force_dim(g)
            for max_k in (full.dim, full.dim + 1, n):
                assert answer(brute_force_dim(g, max_k)) == answer(full), (n, t, max_k)
            with pytest.raises(NoBasisWithinError, match=f"size <= {full.dim - 1} "):
                brute_force_dim(g, full.dim - 1)
    g = make_consecutive(20, 4)
    for max_k in (None, 2):  # C(19, 1) > 10: the guard refuses, proving nothing
        with pytest.raises(BudgetExceededError, match=r"C\(19, 1\)") as exc:
            brute_force_dim(g, max_k, budget=10)
        assert type(exc.value) is BudgetExceededError
    with pytest.raises(ValueError, match="max_k must be at least 1"):
        brute_force_dim(g, 0)


def test_max_k_raises_when_exceeded():
    g = make_consecutive(10, 4)
    with pytest.raises(NoBasisWithinError, match="size <= 3"):
        exact_dim(g, max_k=3)
    # a proof that dim > max_k is not the budget guard's refusal
    assert not issubclass(NoBasisWithinError, BudgetExceededError)
    with pytest.raises(NoBasisWithinError):
        with pytest.raises(BudgetExceededError):
            exact_dim(g, max_k=3)
    with pytest.raises(ValueError, match="max_k must be at least 1"):
        exact_dim(g, max_k=0)


def test_budget_guard_raises_before_enumerating():
    g = make_consecutive(30, 4)
    with pytest.raises(BudgetExceededError):
        exact_dim(g, budget=10)
    with pytest.raises(BudgetExceededError):
        brute_force_dim(g, budget=10)
    with pytest.raises(BudgetExceededError, match=r"C\(30, 1\)"):
        min_resolvers(g, [[0, 1]], g.vertices, budget=10)
    with pytest.raises(BudgetExceededError, match=r"C\(29, 3\)"):
        find_basis_of_size(g, 4, budget=10)


def test_budget_refusal_builds_no_separator_mask(monkeypatch):
    def no_mask(*args):
        raise AssertionError("separator mask built before the budget guard")

    monkeypatch.delenv("CIRCMD_BUDGET", raising=False)
    monkeypatch.setattr(CirculantGraph, "separators", property(no_mask))
    g = make_consecutive(400, 4)
    with pytest.raises(BudgetExceededError, match=r"C\(399, 4\)"):
        exact_dim(g)
    with pytest.raises(BudgetExceededError, match=r"C\(399, 5\)"):
        find_basis_of_size(g, 6)


def test_min_resolvers_is_refused_only_by_the_kernel_guard(monkeypatch):
    # the budget refuses a size just before the kernel searches it: a
    # cluster with a pair exhausts size 0 and is refused at size 1
    monkeypatch.delenv("CIRCMD_BUDGET", raising=False)
    g = make_consecutive(30, 4)
    with pytest.raises(BudgetExceededError, match=r"C\(30, 0\) candidates exceed budget"):
        min_resolvers(g, [[0, 1], [10, 12]], range(30), budget=0)
    for budget in range(1, 30):
        with pytest.raises(BudgetExceededError,
                           match=r"C\(30, 1\) candidates exceed budget"):
            min_resolvers(g, [[0, 1], [10, 12]], range(30), budget=budget)
    # singletons need no vertex: size 0 passes the budget of C(30, 0)
    result = min_resolvers(g, [[0], [10]], range(30), budget=1)
    assert (result.size, result.witness) == (0, ())
    # no vertex of {0, 1, 12} separates 6 from 7: the masks answer at any budget
    g = make_consecutive(13, 4)
    for budget in range(3):
        result = min_resolvers(g, [[6, 7]], [0, 1, 12], budget=budget)
        assert (result.size, result.witness, result.capped) == (None, None, False)
    # with no budget given, hit guards each size it searches with one read
    reads = []

    def counted():
        reads.append(1)
        return solver.DEFAULT_BUDGET

    monkeypatch.setattr(solver, "default_budget", counted)
    g = make_consecutive(30, 4)
    result = min_resolvers(g, [[0, 1], [10, 12]], range(30))
    assert (result.size, result.witness, len(reads)) == (2, (0, 2), 1)
    # a witness search that tries two sizes reads it once too
    reads.clear()
    exact_dim(make_consecutive(49, 4))
    assert len(reads) == 1
    # and so does an oracle sweep of three sizes, which ends in a proof
    reads.clear()
    with pytest.raises(NoBasisWithinError, match="size <= 3"):
        brute_force_dim(make_consecutive(13, 4), max_k=3)
    assert len(reads) == 1


def test_budget_refusal_reads_no_graph_state(monkeypatch, capsys):
    # a refused witness search reads not even the diameter, and builds no
    # row, no planes, no separator and no probe twins; a refused exact_dim
    # reads only the closed-form diameter, for its counting bound, and
    # builds none either
    monkeypatch.delenv("CIRCMD_BUDGET", raising=False)
    lazy = {"dist_row", "packed_row", "planes", "separators", "probe_twins"}

    def no_read(*args):
        raise AssertionError("graph read before the budget guard")

    g = make_consecutive(400, 4)
    with monkeypatch.context() as patch:
        patch.setattr(CirculantGraph, "diameter", property(no_read))
        with pytest.raises(BudgetExceededError, match=r"C\(399, 5\)"):
            find_basis_of_size(g, 6)
    assert not lazy & g.__dict__.keys()
    with pytest.raises(BudgetExceededError, match=r"C\(399, 4\)"):
        exact_dim(g)
    assert not lazy & g.__dict__.keys()

    # the CLI's formula route at n = 80 falls back to the same search
    for name in lazy:
        monkeypatch.setattr(CirculantGraph, name, property(no_read))
    assert cli.main(["dim", "--n", "80", "--t", "4"]) == 3
    assert "C(79, 5) candidates exceed budget" in capsys.readouterr().out


def test_sphere_pairs_yield_the_short_tied_pairs():
    # the witness search's pairs are those {0} leaves tied, the same-sphere
    # pairs of a BFS from 0, at circular gap <= G = max(2, 2t - 1), each once:
    # by the short-pair lemma all a set containing 0 must separate; drained,
    # the source fills the separators entries of their gaps, none past G
    for t in range(1, 9):
        G = max(2, 2 * t - 1)
        for n in range(2 * t + 2, 201):
            g = make_consecutive(n, t)
            depth = bfs_row(g, 0)
            want = {tuple(sorted((u, (u + d) % n))) for u in range(1, n)
                    for d in range(1, G + 1) if depth[u] == depth[(u + d) % n]}
            got = list(itertools.chain.from_iterable(_sphere_pairs(g)))
            assert sorted(got) == sorted(want), (n, t)
            list(_Kernel(g, range(1, n)).pair_masks(got))
            gaps = {min(v - u, n - v + u) for u, v in want}
            assert {d for d, m in enumerate(g.separators) if m} == gaps, (n, t)


def test_witness_search_builds_the_table_to_2t_minus_1():
    g = make_consecutive(492, 4)
    assert find_basis_of_size(g, 4) == (0, 2, 244, 246)
    table = g.separators
    short = table[:8]
    assert len(table) == 247 and None not in table[1:8] and set(table[8:]) == {None}
    # a pair 100 > 2t - 1 apart fills entry 100 alone: 49..51 tie on it
    # and 52 does not
    pair = [(0, 100)]
    assert min_resolvers(g, pair, range(49, 52)) == MinResolversResult(None, None)
    assert min_resolvers(g, pair, range(49, 53)) == MinResolversResult(1, (52,))
    sep = sum(1 << x for x in g.vertices if g.dist(x, 0) != g.dist(x, 100))
    assert g.separators is table and table[100] == sep | sep << g.n
    assert all(a is b for a, b in zip(table[:8], short))
    assert {d for d in range(8, 247) if table[d] is None} == \
        set(range(8, 247)) - {100}


def test_concurrent_readers_see_a_whole_separator_table():
    # threads on one fresh graph fill its entries at the same time, half
    # from the widest delta down and half from 0 up: each sees the masks
    # of the definition, and the list ends whole
    n, t = 200, 2
    row = make_consecutive(n, t).dist_row
    want = [sum(1 << x for x in range(n) if row[x] != row[x - delta])
            for delta in range(n // 2 + 1)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            g = make_consecutive(n, t)
            seen = []

            def read(deltas):
                masks = list(_Kernel(g, range(n)).pair_masks(
                    [(0, delta) for delta in deltas]))
                seen.append(masks == [want[delta] for delta in deltas])

            threads = [threading.Thread(target=read, args=(deltas,))
                       for deltas in [range(n // 2, -1, -1), range(n // 2 + 1)] * 4]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=10)
                assert not th.is_alive()
            assert seen == [True] * 8
            assert g.separators == [m | m << n for m in want]
    finally:
        sys.setswitchinterval(old)


def test_kernels_on_one_graph_share_one_separator_table():
    # the table belongs to the graph, not the kernel: kernels on other
    # pools read the same object, also after kernels on other graphs have
    # run, while an equal graph built anew, another order or another t
    # gets its own
    g = make_consecutive(13, 4)
    for kernel in (_Kernel(g, range(13)), _Kernel(g, [0, 2, 5, 9])):
        _sep(kernel, 0, 1)
    table = g.separators
    assert len(table) == 13 // 2 + 1
    for other in (make_consecutive(13, 4), make_consecutive(14, 4),
                  make_consecutive(13, 3), make_consecutive(13, 5)):
        _sep(_Kernel(other, range(other.n)), 0, 1)
        assert other.separators is not table, other
        assert len(other.separators) == other.n // 2 + 1, other
    _sep(_Kernel(g, range(1, 13)), 0, 1)
    assert g.separators is table


def test_find_basis_of_size():
    g = make_consecutive(13, 4)
    assert find_basis_of_size(g, 4) is None
    basis = find_basis_of_size(g, 5)
    assert len(basis) == 5 and is_resolving(g, basis) is None
    with pytest.raises(ValueError):
        find_basis_of_size(g, 0)


def test_kernel_adjacent_pair_masks_match_pair_resolvers():
    for t in range(1, 6):
        for n in range(10, 61):
            g = make_consecutive(n, t)
            kernel = _Kernel(g, range(n))
            for i in range(n):
                mask = _sep(kernel, i, (i + 1) % n)
                members = frozenset(x for x in g.vertices if mask >> x & 1)
                assert members == pair_resolvers(g, i), (n, t, i)
                if t == 4:
                    assert members == pair_resolvers_arithmetic(g, i), (n, i)


def test_kernel_masks_match_the_definition_for_every_shift():
    # sep(u, u + delta) against {x : d(x, u) != d(x, u + delta)} for every
    # delta, for t = 1..6; the diameters include 2^j - 1 and 2^j, where the
    # number of distance bit-planes grows
    diameters = set()
    for t in range(1, 7):
        for n in range(7, 41):
            g = make_consecutive(n, t)
            diameters.add(g.diameter)
            kernel = _Kernel(g, range(n))
            for delta in range(n):
                for u in (0, 1, n // 2):
                    v = (u + delta) % n
                    expected = sum(1 << x for x in g.vertices
                                   if g.dist(x, u) != g.dist(x, v))
                    assert _sep(kernel, u, v) == expected, (g, u, v)
    assert {1, 2, 3, 4, 7, 8, 15, 16} <= diameters


def test_kernel_masks_are_symmetric_on_every_pool():
    # sep(u, v) == sep(v, u) == {x in pool : d(x, u) != d(x, v)} for every
    # pair, for t = 1..5; odd and even n, so delta = n / 2 occurs.  The
    # graph's table keeps deltas 0..n // 2 and serves a larger one as the
    # reversed pair
    rng = random.Random(23)
    for t in range(1, 6):
        for n in range(7, 31):
            g = make_consecutive(n, t)
            dist = [[g.dist(x, u) for x in range(n)] for u in range(n)]
            pools = [range(n), range(1, n),
                     sorted(rng.sample(range(n), rng.randint(1, n)))]
            for pool in pools:
                kernel = _Kernel(g, pool)
                for u, v in itertools.combinations(range(n), 2):
                    expected = sum(1 << x for x in pool if dist[u][x] != dist[v][x])
                    assert _sep(kernel, u, v) == _sep(kernel, v, u) == expected, \
                        (g, pool, u, v)
            assert len(g.separators) == n // 2 + 1


def _first_resolving_by_sweep(g, k):
    for rest in itertools.combinations(range(1, g.n), k - 1):
        if is_resolving(g, (0,) + rest) is None:
            return (0,) + rest
    return None


def test_find_basis_of_size_matches_plain_sweep():
    for t in range(2, 6):
        for n in range(7, 17):
            g = make_consecutive(n, t)
            for k in range(1, 6):
                assert find_basis_of_size(g, k) == _first_resolving_by_sweep(g, k), \
                    (n, t, k)


def _formula_route_searches():
    # the first-witness search `dim` and `basis_t4` run at the formula's
    # size, for t = 2, 3, 4 on three periods of small orders and, per
    # residue, the largest order in 10..809 that the default budget answers
    grid = {2: [*range(10, 22), 493, 806, 807, 808],
            3: [*range(10, 28), 145, 490, 491, 492, 494, 495],
            4: [*range(10, 34), 71, 72, 73, 146, 147, 149, 150, 492]}
    for t, orders in grid.items():
        for n in orders:
            g = make_consecutive(n, t)
            kernel, basis = _basis_with_zero(g, (formula_dim(n, t) - 1,), None)
            yield n, t, basis, kernel.nodes


def test_formula_route_witnesses_are_pinned(monkeypatch):
    # basis and node count (2,898 in all)
    monkeypatch.delenv("CIRCMD_BUDGET", raising=False)
    digest = hashlib.sha256()
    for n, t, basis, nodes in _formula_route_searches():
        digest.update(repr((n, t, basis, nodes)).encode())
    assert digest.hexdigest().startswith("e50beae319cc875f")


def test_formula_route_bases_are_pinned(monkeypatch):
    # the bases alone: a change to the search's cuts that moves only its
    # node count leaves this pin as it is
    monkeypatch.delenv("CIRCMD_BUDGET", raising=False)
    digest = hashlib.sha256()
    for n, t, basis, _ in _formula_route_searches():
        digest.update(repr((n, t, basis)).encode())
    assert digest.hexdigest().startswith("84172781cb6a7b2e")


def test_min_resolvers_example():
    g = make_consecutive(13, 4)
    groups = [[0, 1], [2, 3, 4]]
    res = min_resolvers(g, groups, g.vertices)
    assert res.size == 3
    assert res.witness == (0, 2, 3)


def test_min_resolvers_capped_reports_no_witness():
    g = make_consecutive(13, 4)
    groups = [[0, 1], [2, 3, 4]]
    res = min_resolvers(g, groups, g.vertices, max_size=2)
    assert res.size is None and res.capped


def test_min_resolvers_unresolvable_allowed_set():
    g = make_consecutive(13, 4)
    # no vertex in the allowed set separates 6 from 7
    allowed = set(g.vertices) - set(range(2, 12))
    res = min_resolvers(g, [(6, 7)], allowed)
    assert res.size is None and not res.capped


def test_min_resolvers_monotone_in_allowed():
    g = make_consecutive(13, 4)
    groups = [[0, 1], [2, 3, 4]]
    full = min_resolvers(g, groups, g.vertices)
    shrunk = min_resolvers(g, groups, set(g.vertices) - {0, 2})
    assert shrunk.size is None or shrunk.size >= full.size


def _min_resolvers_by_sweep(separates, allowed, max_size):
    pool = sorted(set(allowed))
    if not separates(pool):
        return MinResolversResult(size=None, witness=None)
    limit = len(pool) if max_size is None else min(max_size, len(pool))
    for m in range(limit + 1):
        for X in itertools.combinations(pool, m):
            if separates(X):
                return MinResolversResult(size=m, witness=X)
    return MinResolversResult(size=None, witness=None, capped=True)


def test_min_resolvers_matches_plain_sweep():
    # disjoint groups against resolves_cluster, and groups that share
    # vertices, which no Cluster holds, against each pair read off g.dist
    rng = random.Random(2024)
    outcomes = {"disjoint": Counter(), "overlapping": Counter()}
    for kind in ("disjoint", "overlapping") * 400:
        n, t = rng.randint(8, 29), rng.randint(1, 4)
        g = make_consecutive(n, t)
        vertices = rng.sample(range(n), rng.randint(1, 8))
        if kind == "disjoint":
            inner = rng.sample(range(1, len(vertices)), rng.randrange(len(vertices)))
            cuts = [0, *sorted(inner), len(vertices)]
            groups = [vertices[i:j] for i, j in zip(cuts, cuts[1:])]
            cluster = Cluster(groups)

            def separates(X):
                return resolves_cluster(g, X, cluster) is None
        else:
            groups = [rng.sample(vertices, rng.randint(1, min(4, len(vertices))))
                      for _ in range(rng.randint(2, 5))]
            if len(set().union(*groups)) == sum(map(len, groups)):
                continue  # disjoint after all
            pairs = [p for group in groups for p in itertools.combinations(group, 2)]

            def separates(X):
                return all(any(g.dist(x, u) != g.dist(x, v) for x in X) for u, v in pairs)
        allowed = rng.sample(range(n), rng.choice([1, 2, 3, n // 2, n]))
        max_size = rng.choice([None, 1, 2, 3])
        expected = _min_resolvers_by_sweep(separates, allowed, max_size)
        assert min_resolvers(g, groups, allowed, max_size) == expected, \
            (n, t, groups, allowed, max_size)
        outcomes[kind]["capped" if expected.capped else expected.size] += 1
    for kind, seen in outcomes.items():
        assert {None, "capped", 0, 1, 2, 3} <= seen.keys() and seen.total() > 300, kind


def test_pairs_at_gap_t_plus_1_force_the_dimension():
    # a lower bound from one rotation-invariant family of overlapping pairs,
    # {v, v + d} with 1 <= d <= t + 1: a resolving set may contain 0, and
    # then needs the least set of other vertices that separates each such
    # pair 0 ties.  It meets formula_dim on all 279 orders here; with
    # d <= t it falls short at n = 6, t = 2.  The budget is explicit: the
    # default guard refuses C(78, 5) at n = 79, t = 4 before any search
    def bound(g, top):
        n = g.n
        tied = [(v, (v + d) % n) for v in range(n) for d in range(1, top + 1)
                if g.dist(0, v) == g.dist(0, (v + d) % n)]
        return 1 + min_resolvers(g, tied, range(1, n), budget=10**9).size

    orders = [(n, t) for t in (2, 3, 4) for n in range(2 * t + 2, 101)]
    assert len(orders) == 279
    for n, t in orders:
        assert bound(make_consecutive(n, t), t + 1) == formula_dim(n, t), (n, t)
    assert (bound(make_consecutive(6, 2), 2), formula_dim(6, 2)) == (2, 3)


def test_min_resolvers_searches_a_range_as_its_list(monkeypatch):
    # a step-1 range reaches the kernel as it stands, the list of its
    # members sorted; both mask the same pool and give the same answer
    pools = []

    class Recording(_Kernel):
        def __init__(self, g, pool, orbit=False):
            pools.append(pool)
            super().__init__(g, pool, orbit)

    monkeypatch.setattr(solver, "_Kernel", Recording)
    rng = random.Random(54)
    outcomes = Counter()
    for _ in range(600):
        n, t = rng.randint(7, 30), rng.randint(1, 5)
        g = make_consecutive(n, t)
        a = rng.randrange(n)
        allowed = range(a, rng.randint(a + 1, n))
        groups = [rng.sample(range(n), rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
        max_size = rng.choice([None, 1, 2, 3])
        results = [min_resolvers(g, groups, pool, max_size) for pool in (allowed, list(allowed))]
        assert results[0] == results[1], (n, t, allowed, groups, max_size)
        assert pools[-2] is allowed and pools[-1] == list(allowed)
        assert _Kernel(g, allowed).pool_mask == _Kernel(g, list(allowed)).pool_mask
        outcomes["capped" if results[0].capped else results[0].size] += 1
    assert {None, "capped", 0, 1, 2, 3} <= outcomes.keys()


def _sorted_pool_searches():
    # the min_resolvers path: sorted random pools, not range(1, n), on
    # C(n, +/-{1..t}), t <= 6, for sizes drawn from 0..5, so that the draw
    # holds sets found at once, found after exhausted sizes, and none found
    rng = random.Random(15)
    for _ in range(1500):
        n = rng.randint(7, 40)
        g = make_consecutive(n, rng.randint(1, min(6, n // 2)))
        kernel = _Kernel(g, sorted(rng.sample(range(n), rng.randint(2, n))))
        vertices = rng.sample(range(n), rng.randint(2, 7))
        pairs = list(kernel.pair_masks(itertools.combinations(vertices, 2)))
        low = rng.randint(0, 5)
        found = kernel.hit(pairs, range(low, rng.randint(low, 5) + 1), None)
        yield found, kernel.exhausted, kernel.nodes


def test_kernel_on_sorted_pools_is_pinned():
    # found set, exhausted sizes and node count (6,682 in all)
    digest = hashlib.sha256()
    outcomes = set()
    for found, exhausted, nodes in _sorted_pool_searches():
        outcomes.add("none" if found is None else bool(exhausted))
        digest.update(repr((found, exhausted, nodes)).encode())
    assert outcomes == {"none", False, True}
    assert digest.hexdigest().startswith("488f5fd14dd9128b")


def test_kernel_answers_on_sorted_pools_are_pinned():
    # found set and exhausted sizes alone, free of the node count
    digest = hashlib.sha256()
    for found, exhausted, _ in _sorted_pool_searches():
        digest.update(repr((found, exhausted)).encode())
    assert digest.hexdigest().startswith("039b783d880d3c53")


class _PerVKernel(_Kernel):
    """The kernel with its last two picks found the plain way: each first
    pick v in turn, its least partner read off one AND of the masks v
    misses over the pool above v, up to top."""

    def _last_two(self, pairs, start, end, top):
        for v in self.pool[start:end]:
            partners = self.pool_mask & -(2 << v) & ((2 << top) - 1)
            for m in pairs:
                if not m >> v & 1:
                    partners &= m
            if partners:
                return v, (partners & -partners).bit_length() - 1
        return None


def test_last_two_picks_match_a_per_v_loop():
    # the one scan of the last two picks against _PerVKernel: found set and
    # exhausted sizes on C(n, +/-{1..t}), t <= 6, with the orbit cut on the
    # pool range(1, n) and the sphere pairs, and without it on sorted
    # random pools and the pairs inside random vertex sets; the draw must
    # reach both scan sets, the narrowest mask when it is narrower than
    # the first pick's range and the range when the mask is as wide or wider
    rng = random.Random(25)
    sides = {True: 0, False: 0}

    class Counting(_Kernel):
        def _last_two(self, pairs, start, end, top):
            if pairs and start < end:
                sides[(pairs[0] >> self.pool[start]).bit_count() < end - start] += 1
            return super()._last_two(pairs, start, end, top)

    for _ in range(1000):
        n = rng.randint(7, 36)
        g = make_consecutive(n, rng.randint(1, min(6, n // 2)))
        drawn = sorted(rng.sample(range(n), rng.randint(2, n)))
        vertices = rng.sample(range(n), rng.randint(2, 7))
        uv = list(itertools.combinations(vertices, 2))
        low = rng.randint(0, 4)
        for pool, orbit, sizes in ((range(1, n), True, range(1, 6)),
                                   (drawn, False, range(low, rng.randint(low, 5) + 1))):
            runs = []
            for cls in (Counting, _PerVKernel):
                kernel = cls(g, pool, orbit=orbit)
                pairs = kernel.pair_masks(_layer_pairs(g) if orbit else uv)
                runs.append((kernel.hit(pairs, sizes, None), kernel.exhausted))
            assert runs[0] == runs[1], (g, pool, orbit, sizes)
    assert min(sides.values()) >= 1000, sides


def _last_two_calls():
    # direct _last_two calls on fresh kernels: C(n, +/-{1..t}), t <= 6,
    # range pools and sorted pools with gaps, the masks of a random subset
    # of the pairs inside a few vertices, or none, in random order half the
    # time (so pairs[0] is often not the narrowest), v ranges from one
    # vertex to the whole pool, and a cap on both picks at n - 1 or, half
    # the time, anywhere from pool[start] to the pool's top
    rng = random.Random(27)
    for _ in range(3000):
        n = rng.randint(7, 36)
        g = make_consecutive(n, rng.randint(1, min(6, n // 2)))
        pool = rng.choice([range(1, n), range(rng.randrange(n - 1), n),
                           sorted(rng.sample(range(n), rng.randint(2, n)))])
        kernel = _Kernel(g, pool)
        uv = list(itertools.combinations(rng.sample(range(n), rng.randint(2, 5)), 2))
        pairs = list(kernel.pair_masks(rng.sample(uv, rng.randint(0, len(uv)))))
        if rng.random() < 0.5:  # as hit passes them
            pairs.sort(key=int.bit_count)
        start = rng.randrange(len(pool))
        end = rng.choice([start + 1, rng.randint(start + 1, len(pool))])
        top = n - 1 if rng.random() < 0.5 else rng.randint(pool[start], pool[-1])
        yield kernel, pairs, start, end, top


def test_last_two_picks_are_the_least_hitting_pair():
    # the contract against brute force: the least v of pool[start:end],
    # then the least pool vertex w > v, w <= top, with {v, w} hitting
    # every mask
    cases = dict.fromkeys(["found", "none", "no pairs", "one v",
                           "w above the v range", "pairs[0] not narrowest",
                           "top below the pool's", "top cuts the pair"], 0)
    for kernel, pairs, start, end, top in _last_two_calls():
        pool = kernel.pool

        def least(top):
            return next(((v, w) for i, v in enumerate(pool[start:end], start)
                         for w in pool[i + 1:]
                         if w <= top and all(m >> v & 1 or m >> w & 1 for m in pairs)),
                        None)

        expected = least(top)
        assert kernel._last_two(pairs, start, end, top) == expected, \
            (kernel.g, pool, pairs, start, end, top)
        cases["none" if expected is None else "found"] += 1
        cases["no pairs"] += not pairs
        cases["one v"] += end == start + 1
        cases["w above the v range"] += expected is not None and expected[1] > pool[end - 1]
        cases["pairs[0] not narrowest"] += bool(pairs) and \
            pairs[0].bit_count() > min(map(int.bit_count, pairs))
        cases["top below the pool's"] += top < pool[-1]
        cases["top cuts the pair"] += top < pool[-1] and expected != least(pool[-1])
    assert min(cases.values()) >= 100, cases
    # on K7 each mask is its own pair, so {5, 6} alone hits these: the
    # scan of the narrowest mask meets it, but 5 lies above the v range
    kernel = _Kernel(make_consecutive(7, 3), range(7))
    pairs = list(kernel.pair_masks([(5, 6), (4, 6), (2, 6), (2, 5), (4, 5)]))
    assert pairs[0] == 1 << 5 | 1 << 6
    assert kernel._last_two(pairs, 0, 4, 6) is None
    assert kernel._last_two(pairs, 0, 6, 6) == (5, 6)
    assert kernel._last_two(pairs, 0, 6, 5) is None  # 6 is above the cap


def test_last_two_picks_scan_the_smaller_set():
    # the size rule: one call adds at most one node per vertex of the
    # smaller of the first mask (from pool[start] up) and the v range, and
    # one for the hit; scanning either set alone breaks this bound
    for kernel, pairs, start, end, top in _last_two_calls():
        width = end - start
        if pairs:
            width = min(width, (pairs[0] >> kernel.pool[start]).bit_count())
        kernel._last_two(pairs, start, end, top)
        assert kernel.nodes <= width + 1, (kernel.g, kernel.pool, pairs, start, end, top)


def test_masks_search_the_same_in_a_fresh_kernel():
    # pool_mask is set when a kernel is built, not by its first sep: a
    # fresh kernel with a zero one would read every size as exhausted,
    # a false lower bound
    g = make_consecutive(13, 4)
    for pool in (range(1, 13), [0, 2, 3, 5, 8, 9, 11]):
        builder = _Kernel(g, pool)
        pairs = list(builder.pair_masks(_layer_pairs(g)))
        runs = []
        for kernel in (builder, _Kernel(g, pool)):
            found = kernel.hit(pairs, range(2, 6), None)
            runs.append((found, kernel.exhausted, kernel.nodes))
        assert runs[1] == runs[0] and runs[0][0] is not None, pool


def test_stepped_range_pools_hold_only_their_vertices():
    # a range pool of any step masks and searches as the list of its members
    g = make_consecutive(13, 4)
    pairs = [1 << 3 | 1 << 4, 1 << 9 | 1 << 10 | 1 << 12, 1 << 5 | 1 << 6]
    for pool in (range(1, 13, 2), range(0, 13, 3), range(2, 12, 4), range(5, 5)):
        runs = []
        for kernel in (_Kernel(g, pool), _Kernel(g, list(pool))):
            assert kernel.pool_mask == sum(1 << x for x in pool), pool
            runs.append((kernel.hit(pairs, range(4), None), kernel.exhausted))
        assert runs[0] == runs[1], pool
    assert _Kernel(g, range(1, 13, 2)).hit(pairs, range(4), None) == (3, 5, 9)


def test_last_pick_stays_in_the_pool():
    # two picks left, v the second-to-last pool vertex: when v hits every
    # pair the last pick is the top pool vertex; when that vertex misses
    # an unhit mask there is none, never a vertex outside the pool
    g = make_consecutive(13, 4)
    for pool in ([3, 8], [1, 3, 8]):
        def hit(pairs):
            return _Kernel(g, pool).hit(pairs, (len(pool),), None)

        assert hit([1 << 3 | 1 << 10, 1 << 3]) == tuple(pool)
        assert hit([1 << 8 | 1 << 10, 1 << 10]) is None


def test_duplicate_masks_do_not_change_the_search():
    # a repeated mask is unhit exactly when its first copy is, and never
    # joins a packing, so repeats leave the found set, the exhausted sizes
    # and the node count as they are: through hit, which drops them, and
    # through its size loop run on the list with the repeats kept
    def hit(kernel, pairs, sizes):
        return kernel.hit(pairs, sizes, None), kernel.exhausted, kernel.nodes

    def keep_repeats(kernel, pairs, sizes):
        ordered = sorted(pairs, key=int.bit_count)
        for size in sizes:
            kernel.nodes += 1
            found = kernel._descend(ordered, (), size)
            if found is not None:
                return found, kernel.exhausted, kernel.nodes
            kernel.exhausted.append(size)
        return None, kernel.exhausted, kernel.nodes

    rng = random.Random(14)
    cases = []
    for n, t in ((13, 4), (24, 4), (26, 3), (37, 2)):
        g = make_consecutive(n, t)
        uv = _layer_pairs(g)
        cases.append((g, range(1, n), uv, range(n)))
        for _ in range(5):  # pairs inside blocks, over a random allowed set
            pool = sorted(rng.sample(range(n), rng.randint(n // 3, n)))
            kernel = _Kernel(g, pool)
            vertices = rng.sample(range(n), 8)
            uv = [(u, v) for i in (0, 4)
                  for u, v in itertools.combinations(vertices[i:i + 4], 2)
                  if _sep(kernel, u, v)]
            cases.append((g, pool, uv, range(len(pool) + 1)))
    exhausted = 0
    for g, pool, uv, sizes in cases:
        repeats = rng.choices(uv, k=2 * len(uv))
        runs = []
        for search, pairs in ((hit, uv), (hit, uv + repeats),
                              (keep_repeats, uv + repeats)):
            kernel = _Kernel(g, pool)
            runs.append(search(kernel, list(kernel.pair_masks(pairs)), sizes))
        assert runs[1] == runs[0] and runs[2] == runs[0], (g, pool)
        exhausted += len(runs[0][1])
    assert exhausted >= len(cases)


def test_lower_bound_never_exceeds_dimension():
    # the search starts at its lower bound, so the oracle checks the sizes below
    cases = [(n, t) for t in range(2, 7) for n in range(2 * t + 2, min(29, 38 - 3 * t))]
    assert len(cases) == 77
    for n, t in cases:
        g = make_consecutive(n, t)
        lb = exact_dim(g).lower_bound_used
        with pytest.raises(NoBasisWithinError):
            brute_force_dim(g, max_k=lb - 1)


def test_min_resolvers_rejects_vertices_outside_the_graph():
    g = make_consecutive(13, 4)
    with pytest.raises(ValueError, match=r"vertex must lie in \[0, 13\), got 15"):
        min_resolvers(g, [[0, 15]], g.vertices)
    with pytest.raises(ValueError, match=r"vertex must lie in \[0, 13\), got 13"):
        min_resolvers(g, [[2], iter([13])], g.vertices)
    # no set separates a vertex from itself: the pair 3, 3 would read as
    # unresolvable, so a group that repeats a vertex is refused, as a
    # Cluster block that repeats one is; groups read once, iterators too
    with pytest.raises(ValueError, match="a group repeats a vertex"):
        min_resolvers(g, [[0, 1], iter([2, 3, 3])], g.vertices)
    with pytest.raises(ValueError, match=r"vertex must lie in \[0, 13\), got 20"):
        min_resolvers(g, [[0, 1]], [20, 21])
    with pytest.raises(ValueError, match="got -1"):
        min_resolvers(g, [[0, 1]], [-1, 5])
    with pytest.raises(ValueError, match="allowed set must be nonempty"):
        min_resolvers(g, [[0, 1]], [])
    # no search to cap: a capped result would read as a proof of nothing
    with pytest.raises(ValueError, match="max_size must be at least 0, got -1"):
        min_resolvers(g, [[0, 1]], range(13), max_size=-1)
