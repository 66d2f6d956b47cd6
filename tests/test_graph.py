import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circmd.formulas import split
from circmd.graph import CirculantGraph, make_consecutive

from references import diameter_set, distance_bfs, distance_closed_form, dist_row_per_vertex

# (n, t) pairs where the step set stays consecutive after folding
nt_pairs = st.integers(min_value=5, max_value=60).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=1, max_value=min(5, n // 2))))


def test_graph_refuses_t_outside_one_to_half_n():
    for n, t in ((10, 0), (10, 6), (11, 6), (11, -1)):
        with pytest.raises(ValueError, match=rf"max step must lie in \[1, {n // 2}\], got {t}"):
            CirculantGraph(n, t)
    for n in (2, 0, -5):
        with pytest.raises(ValueError, match=f"order must be at least 3, got {n}"):
            CirculantGraph(n, 1)
    assert CirculantGraph(11, 5) == make_consecutive(11, 9)
    # a record: its fields cannot be assigned, and _replace validates too
    g = CirculantGraph(11, 5)
    with pytest.raises(AttributeError):
        g.t = 4
    with pytest.raises(ValueError, match="max step must lie"):
        g._replace(t=0)


def test_make_consecutive_small_n_folds_to_complete():
    g = make_consecutive(6, 4)
    assert g.t == 3
    assert g.diameter == 1
    # an order below 3 is refused by CirculantGraph, after the step check
    for n in (2, 0, -5):
        with pytest.raises(ValueError, match=f"order must be at least 3, got {n}"):
            make_consecutive(n, 4)
    for n in (13, 2):
        with pytest.raises(ValueError, match="max step must be at least 1, got 0"):
            make_consecutive(n, 0)


@given(nt_pairs)
@settings(deadline=None)
def test_closed_form_matches_bfs_row(nt):
    n, t = nt
    g = make_consecutive(n, t)
    for j in range(n):
        assert g.dist(0, j) == distance_bfs(g, 0, j)


@given(nt_pairs, st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=0, max_value=10 ** 6))
@settings(deadline=None)
def test_distance_is_shift_invariant(nt, i, j):
    n, t = nt
    g = make_consecutive(n, t)
    i, j = i % n, j % n
    assert g.dist(i, j) == g.dist(0, (j - i) % n)
    assert g.dist(i, j) == g.dist(j, i)


def test_exact_half_gap_distance():
    # delta = n/2 must not be folded to 0
    g = make_consecutive(16, 4)
    assert g.dist(0, 8) == 2
    assert distance_closed_form(16, 4, 0, 8) == 2


def test_dist_row_equals_the_per_pair_closed_form():
    # the half row and its mirror, entry by entry, on odd and even n and
    # every t up to the complete-graph fringe t = n // 2
    for n in [*range(3, 81), 299, 300, 809]:
        for t in range(1, n // 2 + 1):
            expected = tuple(distance_closed_form(n, t, 0, j) for j in range(n))
            assert tuple(make_consecutive(n, t).dist_row) == expected, (n, t)


def test_dist_row_equals_the_per_vertex_closed_form():
    # the runs of t equal fields laid down by doubling, against ceil(d / t)
    # for each d in turn, on every t <= n // 2 of every order up to 259
    for n in range(3, 260):
        for t in range(1, n // 2 + 1):
            assert tuple(make_consecutive(n, t).dist_row) == dist_row_per_vertex(n, t), (n, t)


def test_sphere_masks_match_the_definition():
    # arc_mask(r) is {y : d(0, y) = r} for every r = 1..D on n <= 60: the
    # closed-form arcs on odd and even n (the antipode) up to the complete
    # graph; and on every order up to 120, the diameter and each plane
    # {y : bit b of d(0, y) is set}, doubled, and so at t = 1..4 on the orders
    # about the doubling's boundaries: plane 0 has (n // 2 - 1) // 2t + 1 runs
    # on 1..n//2, here 2^j - 1, 2^j and 2^j + 1 of them, its last run cut to
    # one bit or whole, at odd and even n
    orders = [(n, t) for n in range(3, 121) for t in range(1, n // 2 + 1)]
    orders += [(2 * half + odd, t) for t in range(1, 5) for runs in (127, 128, 129)
               for half in (1 + (runs - 1) * 2 * t, runs * 2 * t) for odd in (0, 1)]
    for n, t in orders:
        g = make_consecutive(n, t)
        d = [distance_closed_form(n, t, 0, y) for y in g.vertices]
        if n <= 60:
            for r in range(1, max(d) + 1):
                assert g.arc_mask(r) == sum(1 << y for y in g.vertices if d[y] == r), (g, r)
        assert g.diameter == max(d) and len(g.planes) == max(d).bit_length(), g
        for b, plane in enumerate(g.planes):
            m = sum(1 << y for y in g.vertices if d[y] >> b & 1)
            assert plane == m | m << n, (g, b)


def test_planes_of_orders_in_the_millions():
    # C(4,000,007, ±{1..4}) and C(4,000,008, ±{1..4}), diameter 500,001 and
    # 19 planes: each plane's bits y and y + n against the closed form at
    # 0, 1, the antipodes, n - 1, both edges of each plane's first and last
    # run on 1..n//2 and their mirrors n - y, and a seeded random draw
    t, rng = 4, random.Random(4000007)
    for n in (4000007, 4000008):
        g, half = make_consecutive(n, t), n // 2
        assert len(g.planes) == g.diameter.bit_length() == 19, g
        for b, plane in enumerate(g.planes):
            bits = plane.to_bytes((2 * n + 7) // 8, "little")
            run, period = t << b, t << b + 1
            first = run - t + 1
            last = first + (half - first) // period * period
            ys = {0, 1, half, half + 1, n - 1, *rng.sample(range(n), 200)}
            for edge in (first, last):
                for y in (edge - 1, edge, edge + run - 1, edge + run):
                    if 0 <= y <= half:
                        ys |= {y, (n - y) % n}
            for y in ys:
                want = distance_closed_form(n, t, 0, y) >> b & 1
                assert bits[y >> 3] >> (y & 7) & 1 == want, (n, b, y)
                assert bits[y + n >> 3] >> (y + n & 7) & 1 == want, (n, b, y + n)


def test_closed_form_validates_t():
    with pytest.raises(ValueError):
        distance_closed_form(10, 6, 0, 1)
    with pytest.raises(ValueError):
        distance_closed_form(10, 0, 0, 1)
    for i, j in ((0, 10), (-1, 0)):
        with pytest.raises(ValueError, match=r"vertices must lie in \[0, 10\)"):
            distance_closed_form(10, 2, i, j)


def test_distance_row_example():
    g = make_consecutive(13, 4)
    assert [g.dist(0, j) for j in range(13)] == [0, 1, 1, 1, 1, 2, 2, 2, 2, 1, 1, 1, 1]


def test_diameter_is_k_plus_one():
    for n in range(10, 42):
        k, r = split(n, 4)
        assert make_consecutive(n, 4).diameter == k + 1


def test_split_8k_r_covers_residues_2_to_9():
    assert split(13, 4) == (1, 5)
    assert split(16, 4) == (1, 8)
    assert split(17, 4) == (1, 9)
    assert split(18, 4) == (2, 2)
    with pytest.raises(ValueError):
        split(9, 4)


def test_diameter_set_members_at_max_distance():
    g = make_consecutive(13, 4)
    assert diameter_set(g, 0) == frozenset({5, 6, 7, 8})
    for n in range(10, 34):
        g = make_consecutive(n, 4)
        far = diameter_set(g, 0)
        assert far == frozenset(v for v in g.vertices if g.dist(0, v) == g.diameter)


def test_diameter_set_shifts_with_vertex():
    g = make_consecutive(21, 4)
    assert diameter_set(g, 3) == frozenset((v + 3) % 21 for v in diameter_set(g, 0))
    for other in (make_consecutive(21, 3), make_consecutive(21, 5)):
        with pytest.raises(ValueError, match="requires step set"):
            diameter_set(other, 0)


def test_bfs_agrees_on_nonconsecutive_steps():
    g = make_consecutive(12, 5)
    with pytest.raises(ValueError, match=r"vertices must lie in \[0, 12\)"):
        distance_bfs(g, 0, 12)
