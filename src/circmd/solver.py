"""Exact metric dimension by a separator-mask branch-and-prune search.

Two routes are provided and deliberately kept separate:

- The kernel, ``_Kernel``: a set resolves given vertex pairs exactly when
  it hits the separator mask of each, sep(u, v) = {x : d(x, u) != d(x, v)}
  as an n-bit integer, which ``pair_masks`` rotates out of the graph's
  ``separators`` list, filled gap by gap as pairs ask.  Its one entry,
  ``hit``, takes the pairs' masks and a range of sizes and, size by size,
  runs the budget guard and a lexicographic depth-first search over
  subsets of a candidate pool (``_descend``); the first hit set found is
  the least.  A node keeps the masks its picks leave unhit; inner nodes
  are cut by the disjoint-sets bound of hitting-set branch and bound, and
  the last two picks are read off ANDs of the unhit masks in one scan of
  the narrowest or of the first pick's range, whichever is smaller
  (``_last_two``).  ``exact_dim`` and ``find_basis_of_size`` fix vertex 0
  (rotations act transitively): the pool is 1..n-1 and the blocks are the
  spheres around 0, the graph's arcs and mirrors, read only past the first
  budget guard, each interior one cut in two (``_sphere_blocks``).  Both
  also search each rotation class of sets about once (the orbit cut,
  ``_orbit_range``).
  ``min_resolvers`` passes the cluster's blocks and the allowed set as the
  pool; it has no rotation to cut by.

- ``brute_force_dim``: plain lexicographic enumeration of k-subsets
  containing 0, with no other pruning.  It shares no search code with
  the kernel and serves as the independent oracle.

Both routes stop at ``max_k``: ``NoBasisWithinError`` proves dim > max_k.
``BudgetExceededError``, raised only by the budget guard ``_check_budget``,
is a refusal and proves nothing; neither class subclasses the other.
"""

from __future__ import annotations

import itertools
import os
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from math import comb
from operator import sub

from .formulas import known_bounds
from .graph import CirculantGraph, check_vertices
from .resolve import Cluster, is_resolving

DEFAULT_BUDGET = 20_000_000


def default_budget() -> int:
    """Per-level candidate budget: ``CIRCMD_BUDGET`` when set, else
    ``DEFAULT_BUDGET``.  Read on every call, so a malformed or negative
    value fails the search that needs it, not the import."""
    raw = os.environ.get("CIRCMD_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        raise ValueError(f"CIRCMD_BUDGET must be an integer, got {raw!r}") from None
    if budget < 0:
        raise ValueError(f"CIRCMD_BUDGET must be at least 0, got {budget}")
    return budget


class BudgetExceededError(RuntimeError):
    """Raised when a search would enumerate more candidates than allowed."""


class NoBasisWithinError(LookupError):
    """No set of size <= ``max_k`` resolves: each size was exhausted or is below a lower bound."""


class DimResult(namedtuple("DimResult", "dim basis method nodes_explored lower_bound_used "
                                        "exhausted_sizes", defaults=(0, 1, ()))):
    """``method`` is "search" | "oracle".  Search counts a node per size tried,
    per pick tried above the last two, per AND pass that reads off the last
    two, and per hit.  ==, != and hash ignore that effort and the exhausted sizes."""

    __slots__ = ()
    _key = property(lambda r: r[:3] + r[4:5])  # dim, basis, method, lower_bound_used
    __ne__ = object.__ne__  # the inverse of __eq__; tuple's compares every field

    def __eq__(self, other):
        return self._key == other._key if type(other) is DimResult else NotImplemented

    def __hash__(self):
        return hash(self._key)


def _search_lower_bound(g: CirculantGraph) -> int:
    """The larger of ``known_bounds``' lower bound, where it applies, and
    the least k with (diameter + 1)^k >= n: k landmarks admit at most
    (diameter + 1)^k distinct representations."""
    base = g.diameter + 1
    k, reach = 1, base
    while reach < g.n:
        k += 1
        reach *= base
    bounds = known_bounds(g.n, g.t)
    return k if bounds is None else max(k, bounds.lower)


class _Kernel:
    """Search state only: the depth-first search over subsets of the
    sorted candidate ``pool`` in ascending lexicographic order, on the
    masks of its graph's ``separators`` entries cut to the pool.  Bit x
    stands for vertex x."""

    def __init__(self, g: CirculantGraph, pool: Sequence[int], orbit: bool = False):
        self.g = g
        self.n = g.n
        self.pool = pool
        # not lazy: another kernel's masks for this graph and pool search the same;
        # a range has its own branch, as the mask of range(1, n), which every
        # witness search passes, takes two shifts, a sorted list one per vertex
        self.pool_mask = ((1 << pool.stop) - (1 << pool.start)
                          if isinstance(pool, range) and pool.step == 1 and pool
                          else sum(1 << x for x in pool))
        self.nodes = 0
        self.exhausted: list[int] = []
        # the orbit cut; it reads pool[i] as vertex i + 1, so it needs the
        # pool range(1, n) and the pairs inside the spheres around 0
        self.orbit = orbit

    def pair_masks(self, blocks: Iterable[Sequence[int]]) -> Iterator[int]:
        """For each pair u, v inside each block, the pool vertices x with
        d(x, u) != d(x, v): the graph's ``separators`` entry of delta = v - u
        (``separator(delta)`` while it is None) rotated by u, one shift of
        the doubled mask, cut by ``pool_mask``.  As sep(u, v) = sep(v, u),
        a delta past n // 2 is read as the pair v, u, of gap n - delta.
        Lazy: a search the budget guard refuses builds no mask."""
        g, n, pool_mask = self.g, self.n, self.pool_mask
        table, half = g.separators, n // 2
        for block in blocks:
            for u, v in itertools.combinations(block, 2):
                delta = (v - u) % n
                if delta > half:
                    u, delta = v, n - delta
                yield ((table[delta] or g.separator(delta)) >> (n - u)) & pool_mask

    def hit(self, pairs: Iterable[int], sizes: Iterable[int],
            budget: int | None) -> tuple[int, ...] | None:
        """Least pool subset that hits every mask in ``pairs``, of the
        first size in ``sizes`` that has one, or None.  Sizes found empty
        go to ``exhausted``.  Each size passes the budget guard before it
        is searched, and ``pairs`` is read only after the first one has,
        then rid of repeats and sorted narrowest first for the packing cut.
        A repeat changes no answer and no node count: it is unhit exactly
        when its first copy is, and the packing reaches that copy first and
        either stops there (it is empty above the last pick) or leaves it
        in ``used`` (taken, or skipped for meeting it), which the repeat
        then meets.  With ``orbit`` set, inner picks keep to
        ``_orbit_range``."""
        ordered: list[int] | None = None
        for size in sizes:
            if budget is None:  # read once, at the first size
                budget = default_budget()
            _check_budget(len(self.pool), size, budget)
            if ordered is None:
                ordered = sorted(dict.fromkeys(pairs), key=int.bit_count)
            self.nodes += 1
            found = self._descend(ordered, (), size)
            if found is not None:
                return found
            self.exhausted.append(size)
        return None

    def _orbit_range(self, chosen: tuple[int, ...], remaining: int
                     ) -> tuple[int, int]:
        """Least and greatest next pick v after ``chosen``, ``remaining``
        picks still to place, that keep the gaps of {0} + chosen + (v,) a
        prenecklace: no gap below the first (v <= n - remaining * g1, or
        v <= n // (remaining + 1) at the root), and each gap at least the
        one p places back, p the period of the gaps so far.  Read a set
        0 < c1 < ... < cj as its cyclic gaps (c1, c2 - c1, ..., n - cj):
        set order is gap order, and turning the set to another member
        containing 0 rotates the gaps.  So the gaps of the least resolving
        set are their own least rotation (a necklace) and each prefix of
        them is a prenecklace: the search still finds the least set first,
        and a size it exhausts has no resolving set at all."""
        if not chosen:
            return 1, self.n // (remaining + 1)
        gaps = list(map(sub, chosen, (0,) + chosen))
        p = 1
        for i in range(1, len(gaps)):
            if gaps[i] > gaps[i - p]:
                p = i + 1
        return chosen[-1] + gaps[-p], self.n - remaining * gaps[0]

    def _descend(self, pairs: list[int], chosen: tuple[int, ...],
                 remaining: int, start: int = 0) -> tuple[int, ...] | None:
        """Extend ``chosen`` by ``remaining`` vertices from ``pool[start:]``;
        ``pairs`` holds the separator masks of the pairs still colliding,
        narrowest first.  Pick v is cut by the packing: the unhit masks,
        narrowest first, pairwise disjoint above v.  It scans ``pairs`` in
        place past the masks v hits, the order ``kept`` has, so ``kept`` is
        built only for an uncut v.  The last two picks skip the packing for
        ``_last_two``, which reads them off ANDs of the unhit masks: the
        packing cuts only for an unhit mask empty above v or two disjoint
        there, and then no pair of picks hits them all either."""
        if remaining == 0:
            return None if pairs else chosen
        if remaining == 1:  # only a size-1 search starts here
            mask = self.pool_mask
            for m in pairs:
                mask &= m
                if not mask:
                    return None
            self.nodes += 1
            return chosen + ((mask & -mask).bit_length() - 1,)
        pool = self.pool
        # leave room for the remaining - 1 vertices above the next pick
        end = len(pool) - remaining + 1
        if self.orbit:  # pool[i] is vertex i + 1
            low, high = self._orbit_range(chosen, remaining)
            start, end = max(start, low - 1), min(end, high)
        if remaining == 2:
            found = self._last_two(pairs, start, end)
            return None if found is None else chosen + found
        for i, v in enumerate(pool[start:end], start):
            self.nodes += 1
            bit = 1 << v
            # cut if a pair has no separator above v, or if `remaining` pairs
            # have disjoint ones: the remaining - 1 later picks hit one each
            need, used = remaining, 0
            for m in pairs:
                if m & bit:
                    continue
                m >>= v + 1
                if not m & used:
                    need = need - 1 if m else 0
                    if not need:
                        break
                    used |= m
            else:
                kept = [m for m in pairs if not m & bit]
                found = self._descend(kept, chosen + (v,), remaining - 1, i + 1)
                if found is not None:
                    return found
        return None

    def _last_two(self, pairs: list[int], start: int, end: int
                  ) -> tuple[int, int] | None:
        """Least v of ``pool[start:end]``, then least pool vertex w > v,
        such that {v, w} hits every mask of ``pairs``, or None.  One pick
        lies in each unhit mask, so the scan set is the first (narrowest)
        one cut to the pool from pool[start] up, or the v range when that
        is no smaller.  Each scanned w, rising, gets one AND pass over that
        pool less the vertices scanned before w: the partners that complete
        w.  The valid v are the partners below some w and the w with a
        partner above them.  Leaving a scanned u < w out of w's pass loses
        nothing: had u completed w, w lay in u's pass, so u was valid then
        or a valid v below u was known.  On the v range each pass is thus
        the pool above v, and the first valid v ends the scan.  The pass
        that finds the least v also holds its least partner: w when v < w
        (v was not scanned, or its own pass would have found it, so each
        partner of v is, and one below w would have found v first), else
        the least partner above w (no v was known, so w's pass held the
        whole pool above w).  A pass counts a node, and so does a hit."""
        if start >= end:
            return None
        pool, pool_mask = self.pool, self.pool_mask
        above = pool_mask & -(1 << pool[start])
        allowed = above & ((2 << pool[end - 1]) - 1)
        narrow = pairs[0] & above if pairs else allowed
        scan = narrow if narrow.bit_count() < allowed.bit_count() else allowed
        least, mate, free = 0, 0, above  # free: the pool from pool[start] up, unscanned
        while scan:
            w = scan & -scan
            scan ^= w
            # w ascends, so once a v is valid a later w can better it only
            # by a partner below it
            a = free & (least - 1)
            if not a:
                break
            free ^= w
            for m in pairs:
                if not m & w:
                    a &= m
                    if not a:
                        break
            valid = (a & (w - 1) | (w if a >= w << 1 else 0)) & allowed
            if valid:
                least = valid & -valid
                mate = w if least < w else a & -(w << 1)
        self.nodes += (above ^ free).bit_count()  # each pass took its w from free
        if not least:
            return None
        self.nodes += 1
        return least.bit_length() - 1, (mate & -mate).bit_length() - 1


def _check_budget(size: int, picks: int, budget: int) -> None:
    """Refuse a level that would enumerate more than ``budget`` choices of
    ``picks`` vertices out of ``size``."""
    if comb(size, picks) > budget:
        raise BudgetExceededError(
            f"C({size}, {picks}) candidates exceed budget {budget}")


def _sphere_blocks(g: CirculantGraph) -> Iterator[Sequence[int]]:
    """The spheres around 0, read at the first block asked for: {0}, then
    sphere d = 1..D, D the diameter, as its ``arc`` and the mirror above it
    (an antipode n / 2 once), cut in two for 3 <= d <= D - 2, else whole.
    That drops only repeats: while both arcs between u and v span t or more, x
    on one of them, p from u and L - p from v along it, has d(x, u) = d(x, v)
    exactly when ceil(p / t) = ceil((L - p) / t) (a route through the far end
    is a hop longer).  Moving a cross pair (a, -b) t toward 0 takes the arc
    through 0 from a + b >= 4t + 2 down 2t and the other from n - a - b >=
    2t + 2 (as n // 2 > t(d + 1)) up 2t: p moves by t on each, both ceilings
    with it, and the t vertices at each end that change arcs tie neither pair
    (ceilings <= 1 and >= 2).  So (a, -b) has the mask of (a - t, -(b - t)) in
    sphere d - 1, and in the end of a pair in sphere 1 or 2, kept whole.  No
    pair left spans over 4t (under t in an arc, a + b <= 4t in spheres 1 and
    2, and n - a - b <= 4t in spheres D - 1 and D), so a witness search fills
    at most the 4t + 1 ``separators`` entries 0..4t."""
    n, t, top = g.n, g.t, g.diameter
    yield [0]
    for d in range(1, top + 1):
        if d == 3:  # spheres 3..D - 2 fill 2t+1..t(D-2) < n // 2, t vertices each
            for lo in range(2 * t + 1, t * (top - 2) + 1, t):
                yield range(lo, lo + t)
                yield range(n + 1 - lo - t, n + 1 - lo)
        if not 3 <= d <= top - 2:
            arc = g.arc(d)
            yield [*arc, *range(max(n - arc[-1], arc.stop), n + 1 - arc.start)]


def _basis_with_zero(g: CirculantGraph, picks: Iterable[int],
                     budget: int | None
                     ) -> tuple[_Kernel, tuple[int, ...] | None]:
    """The kernel on the pool range(1, n) and the pairs {0} leaves
    colliding, with the orbit cut, and 0 plus its least hit set: the least
    resolving set containing 0 of 1 + p vertices, p the first of ``picks``
    that has one."""
    kernel = _Kernel(g, range(1, g.n), orbit=True)
    found = kernel.hit(kernel.pair_masks(_sphere_blocks(g)), picks, budget)
    return kernel, None if found is None else (0,) + found


def exact_dim(g: CirculantGraph, max_k: int | None = None,
              budget: int | None = None) -> DimResult:
    """Exact metric dimension with a witness basis.

    Deepens k from the best available lower bound up to ``max_k`` (None:
    n); within each k the enumeration is ascending lexicographic, so the
    returned basis is the least resolving set containing 0.
    """
    if max_k is not None and max_k < 1:
        raise ValueError("max_k must be at least 1")
    lb = _search_lower_bound(g)
    kernel, basis = _basis_with_zero(g, range(lb - 1, max_k or g.n), budget)
    if basis is None:
        raise NoBasisWithinError(f"no resolving set of size <= {max_k} found for {g}")
    return DimResult(dim=len(basis), basis=basis, method="search",
                     nodes_explored=kernel.nodes, lower_bound_used=lb,
                     exhausted_sizes=tuple(p + 1 for p in kernel.exhausted))


def find_basis_of_size(g: CirculantGraph, k: int,
                       budget: int | None = None) -> tuple[int, ...] | None:
    """Least resolving k-set containing 0, or None if none exists.

    Skips the iterative deepening of ``exact_dim``; useful when the
    dimension is already known and only a witness is wanted.
    """
    if k < 1:
        raise ValueError("basis size must be at least 1")
    return _basis_with_zero(g, (k - 1,), budget)[1]


def brute_force_dim(g: CirculantGraph, max_k: int | None = None,
                    budget: int | None = None) -> DimResult:
    """Independent oracle: lexicographic sweep of all k-subsets containing 0,
    k = 1..``max_k`` (None: n).  Fixing 0 is the only reduction used (valid
    by vertex-transitivity).  Refuses any level of more than ``budget`` subsets;
    None reads ``default_budget()`` once."""
    if max_k is not None and max_k < 1:
        raise ValueError("max_k must be at least 1")
    budget = default_budget() if budget is None else budget
    nodes = 0
    exhausted = []
    for k in range(1, (max_k or g.n) + 1):
        _check_budget(g.n - 1, k - 1, budget)
        for rest in itertools.combinations(range(1, g.n), k - 1):
            nodes += 1
            if is_resolving(g, (0,) + rest) is None:
                return DimResult(dim=k, basis=(0,) + rest, method="oracle",
                                 nodes_explored=nodes, lower_bound_used=1,
                                 exhausted_sizes=tuple(exhausted))
        exhausted.append(k)
    raise NoBasisWithinError(f"no resolving set of size <= {max_k} found for {g}")


# size and witness None: even the full allowed set fails, or, with capped,
# the search stopped at max_size
MinResolversResult = namedtuple("MinResolversResult", "size witness capped", defaults=(False,))


def min_resolvers(g: CirculantGraph, cluster: Cluster, allowed: Iterable[int],
                  max_size: int | None = None,
                  budget: int | None = None) -> MinResolversResult:
    """Smallest X inside ``allowed`` that resolves every block internally.

    Searches ascending sizes, so the reported size is exact.  With
    ``max_size`` set the search stops early and reports ``capped=True``
    when no witness of at most that size exists (useful for verifying
    lower-bound claims without computing the true minimum).  Every vertex
    of ``allowed`` and of the cluster must lie in [0, n).  The budget
    (None: ``default_budget()``, read once by ``hit``) refuses only a size
    about to be searched; a cluster with a pair that no vertex of
    ``allowed`` separates is answered from its masks at any budget.
    """
    if max_size is not None and max_size < 0:
        raise ValueError(f"max_size must be at least 0, got {max_size}")
    pool = sorted(set(allowed))
    if not pool:
        raise ValueError("allowed set must be nonempty")
    check_vertices(g, (pool[0], pool[-1], *cluster.vertices))
    limit = len(pool) if max_size is None else min(max_size, len(pool))
    kernel = _Kernel(g, pool)
    pairs = list(kernel.pair_masks(cluster.blocks))
    if not all(pairs):
        return MinResolversResult(size=None, witness=None)
    witness = kernel.hit(pairs, range(limit + 1), budget)
    if witness is None:
        return MinResolversResult(size=None, witness=None, capped=True)
    return MinResolversResult(size=len(witness), witness=witness)
