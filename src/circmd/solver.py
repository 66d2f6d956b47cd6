"""Exact metric dimension by a separator-mask branch-and-prune search.

Two routes are provided and deliberately kept separate:

- The kernel, ``_Kernel``: a set resolves given vertex pairs exactly when
  it hits the separator mask of each, sep(u, v) = {x : d(x, u) != d(x, v)}
  as an n-bit integer, which ``sep`` rotates out of its graph's one mask
  table, ``_separators``.  Its one entry, ``hit``, takes the pairs' masks
  and a range of sizes and, size by size, runs the budget guard and a
  lexicographic depth-first search over subsets of a candidate pool
  (``_descend``); the first hit set found is the least.  A node keeps the
  masks its picks leave unhit; inner nodes are cut by the disjoint-sets
  bound of hitting-set branch and bound, and the last two picks are read
  off ANDs of the unhit masks in one scan of the narrowest or of the first
  pick's range, whichever is smaller (``_last_two``).  ``exact_dim`` and
  ``find_basis_of_size`` fix vertex 0 (rotations act transitively): the
  pool is 1..n-1 and the pairs are those on one sphere around 0.  Both
  also search each rotation class of sets about once (the orbit cut,
  ``_orbit_range``).  ``min_resolvers`` passes the pairs inside each block
  and the allowed set as the pool; it has no rotation to cut by.

- ``brute_force_dim``: plain lexicographic enumeration of k-subsets
  containing 0, with no other pruning.  It shares no search code with
  the kernel and serves as the independent oracle.

Both routes stop at ``max_k``: exhausting every size up to it raises
``NoBasisWithinError``, a proof that dim > max_k; a plain
``BudgetExceededError`` is the budget guard's refusal and proves nothing.
"""

from __future__ import annotations

import functools
import itertools
import os
from dataclasses import dataclass, field
from math import comb
from operator import sub
from typing import Iterable, Iterator, Optional, Sequence

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


class NoBasisWithinError(BudgetExceededError):
    """Raised when every size up to ``max_k`` was searched and none resolves."""


@dataclass(frozen=True)
class DimResult:
    dim: int
    basis: tuple[int, ...]
    method: str  # "search" | "oracle"
    # search: one per size tried, per pick tried above the last two, per
    # AND pass that reads off the last two, and per hit
    nodes_explored: int = field(compare=False, default=0)
    lower_bound_used: int = 1
    exhausted_sizes: tuple[int, ...] = field(compare=False, default=())


def _counting_lower_bound(g: CirculantGraph) -> int:
    """Least k with (diameter + 1)^k >= n: k landmarks admit at most
    (diameter + 1)^k distinct representations."""
    base = g.diameter + 1
    k, reach = 1, base
    while reach < g.n:
        k += 1
        reach *= base
    return k


def _search_lower_bound(g: CirculantGraph) -> int:
    lb = _counting_lower_bound(g)
    if g.is_consecutive and g.n >= 2 * g.t + 2 and g.t >= 2:
        lb = max(lb, known_bounds(g.n, g.t).lower)
    return lb


@functools.lru_cache(maxsize=1)
def _separators(g: CirculantGraph) -> tuple[list[list[int]], list[int]]:
    """The vertices of ``g`` by distance from 0, and per shift delta <=
    n // 2 the doubled mask m | m << n of m = sep(0, delta), the y with
    d(0, y) != d(0, y - delta).  Plane b holds the y whose d(0, y) has bit
    b set; the two distances differ exactly when some plane differs at y,
    so m = OR over planes P of P ^ rot(P, delta), one shift of P doubled.
    Built whole from one walk of the distance row and kept for the last
    graph asked for, so every kernel on one graph shares it."""
    n = g.n
    spheres: list[list[int]] = [[] for _ in range(g.diameter + 1)]
    for y, d in enumerate(g.dist_row):
        spheres[d].append(y)
    planes = [0] * g.diameter.bit_length()
    for d, sphere in enumerate(spheres):
        bits, b = sum(1 << y for y in sphere), 0
        while d:  # sphere d joins the planes of the set bits of d
            if d & 1:
                planes[b] |= bits
            d, b = d >> 1, b + 1
    doubled = [(plane, plane | plane << n) for plane in planes]
    full, table = (1 << n) - 1, []
    for delta in range(n // 2 + 1):
        mask = 0
        for plane, twice in doubled:
            mask |= plane ^ (twice >> (n - delta))
        mask &= full
        table.append(mask | mask << n)
    return spheres, table


class _Kernel:
    """Search state only: the depth-first search over subsets of the
    sorted candidate ``pool`` in ascending lexicographic order, and the
    separator masks of its graph's ``_separators`` table cut to the pool.
    Bit x stands for vertex x."""

    def __init__(self, g: CirculantGraph, pool: Sequence[int], orbit: bool = False):
        self.g = g
        self.n = g.n
        self.pool = pool
        # not lazy: another kernel's masks for this graph and pool search the same
        self.pool_mask = ((1 << pool.stop) - (1 << pool.start)
                          if isinstance(pool, range) and pool.step == 1 and pool
                          else sum(1 << x for x in pool))
        # fetched by the first sep: a search the budget guard refuses builds no table
        self.table: Optional[list[int]] = None
        self.nodes = 0
        self.exhausted: list[int] = []
        # the orbit cut; it reads pool[i] as vertex i + 1, so it needs the
        # pool range(1, n) and the sphere pairs around 0
        self.orbit = orbit

    def sep(self, u: int, v: int) -> int:
        """Mask of the pool vertices x with d(x, u) != d(x, v): the mask m of
        delta = v - u, rotated by u around Z_n (bit y moves to bit y + u),
        one shift of the stored m | m << n, cut by ``pool_mask`` (the pool
        lies in [0, n)).  As sep(u, v) = sep(v, u), a delta past n // 2 is
        read as sep(v, u), whose delta n - delta is not: the table holds
        deltas 0..n // 2 only."""
        table = self.table
        if table is None:
            table = self.table = _separators(self.g)[1]
        n = self.n
        delta = (v - u) % n
        if delta > n // 2:
            u, delta = v, n - delta
        return (table[delta] >> (n - u)) & self.pool_mask

    def sphere_pairs(self) -> Iterator[int]:
        """Masks of the pairs on one sphere around vertex 0, the pairs {0}
        leaves colliding; lazy, so a refused search builds no table."""
        for s in _separators(self.g)[0]:
            for u, v in itertools.combinations(s, 2):
                yield self.sep(u, v)

    def hit(self, pairs: Iterable[int], sizes: Iterable[int],
            budget: Optional[int]) -> Optional[tuple[int, ...]]:
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
        ordered: Optional[list[int]] = None
        for size in sizes:
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
                 remaining: int, start: int = 0) -> Optional[tuple[int, ...]]:
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
                  ) -> Optional[tuple[int, int]]:
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


def _check_budget(size: int, picks: int, budget: Optional[int]) -> None:
    """Refuse a level that would enumerate more than ``budget`` (None:
    ``default_budget()``) choices of ``picks`` vertices out of ``size``."""
    if budget is None:
        budget = default_budget()
    if comb(size, picks) > budget:
        raise BudgetExceededError(
            f"C({size}, {picks}) candidates exceed budget {budget}")


def _basis_with_zero(g: CirculantGraph, picks: Iterable[int],
                     budget: Optional[int]
                     ) -> tuple[_Kernel, Optional[tuple[int, ...]]]:
    """The kernel on the pool range(1, n) and the pairs {0} leaves
    colliding, with the orbit cut, and 0 plus its least hit set: the least
    resolving set containing 0 of 1 + p vertices, p the first of ``picks``
    that has one."""
    kernel = _Kernel(g, range(1, g.n), orbit=True)
    found = kernel.hit(kernel.sphere_pairs(), picks, budget)
    return kernel, None if found is None else (0,) + found


def exact_dim(g: CirculantGraph, max_k: Optional[int] = None,
              budget: Optional[int] = None) -> DimResult:
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
                       budget: Optional[int] = None) -> Optional[tuple[int, ...]]:
    """Least resolving k-set containing 0, or None if none exists.

    Skips the iterative deepening of ``exact_dim``; useful when the
    dimension is already known and only a witness is wanted.
    """
    if k < 1:
        raise ValueError("basis size must be at least 1")
    return _basis_with_zero(g, (k - 1,), budget)[1]


def brute_force_dim(g: CirculantGraph, max_k: Optional[int] = None,
                    budget: Optional[int] = None) -> DimResult:
    """Independent oracle: lexicographic sweep of all k-subsets containing 0,
    k = 1..``max_k`` (None: n).  Fixing 0 is the only reduction used (valid
    by vertex-transitivity).  Refuses any level of more than ``budget`` subsets.
    """
    if max_k is not None and max_k < 1:
        raise ValueError("max_k must be at least 1")
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


@dataclass(frozen=True)
class MinResolversResult:
    size: Optional[int]  # None when even the full allowed set fails
    witness: Optional[tuple[int, ...]]
    capped: bool = False  # True when the search stopped at max_size


def min_resolvers(g: CirculantGraph, cluster: Cluster, allowed: Iterable[int],
                  max_size: Optional[int] = None,
                  budget: Optional[int] = None) -> MinResolversResult:
    """Smallest X inside ``allowed`` that resolves every block internally.

    Searches ascending sizes, so the reported size is exact.  With
    ``max_size`` set the search stops early and reports ``capped=True``
    when no witness of at most that size exists (useful for verifying
    lower-bound claims without computing the true minimum).  Every vertex
    of ``allowed`` and of the cluster must lie in [0, n); a first call on
    a graph that passes the budget guard builds all n // 2 + 1 masks of
    its separator table.
    """
    pool = sorted(set(allowed))
    if not pool:
        raise ValueError("allowed set must be nonempty")
    check_vertices(g, (pool[0], pool[-1], *cluster.vertices))
    _check_budget(len(pool), 0, budget)  # hit's first guard, before any mask
    kernel = _Kernel(g, pool)
    pairs = [kernel.sep(u, v) for block in cluster.blocks
             for u, v in itertools.combinations(block, 2)]
    if not all(pairs):
        return MinResolversResult(size=None, witness=None)
    limit = len(pool) if max_size is None else min(max_size, len(pool))
    witness = kernel.hit(pairs, range(limit + 1), budget)
    if witness is None:
        return MinResolversResult(size=None, witness=None, capped=True)
    return MinResolversResult(size=len(witness), witness=witness)
