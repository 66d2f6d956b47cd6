"""Machine-checkable registry of the lower-bound lemma battery.

The cluster and basis-gap claims are about t = 4, C(n, +-{1..4}); the two
dim-lower theorems are swept over t = 2..5.  Each cluster entry encodes
one combinatorial claim of the form "any set X that simultaneously
resolves this family of blocks has at least c elements"; the two
theorems are direct lower bounds on the metric dimension.  The claims are
validated empirically: for every admissible order n = 8k + r and every
instance, an exhaustive ascending search confirms that no smaller
resolving set exists.

A cluster claim's one template callable, ``instances(n, k)``, yields each
instance as (parameters besides the anchor, blocks at anchor 0, excluded
offsets); ``check_lemma`` probes each at every anchor in ``ANCHOR_PROBES``
and ``instantiate`` shifts it there.  Only an instance whose offsets collide
mod n (small-n wraparound) builds a ``Cluster``, whose refusal is reported as
degenerate, not silently skipped.  A claim with two or more blocks presumes
a cluster: it is reported vacuous, not failing, when no landmark set of at
most 3 vertices induces one, a set the kernel searches for.

``_graph`` builds each C(n, +-{1..t}) once per process, and every check
reads that one graph, its lazily filled masks included; ``check_lemma``
reads the search budget once and hands it to every search it makes.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from typing import Iterable, Optional, Sequence

from .formulas import known_bounds, split
from .graph import CirculantGraph, make_consecutive
from .resolve import Cluster, equivalence_classes
from .solver import (
    NoBasisWithinError, brute_force_dim, default_budget, find_basis_of_size, min_resolvers)

# anchors at which check_lemma instantiates each template, written at 0;
# shift covariance is a tested invariant elsewhere, these just re-probe it
ANCHOR_PROBES = (0, 1)

Blocks = list[list[int]]


# kind: "cluster" | "basis-gap" | "dim-lower"; instances, the cluster template:
# (n, k) -> each instance at n = 8k + r as (params, blocks, excluded offsets)
LemmaDescriptor = namedtuple("LemmaDescriptor", "id kind claim claimed_min residues instances",
                             defaults=(None, (), None))
# params: (name, value) pairs; status: "pass" | "fail" | "degenerate" | "vacuous"
InstantiationResult = namedtuple("InstantiationResult", "descriptor_id n params status detail",
                                 defaults=("",))


class LemmaReport(namedtuple("LemmaReport", "descriptor_id results")):
    __slots__ = ()

    @property
    def failed(self) -> tuple[InstantiationResult, ...]:
        return tuple(r for r in self.results if r.status == "fail")


@functools.lru_cache(maxsize=None)
def _graph(n: int, t: int) -> CirculantGraph:
    """C(n, +-{1..t}), built once per (n, t) in a process: every check, of
    any descriptor, reads the one graph and the lazy entries it has filled,
    which are safe to share.  The cluster claims and ``window_tightness``
    read t = 4, the dim-lower sweeps t = 2..5.  The cache grows with the
    orders read; ``_graph.cache_clear()`` frees it."""
    return make_consecutive(n, t)


def instantiate(n: int, a: int, blocks: Blocks, excluded: Iterable[int] = ()
                ) -> tuple[CirculantGraph, Blocks, Sequence[int]]:
    """Concrete (graph, blocks as lists, allowed vertices: ``g.vertices``, or
    a sorted list if any are excluded) in C(n, +-{1..4}): a template shifted
    to the anchor ``a``.  Only offsets that collide mod n, found by a union
    against the summed sizes, or an empty block build ``Cluster``, to raise."""
    g, shifted = _graph(n, 4), [[(a + x) % n for x in b] for b in blocks]
    if not shifted or [] in shifted or len(set().union(*shifted)) < sum(map(len, shifted)):
        Cluster(shifted)  # raises ValueError: no block, an empty one, a repeat, an overlap
    out = {(a + x) % n for x in excluded}
    return g, shifted, [v for v in g.vertices if v not in out] if out else g.vertices


def _find_inducing_set(g: CirculantGraph, blocks: Blocks, budget: Optional[int] = None
                       ) -> Optional[tuple[int, ...]]:
    """Least landmark set of at most 3 vertices under which the two or more
    disjoint ``blocks`` form distinct representation classes, or None.

    Its members lie outside the blocks, each equidistant from every member
    of each block; from those the kernel picks the least set that resolves
    one member of each block, under ``budget`` (None: ``default_budget()``).
    """
    inside = set().union(*blocks)
    pool = [x for x in g.vertices if x not in inside
            and all(len({g.dist(x, v) for v in b}) == 1 for b in blocks)]
    return (min_resolvers(g, [map(min, blocks)], pool, max_size=3, budget=budget).witness
            if pool else None)


def _check_cluster_instantiation(d: LemmaDescriptor, n: int, a: int, params: dict,
                                 blocks: Blocks, excluded: Iterable[int],
                                 budget: Optional[int] = None) -> InstantiationResult:
    key = tuple(sorted({"a": a, **params}.items()))
    try:
        g, blocks, allowed = instantiate(n, a, blocks, excluded)
    except ValueError as exc:  # offsets collide mod n
        return InstantiationResult(d.id, n, key, "degenerate", f"{d.id}: {exc}")
    required = params.get("min_required", d.claimed_min)
    result = min_resolvers(g, blocks, allowed, max_size=required - 1, budget=budget)
    if result.size is None:  # capped, or even the whole allowed set fails
        return InstantiationResult(d.id, n, key, "pass", "" if result.capped
                                   else "unresolvable within the allowed set")
    # a too-small witness exists; the claim only fails if its hypothesis
    # (an inducing landmark set) can actually be met
    if len(blocks) > 1 and _find_inducing_set(g, blocks, budget) is None:
        return InstantiationResult(
            d.id, n, key, "vacuous",
            f"witness {result.witness} of size {result.size}, but no inducing "
            f"landmark set of size <= 3 exists")
    return InstantiationResult(
        d.id, n, key, "fail",
        f"{result.witness} resolves the cluster with {result.size} < {required}")


def _gap_witness(g: CirculantGraph, gap: int, size: int, budget: Optional[int] = None
                 ) -> Optional[tuple[int, ...]]:
    """At most size - 2 more vertices that make {0, gap} a resolving set, or None."""
    others = [*range(1, gap), *range(gap + 1, g.n)]
    return min_resolvers(g, equivalence_classes(g, (0, gap)), others,
                         max_size=size - 2, budget=budget).witness


def _check_basis_gap(d: LemmaDescriptor, n: int, r: int, budget: int) -> InstantiationResult:
    """Every resolving s-set, s = ``d.claimed_min``, of C(n, +-{1..4}), n =
    8k + r, must have pairwise circular gaps >= r - s.

    A rotation takes a resolving s-set with a pair ``gap`` apart to one
    containing 0 and gap, so one search per small gap decides the claim.
    Where no s-set resolves the claim is vacuous.  For ``min-dist-789``
    that is every order the k = 1..3 battery checks (dim = 6 there, so
    no 5-set resolves): the battery never reaches the gap search.
    """
    g = _graph(n, 4)
    size = d.claimed_min
    if find_basis_of_size(g, size, budget) is None:
        return InstantiationResult(d.id, n, (), "vacuous",
                                   f"no resolving set of size {size} exists")
    min_gap = r - size
    for gap in range(1, min_gap):
        witness = _gap_witness(g, gap, size, budget)
        if witness is not None:
            B = tuple(sorted((0, gap) + witness))
            return InstantiationResult(
                d.id, n, (), "fail",
                f"resolving set {B} has gap {gap} < {min_gap}")
    return InstantiationResult(d.id, n, (), "pass")


_DIM_LOWER_N_CAP = 28  # keeps the brute-force oracle sweep at desk scale


def _check_dim_lower(d: LemmaDescriptor, k_range: Iterable[int], budget: int
                     ) -> list[InstantiationResult]:
    if d.id not in ("thm-general-t", "thm-vetrik-lb"):
        raise ValueError(f"no dim-lower check for {d.id!r}: only "
                         "'thm-general-t' and 'thm-vetrik-lb' are known")
    k_max, stop = max(k_range), _DIM_LOWER_N_CAP + 1
    results = []
    for t in (2, 3, 4, 5):
        low = 2 * t + 2
        if d.id == "thm-general-t":
            cases = [(n, t) for n in range(low, min(low + 2 * k_max + 1, stop))]
        else:  # thm-vetrik-lb: the orders up to k = k_max where known_bounds,
            # and so exact_dim, takes dim >= t + 1; the sweep checks that rule
            cases = [(n, t + 1) for n in range(low, min(low + 2 * t * k_max, stop))
                     if "lb-residue" in known_bounds(n, t).provenance]
        for n, bound in cases:
            key = (("n", n), ("t", t))
            try:  # a superset of a resolving set resolves: sizes < bound decide
                dim = brute_force_dim(_graph(n, t), max_k=bound - 1, budget=budget).dim
            except NoBasisWithinError:
                results.append(InstantiationResult(d.id, n, key, "pass"))
            else:
                results.append(InstantiationResult(
                    d.id, n, key, "fail", f"dim {dim} < {bound}"))
    return results


def check_lemma(d: LemmaDescriptor, k_range: Iterable[int] = (1, 2, 3),
                budget: Optional[int] = None) -> LemmaReport:
    """Validate one descriptor at the orders of each k in ``k_range``; a dim-lower
    one checks every order up to max(k_range), so (3,) reads as (1, 2, 3).  Every
    search runs under ``budget``; None reads ``default_budget()`` once."""
    k_range = sorted(set(k_range))
    if not k_range:
        raise ValueError("k_range must be nonempty")
    if any(k < 1 for k in k_range):
        raise ValueError("k values must be at least 1")
    if d.kind not in ("cluster", "basis-gap", "dim-lower"):
        raise ValueError(f"descriptor {d.id!r} has unknown kind {d.kind!r}")
    if d.kind != "dim-lower" and not d.residues:
        raise ValueError(f"{d.kind} descriptor {d.id!r} has no residues")
    if d.kind == "cluster" and d.instances is None:
        raise ValueError(f"cluster descriptor {d.id!r} has no instances")
    budget = default_budget() if budget is None else budget
    results = _check_dim_lower(d, k_range, budget) if d.kind == "dim-lower" else []
    for k, r in itertools.product(k_range, sorted(d.residues)):  # none for dim-lower
        n = 8 * k + r
        if d.kind == "basis-gap":
            results.append(_check_basis_gap(d, n, r, budget))
        else:
            results += [_check_cluster_instantiation(d, n, a, *instance, budget)
                        for instance in d.instances(n, k) for a in ANCHOR_PROBES]
    ordered = sorted(results, key=lambda x: (x.n, x.params))
    return LemmaReport(d.id, tuple(ordered))


# ---------------------------------------------------------------------------
# descriptor templates
# ---------------------------------------------------------------------------

def _simple_cluster(id_: str, claim: str, residues: tuple[int, ...],
                    claimed_min: int, base: Blocks, min_k: int = 1
                    ) -> LemmaDescriptor:
    """Descriptor whose blocks are fixed offsets from the anchor, checked
    at the orders with k >= ``min_k``."""
    return LemmaDescriptor(
        id=id_, kind="cluster", claim=claim, claimed_min=claimed_min,
        residues=residues,
        instances=lambda n, k: [({}, base, ())] if k >= min_k else [])


def _window(n: int, k: int):
    for ell in range(2, 6):
        for subset in itertools.combinations(range(5), ell):
            yield {"offsets": subset, "min_required": ell - 1}, [subset], ()


def _r56(n, k):
    # at n = 8k+2 the triple's far end a+4k+4 is nearer the other way
    # around (backward arc 4k-1 < forward 4k+3), the blocks stop being
    # equidistant from a+1, and two vertices suffice: ell = k is excluded
    ell_max = k - 1 if n % 8 == 2 else k
    for ell in range(0, ell_max + 1):
        for s in (1, -1):
            yield ({"ell": ell, "sign": s},
                   [[0, s], [s * (j + 4 * ell) for j in (2, 3, 4)]], ())


def _akbk8(n, k):
    ladder = [[4 * k + 4, 4 * k + 5, 4 * k + 6]]
    ladder += [[4 * k + 4 + 4 * i, 4 * k + 5 + 4 * i] for i in range(1, k + 1)]
    for m, mp in itertools.combinations(range(1, k + 1), 2):
        near = [[8 * k + 7, 1], [4 * m + 2, 4 * m + 4], [4 * mp + 1, 4 * mp + 3]]
        yield {"m": m, "m_prime": mp}, ladder + near, range(4 * mp + 2)


def _ak7(n, k):
    yield {}, [[x, x + 1] for x in range(0, 4 * k + 5, 2)], ()


def _akbk7(n, k):
    ladder = [[3 + 4 * i, 4 + 4 * i] for i in range(0, k)]
    ladder.append([3 + 4 * k, 4 + 4 * k, 5 + 4 * k])
    for mp in range(1, k + 1):
        top = 4 * (k + mp)
        yield {"m_prime": mp}, ladder + [[3 + top, 4 + top], [5 + top, 6 + top]], ()


def _l2223(n, k):
    for ell in range(0, k + 1):
        blocks = [[1, 2], [4 * k + 2, 4 * k + 3], [4 * k + 4, 4 * k + 5],
                  [4 * (k + ell) + j for j in (7, 8, 9)]]
        yield {"ell": ell}, blocks, range(2, 4 * ell + 3, 4)


def _build_registry() -> dict[str, LemmaDescriptor]:
    descriptors = [
        LemmaDescriptor(
            id="L3.1-window", kind="cluster",
            claim="any L vertices within 5 consecutive positions need at "
                  "least L-1 resolvers; false for n = 3,4 (mod 8), where the "
                  "far plateau fits strictly inside a window (see "
                  "window_bound_counterexample), so those residues are "
                  "excluded",
            residues=(2, 5, 6, 7, 8, 9), instances=_window),
        _simple_cluster(
            "Obs-0123",
            "the pairs {a,a+1} and {a+2,a+3} cannot be resolved together by "
            "one vertex (all residues except 3)",
            (2, 4, 5, 6, 7, 8, 9), 2, [[0, 1], [2, 3]]),
        LemmaDescriptor(
            id="L-2-4-3-r56", kind="cluster",
            claim="for r in {2,5,6}: a pair {a,a+s} together with a shifted "
                  "triple {a+s(2+4L), a+s(3+4L), a+s(4+4L)} needs 3 resolvers "
                  "(L <= k, except L <= k-1 for r = 2 where {a+1, a+2} "
                  "resolves the L = k cluster)",
            claimed_min=3, residues=(2, 5, 6), instances=_r56),
        LemmaDescriptor(
            id="L-8-AkBk", kind="cluster",
            claim="for n = 8k+8: the antipodal ladder A_0..A_k plus the three "
                  "near pairs B_1..B_3 needs 3 resolvers outside the arc "
                  "[a, a+4m'+1]",
            claimed_min=3, residues=(8,), instances=_akbk8),
        LemmaDescriptor(
            id="L-7-Ak", kind="cluster",
            claim="for n = 8k+7: the full alternating ladder of adjacent "
                  "pairs needs 3 resolvers",
            claimed_min=3, residues=(7,), instances=_ak7),
        LemmaDescriptor(
            id="L-7-AkBk", kind="cluster",
            claim="for n = 8k+7: the pair ladder with a widened top block "
                  "and two displaced pairs needs 3 resolvers",
            claimed_min=3, residues=(7,), instances=_akbk7),
        LemmaDescriptor(
            id="L-2-22-3", kind="cluster",
            claim="for n = 8k+7: {a+1,a+2}, two antipodal pairs and a "
                  "displaced triple need 3 resolvers outside an arithmetic "
                  "progression",
            claimed_min=3, residues=(7,), instances=_l2223),
        _simple_cluster(
            "r5-0156", "for r in {2,5}: the 4-set {a,a+1,a+5,a+6} needs 2 "
            "resolvers", (2, 5), 2, [[0, 1, 5, 6]]),
        _simple_cluster(
            "r5-025-67", "for r in {2,5}: ({a,a+2,a+5},{a+6,a+7}) needs 2 "
            "resolvers", (2, 5), 2, [[0, 2, 5], [6, 7]]),
        _simple_cluster(
            "r5-lemma-01", "for r in {2,5}: the 6-set {a,a+1,a+2,a+5,a+6,a+7} "
            "needs 3 resolvers", (2, 5), 3, [[0, 1, 2, 5, 6, 7]]),
        _simple_cluster(
            "r5-lemma-02", "for r in {2,5}: ({a,a+1},{a+2,a+3,a+5,a+7,a+8}) "
            "needs 3 resolvers", (2, 5), 3, [[0, 1], [2, 3, 5, 7, 8]]),
        _simple_cluster(
            "r5-01257", "for r in {2,5}: ({a,a+1},{a+2,a+5,a+7}) needs 2 "
            "resolvers", (2, 5), 2, [[0, 1], [2, 5, 7]]),
        _simple_cluster(
            "r5-023568", "for r in {2,5}: ({a,a+2},{a+3,a+5},{a+6,a+8}) needs "
            "2 resolvers", (2, 5), 2, [[0, 2], [3, 5], [6, 8]]),
        _simple_cluster(
            "r5-lemma-03", "for r in {2,5}: ({a,a+1,a+2},{a+3,a+5,a+6,a+8}) "
            "needs 3 resolvers", (2, 5), 3, [[0, 1, 2], [3, 5, 6, 8]]),
        _simple_cluster(
            "m3-2-3-2", "for n = 8k+3: {a,a+1,a+5,a+6} needs 2 resolvers",
            (3,), 2, [[0, 1, 5, 6]]),
        _simple_cluster(
            "m3-2-7-2a", "for n = 8k+3: ({a,a+1},{a+2,a+5,a+7},{a+9,a+10}) "
            "needs 2 resolvers", (3,), 2, [[0, 1], [2, 5, 7], [9, 10]]),
        _simple_cluster(
            "m3-2-5-2", "for n = 8k+3, k >= 2: ({a,a+1},{a+7,a+8}) needs 2 "
            "resolvers; at n = 11 the single vertex a+1 resolves both pairs "
            "(d(a+1, a+8) = 1 by the short arc), so k = 1 is excluded",
            (3,), 2, [[0, 1], [7, 8]], min_k=2),
        _simple_cluster(
            "m3-222", "for n = 8k+3: ({a,a+1},{a+2,a+3},{a+4,a+5}) needs 2 "
            "resolvers", (3,), 2, [[0, 1], [2, 3], [4, 5]]),
        _simple_cluster(
            "m3-2-7-2b", "for n = 8k+3: ({a,a+1},{a+3,a+5,a+8}) needs 2 "
            "resolvers", (3,), 2, [[0, 1], [3, 5, 8]]),
        _simple_cluster(
            "m3-2-1-2", "for n = 8k+3: ({a,a+1},{a+3,a+4}) needs 2 resolvers",
            (3,), 2, [[0, 1], [3, 4]]),
        LemmaDescriptor(
            id="min-dist-789", kind="basis-gap",
            claim="for r in {7,8,9}: any resolving 5-set has pairwise "
                  "circular gaps >= r-5 (vacuous where the dimension "
                  "exceeds 5)",
            claimed_min=5, residues=(7, 8, 9)),
        LemmaDescriptor(
            id="thm-general-t", kind="dim-lower",
            claim="dim C(n, +/-{1..t}) >= t for n >= 2t+2"),
        LemmaDescriptor(
            id="thm-vetrik-lb", kind="dim-lower",
            claim="dim C(n, +/-{1..t}) >= t+1 when n = 2kt+r with "
                  "t+2 <= r <= 2t+1"),
    ]
    return {d.id: d for d in descriptors}


REGISTRY: dict[str, LemmaDescriptor] = _build_registry()


def manifest() -> list[dict]:
    """Human-readable registry summary (id, claim, claimed minimum)."""
    return [{"id": d.id, "claim": d.claim, "claimed_min": d.claimed_min,
             "kind": d.kind}
            for d in REGISTRY.values()]


def window_bound_counterexample(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A 4-subset of the window {0..4} resolved by only two vertices.

    Exists exactly for n = 3, 4 (mod 8): there the set of vertices at
    maximum distance from a probe has r - 1 in {2, 3} elements, few enough
    to sit strictly inside a 5-window with closer vertices on both sides,
    so one probe can separate two disjoint pairs at once.  Returns
    (window subset, resolving pair); both probes' representations are
    (2, k), (2, k+1), (1, k+1), (1, k) in subset order.
    """
    k, r = split(n, 4)
    if r == 3:
        return (0, 1, 2, 3), (6, 4 * k + 3)
    if r == 4:
        return (0, 1, 2, 4), (6, 4 * k + 4)
    raise ValueError(f"the window bound holds for n = {n} (r = {r}); "
                     "counterexamples exist only for r in {3, 4}")


def window_tightness(n: int) -> dict[int, dict]:
    """For each L in 2..5, a size-L subset of a 5-window whose exact minimum
    resolver count is L-1, showing the window bound is tight."""
    g, witnesses, budget = _graph(n, 4), {}, default_budget()
    for params, (subset,), _ in _window(n, 0):
        if len(subset) not in witnesses:
            result = min_resolvers(g, [subset], g.vertices, budget=budget)
            if result.size == params["min_required"]:
                witnesses[len(subset)] = {"subset": subset, "resolvers": result.witness}
    return witnesses
