"""Machine-checkable registry of the lower-bound lemma battery (t = 4).

Each registry entry encodes one combinatorial claim of the form "any set X
that simultaneously resolves this family of blocks has at least c
elements" (or, for the two general theorems, a direct lower bound on the
metric dimension).  The claims are validated empirically: for every
admissible order n = 8k + r and parameter tuple, an exhaustive ascending
search confirms that no smaller resolving set exists.

Block templates are written at anchor 0 as affine expressions in the
parameters; ``check_lemma`` probes each at every anchor in
``ANCHOR_PROBES`` and ``instantiate`` shifts it there.  Instantiations
where offsets collide mod n (small-n wraparound) are reported as
degenerate rather than silently skipped.  A claim with two or more blocks
presumes a cluster: it is reported vacuous, not failing, when no landmark
set of at most 3 vertices induces one, a set the kernel searches for.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .formulas import known_bounds, split
from .graph import CirculantGraph, make_consecutive
from .resolve import Cluster, equivalence_classes
from .solver import NoBasisWithinError, brute_force_dim, find_basis_of_size, min_resolvers

# anchors at which check_lemma instantiates each template, written at 0;
# shift covariance is a tested invariant elsewhere, these just re-probe it
ANCHOR_PROBES = (0, 1)

Blocks = list[list[int]]
ParamGrid = Callable[[int, int], Iterable[dict]]
BlocksFn = Callable[[int, int, dict], Blocks]
ExcludedFn = Callable[[int, int, dict], set[int]]


class DegenerateInstantiationError(ValueError):
    """Template offsets collide mod n; the claim's distinctness premise fails."""


@dataclass(frozen=True)
class LemmaDescriptor:
    id: str
    kind: str  # "cluster" | "basis-gap" | "dim-lower"
    claim: str
    claimed_min: Optional[int] = None
    residues: tuple[int, ...] = ()
    param_grid: ParamGrid = lambda n, k: ({},)  # parameters besides the anchor
    blocks_fn: Optional[BlocksFn] = None
    excluded_fn: Optional[ExcludedFn] = None


@dataclass(frozen=True)
class InstantiationResult:
    descriptor_id: str
    n: int
    params: tuple[tuple[str, int], ...]
    status: str  # "pass" | "fail" | "degenerate" | "vacuous"
    detail: str = ""


@dataclass(frozen=True)
class LemmaReport:
    descriptor_id: str
    results: tuple[InstantiationResult, ...]

    @property
    def failed(self) -> tuple[InstantiationResult, ...]:
        return tuple(r for r in self.results if r.status == "fail")

    @property
    def ok(self) -> bool:
        return not self.failed


@functools.lru_cache(maxsize=1)
def _graph(n: int) -> CirculantGraph:
    """C(n, +-{1..4}).  ``check_lemma`` visits the orders one at a time,
    so one graph serves every instantiation at an order."""
    return make_consecutive(n, 4)


def instantiate(d: LemmaDescriptor, n: int, params: dict
                ) -> tuple[CirculantGraph, Cluster, frozenset[int]]:
    """Concrete (graph, cluster, allowed set) for one parameter tuple,
    the template shifted to the anchor ``params["a"]``.

    Raises DegenerateInstantiationError when template offsets collide mod n.
    """
    if d.kind != "cluster":
        raise ValueError(f"descriptor {d.id!r} has no cluster template")
    k, r = split(n, 4)
    if r not in d.residues:
        raise ValueError(f"{d.id!r} admits residues {d.residues}, got n={n} (r={r})")
    g = _graph(n)
    a = params["a"]
    blocks = [[(a + x) % n for x in b] for b in d.blocks_fn(n, k, params)]
    for b in blocks:
        if len(set(b)) != len(b):
            raise DegenerateInstantiationError(
                f"{d.id}: block {sorted(b)} has duplicate vertices mod {n}")
    try:
        cluster = Cluster(blocks)
    except ValueError as exc:
        raise DegenerateInstantiationError(f"{d.id}: {exc}") from exc
    allowed = frozenset(g.vertices)
    if d.excluded_fn is not None:
        allowed -= {(a + x) % n for x in d.excluded_fn(n, k, params)}
    return g, cluster, allowed


def _find_inducing_set(g: CirculantGraph, cluster: Cluster
                       ) -> Optional[tuple[int, ...]]:
    """Least landmark set of at most 3 vertices under which the two or more
    blocks form distinct representation classes, or None.

    Its members lie outside the cluster, each equidistant from every member
    of each block; from those the kernel picks the least set that resolves
    one member of each block.
    """
    inside = cluster.vertices
    pool = [x for x in g.vertices if x not in inside
            and all(len({g.dist(x, v) for v in b}) == 1 for b in cluster.blocks)]
    if not pool:
        return None
    members = Cluster([[min(b) for b in cluster.blocks]])
    return min_resolvers(g, members, pool, max_size=3).witness


def _check_cluster_instantiation(d: LemmaDescriptor, n: int, params: dict
                                 ) -> InstantiationResult:
    key = tuple(sorted(params.items()))
    try:
        g, cluster, allowed = instantiate(d, n, params)
    except DegenerateInstantiationError as exc:
        return InstantiationResult(d.id, n, key, "degenerate", str(exc))
    required = params.get("min_required", d.claimed_min)
    result = min_resolvers(g, cluster, allowed, max_size=required - 1)
    if result.capped:
        return InstantiationResult(d.id, n, key, "pass")
    if result.size is None:
        return InstantiationResult(
            d.id, n, key, "pass", "unresolvable within the allowed set")
    # a too-small witness exists; the claim only fails if its hypothesis
    # (an inducing landmark set) can actually be met
    if len(cluster.blocks) > 1 and _find_inducing_set(g, cluster) is None:
        return InstantiationResult(
            d.id, n, key, "vacuous",
            f"witness {result.witness} of size {result.size}, but no inducing "
            f"landmark set of size <= 3 exists")
    return InstantiationResult(
        d.id, n, key, "fail",
        f"{result.witness} resolves the cluster with {result.size} < {required}")


def _gap_witness(g: CirculantGraph, gap: int, size: int) -> Optional[tuple[int, ...]]:
    """At most size - 2 more vertices that make {0, gap} a resolving set, or None."""
    classes = Cluster(equivalence_classes(g, (0, gap)))
    allowed = set(g.vertices) - {0, gap}
    return min_resolvers(g, classes, allowed, max_size=size - 2).witness


def _check_basis_gap(d: LemmaDescriptor, n: int) -> InstantiationResult:
    """Every resolving s-set, s = ``d.claimed_min``, must have pairwise
    circular gaps >= r - s.

    A rotation takes a resolving s-set with a pair ``gap`` apart to one
    containing 0 and gap, so one search per small gap decides the claim.
    Where no s-set resolves the claim is vacuous.  For ``min-dist-789``
    that is every order the k = 1..3 battery checks (dim = 6 there, so
    no 5-set resolves): the battery never reaches the gap search.
    """
    g = _graph(n)
    size = d.claimed_min
    if find_basis_of_size(g, size) is None:
        return InstantiationResult(d.id, n, (), "vacuous",
                                   f"no resolving set of size {size} exists")
    min_gap = split(n, 4)[1] - size
    for gap in range(1, min_gap):
        witness = _gap_witness(g, gap, size)
        if witness is not None:
            B = tuple(sorted((0, gap) + witness))
            return InstantiationResult(
                d.id, n, (), "fail",
                f"resolving set {B} has gap {gap} < {min_gap}")
    return InstantiationResult(d.id, n, (), "pass")


_DIM_LOWER_N_CAP = 28  # keeps the brute-force oracle sweep at desk scale


def _check_dim_lower(d: LemmaDescriptor, k_range: Iterable[int]
                     ) -> list[InstantiationResult]:
    k_max = max(k_range)
    results = []
    for t in (2, 3, 4, 5):
        if d.id == "thm-general-t":
            cases = [(n, t) for n in range(2 * t + 2, 2 * t + 3 + 2 * k_max)]
        else:  # thm-vetrik-lb: the orders up to k = k_max where known_bounds,
            # and so exact_dim, takes dim >= t + 1; the sweep checks that rule
            cases = [(n, t + 1) for n in range(2 * t + 2, 2 * t * k_max + 2 * t + 2)
                     if "lb-residue" in known_bounds(n, t).provenance]
        cases = [(n, bound) for n, bound in cases if n <= _DIM_LOWER_N_CAP]
        for n, bound in sorted(set(cases)):
            key = (("n", n), ("t", t))
            try:  # a superset of a resolving set resolves: sizes < bound decide
                dim = brute_force_dim(make_consecutive(n, t), max_k=bound - 1).dim
            except NoBasisWithinError:
                results.append(InstantiationResult(d.id, n, key, "pass"))
            else:
                results.append(InstantiationResult(
                    d.id, n, key, "fail", f"dim {dim} < {bound}"))
    return results


def check_lemma(d: LemmaDescriptor, k_range: Iterable[int] = (1, 2, 3)
                ) -> LemmaReport:
    """Validate one descriptor over all admissible orders for the given k."""
    k_range = sorted(set(k_range))
    if not k_range:
        raise ValueError("k_range must be nonempty")
    if any(k < 1 for k in k_range):
        raise ValueError("k values must be at least 1")
    results: list[InstantiationResult] = []
    if d.kind == "dim-lower":
        results = _check_dim_lower(d, k_range)
    elif d.kind == "basis-gap":
        for k in k_range:
            for r in d.residues:
                results.append(_check_basis_gap(d, 8 * k + r))
    else:
        for k in k_range:
            for r in sorted(d.residues):
                n = 8 * k + r
                results += [_check_cluster_instantiation(d, n, {"a": a, **extra})
                            for a in ANCHOR_PROBES for extra in d.param_grid(n, k)]
    ordered = sorted(results, key=lambda r: (r.n, r.params))
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
        residues=residues, param_grid=lambda n, k: ({},) if k >= min_k else (),
        blocks_fn=lambda n, k, p: base)


def _window_params(n: int, k: int):
    for ell in range(2, 6):
        for subset in itertools.combinations(range(5), ell):
            yield {"offsets": subset, "min_required": ell - 1}


def _window_blocks(n, k, p):
    return [list(p["offsets"])]


def _r56_params(n, k):
    # at n = 8k+2 the triple's far end a+4k+4 is nearer the other way
    # around (backward arc 4k-1 < forward 4k+3), the blocks stop being
    # equidistant from a+1, and two vertices suffice: ell = k is excluded
    ell_max = k - 1 if n % 8 == 2 else k
    for ell in range(0, ell_max + 1):
        for sign in (1, -1):
            yield {"ell": ell, "sign": sign}


def _r56_blocks(n, k, p):
    s, ell = p["sign"], p["ell"]
    return [[0, s], [s * (j + 4 * ell) for j in (2, 3, 4)]]


def _akbk8_params(n, k):
    for m, mp in itertools.combinations(range(1, k + 1), 2):
        yield {"m": m, "m_prime": mp}


def _akbk8_blocks(n, k, p):
    m, mp = p["m"], p["m_prime"]
    blocks = [[4 * k + 4, 4 * k + 5, 4 * k + 6]]
    blocks += [[4 * k + 4 + 4 * i, 4 * k + 5 + 4 * i] for i in range(1, k + 1)]
    blocks += [[8 * k + 7, 1], [4 * m + 2, 4 * m + 4], [4 * mp + 1, 4 * mp + 3]]
    return blocks


def _akbk8_excluded(n, k, p):
    return set(range(0, 4 * p["m_prime"] + 2))


def _ak7_blocks(n, k, p):
    blocks = []
    for i in range(0, k + 2):
        blocks.append([4 * i, 4 * i + 1])
        if i <= k:
            blocks.append([4 * i + 2, 4 * i + 3])
    return blocks


def _akbk7_params(n, k):
    for mp in range(1, k + 1):
        yield {"m_prime": mp}


def _akbk7_blocks(n, k, p):
    top = 4 * (k + p["m_prime"])
    blocks = [[3 + 4 * i, 4 + 4 * i] for i in range(0, k)]
    blocks.append([3 + 4 * k, 4 + 4 * k, 5 + 4 * k])
    blocks += [[3 + top, 4 + top], [5 + top, 6 + top]]
    return blocks


def _l2223_params(n, k):
    for ell in range(0, k + 1):
        yield {"ell": ell}


def _l2223_blocks(n, k, p):
    return [[1, 2],
            [4 * k + 2, 4 * k + 3],
            [4 * k + 4, 4 * k + 5],
            [4 * (k + p["ell"]) + j for j in (7, 8, 9)]]


def _l2223_excluded(n, k, p):
    return {2 + 4 * i for i in range(0, p["ell"] + 1)}


def _build_registry() -> dict[str, LemmaDescriptor]:
    descriptors = [
        LemmaDescriptor(
            id="L3.1-window", kind="cluster",
            claim="any L vertices within 5 consecutive positions need at "
                  "least L-1 resolvers; false for n = 3,4 (mod 8), where the "
                  "far plateau fits strictly inside a window (see "
                  "window_bound_counterexample), so those residues are "
                  "excluded",
            residues=(2, 5, 6, 7, 8, 9),
            param_grid=_window_params, blocks_fn=_window_blocks),
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
            claimed_min=3, residues=(2, 5, 6),
            param_grid=_r56_params, blocks_fn=_r56_blocks),
        LemmaDescriptor(
            id="L-8-AkBk", kind="cluster",
            claim="for n = 8k+8: the antipodal ladder A_0..A_k plus the three "
                  "near pairs B_1..B_3 needs 3 resolvers outside the arc "
                  "[a, a+4m'+1]",
            claimed_min=3, residues=(8,),
            param_grid=_akbk8_params, blocks_fn=_akbk8_blocks,
            excluded_fn=_akbk8_excluded),
        LemmaDescriptor(
            id="L-7-Ak", kind="cluster",
            claim="for n = 8k+7: the full alternating ladder of adjacent "
                  "pairs needs 3 resolvers",
            claimed_min=3, residues=(7,), blocks_fn=_ak7_blocks),
        LemmaDescriptor(
            id="L-7-AkBk", kind="cluster",
            claim="for n = 8k+7: the pair ladder with a widened top block "
                  "and two displaced pairs needs 3 resolvers",
            claimed_min=3, residues=(7,),
            param_grid=_akbk7_params, blocks_fn=_akbk7_blocks),
        LemmaDescriptor(
            id="L-2-22-3", kind="cluster",
            claim="for n = 8k+7: {a+1,a+2}, two antipodal pairs and a "
                  "displaced triple need 3 resolvers outside an arithmetic "
                  "progression",
            claimed_min=3, residues=(7,),
            param_grid=_l2223_params, blocks_fn=_l2223_blocks,
            excluded_fn=_l2223_excluded),
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
    g = make_consecutive(n, 4)
    witnesses = {}
    for ell in range(2, 6):
        for subset in itertools.combinations(range(5), ell):
            cluster = Cluster([list(subset)])
            result = min_resolvers(g, cluster, g.vertices)
            if result.size == ell - 1:
                witnesses[ell] = {"subset": subset, "resolvers": result.witness}
                break
    return witnesses
