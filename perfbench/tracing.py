"""Per-layer tracing of circmd from outside the library.

``install`` replaces each traced public function, at every place in the
circmd package where it is bound (the import sites other modules call
it through, and the package namespace the benchmark calls), with a
wrapper that reports to a ``Tracer``.  ``uninstall`` puts the originals
back.  Nothing in ``src/`` changes.

Two kinds of wrapper:

- a span (solver entry points, constructions, lemmas, cli, and each
  benchmark op) is stored with its parent, start and end;
- a leaf (the resolve checks, formulas, graph construction) is called too
  often to store, so its calls and seconds are summed per parent span.

A span's self time is its duration minus its child spans and leaves.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

OP = "bench.op"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.leaves = defaultdict(lambda: [0, 0.0])  # (parent, name) -> [calls, s]
        self.counters = defaultdict(int)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    def leaf(self, name: str, seconds: float) -> None:
        agg = self.leaves[self._stack[-1], name]
        agg[0] += 1
        agg[1] += seconds

    def op(self, fn, *args):
        """Run one benchmark op as a top-level span; (output, seconds)."""
        index = self.open(OP)
        try:
            out = fn(*args)
        finally:
            self.close(index)
        return out, self.spans[index][3] - self.spans[index][2]

    def self_times(self) -> tuple[list[float], dict]:
        """Self seconds of each span, and per name the summed leaf
        [calls, seconds]."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        leaf_totals = defaultdict(lambda: [0, 0.0])
        for (parent, name), (calls, seconds) in self.leaves.items():
            child[parent] += seconds
            leaf_totals[name][0] += calls
            leaf_totals[name][1] += seconds
        own = [end - start - child[i] for i, (_, _, start, end) in enumerate(self.spans)]
        return own, leaf_totals

    def check(self, wall_s: float) -> float:
        """Verify the accounting of one traced pass; returns the residual,
        the pass time no op span covers.

        Every span must close inside its parent, no self time may be
        negative, and self times plus the residual must add up to wall_s.
        """
        for name, parent, start, end in self.spans:
            if end is None:
                raise AssertionError(f"span {name} never closed")
            if parent >= 0:
                p = self.spans[parent]
                if not p[2] <= start <= end <= p[3]:
                    raise AssertionError(f"span {name} leaves its parent {p[0]}")
        own, leaf_totals = self.self_times()
        if min(own, default=0.0) < -1e-9:
            raise AssertionError("a span has negative self time")
        top = sum(end - start for _, parent, start, end in self.spans if parent < 0)
        residual = wall_s - top
        total = sum(own) + sum(s for _, s in leaf_totals.values()) + residual
        if residual < 0 or abs(total - wall_s) > 1e-6 * max(1.0, wall_s):
            raise AssertionError(f"self times sum to {total} s, traced wall is {wall_s} s")
        return residual


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

def _span(tracer: Tracer, name, fn, after=None, refusals=None):
    """Span wrapper; ``name`` may be a function of the call's arguments."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name(*args) if callable(name) else name)
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            if refusals is not None and isinstance(exc, refusals):
                tracer.counters["solver.budget_refusals"] += 1
            raise
        finally:
            tracer.close(index)
        if after is not None:
            after(tracer.counters, args, out)
        return out
    return wrapper


def _leaf(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.leaf(name, time.perf_counter() - t0)
        if after is not None:
            after(tracer.counters, args, out)
        return out
    return wrapper


def _make_consecutive(tracer: Tracer, fn):
    """Graph construction, then its first distance-row access, as two leaves."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        g = fn(*args, **kwargs)
        t1 = time.perf_counter()
        g.dist_row
        tracer.leaf("graph.make_consecutive", t1 - t0)
        tracer.leaf("graph.dist_row", time.perf_counter() - t1)
        return g
    return wrapper


def _is_resolving_done(c, args, out):
    g, landmarks = args[0], args[1]
    c["resolve.is_resolving.resolving"] += out is None
    c["resolve.coord_lookups"] += g.n * len(set(landmarks))


def _cluster_lookups(c, args, out):
    landmarks, cluster = args[1], args[2]
    c["resolve.coord_lookups"] += sum(map(len, cluster.blocks)) * len(set(landmarks))


def _exact_dim_done(c, args, out):
    c["solver.nodes"] += out.nodes_explored
    c["solver.exhausted_levels"] += len(out.exhausted_sizes)


def _brute_force_done(c, args, out):
    c["solver.brute_force_dim.nodes"] += out.nodes_explored


def _basis_t4_done(c, args, out):
    c["constructions.fallbacks"] += out.source in ("search-fallback", "remark-19")


def _check_lemma_done(c, args, out):
    c["lemmas.instantiations"] += len(out.results)


def _lemma_kind(d, *args, **kwargs):
    return "lemmas." + d.kind.replace("-", "_")


def _wrappers(tracer: Tracer, circmd) -> list:
    """(original, wrapper) for every traced public function."""
    budget = circmd.BudgetExceededError
    graph, resolve, formulas = circmd.graph, circmd.resolve, circmd.formulas
    solver, constructions, lemmas, cli = (
        circmd.solver, circmd.constructions, circmd.lemmas, circmd.cli)
    return [
        (graph.make_consecutive, _make_consecutive(tracer, graph.make_consecutive)),
        (formulas.formula_dim, _leaf(tracer, "formulas.formula_dim", formulas.formula_dim)),
        (formulas.known_bounds, _leaf(tracer, "formulas.known_bounds", formulas.known_bounds)),
        (resolve.is_resolving, _leaf(tracer, "resolve.is_resolving", resolve.is_resolving,
                                     _is_resolving_done)),
        (resolve.resolves_cluster, _leaf(tracer, "resolve.resolves_cluster",
                                         resolve.resolves_cluster, _cluster_lookups)),
        (resolve.is_cluster_for, _leaf(tracer, "resolve.is_cluster_for",
                                       resolve.is_cluster_for, _cluster_lookups)),
        (resolve.pair_resolvers, _leaf(tracer, "resolve.pair_resolvers",
                                       resolve.pair_resolvers)),
        (solver.exact_dim, _span(tracer, "solver.exact_dim", solver.exact_dim,
                                 _exact_dim_done, budget)),
        (solver.find_basis_of_size, _span(tracer, "solver.find_basis_of_size",
                                          solver.find_basis_of_size, None, budget)),
        (solver.brute_force_dim, _span(tracer, "solver.brute_force_dim",
                                       solver.brute_force_dim, _brute_force_done, budget)),
        (solver.min_resolvers, _span(tracer, "solver.min_resolvers", solver.min_resolvers,
                                     None, budget)),
        (constructions.basis_t4, _span(tracer, "constructions.basis_t4",
                                       constructions.basis_t4, _basis_t4_done)),
        (lemmas.check_lemma, _span(tracer, _lemma_kind, lemmas.check_lemma,
                                   _check_lemma_done)),
        (lemmas.window_tightness, _span(tracer, "lemmas.window_tightness",
                                        lemmas.window_tightness)),
        (cli.main, _span(tracer, "cli.main", cli.main)),
    ]


def install(tracer: Tracer, circmd) -> list:
    """Bind the wrappers wherever circmd binds a traced function; returns
    the (module, attribute, original) list that ``uninstall`` restores."""
    wrapper_of = {id(fn): (fn, w) for fn, w in _wrappers(tracer, circmd)}
    modules = [m for name, m in sys.modules.items()
               if name == "circmd" or name.startswith("circmd.")]
    patched = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = wrapper_of.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                patched.append((module, attr, value))
    return patched


def uninstall(patched: list) -> None:
    for module, attr, original in patched:
        setattr(module, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, wall_s: float, untraced_wall_s: float) -> dict:
    """name -> (value, unit) for one traced pass of wall_s seconds."""
    residual = tracer.check(wall_s)
    own, leaf_totals = tracer.self_times()
    calls, self_s = Counter(), defaultdict(float)
    for (name, *_), seconds in zip(tracer.spans, own):
        calls[name] += 1
        self_s[name] += seconds
    for name, (n, seconds) in leaf_totals.items():
        calls[name] += n
        self_s[name] += seconds

    def layer(module):
        return sum(s for name, s in self_s.items() if name.split(".")[0] == module)

    c = tracer.counters
    subsets = sum(n for (parent, name), (n, _) in tracer.leaves.items()
                  if name == "resolve.resolves_cluster"
                  and tracer.spans[parent][0] == "solver.min_resolvers")
    exact_dim_s = sum(end - start for name, _, start, end in tracer.spans
                      if name == "solver.exact_dim")
    m = {}

    def calls_and_self(name):
        m[name + ".calls"] = (calls[name], "count")
        m[name + ".self_s"] = (self_s[name], "s")

    calls_and_self("graph.dist_row")
    m["graph.self_s"] = (layer("graph"), "s")
    m["formulas.self_s"] = (layer("formulas"), "s")
    calls_and_self("resolve.is_resolving")
    m["resolve.is_resolving.resolving_frac"] = (
        _ratio(c["resolve.is_resolving.resolving"], calls["resolve.is_resolving"]), "ratio")
    m["resolve.coord_lookups"] = (c["resolve.coord_lookups"], "computed")
    for name in ("resolve.resolves_cluster", "resolve.is_cluster_for",
                 "resolve.pair_resolvers"):
        calls_and_self(name)
    m["resolve.self_s"] = (layer("resolve"), "s")
    calls_and_self("solver.exact_dim")
    m["solver.nodes"] = (c["solver.nodes"], "count")
    m["solver.nodes_per_s"] = (_ratio(c["solver.nodes"], exact_dim_s), "1/s")
    m["solver.exhausted_levels"] = (c["solver.exhausted_levels"], "count")
    calls_and_self("solver.find_basis_of_size")
    calls_and_self("solver.brute_force_dim")
    m["solver.brute_force_dim.nodes"] = (c["solver.brute_force_dim.nodes"], "count")
    calls_and_self("solver.min_resolvers")
    m["solver.min_resolvers.subsets"] = (subsets, "count")
    m["solver.budget_refusals"] = (c["solver.budget_refusals"], "count")
    m["solver.self_s"] = (layer("solver"), "s")
    calls_and_self("constructions.basis_t4")
    m["constructions.search_fallback_frac"] = (
        _ratio(c["constructions.fallbacks"], calls["constructions.basis_t4"]), "ratio")
    for kind in ("cluster", "basis_gap", "dim_lower", "window_tightness"):
        m[f"lemmas.{kind}.self_s"] = (self_s["lemmas." + kind], "s")
    m["lemmas.instantiations"] = (c["lemmas.instantiations"], "count")
    calls_and_self("cli.main")
    m["bench.self_s"] = (self_s[OP] + residual, "s")
    m["trace.wall_s"] = (wall_s, "s")
    m["trace.overhead_frac"] = (wall_s / untraced_wall_s - 1, "ratio")
    return m


def top_self_times(tracer: Tracer, count: int = 6) -> dict:
    """The largest self times by "name < parent span", to show where a
    traced pass spent its time."""
    own, _ = tracer.self_times()
    by: dict = defaultdict(float)
    for (name, parent, *_), seconds in zip(tracer.spans, own):
        by[f"{name} < {tracer.spans[parent][0] if parent >= 0 else '-'}"] += seconds
    for (parent, name), (_, seconds) in tracer.leaves.items():
        by[f"{name} < {tracer.spans[parent][0]}"] += seconds
    top = sorted(by.items(), key=lambda kv: -kv[1])[:count]
    return {k: round(v, 4) for k, v in top}
