"""Self-tests of the benchmark: exact counts repeat, seeds change only
the draws, the printed metric names match BENCHMARK.json, and the
host-speed clock takes its own samples out of the ops it times.

    python3 -m pytest -q perfbench/test_counts.py

Each traced pass takes as long as a benchmark run (about 20 s per
workload on a 2-core machine), so this takes a few minutes.
"""

from __future__ import annotations

import functools
import json
import time

import hostspeed
import run
from workloads import WORKLOADS, PassResult, query_cells

EXACT = ("solver.nodes", "solver.brute_force_dim.nodes", "resolve.is_resolving.calls",
         "lemmas.instantiations", "solver.budget_refusals")


@functools.lru_cache(maxsize=None)
def traced(name: str, seed: int, repeat: int = 0) -> dict:
    """Per-layer metrics of one traced pass; ``repeat`` makes a fresh run."""
    workload = WORKLOADS[name]
    circmd, inputs, *_ = run.set_up(workload, seed)
    tracer, res = run.traced_pass(workload, circmd, inputs)
    return {k: v for k, (v, _) in run.layer_report(tracer, res.wall_s, res.wall_s).items()}


def test_exact_counts_repeat_with_one_seed():
    for name in WORKLOADS:
        first, second = traced(name, 1), traced(name, 1, repeat=1)
        assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}, name


def test_second_seed_changes_draws_not_lemma_counts():
    circmd = run.import_circmd()
    for name in ("search", "query"):
        assert WORKLOADS[name].inputs(circmd, 1) != WORKLOADS[name].inputs(circmd, 2)
    one, two = traced("lemmas", 1), traced("lemmas", 2)
    assert {k: one[k] for k in EXACT} == {k: two[k] for k in EXACT}
    assert one["lemmas.instantiations"] == 1303


def test_query_refusals_do_not_depend_on_seed():
    refused_cells = sum(1 for key in query_cells() if key[2])
    for seed in (1, 2):
        assert traced("query", seed)["solver.budget_refusals"] == refused_cells > 0


def test_layer_split():
    search = traced("search", 1)
    assert search["solver.exact_dim.self_s"] > 0.5 * search["trace.wall_s"]
    assert search["resolve.is_resolving.calls"] == 0
    lemmas = traced("lemmas", 1)
    assert lemmas["resolve.is_resolving.self_s"] > 0.5 * lemmas["trace.wall_s"]


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    fake = PassResult(times=[0.001] * 20, answered=[True] * 20, norm=[0.001] * 20)
    metrics, _ = run.end_to_end([fake], 0.01)
    assert [m["name"] for m in spec["end_to_end"]] == list(metrics)
    assert [m["name"] for m in spec["per_layer"]] == list(traced("lemmas", 1))


def test_tail_level_leaves_ten_ops_above():
    assert run.tail_level(40) == 75
    assert run.tail_level(66) == 84
    assert run.tail_level(512) == 98


def test_clock_samples_inside_ops_and_takes_them_out():
    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    with hostspeed.Clock() as clock:
        _, raw = clock.op(busy, 0.2)
    t0, t1 = clock.ops[0]
    inside = [e - s for s, e in clock.samples if t0 <= s and e <= t1]
    assert len(inside) >= 3
    assert abs(raw + sum(inside) - (t1 - t0)) < 1e-6
    assert clock.scaled([raw])[0] > 0
