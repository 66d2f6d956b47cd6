"""Run one circmd benchmark workload and print its metrics.

    python3 perfbench/run.py --workload search --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from a checkout of the repository: circmd is imported from its
``src/`` directory and from nowhere else. A run makes one pass over the
workload's inputs per ``pass_s`` of ``--seconds`` (see workloads.py),
and at least one. Ops are timed by a ``hostspeed.Clock``, which divides
the shared host's changing speed out of each op's time; each op's time
is the median of its normalised times over the passes. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs one untraced and one
traced pass and reports the per-layer metrics. The last line of standard
output is one JSON object. A wrong answer prints no result and exits 1;
``--workload all`` runs every workload in its own process and prints one
table. See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import tracing
from workloads import WORKLOADS, WrongAnswer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("graph", "resolve", "formulas", "solver", "constructions", "lemmas", "cli")
SETUP_REPEATS = 21


def import_circmd():
    """A fresh import of circmd from this checkout's src/."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "circmd" or m.startswith("circmd.")]:
        del sys.modules[name]
    circmd = importlib.import_module("circmd")
    importlib.import_module("circmd.cli")
    if Path(circmd.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"circmd imported from {circmd.__file__}, not from {SRC}")
    return circmd


def set_up(workload, seed: int):
    """Import circmd and draw the inputs, SETUP_REPEATS times; returns the
    last import, its inputs, and the median set-up seconds, normalised and
    raw."""
    def once():
        circmd = import_circmd()
        return circmd, workload.inputs(circmd, seed)

    raw = []
    with hostspeed.Clock() as clock:
        for _ in range(SETUP_REPEATS):
            (circmd, inputs), seconds = clock.op(once)
            raw.append(seconds)
    return circmd, inputs, statistics.median(clock.scaled(raw)), statistics.median(raw)


def one_pass(workload, circmd, inputs, trace_op=None):
    """One pass, checked.  Untraced, its ops are timed by a host-speed
    clock and ``res.norm`` holds their normalised times; ``res.wall_s`` is
    the raw pass time without the clock's kernel samples."""
    t0 = time.perf_counter()
    if trace_op is not None:
        res = workload.run(circmd, inputs, trace_op)
        res.wall_s = time.perf_counter() - t0
    else:
        with hostspeed.Clock() as clock:
            res = workload.run(circmd, inputs, clock.op)
        res.wall_s = time.perf_counter() - t0 - clock.kernel_s()
        res.norm = clock.scaled(res.times)
        res.slowdown = clock.slowdown()
    workload.check(res)
    return res


def traced_pass(workload, circmd, inputs):
    tracer = tracing.Tracer()
    patched = tracing.install(tracer, circmd)
    try:
        return tracer, one_pass(workload, circmd, inputs, tracer.op)
    finally:
        tracing.uninstall(patched)


def tail_level(answered_per_pass: int) -> int:
    """Highest whole percentile with at least ten answered ops of one pass
    above it."""
    for p in range(99, 0, -1):
        if answered_per_pass - math.ceil(p * answered_per_pass / 100) >= 10:
            return p
    raise ValueError(f"{answered_per_pass} answered ops per pass leave no tail")


def percentile(sorted_values: list, p: int) -> float:
    """Nearest-rank percentile."""
    return sorted_values[math.ceil(p * len(sorted_values) / 100) - 1]


def end_to_end(passes: list, setup_s: float) -> tuple[dict, dict]:
    """Metrics of one pass, taking each op's median normalised time over
    the run's passes."""
    first = passes[0]
    if any(p.answered != first.answered for p in passes):
        raise WrongAnswer("passes over the same inputs answered different ops")
    per_op = [None if None in ts else statistics.median(ts)
              for ts in zip(*(p.norm for p in passes))]
    answered = sorted(t for t, ok in zip(per_op, first.answered) if ok)
    level = tail_level(len(answered))
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(t for t in per_op if t is not None), "s"),
        "op_ms_p50": (1000 * statistics.median(answered), "ms"),
        "op_ms_tail": (1000 * percentile(answered, level), "ms"),
        "answered_frac": (1 - first.failed / len(first.times), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    facts = {"passes": len(passes), "tail": f"p{level}", "answered_ops_per_pass": len(answered),
             "fail_frac": first.failed / len(first.times),
             "raw_pass_s": [round(p.wall_s, 4) for p in passes],
             "host_slowdown": [round(p.slowdown, 4) for p in passes]}
    return metrics, facts


def layer_report(tracer, traced_wall_s: float, untraced_wall_s: float) -> dict:
    """Per-layer metrics of a traced pass, with the source size of each module."""
    metrics = tracing.layer_metrics(tracer, traced_wall_s, untraced_wall_s)
    for m in MODULES:
        lines = len((SRC / "circmd" / f"{m}.py").read_text().splitlines())
        metrics[f"{m}.src_lines"] = (lines, "lines")
    metrics["src.lines"] = (sum(len(p.read_text().splitlines())
                                for p in (SRC / "circmd").glob("*.py")), "lines")
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool):
    """(metrics, run facts, ops attempted, ops failed) of one run; raises
    WrongAnswer."""
    workload = WORKLOADS[name]
    circmd, inputs, setup_s, raw_setup_s = set_up(workload, seed)
    facts = {"workload": name, "seed": seed, "nproc": len(os.sched_getaffinity(0)),
             "python": platform.python_version(), "raw_setup_s": round(raw_setup_s, 5)}
    if trace:
        base = one_pass(workload, circmd, inputs)
        tracer, res = traced_pass(workload, circmd, inputs)
        metrics = layer_report(tracer, res.wall_s, base.wall_s)
        facts["top_self_s"] = tracing.top_self_times(tracer)
        return metrics, facts, len(res.times), res.failed
    # Passes per run come from --seconds alone, never from a measured time,
    # so every run of a workload does the same work on any machine.
    count = max(1, round(seconds / workload.pass_s))
    passes = [one_pass(workload, circmd, inputs) for _ in range(count)]
    for error in passes[0].errors:
        print(f"op raised: {error}", file=sys.stderr)
    metrics, more = end_to_end(passes, setup_s)
    facts.update(more)
    return (metrics, facts, sum(len(p.times) for p in passes),
            sum(p.failed for p in passes))


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process; one table of name, value, unit."""
    results, status = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        metrics = result["metrics"]
        if not trace:
            metrics["fail_frac"] = {"value": result["failed"] / result["attempted"],
                                    "unit": "ratio"}
        results[name] = result
        for metric, v in metrics.items():
            print(f"{name:7} {metric:38} {v['value']:>16.6g} {v['unit']}")
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    try:
        metrics, facts, attempted, failed = run(
            args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"cannot import circmd from {SRC}: {exc}", file=sys.stderr)
        return 2
    except WrongAnswer as exc:
        print(f"wrong answer: {exc}", file=sys.stderr)
        return 1
    for metric, (value, unit) in metrics.items():
        print(f"{metric:38} {value:>16.6g} {unit}")
    print("facts " + json.dumps(facts))
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
