"""Command-line surface with machine-readable output.

Each command's own parser reads its arguments; the full parser serves help,
version and usage errors.  Every command prints a JSON envelope (command echo,
parameters, result, timing, version) to stdout, laid out as by ``json.dumps``
with ``indent=2``; ``table`` can instead render CSV or Markdown.  Exit codes:

    0  success
    1  verification failure (set or basis not resolving, lemma check failed, ...)
    2  usage error (bad flags, malformed vertex set)
    3  budget exceeded, or no basis within ``--max-k``
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import time

from . import __version__
from .constructions import METHODS, NoFormulaError, answer, basis_t4
from .formulas import formula_dim, known_bounds
from .graph import make_consecutive
from .resolve import is_resolving, representation
from .solver import BudgetExceededError, NoBasisWithinError, default_budget

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
_LEAVES = {int: int.__repr__, str: json.encoder.encode_basestring_ascii,  # json's text
           bool: lambda b: "true" if b else "false", type(None): lambda _: "null"}


def _bounds_payload(n: int, t: int) -> dict | None:
    b = known_bounds(n, t)
    return None if b is None else {
        "lower": b.lower, "upper": b.upper, "provenance": list(b.provenance)}


def _parse_vertex_set(spec: str, n: int) -> list[int]:
    try:
        raw = [int(part) for part in spec.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"vertex set {spec!r} is not a comma-separated "
                         "integer list") from None
    if not raw:
        raise ValueError("vertex set is empty")
    reduced = [v % n for v in raw]
    if len(set(reduced)) != len(reduced):
        # duplicates mod n are rejected, not merged: a printed witness that
        # collapses (e.g. containing both 0 and n) should fail loudly
        raise ValueError(f"vertex set {spec!r} contains duplicates mod {n}")
    return sorted(reduced)


def _cmd_dim(args) -> tuple[dict, int]:
    a = answer(args.n, args.t, args.method, args.max_k, args.budget)
    result = {"n": a.n, "t": a.t, "dim": a.dim, "basis": list(a.basis),
              "method": a.method}
    if a.search is not None:
        result.update(nodes_explored=a.search.nodes_explored,
                      lower_bound_used=a.search.lower_bound_used,
                      exhausted_sizes=list(a.search.exhausted_sizes))
    if not a.verified:
        return {**result, "verified": False, "witness_pair":
                [a.unresolved.u, a.unresolved.v]}, EXIT_VERIFICATION_FAILED
    return {**result, "bounds": _bounds_payload(a.n, a.t)}, EXIT_OK


def _cmd_verify(args) -> tuple[dict, int]:
    g = make_consecutive(args.n, args.t)
    args.set = landmarks = _parse_vertex_set(args.set, args.n)  # echoed as parsed
    witness = is_resolving(g, landmarks)
    if witness is None:
        return {"resolving": True, "size": len(landmarks)}, EXIT_OK
    return {
        "resolving": False,
        "witness_pair": [witness.u, witness.v],
        "representations": {
            str(witness.u): list(representation(g, witness.u, landmarks)),
            str(witness.v): list(representation(g, witness.v, landmarks)),
        },
    }, EXIT_VERIFICATION_FAILED


def _render_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)  # None is written as an empty field
    return buf.getvalue()


def _render_md(rows: list[dict]) -> str:
    headers = list(rows[0].keys())
    lines = ["| " + " | ".join(headers) + " |",
             "| " + " | ".join("---" for _ in headers) + " |"]
    for row in rows:
        lines.append("| " + " | ".join(
            "" if row[h] is None else str(row[h]) for h in headers) + " |")
    return "\n".join(lines) + "\n"


def _cmd_table(args) -> tuple[dict | str, int]:
    if args.n_min > args.n_max:
        raise ValueError("--n-min must not exceed --n-max")
    make_consecutive(args.n_min, args.t)  # a bad --t or --n-min fails before any row
    rows, code = [], EXIT_OK
    for n in range(args.n_min, args.n_max + 1):
        fd = formula_dim(n, args.t)
        note = "complete graph; residue formula not applicable" if args.t >= n // 2 else ""
        row = {"n": n, "n_mod_8": n % 8, "formula_dim": fd,
               "searched_dim": None, "agreement": None, "note": note}
        if args.check:
            a = answer(n, args.t, "search", budget=args.budget)
            row["searched_dim"] = a.dim
            row["agreement"] = (fd == a.dim) if fd is not None else None
            if not a.verified:
                code = EXIT_VERIFICATION_FAILED
        rows.append(row)
    if args.format != "json":
        return (_render_csv if args.format == "csv" else _render_md)(rows), code
    return {"rows": rows}, code


def _cmd_construct(args) -> tuple[dict, int]:
    a = basis_t4(args.n, budget=args.budget)
    result = {"n": a.n, "basis": list(a.basis), "source": a.source,
              "verified": a.verified, "matches_formula": a.matches_formula,
              "note": a.note}
    if not a.verified:
        result["witness_pair"] = [a.unresolved.u, a.unresolved.v]
        return result, EXIT_VERIFICATION_FAILED
    return result, EXIT_OK


def _cmd_check_lemmas(args) -> tuple[dict, int]:
    from .lemmas import REGISTRY, check_lemma, manifest  # loaded on first use
    if args.id == "all":
        descriptors = list(REGISTRY.values())
    elif args.id in REGISTRY:
        descriptors = [REGISTRY[args.id]]
    else:
        raise ValueError(f"unknown descriptor id {args.id!r}; "
                         f"known ids: {', '.join(REGISTRY)}")
    k_range = range(1, args.k_max + 1)
    reports = []
    any_failure = False
    for d in descriptors:
        report = check_lemma(d, k_range, args.budget)
        counts = {"pass": 0, "fail": 0, "vacuous": 0, "degenerate": 0}
        for r in report.results:
            counts[r.status] += 1
        failures = [{"n": r.n, "params": dict(r.params), "detail": r.detail}
                    for r in report.failed]
        any_failure = any_failure or bool(failures)
        reports.append({"id": d.id, "claim": d.claim,
                        "instantiations": len(report.results),
                        "counts": counts, "failures": failures})
    result = {"descriptors": reports, "registry_size": len(REGISTRY),
              "manifest": manifest() if args.id == "all" else None}
    return result, EXIT_VERIFICATION_FAILED if any_failure else EXIT_OK


def _dumps(obj, indent: str = "\n") -> str:
    """``json.dumps(obj, indent=2)``, without the pure-Python encoder json indents with."""
    if (leaf := _LEAVES.get(type(obj))) or not isinstance(obj, (dict, list, tuple)) or not obj:
        return (leaf or json.dumps)(obj)  # json.dumps: floats, {}, [], TypeError on others
    inner, ends = indent + "  ", "{}" if isinstance(obj, dict) else "[]"
    items = ([f"{_LEAVES[str](k)}: {_dumps(v, inner)}" for k, v in obj.items()]
             if ends == "{}" else [_dumps(v, inner) for v in obj])
    return ends[0] + inner + f",{inner}".join(items) + indent + ends[1]


@functools.cache  # parse_args fills a fresh namespace on every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circmd",
        description="Metric dimension of circulant graphs C(n, +/-{1..t})")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_budget(p):
        p.add_argument("--budget", type=int, default=None,
                       help="max candidate sets per search level "
                            "(default from CIRCMD_BUDGET)")

    p_dim = sub.add_parser("dim", help="compute the metric dimension")
    p_dim.add_argument("--n", type=int, required=True)
    p_dim.add_argument("--t", type=int, required=True)
    p_dim.add_argument("--method", choices=METHODS, default="auto")
    p_dim.add_argument("--max-k", type=int, default=None, dest="max_k")
    add_budget(p_dim)
    p_dim.set_defaults(func=_cmd_dim)

    p_verify = sub.add_parser("verify", help="check whether a set resolves the graph")
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument("--t", type=int, required=True)
    p_verify.add_argument("--set", type=str, required=True,
                          help='comma-separated vertices, e.g. "0,2,3,10"')
    p_verify.set_defaults(func=_cmd_verify)

    p_table = sub.add_parser("table", help="dimension table over a range of n")
    p_table.add_argument("--t", type=int, required=True)
    p_table.add_argument("--n-min", type=int, required=True, dest="n_min")
    p_table.add_argument("--n-max", type=int, required=True, dest="n_max")
    p_table.add_argument("--format", choices=("csv", "json", "md"), default="json")
    p_table.add_argument("--check", action="store_true",
                         help="cross-check the formula by exact search")
    add_budget(p_table)
    p_table.set_defaults(func=_cmd_table)

    p_con = sub.add_parser("construct", help="emit dim's checked t = 4 basis and its source")
    p_con.add_argument("--n", type=int, required=True)
    add_budget(p_con)
    p_con.set_defaults(func=_cmd_construct)

    p_lem = sub.add_parser("check-lemmas", help="validate the lemma registry")
    p_lem.add_argument("--id", type=str, default="all")
    p_lem.add_argument("--k-max", type=int, default=1, dest="k_max")
    # no --budget flag: main reads CIRCMD_BUDGET once and echoes it; every search runs under it
    p_lem.set_defaults(func=_cmd_check_lemmas, budget=None)
    parser.commands = sub.choices  # each command's own parser, by name
    return parser


def main(argv: list[str] | None = None) -> int:
    parser, argv = build_parser(), sys.argv[1:] if argv is None else argv
    args, extra = argparse.Namespace(command=argv[0] if argv else None), True
    if args.command in parser.commands:  # the full parser makes this call on these strings
        args, extra = parser.commands[args.command].parse_known_args(argv[1:], args)
    args = parser.parse_args(argv) if extra else args
    started = time.perf_counter()
    try:
        if "budget" in vars(args) and args.budget is None:
            args.budget = default_budget()  # a bad CIRCMD_BUDGET is a usage error
        elif "budget" in vars(args) and args.budget < 0:
            raise ValueError(f"--budget must be at least 0, got {args.budget}")
        result, code = args.func(args)
    except ValueError as exc:
        parser.exit(EXIT_USAGE, f"{parser.prog}: error: {exc}\n")
    except (BudgetExceededError, NoBasisWithinError) as exc:
        result, code = {"error": str(exc)}, EXIT_BUDGET
    except NoFormulaError as exc:
        result, code = {"error": str(exc)}, EXIT_VERIFICATION_FAILED
    if not isinstance(result, str):
        result = _dumps({
            "command": args.command,
            "parameters": {k: v for k, v in vars(args).items()
                           if k not in ("command", "func")},
            "result": result,
            "timing_seconds": round(time.perf_counter() - started, 6),
            "version": __version__,
        }) + "\n"
    try:
        sys.stdout.write(result)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early (``| head``): not an error.  Point
        # stdout at devnull so the flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
