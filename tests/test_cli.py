import argparse
import ast
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circmd
from circmd import formulas
from circmd.cli import _dumps, build_parser, main
from circmd.graph import make_consecutive
from circmd.solver import DEFAULT_BUDGET, DimResult, default_budget


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_envelope_shape(capsys):
    code, payload = run_json(capsys, "dim", "--n", "13", "--t", "4")
    assert code == 0
    assert payload["command"] == "dim"
    assert payload["version"]
    assert payload["timing_seconds"] >= 0
    assert payload["result"]["dim"] == 5


def test_dim_formula_attaches_verifiable_basis(capsys):
    code, payload = run_json(capsys, "dim", "--n", "21", "--t", "4")
    assert code == 0
    result = payload["result"]
    assert result["method"] == "formula"
    basis = ",".join(str(v) for v in result["basis"])
    verify_code, verify_payload = run_json(
        capsys, "verify", "--n", "21", "--t", "4", "--set", basis)
    assert verify_code == 0
    assert verify_payload["result"]["resolving"] is True


@pytest.mark.parametrize("argv, method, dim", [
    (("--n", "13", "--t", "4", "--method", "search"), "search", 5),
    (("--n", "12", "--t", "3"), "formula", 4),  # find_basis_of_size route
    (("--n", "10", "--t", "4", "--method", "oracle"), "oracle", 5),
], ids=["search", "formula", "oracle"])
def test_dim_search_method(capsys, argv, method, dim):
    code, payload = run_json(capsys, "dim", *argv)
    assert code == 0
    result = payload["result"]
    assert result["method"] == method
    assert result["dim"] == dim == len(result["basis"])
    if method == "oracle":
        assert result["exhausted_sizes"] == [1, 2, 3, 4]
    n, t = argv[1], argv[3]
    basis = ",".join(str(v) for v in result["basis"])
    verify_code, _ = run_json(capsys, "verify", "--n", n, "--t", t, "--set", basis)
    assert verify_code == 0


def test_dim_search_reports_exhausted_sizes(capsys):
    code, payload = run_json(capsys, "dim", "--n", "21", "--t", "4",
                             "--method", "search")
    assert code == 0
    result = payload["result"]
    assert result["exhausted_sizes"] == list(
        range(result["lower_bound_used"], result["dim"]))
    assert result["exhausted_sizes"]


def test_dim_formula_abstains_with_exit_1(capsys):
    code, payload = run_json(capsys, "dim", "--n", "8", "--t", "4",
                             "--method", "formula")
    assert code == 1
    assert "error" in payload["result"]


def test_dim_auto_falls_through_to_search_on_fringe(capsys):
    code, payload = run_json(capsys, "dim", "--n", "8", "--t", "4")
    assert code == 0
    assert payload["result"]["dim"] == 7


def test_huge_t_folds_without_building_every_step(capsys):
    # steps beyond n // 2 fold onto 1..n // 2; building them first took
    # time and memory linear in t
    assert make_consecutive(10, 10**12).t == 5
    code, payload = run_json(capsys, "dim", "--n", "10", "--t", "1000000000000")
    assert code == 0
    assert payload["result"]["dim"] == 9


def test_dim_prints_null_bounds_where_no_rule_applies(capsys):
    # t = 1 and n < 2t + 2 are outside known_bounds' rules; the search then
    # starts at the counting bound alone
    code, payload = run_json(capsys, "dim", "--n", "12", "--t", "1")
    assert code == 0
    result = payload["result"]
    assert (result["dim"], result["basis"]) == (2, [0, 1])
    assert (result["lower_bound_used"], result["bounds"]) == (2, None)
    code, payload = run_json(capsys, "dim", "--n", "11", "--t", "5")
    assert code == 0
    result = payload["result"]
    assert (result["dim"], result["lower_bound_used"], result["bounds"]) == (10, 4, None)


def test_verify_failure_exits_1_with_witness(capsys):
    code, payload = run_json(capsys, "verify", "--n", "10", "--t", "4",
                             "--set", "0,1,2,3")
    assert code == 1
    result = payload["result"]
    assert result["resolving"] is False
    assert result["witness_pair"] == [4, 9]
    reps = result["representations"]
    assert reps["4"] == reps["9"]


def test_formula_witnesses_are_checked_before_printing(monkeypatch, capsys):
    # a wrong 8k+7 row: {0,1,2,3,4,6} leaves 13 and 14 unresolved at n = 23
    rule = tuple((a, 0) for a in (0, 1, 2, 3, 4, 6))
    monkeypatch.setitem(formulas.FAMILIES, (4, 7), ("upper-8k7", rule))
    for argv in (("dim", "--n", "23", "--t", "4"), ("construct", "--n", "23")):
        code, payload = run_json(capsys, *argv)
        assert code == 1, argv
        result = payload["result"]
        assert result["basis"] == [0, 1, 2, 3, 4, 6]
        assert result["verified"] is False
        assert result["witness_pair"] == [13, 14]
    # t != 4 checks find_basis_of_size's set with is_resolving
    monkeypatch.setattr("circmd.constructions.find_basis_of_size", lambda g, k, budget: (0, 1, 2))
    code, payload = run_json(capsys, "dim", "--n", "12", "--t", "3")
    assert code == 1
    assert payload["result"]["verified"] is False


def test_searched_bases_are_checked_before_printing(monkeypatch, capsys):
    # a search that returns a wrong basis: {0, 1, 2, 3} leaves 4 and 9
    # unresolved at n = 10, t = 4
    def wrong(g, max_k=None, budget=None):
        return DimResult(4, (0, 1, 2, 3), "search")
    monkeypatch.setattr("circmd.constructions.exact_dim", wrong)
    monkeypatch.setattr("circmd.constructions.brute_force_dim", wrong)
    for method in ("search", "oracle"):
        code, payload = run_json(capsys, "dim", "--n", "10", "--t", "4",
                                 "--method", method)
        assert code == 1, method
        assert payload["result"]["verified"] is False
        assert payload["result"]["witness_pair"] == [4, 9]
    code, _ = run_json(capsys, "table", "--t", "4", "--n-min", "10",
                       "--n-max", "10", "--check")
    assert code == 1


def test_duplicate_vertices_mod_n_are_usage_error(capsys):
    # the published 4-element witness for n = 19 contains 19 = 0 (mod 19)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "19", "--t", "4", "--set", "0,2,7,19"])
    assert exc.value.code == 2


def test_usage_error_on_bad_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dim", "--n", "13"])
    assert exc.value.code == 2
    verify = ["verify", "--n", "13", "--t", "4", "--set"]
    for argv, message in [
        (verify + ["0,x"], "vertex set '0,x' is not a comma-separated integer list"),
        (verify + [","], "vertex set is empty"),
        (["table", "--t", "4", "--n-min", "12", "--n-max", "10"],
         "--n-min must not exceed --n-max"),
    ]:
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert message in capsys.readouterr().err, argv


@pytest.mark.parametrize("argv", [
    ("dim", "--n", "30", "--t", "4", "--method", "search", "--budget", "10"),
    ("table", "--t", "4", "--n-min", "30", "--n-max", "30", "--check",
     "--budget", "10"),
    ("construct", "--n", "30", "--budget", "10"),
    ("check-lemmas", "--id", "Obs-0123", "--k-max", "1"),  # has no --budget
    # the dim-lower check passes only on an exhausted sweep, not on a refusal
    ("check-lemmas", "--id", "thm-vetrik-lb", "--k-max", "1"),
], ids=["dim", "table", "construct", "check-lemmas", "check-lemmas-dim-lower"])
def test_budget_exceeded_exits_3(monkeypatch, capsys, argv):
    if "--budget" not in argv:
        monkeypatch.setenv("CIRCMD_BUDGET", "10")
    code, payload = run_json(capsys, *argv)
    assert code == 3
    assert re.fullmatch(r"C\(\d+, \d+\) candidates exceed budget 10",
                        payload["result"]["error"])
    assert payload["parameters"]["budget"] == 10


def test_dim_max_k_below_one_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["dim", "--n", "13", "--t", "4", "--method", "search", "--max-k", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, max_k, code", [
    (("--n", "10", "--method", "search"), 4, 3),
    (("--n", "21"), 2, 3),  # auto takes the formula route
    (("--n", "21", "--method", "oracle"), 2, 3),
    (("--n", "21"), 5, 0),
    (("--n", "80"), 2, 3),  # formula_dim 6 refuses before basis_t4's fallback
    # the oracle stops at K: C(39, 2) fits the budget, C(39, 3) would not
    (("--n", "40", "--method", "oracle", "--budget", "1000"), 3, 3),
], ids=["search", "auto", "oracle", "within", "before-basis", "oracle-budget"])
def test_dim_search_past_max_k_exits_3(capsys, argv, max_k, code):
    got, payload = run_json(capsys, "dim", "--t", "4", *argv, "--max-k", str(max_k))
    assert got == code
    if code == 3:
        assert f"size <= {max_k}" in payload["result"]["error"]
    else:
        assert payload["result"]["dim"] == max_k


def test_parser_is_built_once_and_keeps_no_values(monkeypatch, capsys):
    monkeypatch.delenv("CIRCMD_BUDGET", raising=False)
    assert build_parser() is build_parser()
    run_json(capsys, "dim", "--n", "10", "--t", "4", "--method", "oracle",
             "--max-k", "5", "--budget", "1000")
    run_json(capsys, "verify", "--n", "10", "--t", "4", "--set", "0,1,2,3,4")
    code, payload = run_json(capsys, "dim", "--n", "13", "--t", "4")
    assert code == 0
    assert payload["parameters"] == {"n": 13, "t": 4, "method": "auto",
                                     "max_k": None, "budget": DEFAULT_BUDGET}


def test_malformed_budget_env_fails_the_command_not_the_import(monkeypatch, capsys):
    src = Path(circmd.__file__).resolve().parents[1]
    env = dict(os.environ, CIRCMD_BUDGET="abc", PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", "import circmd"], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    monkeypatch.setenv("CIRCMD_BUDGET", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["dim", "--n", "13", "--t", "4"])
    assert exc.value.code == 2
    assert "CIRCMD_BUDGET" in capsys.readouterr().err


LAZY_LEMMAS_PROBE = """
import contextlib, io, sys
import circmd, circmd.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert circmd.cli.main(["dim", "--n", "81", "--t", "4"]) == 0
    assert circmd.cli.main(["verify", "--n", "13", "--t", "4", "--set", "0,1"]) == 1
assert "circmd.lemmas" not in sys.modules, "dim or verify loaded the lemma battery"
assert set(circmd.__all__) <= set(dir(circmd)), "dir(circmd) hides a lazy name"
assert len(circmd.REGISTRY) == 23
assert circmd.lemmas is sys.modules["circmd.lemmas"]
names = {}
exec("from circmd import *", names)
assert set(circmd.__all__) <= set(names), "from circmd import * missed a name"
assert not hasattr(circmd, "no_such_name")  # any error but AttributeError propagates
"""


def test_dim_and_verify_leave_the_lemma_battery_unloaded():
    # a fresh interpreter: in this one the tests have imported circmd.lemmas
    src = Path(circmd.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", LAZY_LEMMAS_PROBE], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


DIM_PATH_PROBE = """
import contextlib, io, sys
import circmd.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert circmd.cli.main(["dim", "--n", "81", "--t", "4"]) == 0
    assert circmd.cli.main(["verify", "--n", "13", "--t", "4", "--set", "0,1"]) == 1
loaded = {"dataclasses", "inspect", "typing", "circmd.lemmas"} & sys.modules.keys()
assert not loaded, f"dim or verify loaded {sorted(loaded)}"
"""


def test_dim_and_verify_load_no_record_or_annotation_machinery():
    # -S: site's .pth files may import typing before circmd does
    src = Path(circmd.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-S", "-c", DIM_PATH_PROBE], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv,code", [
    (("dim", "--n", "13", "--t", "4"), 0),
    (("dim", "--n", "200", "--t", "4", "--method", "search", "--budget", "1"), 3),
    (("table", "--t", "4", "--n-min", "10", "--n-max", "3000", "--format", "csv"), 0),
])
def test_closed_stdout_keeps_the_exit_code(argv, code, unbuffered):
    # `circmd ... | head`: a reader that stops early is not an error, so the
    # command exits with its own code and writes nothing to stderr
    src = Path(circmd.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(src)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "circmd.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # before the command writes anything
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == code, err
    assert "Traceback" not in err and "Exception ignored" not in err, err


def test_envelope_text_is_two_space_json(capsys):
    # the envelope pins hash the parsed payload; this pins the printed text
    code, out = run_cli(capsys, "dim", "--n", "13", "--t", "4")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    # one envelope per route, with the exit code each route ends in
    for argv, want in [
        (("dim", "--n", "21", "--t", "4", "--method", "search"), 0),  # exhausted sizes
        (("verify", "--n", "20", "--t", "4", "--set", "0,2,8,10"), 0),
        (("verify", "--n", "13", "--t", "4", "--set", "0,1"), 1),  # representations
        (("construct", "--n", "19"), 0),
        (("table", "--t", "4", "--n-min", "8", "--n-max", "12", "--format", "json"), 0),
        (("check-lemmas", "--id", "Obs-0123"), 0),
        (("dim", "--n", "30", "--t", "4", "--method", "search", "--budget", "10"), 3),
        (("dim", "--n", "8", "--t", "4", "--method", "formula"), 1),
    ]:
        code, out = run_cli(capsys, *argv)
        assert code == want, argv
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([-(2 ** 64), 10 ** 300])
    | st.floats() | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 1e300])
    | st.text() | st.text(alphabet='"\\/\x00\x1f\x7f\n\té€\U0001f600\u2028ab'),
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.dictionaries(st.text(), children)),
    max_leaves=40)


@given(_json_values)
@settings(deadline=None)
def test_envelope_writer_matches_json_dumps(value):
    assert _dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [{1, 2}, b"x", 1j, [0, {"k": set()}], {1: 2}], ids=repr)
def test_envelope_writer_refuses_what_it_cannot_write(value):
    # like json.dumps, except that a key other than str is refused, not converted
    with pytest.raises(TypeError):
        _dumps(value)


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, re.sub(r'"timing_seconds": [^\n]+', '"timing_seconds": T', out), err


DIM_ARGV = ("dim", "--n", "13", "--t", "4")


@pytest.mark.parametrize("argv, full", [
    ((), True), (("--version",), True), (("-h",), True), (("dim", "-h"), False),
    (("nosuch",), True), (("--", *DIM_ARGV), True),
    (("dim", "--n", "13"), False), (("dim", "--n", "x", "--t", "4"), False),
    ((*DIM_ARGV, "--method", "bogus"), False),
    ((*DIM_ARGV, "--bogus"), True), ((*DIM_ARGV, "extra"), True), ((*DIM_ARGV, "--vers"), True),
    (DIM_ARGV, False), ((*DIM_ARGV, "--max", "5"), False),  # --max abbreviates --max-k
    (("table", "--t", "4", "--n-min", "3", "--n-m", "3"), False),  # ambiguous
], ids=lambda v: ("full" if v else "own") if isinstance(v, bool) else " ".join(v) or "none")
def test_command_parser_answers_as_the_full_parser(monkeypatch, capsys, argv, full):
    # exit code, stdout (with the parameters in order) and stderr match the
    # full parser's, and the full parser runs only where the command's cannot answer
    monkeypatch.delenv("CIRCMD_BUDGET", raising=False)
    parser, calls = build_parser(), []
    monkeypatch.setattr(parser, "parse_args", lambda a: calls.append(a) or
                        argparse.ArgumentParser.parse_args(parser, a))
    got = _outcome(capsys, argv)
    assert bool(calls) is full
    monkeypatch.setattr(parser, "commands", {})  # every argv goes to the full parser
    assert _outcome(capsys, argv) == got


def test_budget_env_is_read_when_a_command_runs(monkeypatch, capsys):
    monkeypatch.delenv("CIRCMD_BUDGET", raising=False)
    assert default_budget() == DEFAULT_BUDGET == 20_000_000
    monkeypatch.setenv("CIRCMD_BUDGET", "10")
    code, payload = run_json(capsys, "dim", "--n", "30", "--t", "4",
                             "--method", "search")
    assert code == 3
    assert payload["parameters"]["budget"] == 10


@pytest.mark.parametrize("flag, env, code", [
    (("--budget", "-5"), None, 2),
    ((), "-5", 2),
    (("--budget", "0"), None, 3),  # budget 0 is valid and refuses C(12, 4)
    ((), "0", 3),
], ids=["flag", "env", "flag-zero", "env-zero"])
def test_negative_budget_is_usage_error(monkeypatch, capsys, flag, env, code):
    monkeypatch.delenv("CIRCMD_BUDGET", raising=False)
    if env is not None:
        monkeypatch.setenv("CIRCMD_BUDGET", env)
    argv = ["dim", "--n", "13", "--t", "4", *flag]
    if code == 2:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must be at least 0" in capsys.readouterr().err
    else:
        got, payload = run_json(capsys, *argv)
        assert got == code
        assert payload["parameters"]["budget"] == 0


def test_exports_resolve_once():
    assert len(set(circmd.__all__)) == len(circmd.__all__)
    assert [name for name in circmd.__all__ if not hasattr(circmd, name)] == []
    # the test-only references live in tests/references.py, not in the package
    unexported = {"distance_closed_form", "distance_bfs", "diameter_set", "check_all",
                  "is_cluster_for", "resolves_cluster", "pair_resolvers"}
    assert not unexported & set(circmd.__all__)
    assert [name for name in sorted(unexported) if hasattr(circmd, name)] == []
    def imports(nodes):
        imported = set()
        for node in nodes:
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported.update(alias.name for alias in node.names)
        return {part for name in imported for part in name.split(".")}

    # the graph and resolve machinery does not depend on the formula table
    for module in (circmd.graph, circmd.resolve):
        tree = ast.parse(Path(module.__file__).read_text())
        assert "formulas" not in imports(ast.walk(tree)), module
    # nothing on the dim/verify path loads the lemma battery at import time;
    # only top-level statements count, so check-lemmas may import it inside
    for module in (circmd.cli, circmd.constructions, circmd.solver, circmd.formulas,
                   circmd.graph, circmd.resolve):
        tree = ast.parse(Path(module.__file__).read_text())
        assert "lemmas" not in imports(tree.body), module


def test_table_formats_agree(capsys):
    args = ("table", "--t", "4", "--n-min", "10", "--n-max", "14")
    code, payload = run_json(capsys, *args, "--format", "json")
    assert code == 0
    rows = payload["result"]["rows"]

    code, out = run_cli(capsys, *args, "--format", "csv")
    assert code == 0
    csv_rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(r["n"]) for r in csv_rows] == [r["n"] for r in rows]
    assert [int(r["formula_dim"]) for r in csv_rows] == [r["formula_dim"] for r in rows]

    code, out = run_cli(capsys, *args, "--format", "md")
    assert code == 0
    assert out.startswith("| n |")
    assert len(out.strip().splitlines()) == len(rows) + 2

    # byte for byte, with None cells written as empty fields at n = 8 and 9
    code, out = run_cli(capsys, "table", "--t", "4", "--n-min", "8", "--n-max", "12",
                        "--check", "--format", "csv")
    assert code == 0
    assert out == (
        "n,n_mod_8,formula_dim,searched_dim,agreement,note\r\n"
        "8,0,,7,,complete graph; residue formula not applicable\r\n"
        "9,1,,8,,complete graph; residue formula not applicable\r\n"
        "10,2,5,5,True,\r\n"
        "11,3,4,4,True,\r\n"
        "12,4,4,4,True,\r\n")


def test_table_check_marks_fringe_divergence(capsys):
    code, payload = run_json(capsys, "table", "--t", "4", "--n-min", "8",
                             "--n-max", "12", "--check")
    assert code == 0
    by_n = {r["n"]: r for r in payload["result"]["rows"]}
    assert by_n[8]["formula_dim"] is None
    assert by_n[8]["searched_dim"] == 7
    assert by_n[8]["note"]
    assert by_n[12]["agreement"] is True


def test_construct_surfaces_19_anomaly(capsys):
    code, payload = run_json(capsys, "construct", "--n", "19")
    assert code == 0
    result = payload["result"]
    assert result["verified"] and len(result["basis"]) == 4
    assert "collapses" in result["note"]


def test_check_lemmas_single_id(capsys):
    code, payload = run_json(capsys, "check-lemmas", "--id", "Obs-0123",
                             "--k-max", "1")
    assert code == 0
    reports = payload["result"]["descriptors"]
    assert len(reports) == 1
    assert reports[0]["counts"]["fail"] == 0
    assert reports[0]["failures"] == []


def test_check_lemmas_all_ids_by_default(capsys):
    code, payload = run_json(capsys, "check-lemmas", "--k-max", "1")
    assert code == 0
    result = payload["result"]
    assert result["registry_size"] == 23 and len(result["manifest"]) == 23
    reports = result["descriptors"]
    assert len(reports) == 23
    totals = {status: sum(r["counts"][status] for r in reports)
              for status in ("pass", "vacuous", "degenerate", "fail")}
    assert sum(r["instantiations"] for r in reports) == 421
    assert totals == {"pass": 416, "vacuous": 3, "degenerate": 2, "fail": 0}


def test_check_lemmas_unknown_id_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["check-lemmas", "--id", "no-such-lemma"])
    assert exc.value.code == 2


def test_check_lemmas_empty_k_range_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check-lemmas", "--id", "thm-general-t", "--k-max", "0"])
    assert exc.value.code == 2
    assert "k_range must be nonempty" in capsys.readouterr().err


def _formula_route_runs():
    # `dim` on the auto and formula routes for t = 2, 3, 4 and `construct`,
    # including the budget refusals and the --max-k and --budget exits
    runs = [("dim", "--n", str(n), "--t", str(t), *method)
            for t, top in ((2, 200), (3, 119), (4, 160))
            for n in range(5, top + 1)
            for method in ((), ("--method", "formula"))]
    runs += [("construct", "--n", str(n)) for n in range(5, 161)]
    runs += [("dim", "--n", "21", "--t", "4", "--max-k", "4"),
             ("dim", "--n", "80", "--t", "4", "--max-k", "2"),
             ("construct", "--n", "30", "--budget", "10")]
    return runs


def _search_route_runs():
    # `dim` on the search and oracle routes, auto where no formula applies,
    # and `table --check`, including the --max-k and --budget exits
    runs = [("dim", "--n", str(n), "--t", str(t), "--method", "search")
            for t in (2, 3, 4) for n in range(5, 41)]
    runs += [("dim", "--n", str(n), "--t", "4", "--method", "oracle")
             for n in range(5, 17)]
    runs += [("dim", "--n", str(n), "--t", "4") for n in range(5, 10)]
    runs += [("table", "--t", str(t), "--n-min", "5", "--n-max", "40", "--check")
             for t in (2, 3, 4)]
    runs += [("dim", "--n", "21", "--t", "4", "--method", "search", "--max-k", "4"),
             ("dim", "--n", "30", "--t", "4", "--method", "search", "--budget", "10")]
    assert len(runs) == 130
    return runs


def _envelope_digest(monkeypatch, capsys, runs, drop=()):
    # argv, exit code and envelope, with the timing and the result keys
    # in ``drop`` taken out
    monkeypatch.delenv("CIRCMD_BUDGET", raising=False)
    digest = hashlib.sha256()
    for argv in runs:
        code, payload = run_json(capsys, *argv)
        del payload["timing_seconds"]
        for key in drop:
            payload["result"].pop(key, None)
        digest.update(repr((argv, code, json.dumps(payload, sort_keys=True))).encode())
    return digest.hexdigest()


def test_formula_route_envelopes_are_pinned(monkeypatch, capsys):
    digest = _envelope_digest(monkeypatch, capsys, _formula_route_runs())
    assert digest.startswith("7cd9c3ce9b16a3da")


def test_search_route_envelopes_are_pinned(monkeypatch, capsys):
    digest = _envelope_digest(monkeypatch, capsys, _search_route_runs())
    assert digest.startswith("f65783f77d7ba516")


def test_formula_route_answers_are_pinned(monkeypatch, capsys):
    # the envelopes without the search's node count, which a change to its
    # cuts may move while every answer stays
    digest = _envelope_digest(monkeypatch, capsys, _formula_route_runs(),
                              drop=("nodes_explored",))
    assert digest.startswith("1f1c2946157c1ea1")


def test_search_route_answers_are_pinned(monkeypatch, capsys):
    digest = _envelope_digest(monkeypatch, capsys, _search_route_runs(),
                              drop=("nodes_explored",))
    assert digest.startswith("e8f988fd08d763ee")
