"""End-to-end acceptance battery; one verdict line per criterion.

Run order matters only for the shared brute-force cache; every test is
independent.  The conftest summary hook prints `criterion N: PASS/FAIL`
lines after the run.
"""

import time
from functools import lru_cache
from itertools import combinations

from circmd.cli import main
from circmd.constructions import REMARK_19_PUBLISHED, basis_t4
from circmd.formulas import formula_dim
from circmd.graph import _bfs_row, make_consecutive
from circmd.lemmas import REGISTRY, window_tightness
from circmd.resolve import is_resolving
from circmd.solver import brute_force_dim, exact_dim

from conftest import record_criterion
from references import check_all


@lru_cache(maxsize=None)
def _brute_dim(n: int, t: int) -> int:
    return brute_force_dim(make_consecutive(n, t)).dim


def _verdict(number, passed, detail):
    record_criterion(number, passed, detail)
    assert passed, f"criterion {number}: {detail}"


def test_acceptance_1_residue_formula_reproduced_for_n_10_to_50():
    started = time.perf_counter()
    mismatches = []
    for n in range(10, 51):
        g = make_consecutive(n, 4)
        searched = exact_dim(g).dim
        if searched != formula_dim(n, 4):
            mismatches.append((n, searched, formula_dim(n, 4)))
    elapsed = time.perf_counter() - started
    _verdict(1, not mismatches and elapsed < 900,
             f"exact search matches the residue formula for n in 10..50 "
             f"({elapsed:.1f}s); mismatches: {mismatches or 'none'}")


def test_acceptance_2_exceptional_orders_have_dimension_exactly_4():
    problems = []
    for n in (5, 11, 19):
        g = make_consecutive(n, 4)
        report = basis_t4(n)
        if not report.verified or len(report.basis) != 4:
            problems.append(f"n={n}: bad witness {report.basis}")
        # the oracle sweeps sizes 1..3 exhaustively before finding 4
        oracle = brute_force_dim(g)
        if oracle.dim != 4 or set(oracle.exhausted_sizes) != {1, 2, 3}:
            problems.append(f"n={n}: dim {oracle.dim}")
    anomaly = basis_t4(19).note
    if len(set(v % 19 for v in REMARK_19_PUBLISHED)) == 4 or not anomaly:
        problems.append("n=19: published-set anomaly not reported")
    _verdict(2, not problems,
             f"n in {{5,11,19}} have 4-element bases, no 3-set resolves; "
             f"n=19 anomaly reported ({problems or 'no problems'})")


def test_acceptance_3_construction_families_verify_up_to_k_100():
    failures = []
    slow = 0.0
    for k in range(1, 101):
        for n, basis in ((8 * k + 9, (0, 1, 4, 7, 4 * k + 6, 4 * k + 7)),
                         (8 * k + 7, (0, 1, 2, 3, 4, 5))):
            g = make_consecutive(n, 4)
            g.dist_row  # build the distance row outside the timed check
            best = float("inf")
            for _ in range(3):  # best of 3 shields against scheduler noise
                started = time.perf_counter()
                resolving = is_resolving(g, basis) is None
                best = min(best, time.perf_counter() - started)
            slow = max(slow, best)
            if not resolving or len(basis) != formula_dim(n, 4):
                failures.append(n)
    _verdict(3, not failures and slow < 0.1,
             f"both families resolve with size 6 for k = 1..100 "
             f"(max verification {slow * 1000:.1f}ms); failures: "
             f"{failures or 'none'}")


def test_acceptance_4_t2_t3_formulas_match_oracle():
    mismatches = []
    for t, n_lo in ((2, 6), (3, 8)):
        for n in range(n_lo, 41):
            if _brute_dim(n, t) != formula_dim(n, t):
                mismatches.append((n, t))
    _verdict(4, not mismatches,
             f"oracle matches closed forms for t=2 (n=6..40) and t=3 "
             f"(n=8..40); mismatches: {mismatches or 'none'}")


def test_acceptance_5_general_lower_bounds():
    violations = []
    for t in (2, 3, 4, 5):
        for n in range(2 * t + 2, 29):
            dim = _brute_dim(n, t)
            if dim < t:
                violations.append((n, t, "general"))
            r = next((n - 2 * k * t for k in range(1, n // (2 * t) + 1)
                      if t + 2 <= n - 2 * k * t <= 2 * t + 1), None)
            if r is not None and dim < t + 1:
                violations.append((n, t, "residue"))
    # one-below-threshold probe, recorded but never gating: at n = 2t+1
    # the graph is complete, so the dimension is n - 1 = 2t >= t
    probe = {t: _brute_dim(2 * t + 1, t) for t in (2, 3, 4, 5)}
    probe_holds = all(dim >= t for t, dim in probe.items())
    _verdict(5, not violations,
             f"dim >= t and residue-rule dim >= t+1 hold for t in 2..5, "
             f"n <= 28; violations: {violations or 'none'}; ungated n=2t+1 "
             f"probe (dim per t): {probe} -> bound "
             f"{'holds' if probe_holds else 'fails'} there too")


def test_acceptance_6_lemma_registry_and_window_tightness():
    reports = check_all((1, 2, 3))
    failing = [r.descriptor_id for r in reports if not r.ok]
    statuses = {s for r in reports for s in
                (res.status for res in r.results)}
    witnesses = window_tightness(13)
    tight = set(witnesses) == {2, 3, 4, 5}
    _verdict(6, len(reports) == 23 and not failing and tight,
             f"all 23 descriptors clean for k in 1..3 (statuses seen: "
             f"{sorted(statuses)}); failing: {failing or 'none'}; window "
             f"tightness witnesses for L in 2..5: {tight}")


def test_acceptance_7_closed_form_equals_bfs_all_pairs():
    discrepancies = 0
    checked = 0
    for n in range(3, 61):
        for t in range(1, min(5, n // 2) + 1):
            g = make_consecutive(n, t)
            for i in range(n):
                row = _bfs_row(n, g.steps, i)
                for j in range(n):
                    checked += 1
                    if g.dist(i, j) != row[j]:
                        discrepancies += 1
    _verdict(7, discrepancies == 0,
             f"closed form equals BFS on {checked} pairs "
             f"(n <= 60, t <= 5); discrepancies: {discrepancies}")


def test_acceptance_8_solver_soundness_battery():
    problems = []
    for t in (2, 3, 4):
        for n in range(2 * t + 2, 26):
            if exact_dim(make_consecutive(n, t)).dim != _brute_dim(n, t):
                problems.append((n, t, "oracle mismatch"))
    _verdict(8, not problems,
             f"exact = oracle for n <= 25, t in 2..4; problems: "
             f"{problems or 'none'}")


def test_acceptance_9_complete_graph_fringe(capsys):
    dims = {n: _brute_dim(n, 4) for n in (8, 9)}
    code = main(["table", "--t", "4", "--n-min", "8", "--n-max", "9",
                 "--check", "--format", "md"])
    out = capsys.readouterr().out
    marked = "not applicable" in out and out.count("| 7 |") + out.count("| 8 |") >= 2
    _verdict(9, dims == {8: 7, 9: 8} and code == 0 and marked,
             f"oracle gives dim {dims} at the complete-graph fringe and the "
             f"table output marks the residue formula as not applicable")
