import hashlib

import pytest

from circmd.constructions import REMARK_19_PUBLISHED, answer, basis_t4
from circmd.formulas import FAMILIES, SPORADIC, formula_dim
from circmd.graph import make_consecutive
from circmd.resolve import is_resolving
from circmd.solver import BudgetExceededError, find_basis_of_size


def test_family_witnesses():
    # the table rows at k = 1 and k = 2, through answer
    assert {(t, s): [answer(2 * t * k + s, t).basis for k in (1, 2)] for t, s in FAMILIES} == {
        (4, 7): [(0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 4, 5)],
        (4, 9): [(0, 1, 4, 7, 10, 11), (0, 1, 4, 7, 14, 15)],
    }
    assert basis_t4(25).basis == (0, 1, 4, 7, 14, 15)


def test_families_resolve_and_match_formula():
    # every SPORADIC witness and every FAMILIES row for k = 1..30, off the
    # SPORADIC orders, where the witness is read first
    rows = [(n, t, f"remark-{n}") for t, n in SPORADIC]
    rows += [(2 * t * k + s, t, source) for (t, s), (source, _) in FAMILIES.items()
             for k in range(1, 31) if (t, 2 * t * k + s) not in SPORADIC]
    for n, t, source in rows:
        a = answer(n, t)
        assert (a.dim, a.source, a.method) == (formula_dim(n, t), source, "formula"), (n, t)
        assert a.verified and a.matches_formula, (n, t)


def test_exceptional_orders_get_four_element_bases():
    for n in (5, 11, 19):
        report = basis_t4(n)
        assert report.verified
        assert len(report.basis) == 4
        assert report.matches_formula


def test_published_19_witness_is_degenerate_and_replaced():
    report = basis_t4(19)
    assert len(set(v % 19 for v in REMARK_19_PUBLISHED)) == 3
    assert report.source == "remark-19"
    assert "collapses" in report.note
    assert is_resolving(make_consecutive(19, 4), report.basis) is None


def test_19_witness_is_the_least_searched_basis():
    assert basis_t4(19).basis == find_basis_of_size(make_consecutive(19, 4), 4)


def test_search_fallback_residues():
    for n in (12, 13, 14, 16, 18, 20):
        report = basis_t4(n)
        assert report.verified and report.matches_formula
        assert report.source == "search-fallback"
        assert len(report.basis) == formula_dim(n, 4)


def test_family_sources_selected_by_residue():
    assert basis_t4(17).source == "upper-8k9"
    assert basis_t4(23).source == "upper-8k7"
    assert basis_t4(15).source == "upper-8k7"


def test_complete_fringe_uses_exact_search():
    report = basis_t4(8)
    assert report.verified
    assert len(report.basis) == 7
    assert not report.matches_formula  # no formula to match on the fringe


def test_fringe_note_marks_only_complete_graphs():
    for n, t in ((20, 5), (30, 1)):
        report = answer(n, t)
        assert report.source == "search-fallback" and report.note is None
    for n in range(6, 10):
        report = answer(n, 4)
        assert report.dim == n - 1
        assert report.note == "complete-graph fringe: dimension from exact search"


def test_witness_keys_the_table_on_the_requested_t():
    # C(5, +/-{1..4}) folds to C(5, +/-{1, 2}); only the t = 4 request has a row
    g = make_consecutive(5, 4)
    assert g.t == 2
    report = answer(5, 4)
    assert report.source == "remark-5" and report.matches_formula
    report = answer(5, 2)
    assert report.source == "search-fallback" and not report.matches_formula
    # n = 11 has a t = 4 row, which a t = 2 request does not read
    assert answer(11, 2).source == "search-fallback"


def test_rejects_tiny_orders():
    with pytest.raises(ValueError):
        basis_t4(4)
    with pytest.raises(ValueError, match="method must be one of"):
        answer(13, 4, "bogus")


def test_basis_t4_answers_are_pinned(monkeypatch):
    # basis, source tag, checks and note for n = 5..160, and the 15 orders
    # the default budget refuses (80, 88, ..., 152, 154, 155, 157, 158,
    # 160): those refusals are what `circmd dim --t 4` exits 3 on
    monkeypatch.delenv("CIRCMD_BUDGET", raising=False)
    digest = hashlib.sha256()
    for n in range(5, 161):
        try:
            r = basis_t4(n)
        except BudgetExceededError:
            digest.update(repr((n, "refused")).encode())
            continue
        digest.update(repr((n, r.basis, r.source, r.verified,
                            r.matches_formula, r.note)).encode())
    assert digest.hexdigest().startswith("a5329bdc3185fd3b")
