import pytest

from circmd.constructions import (
    REMARK_19_PUBLISHED,
    basis_t4,
    family_basis_8k7,
    family_basis_8k9,
    verify_construction_range,
)
from circmd.formulas import formula_dim
from circmd.graph import make_consecutive
from circmd.resolve import is_resolving
from circmd.solver import find_basis_of_size


def test_family_witnesses():
    assert family_basis_8k9(1) == (0, 1, 4, 7, 10, 11)
    assert family_basis_8k7(2) == (0, 1, 2, 3, 4, 5)
    with pytest.raises(ValueError):
        family_basis_8k9(0)


def test_families_resolve_and_match_formula():
    for residue in (7, 9):
        verdicts = verify_construction_range(residue, 30)
        assert all(v.ok for v in verdicts)
        assert [v.n for v in verdicts] == [8 * k + residue for k in range(1, 31)]


def test_verify_construction_range_validates_input():
    with pytest.raises(ValueError):
        verify_construction_range(6, 5)
    with pytest.raises(ValueError):
        verify_construction_range(7, 0)


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


def test_rejects_tiny_orders():
    with pytest.raises(ValueError):
        basis_t4(4)
