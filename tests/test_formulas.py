import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circmd.formulas import (
    DIMS,
    FAMILIES,
    SPORADIC,
    BoundsReport,
    formula_dim,
    known_bounds,
    split,
    table_row,
)
from circmd.graph import make_consecutive
from circmd.resolve import is_resolving

T4_EXCEPTIONS = {n for t, n in SPORADIC if t == 4}


def test_t4_residue_values():
    assert formula_dim(12, 4) == 4
    assert formula_dim(20, 4) == 4
    assert formula_dim(10, 4) == 5
    assert formula_dim(13, 4) == 5
    assert formula_dim(14, 4) == 5
    assert formula_dim(16, 4) == 6
    assert formula_dim(15, 4) == 6
    assert formula_dim(17, 4) == 6


def test_t4_exceptions_are_dimension_four():
    assert T4_EXCEPTIONS == {5, 11, 19}
    for n in T4_EXCEPTIONS:
        assert formula_dim(n, 4) == 4
    # without the exceptions the residues would say 5 and 6
    assert formula_dim(27, 4) == 5
    assert formula_dim(25, 4) == 6


def test_t4_abstains_on_near_complete_fringe():
    for n in (6, 7, 8, 9):
        assert formula_dim(n, 4) is None


def test_t2_t3_values():
    assert formula_dim(9, 2) == 4
    assert formula_dim(10, 2) == 3
    assert formula_dim(13, 3) == 5
    assert formula_dim(12, 3) == 4


def test_unknown_t_abstains():
    assert formula_dim(30, 5) is None
    assert formula_dim(5, 2) is None


@given(st.integers(min_value=10, max_value=200))
def test_t4_formula_has_period_eight(n):
    if n in T4_EXCEPTIONS or n + 8 in T4_EXCEPTIONS:
        return
    assert formula_dim(n, 4) == formula_dim(n + 8, 4)


def test_known_bounds_examples():
    b = known_bounds(12, 4)
    assert (b.lower, b.upper) == (4, 5)
    assert "ub-even-step" in b.provenance
    assert known_bounds(20, 4).lower == 4
    assert known_bounds(20, 4).upper == 5
    assert known_bounds(14, 4).lower == 5
    assert "lb-residue" in known_bounds(14, 4).provenance


def test_known_bounds_is_none_outside_its_rules():
    # no rule holds for t = 1 or below n = 2t + 2, where the graph is complete
    # or nearly so; everywhere else lb-general at least applies
    for n in range(3, 61):
        for t in range(1, n // 2 + 1):
            b = known_bounds(n, t)
            assert (b is None) == (t < 2 or n < 2 * t + 2), (n, t)
            assert b is None or b.provenance[0] == "lb-general", (n, t)


@given(st.integers(min_value=10, max_value=200))
@settings(deadline=None)
def test_formula_lies_within_bounds(n):
    for t in (2, 3, 4):
        if n < 2 * t + 2:
            continue
        dim = formula_dim(n, t)
        if dim is None:
            continue
        b = known_bounds(n, t)
        assert b.lower <= dim
        if b.upper is not None:
            assert dim <= b.upper


def test_bounds_report_validation():
    with pytest.raises(ValueError):
        BoundsReport(0, 3, ())
    with pytest.raises(ValueError):
        BoundsReport(4, 3, ())
    b = BoundsReport(4, 5, ())
    with pytest.raises(AttributeError):
        b.lower = 5
    with pytest.raises(ValueError, match="at least 1"):
        b._replace(lower=0)


def _known_bounds_by_scan(n, t):
    """The bounds as first written: each rule scans every k with n = 2kt + r."""
    lower, provenance = t, ["lb-general"]
    if any(t + 2 <= n - 2 * k * t <= 2 * t + 1 for k in range(n // (2 * t) + 1)):
        lower = t + 1
        provenance.append("lb-residue")
    upper = None
    if t % 2 == 0:
        steps = [(n - 2 * k * t - t) // 2 for k in range(n // (2 * t) + 1)
                 if n - 2 * k * t - t >= 2 and (n - 2 * k * t - t) % 2 == 0]
        if steps:
            upper = t + min(steps)
            provenance.append("ub-even-step")
    if any(2 <= n - 2 * k * t <= t + 2 for k in range(1, n // (2 * t) + 1)):
        upper = t + 1 if upper is None else min(upper, t + 1)
        provenance.append("ub-residue")
    return lower, upper, tuple(provenance)


def test_residue_tests_match_the_scanning_bounds():
    for t in range(2, 25):
        for n in range(2 * t + 2, 3000):
            b = known_bounds(n, t)
            assert (b.lower, b.upper, b.provenance) == _known_bounds_by_scan(n, t), (n, t)


def _formula_dim_by_ladder(n, t):
    """The closed forms as first written: one branch per t."""
    if t == 2 and n >= 6:
        return 4 if n % 4 == 1 else 3
    if t == 3 and n >= 8:
        return 5 if n % 6 == 1 else 4
    if t == 4:
        if n in (5, 11, 19):
            return 4
        if n >= 10:
            r = n % 8
            if r == 4:
                return 4
            if r in (2, 3, 5, 6):
                return 5
            return 6  # r in (0, 1, 7)
    return None


def test_table_matches_the_ladder():
    for t in range(1, 9):
        for n in range(3, 3000):
            assert formula_dim(n, t) == _formula_dim_by_ladder(n, t), (n, t)
    with pytest.raises(ValueError, match="order must be at least 3, got 2"):
        table_row(2, 4)


def test_sporadic_witnesses_resolve_at_the_formula_size():
    for (t, n), basis in SPORADIC.items():
        assert len({v % n for v in basis}) == len(basis) == formula_dim(n, t), (t, n)
        assert is_resolving(make_consecutive(n, t), basis) is None, (t, n)


def test_family_rows_resolve_at_the_table_size():
    for (t, s), (_, rule) in FAMILIES.items():
        for k in range(1, 41):
            n = 2 * t * k + s
            basis = [a + b * k for a, b in rule]
            assert len({v % n for v in basis}) == len(basis) == DIMS[t][s - 2], (t, s, k)
            assert is_resolving(make_consecutive(n, t), basis) is None, (t, s, k)


def _split_8k_r(n):
    """The t = 4 decomposition as first written: n = 8k + r, r in {2..9}."""
    if n < 10:
        raise ValueError(f"decomposition n = 8k + r needs n >= 10, got {n}")
    k = (n - 2) // 8
    return k, n - 8 * k


def test_split_matches_the_8k_r_decomposition():
    for n in range(10, 3000):
        assert split(n, 4) == _split_8k_r(n), n


def test_split_writes_n_as_2tk_plus_s():
    for t in range(1, 9):
        for n in range(2 * t + 2, 3000):
            k, s = split(n, t)
            assert n == 2 * t * k + s and k >= 1 and 2 <= s <= 2 * t + 1, (n, t)
        with pytest.raises(ValueError):
            split(2 * t + 1, t)
    for t in (0, -1):
        with pytest.raises(ValueError):
            split(10, t)
