"""The naive reference implementations, and spot checks against the kernels."""

import pytest

import grids
from latinsq import (
    DomainError,
    LatinSquare,
    PartialLatinSquare,
    complete_partial,
    cyclic_square,
    find_disjoint_transversals,
    find_quasicomplete_mappings,
    find_transversals,
    random_square,
)
from latinsq.oracle import (
    OracleBudgetError,
    oracle_completions,
    oracle_disjoint_families,
    oracle_quasicomplete,
    oracle_transversals,
)


class TestOracleTransversals:
    def test_cyclic_counts(self):
        assert len(oracle_transversals(cyclic_square(3))) == 3
        assert len(oracle_transversals(cyclic_square(4))) == 0
        assert len(oracle_transversals(cyclic_square(5))) == 15

    def test_accepts_raw_rows(self):
        assert len(oracle_transversals(grids.CYCLIC3)) == 3


class TestOracleQuasicomplete:
    def test_trivial(self):
        assert oracle_quasicomplete([[1]]) == []

    def test_order_two(self):
        assert oracle_quasicomplete([[1, 2], [2, 1]]) == [(1, 2), (2, 1)]

    def test_example_square(self):
        assert grids.QC_SIGMA in oracle_quasicomplete(grids.QC_BASE4)


class TestOracleDisjointFamilies:
    def test_cyclic_three(self):
        shifts = [(1, 2, 3), (2, 3, 1), (3, 1, 2)]
        assert oracle_disjoint_families(grids.CYCLIC3, 1) == [(t,) for t in shifts]
        assert oracle_disjoint_families(grids.CYCLIC3, 2) == [
            (shifts[0], shifts[1]), (shifts[0], shifts[2]),
            (shifts[1], shifts[2])]
        assert oracle_disjoint_families(grids.CYCLIC3, 3) == [tuple(shifts)]

    def test_no_transversals(self):
        assert oracle_disjoint_families(cyclic_square(4), 2) == []

    def test_members_are_cell_disjoint(self):
        for fam in oracle_disjoint_families(cyclic_square(5), 3):
            cells = {(x, c) for t in fam for x, c in enumerate(t)}
            assert len(cells) == 15


class TestOracleCompletions:
    def test_empty_grids(self):
        assert oracle_completions([[None, None], [None, None]]) == 2
        assert oracle_completions([[None] * 3 for _ in range(3)]) == 12

    def test_full_square(self):
        assert oracle_completions(grids.CYCLIC3) == 1

    def test_unsolvable(self):
        assert oracle_completions([[1, None], [None, 2]]) == 0

    def test_budget_refusal(self):
        with pytest.raises(OracleBudgetError):
            oracle_completions([[None] * 5 for _ in range(5)], budget=10)


class TestRefusals:
    def test_order_cap(self):
        big = cyclic_square(8)
        with pytest.raises(DomainError):
            oracle_transversals(big)
        with pytest.raises(DomainError):
            oracle_quasicomplete(big)
        with pytest.raises(DomainError):
            oracle_disjoint_families(big, 2)
        with pytest.raises(DomainError):
            oracle_completions(big)

    def test_non_square(self):
        with pytest.raises(DomainError):
            oracle_transversals([[1, 2], [1]])


class TestSpotAgreement:
    """Light kernel/oracle cross-checks; the full corpus runs in acceptance."""

    def test_transversal_sets_match(self):
        for sq in (cyclic_square(5), random_square(5, 3), random_square(6, 4)):
            kernel = {t.cols for t in find_transversals(sq)}
            assert kernel == set(oracle_transversals(sq))

    def test_quasicomplete_sets_match(self):
        for sq in (LatinSquare(grids.QC_BASE4), random_square(5, 8)):
            kernel = {r.sigma for r in find_quasicomplete_mappings(sq)}
            assert kernel == set(oracle_quasicomplete(sq))

    def test_disjoint_family_lists_match(self):
        for sq in (cyclic_square(5), random_square(6, 4)):
            for k in (2, 3):
                kernel = [tuple(t.cols for t in f)
                          for f in find_disjoint_transversals(sq, k)]
                assert kernel == oracle_disjoint_families(sq, k)

    def test_completion_counts_match(self):
        grid = [list(row) for row in random_square(5, 11).rows]
        for (r, c) in ((1, 1), (2, 3), (3, 0), (4, 4), (0, 2), (2, 2)):
            grid[r][c] = None
        partial = PartialLatinSquare(tuple(tuple(row) for row in grid))
        assert len(complete_partial(partial)) == oracle_completions(partial)
