"""Prolongation and contraction operations against frozen references."""

import itertools
import random
import re
import time

import pytest

import grids
from latinsq import (
    CellOrigin,
    ConstructionReport,
    DomainError,
    GridError,
    InfeasibleError,
    LatinSquare,
    complete_partial,
    conjugated_mapping,
    contract_bruck,
    contract_except,
    cyclic_square,
    feasible_contractions,
    find_quasicomplete_mappings,
    find_transversals,
    is_latin,
    parse_lsq,
    permuted,
    prolong_belyavskaya,
    prolong_belyavskaya_gen,
    prolong_bruck,
    prolong_dd,
    prolong_dd_gen,
    prolong_disjoint,
    random_square,
    transversal_of,
    two_step,
)

CYC3 = cyclic_square(3)
QC4 = LatinSquare(grids.QC_BASE4)


def naive_contractions(rows, method):
    """Every (deleted, rows, sigma, sigma_bar, kind, special, pair) that
    contracting by one symbol yields, repairing the grid cell by cell."""
    m = len(rows)
    n = m - 1
    found = []
    for d in range(1, m + 1):
        if (rows[n][n] == d) != (method == "bruck"):
            continue
        # A cell holding d takes its row's last value; the row whose last
        # value is d keeps its cells and recovers the column where the
        # last row holds d.
        small = [[row[n] if v == d and row[n] != d else v for v in row[:n]]
                 for row in rows[:n]]
        sigma = tuple(row[:n].index(d) + 1 if d in row[:n]
                      else rows[n].index(d) + 1 for row in rows[:n])
        small = tuple(tuple(v - 1 if v > d else v for v in row)
                      for row in small)
        lines = list(small) + list(zip(*small))
        if any(sorted(line) != list(range(1, m)) for line in lines):
            continue
        bar = tuple(small[x][sigma[x] - 1] for x in range(n))
        missing = [s for s in range(1, m) if s not in bar]
        twice = tuple(x + 1 for x in range(n) if bar.count(bar[x]) == 2)
        if not missing:
            found.append((d, small, sigma, bar, "complete", None, None))
        elif len(missing) == 1:
            found.append((d, small, sigma, bar, "quasicomplete",
                           missing[0], twice))
        else:
            found.append((d, small, sigma, bar, "neither", None, None))
    return found


def origin(rep, r, c):
    o = rep.provenance[(r, c)]
    return o.kind, o.step


class TestBruck:
    def test_reference_grid(self):
        rep = prolong_bruck(CYC3, grids.T_BLUE)
        assert rep.output.rows == grids.BRUCK_OUT4

    def test_accepts_transversal_object(self):
        t = transversal_of(CYC3, grids.T_BLUE)
        assert prolong_bruck(CYC3, t).output.rows == grids.BRUCK_OUT4

    def test_order_one(self):
        rep = prolong_bruck([[1]], (1,))
        assert rep.output.rows == ((2, 1), (1, 2))

    def test_identity_transversal_gives_constant_diagonal(self):
        rep = prolong_bruck(CYC3, grids.T_YELLOW)
        assert all(rep.output.cell(i, i) == 4 for i in range(1, 5))
        assert is_latin(rep.output)

    def test_provenance(self):
        rep = prolong_bruck(CYC3, grids.T_BLUE)
        assert origin(rep, 1, 3) == ("vacated", 1)
        assert origin(rep, 1, 4) == ("projected_col", 1)
        assert origin(rep, 4, 3) == ("projected_row", 1)
        assert origin(rep, 4, 4) == ("border_fill", 1)
        assert origin(rep, 1, 1) == ("unchanged", None)
        for (r, c), o in rep.provenance.items():
            if o.kind == "unchanged":
                assert rep.output.cell(r, c) == CYC3.cell(r, c)

    def test_rejects_non_transversal(self):
        with pytest.raises(DomainError):
            prolong_bruck(cyclic_square(4), (1, 2, 3, 4))
        for cols in ([3.0, 1.0, 2.0], [3, True, 2]):
            with pytest.raises(DomainError, match="must be a permutation of 1..3"):
                prolong_bruck(CYC3, cols)


class TestDisjoint:
    def test_reference_k2(self):
        rep = prolong_disjoint(CYC3, [grids.T_YELLOW, grids.T_GREEN],
                               bottom=[[5, 4], [4, 5]])
        assert rep.output.rows == grids.DISJ_OUT5

    def test_row_assign_swaps_projected_rows_only(self):
        rep = prolong_disjoint(CYC3, [grids.T_YELLOW, grids.T_GREEN],
                               bottom=[[5, 4], [4, 5]], row_assign=(2, 1))
        assert rep.output.rows == grids.DISJ_OUT5_SWAPPED

    def test_reference_k3(self):
        rep = prolong_disjoint(CYC3, [grids.T_YELLOW, grids.T_GREEN, grids.T_BLUE],
                               fill=(6, 5, 4))
        assert rep.output.rows == grids.DISJ_OUT6

    def test_default_bottom_is_cyclic(self):
        rep = prolong_disjoint(CYC3, [grids.T_YELLOW, grids.T_GREEN])
        assert [row[3:] for row in rep.output.rows[3:]] == [(4, 5), (5, 4)]

    def test_k1_equals_bruck(self):
        assert prolong_disjoint(CYC3, [grids.T_BLUE]).output == \
            prolong_bruck(CYC3, grids.T_BLUE).output

    def test_provenance(self):
        rep = prolong_disjoint(CYC3, [grids.T_YELLOW, grids.T_GREEN],
                               bottom=[[5, 4], [4, 5]])
        assert origin(rep, 2, 2) == ("vacated", 1)
        assert origin(rep, 2, 3) == ("vacated", 2)
        assert origin(rep, 2, 4) == ("projected_col", 1)
        assert origin(rep, 5, 1) == ("projected_row", 2)
        assert origin(rep, 4, 5) == ("border_fill", None)

    def test_rejects_overlapping_transversals(self):
        with pytest.raises(DomainError, match="share cell"):
            prolong_disjoint(cyclic_square(5), [(1, 2, 3, 4, 5), (1, 3, 5, 2, 4)])

    def test_rejects_no_transversals(self):
        with pytest.raises(DomainError, match="need between 1 and 3 parameter objects"):
            prolong_disjoint(CYC3, [])

    def test_rejects_bad_bottom(self):
        pair = [grids.T_YELLOW, grids.T_GREEN]
        with pytest.raises(DomainError):
            prolong_disjoint(CYC3, pair, bottom=[[5, 4]])
        with pytest.raises(DomainError):
            prolong_disjoint(CYC3, pair, bottom=[[5, 4], [5, 4]])
        with pytest.raises(DomainError):
            prolong_disjoint(CYC3, pair, bottom=[[1, 2], [2, 1]])

    def test_rejects_bad_fill_and_assignments(self):
        pair = [grids.T_YELLOW, grids.T_GREEN]
        with pytest.raises(DomainError):
            prolong_disjoint(CYC3, pair, fill=(4, 4))
        with pytest.raises(DomainError):
            prolong_disjoint(CYC3, pair, fill=(1, 2))
        with pytest.raises(DomainError, match="fill must be a bijection"):
            prolong_disjoint(CYC3, pair, fill=(4.0, 5.0))
        with pytest.raises(DomainError):
            prolong_disjoint(CYC3, pair, col_assign=(2, 2))

    def test_empty_assignments_are_not_the_default(self):
        pair = [grids.T_YELLOW, grids.T_GREEN]
        with pytest.raises(DomainError, match="col_assign"):
            prolong_disjoint(CYC3, pair, col_assign=())
        with pytest.raises(DomainError, match="row_assign"):
            prolong_disjoint(CYC3, pair, row_assign=())
        with pytest.raises(DomainError, match="row_assign"):
            prolong_dd_gen(QC4, [((1, 3, 2, 4), 4)], row_assign=())


class TestBelyavskaya:
    def test_reference_grid(self):
        rep = prolong_belyavskaya(CYC3, grids.T_BLUE, (2, 1))
        assert rep.output.rows == grids.BEL_OUT4

    def test_order_one(self):
        rep = prolong_belyavskaya([[1]], (1,), (1, 1))
        assert rep.output.rows == ((1, 2), (2, 1))

    def test_equals_bruck_with_intercalate_swapped(self):
        bruck = prolong_bruck(CYC3, grids.T_BLUE).output
        grid = [list(row) for row in bruck.rows]
        for r in (2, 4):
            for c in (1, 4):
                grid[r - 1][c - 1] = {4: 2, 2: 4}[grid[r - 1][c - 1]]
        assert tuple(tuple(row) for row in grid) == grids.BEL_OUT4

    def test_provenance(self):
        rep = prolong_belyavskaya(CYC3, grids.T_BLUE, (2, 1))
        assert origin(rep, 2, 1) == ("kept", 1)
        assert origin(rep, 2, 4) == ("border_fill", 1)
        assert origin(rep, 4, 1) == ("border_fill", 1)
        assert origin(rep, 4, 4) == ("diagonal_seed", 1)
        assert origin(rep, 1, 3) == ("vacated", 1)

    def test_excepted_must_lie_on_transversal(self):
        with pytest.raises(DomainError):
            prolong_belyavskaya(CYC3, grids.T_BLUE, (2, 2))
        with pytest.raises(DomainError):
            prolong_belyavskaya(CYC3, grids.T_BLUE, (0, 1))
        with pytest.raises(DomainError, match="does not lie on"):
            prolong_belyavskaya(CYC3, grids.T_BLUE, (2.0, 1.0))
        for cell in (5, None, (1,), (1, 2, 3)):
            with pytest.raises(DomainError, match="does not lie on the transversal"):
                prolong_belyavskaya(CYC3, grids.T_BLUE, cell)
            with pytest.raises(DomainError, match="does not lie on its transversal"):
                prolong_belyavskaya_gen(CYC3, [(grids.T_BLUE, cell)])
        # a list cell works, and reads as a tuple in prolong_belyavskaya_gen
        assert prolong_belyavskaya(CYC3, grids.T_BLUE, [2, 1]).output.rows == \
            grids.BEL_OUT4
        [rep] = prolong_belyavskaya_gen(CYC3, [(grids.T_BLUE, [2, 1])])
        assert rep.output.rows == grids.BEL_OUT4
        with pytest.raises(DomainError, match=re.escape("excepted cell (2, 2) ")):
            prolong_belyavskaya_gen(CYC3, [(grids.T_BLUE, [2, 2])])


class TestBelyavskayaGen:
    def test_five_by_five_unique_completion(self):
        reports = prolong_belyavskaya_gen(
            CYC3, [(grids.T_YELLOW, (1, 1)), (grids.T_GREEN, (2, 3))], fill=(5, 4))
        assert len(reports) == 1
        assert reports[0].output.rows == grids.GENBEL_OUT5
        assert reports[0].completions_found == 1

    def test_six_by_six_two_completions(self):
        reports = prolong_belyavskaya_gen(
            CYC3, [(grids.T_YELLOW, (2, 2)), (grids.T_GREEN, (3, 1)),
                   (grids.T_BLUE, (3, 2))])
        assert len(reports) == 2
        assert any(r.output.rows == grids.GENBEL_OUT6 for r in reports)
        assert all(r.completions_found == 2 for r in reports)

    def test_k1_equals_plain_belyavskaya(self):
        reports = prolong_belyavskaya_gen(CYC3, [(grids.T_BLUE, (2, 1))])
        assert len(reports) == 1
        assert reports[0].output.rows == grids.BEL_OUT4

    def test_limit(self):
        params = [(grids.T_YELLOW, (2, 2)), (grids.T_GREEN, (3, 1)),
                  (grids.T_BLUE, (3, 2))]
        capped = prolong_belyavskaya_gen(CYC3, params, limit=1)
        assert len(capped) == 1
        assert capped[0].completions_found == 1

    def test_provenance(self):
        rep = prolong_belyavskaya_gen(
            CYC3, [(grids.T_YELLOW, (1, 1)), (grids.T_GREEN, (2, 3))],
            fill=(5, 4))[0]
        assert origin(rep, 1, 1) == ("kept", 1)
        assert origin(rep, 2, 3) == ("kept", 2)
        assert origin(rep, 1, 4) == ("border_fill", 1)
        assert origin(rep, 5, 3) == ("border_fill", 2)
        for cell in ((4, 4), (4, 5), (5, 4), (5, 5)):
            assert rep.provenance[cell].kind == "completed"


PAIR_1_4 = (1, 4, 2, 3)  # a quasicomplete mapping of QC4


class TestDD:
    def test_reference_grid(self):
        rep = prolong_dd(QC4, grids.QC_SIGMA, 4)
        assert rep.output.rows == grids.DD_OUT5

    def test_order_two(self):
        rep = prolong_dd([[1, 2], [2, 1]], (1, 2), 2)
        assert rep.output.rows == ((3, 2, 1), (2, 1, 3), (1, 3, 2))

    def test_identity_on_intermediate_square(self):
        rep = prolong_dd(grids.BEL_OUT4, (1, 2, 3, 4), 4)
        assert rep.output.rows == grids.TWOSTEP_OUT5

    def test_default_kept_is_larger_pair_element(self):
        assert prolong_dd(QC4, grids.QC_SIGMA).output.rows == grids.DD_OUT5

    def test_provenance(self):
        rep = prolong_dd(QC4, grids.QC_SIGMA, 4)
        assert origin(rep, 4, 4) == ("kept", 1)
        assert origin(rep, 4, 5) == ("border_fill", 1)
        assert origin(rep, 5, 4) == ("border_fill", 1)
        assert origin(rep, 5, 5) == ("diagonal_seed", 1)
        assert origin(rep, 1, 1) == ("vacated", 1)

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError, match="not quasicomplete"):
            prolong_dd(CYC3, grids.T_BLUE)
        with pytest.raises(DomainError, match="not quasicomplete"):
            prolong_dd(cyclic_square(4), (1, 2, 3, 4))
        with pytest.raises(DomainError, match="duplicate pair"):
            prolong_dd(QC4, grids.QC_SIGMA, 1)
        # QC_SIGMA's duplicate pair is (3, 4), PAIR_1_4's is (1, 4)
        for sigma, kept in ((grids.QC_SIGMA, 3.0), (PAIR_1_4, True)):
            with pytest.raises(DomainError, match="duplicate pair"):
                prolong_dd(QC4, sigma, kept)
            with pytest.raises(DomainError, match="duplicate pair"):
                prolong_dd_gen(QC4, [(sigma, kept)])


class TestDDGen:
    PARAMS = [((1, 3, 2, 4), 4), ((2, 1, 4, 3), 4)]

    def test_reference_unique_completion(self):
        reports = prolong_dd_gen(QC4, self.PARAMS)
        assert len(reports) == 1
        assert reports[0].output.rows == grids.GENDD_OUT6
        assert reports[0].completions_found == 1

    def test_unseeded_diagonal_still_finds_reference(self):
        reports = prolong_dd_gen(QC4, self.PARAMS, seed_diagonal=False)
        assert any(r.output.rows == grids.GENDD_OUT6 for r in reports)

    def test_searched_cells_and_seeds(self):
        rep = prolong_dd_gen(QC4, self.PARAMS)[0]
        assert origin(rep, 5, 5) == ("diagonal_seed", 1)
        assert origin(rep, 6, 6) == ("diagonal_seed", 2)
        searched = {cell for cell, o in rep.provenance.items()
                    if o.kind == "completed"}
        assert searched == {(4, 5), (4, 6), (5, 4), (5, 6), (6, 3), (6, 5)}

    def test_border_cells_cannot_be_filled_with_new_symbol(self):
        # Writing the first new symbol into the kept row's new column (the
        # analogue of the deterministic fill used elsewhere) kills the search.
        rep = prolong_dd_gen(QC4, self.PARAMS)[0]
        grid = [list(row) for row in rep.output.rows]
        for (r, c), o in rep.provenance.items():
            if o.kind == "completed":
                grid[r - 1][c - 1] = None
        grid[3][4] = 5
        assert complete_partial(grid) == []

    def test_k1_equals_plain_dd(self):
        reports = prolong_dd_gen(QC4, [(grids.QC_SIGMA, 4)])
        assert len(reports) == 1
        assert reports[0].output == prolong_dd(QC4, grids.QC_SIGMA, 4).output

    def test_rejects_overlapping_mappings(self):
        with pytest.raises(DomainError, match="share cell"):
            prolong_dd_gen(QC4, [((1, 3, 2, 4), None), ((1, 3, 2, 4), None)])


class TestTwoStep:
    def test_belyavskaya_first_reference(self):
        rep = two_step(CYC3, grids.T_BLUE, grids.T_YELLOW,
                       first="belyavskaya", excepted=(2, 1))
        assert rep.output.rows == grids.TWOSTEP_OUT5
        assert rep.intermediate.kind == "quasicomplete"
        assert rep.intermediate.special == 4
        assert rep.intermediate.sigma_bar == (1, 3, 2, 2)

    def test_bruck_first_is_complete(self):
        rep = two_step(CYC3, grids.T_BLUE, grids.T_YELLOW, first="bruck")
        assert rep.intermediate.kind == "complete"
        assert rep.intermediate.sigma_bar == (1, 3, 2, 4)
        assert rep.output.order == 5
        assert is_latin(rep.output)

    def test_default_kept_cell_is_corner(self):
        rep = two_step(CYC3, grids.T_BLUE, grids.T_YELLOW,
                       first="belyavskaya", excepted=(2, 1))
        assert origin(rep, 4, 4) == ("kept", 2)
        assert rep.output.cell(4, 4) == 2

    def test_provenance_merges_steps(self):
        rep = two_step(CYC3, grids.T_BLUE, grids.T_YELLOW,
                       first="belyavskaya", excepted=(2, 1))
        assert origin(rep, 2, 1) == ("kept", 1)
        assert origin(rep, 2, 4) == ("border_fill", 1)
        assert origin(rep, 1, 1) == ("vacated", 2)
        assert origin(rep, 5, 5) == ("diagonal_seed", 2)
        assert origin(rep, 2, 5) == ("projected_col", 2)

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError, match="share cell"):
            two_step(CYC3, grids.T_BLUE, grids.T_BLUE)
        with pytest.raises(DomainError, match="excepted cell"):
            two_step(CYC3, grids.T_BLUE, grids.T_YELLOW, first="belyavskaya")
        with pytest.raises(DomainError, match="first step"):
            two_step(CYC3, grids.T_BLUE, grids.T_YELLOW, first="dd")
        # None is the missing excepted cell, rejected above
        for cell in (5, (1,), (1, 2, 3)):
            with pytest.raises(DomainError, match="does not lie on the transversal"):
                two_step(CYC3, grids.T_BLUE, grids.T_YELLOW, first="belyavskaya",
                         excepted=cell)
        # sigma2's duplicate pair is (3, 4) for excepted (2, 1), (1, 4) for (3, 2)
        for cell, kept in (((2, 1), 3.0), ((3, 2), True)):
            with pytest.raises(DomainError, match="duplicate pair"):
                two_step(CYC3, grids.T_BLUE, grids.T_YELLOW, first="belyavskaya",
                         excepted=cell, kept_choice=kept)

    def test_bruck_first_rejects_belyavskaya_arguments(self):
        with pytest.raises(DomainError, match="excepted applies only"):
            two_step(CYC3, grids.T_BLUE, grids.T_YELLOW, excepted=(2, 1))
        with pytest.raises(DomainError, match="kept_choice applies only"):
            two_step(CYC3, grids.T_BLUE, grids.T_YELLOW, first="bruck",
                     kept_choice=4)


def reference_two_step(square, t1, t2, first, excepted=None, kept_choice=None):
    """two_step as the composition of the public single-step prolongations,
    with the step-2 provenance merged over the step-1 provenance."""
    n = square.order
    if first == "bruck":
        rep1 = prolong_bruck(square, t1)
    else:
        rep1 = prolong_belyavskaya(square, t1, excepted)
    sigma2 = t2.cols + (n + 1,)
    rec2 = conjugated_mapping(rep1.output, sigma2)
    if rec2.kind == "complete":
        rep2 = prolong_bruck(rep1.output, sigma2)
    else:
        rep2 = prolong_dd(rep1.output, sigma2,
                          n + 1 if kept_choice is None else kept_choice)
    prov = {}
    for cell, o in rep2.provenance.items():
        if o.kind == "unchanged":
            prov[cell] = rep1.provenance[cell]
        else:
            prov[cell] = CellOrigin(o.kind, 2)
    return rep2.output, prov, rec2


def _disjoint_pairs(transversals, most):
    pairs = [(a, b) for a, b in itertools.combinations(transversals, 2)
             if not set(a.cells()) & set(b.cells())]
    return pairs[:most]


def test_two_step_is_the_composition_of_single_steps(pool, transversal_cache):
    calls = 0

    def check(sq, t1, t2, first, cell=None, kept=None):
        nonlocal calls
        out, prov, rec2 = reference_two_step(sq, t1, t2, first, cell, kept)
        rep = two_step(sq, t1, t2, first, cell, kept)
        assert rep.output == out
        assert dict(rep.provenance) == prov
        assert rep.intermediate == rec2
        calls += 1
        return rec2

    for n, squares in pool.items():
        for sq in squares:
            for a, b in _disjoint_pairs(transversal_cache[sq], 3):
                for t1, t2 in ((a, b), (b, a)):
                    check(sq, t1, t2, "bruck")
                    for x in range(1, n + 1):
                        cell = (x, t1.cols[x - 1])
                        rec2 = check(sq, t1, t2, "belyavskaya", cell)
                        for kept in rec2.duplicate_pair:
                            check(sq, t1, t2, "belyavskaya", cell, kept)
    assert calls > 1000


class TestContractBruck:
    def test_reference_reverse(self):
        small, t = contract_bruck(grids.BRUCK_OUT4, 4)
        assert small.rows == grids.CYCLIC3
        assert t.cols == grids.T_BLUE

    def test_order_two(self):
        small, t = contract_bruck([[2, 1], [1, 2]], 2)
        assert small.rows == ((1,),)
        assert t.cols == (1,)

    def test_corner_mismatch_is_infeasible(self):
        with pytest.raises(InfeasibleError, match="corner"):
            contract_bruck(grids.BRUCK_OUT4, 1)

    def test_non_latin_repair_is_infeasible(self):
        with pytest.raises(InfeasibleError, match="not leave a Latin square"):
            contract_bruck(cyclic_square(4), 3)

    def test_relabels_when_deleted_is_interior_symbol(self):
        swapped = tuple(tuple({4: 2, 2: 4}.get(v, v) for v in row)
                        for row in grids.BRUCK_OUT4)
        small, t = contract_bruck(swapped, 2)
        assert small.rows == ((1, 3, 2), (3, 2, 1), (2, 1, 3))
        assert t.cols == (3, 1, 2)
        assert t.values == (2, 3, 1)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            contract_bruck([[1]], 1)
        for deleted in (9, 4.0, True):
            with pytest.raises(DomainError, match="deleted symbol must be in 1..4"):
                contract_bruck(grids.BRUCK_OUT4, deleted)


class TestContractExcept:
    def test_reverses_belyavskaya(self):
        small, rec = contract_except(grids.BEL_OUT4, 4)
        assert small.rows == grids.CYCLIC3
        assert rec.sigma == grids.T_BLUE
        assert rec.kind == "complete"

    def test_reverses_dd(self):
        small, rec = contract_except(grids.DD_OUT5, 5)
        assert small.rows == grids.QC_BASE4
        assert rec.sigma == grids.QC_SIGMA
        assert rec.kind == "quasicomplete"
        assert rec.special == 1

    def test_order_two(self):
        small, rec = contract_except([[1, 2], [2, 1]], 2)
        assert small.rows == ((1,),)
        assert rec.sigma == (1,)
        assert rec.kind == "complete"

    def test_corner_match_is_infeasible(self):
        with pytest.raises(InfeasibleError, match="corner"):
            contract_except(grids.BRUCK_OUT4, 4)

    def test_non_latin_repair_is_infeasible(self):
        with pytest.raises(InfeasibleError, match="not leave a Latin square"):
            contract_except(cyclic_square(4), 2)

    def test_domain_errors(self):
        for deleted in (0, 4.0, True):
            with pytest.raises(DomainError, match="deleted symbol must be in 1..4"):
                contract_except(grids.BEL_OUT4, deleted)


class TestFeasibleContractions:
    def test_bruck_output_has_one_feasible_symbol(self):
        found = feasible_contractions(grids.BRUCK_OUT4, "bruck")
        assert [(d, small.rows, t.cols) for d, small, t in found] == \
            [(4, grids.CYCLIC3, grids.T_BLUE)]

    def test_belyavskaya_output(self):
        found = feasible_contractions(grids.BEL_OUT4, "except")
        assert [(d, small.rows, rec.sigma) for d, small, rec in found] == \
            [(4, grids.CYCLIC3, grids.T_BLUE)]

    def test_dd_output_contains_its_origin(self):
        found = feasible_contractions(grids.DD_OUT5, "except")
        by_symbol = {d: (small, rec) for d, small, rec in found}
        small, rec = by_symbol[5]
        assert small.rows == grids.QC_BASE4 and rec.kind == "quasicomplete"
        for _, small, rec in found:
            assert is_latin(small)
            assert rec.kind in ("complete", "quasicomplete")

    def test_square_without_contractions(self):
        assert feasible_contractions(cyclic_square(4), "bruck") == []

    def test_bad_method(self):
        with pytest.raises(DomainError):
            feasible_contractions(grids.BRUCK_OUT4, "dd")

    def test_except_try_all_skips_infeasible_symbols_cheaply(self):
        sq = cyclic_square(101)
        identity = tuple(range(1, 102))  # a transversal at odd order
        big = prolong_belyavskaya(sq, identity, (1, 1)).output
        start = time.perf_counter()
        found = feasible_contractions(big, "except")
        elapsed = time.perf_counter() - start
        assert [(d, small.rows, rec.sigma) for d, small, rec in found] == \
            [(102, sq.rows, identity)]
        assert elapsed < 0.25, f"{elapsed:.3f} s"

    def test_match_naive_reference(self):
        squares = [LatinSquare(g) for g in (
            grids.CYCLIC3, grids.BRUCK_OUT4, grids.DISJ_OUT5, grids.DISJ_OUT6,
            grids.BEL_OUT4, grids.GENBEL_OUT5, grids.GENBEL_OUT6,
            grids.QC_BASE4, grids.DD_OUT5, grids.GENDD_OUT6,
            grids.TWOSTEP_OUT5)]
        squares += [cyclic_square(n) for n in range(2, 7)]
        # Seeded prolongations with their symbols shuffled, so the new
        # symbol is rarely m and the contraction must relabel.
        rng = random.Random(20150720)
        for n in range(2, 8):
            for seed in range(3):
                sq = random_square(n, 500 * n + seed)
                bigs = []
                for t in find_transversals(sq, limit=3):
                    bigs.append(prolong_bruck(sq, t).output)
                    x0 = rng.randrange(n) + 1
                    bigs.append(prolong_belyavskaya(
                        sq, t, (x0, t.cols[x0 - 1])).output)
                for rec in find_quasicomplete_mappings(sq, limit=3):
                    bigs.append(prolong_dd(sq, rec,
                                           rng.choice(rec.duplicate_pair)).output)
                for big in bigs:
                    perm = list(range(1, n + 2))
                    rng.shuffle(perm)
                    squares.append(LatinSquare(tuple(
                        tuple(perm[v - 1] for v in row) for row in big.rows)))
        relabelled = 0
        for sq in squares:
            got = [(d, small.rows, t.cols, t.values, "complete", None, None)
                   for d, small, t in feasible_contractions(sq, "bruck")]
            got += [(d, small.rows, rec.sigma, rec.sigma_bar, rec.kind,
                     rec.special, rec.duplicate_pair)
                    for d, small, rec in feasible_contractions(sq, "except")]
            want = (naive_contractions(sq.rows, "bruck")
                    + naive_contractions(sq.rows, "except"))
            assert got == want, sq.rows
            relabelled += sum(d != sq.order for d, *_ in got)
        assert relabelled > 50


class TestReportPlumbing:
    def test_provenance_is_read_only(self):
        rep = prolong_bruck(CYC3, grids.T_BLUE)
        with pytest.raises(TypeError):
            rep.provenance[(1, 1)] = CellOrigin("unchanged")

    def test_provenance_must_cover_output(self):
        out = prolong_bruck(CYC3, grids.T_BLUE).output
        with pytest.raises(DomainError, match="cover every output cell"):
            ConstructionReport(out, {})

    def test_unknown_origin_kind(self):
        for kind, step in (("teleported", 1), (["kept"], 1), ({"k": 1}, 1),
                           ("kept", True), ("kept", 1.5), ("kept", 0)):
            fault = "origin step" if kind == "kept" else "unknown origin kind"
            with pytest.raises(DomainError, match=fault):
                CellOrigin(kind, step)

    def test_appended_rows_can_be_moved_afterwards(self):
        rep = prolong_bruck(CYC3, grids.T_BLUE)
        moved = permuted(rep.output, row_perm=(4, 1, 2, 3), col_perm=(4, 1, 2, 3))
        assert moved.cell(1, 1) == 4
        assert is_latin(moved)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: transversal_of(CYC3, 5), DomainError,
                 "transversal must be a permutation of 1..3, got 5",
                 id="transversal_of"),
    pytest.param(lambda: conjugated_mapping(CYC3, None), DomainError,
                 "sigma must be a permutation of 1..3, got None",
                 id="conjugated_mapping"),
    pytest.param(lambda: permuted(CYC3, 5), DomainError,
                 "row permutation must be a permutation of 1..3, got 5",
                 id="permuted"),
    pytest.param(lambda: two_step(CYC3, (1, 2, 3), None), DomainError,
                 "transversal must be a permutation of 1..3, got None", id="two_step"),
    pytest.param(lambda: prolong_disjoint(CYC3, None), DomainError,
                 "transversals must be a sequence, got None", id="disjoint"),
    pytest.param(lambda: prolong_disjoint(CYC3, [(1, 2, 3)], fill=5), DomainError,
                 "fill must be a sequence, got 5", id="disjoint-fill"),
    pytest.param(lambda: prolong_disjoint(CYC3, [(1, 2, 3)], bottom=5), DomainError,
                 "bottom block must be 1x1", id="disjoint-bottom"),
    pytest.param(lambda: prolong_disjoint(CYC3, [(1, 2, 3)], col_assign=5), DomainError,
                 "col_assign must be a permutation of 1..1, got 5",
                 id="disjoint-col_assign"),
    pytest.param(lambda: prolong_belyavskaya_gen(CYC3, [(1, 2, 3)]), DomainError,
                 "pairs must be a sequence of pairs, got [(1, 2, 3)]",
                 id="belyavskaya_gen"),
    pytest.param(lambda: prolong_dd_gen(QC4, [(1, 3, 2, 4)]), DomainError,
                 "pairs must be a sequence of pairs, got [(1, 3, 2, 4)]", id="dd_gen"),
    pytest.param(lambda: ConstructionReport(CYC3, None), DomainError,
                 "provenance must be a mapping, got None", id="report"),
    pytest.param(lambda: parse_lsq(b"1\n1\n"), GridError,
                 "LSQ text must be a str, got bytes", id="parse_lsq"),
])
def test_malformed_argument_container(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def _only(reports):
    assert len(reports) == 1
    return reports[0]


FROZEN_PROVENANCE = {
    "bruck": (lambda: prolong_bruck(CYC3, grids.T_BLUE), grids.BRUCK_PROV4),
    "disjoint_k2": (
        lambda: prolong_disjoint(CYC3, [grids.T_YELLOW, grids.T_GREEN],
                                 bottom=[[5, 4], [4, 5]]),
        grids.DISJ_PROV5),
    "disjoint_k2_row_assign": (
        lambda: prolong_disjoint(CYC3, [grids.T_YELLOW, grids.T_GREEN],
                                 bottom=[[5, 4], [4, 5]], row_assign=(2, 1)),
        grids.DISJ_PROV5_SWAPPED),
    "disjoint_k3": (
        lambda: prolong_disjoint(CYC3, [grids.T_YELLOW, grids.T_GREEN, grids.T_BLUE],
                                 fill=(6, 5, 4)),
        grids.DISJ_PROV6),
    "belyavskaya": (lambda: prolong_belyavskaya(CYC3, grids.T_BLUE, (2, 1)),
                    grids.BEL_PROV4),
    "belyavskaya_gen": (
        lambda: _only(prolong_belyavskaya_gen(
            CYC3, [(grids.T_YELLOW, (1, 1)), (grids.T_GREEN, (2, 3))], fill=(5, 4))),
        grids.GENBEL_PROV5),
    "dd": (lambda: prolong_dd(QC4, grids.QC_SIGMA, kept_x=4), grids.DD_PROV5),
    "dd_gen": (
        lambda: _only(prolong_dd_gen(QC4, [((1, 3, 2, 4), 4), ((2, 1, 4, 3), 4)])),
        grids.GENDD_PROV6),
    "dd_gen_col_assign": (
        lambda: _only(prolong_dd_gen(QC4, [((1, 3, 2, 4), 4), ((2, 1, 4, 3), 4)],
                                     col_assign=(2, 1))),
        grids.GENDD_PROV6_SWAPPED),
    "two_step_belyavskaya": (
        lambda: two_step(CYC3, grids.T_BLUE, grids.T_YELLOW,
                         first="belyavskaya", excepted=(2, 1)),
        grids.TWOSTEP_PROV5),
    "two_step_bruck": (
        lambda: two_step(CYC3, grids.T_BLUE, grids.T_YELLOW, first="bruck"),
        grids.TWOSTEP_BRUCK_PROV5),
}


@pytest.mark.parametrize("name", sorted(FROZEN_PROVENANCE))
def test_frozen_provenance(name):
    build, expected = FROZEN_PROVENANCE[name]
    rep = build()
    m = rep.output.order
    tokens = tuple(
        " ".join(grids.PROVENANCE_LETTERS[o.kind] + ("" if o.step is None else str(o.step))
                 for o in (rep.provenance[(r, c)] for c in range(1, m + 1)))
        for r in range(1, m + 1))
    assert tokens == expected


@pytest.mark.parametrize("name", sorted(FROZEN_PROVENANCE))
def test_provenance_view(name):
    rep = FROZEN_PROVENANCE[name][0]()
    prov = rep.provenance
    m = rep.output.order
    assert len(prov) == m * m
    assert list(prov) == [(r, c) for r in range(1, m + 1) for c in range(1, m + 1)]
    for key in ((0, 1), (m + 1, 1), (1, m + 1), (-1, -1), "x"):
        assert key not in prov
        assert prov.get(key) is None
        with pytest.raises(KeyError):
            prov[key]
    copy = ConstructionReport(rep.output, dict(prov), rep.completions_found,
                              rep.intermediate)
    assert copy.provenance == prov and copy == rep
    plain = ConstructionReport([list(row) for row in rep.output.rows], dict(prov),
                               rep.completions_found, rep.intermediate)
    assert plain == rep and isinstance(plain.output, LatinSquare)
    extra = dict(prov)
    extra[(m + 1, 1)] = CellOrigin("unchanged")
    missing = dict(prov)
    del missing[(m, m)]
    wrong = dict(prov)
    wrong[(1, 1)] = "x"
    for bad, match in ((extra, "cover every output cell"),
                       (missing, "cover every output cell"),
                       (wrong, "not a CellOrigin")):
        with pytest.raises(DomainError, match=match):
            ConstructionReport(rep.output, bad)
    for output in ([list(row) for row in rep.output.rows] * 2, 5):
        with pytest.raises(GridError):
            ConstructionReport(output, dict(prov))
