"""Grid types, validation, completion search, generation, and LSQ I/O."""

import random
import re
from enum import IntEnum

import pytest

import grids
from latinsq import (
    DomainError,
    GridError,
    LatinSquare,
    PartialLatinSquare,
    complete_partial,
    cyclic_square,
    format_lsq,
    is_latin,
    parse_lsq,
    parse_lsq_grid,
    permuted,
    random_square,
    validate,
)


def naive_duplicates(rows):
    """Row then column duplicates of a full grid, by counting each entry."""
    issues = []
    for r, row in enumerate(rows, start=1):
        for v in sorted(set(x for x in row if row.count(x) > 1)):
            issues.append(("row", r, v, f"row {r} duplicates symbol {v}"))
    for c in range(len(rows)):
        col = [row[c] for row in rows]
        for v in sorted(set(x for x in col if col.count(x) > 1)):
            issues.append(("column", c + 1, v,
                           f"column {c + 1} duplicates symbol {v}"))
    return issues


def naive_validate(rows):
    """validate's issues, by the definitions: shape, then symbols and empty
    cells, then duplicates (by counting) among the cells holding symbols."""
    n = len(rows)
    if n == 0:
        return [("shape", 0, None, "empty grid")]
    shape = [("shape", r, None, f"row {r} has {len(row)} entries, expected {n}")
             for r, row in enumerate(rows, start=1) if len(row) != n]
    if shape:
        return shape

    def symbol(v):
        ok = isinstance(v, int) and not isinstance(v, bool)
        return v if ok and 1 <= v <= n else None

    issues = []
    empties = 0
    for r, row in enumerate(rows, start=1):
        for v in row:
            if v is None:
                empties += 1
            elif symbol(v) is None:
                integer = isinstance(v, int) and not isinstance(v, bool)
                issues.append(("symbol", r, v if integer else None,
                               f"row {r}: symbol {v!r} out of range for order {n}"))
    if empties:
        issues.append(("empty", 0, None,
                       f"{empties} empty cell{'s' if empties != 1 else ''}"))
    clean = [[symbol(v) for v in row] for row in rows]
    for kind, lines in (("row", clean), ("column", list(zip(*clean)))):
        for i, line in enumerate(lines, start=1):
            held = [v for v in line if v is not None]
            for v in sorted(set(v for v in held if held.count(v) > 1)):
                issues.append((kind, i, v, f"{kind} {i} duplicates symbol {v}"))
    return issues


class Small(IntEnum):
    ONE = 1


class TestValidate:
    def test_latin_square_is_clean(self):
        assert validate(grids.CYCLIC3).ok
        assert validate([[1, 2], [2, 1]]).ok
        assert validate([[1]]).ok

    def test_duplicates_are_reported_per_line(self):
        report = validate([[1, 2], [1, 2]])
        found = {(i.kind, i.index, i.symbol) for i in report.issues}
        assert found == {("column", 1, 1), ("column", 2, 2)}

    def test_row_duplicates(self):
        report = validate([[1, 1], [2, 2]])
        kinds = {(i.kind, i.index, i.symbol) for i in report.issues}
        assert ("row", 1, 1) in kinds and ("row", 2, 2) in kinds

    def test_symbol_out_of_range(self):
        report = validate([[1, 2, 4], [2, 3, 1], [3, 1, 2]])
        assert any(i.kind == "symbol" and i.index == 1 for i in report.issues)
        report = validate([[1, 1], [2, 5]])
        assert [(i.kind, i.index, i.symbol) for i in report.issues] == \
            [("symbol", 2, 5), ("row", 1, 1)]

    def test_bool_cells_are_not_symbols(self):
        report = validate([[True]])
        assert [(i.kind, i.index, i.symbol) for i in report.issues] == \
            [("symbol", 1, None)]
        report = validate([[1, 2], [2, True]])
        assert [(i.kind, i.index, i.symbol) for i in report.issues] == \
            [("symbol", 2, None)]

    def test_ragged_and_empty_grids(self):
        assert any(i.kind == "shape" for i in validate([[1, 2], [1]]).issues)
        assert any(i.kind == "shape" for i in validate([]).issues)

    def test_duplicates_match_naive_reference(self):
        rng = random.Random(20150601)
        for n in range(1, 10):
            for trial in range(60):
                if trial % 2:
                    rows = [[rng.randint(1, n) for _ in range(n)]
                            for _ in range(n)]
                else:
                    rows = [list(row) for row in cyclic_square(n).rows]
                    for _ in range(rng.randint(1, 3)):
                        rows[rng.randrange(n)][rng.randrange(n)] = \
                            rng.randint(1, n)
                got = [(i.kind, i.index, i.symbol, i.message)
                       for i in validate(rows).issues]
                assert got == naive_duplicates(rows), rows

    def test_malformed_variants_match_naive_reference(self):
        rng = random.Random(20151018)
        kinds = ("true", "float", "intenum", "none", "list", "str",
                 "short", "swap")
        for n in range(1, 10):
            for seed in range(4):
                base = cyclic_square(n) if seed == 0 else random_square(n, seed)
                assert validate(base).ok and validate(base.rows).ok
                for kind in kinds:
                    rows = [list(row) for row in base.rows]
                    r, c = rng.randrange(n), rng.randrange(n)
                    if kind == "true":
                        rows[r][c] = True
                    elif kind == "float":
                        rows[r][c] = float(rows[r][c])
                    elif kind == "intenum":  # still a Latin square
                        rows[r][rows[r].index(1)] = Small.ONE
                    elif kind == "none":
                        rows[r][c] = None
                    elif kind == "list":
                        rows[r][c] = [1]
                    elif kind == "str":
                        rows[r][c] = "1"
                    elif kind == "short":
                        del rows[r][c]
                    else:
                        c2 = rng.randrange(n)
                        rows[r][c], rows[r][c2] = rows[r][c2], rows[r][c]
                    got = [(i.kind, i.index, i.symbol, i.message)
                           for i in validate(rows).issues]
                    assert got == naive_validate(rows), (kind, rows)

    def test_empty_cells_counted(self):
        report = validate([[1, None], [None, 2]])
        issue = next(i for i in report.issues if i.kind == "empty")
        assert "2 empty cells" in issue.message


class TestIsLatin:
    def test_true_cases(self):
        assert is_latin(grids.CYCLIC3)
        assert is_latin([[1]])

    def test_duplicate_is_false_not_error(self):
        assert not is_latin([[1, 2], [1, 2]])

    def test_malformed_raises(self):
        with pytest.raises(GridError):
            is_latin([[1, 2, 4], [2, 3, 1], [3, 1, 2]])
        with pytest.raises(GridError):
            is_latin([[1, 2], [1]])
        with pytest.raises(GridError):
            is_latin([[1, None], [None, 2]])
        with pytest.raises(GridError):
            is_latin([[True]])


class TestSquareTypes:
    def test_cell_lookup_is_one_based(self):
        sq = LatinSquare(grids.CYCLIC3)
        assert sq.order == 3
        assert sq.cell(2, 3) == 1
        assert sq.cell(1, 1) == 1

    def test_cell_outside_the_square_is_a_domain_error(self):
        for sq in (cyclic_square(3), PartialLatinSquare(((1, None), (None, 1)))):
            n = sq.order
            for row, col in ((0, 0), (0, 1), (1, 0), (-1, 1), (1, -1),
                             (n + 1, 1), (1, n + 1)):
                with pytest.raises(DomainError, match="outside"):
                    sq.cell(row, col)
            assert sq.cell(n, n) == sq.rows[n - 1][n - 1]

    def test_rejects_non_latin(self):
        with pytest.raises(GridError):
            LatinSquare(((1, 2), (1, 2)))
        with pytest.raises(GridError):
            LatinSquare(((True,),))

    def test_is_hashable_and_comparable(self):
        assert LatinSquare(grids.CYCLIC3) == cyclic_square(3)
        assert len({LatinSquare(grids.CYCLIC3), cyclic_square(3)}) == 1

    def test_partial_accepts_empties_rejects_duplicates(self):
        p = PartialLatinSquare(((1, None), (None, 1)))
        assert p.empty_cells() == [(1, 2), (2, 1)]
        with pytest.raises(GridError, match="row 1 duplicates symbol 1"):
            PartialLatinSquare(((1, 1), (None, None)))
        with pytest.raises(GridError, match="column 2 duplicates symbol 2"):
            PartialLatinSquare(((None, 2, 1), (None, 2, None), (1, 3, None)))
        with pytest.raises(GridError):
            PartialLatinSquare(((5, None), (None, None)))


class TestCompletePartial:
    def test_full_square_completes_to_itself(self):
        sq = cyclic_square(4)
        assert complete_partial(sq) == [sq]

    def test_empty_grid_counts(self):
        for n, want in enumerate(grids.EMPTY_COMPLETION_COUNTS, start=1):
            empty = PartialLatinSquare(tuple((None,) * n for _ in range(n)))
            assert len(complete_partial(empty)) == want

    def test_completions_agree_with_filled_cells(self):
        p = PartialLatinSquare(((1, None, 3), (None, 3, None), (None, None, None)))
        found = complete_partial(p)
        assert found
        for sq in found:
            for (r, c) in ((1, 1), (1, 3), (2, 2)):
                assert sq.cell(r, c) == p.cell(r, c)

    def test_deterministic_order_and_limit_prefix(self):
        empty = PartialLatinSquare(tuple((None,) * 4 for _ in range(4)))
        first = complete_partial(empty)
        second = complete_partial(empty)
        assert first == second
        assert complete_partial(empty, limit=7) == first[:7]

    def test_unsolvable_returns_empty(self):
        assert complete_partial(PartialLatinSquare(((1, None), (None, 2)))) == []

    def test_bad_limit(self):
        with pytest.raises(DomainError):
            complete_partial(cyclic_square(3), limit=0)

    def test_raw_grid_input(self):
        assert len(complete_partial([[1, None], [None, None]])) == 1


class TestGeneration:
    def test_cyclic_values(self):
        assert cyclic_square(3).rows == grids.CYCLIC3
        assert cyclic_square(1).rows == ((1,),)
        assert cyclic_square(2).rows == ((1, 2), (2, 1))
        assert cyclic_square(5).cell(4, 5) == ((4 + 5 - 2) % 5) + 1

    def test_order_zero_rejected(self):
        with pytest.raises(DomainError):
            cyclic_square(0)
        with pytest.raises(DomainError):
            random_square(0, 1)

    def test_random_square_is_deterministic(self):
        assert random_square(5, 42) == random_square(5, 42)
        assert random_square(6, 1) != random_square(6, 2)

    def test_random_square_valid_for_small_orders(self):
        for n in range(1, 9):
            for seed in (0, 1, 2):
                assert is_latin(random_square(n, seed))

    def test_order_one(self):
        assert random_square(1, 99).rows == ((1,),)


class TestPermuted:
    def test_moves_rows_and_columns(self):
        sq = LatinSquare(grids.BRUCK_OUT4)
        moved = permuted(sq, row_perm=(4, 1, 2, 3), col_perm=(4, 1, 2, 3))
        assert moved.cell(1, 1) == sq.cell(4, 4)
        assert moved.cell(2, 2) == sq.cell(1, 1)
        assert is_latin(moved)

    def test_identity_default(self):
        sq = cyclic_square(4)
        assert permuted(sq) == sq

    def test_bad_permutation(self):
        with pytest.raises(DomainError):
            permuted(cyclic_square(3), row_perm=(1, 1, 2))
        with pytest.raises(DomainError):
            permuted(cyclic_square(3), row_perm=[])
        with pytest.raises(DomainError):
            permuted(cyclic_square(3), col_perm=())


class TestLsqFormat:
    def test_round_trip_square(self):
        sq = cyclic_square(5)
        assert parse_lsq(format_lsq(sq)) == sq

    def test_round_trip_partial(self):
        p = PartialLatinSquare(((1, None), (None, 2)))
        text = format_lsq(p)
        assert "." in text
        assert parse_lsq(text) == p

    def test_comments_and_blanks_ignored(self):
        text = "# heading\n\n3\n# inner\n1 2 3\n2 3 1\n\n3 1 2\n"
        assert parse_lsq(text) == cyclic_square(3)

    def test_comment_parameter(self):
        text = format_lsq(cyclic_square(2), comments=["deleted: 3"])
        assert text.splitlines()[0] == "# deleted: 3"

    def test_syntax_errors_carry_line_numbers(self):
        with pytest.raises(GridError, match="line 1"):
            parse_lsq("")
        with pytest.raises(GridError, match="line 2"):
            parse_lsq("# c\n1 2\n1 2\n2 1\n")
        with pytest.raises(GridError, match="line 1"):
            parse_lsq("x\n1\n")
        with pytest.raises(GridError, match="order must be positive"):
            parse_lsq("0\n")
        with pytest.raises(GridError, match="expected 2 grid rows"):
            parse_lsq("2\n1 2\n")
        with pytest.raises(GridError, match="line 3"):
            parse_lsq("2\n1 2\n2 1 1\n")
        with pytest.raises(GridError, match="line 3"):
            parse_lsq("2\n1 2\nq 1\n")
        for bad in ("+2", "２", "2_0", "2.0", "-", "--1"):
            token = re.escape(repr(bad))
            with pytest.raises(GridError, match=f"line 1: bad token {token}"):
                parse_lsq(f"{bad}\n1 2\n2 1\n")
            with pytest.raises(GridError, match=f"line 3: bad token {token}"):
                parse_lsq(f"2\n1 2\n1 {bad}\n")
        with pytest.raises(GridError, match="line 1: order must be positive"):
            parse_lsq("-1\n")

    def test_semantic_errors_on_load(self):
        with pytest.raises(GridError):
            parse_lsq("2\n1 2\n1 2\n")

    def test_grid_parse_is_syntax_only(self):
        rows = parse_lsq_grid("2\n1 2\n1 2\n")
        assert rows == ((1, 2), (1, 2))
        assert parse_lsq_grid("2\n. 9\n1 .\n") == ((None, 9), (1, None))
        assert parse_lsq_grid("2\n0 -1\n-0 1\n") == ((0, -1), (0, 1))
