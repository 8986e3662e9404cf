"""Latin square grids: validation, completion search, generation, text format.

A Latin square of order n is an n x n grid over the symbols 1..n in which
every row and every column contains each symbol exactly once.  Read as a
Cayley table it is the multiplication table of a quasigroup: cell (r, c)
holds r * c.  Rows, columns and symbols are 1-based in every public
interface; order 0 is rejected everywhere.

A partial square may leave cells empty; the completion solver enumerates
all ways to fill them (backtracking, most-constrained cell first, so the
enumeration order is deterministic and reproducible).

The LSQ text format used by the CLI and by files on disk:

    # comment lines start with '#', blank lines are ignored
    3
    1 2 3
    2 3 1
    3 1 2

The first significant line is the order n, followed by n lines of n
tokens, each an integer 1..n or '.' for an empty cell.  A file containing
any '.' parses as a partial square.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from itertools import chain
from typing import Sequence


class LatinError(Exception):
    """Base class for all errors raised by this package."""


class GridError(LatinError):
    """Malformed or invalid grid data (bad shape, symbols, duplicates)."""


class DomainError(LatinError):
    """Operation arguments outside the operation's domain."""


class InfeasibleError(LatinError):
    """A contraction or completion that cannot produce a valid square."""


@dataclass(frozen=True)
class ValidationIssue:
    """One defect found in a grid.

    kind is one of "shape", "symbol", "empty", "row", "column".  For
    "row"/"column" duplicates, index is the 1-based row or column and
    symbol the duplicated value.  For "symbol", index is the row holding
    the offending entry.
    """

    kind: str
    index: int
    symbol: int | None
    message: str

    def __str__(self) -> str:
        return self.message


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[ValidationIssue, ...]

    @property
    def ok(self) -> bool:
        return not self.issues

    def __str__(self) -> str:
        return "\n".join(str(i) for i in self.issues) if self.issues else "ok"


_CLEAN = ValidationReport(())


def validate(grid) -> ValidationReport:
    """Check a raw grid against the Latin square invariants.

    Accepts nested sequences (entries may be None for empty cells) or a
    LatinSquare / PartialLatinSquare.  Returns a report listing any
    symbol-range and empty-cell defects, then every row/column duplicate
    among the cells that hold symbols; a shape defect is reported alone.
    The report is empty exactly when the grid is a Latin square.

    A Latin square is recognized by one test run in C (cell types first,
    so unhashable or bool cells never reach a set); anything else gets
    the detailed scan that builds the report.
    """
    rows = _raw_rows(grid)
    n = len(rows)
    symbols = set(range(1, n + 1))
    if (n and set(map(len, rows)) == {n}
            and set(map(type, chain.from_iterable(rows))) == {int}
            and all(map(symbols.__eq__, map(set, rows)))
            and all(map(symbols.__eq__, map(set, zip(*rows))))):
        return _CLEAN
    issues: list[ValidationIssue] = []
    if n == 0:
        issues.append(ValidationIssue("shape", 0, None, "empty grid"))
        return ValidationReport(tuple(issues))
    for r, row in enumerate(rows, start=1):
        if len(row) != n:
            issues.append(ValidationIssue(
                "shape", r, None,
                f"row {r} has {len(row)} entries, expected {n}"))
    if any(i.kind == "shape" for i in issues):
        return ValidationReport(tuple(issues))

    empties = 0
    for r, row in enumerate(rows, start=1):
        for v in row:
            if v is None:
                empties += 1
                continue
            # bool is a subclass of int, but True and False are not symbols.
            symbol = v if isinstance(v, int) and not isinstance(v, bool) else None
            if symbol is None or not 1 <= symbol <= n:
                issues.append(ValidationIssue(
                    "symbol", r, symbol,
                    f"row {r}: symbol {v!r} out of range for order {n}"))
    if empties:
        plural = "s" if empties != 1 else ""
        issues.append(ValidationIssue(
            "empty", 0, None, f"{empties} empty cell{plural}"))
    if any(i.kind == "symbol" for i in issues):
        # The cells reported above take no part in the duplicate scan.
        rows = [[v if isinstance(v, int) and not isinstance(v, bool)
                 and 1 <= v <= n else None for v in row] for row in rows]
    return ValidationReport(tuple(issues + _duplicates(rows)))


def _duplicates(rows) -> list[ValidationIssue]:
    """Every symbol repeated within a row, then within a column.

    One pass per line with a bitmask of the symbols seen; empty (None)
    cells are skipped, filled cells must hold symbols 1..n.  Issues come
    rows first, then columns, symbols ascending within each line.
    """
    issues: list[ValidationIssue] = []
    for kind, lines in (("row", rows), ("column", zip(*rows))):
        for i, line in enumerate(lines, start=1):
            seen = dup = 0
            for v in line:
                if v is not None:
                    bit = 1 << v
                    dup |= seen & bit
                    seen |= bit
            while dup:
                bit = dup & -dup
                dup ^= bit
                v = bit.bit_length() - 1
                issues.append(ValidationIssue(
                    kind, i, v, f"{kind} {i} duplicates symbol {v}"))
    return issues


def is_latin(grid) -> bool:
    """True iff the grid is a Latin square.

    Malformed input (non-square shape, symbols out of 1..n, empty cells)
    raises GridError rather than returning False; only genuine row or
    column duplicates yield False.
    """
    report = validate(grid)
    bad = [i for i in report.issues if i.kind in ("shape", "symbol", "empty")]
    if bad:
        raise GridError(str(report))
    return report.ok


def _raw_rows(grid) -> tuple[tuple, ...]:
    if isinstance(grid, (LatinSquare, PartialLatinSquare)):
        return grid.rows
    try:
        return tuple(tuple(row) for row in grid)
    except TypeError:
        raise GridError(f"not a grid: {grid!r}") from None


def _as_square(grid) -> "LatinSquare":
    return grid if isinstance(grid, LatinSquare) else LatinSquare(_raw_rows(grid))


def _cell(rows, row: int, col: int):
    n = len(rows)
    if not (1 <= row <= n and 1 <= col <= n):
        raise DomainError(f"cell ({row}, {col}) is outside 1..{n}")
    return rows[row - 1][col - 1]


@dataclass(frozen=True)
class LatinSquare:
    """An order-n Latin square over symbols 1..n; immutable and hashable."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        report = validate(self.rows)
        if not report.ok:
            raise GridError(f"not a Latin square:\n{report}")

    @property
    def order(self) -> int:
        return len(self.rows)

    def cell(self, row: int, col: int) -> int:
        """Symbol at 1-based (row, col); the quasigroup product row * col."""
        return _cell(self.rows, row, col)


@dataclass(frozen=True)
class PartialLatinSquare:
    """A square grid whose cells hold a symbol 1..m or None (empty).

    Filled cells must not repeat a symbol within any row or column.
    """

    rows: tuple[tuple[int | None, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        bad = [i for i in validate(self.rows).issues if i.kind != "empty"]
        if bad:
            raise GridError("not a valid partial square:\n"
                            + "\n".join(str(i) for i in bad))

    @property
    def order(self) -> int:
        return len(self.rows)

    def cell(self, row: int, col: int) -> int | None:
        return _cell(self.rows, row, col)

    def empty_cells(self) -> list[tuple[int, int]]:
        """1-based (row, col) of every empty cell, row-major."""
        return [(r + 1, c + 1)
                for r, row in enumerate(self.rows)
                for c, v in enumerate(row) if v is None]


def complete_partial(partial, limit: int | None = None) -> list[LatinSquare]:
    """Enumerate all Latin squares extending the given partial square.

    Backtracking over empty cells, always branching on a cell with the
    fewest admissible symbols (ties broken row-major) and trying symbols
    in ascending order, so repeated calls enumerate completions in the
    same deterministic order.  Returns at most `limit` squares when a
    limit is given; an empty list means no completion exists.
    """
    if not isinstance(partial, PartialLatinSquare):
        partial = PartialLatinSquare(_raw_rows(partial))
    _check_limit(limit)

    n = partial.order
    full = (1 << n) - 1
    grid = [list(row) for row in partial.rows]
    row_used = [0] * n
    col_used = [0] * n
    empties = []
    for r in range(n):
        for c in range(n):
            v = grid[r][c]
            if v is None:
                empties.append((r, c))
            else:
                bit = 1 << (v - 1)
                row_used[r] |= bit
                col_used[c] |= bit

    results: list[LatinSquare] = []

    def pick() -> tuple[int, int, int] | None:
        best = None
        best_count = n + 1
        for (r, c) in empties:
            if grid[r][c] is not None:
                continue
            cand = full & ~(row_used[r] | col_used[c])
            count = cand.bit_count()
            if count < best_count:
                best, best_count = (r, c, cand), count
                if count == 0:
                    break
        return best

    def search() -> bool:
        cell = pick()
        if cell is None:
            results.append(LatinSquare(tuple(tuple(row) for row in grid)))
            return limit is not None and len(results) >= limit
        r, c, cand = cell
        while cand:
            bit = cand & -cand
            cand -= bit
            grid[r][c] = bit.bit_length()
            row_used[r] |= bit
            col_used[c] |= bit
            done = search()
            row_used[r] &= ~bit
            col_used[c] &= ~bit
            grid[r][c] = None
            if done:
                return True
        return False

    search()
    return results


def cyclic_square(order: int) -> LatinSquare:
    """The cyclic-group table: cell (r, c) = ((r + c - 2) mod n) + 1."""
    if order < 1:
        raise DomainError(f"order must be positive, got {order}")
    return LatinSquare(tuple(
        tuple((r + c) % order + 1 for c in range(order))
        for r in range(order)))


def random_square(order: int, seed: int) -> LatinSquare:
    """A seeded pseudo-random Latin square; identical for identical inputs.

    Fills the grid row by row, visiting the columns of each row in a
    seed-shuffled order and trying admissible symbols in a seed-shuffled
    order, backtracking within the row when stuck.  Any Latin rectangle
    extends to a Latin square, so rows never need to be revisited.  The
    distribution is NOT uniform over all Latin squares of the order.
    """
    if order < 1:
        raise DomainError(f"order must be positive, got {order}")
    rng = random.Random(seed)
    n = order
    full = (1 << n) - 1
    col_used = [0] * n
    rows: list[tuple[int, ...]] = []
    for _ in range(n):
        row = [0] * n
        cols = list(range(n))
        rng.shuffle(cols)

        def fill(i: int, row_used: int) -> bool:
            if i == n:
                return True
            c = cols[i]
            cand = full & ~(row_used | col_used[c])
            symbols = [b + 1 for b in range(n) if cand >> b & 1]
            rng.shuffle(symbols)
            for s in symbols:
                row[c] = s
                if fill(i + 1, row_used | 1 << (s - 1)):
                    return True
            row[c] = 0
            return False

        fill(0, 0)
        for c in range(n):
            col_used[c] |= 1 << (row[c] - 1)
        rows.append(tuple(row))
    return LatinSquare(tuple(rows))


def permuted(square: LatinSquare,
             row_perm: Sequence[int] | None = None,
             col_perm: Sequence[int] | None = None) -> LatinSquare:
    """Reorder rows and/or columns: new cell (i, j) = old (row_perm[i], col_perm[j]).

    Lets a construction's appended last rows/columns be moved anywhere
    afterwards.  Permutations are 1-based; None means identity.
    """
    n = square.order
    identity = list(range(1, n + 1))
    rp = identity if row_perm is None else _check_perm(row_perm, n, "row permutation")
    cp = identity if col_perm is None else _check_perm(col_perm, n, "column permutation")
    return LatinSquare(tuple(
        tuple(square.rows[rp[i] - 1][cp[j] - 1] for j in range(n))
        for i in range(n)))


def _check_limit(limit: int | None) -> None:
    if limit is not None and limit < 1:
        raise DomainError(f"limit must be positive, got {limit}")


def _check_perm(perm, n: int, what: str) -> list[int]:
    perm = list(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise DomainError(f"{what} must be a permutation of 1..{n}, got {perm}")
    return perm


# --- LSQ text format ---------------------------------------------------------

def parse_lsq(text: str) -> LatinSquare | PartialLatinSquare:
    """Parse LSQ text; '.' cells yield a PartialLatinSquare.

    Raises GridError with a 1-based line number on any syntactic problem;
    semantic validation (range, duplicates) is applied on load.
    """
    rows = parse_lsq_grid(text)
    if any(v is None for row in rows for v in row):
        return PartialLatinSquare(rows)
    return LatinSquare(rows)


# Integer tokens are ASCII digits after an optional "-"; int() also reads
# "+2", "2_0" and "２", but on tokens of _CELL_CHARS it reads just those.
_INTEGER = re.compile(r"-?[0-9]+")
_CELL_CHARS = re.compile(r"[-.0-9]*")


def _cells(lineno: int, tokens: list[str]) -> tuple[int | None, ...]:
    """One grid row's tokens as integers, None for '.'."""
    if _CELL_CHARS.fullmatch("".join(tokens)):
        try:
            return tuple([None if t == "." else int(t) for t in tokens])
        except ValueError:
            pass
    bad = next(t for t in tokens if t != "." and not _INTEGER.fullmatch(t))
    raise GridError(f"line {lineno}: bad token {bad!r}")


def parse_lsq_grid(text: str) -> tuple[tuple[int | None, ...], ...]:
    """Syntax-only LSQ parse: raw rows with None for '.', nothing validated.

    Checks line structure (order header, row/token counts, integer
    tokens) and reports problems with 1-based line numbers; symbol
    ranges and duplicates are left to `validate`.
    """
    significant: list[tuple[int, list[str]]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        significant.append((lineno, stripped.split()))
    if not significant:
        raise GridError("line 1: no grid data found")

    lineno, tokens = significant[0]
    if len(tokens) != 1:
        raise GridError(f"line {lineno}: expected a single order, got {len(tokens)} tokens")
    if not _INTEGER.fullmatch(tokens[0]):
        raise GridError(f"line {lineno}: bad token {tokens[0]!r}")
    n = int(tokens[0])
    if n < 1:
        raise GridError(f"line {lineno}: order must be positive, got {n}")
    if len(significant) - 1 != n:
        raise GridError(f"line {lineno}: expected {n} grid rows, found {len(significant) - 1}")

    rows: list[tuple[int | None, ...]] = []
    for lineno, tokens in significant[1:]:
        if len(tokens) != n:
            raise GridError(f"line {lineno}: expected {n} tokens, got {len(tokens)}")
        rows.append(_cells(lineno, tokens))
    return tuple(rows)


def format_lsq(grid, comments: Sequence[str] = ()) -> str:
    """Render a square or partial square in canonical LSQ text."""
    rows = _raw_rows(grid)
    lines = [f"# {c}" for c in comments]
    lines.append(str(len(rows)))
    for row in rows:
        lines.append(" ".join("." if v is None else str(v) for v in row))
    return "\n".join(lines) + "\n"
