"""Brute-force reference implementations for cross-checking the fast kernels.

Everything here is written the slow, obvious way on purpose: transversals
and quasicomplete mappings are found by filtering all n! permutations,
disjoint families by filtering every k-combination of transversals,
completions by a naive first-empty-cell search that re-scans whole rows
and columns instead of keeping incremental state.  None of the
backtracking kernels in `latinsq.core` / `latinsq.mappings` are reused,
so agreement between the two sides is meaningful evidence.

Orders above MAX_ORDER are refused outright, and the completion counter
carries a node budget so a surprisingly hard instance fails loudly
instead of hanging.
"""

from __future__ import annotations

from itertools import combinations, permutations

from .core import DomainError, LatinError

MAX_ORDER = 7


class OracleBudgetError(LatinError):
    """The completion oracle exceeded its node budget."""


def _rows(grid) -> list[list]:
    rows = [list(r) for r in (grid.rows if hasattr(grid, "rows") else grid)]
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise DomainError("oracle needs a square grid")
    if n > MAX_ORDER:
        raise DomainError(f"oracle refuses order {n} (max {MAX_ORDER})")
    return rows


def oracle_transversals(grid) -> list[tuple[int, ...]]:
    """Column picks (1-based, by row) of every transversal, by filtration."""
    rows = _rows(grid)
    n = len(rows)
    found = []
    for perm in permutations(range(n)):
        symbols = set()
        for r in range(n):
            symbols.add(rows[r][perm[r]])
        if len(symbols) == n:
            found.append(tuple(c + 1 for c in perm))
    return found


def oracle_disjoint_families(grid, k: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every family of k pairwise cell-disjoint transversals, as tuples of
    column picks, by filtering all k-combinations in lexicographic order."""
    return [family for family in combinations(oracle_transversals(grid), k)
            if all(all(a != b for a, b in zip(s, t))
                   for s, t in combinations(family, 2))]


def oracle_quasicomplete(grid) -> list[tuple[int, ...]]:
    """Every quasicomplete mapping (as 1-based sigma), by filtration."""
    rows = _rows(grid)
    n = len(rows)
    found = []
    for perm in permutations(range(n)):
        symbols = set()
        for r in range(n):
            symbols.add(rows[r][perm[r]])
        if len(symbols) == n - 1:
            found.append(tuple(c + 1 for c in perm))
    return found


def oracle_completions(grid, budget: int = 10_000_000) -> int:
    """Count the Latin squares extending a partial grid (None = empty).

    First-empty-cell backtracking; candidate symbols are vetted by
    scanning the whole row and column each time.  Raises
    OracleBudgetError after `budget` placement attempts.
    """
    rows = _rows(grid)
    n = len(rows)
    spent = 0

    def first_empty():
        for r in range(n):
            for c in range(n):
                if rows[r][c] is None:
                    return r, c
        return None

    def admissible(r: int, c: int, s: int) -> bool:
        for j in range(n):
            if rows[r][j] == s:
                return False
        for i in range(n):
            if rows[i][c] == s:
                return False
        return True

    def count() -> int:
        nonlocal spent
        cell = first_empty()
        if cell is None:
            return 1
        r, c = cell
        total = 0
        for s in range(1, n + 1):
            spent += 1
            if spent > budget:
                raise OracleBudgetError(
                    f"completion count exceeded {budget} nodes")
            if admissible(r, c, s):
                rows[r][c] = s
                total += count()
                rows[r][c] = None
        return total

    return count()
