"""Output checks that do not trust the code under test.

Nothing here calls `latinsq.core.validate` or the search kernels: Latin-ness
is checked by a single O(n^2) pass, LSQ text by a separate parser, and
counts against `latinsq.oracle` (order <= 7), literature anchors, or the
count of the same square's isotope.  Every check raises CheckFailed.
"""

from __future__ import annotations

import hashlib

# Transversals of the cyclic square Z_n (McKay, McLeod & Wanless, "The number
# of transversals in a Latin square", Des. Codes Cryptogr. 2006).  Even
# orders have none.
CYCLIC_TRANSVERSALS = {7: 133, 9: 2025, 11: 37851}


class CheckFailed(Exception):
    """An output of the program is wrong."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def rows_of(grid) -> tuple:
    return grid.rows if hasattr(grid, "rows") else tuple(tuple(r) for r in grid)


def check_latin(grid, order: int | None = None) -> tuple:
    """Raise unless `grid` is a Latin square (of `order`, when given)."""
    rows = rows_of(grid)
    n = len(rows)
    expect(n >= 1 and (order is None or n == order),
           f"expected order {order}, got {n}")
    full = set(range(1, n + 1))
    for r, row in enumerate(rows, 1):
        expect(len(row) == n and set(row) == full, f"row {r} is not a permutation")
    for c in range(n):
        expect({row[c] for row in rows} == full, f"column {c + 1} is not a permutation")
    return rows


def check_transversal(rows, cols, values=None) -> None:
    """cols[x] is the 1-based column picked in row x; symbols must be distinct."""
    n = len(rows)
    expect(sorted(cols) == list(range(1, n + 1)), f"{cols} is not a permutation")
    vals = tuple(rows[x][c - 1] for x, c in enumerate(cols))
    expect(len(set(vals)) == n, f"cells at {cols} repeat a symbol")
    expect(values is None or tuple(values) == vals, "transversal values are wrong")


def check_quasicomplete(rows, rec) -> None:
    """The record's sigma hits n - 1 distinct symbols; its fields match."""
    n = len(rows)
    sigma = tuple(rec.sigma)
    expect(sorted(sigma) == list(range(1, n + 1)), f"{sigma} is not a permutation")
    bar = tuple(rows[x][sigma[x] - 1] for x in range(n))
    expect(tuple(rec.sigma_bar) == bar, "sigma_bar is wrong")
    expect(len(set(bar)) == n - 1, f"{sigma} is not quasicomplete")
    expect(rec.kind == "quasicomplete", f"kind {rec.kind!r}")
    missing = set(range(1, n + 1)) - set(bar)
    expect({rec.special} == missing, "special symbol is wrong")
    x1, x2 = rec.duplicate_pair
    expect(x1 < x2 and bar[x1 - 1] == bar[x2 - 1], "duplicate pair is wrong")


def check_sorted_unique(items, what: str) -> None:
    expect(all(a < b for a, b in zip(items, items[1:])),
           f"{what} are not in strictly increasing order")


def check_disjoint(cell_sets) -> None:
    seen: set = set()
    for cells in cell_sets:
        cells = set(cells)
        expect(not cells & seen, "family members share a cell")
        seen |= cells


def check_extends(partial_rows, square) -> tuple:
    """`square` is Latin and agrees with every filled cell of the partial."""
    rows = check_latin(square, len(partial_rows))
    for r, row in enumerate(partial_rows):
        for c, v in enumerate(row):
            expect(v is None or rows[r][c] == v,
                   f"completion changes the filled cell ({r + 1}, {c + 1})")
    return rows


def check_prolonged(base_rows, out_rows, k: int, moved_cells) -> None:
    """Order n + k and Latin; cells off the parameter cells are unchanged."""
    n = len(base_rows)
    check_latin(out_rows, n + k)
    moved = set(moved_cells)
    for r in range(n):
        for c in range(n):
            expect((r + 1, c + 1) in moved or out_rows[r][c] == base_rows[r][c],
                   f"unchanged cell ({r + 1}, {c + 1}) was changed")


def disjoint_families(transversals, k: int) -> list[tuple[int, ...]]:
    """Reference k-families of pairwise cell-disjoint transversals, as index
    tuples into `transversals`, in lexicographic order."""
    sets = [frozenset(enumerate(t)) for t in transversals]
    out: list[tuple[int, ...]] = []

    def extend(start: int, used: frozenset, picked: tuple) -> None:
        if len(picked) == k:
            out.append(picked)
            return
        for i in range(start, len(sets)):
            if not used & sets[i]:
                extend(i + 1, used | sets[i], picked + (i,))

    extend(0, frozenset(), ())
    return out


def parse_text(text: str) -> tuple:
    """Independent LSQ reader: '#' comments, order line, n rows of ints or '.'."""
    lines = [ln.split() for ln in text.splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    expect(bool(lines) and len(lines[0]) == 1, "LSQ text has no order line")
    n = int(lines[0][0])
    expect(len(lines) == n + 1, f"LSQ text has {len(lines) - 1} rows, expected {n}")
    rows = tuple(tuple(None if tok == "." else int(tok) for tok in ln)
                 for ln in lines[1:])
    expect(all(len(r) == n for r in rows), "LSQ row of the wrong length")
    return rows


def split_blocks(text: str) -> list[str]:
    """Split concatenated LSQ outputs (each ends after its last row)."""
    blocks, cur, need = [], [], None
    for ln in text.splitlines():
        cur.append(ln)
        s = ln.strip()
        if not s or s.startswith("#"):
            continue
        if need is None:
            need = int(s)
        else:
            need -= 1
            if need == 0:
                blocks.append("\n".join(cur) + "\n")
                cur, need = [], None
    expect(not cur or all(not ln.strip() for ln in cur), "trailing partial LSQ block")
    return blocks


def format_text(rows, comments=()) -> str:
    """Canonical LSQ text, written without the program's formatter."""
    lines = [f"# {c}" for c in comments] + [str(len(rows))]
    lines += [" ".join("." if v is None else str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()
