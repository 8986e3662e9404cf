"""Prolongations and contractions of Latin squares.

A prolongation turns an order-n Latin square into an order-(n+k) one by
projecting the cells of k parameter objects (transversals, or
quasicomplete mappings) into k new rows and columns appended at indices
n+1..n+k, writing a fresh symbol into each vacated cell.  A contraction
is the exact inverse, removing one symbol and the last row and column.

Operations, by parameter object:

* transversal:            prolong_bruck, prolong_belyavskaya
* k disjoint transversals: prolong_disjoint, prolong_belyavskaya_gen
* quasicomplete mapping:   prolong_dd (one), prolong_dd_gen (k disjoint)
* two disjoint transversals, applied in sequence: two_step
* inverses:               contract_bruck, contract_except,
                          feasible_contractions

All six prolongations run one projection kernel, `_project`.  It
vacates every cell of each parameter object except an optional kept
one, moves the values into the new rows and columns, and records the
provenance; the operations differ only in the cell they keep and in
how they fill the rest of the new block: the corner (the single-step
kernel `_prolong_one`), a literal bottom block (prolong_disjoint), or
the completion search (the generalized ones).  The single-step kernel
writes at (n+1, n+1) the one symbol of 1..n+1 its new column lacks:
n+1 for prolong_bruck, the kept cell's value for prolong_belyavskaya,
the special element for prolong_dd.  two_step is two passes of that
kernel, the second over the first's output and provenance.
Both contractions run its inverse, `_contract`, and differ only in
whether the corner must hold the deleted symbol.  Before it builds the
result, `_contract` applies the contraction criterion: the repaired
rows are always Latin, and column c < m is Latin exactly when the row r
holding the deleted symbol in column c has q(r, m) = q(m, c).  A symbol
that fails raises InfeasibleError after O(m) comparisons.

The single-parameter operations are fully deterministic.  The
generalized ones (prolong_belyavskaya_gen, prolong_dd_gen) place every
forced cell and hand the remainder to the completion solver, returning
one report per completion; an empty list is a legal outcome, not an
error.  New rows and columns always land at the end; use
`latinsq.core.permuted` to move them elsewhere afterwards.

Every report records, for each output cell, where its value came from
(see CellOrigin), which is what makes the contractions and the test
suite able to audit outputs cell by cell.  The record is a read-only
mapping view, keyed by 1-based (row, col) and iterated row-major, over
the m rows of shared CellOrigin objects that `_project` fills.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

from .core import (
    DomainError,
    GridError,
    InfeasibleError,
    LatinError,
    LatinSquare,
    PartialLatinSquare,
    _as_square,
    _check_perm,
    _is_int,
    complete_partial,
    cyclic_square,
)
from .mappings import (
    MappingRecord,
    Transversal,
    conjugated_mapping,
    transversal_of,
)

ORIGIN_KINDS = frozenset({
    "unchanged", "projected_row", "projected_col", "vacated",
    "kept", "border_fill", "diagonal_seed", "completed",
})


@dataclass(frozen=True)
class CellOrigin:
    """Why an output cell holds its value.

    kind:
      unchanged      copied from the input square
      vacated        a projected parameter cell, refilled with a new symbol
      projected_col  a parameter cell's value, moved to its row's new column
      projected_row  a parameter cell's value, moved to its column's new row
      kept           a parameter cell exempted from projection
      border_fill    deterministic filler in the new rows/columns
      diagonal_seed  deterministic diagonal entry of the new block
      completed      resolved by the completion search

    step is the 1-based index (an int >= 1) of the parameter object
    (transversal or mapping) responsible, or None where no single one is
    (unchanged, completed, and the literal bottom block of
    prolong_disjoint).
    """

    kind: str
    step: int | None = None

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in ORIGIN_KINDS:
            raise DomainError(f"unknown origin kind {self.kind!r}")
        if not (self.step is None or _is_int(self.step) and self.step >= 1):
            raise DomainError(
                f"origin step must be None or an int >= 1, got {self.step!r}")

    def __str__(self) -> str:
        return self.kind if self.step is None else f"{self.kind}({self.step})"


class _Provenance(Mapping):
    """Read-only {(row, col): CellOrigin} view over m rows of origins.

    Keys are the 1-based cells of the m x m grid, in row-major order.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows):
        self._rows = tuple(map(tuple, rows))

    def __getitem__(self, cell):
        try:
            r, c = cell
            if r >= 1 and c >= 1:
                return self._rows[r - 1][c - 1]
        except (TypeError, ValueError, IndexError):
            pass
        raise KeyError(cell)

    def __iter__(self):
        m = len(self._rows)
        return ((r, c) for r in range(1, m + 1) for c in range(1, m + 1))

    def __len__(self):
        return len(self._rows) ** 2


@dataclass(frozen=True)
class ConstructionReport:
    """A constructed square plus a per-cell audit trail.

    provenance maps every 1-based (row, col) of the output to a
    CellOrigin: a read-only mapping view over m rows of origins,
    iterated row-major.  An output passed in as a plain grid must form a
    Latin square and becomes a LatinSquare; a mapping passed in must map
    every output cell, exactly once, to a CellOrigin (the views the
    constructions build are not checked again).  completions_found is
    the number of completions the search produced (generalized
    constructions only; all reports of one call share the value and the
    provenance).  intermediate is the classification record of the
    second-step mapping (two_step only).
    """

    output: LatinSquare
    provenance: Mapping[tuple[int, int], CellOrigin] = field(repr=False)
    completions_found: int | None = None
    intermediate: MappingRecord | None = None

    def __post_init__(self):
        object.__setattr__(self, "output", _as_square(self.output))
        m = self.output.order
        prov = self.provenance
        if isinstance(prov, _Provenance):
            covered = len(prov._rows) == m and set(map(len, prov._rows)) == {m}
        elif not isinstance(prov, Mapping):
            raise DomainError(f"provenance must be a mapping, got {prov!r}")
        else:
            span = range(1, m + 1)
            covered = set(prov) == {(r, c) for r in span for c in span}
            if covered:
                prov = _Provenance([[prov[(r, c)] for c in span] for r in span])
                for origin in prov.values():
                    if not isinstance(origin, CellOrigin):
                        raise DomainError(
                            f"provenance value {origin!r} is not a CellOrigin")
        if not covered:
            raise DomainError("provenance must cover every output cell exactly once")
        object.__setattr__(self, "provenance", prov)


def _transversal_obj(square: LatinSquare, t) -> tuple:
    """Transversal t of the square, a Transversal or its columns, as the
    kernel's (cols, values, kept row) with no row kept."""
    t = transversal_of(square, t.cols if isinstance(t, Transversal) else t)
    return t.cols, t.values, None


def _excepting(obj: tuple, cell, where: str) -> tuple:
    """Transversal object obj keeping the row of `cell`, a 1-based
    (row, col) pair that must lie on the transversal (`where`)."""
    cols, values, _ = obj
    try:
        x0, y0 = cell
    except (TypeError, ValueError):
        x0 = y0 = None
    if not (_is_int(x0) and _is_int(y0) and 1 <= x0 <= len(cols)
            and cols[x0 - 1] == y0):
        raise DomainError(f"excepted cell {cell} does not lie on {where}")
    return cols, values, x0


def _quasicomplete_obj(square: LatinSquare, m, kept_x) -> tuple:
    """Quasicomplete mapping m of the square, a MappingRecord or its
    sigma, as the kernel's (sigma, sigma_bar, kept row) followed by its
    special element; the kept row is kept_x (see _kept_row)."""
    rec = conjugated_mapping(square, m.sigma if isinstance(m, MappingRecord) else m)
    if rec.kind != "quasicomplete":
        raise DomainError(f"sigma {rec.sigma} is {rec.kind}, not quasicomplete")
    return rec.sigma, rec.sigma_bar, _kept_row(rec, kept_x), rec.special


def _kept_row(rec: MappingRecord, kept_x: int | None) -> int:
    """kept_x, which must be in rec's duplicate pair (None = its larger)."""
    if kept_x is None:
        kept_x = rec.duplicate_pair[1]
    if not (_is_int(kept_x) and kept_x in rec.duplicate_pair):
        raise DomainError(
            f"kept row {kept_x} is not in the duplicate pair {rec.duplicate_pair}")
    return kept_x


def _listed(items, what: str, pairs: bool = False) -> list:
    """`items` as a list, each item unpacked into a pair when `pairs`; a
    non-iterable, or an item that is not a pair, raises DomainError."""
    try:
        return [(a, b) for a, b in items] if pairs else list(items)
    except (TypeError, ValueError):
        raise DomainError(f"{what} must be a sequence{' of pairs' if pairs else ''}, "
                          f"got {items!r}") from None


def _check_disjoint(picks: Sequence[Sequence[int]], what: str) -> None:
    seen: dict[tuple[int, int], int] = {}
    for j, cols in enumerate(picks, start=1):
        for cell in enumerate(cols, start=1):
            if cell in seen:
                raise DomainError(
                    f"{what} {seen[cell]} and {j} share cell {cell}")
            seen[cell] = j


def _project(square: LatinSquare, objs, fill, col_assign, row_assign,
             border: bool = True, what: str = "transversals",
             origins=None, step: int = 1):
    """The projection shared by every prolongation.

    objs holds one (cols, values, kept_row | None, ...) per object.
    Object j's cells other than the kept one are vacated with fill(j),
    their values moved to new column n+col_assign(j) of their row and
    new row n+row_assign(j) of their column.  When `border`, the two
    cells the kept cell would have projected into receive fill(j);
    otherwise they stay unfilled.  Checks fill, the assignments (None =
    defaults) and that the objects (`what`) are disjoint.  origins holds
    the input square's provenance rows (None = all unchanged) and object
    j is labelled step + j - 1.  Returns the working grid (0 =
    unfilled), its provenance grid (None = unfilled; one shared
    CellOrigin per kind and step), and each object's 1-based (new row,
    new column) crossing in the k x k block.
    """
    n = square.order
    k = len(objs)
    if not 1 <= k <= n:
        raise DomainError(f"need between 1 and {n} parameter objects, got {k}")
    fill = tuple(range(n + 1, n + k + 1) if fill is None else _listed(fill, "fill"))
    if not all(map(_is_int, fill)) or sorted(fill) != list(range(n + 1, n + k + 1)):
        raise DomainError(
            f"fill must be a bijection onto {n + 1}..{n + k}, got {fill}")
    ca = tuple(_check_perm(col_assign, k, "col_assign")) \
        if col_assign is not None else tuple(range(1, k + 1))
    ra = tuple(_check_perm(row_assign, k, "row_assign")) \
        if row_assign is not None else tuple(range(1, k + 1))
    _check_disjoint([obj[0] for obj in objs], what)
    grid = [list(row) + [0] * k for row in square.rows]
    grid += [[0] * (n + k) for _ in range(k)]
    if origins is None:
        origins = [[CellOrigin("unchanged")] * n] * n
    prov = [list(row) + [None] * k for row in origins]
    prov += [[None] * (n + k) for _ in range(k)]
    crossings = []
    for j, (cols, values, kept, *_) in enumerate(objs, start=step):
        f, nr, nc = fill[j - step], n + ra[j - step], n + ca[j - step]
        crossings.append((nr, nc))
        vacated, to_col, to_row, border_fill = (
            CellOrigin(kind, j)
            for kind in ("vacated", "projected_col", "projected_row", "border_fill"))
        new_row, new_prov = grid[nr - 1], prov[nr - 1]
        for x, (c, v) in enumerate(zip(cols, values), start=1):
            row, origins = grid[x - 1], prov[x - 1]
            if x == kept:
                origins[c - 1] = CellOrigin("kept", j)
                if border:
                    row[nc - 1] = new_row[c - 1] = f
                    origins[nc - 1] = new_prov[c - 1] = border_fill
                continue
            row[c - 1] = f
            origins[c - 1] = vacated
            row[nc - 1] = new_row[c - 1] = v
            origins[nc - 1] = to_col
            new_prov[c - 1] = to_row
    return grid, prov, crossings


def _finish(grid, prov, **extra) -> ConstructionReport:
    try:
        out = LatinSquare(tuple(tuple(row) for row in grid))
    except GridError as exc:  # unreachable for valid parameters
        raise LatinError(f"construction produced an invalid square: {exc}")
    return ConstructionReport(out, _Provenance(prov), **extra)


def _prolong_one(square: LatinSquare, obj, origins=None, step: int = 1,
                 **extra) -> ConstructionReport:
    """Project one parameter object as `step` over the input's `origins`
    (see _project) and write at (n+1, n+1) the one symbol of 1..n+1 its
    new column lacks: a border_fill when no cell is kept, otherwise a
    diagonal_seed."""
    n = square.order
    grid, prov, _ = _project(square, [obj], None, None, None,
                             origins=origins, step=step)
    [grid[n][n]] = set(range(1, n + 2)).difference(row[n] for row in grid[:n])
    prov[n][n] = CellOrigin("border_fill" if obj[2] is None else "diagonal_seed", step)
    return _finish(grid, prov, **extra)


def prolong_bruck(square, transversal) -> ConstructionReport:
    """Order n+1 from one transversal.

    Each transversal cell's value moves into the new column of its row
    and the new row of its column; the cell itself receives the new
    symbol n+1, as does the corner (n+1, n+1).
    """
    square = _as_square(square)
    return _prolong_one(square, _transversal_obj(square, transversal))


def prolong_disjoint(square, transversals, fill=None, col_assign=None,
                     row_assign=None, bottom=None) -> ConstructionReport:
    """Order n+k from k pairwise disjoint transversals.

    Transversal j's values are projected into new column n+col_assign(j)
    and new row n+row_assign(j); its vacated cells receive fill(j).  The
    k x k block at the new rows x new columns is copied literally from
    `bottom`, a Latin square on the symbols n+1..n+k (default: the
    cyclic square on those symbols).  With k = 1 and defaults this is
    exactly prolong_bruck.
    """
    square = _as_square(square)
    n = square.order
    objs = [_transversal_obj(square, t) for t in _listed(transversals, "transversals")]
    grid, prov, _ = _project(square, objs, fill, col_assign, row_assign)
    block = CellOrigin("border_fill")
    for i, row in enumerate(_check_bottom(bottom, n, len(objs)), start=n):
        grid[i][n:] = row
        prov[i][n:] = [block] * len(row)
    return _finish(grid, prov)


def _check_bottom(bottom, n: int, k: int) -> tuple[tuple[int, ...], ...]:
    if bottom is None:
        return tuple(tuple(v + n for v in row) for row in cyclic_square(k).rows)
    try:
        rows = tuple(tuple(row) for row in bottom)
    except TypeError:
        rows = None
    if rows is None or len(rows) != k or any(len(r) != k for r in rows):
        raise DomainError(f"bottom block must be {k}x{k}")
    try:
        LatinSquare(tuple(tuple(v - n for v in row) for row in rows))
    except (GridError, TypeError):
        raise DomainError(
            f"bottom block must be a Latin square on symbols "
            f"{n + 1}..{n + k}, got {rows}") from None
    return rows


def prolong_belyavskaya(square, transversal, excepted) -> ConstructionReport:
    """Order n+1 from a transversal with one cell exempted.

    As prolong_bruck, except the transversal cell `excepted` (1-based
    (row, col), which must lie on the transversal) keeps its value a;
    the border cells of its row and column receive the new symbol, and
    the corner receives a.  Equivalently: Bruck's output with the 2x2
    intercalate at rows {excepted.row, n+1} x cols {excepted.col, n+1}
    swapped.
    """
    square = _as_square(square)
    obj = _transversal_obj(square, transversal)
    return _prolong_one(square, _excepting(obj, excepted, "the transversal"))


def prolong_belyavskaya_gen(square, pairs, fill=None, col_assign=None,
                            row_assign=None,
                            limit: int | None = None) -> list[ConstructionReport]:
    """Order n+k from k disjoint transversals, each with an exempted cell.

    pairs is a sequence of (transversal, excepted) with excepted a
    1-based (row, col) on its transversal.  Non-exempted cells are
    projected and vacated as in prolong_disjoint; each exempted cell
    keeps its value, and the border cells it would have projected into
    receive fill(j) instead.  The k x k bottom block is then resolved by
    the completion search: one report per completion (at most `limit`),
    in the solver's deterministic order.  An empty list means no
    completion exists.
    """
    square = _as_square(square)
    # a list cell reads as a tuple in the error, as a tuple cell does
    objs = [_excepting(_transversal_obj(square, t),
                       tuple(e) if isinstance(e, Iterable) else e, "its transversal")
            for t, e in _listed(pairs, "pairs", pairs=True)]
    grid, prov, _ = _project(square, objs, fill, col_assign, row_assign)
    return _complete_reports(grid, prov, limit)


def _complete_reports(grid, prov, limit: int | None) -> list[ConstructionReport]:
    """Resolve the unfilled cells by search; one report per completion,
    all sharing one provenance grid."""
    partial = PartialLatinSquare(tuple(
        tuple(v if v else None for v in row) for row in grid))
    completed = CellOrigin("completed")
    for (r, c) in partial.empty_cells():
        prov[r - 1][c - 1] = completed
    view = _Provenance(prov)
    completions = complete_partial(partial, limit=limit)
    return [ConstructionReport(sq, view, completions_found=len(completions))
            for sq in completions]


def prolong_dd(square, mapping, kept_x: int | None = None) -> ConstructionReport:
    """Order n+1 from a quasicomplete mapping.

    All cells (x, sigma(x)) with x != kept_x are projected and vacated
    as in prolong_bruck; the cell at kept_x (which must be one of the
    duplicate pair, default its larger element) keeps its value, its
    border cells receive the new symbol, and the corner receives the
    special element.
    """
    square = _as_square(square)
    return _prolong_one(square, _quasicomplete_obj(square, mapping, kept_x))


def prolong_dd_gen(square, pairs, fill=None, col_assign=None, row_assign=None,
                   seed_diagonal: bool = True,
                   limit: int | None = None) -> list[ConstructionReport]:
    """Order n+k from k cell-disjoint quasicomplete mappings.

    pairs is a sequence of (mapping, kept_x) with kept_x in the
    mapping's duplicate pair (None = its larger element).  Non-kept
    cells are projected and vacated with fill(j); kept cells stay.  When
    seed_diagonal, the diagonal cell (n+row_assign(j), n+col_assign(j))
    is seeded with mapping j's special element.  The remaining border
    and block cells are resolved by the completion search: one report
    per completion (at most `limit`); empty list if none exists.
    """
    square = _as_square(square)
    objs = [_quasicomplete_obj(square, m, kx)
            for m, kx in _listed(pairs, "pairs", pairs=True)]
    grid, prov, crossings = _project(square, objs, fill, col_assign, row_assign,
                                     border=False, what="mappings")
    if seed_diagonal:
        for j, ((*_, special), (r, c)) in enumerate(zip(objs, crossings), start=1):
            grid[r - 1][c - 1] = special
            prov[r - 1][c - 1] = CellOrigin("diagonal_seed", j)
    return _complete_reports(grid, prov, limit)


def two_step(square, t1, t2, first: str = "bruck", excepted=None,
             kept_choice: int | None = None) -> ConstructionReport:
    """Order n+2 by two passes of the single-step kernel.

    Step 1 is `first` on (square, t1): a Bruck step, or a Belyavskaya
    step keeping the excepted cell.  Step 2 extends t2's columns to a
    permutation sigma2 of 1..n+1 by sigma2(n+1) = n+1 and classifies it
    against the intermediate square.  Because t1 and t2 are disjoint,
    sigma2 is complete after a Bruck step 1 (step 2: a Bruck step) and
    quasicomplete after a Belyavskaya one (step 2: a DD step keeping row
    kept_choice, default n+1: row n+1 reads step 1's corner, a symbol t2
    already holds, so n+1 always ends the duplicate pair).  A cell step 2
    leaves unchanged keeps its step-1 origin; step 2's own cells are
    labelled step 2.  The report's `intermediate` field carries sigma2's
    classification record.  excepted and kept_choice apply only to a
    belyavskaya first step; passing either with first="bruck" raises
    DomainError.
    """
    square = _as_square(square)
    obj1 = _transversal_obj(square, t1)
    cols2 = _transversal_obj(square, t2)[0]
    n = square.order
    _check_disjoint([obj1[0], cols2], "transversals")

    if first == "bruck":
        for name, value in (("excepted", excepted), ("kept_choice", kept_choice)):
            if value is not None:
                raise DomainError(f"{name} applies only to a belyavskaya first step")
    elif first == "belyavskaya":
        if excepted is None:
            raise DomainError("a belyavskaya first step needs an excepted cell")
        obj1 = _excepting(obj1, excepted, "the transversal")
    else:
        raise DomainError(f"first step must be bruck or belyavskaya, got {first!r}")
    rep1 = _prolong_one(square, obj1)

    rec2 = conjugated_mapping(rep1.output, cols2 + (n + 1,))
    if rec2.kind == "complete":
        x2 = None
    elif rec2.kind == "quasicomplete":
        x2 = _kept_row(rec2, kept_choice)
    else:  # impossible for disjoint transversals
        raise LatinError("two-step invariant violated: sigma2 is neither "
                         "complete nor quasicomplete")
    return _prolong_one(rep1.output, (rec2.sigma, rec2.sigma_bar, x2),
                        rep1.provenance._rows, step=2, intermediate=rec2)


def _contract(square, deleted: int, corner: bool) -> tuple[LatinSquare, list[int]]:
    """The inverse of _project for one parameter object.

    The corner (m, m) must hold `deleted` exactly when `corner`.  Removes
    `deleted` and the last row and column: the kept row r0, whose last
    cell holds `deleted`, stays; every other row's `deleted` cell takes
    the row's last value; symbols above `deleted` shift down by one.
    Returns the square and each row's recovered 1-based column (for r0,
    where the last row holds `deleted`).

    The repaired rows are always Latin.  Column c < m is Latin exactly
    when the row holding `deleted` there (if any) takes q(m, c) from its
    last cell; that O(m) test runs before the grid is built.
    """
    square = _as_square(square)
    m = square.order
    if m < 2:
        raise DomainError("cannot contract an order-1 square")
    if not (_is_int(deleted) and 1 <= deleted <= m):
        raise DomainError(f"deleted symbol must be in 1..{m}, got {deleted!r}")
    n = m - 1
    held = square.cell(m, m)
    if corner != (held == deleted):
        raise InfeasibleError(
            f"corner holds {held}, not the deleted symbol {deleted}" if corner
            else f"corner holds the deleted symbol {deleted}; use contract_bruck")
    rows, last = square.rows[:n], square.rows[n]
    where = [big.index(deleted) for big in rows]
    if any(big[n] != last[c] for big, c in zip(rows, where) if c < n):
        raise InfeasibleError(
            f"removing symbol {deleted} does not leave a Latin square")
    grid = [list(big[:n]) for big in rows]
    for row, big, c in zip(grid, rows, where):
        if c < n:
            row[c] = big[n]
    if deleted != m:
        grid = [[v - 1 if v > deleted else v for v in row] for row in grid]
    cols = [c + 1 if c < n else last.index(deleted) + 1 for c in where]
    return LatinSquare(tuple(map(tuple, grid))), cols


def contract_bruck(square, deleted: int) -> tuple[LatinSquare, Transversal]:
    """Invert prolong_bruck: remove one symbol and the last row and column.

    Requires the corner (m, m) to hold `deleted`.  In each remaining
    row, the cell holding `deleted` is repaired with that row's last-
    column value; those cells form the recovered transversal.  When
    deleted != m, surviving symbols above it shift down by one so the
    result uses 1..m-1.  Raises InfeasibleError when the corner does not
    match or the repaired grid is not Latin (not every square arises
    from a prolongation).
    """
    small, cols = _contract(square, deleted, corner=True)
    return small, transversal_of(small, cols)


def contract_except(square, deleted: int) -> tuple[LatinSquare, MappingRecord]:
    """Invert prolong_belyavskaya / prolong_dd.

    Requires the corner (m, m) NOT to hold `deleted`; the row r0 and
    column c0 with q(r0, m) = q(m, c0) = deleted mark the cell that was
    exempted from projection, which is left untouched.  Every other row
    is repaired as in contract_bruck.  Returns the contracted square and
    the recovered sigma classified against it: complete means the input
    came from prolong_belyavskaya, quasicomplete from prolong_dd.
    """
    small, sigma = _contract(square, deleted, corner=False)
    return small, conjugated_mapping(small, sigma)


def feasible_contractions(square, method: str):
    """Try every deleted symbol; return [(deleted, square, parameter), ...].

    method is "bruck" or "except".  Symbols whose contraction raises
    InfeasibleError are skipped; the list may be empty.
    """
    if method not in ("bruck", "except"):
        raise DomainError(f"method must be bruck or except, got {method!r}")
    square = _as_square(square)
    op = contract_bruck if method == "bruck" else contract_except
    found = []
    for deleted in range(1, square.order + 1):
        try:
            small, param = op(square, deleted)
        except InfeasibleError:
            continue
        found.append((deleted, small, param))
    return found
