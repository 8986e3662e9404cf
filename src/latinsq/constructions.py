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
how they fill the rest of the new block: the corner (prolong_bruck,
prolong_belyavskaya, prolong_dd), a literal bottom block
(prolong_disjoint), or the completion search (the generalized ones).
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

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from itertools import chain

from .core import (
    DomainError,
    GridError,
    InfeasibleError,
    LatinError,
    LatinSquare,
    PartialLatinSquare,
    _as_square,
    _check_perm,
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

    step is the 1-based index of the parameter object (transversal or
    mapping) responsible, or None where no single one is (unchanged,
    completed, and the literal bottom block of prolong_disjoint).
    """

    kind: str
    step: int | None = None

    def __post_init__(self):
        if self.kind not in ORIGIN_KINDS:
            raise DomainError(f"unknown origin kind {self.kind!r}")

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
    iterated row-major.  A mapping passed in must cover every output
    cell exactly once.  completions_found is the number of completions
    the search produced (generalized constructions only; all reports of
    one call share the value and the provenance).  intermediate is the
    classification record of the second-step mapping (two_step only).
    """

    output: LatinSquare
    provenance: Mapping[tuple[int, int], CellOrigin] = field(repr=False)
    completions_found: int | None = None
    intermediate: MappingRecord | None = None

    def __post_init__(self):
        m = self.output.order
        prov = self.provenance
        if isinstance(prov, _Provenance):
            covered = len(prov._rows) == m and set(map(len, prov._rows)) == {m}
        else:
            span = range(1, m + 1)
            covered = set(prov) == {(r, c) for r in span for c in span}
            if covered:
                prov = _Provenance([[prov[(r, c)] for c in span] for r in span])
        if not covered:
            raise DomainError("provenance must cover every output cell exactly once")
        object.__setattr__(self, "provenance", prov)


def _as_transversal(square: LatinSquare, t) -> Transversal:
    cols = t.cols if isinstance(t, Transversal) else t
    return transversal_of(square, cols)


def _as_quasicomplete(square: LatinSquare, m) -> MappingRecord:
    sigma = m.sigma if isinstance(m, MappingRecord) else m
    record = conjugated_mapping(square, sigma)
    if record.kind != "quasicomplete":
        raise DomainError(
            f"sigma {record.sigma} is {record.kind}, not quasicomplete")
    return record


def _check_disjoint(cell_sets: Sequence[Sequence[tuple[int, int]]],
                    what: str) -> None:
    seen: dict[tuple[int, int], int] = {}
    for j, cells in enumerate(cell_sets, start=1):
        for cell in cells:
            if cell in seen:
                raise DomainError(
                    f"{what} {seen[cell]} and {j} share cell {cell}")
            seen[cell] = j


def _project(square: LatinSquare, objs, fill, col_assign, row_assign,
             border: bool = True, what: str = "transversals"):
    """The projection shared by every prolongation.

    objs holds one (cols, values, kept_row | None) per parameter object.
    Object j's cells other than the kept one are vacated with fill(j),
    their values moved to new column n+col_assign(j) of their row and
    new row n+row_assign(j) of their column.  When `border`, the two
    cells the kept cell would have projected into receive fill(j);
    otherwise they stay unfilled.  Checks fill, the assignments (None =
    defaults) and that the objects (`what`) are disjoint.  Returns the
    working grid (0 = unfilled), its provenance grid (None = unfilled;
    one shared CellOrigin per kind and step), and each object's 1-based
    (new row, new column) crossing in the k x k block.
    """
    n = square.order
    k = len(objs)
    if not 1 <= k <= n:
        raise DomainError(f"need between 1 and {n} parameter objects, got {k}")
    fill = tuple(range(n + 1, n + k + 1) if fill is None else fill)
    if sorted(fill) != list(range(n + 1, n + k + 1)):
        raise DomainError(
            f"fill must be a bijection onto {n + 1}..{n + k}, got {fill}")
    ca = tuple(_check_perm(col_assign, k, "col_assign")) \
        if col_assign is not None else tuple(range(1, k + 1))
    ra = tuple(_check_perm(row_assign, k, "row_assign")) \
        if row_assign is not None else tuple(range(1, k + 1))
    _check_disjoint([list(enumerate(cols, start=1)) for cols, _, _ in objs], what)
    grid = [list(row) + [0] * k for row in square.rows]
    grid += [[0] * (n + k) for _ in range(k)]
    unchanged = CellOrigin("unchanged")
    prov = [[unchanged] * n + [None] * k for _ in range(n)]
    prov += [[None] * (n + k) for _ in range(k)]
    crossings = []
    for j, (cols, values, kept) in enumerate(objs, start=1):
        f, nr, nc = fill[j - 1], n + ra[j - 1], n + ca[j - 1]
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


def _prolong_one(square: LatinSquare, obj, corner: int,
                 kind: str) -> ConstructionReport:
    """Project one parameter object and write `corner` at (n+1, n+1)."""
    grid, prov, [(r, c)] = _project(square, [obj], None, None, None)
    grid[r - 1][c - 1] = corner
    prov[r - 1][c - 1] = CellOrigin(kind, 1)
    return _finish(grid, prov)


def _excepted_row(t: Transversal, cell, where: str) -> int:
    """The row of `cell`, which must lie on the transversal t."""
    x0, y0 = cell
    if not (1 <= x0 <= t.order and t.cols[x0 - 1] == y0):
        raise DomainError(f"excepted cell {cell} does not lie on {where}")
    return x0


def _kept_row(rec: MappingRecord, kept_x: int | None) -> int:
    """kept_x, which must be in rec's duplicate pair (None = its larger)."""
    if kept_x is None:
        kept_x = rec.duplicate_pair[1]
    if kept_x not in rec.duplicate_pair:
        raise DomainError(
            f"kept row {kept_x} is not in the duplicate pair {rec.duplicate_pair}")
    return kept_x


def prolong_bruck(square, transversal) -> ConstructionReport:
    """Order n+1 from one transversal.

    Each transversal cell's value moves into the new column of its row
    and the new row of its column; the cell itself receives the new
    symbol n+1, as does the corner (n+1, n+1).
    """
    square = _as_square(square)
    t = _as_transversal(square, transversal)
    return _prolong_one(square, (t.cols, t.values, None), square.order + 1,
                        "border_fill")


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
    ts = [_as_transversal(square, t) for t in transversals]
    grid, prov, _ = _project(square, [(t.cols, t.values, None) for t in ts],
                             fill, col_assign, row_assign)
    block = CellOrigin("border_fill")
    for i, row in enumerate(_check_bottom(bottom, n, len(ts)), start=n):
        grid[i][n:] = row
        prov[i][n:] = [block] * len(row)
    return _finish(grid, prov)


def _check_bottom(bottom, n: int, k: int) -> tuple[tuple[int, ...], ...]:
    if bottom is None:
        return tuple(tuple(v + n for v in row) for row in cyclic_square(k).rows)
    rows = tuple(tuple(row) for row in bottom)
    if len(rows) != k or any(len(r) != k for r in rows):
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
    t = _as_transversal(square, transversal)
    x0 = _excepted_row(t, excepted, "the transversal")
    return _prolong_one(square, (t.cols, t.values, x0), t.values[x0 - 1],
                        "diagonal_seed")


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
    objs = []
    for t, e in pairs:
        t = _as_transversal(square, t)
        objs.append((t.cols, t.values, _excepted_row(t, tuple(e), "its transversal")))
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
    rec = _as_quasicomplete(square, mapping)
    return _prolong_one(square, (rec.sigma, rec.sigma_bar, _kept_row(rec, kept_x)),
                        rec.special, "diagonal_seed")


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
    recs = []
    objs = []
    for m_, kx in pairs:
        rec = _as_quasicomplete(square, m_)
        recs.append(rec)
        objs.append((rec.sigma, rec.sigma_bar, _kept_row(rec, kx)))
    grid, prov, crossings = _project(square, objs, fill, col_assign, row_assign,
                                     border=False, what="mappings")
    if seed_diagonal:
        for j, (rec, (r, c)) in enumerate(zip(recs, crossings), start=1):
            grid[r - 1][c - 1] = rec.special
            prov[r - 1][c - 1] = CellOrigin("diagonal_seed", j)
    return _complete_reports(grid, prov, limit)


def two_step(square, t1, t2, first: str = "bruck", excepted=None,
             kept_choice: int | None = None) -> ConstructionReport:
    """Order n+2 by a single-transversal step followed by a mapping step.

    Applies `first` ("bruck", or "belyavskaya" with its excepted cell)
    to (square, t1), then extends t2's columns to a permutation sigma2
    of 1..n+1 by sigma2(n+1) = n+1 and classifies it against the
    intermediate square.  Because t1 and t2 are disjoint, sigma2 is
    complete after a bruck first step (second step: prolong_bruck) and
    quasicomplete after a belyavskaya one (second step: prolong_dd with
    kept_choice, default n+1).  The report's provenance labels first-
    step cells with step 1 and second-step cells with step 2, and its
    `intermediate` field carries sigma2's classification record.
    excepted and kept_choice apply only to a belyavskaya first step;
    passing either with first="bruck" raises DomainError.
    """
    square = _as_square(square)
    ta = _as_transversal(square, t1)
    tb = _as_transversal(square, t2)
    n = square.order
    _check_disjoint([ta.cells(), tb.cells()], "transversals")

    if first == "bruck":
        for name, value in (("excepted", excepted), ("kept_choice", kept_choice)):
            if value is not None:
                raise DomainError(f"{name} applies only to a belyavskaya first step")
        rep1 = prolong_bruck(square, ta)
    elif first == "belyavskaya":
        if excepted is None:
            raise DomainError("a belyavskaya first step needs an excepted cell")
        rep1 = prolong_belyavskaya(square, ta, excepted)
    else:
        raise DomainError(f"first step must be bruck or belyavskaya, got {first!r}")

    qp = rep1.output
    sigma2 = tb.cols + (n + 1,)
    rec2 = conjugated_mapping(qp, sigma2)
    if rec2.kind == "complete":
        rep2 = prolong_bruck(qp, sigma2)
    elif rec2.kind == "quasicomplete":
        kept = kept_choice if kept_choice is not None else n + 1
        rep2 = prolong_dd(qp, rec2, kept)
    else:  # impossible for disjoint transversals
        raise LatinError("two-step invariant violated: sigma2 is neither "
                         "complete nor quasicomplete")

    # Row by row: a cell the second step left unchanged keeps its first-
    # step origin; the second step's own origins are relabelled step 2.
    first, second = rep1.provenance._rows, rep2.provenance._rows
    step2 = {o: CellOrigin(o.kind, 2 if o.step is not None else None)
             for o in set(chain.from_iterable(second))}
    prov = _Provenance(
        [first[r][c] if o.kind == "unchanged" else step2[o]
         for c, o in enumerate(row)]
        for r, row in enumerate(second))
    return ConstructionReport(rep2.output, prov, intermediate=rec2)


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
    if not 1 <= deleted <= m:
        raise DomainError(f"deleted symbol must be in 1..{m}, got {deleted}")
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
