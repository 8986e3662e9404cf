"""Transversals and (quasi)complete mappings of a Latin square.

A transversal of an order-n square is a set of n cells, one per row and
one per column, covering every symbol exactly once.  Picking cell
(x, sigma(x)) in row x makes sigma a permutation; the induced map

    sigma_bar(x) = q(x, sigma(x))

is then also a permutation, and conversely any permutation sigma whose
sigma_bar is a permutation marks a transversal.  Such a sigma is a
complete mapping of the quasigroup.

Relaxing bijectivity one step gives quasicomplete mappings: sigma is a
permutation whose sigma_bar hits n - 1 distinct values, so exactly one
symbol (the repeated one) occurs at two arguments x1 < x2 (the duplicate
pair) and exactly one symbol (the special one) never occurs.  Complete
and quasicomplete mappings are the raw material of the prolongation
constructions in `latinsq.constructions`.

One row search finds transversals, disjoint families and quasicomplete
mappings: backtracking with column/symbol bitmasks on an explicit stack,
never recursive, in lexicographic sigma order; a quasicomplete search is
a transversal search that may take one symbol twice.  Counts grow fast,
so the finders accept a limit; `iter_*` variants yield lazily.  A full
enumeration of transversals or quasicomplete mappings (no limit) meets
in the middle instead: the row search runs once over the bottom half of
the rows, filing each partial under its column and symbol masks, and
once over the top half, whose partials each look up their complements:
the same list, in the same order, for far less search.  The list files
each bottom partial as its raw column picks, and the count as their
number, so `count_transversals` and `count_quasicomplete_mappings`
build no result.  A quasicomplete bottom is filed under each key a top
can complete it by, so a top makes one lookup per symbol it misses.  A
limited or lazy search keeps the row search, as the join must finish
the bottom half first.

With a limit, disjoint families are built member by member, each member
searched with the earlier members' cells masked out.  Without one, the
list and `count_disjoint_families` share one walk over bitsets of the
list of every transversal.

Every function takes a LatinSquare or a plain grid that forms one; any
other grid raises GridError.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, compress, islice
from operator import itemgetter, or_
from typing import Iterator, Sequence

from .core import (DomainError, LatinSquare, _as_square, _check_limit,
                   _check_perm, _is_int)


@dataclass(frozen=True)
class Transversal:
    """A transversal, stored as the column picked in each row.

    cols[x - 1] is the 1-based column chosen in row x; values[x - 1] is
    the symbol found there.  Both are permutations of 1..order.
    """

    order: int
    cols: tuple[int, ...]
    values: tuple[int, ...]

    def cells(self) -> list[tuple[int, int]]:
        """1-based (row, col) pairs, by row."""
        return [(x + 1, c) for x, c in enumerate(self.cols)]


@dataclass(frozen=True)
class MappingRecord:
    """A permutation sigma together with its conjugated map and class.

    kind is "complete" (sigma_bar bijective), "quasicomplete" (one value
    doubled, one missing) or "neither".  For quasicomplete records,
    special is the missing symbol and duplicate_pair the two arguments
    x1 < x2 with sigma_bar(x1) == sigma_bar(x2); both are None otherwise.
    """

    order: int
    sigma: tuple[int, ...]
    sigma_bar: tuple[int, ...]
    kind: str
    special: int | None = None
    duplicate_pair: tuple[int, int] | None = None


def transversal_of(square: LatinSquare, cols: Sequence[int]) -> Transversal:
    """Build (and check) the transversal picking column cols[x-1] in row x.

    Raises DomainError if cols is not a permutation or the chosen cells
    repeat a symbol.
    """
    square = _as_square(square)
    n = square.order
    cols = tuple(_check_perm(cols, n, "transversal"))
    values = tuple(square.rows[x][cols[x] - 1] for x in range(n))
    if len(set(values)) != n:
        raise DomainError(
            f"cells at columns {cols} repeat a symbol: {values}")
    return Transversal(n, cols, values)


def conjugated_mapping(square: LatinSquare,
                       sigma: Sequence[int]) -> MappingRecord:
    """Classify the permutation sigma by its conjugated map on the square.

    sigma_bar(x) = q(x, sigma(x)).  The record carries the classification
    ("complete" / "quasicomplete" / "neither") plus the special symbol
    and duplicate pair when quasicomplete.
    """
    square = _as_square(square)
    sigma = tuple(_check_perm(sigma, square.order, "sigma"))
    return _classified(square.rows, sigma)


def _classified(rows, sigma: tuple[int, ...]) -> MappingRecord:
    """conjugated_mapping for a sigma already known to be a permutation."""
    n = len(rows)
    bar = tuple([rows[x][c - 1] for x, c in enumerate(sigma)])
    seen = set(bar)
    if len(seen) == n:
        return MappingRecord(n, sigma, bar, "complete")
    if len(seen) == n - 1:  # bar misses one of 1..n and holds one twice
        twice = sum(bar) - sum(seen)
        x1 = bar.index(twice) + 1
        return MappingRecord(n, sigma, bar, "quasicomplete",
                             special=n * (n + 1) // 2 - sum(seen),
                             duplicate_pair=(x1, bar.index(twice, x1) + 1))
    return MappingRecord(n, sigma, bar, "neither")


def _transversal_cols(rows, allowed: list[int] | None = None,
                      repeat: bool = False) -> Iterator[tuple[list[int], int]]:
    """Yield the column picks of every transversal whose cell in row x
    lies in the column bitmask allowed[x] (any column if allowed is None),
    in lexicographic order.  A pick lists the 1-based column of each row.

    rows may be a band of a square's rows: the search then yields every
    partial transversal of the band.  Each pick comes with its key, the
    column mask of the picked cells ORed with their symbol mask shifted
    up by the width n of the rows.

    With repeat, a pick may also take one symbol twice (a full one that
    does is a quasicomplete mapping).  The repeat is a spare bit above the
    n symbol bits of vals_used; a transversal search starts with it set,
    so no symbol is taken twice.  The spare bit is part of the key, as bit
    2n: with repeat it says whether the pick took a symbol twice.

    The one list yielded is updated in place; copy it to keep it.  The
    search runs on an explicit stack, one level per row but the last, so
    no order can overflow the recursion limit.  The last row gets no level
    of its own: each pick in the row before it runs through the last row's
    free columns in one inner loop and yields the leaves from there.  A
    band of one row has no row before its last, so it yields from the
    stack.
    """
    n = len(rows[0])
    depth = len(rows)
    spare = 1 << n
    if allowed is None:
        allowed = [spare - 1] * depth
    # symbol bits by 1-based column
    vbits = [[0] + [1 << (v - 1) for v in row] for row in rows]
    picked = [0] * depth
    avail = [0] * depth
    cols_used = [0] * depth
    vals_used = [0] * depth
    avail[0] = allowed[0]
    vals_used[0] = 0 if repeat else spare
    last = depth - 1
    last_allowed = allowed[last]
    last_vbits = vbits[last]
    x = 0
    while x >= 0:
        a = avail[x]
        if not a:
            x -= 1
            continue
        bit = a & -a
        avail[x] = a ^ bit
        c = bit.bit_length()
        vbit = vbits[x][c]
        vals = vals_used[x]
        if vals & vbit:
            if vals >= spare:
                continue
            vbit = spare
        picked[x] = c
        used = cols_used[x] | bit
        vals |= vbit
        if x + 1 < last:
            x += 1
            cols_used[x] = used
            vals_used[x] = vals
            avail[x] = allowed[x] & ~used
            continue
        if x == last:  # a band of one row, which has no row before its last
            yield picked, used | vals << n
            continue
        a = last_allowed & ~used
        while a:
            bit = a & -a
            a ^= bit
            c = bit.bit_length()
            vbit = last_vbits[c]
            if vals & vbit:
                if vals >= spare:
                    continue
                vbit = spare
            picked[last] = c
            yield picked, used | bit | (vals | vbit) << n


def _transversal(rows, picked: list[int]) -> Transversal:
    return Transversal(len(rows), tuple(picked),
                       tuple([rows[x][c - 1] for x, c in enumerate(picked)]))


def iter_transversals(square: LatinSquare) -> Iterator[Transversal]:
    """Yield every transversal, in lexicographic column order."""
    rows = _as_square(square).rows
    return (_transversal(rows, picked) for picked, _ in _transversal_cols(rows))


def _join(rows, repeat: bool = False, count: bool = False):
    """Meet in the middle over every transversal of the square rows, or
    with repeat over every quasicomplete mapping.

    The rows split into a top band of ceil(n/2) rows and a bottom band of
    the h others.  Each bottom partial is filed under its key: the list
    files the tuple of its h columns, in the order they came, and the
    count their number.  Each top partial then looks up the keys of the
    bottoms that complete it and is yielded with what it found; with
    count the tops are tabled by key too, and each distinct key is
    yielded once, as (its number of top partials, the number of bottoms
    completing one).  Both bands come in lexicographic order, so a top
    followed by the bottoms it found, in order, is lexicographic too.

    A transversal's top has one complement, the columns and symbols it
    misses, and is yielded as (picks, tails), one pair (the h columns, the
    h symbols) per bottom.  The first top to meet a key builds its tails
    in place of the raw picks, so a key no top meets builds no tail.  The
    picks list is updated in place.

    A quasicomplete mapping misses one symbol, special, which its top
    misses too.  With M the symbols the top misses, the bottom takes the
    other columns and is
      - a plain pick on M less special, if the top took a symbol twice;
      - otherwise a pick on M less special that took a symbol twice,
      - or a plain pick on M less special plus one symbol the top took.
    So each bottom is filed under every key a top can complete it by: one
    that took a symbol twice under its key without the spare bit, a plain
    one under its own key and under its key less each of its symbols,
    tagged with that symbol.  A top looks up M less each symbol of M.  A
    tag the top misses marks a plain pick on exactly M, which would make
    a transversal: the list skips it, and the count takes those picks off
    once per lookup.  The list yields (picks, [(sigma, special), ...]) in
    sigma order.
    """
    n = len(rows)
    split = (n + 1) // 2
    spare = 1 << 2 * n
    want = spare - 1
    sym_bits = [1 << i for i in range(n, 2 * n)]  # the symbols' bits in a key
    # order 1: the bottom band is empty, with one partial of empty key
    bottom = (_transversal_cols(rows[split:], repeat=repeat) if split < n
              else [([], 0 if repeat else spare)])
    top = _transversal_cols(rows[:split], repeat=repeat)
    if count:
        table = Counter(map(itemgetter(1), bottom))
        tops = Counter(map(itemgetter(1), top))
        top = zip(tops.values(), tops)
    else:
        table = {}
        for picked, key in bottom:
            table.setdefault(key, []).append(tuple(picked))

        def meet(key):
            entry = table[key]
            if type(entry) is list:  # raw picks: build the tails once
                table[key] = entry = tuple([
                    (cols, tuple([rows[x][c - 1]
                                  for x, c in enumerate(cols, split)]))
                    for cols in entry])
            return entry
    if repeat:  # file each bottom under every key a top can complete it by
        table, filed = {}, table
        for key, entry in filed.items():
            homes = ([(key ^ spare, 0)] if key >= spare else
                     [(key, 0)] + [(key ^ b, b) for b in sym_bits if key & b])
            for less, tag in homes:
                if count:
                    table[less] = table.get(less, 0) + entry
                else:
                    table.setdefault(less, []).append((tag, entry))
    get = table.get
    for picks, key in top:
        if not repeat:  # both keys carry the spare bit, and XOR flips the rest
            entry = get(key ^ want)
            if entry:
                if type(entry) is list:
                    entry = meet(key ^ want)
                yield picks, entry
            continue
        base = ~key & want  # the columns and symbols the top misses
        found = 0 if count else []
        for m in sym_bits:
            if base & m and (entry := get(base ^ m)):
                if count:
                    found += entry
                else:
                    special = (m >> n).bit_length()
                    found += [((*picks, *cols), special) for tag, picked in entry
                              if not tag & base for cols in picked]
        if count and key < spare:  # each lookup also counted the plain picks on M
            found -= (n - split) * get(base, 0)
        if found:
            yield picks, found if count else sorted(found)


def find_transversals(square: LatinSquare,
                      limit: int | None = None) -> list[Transversal]:
    """All transversals (or the first `limit` of them, lexicographically).

    With a limit this is the lazy row search of `iter_transversals`,
    which stops at the `limit`-th result.  Without one it joins the
    partial transversals of the top and bottom halves of the rows, which
    costs far less than searching all n rows; the list is the same.
    """
    _check_limit(limit)
    if limit is not None:
        return list(islice(iter_transversals(square), limit))
    rows = _as_square(square).rows
    n = len(rows)
    found = []
    for picked, tails in _join(rows):
        cols = tuple(picked)
        values = tuple([rows[x][c - 1] for x, c in enumerate(picked)])
        found += [Transversal(n, cols + tail_cols, values + tail_values)
                  for tail_cols, tail_values in tails]
    return found


def count_transversals(square: LatinSquare) -> int:
    """The number of transversals, found as `find_transversals` finds
    them but counted per key, without building a single Transversal."""
    rows = _as_square(square).rows
    return sum(tops * bottoms for tops, bottoms in _join(rows, count=True))


def find_disjoint_transversals(square: LatinSquare, k: int,
                               limit: int | None = None
                               ) -> list[tuple[Transversal, ...]]:
    """Families of k pairwise cell-disjoint transversals.

    Two transversals are disjoint when they share no cell, i.e. their
    column picks differ in every row.  Families are unordered; each is
    reported once, members sorted lexicographically, and the family list
    itself is in lexicographic order.  k = 1 yields one singleton family
    per transversal; k = n asks for a partition of all n^2 cells into
    transversals, i.e. an orthogonal mate of the square.

    With a limit the families are built member by member, each member
    searched directly with the cells of the earlier members masked out,
    so the search stops at the first `limit` families.  Without one they
    come from the bitset walk that `count_disjoint_families` counts on,
    which is faster when every family is wanted.
    """
    square = _as_square(square)
    _check_family_size(k, square.order)
    _check_limit(limit)
    if limit is None:
        return _all_families(square, k, count=False)
    return list(islice(_families(square, k), limit))


def _check_family_size(k, n: int) -> None:
    if not (_is_int(k) and 1 <= k <= n):
        raise DomainError(f"family size must be in 1..{n}, got {k!r}")


def count_disjoint_families(square: LatinSquare, k: int) -> int:
    """The number of families `find_disjoint_transversals` lists, counted
    on its bitset walk without building a single family."""
    square = _as_square(square)
    _check_family_size(k, square.order)
    return _all_families(square, k, count=True)


def _bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# a bitset's binary digits, lowest first, as bytes 1 and 0 for compress
_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _all_families(square: LatinSquare, k: int, count: bool):
    """Every family of k disjoint transversals, lexicographically, or
    with count their number, drawn from the list of every transversal.

    Transversal i of that pool is bit i.  Each cell holds the bitset of
    the transversals through it, and later[i] the bitset of those above i
    that miss all of i's cells, so a family's next member is a bit of the
    AND of its members' later sets, within the row-1 window of
    `_families`.  The walk yields each family's first k - 2 members with
    that AND, the candidates for member k - 1; ANDed with later of member
    k - 1, it gives member k's.  The count finishes with a popcount, the
    list by expanding both bitsets.  The walk recurses k - 2 deep, and
    only after every transversal is listed, which no order near the
    recursion limit allows.
    """
    n = square.order
    pool = find_transversals(square)
    if k == 1:
        return len(pool) if count else [(t,) for t in pool]
    spots = [[x * n + c - 1 for x, c in enumerate(t.cols)] for t in pool]
    cells = [0] * (n * n)
    for i, spot in enumerate(spots):
        for cell in spot:
            cells[cell] |= 1 << i
    everyone = (1 << len(pool)) - 1
    later = [(everyone ^ reduce(or_, map(cells.__getitem__, spot))) & -(2 << i)
             for i, spot in enumerate(spots)]
    # window[c]: the transversals whose row-1 column is at most c
    window = [0, *accumulate(cells[:n], or_)]

    def walk(family: tuple[Transversal, ...], common: int):
        if len(family) + 2 == k:
            yield family, common
            return
        for i in _bits(common & window[n - k + len(family) + 1]):
            yield from walk((*family, pool[i]), common & later[i])

    if count:
        return sum([(common & later[i]).bit_count()
                    for _, common in walk((), everyone) for i in _bits(common)])
    found = []
    for family, common in walk((), everyone):
        for i in _bits(common):
            last = bin(common & later[i])[:1:-1].encode().translate(_DIGITS)
            found += [(*family, pool[i], t) for t in compress(pool, last)]
    return found


def _families(square: LatinSquare, k: int) -> Iterator[tuple[Transversal, ...]]:
    """Yield every family of k disjoint transversals, in lexicographic
    order, building each family member by member on an explicit stack.

    Disjoint transversals differ in row 1, so lexicographic member order
    is ascending row-1 column: member j + 1 takes a row-1 column above
    member j's, and at most n - k + j to leave one for each member after
    it.  The family's cells are one bitmask, bit x*n + c for the 0-based
    cell (x, c), and the row search finds each member with those cells
    banned, so the first families come without listing every transversal.
    """
    n = square.order
    rows = square.rows
    full = (1 << n) - 1

    def cell_mask(cols) -> int:
        return sum(1 << (x * n + c - 1) for x, c in enumerate(cols))

    # members(used, lowest, top): the candidates missing the cells in used
    # whose 0-based row-1 column lies in lowest..top, lexicographically
    def members(used: int, lowest: int, top: int) -> Iterator[Transversal]:
        allowed = [full & ~(used >> (x * n)) for x in range(n)]
        allowed[0] &= (2 << top) - (1 << lowest)
        return (_transversal(rows, picked)
                for picked, _ in _transversal_cols(rows, allowed))

    family: list[Transversal] = []
    used = 0
    stack = [members(used, 0, n - k)]
    while stack:
        t = next(stack[-1], None)
        if t is None:
            stack.pop()
            if family:
                used ^= cell_mask(family.pop().cols)
            continue
        if len(family) + 1 == k:
            yield (*family, t)
            continue
        family.append(t)
        used |= cell_mask(t.cols)
        # t's 1-based row-1 column is the 0-based column just above it
        stack.append(members(used, t.cols[0], n - k + len(family)))


def iter_quasicomplete_mappings(square: LatinSquare) -> Iterator[MappingRecord]:
    """Yield every quasicomplete mapping, in lexicographic sigma order.

    Runs the transversal search with one repeated symbol allowed: a
    branch dies as soon as a value of sigma_bar would appear three times
    or a second value twice; only sigmas that used the repeat are kept.
    """
    rows = _as_square(square).rows
    spare = 1 << 2 * len(rows)
    return (_classified(rows, tuple(picked))
            for picked, key in _transversal_cols(rows, repeat=True)
            if key >= spare)


def find_quasicomplete_mappings(square: LatinSquare,
                                limit: int | None = None) -> list[MappingRecord]:
    """All quasicomplete mappings (or the first `limit`, lexicographically).

    With a limit this is the lazy row search of
    `iter_quasicomplete_mappings`.  Without one it joins the half-squares,
    as `find_transversals` does, and builds each record from the picks:
    the join knows the special symbol, and sigma_bar's sum then gives the
    repeated one.
    """
    _check_limit(limit)
    if limit is not None:
        return list(islice(iter_quasicomplete_mappings(square), limit))
    rows = _as_square(square).rows
    n = len(rows)
    total = n * (n + 1) // 2
    found = []
    for _, mappings in _join(rows, repeat=True):
        for sigma, special in mappings:
            bar = tuple([rows[x][c - 1] for x, c in enumerate(sigma)])
            twice = sum(bar) - total + special
            x1 = bar.index(twice) + 1
            found.append(MappingRecord(n, sigma, bar, "quasicomplete",
                                       special, (x1, bar.index(twice, x1) + 1)))
    return found


def count_quasicomplete_mappings(square: LatinSquare) -> int:
    """The number of quasicomplete mappings, found as
    `find_quasicomplete_mappings` finds them but counted per key, without
    building a single MappingRecord."""
    rows = _as_square(square).rows
    return sum(tops * bottoms
               for tops, bottoms in _join(rows, repeat=True, count=True))
