"""Transversals, disjoint families, and (quasi)complete mappings."""

import random
import time
import tracemalloc
from itertools import permutations

import pytest

import grids
from latinsq import (
    DomainError,
    GridError,
    LatinSquare,
    conjugated_mapping,
    count_disjoint_families,
    count_quasicomplete_mappings,
    count_transversals,
    cyclic_square,
    find_disjoint_transversals,
    find_quasicomplete_mappings,
    find_transversals,
    iter_quasicomplete_mappings,
    iter_transversals,
    permuted,
    random_square,
    transversal_of,
)
from latinsq.mappings import _transversal_cols, _unpacked
from latinsq.oracle import oracle_disjoint_families, oracle_quasicomplete

CYC3 = cyclic_square(3)
QC4 = LatinSquare(grids.QC_BASE4)


class TestTransversalOf:
    def test_blue_transversal(self):
        t = transversal_of(CYC3, grids.T_BLUE)
        assert t.order == 3
        assert t.cols == (3, 1, 2)
        assert t.values == (3, 2, 1)
        assert t.cells() == [(1, 3), (2, 1), (3, 2)]

    def test_rejects_repeated_symbols(self):
        with pytest.raises(DomainError):
            transversal_of(cyclic_square(4), (1, 2, 3, 4))

    def test_rejects_non_permutation(self):
        for cols in ((1, 1, 2), [3.0, 1.0, 2.0], [3, True, 2], ["3", "1", "2"]):
            with pytest.raises(DomainError, match="must be a permutation of 1..3"):
                transversal_of(CYC3, cols)

    def test_to_mapping_returns_columns(self):
        t = transversal_of(CYC3, grids.T_BLUE)
        assert t.cols == (3, 1, 2)
        assert conjugated_mapping(CYC3, t.cols).kind == "complete"


class TestConjugatedMapping:
    def test_quasicomplete_example(self):
        rec = conjugated_mapping(QC4, grids.QC_SIGMA)
        assert rec.sigma_bar == (2, 4, 3, 3)
        assert rec.kind == "quasicomplete"
        assert rec.special == 1
        assert rec.duplicate_pair == (3, 4)

    def test_order_one_is_complete(self):
        rec = conjugated_mapping(LatinSquare(((1,),)), (1,))
        assert rec.kind == "complete"
        assert rec.sigma_bar == (1,)

    def test_order_two_identity_is_quasicomplete(self):
        rec = conjugated_mapping(LatinSquare(((1, 2), (2, 1))), (1, 2))
        assert rec.kind == "quasicomplete"
        assert rec.sigma_bar == (1, 1)
        assert rec.special == 2
        assert rec.duplicate_pair == (1, 2)

    def test_neither(self):
        rec = conjugated_mapping(cyclic_square(4), (1, 2, 3, 4))
        assert rec.kind == "neither"
        assert rec.special is None and rec.duplicate_pair is None

    def test_rejects_non_permutation(self):
        for sigma in ((1, 2, 4), [1.0, 2.0, 3.0], [True, 2, 3]):
            with pytest.raises(DomainError, match="must be a permutation of 1..3"):
                conjugated_mapping(CYC3, sigma)


def brute_force_picks(band, allowed, repeat):
    """Every list of 1-based column picks `_transversal_cols` should yield
    for the rows of band, from all column choices in lexicographic order:
    those repeating no symbol, or with repeat those repeating one once."""
    n = len(band[0])
    out = []
    for cols in permutations(range(1, n + 1), len(band)):
        if any(not allowed[x] >> (c - 1) & 1 for x, c in enumerate(cols)):
            continue
        values = [row[c - 1] for row, c in zip(band, cols)]
        twice = len(band) - len(set(values))  # repeats, counted with multiplicity
        if twice == (1 if repeat else 0):
            out.append(list(cols))
    return out


class TestRowSearchKernel:
    """The row search on bands of 1-3 rows and on whole squares, held to a
    brute-force reference.  A band's last row runs in its own loop, from
    the row before it; a band of one row has no row before it."""

    def bands(self):
        squares = [cyclic_square(n) for n in (1, 2, 3, 5)] + [QC4]
        squares += [random_square(n, seed) for n in (4, 5, 6) for seed in range(2)]
        for sq in squares:
            for depth in range(1, min(3, sq.order) + 1):
                for start in range(sq.order - depth + 1):
                    yield sq.rows[start:start + depth]
            yield sq.rows

    def test_equals_brute_force(self):
        for band in self.bands():
            full = [(1 << len(band[0])) - 1] * len(band)
            for repeat in (False, True):
                got = [list(picked)
                       for picked in _transversal_cols(band, repeat=repeat)]
                assert got == brute_force_picks(band, full, repeat), (band, repeat)

    def test_allowed_masks_ban_cells(self):
        # as the family search does: earlier members' cells are banned, and
        # the first row is held to a window of columns
        rng = random.Random(7)
        for band in self.bands():
            n = len(band[0])
            for _ in range(4):
                banned = [rng.getrandbits(n) & rng.getrandbits(n) for _ in band]
                allowed = [((1 << n) - 1) & ~b for b in banned]
                low = rng.randrange(n)
                allowed[0] &= (2 << rng.randrange(low, n)) - (1 << low)
                for repeat in (False, True):
                    got = [list(picked) for picked
                           in _transversal_cols(band, allowed, repeat)]
                    assert got == brute_force_picks(band, allowed, repeat), \
                        (band, allowed, repeat)


class TestFindTransversals:
    def test_cyclic3_lexicographic(self):
        assert [t.cols for t in find_transversals(CYC3)] == \
            [(1, 2, 3), (2, 3, 1), (3, 1, 2)]

    def test_even_cyclic_and_qc_base_have_none(self):
        assert find_transversals(cyclic_square(4)) == []
        assert find_transversals(QC4) == []

    def test_counts_match_frozen(self):
        counts = dict(enumerate(grids.CYCLIC_TRANSVERSAL_COUNTS, start=1))
        counts.update(grids.CYCLIC_TRANSVERSAL_ANCHORS)
        for n, want in counts.items():
            assert len(find_transversals(cyclic_square(n))) == want, n

    def test_full_list_equals_row_search(self):
        # n = 1 has an empty bottom half; even cyclic squares have no
        # transversals
        squares = [cyclic_square(n) for n in range(1, 11)]
        squares += [random_square(n, seed) for n in range(1, 10) for seed in range(3)]
        # few of its bottom partials meet a top partial: 787 of 8,156
        squares.append(random_square(10, 0))
        for sq in squares:
            found = list(iter_transversals(sq))
            assert find_transversals(sq) == found, sq.rows
            assert count_transversals(sq) == len(found), sq.rows

    def test_full_list_holds_one_branch_of_the_top_band(self):
        # the join holds the filed bottom band and one row-1 branch of the
        # top band at a time: about 5 MB above the 37,851 results, where
        # the whole top band at once takes about 13 MB
        sq = cyclic_square(11)
        tracemalloc.start()
        try:
            found = find_transversals(sq)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(found) == grids.CYCLIC_TRANSVERSAL_ANCHORS[11]
        assert peak - retained <= 8_000_000

    def test_unpacked_reads_wide_fields(self):
        # from order 256 on, the join packs each column and symbol in two
        # bytes; no full enumeration at such an order finishes, so the
        # unpacking is checked alone
        picks = [(300, 5), (1, 299), (256, 65535)]
        code = 0
        for c, v in picks:
            code = code << 32 | c << 16 | v
        assert _unpacked(code, 3, 2) == ((300, 1, 256), (5, 299, 65535))
        assert _unpacked(0x0305_0102, 2, 1) == ((3, 1), (5, 2))

    def test_count_reaches_order_13_anchor(self):
        assert count_transversals(cyclic_square(13)) == grids.CYCLIC13_TRANSVERSALS

    def test_every_result_is_complete(self):
        sq = cyclic_square(5)
        for t in find_transversals(sq):
            assert conjugated_mapping(sq, t.cols).kind == "complete"

    def test_limit(self):
        full = find_transversals(cyclic_square(5))
        assert find_transversals(cyclic_square(5), limit=4) == full[:4]
        with pytest.raises(DomainError):
            find_transversals(CYC3, limit=0)


class TestDisjointFamilies:
    def test_cyclic3_triple(self):
        fams = find_disjoint_transversals(CYC3, 3)
        assert len(fams) == 1
        assert [t.cols for t in fams[0]] == [(1, 2, 3), (2, 3, 1), (3, 1, 2)]

    def test_k1_matches_transversal_count(self):
        fams = find_disjoint_transversals(CYC3, 1)
        assert [f[0].cols for f in fams] == [t.cols for t in find_transversals(CYC3)]

    def test_no_transversals_no_families(self):
        assert find_disjoint_transversals(cyclic_square(4), 2) == []

    def test_families_are_cell_disjoint_and_unique(self):
        fams = find_disjoint_transversals(cyclic_square(5), 2)
        assert len(fams) == 30
        seen = set()
        for fam in fams:
            cells = [cell for t in fam for cell in t.cells()]
            assert len(set(cells)) == len(cells)
            key = frozenset(t.cols for t in fam)
            assert key not in seen
            seen.add(key)
            assert [t.cols for t in fam] == sorted(t.cols for t in fam)

    def test_limit_is_a_prefix(self, pool):
        squares = [sq for n in sorted(pool) for sq in pool[n]]
        squares.append(cyclic_square(8))  # no transversals at all
        for sq in squares:
            for k in (1, 2, 3):
                full = find_disjoint_transversals(sq, k)
                for limit in (1, 2, 5):
                    assert find_disjoint_transversals(sq, k, limit=limit) \
                        == full[:limit], (sq.order, k, limit)

    def test_first_family_is_found_without_full_enumeration(self):
        sq = cyclic_square(11)  # 37,851 transversals
        for k in (2, 3):
            start = time.perf_counter()
            fams = find_disjoint_transversals(sq, k, limit=1)
            elapsed = time.perf_counter() - start
            assert len(fams) == 1 and len(fams[0]) == k
            cells = [cell for t in fams[0] for cell in t.cells()]
            assert len(set(cells)) == len(cells)
            assert elapsed < 0.25, f"k={k}: {elapsed:.3f} s"

    def test_k_equal_to_order_is_an_orthogonal_mate(self):
        for n in (5, 7, 9):
            fams = find_disjoint_transversals(cyclic_square(n), n, limit=1)
            assert len(fams) == 1
            cells = {cell for t in fams[0] for cell in t.cells()}
            assert len(cells) == n * n
        assert find_disjoint_transversals(cyclic_square(4), 4, limit=1) == []

    def test_k_out_of_range(self):
        for k in (0, 4, 2.0, True, 1.5):
            with pytest.raises(DomainError, match="family size must be in 1..3"):
                find_disjoint_transversals(CYC3, k)

    def test_count_equals_list(self):
        squares = [cyclic_square(n) for n in range(1, 8)]
        squares += [random_square(n, seed) for n in range(1, 8) for seed in range(3)]
        for sq in squares:
            for k in range(1, sq.order + 1):
                want = len(find_disjoint_transversals(sq, k))
                assert count_disjoint_families(sq, k) == want, (sq.rows, k)
                if sq.order <= 5:
                    assert want == len(oracle_disjoint_families(sq, k)), (sq.rows, k)
        for n in (8, 9):
            sq = cyclic_square(n)
            assert count_disjoint_families(sq, 2) == \
                len(find_disjoint_transversals(sq, 2)), n

    def test_count_rejects_what_the_list_rejects(self):
        sq = cyclic_square(5)
        for k in (0, 6, True, "2"):
            with pytest.raises(DomainError) as listed:
                find_disjoint_transversals(sq, k)
            with pytest.raises(DomainError, match="family size must be in 1..5") \
                    as counted:
                count_disjoint_families(sq, k)
            assert str(counted.value) == str(listed.value), k


class TestQuasicompleteMappings:
    def test_example_square(self):
        recs = find_quasicomplete_mappings(QC4)
        assert any(r.sigma == grids.QC_SIGMA for r in recs)
        sigmas = [r.sigma for r in recs]
        assert sigmas == sorted(sigmas)

    def test_four_disjoint_colored_mappings(self):
        recs = {r.sigma: r for r in find_quasicomplete_mappings(QC4)}
        cells = set()
        for sigma, special in grids.QC_DISJOINT4:
            assert recs[sigma].special == special
            own = {(x, sigma[x - 1]) for x in range(1, 5)}
            assert not (own & cells)
            cells |= own

    def test_trivial_and_cyclic3_have_none(self):
        assert find_quasicomplete_mappings(LatinSquare(((1,),))) == []
        assert find_quasicomplete_mappings(CYC3) == []

    def test_order_two(self):
        recs = find_quasicomplete_mappings(LatinSquare(((1, 2), (2, 1))))
        assert [r.sigma for r in recs] == [(1, 2), (2, 1)]

    def test_record_invariants(self):
        sq = cyclic_square(4)
        recs = find_quasicomplete_mappings(sq)
        assert recs
        for rec in recs:
            image = set(rec.sigma_bar)
            assert len(image) == sq.order - 1
            assert rec.special not in image
            x1, x2 = rec.duplicate_pair
            assert x1 < x2
            assert rec.sigma_bar[x1 - 1] == rec.sigma_bar[x2 - 1]

    def test_count_equals_list_on_pools(self, pool):
        for sq in [sq for n in sorted(pool) for sq in pool[n]]:
            assert count_quasicomplete_mappings(sq) == \
                len(find_quasicomplete_mappings(sq)), sq.rows

    def test_count_equals_oracle(self):
        squares = [cyclic_square(n) for n in range(1, 8)] + [QC4]
        squares += [random_square(n, seed) for n in range(2, 8) for seed in range(3)]
        for sq in squares:
            assert count_quasicomplete_mappings(sq) == \
                len(oracle_quasicomplete(sq)), sq.rows

    def test_odd_cyclic_squares_have_none(self):
        # sigma_bar sums to 0 mod n, and at odd n that forces a repeated
        # symbol to be the missing one
        for n in range(1, 12, 2):
            assert count_quasicomplete_mappings(cyclic_square(n)) == 0, n

    def test_full_list_equals_row_search(self):
        # n = 1 has an empty bottom half; the order-2 identity is
        # quasicomplete
        squares = [cyclic_square(n) for n in range(1, 10)]
        squares += [random_square(n, seed) for n in range(1, 9) for seed in range(3)]
        for sq in squares:
            found = list(iter_quasicomplete_mappings(sq))
            assert find_quasicomplete_mappings(sq) == found, sq.rows
            assert count_quasicomplete_mappings(sq) == len(found), sq.rows

    def test_limit_is_a_prefix(self):
        full = find_quasicomplete_mappings(QC4)
        assert len(full) == 16
        assert find_quasicomplete_mappings(QC4, limit=5) == full[:5]

    def test_limit_must_be_positive(self):
        with pytest.raises(DomainError, match="limit must be positive"):
            find_quasicomplete_mappings(QC4, limit=0)


def test_limit_check_is_shared():
    for find in (lambda limit: find_transversals(CYC3, limit=limit),
                 lambda limit: find_disjoint_transversals(CYC3, 2, limit=limit),
                 lambda limit: find_quasicomplete_mappings(QC4, limit=limit)):
        with pytest.raises(DomainError, match="limit must be positive, got -1"):
            find(-1)
        for limit in (1.5, 2.0, True):
            with pytest.raises(DomainError, match="limit must be an int or None"):
                find(limit)
        assert len(find(1)) == 1


@pytest.mark.parametrize("square, call", [
    (CYC3, lambda sq: transversal_of(sq, grids.T_BLUE)),
    (QC4, lambda sq: conjugated_mapping(sq, (1, 3, 2, 4))),
    (CYC3, lambda sq: list(iter_transversals(sq))),
    (CYC3, lambda sq: find_transversals(sq, limit=2)),
    (CYC3, lambda sq: count_transversals(sq)),
    (CYC3, lambda sq: find_disjoint_transversals(sq, 2)),
    (CYC3, lambda sq: count_disjoint_families(sq, 2)),
    (QC4, lambda sq: list(iter_quasicomplete_mappings(sq))),
    (QC4, lambda sq: find_quasicomplete_mappings(sq)),
    (QC4, lambda sq: count_quasicomplete_mappings(sq)),
    (CYC3, lambda sq: permuted(sq, (3, 1, 2), (2, 3, 1))),
], ids=["transversal_of", "conjugated_mapping", "iter_transversals",
        "find_transversals", "count_transversals", "find_disjoint_transversals",
        "count_disjoint_families",
        "iter_quasicomplete_mappings", "find_quasicomplete_mappings",
        "count_quasicomplete_mappings", "permuted"])
def test_plain_grid_input(square, call):
    grid = [list(row) for row in square.rows]
    assert call(grid) == call(square)
    with pytest.raises(GridError):
        call(grid[:-1] + [grid[0]])
