"""Census of the reduced Latin squares of orders 1-6.

A reduced square has 1..n in its first row and first column; completing
that bordered frame enumerates all of them.  Their number is OEIS
A000315, and at orders 5 and 6 their transversals are known: every
order-6 square has 0 to 32 transversals (McKay, McLeod & Wanless, Des.
Codes Cryptogr. 2006) and none has an orthogonal mate (Tarry 1900).
"""

from collections import Counter

import pytest

from latinsq import (
    complete_partial,
    conjugated_mapping,
    count_disjoint_families,
    count_quasicomplete_mappings,
    count_transversals,
    cyclic_square,
    find_disjoint_transversals,
    find_quasicomplete_mappings,
    find_transversals,
)
from latinsq.oracle import (
    oracle_disjoint_families,
    oracle_quasicomplete,
    oracle_transversals,
)


def bordered(n):
    """The n x n frame with 1..n in row 1 and column 1, empty elsewhere."""
    return [[c + 1 if r == 0 else r + 1 if c == 0 else None for c in range(n)]
            for r in range(n)]


@pytest.fixture(scope="module")
def reduced():
    """Every reduced square of orders 1-6: {order: [square, ...]}."""
    return {n: complete_partial(bordered(n)) for n in range(1, 7)}


@pytest.fixture(scope="module")
def order6_counts(reduced):
    """The transversal count of each reduced order-6 square, in order."""
    return [count_transversals(sq) for sq in reduced[6]]


def test_reduced_square_counts(reduced):
    assert [len(reduced[n]) for n in range(1, 7)] == [1, 1, 1, 4, 56, 9408]
    for n, squares in reduced.items():
        assert len(set(squares)) == len(squares)
        for sq in squares:
            assert list(sq.rows[0]) == list(range(1, n + 1))
            assert [row[0] for row in sq.rows] == list(range(1, n + 1))


def test_order5_transversals_match_the_oracle(reduced):
    squares = reduced[5]
    for sq in squares:
        assert [t.cols for t in find_transversals(sq)] == oracle_transversals(sq)
    assert Counter(count_transversals(sq) for sq in squares) == {3: 50, 15: 6}


def test_order5_mates_match_the_oracle(reduced):
    has_mate = [bool(find_disjoint_transversals(sq, 5, limit=1))
                for sq in reduced[5]]
    assert sum(has_mate) == 6
    assert has_mate == [bool(oracle_disjoint_families(sq, 5)) for sq in reduced[5]]


def test_quasicomplete_lists_and_counts_match_the_oracle(reduced):
    # every square here with a transversal has bottom-band picks on exactly
    # the symbols some top-band pick misses, which the full list must skip
    squares = [sq for n in range(1, 6) for sq in reduced[n]]
    assert len(squares) == 63
    for sq in squares:
        sigmas = oracle_quasicomplete(sq)
        assert find_quasicomplete_mappings(sq) == \
            [conjugated_mapping(sq, sigma) for sigma in sigmas], sq.rows
        assert count_quasicomplete_mappings(sq) == len(sigmas), sq.rows


def test_family_lists_and_counts_match_the_oracle(reduced):
    for n in range(1, 6):
        for sq in reduced[n]:
            for k in range(1, n + 1):
                families = find_disjoint_transversals(sq, k)
                assert [tuple(t.cols for t in family) for family in families] \
                    == oracle_disjoint_families(sq, k), (sq.rows, k)
                assert count_disjoint_families(sq, k) == len(families)


def test_family_counts_equal_the_list_on_the_seeded_pools(pool):
    for squares in pool.values():
        for sq in squares:
            for k in range(2, min(4, sq.order) + 1):
                assert count_disjoint_families(sq, k) == \
                    len(find_disjoint_transversals(sq, k)), (sq.rows, k)


def test_cyclic7_family_counts_frozen():
    # regression values of this enumeration, not published figures
    sq = cyclic_square(7)
    assert [count_disjoint_families(sq, k) for k in range(1, 8)] == \
        [133, 3780, 27958, 52703, 23037, 4445, 635]
    assert [len(find_disjoint_transversals(sq, k)) for k in range(1, 8)] == \
        [133, 3780, 27958, 52703, 23037, 4445, 635]


def test_order6_transversal_range(order6_counts):
    assert (min(order6_counts), max(order6_counts)) == (0, 32)


def test_order6_transversal_distribution_frozen(order6_counts):
    # a regression value of this enumeration, not a published figure
    assert Counter(order6_counts) == {0: 2100, 8: 7020, 24: 108, 32: 180}


def test_order6_has_no_orthogonal_mate(reduced):
    assert not any(find_disjoint_transversals(sq, 6, limit=1) for sq in reduced[6])


def test_every_square_has_a_transversal_or_quasicomplete_mapping(
        reduced, order6_counts):
    for n, squares in reduced.items():
        counts = (order6_counts if n == 6
                  else [count_transversals(sq) for sq in squares])
        for sq, count in zip(squares, counts, strict=True):
            assert count or find_quasicomplete_mappings(sq, limit=1), sq.rows
