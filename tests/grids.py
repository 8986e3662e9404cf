"""Frozen reference grids and parameters shared across the test modules.

Every expected grid here was computed independently (brute force or by
hand from the construction definitions) and then frozen; tests compare
against these exact values rather than recomputing them.
"""

CYCLIC3 = ((1, 2, 3), (2, 3, 1), (3, 1, 2))

# The three pairwise disjoint transversals of CYCLIC3, as column picks.
T_YELLOW = (1, 2, 3)
T_GREEN = (2, 3, 1)
T_BLUE = (3, 1, 2)

# prolong_bruck(CYCLIC3, T_BLUE)
BRUCK_OUT4 = (
    (1, 2, 4, 3),
    (4, 3, 1, 2),
    (3, 4, 2, 1),
    (2, 1, 3, 4),
)

# prolong_disjoint(CYCLIC3, [T_YELLOW, T_GREEN], bottom=[[5,4],[4,5]])
DISJ_OUT5 = (
    (4, 5, 3, 1, 2),
    (2, 4, 5, 3, 1),
    (5, 1, 4, 2, 3),
    (1, 3, 2, 5, 4),
    (3, 2, 1, 4, 5),
)

# ... same with row_assign=(2,1): projected rows swap, bottom block stays put.
DISJ_OUT5_SWAPPED = (
    (4, 5, 3, 1, 2),
    (2, 4, 5, 3, 1),
    (5, 1, 4, 2, 3),
    (3, 2, 1, 5, 4),
    (1, 3, 2, 4, 5),
)

# prolong_disjoint(CYCLIC3, [T_YELLOW, T_GREEN, T_BLUE], fill=(6,5,4))
DISJ_OUT6 = (
    (6, 5, 4, 1, 2, 3),
    (4, 6, 5, 3, 1, 2),
    (5, 4, 6, 2, 3, 1),
    (1, 3, 2, 4, 5, 6),
    (3, 2, 1, 5, 6, 4),
    (2, 1, 3, 6, 4, 5),
)

# prolong_belyavskaya(CYCLIC3, T_BLUE, excepted (2,1))
BEL_OUT4 = (
    (1, 2, 4, 3),
    (2, 3, 1, 4),
    (3, 4, 2, 1),
    (4, 1, 3, 2),
)

# Among prolong_belyavskaya_gen(CYCLIC3, [(T_YELLOW,(1,1)), (T_GREEN,(2,3))],
# fill=(5,4)) completions (there is exactly one).
GENBEL_OUT5 = (
    (1, 4, 3, 5, 2),
    (2, 5, 1, 3, 4),
    (4, 1, 5, 2, 3),
    (5, 3, 2, 4, 1),
    (3, 2, 4, 1, 5),
)

# Among prolong_belyavskaya_gen(CYCLIC3, [(T_YELLOW,(2,2)), (T_GREEN,(3,1)),
# (T_BLUE,(3,2))]) completions (there are exactly two).
GENBEL_OUT6 = (
    (4, 5, 6, 1, 2, 3),
    (6, 3, 5, 4, 1, 2),
    (3, 1, 4, 2, 5, 6),
    (1, 4, 2, 3, 6, 5),
    (5, 2, 1, 6, 3, 4),
    (2, 6, 3, 5, 4, 1),
)

# Order-4 square with no transversals but sixteen quasicomplete mappings.
QC_BASE4 = (
    (2, 1, 3, 4),
    (3, 2, 4, 1),
    (4, 3, 1, 2),
    (1, 4, 2, 3),
)

# sigma = (1,3,2,4) on QC_BASE4: sigma_bar = (2,4,3,3), special 1, pair (3,4).
QC_SIGMA = (1, 3, 2, 4)

# Four pairwise cell-disjoint quasicomplete mappings of QC_BASE4,
# with their special elements.
QC_DISJOINT4 = (
    ((1, 3, 2, 4), 1),
    ((2, 1, 4, 3), 4),
    ((3, 4, 1, 2), 2),
    ((4, 2, 3, 1), 3),
)

# prolong_dd(QC_BASE4, QC_SIGMA, kept_x=4)
DD_OUT5 = (
    (5, 1, 3, 4, 2),
    (3, 2, 5, 1, 4),
    (4, 5, 1, 2, 3),
    (1, 4, 2, 3, 5),
    (2, 3, 4, 5, 1),
)

# prolong_dd_gen(QC_BASE4, [((1,3,2,4),4), ((2,1,4,3),4)]): unique completion.
GENDD_OUT6 = (
    (5, 6, 3, 4, 2, 1),
    (6, 2, 5, 1, 4, 3),
    (4, 5, 1, 6, 3, 2),
    (1, 4, 2, 3, 6, 5),
    (2, 3, 4, 5, 1, 6),
    (3, 1, 6, 2, 5, 4),
)

# two_step(CYCLIC3, T_BLUE, T_YELLOW, first="belyavskaya", excepted=(2,1));
# the intermediate sigma2 = identity has sigma_bar (1,3,2,2):
# quasicomplete, special 4, pair (3,4).
TWOSTEP_OUT5 = (
    (5, 2, 4, 3, 1),
    (2, 5, 1, 4, 3),
    (3, 4, 5, 1, 2),
    (4, 1, 3, 2, 5),
    (1, 3, 2, 5, 4),
)

# Transversal counts of the cyclic squares, orders 1..7.
CYCLIC_TRANSVERSAL_COUNTS = (1, 0, 3, 0, 15, 0, 133)

# Larger cyclic counts from McKay, McLeod & Wanless, "The number of
# transversals in a Latin square", Des. Codes Cryptogr. 40 (2006).  Order
# 13 is checked by count_transversals alone: its list would hold about a
# million Transversal objects.
CYCLIC_TRANSVERSAL_ANCHORS = {9: 2025, 11: 37851}
CYCLIC13_TRANSVERSALS = 1_030_367

# Completion counts of the empty grid, orders 1..4 (number of Latin
# squares of each order).
EMPTY_COMPLETION_COUNTS = (1, 2, 12, 576)

# The order in which complete_partial lists completions, frozen per corpus
# group of tests/test_core.py: the empty grid of order n ("empty n"), and
# the eight seeded isotopes of cyclic_square(n) with 30-60 % of their cells
# emptied ("isotopes n").  Each group's text joins, grid by grid, the
# format_lsq text of the completions with no limit, then with limits 1, 2
# and 5, each under a "# grid i, limit L" comment line.  Value: (number of
# squares in the text, SHA-256 of the text).
COMPLETION_ORDER = {
    "empty 1": (
        4, "0bc46b1b85c02b86898d671c85eeb77590fd4298e6d2eff3d407fdacd4fdbbd1"),
    "empty 2": (
        7, "fc914c9dace915d1943a79fc75705ee7d545f2aed487815b8f582cf76c2bcef7"),
    "empty 3": (
        20, "6d7227360869ca39fa443b1c13cc62f131f92b2d74dde114e4bbc06725c389e4"),
    "empty 4": (
        584, "f252871b698a8bfa062a37b149d15f3e27c330d8c3d6f193690eea984a08f44f"),
    "isotopes 1": (
        32, "f62fe06b368207491a67c1f207a724ad766233c884abdc51c709609bf87207b9"),
    "isotopes 2": (
        32, "d57c8975521cc24da6995dfd63839c0cfce06318e47fd127934e31d79f5a657b"),
    "isotopes 3": (
        32, "c4855005e0e75e349f450eabb48d4106d4be575dcc3fed67ba5c0cbb4a265894"),
    "isotopes 4": (
        32, "c1b7d7492d80764c990af9cc7ee52ddbcf7a2a4179d57c0065ccf9929f95155f"),
    "isotopes 5": (
        32, "4a8023b5556411456406dfbcbd0581f0ac68c03ada2c6c841293e0e7adca234c"),
    "isotopes 6": (
        53, "43f255d7b1b123fc0761a7705afe1a16d98cef454ea4fa9048211ca5e7f6cda4"),
}

# Complete provenance maps of the reference constructions, frozen cell by
# cell.  One string per output row, one token per cell: the letter of the
# CellOrigin kind followed by its step (no digits when the step is None).
#   u unchanged   v vacated        c projected_col   r projected_row
#   k kept        b border_fill    d diagonal_seed   s completed
PROVENANCE_LETTERS = {
    "unchanged": "u", "vacated": "v", "projected_col": "c",
    "projected_row": "r", "kept": "k", "border_fill": "b",
    "diagonal_seed": "d", "completed": "s",
}

# prolong_bruck(CYCLIC3, T_BLUE)
BRUCK_PROV4 = (
    "u u v1 c1",
    "v1 u u c1",
    "u v1 u c1",
    "r1 r1 r1 b1",
)

# prolong_disjoint(CYCLIC3, [T_YELLOW, T_GREEN], bottom=[[5,4],[4,5]])
DISJ_PROV5 = (
    "v1 v2 u c1 c2",
    "u v1 v2 c1 c2",
    "v2 u v1 c1 c2",
    "r1 r1 r1 b b",
    "r2 r2 r2 b b",
)

# ... same with row_assign=(2,1)
DISJ_PROV5_SWAPPED = (
    "v1 v2 u c1 c2",
    "u v1 v2 c1 c2",
    "v2 u v1 c1 c2",
    "r2 r2 r2 b b",
    "r1 r1 r1 b b",
)

# prolong_disjoint(CYCLIC3, [T_YELLOW, T_GREEN, T_BLUE], fill=(6,5,4))
DISJ_PROV6 = (
    "v1 v2 v3 c1 c2 c3",
    "v3 v1 v2 c1 c2 c3",
    "v2 v3 v1 c1 c2 c3",
    "r1 r1 r1 b b b",
    "r2 r2 r2 b b b",
    "r3 r3 r3 b b b",
)

# prolong_belyavskaya(CYCLIC3, T_BLUE, excepted (2,1))
BEL_PROV4 = (
    "u u v1 c1",
    "k1 u u b1",
    "u v1 u c1",
    "b1 r1 r1 d1",
)

# prolong_belyavskaya_gen(CYCLIC3, [(T_YELLOW,(1,1)), (T_GREEN,(2,3))],
# fill=(5,4)), its only completion (GENBEL_OUT5)
GENBEL_PROV5 = (
    "k1 v2 u b1 c2",
    "u v1 k2 c1 b2",
    "v2 u v1 c1 c2",
    "b1 r1 r1 s s",
    "r2 r2 b2 s s",
)

# prolong_dd(QC_BASE4, QC_SIGMA, kept_x=4)
DD_PROV5 = (
    "v1 u u u c1",
    "u u v1 u c1",
    "u v1 u u c1",
    "u u u k1 b1",
    "r1 r1 r1 b1 d1",
)

# prolong_dd_gen(QC_BASE4, [((1,3,2,4),4), ((2,1,4,3),4)]) (GENDD_OUT6)
GENDD_PROV6 = (
    "v1 v2 u u c1 c2",
    "v2 u v1 u c1 c2",
    "u v1 u v2 c1 c2",
    "u u k2 k1 s s",
    "r1 r1 r1 s d1 s",
    "r2 r2 s r2 s d2",
)

# ... same with col_assign=(2,1): the diagonal seeds follow the new columns.
GENDD_PROV6_SWAPPED = (
    "v1 v2 u u c2 c1",
    "v2 u v1 u c2 c1",
    "u v1 u v2 c2 c1",
    "u u k2 k1 s s",
    "r1 r1 r1 s s d1",
    "r2 r2 s r2 d2 s",
)

# two_step(CYCLIC3, T_BLUE, T_YELLOW, first="belyavskaya", excepted=(2,1))
TWOSTEP_PROV5 = (
    "v2 u v1 c1 c2",
    "k1 v2 u b1 c2",
    "u v1 v2 c1 c2",
    "b1 r1 r1 k2 b2",
    "r2 r2 r2 b2 d2",
)

# two_step(CYCLIC3, T_BLUE, T_YELLOW, first="bruck")
TWOSTEP_BRUCK_PROV5 = (
    "v2 u v1 c1 c2",
    "v1 v2 u c1 c2",
    "u v1 v2 c1 c2",
    "r1 r1 r1 v2 c2",
    "r2 r2 r2 r2 b2",
)
