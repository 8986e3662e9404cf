"""Seeded inputs, made without calling the program under test.

Squares come from two sources:

* isotopes of the cyclic square Z_n (rows, columns and symbols permuted by
  the seed).  Their parameters are known in closed form: for odd n the
  cells (x, x + a) of Z_n form a transversal for every a, and distinct a
  give cell-disjoint transversals.  Mapped through the isotopy they stay
  transversals, so large orders need no search to find parameters.
* `random_rows`, a row-by-row generator that draws each row as a random
  perfect matching of columns to unused symbols (Kuhn's augmenting paths).
  Hall's theorem guarantees that every Latin rectangle extends, so it never
  backtracks.  It is used instead of `latinsq.core.random_square`, whose
  time is exponential in the order, so the inputs do not change when the
  program's generator does.
"""

from __future__ import annotations

import random


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def cyclic_rows(n: int) -> tuple:
    return tuple(tuple((r + c) % n + 1 for c in range(n)) for r in range(n))


class CyclicIsotope:
    """Z_n with rows, columns and symbols permuted: L(i, j) = sp[rp[i] + cp[j]]."""

    def __init__(self, n: int, rng: random.Random):
        self.n = n
        self.rp = rng.sample(range(n), n)
        self.cp = rng.sample(range(n), n)
        self.sp = rng.sample(range(1, n + 1), n)
        self.col_of = {c: j for j, c in enumerate(self.cp)}
        self.rows = tuple(tuple(self.sp[(self.rp[i] + self.cp[j]) % n]
                                for j in range(n)) for i in range(n))

    def transversal(self, a: int) -> tuple[int, ...]:
        """1-based columns of the image of the Z_n transversal {(x, x + a)}.

        A transversal for odd n only; distinct a give disjoint ones.
        """
        n = self.n
        return tuple(self.col_of[(self.rp[i] + a) % n] + 1 for i in range(n))


def isotope(rows, rng: random.Random) -> tuple:
    n = len(rows)
    rp = rng.sample(range(n), n)
    cp = rng.sample(range(n), n)
    sp = rng.sample(range(1, n + 1), n)
    return tuple(tuple(sp[rows[rp[i]][cp[j]] - 1] for j in range(n))
                 for i in range(n))


def random_rows(n: int, rng: random.Random) -> tuple:
    """A seeded Latin square (not uniformly distributed), in polynomial time."""
    col_used = [set() for _ in range(n)]
    rows = []
    for _ in range(n):
        owner: dict[int, int] = {}  # symbol -> column holding it in this row
        for c in rng.sample(range(n), n):
            _augment(c, set(), owner, col_used, n, rng)
        row = [0] * n
        for s, c in owner.items():
            row[c] = s
            col_used[c].add(s)
        rows.append(tuple(row))
    return tuple(rows)


def _augment(c: int, seen: set, owner: dict, col_used, n: int,
             rng: random.Random) -> bool:
    for s in rng.sample(range(1, n + 1), n):
        if s in col_used[c] or s in seen:
            continue
        seen.add(s)
        if s not in owner or _augment(owner[s], seen, owner, col_used, n, rng):
            owner[s] = c
            return True
    return False


def punch(rows, fraction: float, rng: random.Random) -> tuple:
    """A partial square: `fraction` of the cells, chosen by the seed, emptied."""
    n = len(rows)
    cells = rng.sample(range(n * n), round(fraction * n * n))
    grid = [list(r) for r in rows]
    for i in cells:
        grid[i // n][i % n] = None
    return tuple(tuple(r) for r in grid)


def trailing_empty(rows, empty: int) -> tuple:
    """The first n - empty rows kept, the rest emptied."""
    n = len(rows)
    return tuple(rows[:n - empty]) + tuple((None,) * n for _ in range(empty))
