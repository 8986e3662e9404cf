"""Acceptance gate: one test per release criterion, printed pass/fail.

Each test accumulates failure strings instead of asserting piecemeal, then
records a single [ACCEPTANCE] line that the terminal summary reprints.
"""

import itertools
import random
import time

import grids
from latinsq import (
    LatinSquare,
    cli,
    complete_partial,
    contract_bruck,
    contract_except,
    cyclic_square,
    find_disjoint_transversals,
    find_quasicomplete_mappings,
    find_transversals,
    format_lsq,
    is_latin,
    prolong_belyavskaya,
    prolong_belyavskaya_gen,
    prolong_bruck,
    prolong_dd,
    prolong_dd_gen,
    prolong_disjoint,
    two_step,
)
from latinsq.oracle import (
    oracle_completions,
    oracle_disjoint_families,
    oracle_quasicomplete,
    oracle_transversals,
)

RESULTS: list[str] = []

QC4 = LatinSquare(grids.QC_BASE4)


def _record(name: str, failures: list[str]) -> None:
    line = f"[ACCEPTANCE] {name}: {'FAIL' if failures else 'PASS'}"
    RESULTS.append(line)
    print(line)
    assert not failures, f"{name}:\n" + "\n".join(failures)


def _check(failures: list[str], ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


def _timed(failures: list[str], label: str, budget: float, fn):
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    _check(failures, elapsed < budget,
           f"{label} took {elapsed:.2f}s, budget {budget}s")
    return result


def _same(failures, label, output, expected) -> None:
    _check(failures, format_lsq(output) == format_lsq(LatinSquare(expected)),
           f"{label} does not match the reference grid")


def test_criterion_1_reference_grids():
    failures = []
    try:
        cyc3 = cyclic_square(3)
        out = _timed(failures, "bruck", 1.0,
                     lambda: prolong_bruck(cyc3, grids.T_BLUE).output)
        _same(failures, "bruck 4x4", out, grids.BRUCK_OUT4)

        pair = [grids.T_YELLOW, grids.T_GREEN]
        out = _timed(failures, "disjoint k=2", 1.0,
                     lambda: prolong_disjoint(cyc3, pair,
                                              bottom=[[5, 4], [4, 5]]).output)
        _same(failures, "disjoint 5x5", out, grids.DISJ_OUT5)
        swapped = prolong_disjoint(cyc3, pair, bottom=[[5, 4], [4, 5]],
                                   row_assign=(2, 1)).output
        _same(failures, "disjoint 5x5 row-swapped", swapped,
              grids.DISJ_OUT5_SWAPPED)

        out = _timed(failures, "disjoint k=3", 1.0,
                     lambda: prolong_disjoint(
                         cyc3, pair + [grids.T_BLUE], fill=(6, 5, 4)).output)
        _same(failures, "disjoint 6x6", out, grids.DISJ_OUT6)

        out = _timed(failures, "belyavskaya", 1.0,
                     lambda: prolong_belyavskaya(cyc3, grids.T_BLUE,
                                                 (2, 1)).output)
        _same(failures, "belyavskaya 4x4", out, grids.BEL_OUT4)

        reports = _timed(failures, "gen-belyavskaya 5x5", 1.0,
                         lambda: prolong_belyavskaya_gen(
                             cyc3, [(grids.T_YELLOW, (1, 1)),
                                    (grids.T_GREEN, (2, 3))],
                             fill=(5, 4), limit=None))
        _check(failures,
               any(r.output.rows == grids.GENBEL_OUT5 for r in reports),
               "gen-belyavskaya 5x5 reference not among completions")
        reports = _timed(failures, "gen-belyavskaya 6x6", 1.0,
                         lambda: prolong_belyavskaya_gen(
                             cyc3, [(grids.T_YELLOW, (2, 2)),
                                    (grids.T_GREEN, (3, 1)),
                                    (grids.T_BLUE, (3, 2))], limit=None))
        _check(failures,
               any(r.output.rows == grids.GENBEL_OUT6 for r in reports),
               "gen-belyavskaya 6x6 reference not among completions")

        out = _timed(failures, "dd", 1.0,
                     lambda: prolong_dd(QC4, grids.QC_SIGMA, 4).output)
        _same(failures, "dd 5x5", out, grids.DD_OUT5)

        reports = _timed(failures, "gen-dd", 1.0,
                         lambda: prolong_dd_gen(
                             QC4, [((1, 3, 2, 4), 4), ((2, 1, 4, 3), 4)],
                             limit=None))
        _check(failures, len(reports) == 1,
               f"gen-dd found {len(reports)} completions, expected exactly 1")
        if reports:
            _same(failures, "gen-dd 6x6", reports[0].output, grids.GENDD_OUT6)

        rep = _timed(failures, "two-step", 1.0,
                     lambda: two_step(cyc3, grids.T_BLUE, grids.T_YELLOW,
                                      first="belyavskaya", excepted=(2, 1)))
        _same(failures, "two-step 5x5", rep.output, grids.TWOSTEP_OUT5)
        _check(failures, rep.intermediate.kind == "quasicomplete"
               and rep.intermediate.special == 4
               and rep.intermediate.sigma_bar == (1, 3, 2, 2),
               "two-step intermediate classification is wrong")
    except Exception as exc:
        failures.append(f"unexpected error: {exc!r}")
    _record("criterion 1: reference grids reproduced exactly", failures)


def _disjoint_pair(transversals):
    for a, b in itertools.combinations(transversals, 2):
        if not set(a.cells()) & set(b.cells()):
            return a, b
    return None


def test_criterion_2_property_suites(pool, transversal_cache, qc_cache):
    failures = []
    start = time.perf_counter()
    latin_cases = roundtrip_cases = intercalate_cases = k1_cases = 0
    try:
        for n, squares in pool.items():
            for sq in squares:
                ts = transversal_cache[sq][:4]
                qcs = qc_cache[sq][:4]

                # Suite: every prolongation output passes is_latin.
                outputs = []
                for i, t in enumerate(ts[:3]):
                    outputs.append(prolong_bruck(sq, t).output)
                    row = (2 * i) % n + 1
                    cell = (row, t.cols[row - 1])
                    outputs.append(prolong_belyavskaya(sq, t, cell).output)
                if ts:
                    cell = (1, ts[0].cols[0])
                    outputs += [r.output for r in prolong_belyavskaya_gen(
                        sq, [(ts[0], cell)], limit=1)]
                for rec in qcs[:3]:
                    outputs.append(prolong_dd(sq, rec.sigma).output)
                if qcs:
                    outputs += [r.output for r in prolong_dd_gen(
                        sq, [(qcs[0].sigma, None)], limit=1)]
                pair = _disjoint_pair(ts)
                if pair:
                    outputs.append(prolong_disjoint(sq, pair).output)
                    outputs.append(two_step(sq, pair[0], pair[1]).output)
                for out in outputs:
                    latin_cases += 1
                    if not is_latin(out):
                        failures.append(f"non-Latin prolongation of order {n}")

                # Suite: contractions undo their prolongations.
                for t in ts:
                    big = prolong_bruck(sq, t).output
                    small, back = contract_bruck(big, n + 1)
                    roundtrip_cases += 1
                    if small != sq or back.cols != t.cols:
                        failures.append(f"bruck round-trip failed at order {n}")
                    big = prolong_belyavskaya(sq, t, (1, t.cols[0])).output
                    small, rec = contract_except(big, n + 1)
                    roundtrip_cases += 1
                    if small != sq or rec.sigma != t.cols:
                        failures.append(
                            f"belyavskaya round-trip failed at order {n}")
                for rec in qcs:
                    big = prolong_dd(sq, rec.sigma).output
                    small, back = contract_except(big, n + 1)
                    roundtrip_cases += 1
                    if small != sq or back.sigma != rec.sigma:
                        failures.append(f"dd round-trip failed at order {n}")

                # Suite: Belyavskaya output = Bruck output with the intercalate
                # at rows {x0, n+1} x cols {y0, n+1} swapped.
                for t in ts[:3]:
                    bruck = prolong_bruck(sq, t).output
                    fill = n + 1
                    for x0 in (1, (n + 1) // 2):
                        y0 = t.cols[x0 - 1]
                        a = sq.cell(x0, y0)
                        grid = [list(row) for row in bruck.rows]
                        swap = {a: fill, fill: a}
                        for r in (x0, n + 1):
                            for c in (y0, n + 1):
                                grid[r - 1][c - 1] = swap[grid[r - 1][c - 1]]
                        bel = prolong_belyavskaya(sq, t, (x0, y0)).output
                        intercalate_cases += 1
                        if tuple(tuple(row) for row in grid) != bel.rows:
                            failures.append(
                                f"intercalate identity failed at order {n}")

                # Suite: k=1 disjoint prolongation is exactly Bruck.
                for t in ts:
                    k1_cases += 1
                    if prolong_disjoint(sq, [t]).output != \
                            prolong_bruck(sq, t).output:
                        failures.append(f"disjoint k=1 != bruck at order {n}")

        for label, count in (("is_latin", latin_cases),
                             ("round-trip", roundtrip_cases),
                             ("intercalate", intercalate_cases),
                             ("k=1", k1_cases)):
            _check(failures, count >= 200,
                   f"{label} suite ran {count} cases, needs >= 200")
        elapsed = time.perf_counter() - start
        _check(failures, elapsed < 30.0,
               f"property suites took {elapsed:.1f}s, budget 30s")
    except Exception as exc:
        failures.append(f"unexpected error: {exc!r}")
    _record("criterion 2: property suites over seeded squares", failures)


def test_criterion_3_oracle_equivalence(corpus):
    failures = []
    try:
        for i, sq in enumerate(corpus):
            n = sq.order
            kernel = {t.cols for t in find_transversals(sq)}
            naive = set(oracle_transversals(sq))
            if kernel != naive:
                failures.append(f"transversal sets differ on corpus[{i}]")
            kernel = {rec.sigma for rec in find_quasicomplete_mappings(sq)}
            naive = set(oracle_quasicomplete(sq))
            if kernel != naive:
                failures.append(f"quasicomplete sets differ on corpus[{i}]")
            for k in range(2, min(n, 3) + 1):
                naive = oracle_disjoint_families(sq, k)
                full = find_disjoint_transversals(sq, k)
                # a limit past the end runs the limited search to exhaustion
                limited = find_disjoint_transversals(sq, k, len(full) + 1)
                for label, fams in (("full", full), ("limited", limited)):
                    if [tuple(t.cols for t in f) for f in fams] != naive:
                        failures.append(f"{label} k={k} family lists differ "
                                        f"on corpus[{i}]")

            rng = random.Random(9000 + i)
            holes = rng.sample([(r, c) for r in range(n) for c in range(n)],
                               min(n + 2, n * n))
            grid = [list(row) for row in sq.rows]
            for r, c in holes:
                grid[r][c] = None
            if len(complete_partial(grid)) != oracle_completions(grid):
                failures.append(f"completion counts differ on corpus[{i}]")
    except Exception as exc:
        failures.append(f"unexpected error: {exc!r}")
    _record("criterion 3: kernels match the brute-force oracles", failures)


def test_criterion_4_enumeration_regressions():
    failures = []
    try:
        for n, want in enumerate(grids.CYCLIC_TRANSVERSAL_COUNTS, start=1):
            sq = cyclic_square(n)
            budget = 1.0 if n == 7 else 30.0
            found = _timed(failures, f"order-{n} kernel enumeration", budget,
                           lambda sq=sq: find_transversals(sq))
            _check(failures, len(found) == want,
                   f"cyclic order {n}: kernel found {len(found)}, want {want}")
            _check(failures, len(oracle_transversals(sq)) == want,
                   f"cyclic order {n}: oracle found a different count")

        _check(failures, find_transversals(QC4) == [],
               "base 4x4 square should have no transversal")
        sigmas = [rec.sigma for rec in find_quasicomplete_mappings(QC4)]
        _check(failures, sigmas and grids.QC_SIGMA in sigmas,
               "base 4x4 square should have quasicomplete mapping (1,3,2,4)")
    except Exception as exc:
        failures.append(f"unexpected error: {exc!r}")
    _record("criterion 4: frozen enumeration counts", failures)


def test_criterion_5_cli_contract(capsys, tmp_path):
    failures = []
    try:
        cyc3 = tmp_path / "cyc3.lsq"
        cyc3.write_text(format_lsq(cyclic_square(3)))
        cyc4 = tmp_path / "cyc4.lsq"
        cyc4.write_text(format_lsq(cyclic_square(4)))

        code = cli.run(["verify", str(cyc3)])
        out = capsys.readouterr().out
        _check(failures, code == 0 and out == "ok\n",
               f"verify: exit {code}, output {out!r}")

        code = cli.run(["prolong", str(cyc3), "--method", "bruck",
                        "--transversal", "3 1 2"])
        emitted = capsys.readouterr().out
        _check(failures, code == 0, f"prolong: exit {code}")
        _check(failures,
               emitted == format_lsq(LatinSquare(grids.BRUCK_OUT4)),
               "prolong: emitted grid differs from the reference")

        code = cli.run(["transversals", str(cyc4), "--count"])
        out = capsys.readouterr().out
        _check(failures, code == 0 and out == "0\n",
               f"transversals --count: exit {code}, output {out!r}")

        for text in emitted.strip().split("\n\n"):
            back = tmp_path / "emitted.lsq"
            back.write_text(text + "\n")
            code = cli.run(["verify", str(back)])
            capsys.readouterr()
            _check(failures, code == 0, "an emitted grid failed verify")
    except Exception as exc:
        failures.append(f"unexpected error: {exc!r}")
    _record("criterion 5: CLI examples and re-verification", failures)
