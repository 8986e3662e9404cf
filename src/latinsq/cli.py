"""Command-line front end for the Latin square toolkit.

Subcommands:

    verify FILE                      check a square against the invariants
    gen --order N [--seed S]         emit a seeded pseudo-random square
    complete FILE [--all|--limit N]  enumerate completions of a partial square
    transversals FILE [...]          count or list transversals / families
    qcmappings FILE [...]            count or list quasicomplete mappings
    prolong FILE --method M [...]    run a prolongation construction
    contract FILE --method M [...]   run a contraction

All squares travel in the LSQ text format (see latinsq.core); FILE may
be '-' for standard input.  Transversals and mappings on the command
line are one-line column permutations such as "3 1 2"; excepted cells
are named by row only (`--except ROW`, the column is implied by the
transversal), as are kept rows (`--keep ROW`).  argparse checks every
integer and permutation flag: a token that is not an LSQ integer gets a
usage line and exit code 2 before any square is read.  One parser
serves every subcommand: it is built on first use, once per process,
and then shared by later runs in that process.  Building it takes 1-2
ms (one subparser alone would take 0.2-0.6 ms), which leaves a console
run's wall time unchanged within noise.  Every --count counts without
building a result: the transversal and quasicomplete lists and counts
run one meet-in-the-middle join, and families are counted on bitsets
(see latinsq.mappings).
In `transversals` and `qcmappings`, --limit caps --list output and
applies only to it: given without --list it is a usage error (exit 2).

Exit codes: 0 success; 1 `verify` found an invalid square; 2 usage,
parse, or parameter errors; 3 infeasible request (no completion or
contraction exists).  Output is byte-deterministic for identical
invocations.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache, partial

from . import constructions, core, mappings
from .core import DomainError, GridError, InfeasibleError


def main() -> None:
    sys.exit(run())


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits itself on --help and usage errors
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (GridError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on first use, once per
    process, and then shared by every later call (argparse keeps no state
    between parse_args calls), so callers must not mutate it."""
    parser = argparse.ArgumentParser(
        prog="latinsq",
        description="Latin square prolongations, contractions, and the "
                    "transversal/mapping enumeration behind them.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (help_, add_arguments) in _COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_))
    return parser


def _add_verify(p) -> None:
    p.add_argument("file", help="LSQ file, or - for stdin")
    p.set_defaults(func=_cmd_verify)


def _add_gen(p) -> None:
    p.add_argument("--order", type=_integer, required=True, metavar="N")
    p.add_argument("--seed", type=_integer, default=0, metavar="S")
    p.set_defaults(func=_cmd_gen)


def _add_complete(p) -> None:
    p.add_argument("file")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--all", action="store_true", help="emit every completion")
    g.add_argument("--limit", type=_integer, default=1, metavar="N",
                   help="emit at most N completions (default 1; 0 = no limit)")
    p.set_defaults(func=_cmd_complete)


def _add_results(p, transversals: bool = False) -> None:
    """The arguments of transversals and, without --disjoint, qcmappings."""
    p.add_argument("file")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--count", dest="mode", action="store_const", const="count",
                   help="print only the count (default)")
    g.add_argument("--list", dest="mode", action="store_const", const="list",
                   help="print one line per result")
    if transversals:
        p.add_argument("--disjoint", type=_integer, metavar="K",
                       help="work on families of K pairwise disjoint transversals")
    p.add_argument("--limit", type=_integer, metavar="N",
                   help="cap --list output at N lines (0 = no limit)")
    p.set_defaults(mode="count",
                   func=_cmd_transversals if transversals else _cmd_qcmappings)


def _add_prolong(p) -> None:
    p.add_argument("file")
    p.add_argument("--method", required=True,
                   choices=["bruck", "disjoint", "belyavskaya", "gen-belyavskaya",
                            "dd", "gen-dd", "two-step"])
    params = [  # every flag _PROLONG_ALLOWED hands out, checked in this order
        p.add_argument("--transversal", action="append", type=_integers,
                       metavar="PERM",
                       help="transversal columns 'c1 c2 ... cn' (repeatable)"),
        p.add_argument("--sigma", action="append", type=_integers, metavar="PERM",
                       help="mapping 's1 s2 ... sn' (repeatable)"),
        p.add_argument("--except", dest="excepts", action="append", type=_integer,
                       metavar="ROW", help="row of the cell exempted from projection"),
        p.add_argument("--keep", dest="keeps", action="append", type=_integer,
                       metavar="ROW", help="kept row of a quasicomplete mapping"),
        p.add_argument("--fill", type=_integers, metavar="LIST",
                       help="new symbol written into each transversal's vacated cells"),
        p.add_argument("--cols", type=_integers, metavar="PERM",
                       help="new-column assignment (permutation of 1..k)"),
        p.add_argument("--rows", type=_integers, metavar="PERM",
                       help="new-row assignment (permutation of 1..k)"),
        p.add_argument("--bottom", metavar="FILE",
                       help="order-k LSQ square for the bottom block (symbols 1..k)"),
        p.add_argument("--t1", type=_integers, metavar="PERM",
                       help="first transversal (two-step)"),
        p.add_argument("--t2", type=_integers, metavar="PERM",
                       help="second transversal (two-step)"),
        p.add_argument("--first", choices=["bruck", "belyavskaya"],
                       help="first step of two-step (default bruck)"),
        p.add_argument("--limit", type=_integer, metavar="N",
                       help="completions per generalized construction "
                            "(default 1; 0 = no limit)"),
        p.add_argument("--no-diag-seed", dest="diag_seed", action="store_false",
                       default=None,
                       help="leave the gen-dd diagonal to the completion search"),
    ]
    p.set_defaults(func=partial(_cmd_prolong, flags={
        a.dest: a.option_strings[0] for a in params}))


def _add_contract(p) -> None:
    p.add_argument("file")
    p.add_argument("--method", required=True, choices=["bruck", "except"])
    p.add_argument("--deleted", type=_integer, metavar="SYMBOL",
                   help="symbol removed by the contraction")
    p.add_argument("--try-all", dest="try_all", action="store_true",
                   help="report every feasible deleted symbol")
    p.set_defaults(func=_cmd_contract)


_COMMANDS = {  # name: (help line, function adding its arguments), in help order
    "verify": ("check a square file against the Latin invariants", _add_verify),
    "gen": ("emit a seeded pseudo-random Latin square", _add_gen),
    "complete": ("enumerate completions of a partial square", _add_complete),
    "transversals": ("count or list transversals",
                     partial(_add_results, transversals=True)),
    "qcmappings": ("count or list quasicomplete mappings", _add_results),
    "prolong": ("run a prolongation construction", _add_prolong),
    "contract": ("run a contraction (inverse prolongation)", _add_contract),
}


# --- shared plumbing ---------------------------------------------------------

def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    # like standard input: a bad byte becomes a bad token, not a crash
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        return fh.read()


def _load_full(path: str) -> core.LatinSquare:
    grid = core.parse_lsq(_read_text(path))
    if isinstance(grid, core.PartialLatinSquare):
        raise DomainError(f"{path}: contains empty cells; a complete square is required")
    return grid


def _integer(text: str) -> int:
    """An integer token of the LSQ format (see core._int_token) as an int;
    int() alone would also take "+3", "1_0" and "３"."""
    value = core._int_token(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return value


def _integers(text: str) -> tuple[int, ...]:
    """Whitespace-separated integer tokens, each by the rule of _integer."""
    values = tuple(map(core._int_token, text.split()))
    if None in values:
        raise argparse.ArgumentTypeError(
            f"expected whitespace-separated integers, got {text!r}")
    return values


def _one(values, flag: str):
    if not values or len(values) != 1:
        raise DomainError(f"{flag} must be given exactly once for this method")
    return values[0]


def _many(values, flag: str):
    if not values:
        raise DomainError(f"{flag} must be given at least once for this method")
    return values


def _limit(value: int | None):
    if value is not None and value < 0:
        raise DomainError(f"--limit must be 0 (no limit) or positive, got {value}")
    return value or None  # 0 and an absent flag both mean no limit


def _emit(blocks) -> int:
    sys.stdout.write("\n".join(blocks))
    return 0


def _emit_squares(squares) -> int:
    if not squares:
        print("no completion exists", file=sys.stderr)
        return 3
    return _emit([core.format_lsq(sq) for sq in squares])


def _fmt_perm(seq) -> str:
    return " ".join(str(v) for v in seq)


# --- subcommands -------------------------------------------------------------

def _cmd_verify(args) -> int:
    report = core.validate(core.parse_lsq_grid(_read_text(args.file)))
    print(report)
    return 0 if report.ok else 1


def _cmd_gen(args) -> int:
    return _emit([core.format_lsq(core.random_square(args.order, args.seed))])


def _cmd_complete(args) -> int:
    grid = core.parse_lsq(_read_text(args.file))
    limit = None if args.all else _limit(args.limit)
    return _emit_squares(core.complete_partial(grid, limit=limit))


def _list_results(args, find, to_line, count=None) -> int:
    """Shared count/list logic: counts are exact, lists honor --limit.

    find(limit) returns the first `limit` results (None = all of them);
    count(), when given, counts them all without building them.  A
    --limit without --list is an error, after its value is checked.
    """
    limit = _limit(args.limit)
    if args.mode == "count":
        if args.limit is not None:
            raise DomainError("--limit applies only to --list")
        print(count() if count else len(find(None)))
        return 0
    items = find(None if limit is None else limit + 1)
    truncated = limit is not None and len(items) > limit
    for item in items[:limit]:
        print(to_line(item))
    if truncated:
        print(f"# truncated at {limit}")
    return 0


def _cmd_transversals(args) -> int:
    sq = _load_full(args.file)
    k = args.disjoint
    if k is None:
        return _list_results(
            args,
            lambda cap: mappings.find_transversals(sq, limit=cap),
            lambda t: _fmt_perm(t.cols),
            lambda: mappings.count_transversals(sq))
    return _list_results(
        args,
        lambda cap: mappings.find_disjoint_transversals(sq, k, limit=cap),
        lambda fam: " ; ".join(_fmt_perm(t.cols) for t in fam),
        lambda: mappings.count_disjoint_families(sq, k))


def _cmd_qcmappings(args) -> int:
    sq = _load_full(args.file)
    return _list_results(
        args,
        lambda cap: mappings.find_quasicomplete_mappings(sq, limit=cap),
        lambda rec: _fmt_perm(rec.sigma),
        lambda: mappings.count_quasicomplete_mappings(sq))


_PROLONG_ALLOWED = {
    "bruck": {"transversal"},
    "disjoint": {"transversal", "fill", "cols", "rows", "bottom"},
    "belyavskaya": {"transversal", "excepts"},
    "gen-belyavskaya": {"transversal", "excepts", "fill", "cols", "rows", "limit"},
    "dd": {"sigma", "keeps"},
    "gen-dd": {"sigma", "keeps", "fill", "cols", "rows", "limit", "diag_seed"},
    "two-step": {"t1", "t2", "excepts", "keeps", "first"},
}


def _excepted_cell(sq, cols, row):
    """Resolve `--except ROW` to a (row, col) cell on the transversal."""
    t = mappings.transversal_of(sq, cols)
    if not 1 <= row <= sq.order:
        raise DomainError(f"--except row {row} out of range 1..{sq.order}")
    return t, (row, t.cols[row - 1])


def _assignments(args) -> dict:
    """The fill/col_assign/row_assign keywords from --fill/--cols/--rows."""
    return {"fill": args.fill, "col_assign": args.cols, "row_assign": args.rows}


def _cmd_prolong(args, flags: dict[str, str]) -> int:
    """Run one prolongation; flags maps each parameter's dest to its flag."""
    sq = _load_full(args.file)
    method = args.method
    allowed = _PROLONG_ALLOWED[method]
    for attr, flag in flags.items():
        if attr not in allowed and getattr(args, attr) is not None:
            takers = ", ".join(m for m, taken in _PROLONG_ALLOWED.items()
                               if attr in taken)
            raise DomainError(
                f"{flag} does not apply to --method {method} (only to {takers})")
    limit = 1 if args.limit is None else _limit(args.limit)

    if method == "bruck":
        cols = _one(args.transversal, "--transversal")
        return _emit_reports([constructions.prolong_bruck(sq, cols)])

    if method == "disjoint":
        bottom = None
        if args.bottom is not None:
            bottom = tuple(tuple(v + sq.order for v in row)
                           for row in _load_full(args.bottom).rows)
        rep = constructions.prolong_disjoint(
            sq, _many(args.transversal, "--transversal"), bottom=bottom,
            **_assignments(args))
        return _emit_reports([rep])

    if method == "belyavskaya":
        cols = _one(args.transversal, "--transversal")
        t, cell = _excepted_cell(sq, cols, _one(args.excepts, "--except"))
        return _emit_reports([constructions.prolong_belyavskaya(sq, t, cell)])

    if method == "gen-belyavskaya":
        perms = _many(args.transversal, "--transversal")
        rows = _many(args.excepts, "--except")
        if len(rows) != len(perms):
            raise DomainError("need exactly one --except per --transversal")
        pairs = [_excepted_cell(sq, cols, row) for cols, row in zip(perms, rows)]
        return _emit_reports(constructions.prolong_belyavskaya_gen(
            sq, pairs, limit=limit, **_assignments(args)))

    if method == "dd":
        sigma = _one(args.sigma, "--sigma")
        kept = _one(args.keeps, "--keep") if args.keeps is not None else None
        return _emit_reports([constructions.prolong_dd(sq, sigma, kept)])

    if method == "gen-dd":
        sigmas = _many(args.sigma, "--sigma")
        keeps = args.keeps or [None] * len(sigmas)
        if len(keeps) != len(sigmas):
            raise DomainError("need exactly one --keep per --sigma, or none at all")
        return _emit_reports(constructions.prolong_dd_gen(
            sq, list(zip(sigmas, keeps)), seed_diagonal=args.diag_seed is None,
            limit=limit, **_assignments(args)))

    # two-step
    if args.t1 is None or args.t2 is None:
        raise DomainError("--t1 and --t2 are required for --method two-step")
    excepted = kept = None
    if args.first == "belyavskaya":
        _, excepted = _excepted_cell(sq, args.t1, _one(args.excepts, "--except"))
        kept = _one(args.keeps, "--keep") if args.keeps is not None else None
    elif args.excepts is not None or args.keeps is not None:
        raise DomainError("--except and --keep require --first belyavskaya")
    rep = constructions.two_step(sq, args.t1, args.t2, first=args.first or "bruck",
                                 excepted=excepted, kept_choice=kept)
    return _emit_reports([rep])


def _emit_reports(reports) -> int:
    return _emit_squares([rep.output for rep in reports])


def _cmd_contract(args) -> int:
    sq = _load_full(args.file)
    if args.try_all == (args.deleted is not None):
        raise DomainError("give exactly one of --deleted or --try-all")
    if args.try_all:
        found = constructions.feasible_contractions(sq, args.method)
        if not found:
            print("no feasible contraction", file=sys.stderr)
            return 3
        return _emit([_contract_block(args.method, d, small, param)
                      for d, small, param in found])
    op = (constructions.contract_bruck if args.method == "bruck"
          else constructions.contract_except)
    small, param = op(sq, args.deleted)
    return _emit([_contract_block(args.method, args.deleted, small, param)])


def _contract_block(method: str, deleted: int, small, param) -> str:
    comments = [f"deleted: {deleted}"]
    if method == "bruck":
        comments.append(f"transversal: {_fmt_perm(param.cols)}")
    else:
        comments.append(f"sigma: {_fmt_perm(param.sigma)}")
        if param.kind == "quasicomplete":
            x1, x2 = param.duplicate_pair
            comments.append(f"classification: quasicomplete "
                            f"special={param.special} pair=({x1},{x2})")
        else:
            comments.append(f"classification: {param.kind}")
    return core.format_lsq(small, comments)


if __name__ == "__main__":
    main()
