"""Spans around the program's public functions, recorded from outside.

`Tracer.install` rebinds every module-level binding of each traced function
(for example `latinsq.core.validate`, which `LatinSquare.__post_init__`
looks up at call time, and the copy of `complete_partial` imported into
`latinsq.constructions`), so internal calls are traced too.  Nothing under
`src/` is edited.

A span is (name, start, end, parent index).  Spans stay in memory and are
written out by `write`.  A layer's self time is its spans' durations minus
their child spans.  Counts are taken at the outermost call of each layer, so
a layer calling itself (`two_step` calling `prolong_bruck`) counts once.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


def _order(grid) -> int:
    return len(grid.rows if hasattr(grid, "rows") else grid)


def _holes(grid) -> int:
    rows = grid.rows if hasattr(grid, "rows") else grid
    return sum(v is None for row in rows for v in row)


# layer -> ([(module, function), ...], counts(args, kwargs, result) -> {name: n})
LAYERS = {
    "core.validate": ([("core", "validate")],
                      lambda a, k, r: {"cells": _order(a[0]) ** 2}),
    "core.parse_lsq": ([("core", "parse_lsq"), ("core", "parse_lsq_grid")],
                       lambda a, k, r: {"cells": _order(r) ** 2}),
    "core.format_lsq": ([("core", "format_lsq")],
                        lambda a, k, r: {"bytes": len(r)}),
    "core.complete_partial": ([("core", "complete_partial")],
                              lambda a, k, r: {"solutions": len(r)}),
    "core.random_square": ([("core", "random_square")], None),
    "mappings.find_transversals": ([("mappings", "find_transversals")],
                                   lambda a, k, r: {"results": len(r)}),
    "mappings.find_disjoint_transversals": (
        [("mappings", "find_disjoint_transversals")],
        lambda a, k, r: {"families": len(r)}),
    "mappings.find_quasicomplete_mappings": (
        [("mappings", "find_quasicomplete_mappings")],
        lambda a, k, r: {"results": len(r)}),
    "mappings.conjugated_mapping": ([("mappings", "conjugated_mapping")], None),
    "mappings.transversal_of": ([("mappings", "transversal_of")], None),
    "constructions.prolong": (
        [("constructions", f) for f in ("prolong_bruck", "prolong_belyavskaya",
                                         "prolong_dd", "prolong_disjoint",
                                         "two_step")],
        lambda a, k, r: {"out_cells": r.output.order ** 2}),
    "constructions.prolong_gen": (
        [("constructions", "prolong_belyavskaya_gen"),
         ("constructions", "prolong_dd_gen")],
        lambda a, k, r: {"reports": len(r), "yielded": int(bool(r))}),
    "constructions.contract": ([("constructions", "contract_bruck"),
                                ("constructions", "contract_except")], None),
    "constructions.feasible_contractions": (
        [("constructions", "feasible_contractions")],
        lambda a, k, r: {"attempts": _order(a[0]), "feasible": len(r)}),
    "cli.run": ([("cli", "run")],
                lambda a, k, r: {"nonzero_exits": int(r != 0)}),
    "cli.build_parser": ([("cli", "build_parser")], None),
}

# Counts taken from the arguments before the call, so failed calls have them.
BEFORE = {
    "core.complete_partial": lambda a, k: {"holes": _holes(a[0])},
    "core.random_square": lambda a, k: {"cells": a[0] ** 2},
}

JOB = "bench.job"
REPORT = "constructions.ConstructionReport"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.depth: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.layer_of: dict[str, str] = {JOB: "bench"}

    def install(self, program) -> None:
        """Rebind every traced function in every loaded latinsq module."""
        modules = program.modules
        for layer, (funcs, after) in LAYERS.items():
            for mod, name in funcs:
                orig = getattr(getattr(program, mod), name)
                wrapper = self._wrap(orig, f"{mod}.{name}", layer,
                                     BEFORE.get(layer), after)
                for m in modules:
                    if m.__dict__.get(name) is orig:
                        setattr(m, name, wrapper)
        cls = program.constructions.ConstructionReport
        cls.__post_init__ = self._wrap(cls.__post_init__, REPORT, REPORT,
                                       None, None)

    def _wrap(self, fn, name: str, layer: str, before, after):
        spans, stack, depth, counts = self.spans, self.stack, self.depth, self.counts
        self.layer_of[name] = layer

        def traced(*args, **kwargs):
            outer = depth[layer] == 0
            if outer and before is not None:
                for key, n in before(args, kwargs).items():
                    counts[f"{layer}.{key}"] += n
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            depth[layer] += 1
            ok = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = perf_counter()
                spans[idx] = (name, t0, t1, parent)
                stack.pop()
                depth[layer] -= 1
                if outer:
                    counts[f"{layer}.calls"] += 1
                    if not ok:
                        counts[f"{layer}.failed"] += 1
            if outer and after is not None:
                for key, n in after(args, kwargs, result).items():
                    counts[f"{layer}.{key}"] += n
            return result

        return traced

    def begin_job(self) -> int:
        idx = len(self.spans)
        self.spans.append((JOB, perf_counter(), None, -1))
        self.stack.append(idx)
        return idx

    def end_job(self, idx: int) -> None:
        name, t0, _, parent = self.spans[idx]
        self.spans[idx] = (name, t0, perf_counter(), parent)
        # A deadline can interrupt a wrapper anywhere; leave no layer open.
        self.stack.clear()
        self.depth.clear()

    def count(self, key: str, n: int) -> None:
        self.counts[key] += n

    def self_times(self) -> dict[str, float]:
        """Per-layer self time: span durations minus their children's."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[2] is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        out: dict[str, float] = defaultdict(float)
        for i, span in enumerate(self.spans):
            if span is not None and span[2] is not None:
                out[self.layer_of[span[0]]] += span[2] - span[1] - child[i]
        return out

    def write(self, path) -> None:
        """One line per span: index, parent, name, start, end (seconds)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            for i, span in enumerate(self.spans):
                if span is not None and span[2] is not None:
                    name, t0, t1, parent = span
                    fh.write(f"{i}\t{parent}\t{name}\t{t0:.9f}\t{t1:.9f}\n")
