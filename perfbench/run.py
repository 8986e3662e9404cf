"""Benchmark of the latinsq package: one workload per run, checked outputs.

    python3 perfbench/run.py --workload {count,grow,search,cli} --seed N \
        --seconds S --trace {0,1} [--deadline D]

Run from the root of a checkout; the package is imported from `src/` of
that checkout and nothing is installed.  One process runs one workload as
a closed loop with a single caller and no threads.  The seed makes the
inputs (see inputs.py and workloads.py); a round runs every input once, and
rounds repeat until `--seconds` of job time have passed, so every run
measures whole rounds.  A job's time covers only its call into the
program; its output is checked after the clock stops.  Each job runs under
a deadline of `--deadline` seconds (SIGALRM in the main thread).

`--trace 0` prints the end-to-end metrics; `--trace 1` runs one untraced
round, then traces whole rounds for `--seconds` and prints the per-layer
metrics, each per round, with the tracing overhead.  Spans are written to
`.perfbench_out/` at the end.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import signal
import statistics
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

from checks import CheckFailed, digest
from tracing import Tracer
from workloads import WORKLOADS, JobFailed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Set-ups per run; setup_s is their median.  The first makes the program and
# inputs the run measures; the others are spread over the run (see main).
SETUPS = 9
WALL_LIMIT_S = 150.0  # stop starting rounds after this, to exit within 180 s
SPAN_DIR = ROOT / ".perfbench_out"
# Percentiles are taken within groups of whole rounds holding at least this
# many jobs, so that ten jobs lie beyond the 90th percentile of each group.
GROUP_JOBS = 100



class Deadline(BaseException):
    """The job outlived the per-job deadline."""


def _alarm(signum, frame):
    raise Deadline()


def load_program() -> SimpleNamespace:
    """Import latinsq afresh from this checkout's src/."""
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "latinsq" or m.startswith("latinsq.")]:
        del sys.modules[name]
    pkg = importlib.import_module("latinsq")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"latinsq imported from {pkg.__file__}, not {SRC}")
    names = ("core", "mappings", "constructions", "cli", "oracle")
    mods = {n: importlib.import_module(f"latinsq.{n}") for n in names}
    traced = [pkg] + [mods[n] for n in names if n != "oracle"]
    return SimpleNamespace(modules=traced, **mods)


def set_up(build, seed: int):
    """Import, inputs and warm-up: (seconds taken, program, inputs, one_round)."""
    t0 = time.perf_counter()
    program = load_program()
    inputs, one_round = build(program, seed)
    warm_up(program)
    return time.perf_counter() - t0, program, inputs, one_round


def warm_up(program) -> None:
    sq = program.core.cyclic_square(5)
    program.core.parse_lsq(program.core.format_lsq(sq))
    t = program.mappings.find_transversals(sq, limit=1)[0]
    program.constructions.contract_bruck(
        program.constructions.prolong_bruck(sq, t).output, 6)
    program.cli.build_parser()


class Runner:
    """Runs jobs: times each call under the deadline, then checks it."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.tracer: Tracer | None = None
        self.reset()

    def reset(self) -> None:
        self.clock = 0.0
        self.attempted = 0
        # An array, not a list of floats: float objects made during the run
        # would pin allocator arenas and inflate peak_rss_mb round by round.
        self.latencies = array("d")
        self.round_ends: list[int] = []  # len(latencies) after each round
        self.failures: Counter = Counter()
        self.messages: Counter = Counter()

    def count(self, key: str, n: int) -> None:
        if self.tracer is not None:
            self.tracer.count(key, n)

    def __call__(self, label: str, fn, check=None):
        self.attempted += 1
        span = self.tracer.begin_job() if self.tracer is not None else None
        reason = None
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, self.deadline)
            try:
                out = fn()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Deadline:
            reason, detail = "deadline", f"over {self.deadline} s"
        except Exception as exc:  # the program raised: this job failed
            reason, detail = "exception", type(exc).__name__
        elapsed = time.perf_counter() - t0
        if span is not None:
            self.tracer.end_job(span)
        self.clock += elapsed
        if reason is None and check is not None:
            try:
                check(out)
            except CheckFailed as exc:
                reason, detail = "check", str(exc)
            except Exception as exc:  # malformed output broke the checker
                reason, detail = "check", f"{type(exc).__name__}: {exc}"
        if reason is not None:
            self.failures[reason] += 1
            self.messages[f"{label}: {reason}: {detail}"[:200]] += 1
            self.latencies.append(math.inf)
            raise JobFailed(reason)
        self.latencies.append(elapsed)
        return out

    def rounds(self, one_round, seconds: float, started: float,
               between=lambda: None) -> int:
        """Whole rounds until `seconds` of job time (or the wall limit);
        `between` runs after each round, off the clock."""
        n = 0
        while n == 0 or (self.clock < seconds
                         and time.perf_counter() - started < WALL_LIMIT_S):
            one_round(self)
            self.round_ends.append(len(self.latencies))
            n += 1
            between()
            # Exceptions raised through deep recursion leave cyclic garbage;
            # collect it here, off the clock, so peak_rss_mb does not grow
            # with the number of rounds.
            gc.collect()
        return n

    def percentile_ms(self, q: float) -> float:
        """Nearest rank within each group of consecutive whole rounds that
        holds GROUP_JOBS jobs or more (a short last group joins the one
        before), averaged over the groups; a failed job ranks slower than
        any successful one.  The host runs in a fast and a slow state that
        last seconds, and many jobs cost nearly the same, so a percentile of
        all of a run's jobs at once lands on either a fast or a slow sample
        and jumps between runs; averaged over groups it moves in proportion
        to the share of fast time instead."""
        bounds, start = [], 0
        for end in self.round_ends:
            if end - start >= GROUP_JOBS:
                bounds.append((start, end))
                start = end
        if start < len(self.latencies):
            first = bounds.pop()[0] if bounds else 0
            bounds.append((first, len(self.latencies)))
        values = []
        for start, end in bounds:
            ranked = sorted(self.latencies[start:end])
            value = ranked[max(0, math.ceil(q * len(ranked)) - 1)]
            values.append(self.deadline if math.isinf(value) else value)
        return 1000.0 * statistics.fmean(values)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def per_round(total: float, rounds: int):
    value = total / rounds
    return int(value) if float(value).is_integer() else value


def layer_metrics(per_layer, tracer: Tracer, rounds: int, overhead: float) -> dict:
    counts = tracer.counts
    self_s = tracer.self_times()
    ratios = {
        "constructions.prolong_gen.yield_ratio":
            ("constructions.prolong_gen.yielded", "constructions.prolong_gen.calls"),
        "constructions.feasible_contractions.hit_ratio":
            ("constructions.feasible_contractions.feasible",
             "constructions.feasible_contractions.attempts"),
    }
    out = {}
    for name, unit in per_layer:
        if name == "trace.overhead_ratio":
            value = overhead
        elif name in ratios:
            num, den = ratios[name]
            value = counts[num] / counts[den] if counts[den] else 0.0
        elif name.endswith(".self_s"):
            value = self_s.get(name[:-len(".self_s")], 0.0) / rounds
        else:
            value = per_round(counts[name], rounds)
        out[name] = metric(value, unit)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--deadline", type=float, default=3.0,
                    help="per-job deadline in seconds")
    args = ap.parse_args(argv)
    # Metric names and units are those listed in BENCHMARK.json.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    started = time.perf_counter()
    signal.signal(signal.SIGALRM, _alarm)

    build = WORKLOADS[args.workload]
    try:
        first, program, inputs, one_round = set_up(build, args.seed)
    except ImportError as exc:
        print(f"cannot import latinsq from {SRC}: {exc}", file=sys.stderr)
        return 2
    setup_times = [first]
    measured = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "latinsq"}

    def more_set_ups(final=False):
        # The host's speed changes for seconds at a time, so set-ups made
        # back to back would all see one speed: the remaining set-ups are
        # made between rounds, each due after its share of the job time.
        # Each is thrown away and the measured program's modules restored.
        while len(setup_times) < SETUPS and (
                final or runner.clock >= len(setup_times) * args.seconds / SETUPS):
            setup_times.append(set_up(build, args.seed)[0])
            sys.modules.update(measured)

    runner = Runner(args.deadline)
    if args.trace:
        runner.rounds(one_round, 0.0, started)  # one untraced round
        untraced = runner.clock
        tracer = Tracer()
        tracer.install(program)
        runner.reset()
        runner.tracer = tracer
        rounds = runner.rounds(one_round, args.seconds, started)
        metrics = layer_metrics([(m["name"], m["unit"]) for m in spec["per_layer"]],
                                tracer, rounds, runner.clock / rounds / untraced - 1.0)
        # One file per workload, overwritten, so repeated runs do not pile up.
        tracer.write(SPAN_DIR / f"spans-{args.workload}.tsv")
    else:
        rounds = runner.rounds(one_round, args.seconds, started, more_set_ups)
        more_set_ups(final=True)
        ok = runner.attempted - sum(runner.failures.values())
        metrics = {
            "jobs_per_s": ok / runner.clock,
            "job_ms_p50": runner.percentile_ms(0.50),
            "job_ms_p90": runner.percentile_ms(0.90),
            "ok_ratio": ok / runner.attempted,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {k: metric(v, units[k]) for k, v in metrics.items()}

    failed = sum(runner.failures.values())
    print(f"workload {args.workload} seed {args.seed}: {rounds} rounds, "
          f"{runner.attempted} jobs, {runner.clock:.3f} s of job time, "
          f"failed_ratio {failed / runner.attempted:.4f} "
          f"(check {runner.failures['check']}, exception {runner.failures['exception']}, "
          f"deadline {runner.failures['deadline']})")
    print(f"  inputs sha256 {digest(inputs)}")
    for message, times in sorted(runner.messages.items()):
        print(f"  failed x{times}: {message}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": runner.failures["check"] == 0,
                      "attempted": runner.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
