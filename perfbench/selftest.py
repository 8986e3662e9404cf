"""Self-test of the benchmark: one short run of each workload, then checks.

    python3 perfbench/selftest.py

From the root of a checkout.  For every workload it runs one round traced
twice with the same seed and one round untraced with another seed, and
requires that every output check passed, that the only failures are the
known defects kept in `search`, that equal seeds gave equal inputs and
equal per-layer counts, that another seed gave other inputs, that each
run reported exactly the metrics BENCHMARK.json lists, and that every
per-layer metric is nonzero on some workload.  Takes about two
minutes.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The failures every search round must show: RecursionError and the empty
# 32 x 32 grid in the completion solver, random_square(64) over the deadline.
KNOWN_FAILURES = {"search": 3}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run(command, workload: str, seed: int, trace: int) -> tuple[dict, str]:
    cmd = command + ["--workload", workload, "--seed", str(seed),
                             "--seconds", "0", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    inputs = next(ln.split()[-1] for ln in lines if "inputs sha256" in ln)
    return json.loads(lines[-1]), inputs


def check_spec(spec) -> None:
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in spec[key]]
    assert all(NAME.fullmatch(n) for n in names), "bad metric or workload name"
    assert len(set(names)) == len(names), "a name is used twice"
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    counts = [m["name"] for m in spec["per_layer"]
              if not m["unit"].startswith("s/") and m["unit"] != "ratio"]
    seen: set[str] = set()
    for w in spec["workloads"]:
        name = w["name"]
        a, inputs_a = run(spec["command"], name, 7, 1)
        b, inputs_b = run(spec["command"], name, 7, 1)
        c, inputs_c = run(spec["command"], name, 8, 0)
        for res in (a, b, c):
            assert res["correct"], f"{name}: an output check failed"
            assert res["failed"] == KNOWN_FAILURES.get(name, 0), \
                f"{name}: {res['failed']} failed jobs"
        assert set(a["metrics"]) == per_layer and set(c["metrics"]) == end_to_end
        assert inputs_a == inputs_b != inputs_c, f"{name}: inputs do not follow the seed"
        differ = [m for m in counts if a["metrics"][m] != b["metrics"][m]]
        assert not differ, f"{name}: per-layer counts differ between equal seeds: {differ}"
        seen |= {m for m, v in a["metrics"].items() if v["value"]}
        print(f"{name}: ok ({a['attempted']} jobs a round)", flush=True)
    # A name BENCHMARK.json lists but no code fills in would read 0 everywhere.
    silent = per_layer - seen - {"trace.overhead_ratio"}
    assert not silent, f"per-layer metrics that are 0 on every workload: {sorted(silent)}"
    return 0


if __name__ == "__main__":
    sys.exit(main())
