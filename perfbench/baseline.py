"""Measure and record a baseline, and check that the benchmark is steady.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Runs `run.py` one run at a time from the root of a checkout, each for
BENCHMARK.json's `run_seconds`.  Set k of SETS runs every workload once
on each of the seeds k*RUNS+1 .. (k+1)*RUNS with tracing off.  Then each
workload runs traced on seed 1 and untraced on SECOND_SEED, a seed kept
out of the benchmark's development.

For every set, workload and metric the record holds the median, the
quartiles and the spread (q3 - q1) / median; for every later set, the
change of its median against set 0's.  A metric is steady when every
spread and every worsening of the median stays within its bound in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run
import scenes
import spans

ROOT = Path(__file__).resolve().parent.parent
SETS = 2
RUNS = 10
SECOND_SEED = 9001


def one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run's JSON result; its "table" holds the median of every
    end-to-end metric the run printed, the table-only ones included."""
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    print("\n".join(lines[:-1]), flush=True)
    result = json.loads(lines[-1])
    names = {name for name, _, _ in run.END_TO_END}
    result["table"] = {line.split()[0]: float(line.split()[1])
                       for line in lines[:-1]
                       if line.split() and line.split()[0] in names}
    return result


def summarize(results: list[dict]) -> dict:
    """Median, quartiles and spread of every metric the runs printed."""
    out = {}
    for name in results[0]["table"]:
        values = [r["table"][name] for r in results]
        q1, med, q3 = spans.quartiles(values)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else None}
    return out


def steadiness(sets: list[dict], spec: dict) -> dict:
    """Per metric: largest spread, largest worsening of a later set's
    median against set 0's, the bound, and whether both stay within it."""
    out = {}
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        spreads = [s[name]["spread"] for s in sets]
        base = sets[0][name]["median"]
        sign = 1.0 if m["better"] == "lower" else -1.0
        worse = [sign * (s[name]["median"] - base) / base for s in sets[1:]]
        out[name] = {"bound": bound, "max_spread": max(spreads),
                     "max_worsening": max(worse, default=0.0),
                     "within_bound": max(spreads) <= bound
                     and max(worse, default=0.0) <= bound}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    runs: dict[str, list[list[dict]]] = {w: [] for w in scenes.WORKLOADS}
    for k in range(SETS):
        seeds = range(k * RUNS + 1, (k + 1) * RUNS + 1)
        for workload in scenes.WORKLOADS:
            runs[workload].append([one(workload, s, seconds, 0)
                                   for s in seeds])
    record = {"environment": run.environment(), "seconds": seconds,
              "runs_per_set": RUNS, "second_seed": SECOND_SEED,
              "workloads": {}}
    for workload in scenes.WORKLOADS:
        traced = one(workload, 1, seconds, 1)
        second = one(workload, SECOND_SEED, seconds, 0)
        sets = [summarize(r) for r in runs[workload]]
        record["workloads"][workload] = {
            "sets": sets,
            "steadiness": steadiness(sets, spec),
            "seed_1": {k: v["value"]
                       for k, v in runs[workload][0][0]["metrics"].items()},
            "second_seed": {k: v["value"]
                            for k, v in second["metrics"].items()},
            "per_layer_seed_1": {k: v["value"]
                                 for k, v in traced["metrics"].items()},
            "all_correct": all(r["correct"] for r in
                               sum(runs[workload], [traced, second])),
        }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
