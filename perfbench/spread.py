"""Steadiness check: run the benchmark on ten seeds and report spreads.

For each end-to-end metric the spread is the distance between the first and
third quartile of the runs (``statistics.quantiles(values, n=4)``) as a
share of their median; each must stay within the metric's bound in
BENCHMARK.json, and should stay below a third of it.  Every run is
``run_seconds`` long.  Run from the root of a checkout::

    python3 perfbench/spread.py --workload star-wide --first-seed 1

``--record`` adds the result to the workload's list of ten-run sets in
perfbench/steadiness.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUNNER = HERE / "run.py"
RECORD = HERE / "steadiness.json"
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(RUNNER), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True, timeout=180)
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs incorrect: "
                         f"{result}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def spreads(runs: list[dict]) -> dict[str, dict]:
    table = {}
    for name in runs[0]:
        values = [run[name] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        table[name] = {"median": median, "q1": q1, "q3": q3,
                       "spread": (q3 - q1) / median, "values": values}
    return table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + RUNS)
    table = spreads([run_once(args.workload, seed, seconds)
                     for seed in seeds])
    for name, row in table.items():
        bound = bounds[name]
        verdict = ("ok" if row["spread"] < bound / 3 else
                   "within bound" if row["spread"] <= bound else "TOO WIDE")
        print(f"{name:<14} median {row['median']:<12.6g} spread "
              f"{row['spread']:.4f}  bound {bound}  {verdict}")
    if args.record:
        record = json.loads(RECORD.read_text()) if RECORD.exists() else {}
        record.setdefault(args.workload, []).append({
            "runs": RUNS, "seconds": seconds,
            "seeds": [seeds[0], seeds[-1]], "metrics": table})
        RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
