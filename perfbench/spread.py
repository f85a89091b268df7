"""Run one workload once per seed and print each end-to-end metric's spread.

    python3 perfbench/spread.py --workload eval-desk --seeds 10 [--first-seed 1]

For each metric: the median of the runs and the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share of
that median, next to the metric's bound in BENCHMARK.json. Runs are made
one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    if args.seeds < 2:
        parser.error("a spread needs at least two seeds")

    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        *_, report, result = map(json.loads, proc.stdout.strip().splitlines())
        probe = report["environment"]["speed_probe_ms_start"]
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} operations failed")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: speed_probe_ms={probe:.3g}, "
              + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'metric':16} {'median':>12} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        print(f"{name:16} {statistics.median(vals):12.5g} {(q3 - q1) / median:8.4f} "
              f"{bounds[name]:6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
